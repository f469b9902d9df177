#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace cord::sim {

namespace detail {
void notify_root_done(Engine& engine, std::uint64_t root_id) noexcept {
  engine.roots_.erase(root_id);
}
}  // namespace detail

void Engine::park_at(Poller& p, PollGroup& group, std::coroutine_handle<> h,
                     Time t) {
  p.h_ = h;
  p.group_ = &group;
  // The park sits inside the dispatch in progress, the events_processed_-th.
  nodes_.push_back(Node{now_, 2 * events_processed_ - 1, kBase,
                        static_cast<std::uint32_t>(next_tie_++)});
  p.prev_ = static_cast<std::uint32_t>(nodes_.size() - 1);
  p.t_ = t;
  p.seq_ = next_seq_;
  p.known_ = events_processed_;
  p.lane_at_ = lanes_.size();
  lanes_.push_back(&p);
  make_lazy(p);
}

void Engine::drain_parked() {
  // Log the dispatch that parked the first lane: steps locate among
  // dispatches from there on.
  done_base_ = events_processed_;
  done_.push_back(Done{now_, cur_seq_, next_seq_, kEvent});
  while (!lanes_.empty()) {
    Time next = pending_ != 0 ? heap_.top().t : Poller::kNever;
    if (!armed_.empty() && armed_[0]->t_ < next) next = armed_[0]->t_;
    if (!bounds_.empty() && bounds_[0]->bound_ <= next) {
      // A lane may wake on its own before anything else happens: replay
      // it up to that instant and let its next step run in its slot.
      Poller& p = *bounds_[0];
      replay(*p.group_, Point{p.bound_, 0, kInstant});
      arm(p);
      continue;
    }
    if (pending_ == 0 && armed_.empty()) {
      // Only lanes that nothing can wake are left: they spin on, step by
      // step, as their events would have.
      for (Poller* p : lanes_) arm(*p);
      continue;
    }
    if (!armed_.empty() && (pending_ == 0 || armed_before(*armed_[0], heap_.top()))) {
      run_parked();
      continue;
    }
    const Item& top = heap_.top();
    if (nodes_.size() > kMaxNodes || done_.size() > kMaxDone) {
      rebase(Point{top.t, top.seq, kEvent});
    }
    step_one();
    done_.push_back(Done{now_, cur_seq_, next_seq_, kEvent});
  }
  done_.clear();
  nodes_.clear();
}

void Engine::run_parked() {
  Poller& p = *armed_[0];
  replay(*p.group_, Point{p.t_, p.seq_, p.prev_});
  armed_pop();
  now_ = p.t_;
  replaying_ = true;
  const Time d = p.step();
  replaying_ = false;
  if (d == Poller::kWake) {
    const Done w{p.t_, p.seq_, 0, p.prev_};
    lanes_.back()->lane_at_ = p.lane_at_;
    lanes_[p.lane_at_] = lanes_.back();
    lanes_.pop_back();
    ++poll_wakes_;
    cur_seq_ = w.seq;
    cur_prev_ = w.prev;
    dispatch(reinterpret_cast<std::uintptr_t>(p.h_.address()));
    done_.push_back(Done{w.t, w.seq, next_seq_, w.prev});
    cur_prev_ = kEvent;
    return;
  }
  ++polls_elided_;
  // The step ran in its slot, after every dispatch so far.
  nodes_.push_back(Node{now_, 2 * events_processed_, p.prev_, 0});
  p.prev_ = static_cast<std::uint32_t>(nodes_.size() - 1);
  p.known_ = events_processed_;
  p.seq_ = next_seq_;
  p.t_ = now_ + d;
  make_lazy(p);
}

void Engine::sync(const PollGroup& g, bool arm_lanes) {
  replay(g, current());
  if (arm_lanes) {
    while (g.lazy_ != nullptr) arm(*g.lazy_);
  }
}

void Engine::catch_up_all(const Point& to) {
  for (Poller* p : lanes_) {
    if (p->lazy_) replay(*p->group_, to);
  }
}

void Engine::replay(const PollGroup& g, const Point& to) {
  Poller* p = g.lazy_;
  if (p == nullptr) return;
  const Time now = now_;
  replaying_ = true;
  bool any = false;
  if (p->lazy_next_ == nullptr) {
    // One lane: its steps back to back.
    while (step_before(*p, to)) {
      replay_one(*p);
      any = true;
    }
  } else {
    // Lanes sharing state: always the earliest step of the group next.
    for (;;) {
      Poller* first = p;
      for (Poller* q = p->lazy_next_; q != nullptr; q = q->lazy_next_) {
        if (lane_less(*q, *first)) first = q;
      }
      if (!step_before(*first, to)) break;
      replay_one(*first);
      any = true;
    }
  }
  replaying_ = false;
  now_ = now;
  if (any) ++poll_catchups_;
}

void Engine::replay_one(Poller& p) {
  now_ = p.t_;
  const Time d = p.step();
  if (d == Poller::kWake) [[unlikely]] {
    // Nothing outside the group changed since the loop went lazy (a
    // notify() would have armed it), and no bound was reached: a step
    // reads state that changed without a notify().
    replaying_ = false;
    throw std::logic_error("a lazy poller woke during a catch-up");
  }
  ++polls_elided_;
  const std::uint64_t k = locate(p);
  nodes_.push_back(Node{p.t_, 2 * k, p.prev_, 0});
  p.prev_ = static_cast<std::uint32_t>(nodes_.size() - 1);
  p.known_ = k;
  p.seq_ = done_[k - done_base_].after;
  p.t_ += d;
}

std::uint64_t Engine::locate(const Poller& p) const {
  const std::size_t end = done_.size();
  std::size_t i = p.known_ - done_base_ + 1;  // the first dispatch in doubt
  // Skip the dispatches at earlier instants: a step between two polls
  // passes one or two, a lane in its backoff hundreds, galloping.
  for (int n = 0; n < 4 && i < end && done_[i].t < p.t_; ++n) ++i;
  if (i < end && done_[i].t < p.t_) {
    std::size_t lo = i + 1, hi = i + 1, stride = 1;
    while (hi < end && done_[hi].t < p.t_) {
      lo = hi + 1;
      hi += stride;
      stride *= 2;
    }
    if (hi > end) hi = end;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (done_[mid].t < p.t_) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    i = lo;
  }
  // Dispatches at the step's own instant go first while they are keyed
  // before it.
  for (; i < end && done_[i].t == p.t_; ++i) {
    const Done& d = done_[i];
    const bool first = d.prev == kEvent
                           ? d.seq < p.seq_
                           : d.seq != p.seq_ ? d.seq < p.seq_
                                             : node_less(d.prev, p.prev_);
    if (!first) break;
  }
  return done_base_ + i - 1;
}

void Engine::rebase(const Point& to) {
  catch_up_all(to);
  // Every lane's last node becomes a base, ranked among the others.
  order_.assign(lanes_.begin(), lanes_.end());
  std::sort(order_.begin(), order_.end(), [this](const Poller* a, const Poller* b) {
    return node_less(a->prev_, b->prev_);
  });
  spare_.clear();
  for (Poller* p : order_) {
    const Node& n = nodes_[p->prev_];
    const auto rank = static_cast<std::uint32_t>(spare_.size());
    spare_.push_back(Node{n.t, n.dpos, kBase, rank});
    p->prev_ = rank;
    p->known_ = events_processed_;
  }
  nodes_.assign(spare_.begin(), spare_.end());  // keeps nodes_' capacity
  // Every lane's next step follows every logged dispatch now.
  done_.front() = done_.back();
  done_.front().prev = kEvent;
  done_.resize(1);
  done_base_ = events_processed_;
}

bool Engine::node_less(std::uint32_t a, std::uint32_t b) const {
  for (;;) {
    const Node& x = nodes_[a];
    const Node& y = nodes_[b];
    if (x.t != y.t) return x.t < y.t;
    if (x.dpos != y.dpos) return x.dpos < y.dpos;
    // Same gap between dispatches at one instant: two steps, ordered as
    // their previous steps were, or two bases of one park dispatch or one
    // rebase. A base never shares (t, dpos) with a step.
    if (x.prev == kBase || y.prev == kBase) return x.tie < y.tie;
    a = x.prev;
    b = y.prev;
  }
}

bool Engine::step_before(const Poller& p, const Point& to) const {
  if (p.t_ != to.t) return p.t_ < to.t;
  if (to.prev == kEvent) return p.seq_ <= to.seq;
  if (to.prev == kInstant) return false;
  if (p.seq_ != to.seq) return p.seq_ < to.seq;
  return node_less(p.prev_, to.prev);
}

bool Engine::lane_less(const Poller& a, const Poller& b) const {
  if (a.t_ != b.t_) return a.t_ < b.t_;
  if (a.seq_ != b.seq_) return a.seq_ < b.seq_;
  return node_less(a.prev_, b.prev_);
}

void Engine::make_lazy(Poller& p) {
  p.lazy_ = true;
  PollGroup& g = *p.group_;
  p.lazy_prev_ = nullptr;
  p.lazy_next_ = g.lazy_;
  if (g.lazy_ != nullptr) g.lazy_->lazy_prev_ = &p;
  g.lazy_ = &p;
  p.bound_ = p.wake_bound(p.t_);
  if (p.bound_ != Poller::kNever) bound_push(p);
}

void Engine::arm(Poller& p) {
  p.lazy_ = false;
  if (p.lazy_prev_ != nullptr) {
    p.lazy_prev_->lazy_next_ = p.lazy_next_;
  } else {
    p.group_->lazy_ = p.lazy_next_;
  }
  if (p.lazy_next_ != nullptr) p.lazy_next_->lazy_prev_ = p.lazy_prev_;
  if (p.bound_ != Poller::kNever) bound_erase(p);
  armed_push(p);
}

void Engine::armed_push(Poller& p) {
  armed_.push_back(&p);
  std::push_heap(armed_.begin(), armed_.end(), armed_later());
}

void Engine::armed_pop() {
  std::pop_heap(armed_.begin(), armed_.end(), armed_later());
  armed_.pop_back();
}

void Engine::bound_push(Poller& p) {
  p.bound_at_ = bounds_.size();
  bounds_.push_back(&p);
  bound_place(p.bound_at_);
}

void Engine::bound_erase(Poller& p) {
  const std::size_t i = p.bound_at_;
  Poller* const last = bounds_.back();
  bounds_.pop_back();
  if (last == &p) return;
  bounds_[i] = last;
  last->bound_at_ = i;
  bound_place(i);
}

void Engine::bound_place(std::size_t i) {
  Poller* const x = bounds_[i];
  while (i > 0 && x->bound_ < bounds_[(i - 1) / 2]->bound_) {
    bounds_[i] = bounds_[(i - 1) / 2];
    bounds_[i]->bound_at_ = i;
    i = (i - 1) / 2;
  }
  const std::size_t n = bounds_.size();
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && bounds_[c + 1]->bound_ < bounds_[c]->bound_) ++c;
    if (!(bounds_[c]->bound_ < x->bound_)) break;
    bounds_[i] = bounds_[c];
    bounds_[i]->bound_at_ = i;
    i = c;
  }
  bounds_[i] = x;
  x->bound_at_ = i;
}

std::vector<Engine::PollStorage>& Engine::poll_storage_cache() {
  // Immortal, like the frame arena: an engine may outlive static storage.
  static auto* cache = new std::vector<PollStorage>;
  return *cache;
}

void Engine::take_poll_storage() {
  auto& cache = poll_storage_cache();
  PollStorage s;
  if (!cache.empty()) {
    s = std::move(cache.back());
    cache.pop_back();
  } else {
    // Room for a full history and log plus one long catch-up.
    s.nodes.reserve(2 * kMaxNodes);
    s.spare.reserve(1024);
    s.done.reserve(2 * kMaxDone);
    for (auto* v : {&s.lanes, &s.armed, &s.bounds, &s.order}) v->reserve(1024);
  }
  lanes_ = std::move(s.lanes);
  armed_ = std::move(s.armed);
  bounds_ = std::move(s.bounds);
  order_ = std::move(s.order);
  nodes_ = std::move(s.nodes);
  spare_ = std::move(s.spare);
  done_ = std::move(s.done);
}

void Engine::return_poll_storage() {
  PollStorage s{std::move(lanes_), std::move(armed_), std::move(bounds_),
                std::move(order_), std::move(nodes_), std::move(spare_),
                std::move(done_)};
  for (auto* v : {&s.lanes, &s.armed, &s.bounds, &s.order}) v->clear();
  s.nodes.clear();
  s.spare.clear();
  s.done.clear();
  auto& cache = poll_storage_cache();
  if (cache.size() < 4) cache.push_back(std::move(s));
}

std::vector<Engine::Slab>& Engine::slab_cache() {
  static auto* cache = new std::vector<Slab>;  // immortal, as above
  return *cache;
}

Engine::FnSlot* Engine::grow_slots() {
  auto& cache = slab_cache();
  FnSlot* slab;
  std::size_t count;
  if (!cache.empty()) {
    // LIFO reuse: the most recently retired slab is the warmest.
    slab = cache.back().slots.release();
    count = cache.back().count;
    cache.pop_back();
  } else {
    count = slab_slots_;
    slab = new FnSlot[count];
  }
  if (slab_slots_ < kMaxSlabSlots) slab_slots_ *= 2;
  slots_.push_back(Slab{std::unique_ptr<FnSlot[]>(slab), count});
  for (std::size_t i = 0; i + 1 < count; ++i) {
    slab[i].next_free = &slab[i + 1];
  }
  slab[count - 1].next_free = free_slots_;
  free_slots_ = slab;
  return slab;
}

Engine::~Engine() {
  // Destroy roots that never completed (their frames own all nested
  // coroutine frames through Task members, so this reclaims the whole
  // logical stack of each process).
  for (auto& [id, h] : roots_) h.destroy();
  roots_.clear();
  // Destroy callbacks still parked in the queue. Slots NOT in the queue
  // are always empty (release_slot clears before recycling), so the
  // queue's tagged payloads identify every live callable — no need to
  // walk whole slabs.
  const auto clear_parked = [](const Item& item) {
    if (item.payload & kFnTag) {
      reinterpret_cast<FnSlot*>(item.payload & ~kFnTag)->fn.clear();
    }
  };
  for (const Item& item : heap_.heap_items()) clear_parked(item);
  if (heap_.has_cached()) clear_parked(heap_.cached());
  // Retire slabs (now guaranteed all-empty) to the process-wide cache
  // instead of freeing them; see slab_cache().
  auto& cache = slab_cache();
  std::size_t cached = 0;
  for (const auto& slab : cache) cached += slab.count;
  for (auto& slab : slots_) {
    if (cached + slab.count > kMaxCachedSlots) continue;  // excess: freed
    cached += slab.count;
    cache.push_back(std::move(slab));
  }
  slots_.clear();
  return_poll_storage();
}

}  // namespace cord::sim
