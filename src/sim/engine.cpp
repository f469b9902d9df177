#include "sim/engine.hpp"

namespace cord::sim {

namespace detail {
void notify_root_done(Engine& engine, std::uint64_t root_id) noexcept {
  engine.roots_.erase(root_id);
}
}  // namespace detail

void Engine::park_at(Poller& p, std::coroutine_handle<> h, Time t) {
  p.h_ = h;
  // Sift up from a new leaf.
  const Parked x{t, next_seq_, next_order_++, &p};
  std::size_t i = parked_.size();
  parked_.push_back(x);
  while (i > 0 && x.before(parked_[(i - 1) / 2])) {
    parked_[i] = parked_[(i - 1) / 2];
    i = (i - 1) / 2;
  }
  parked_[i] = x;
}

void Engine::sift_down_root() {
  const std::size_t n = parked_.size();
  const Parked x = parked_[0];
  std::size_t i = 0;
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && parked_[c + 1].before(parked_[c])) ++c;
    if (!parked_[c].before(x)) break;
    parked_[i] = parked_[c];
    i = c;
  }
  parked_[i] = x;
}

void Engine::run_parked(const Item* next, Time limit) {
  Parked& top = parked_[0];
  for (;;) {
    now_ = top.t;
    const Time d = top.p->step();
    if (d == Poller::kWake) {
      const std::coroutine_handle<> h = top.p->h_;
      parked_[0] = parked_.back();
      parked_.pop_back();
      if (!parked_.empty()) sift_down_root();
      ++poll_wakes_;
      dispatch(reinterpret_cast<std::uintptr_t>(h.address()));
      return;
    }
    ++polls_elided_;
    // No event was scheduled since the last step, so every step of this
    // run shares one seq and only order advances.
    top.t = now_ + d;
    top.seq = next_seq_;
    top.order = next_order_++;
    const std::size_t n = parked_.size();
    if (top.t > limit || (next != nullptr && !top.before(*next)) ||
        (n > 1 && parked_[1].before(top)) ||
        (n > 2 && parked_[2].before(top))) {
      sift_down_root();
      return;
    }
  }
}

std::vector<Engine::Slab>& Engine::slab_cache() {
  thread_local std::vector<Slab> cache;
  return cache;
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
  // Retire slabs (now guaranteed all-empty) to the thread-local cache
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
}

}  // namespace cord::sim
