// Discrete-event engine: a single-threaded virtual clock plus an event
// queue of coroutine resumptions and callbacks. Deterministic: ties in
// timestamp break by insertion sequence number.
//
// Hot-path design (the engine bounds the wall-clock of every figure
// bench):
//  * Heap items are 24-byte PODs `{t, seq, payload}` — the payload is a
//    tagged pointer: a coroutine frame address (tag 0) or a pooled
//    callback slot (tag 1). Sift operations move three words, never the
//    callable itself.
//  * Callbacks live in `InlineFn` slots from a slab-backed freelist: a
//    `call_at` constructs the callable directly in a recycled slot, so
//    steady-state simulation performs zero allocations per event and the
//    callable never moves once parked.
//  * The queue is a hand-rolled 4-ary min-heap: shallower than a binary
//    heap (fewer cache-missing levels per sift) and `reserve()`d up
//    front. Ordering is the exact `(t, seq)` total order the old
//    `std::priority_queue` used — `seq` is unique, so pop order is a
//    strict total order independent of heap layout, and every
//    EXPERIMENTS.md number is unchanged.
//  * Scheduling into the past clamps to `now()` in every build mode (the
//    old `assert` vanished under NDEBUG and silently corrupted event
//    order); `clamped_events()` counts occurrences for tests/debugging.
//  * Busy-poll loops that keep finding nothing park beside the queue
//    (Poller, DESIGN.md §20): the run loops replay their empty steps
//    arithmetically in the exact (t, seq) slots their events would have
//    taken, and dispatch only the step that finds work.
#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/task.hpp"
#include "sim/units.hpp"

namespace cord::trace {
class Tracer;
}  // namespace cord::trace

namespace cord::sim {

/// One queued event: a 24-byte POD moved by value through the heap. The
/// payload is the engine's tagged pointer (coroutine frame or FnSlot).
struct QueueItem {
  Time t;
  std::uint64_t seq;
  std::uintptr_t payload;

  bool before(const QueueItem& o) const {
    return t != o.t ? t < o.t : seq < o.seq;
  }
};
static_assert(std::is_trivially_copyable_v<QueueItem>);

/// A busy-poll loop parked beside the event queue (DESIGN.md §20). While
/// parked, the loop's coroutine stays suspended and the engine replays its
/// steps without events: at each step's instant it calls step(), which
/// applies the step's effects (CPU charges, counters) and returns the delay
/// to the next step — or kWake, and the coroutine resumes right there as an
/// ordinary event. Every step keeps the (t, seq) slot that the event it
/// replaces would have had, so the dispatch order of everything else is
/// unchanged.
class Poller {
 public:
  /// step() result: resume the loop's coroutine at this step.
  static constexpr Time kWake = -1;

  /// Replay the loop's step due at Engine::now(). Must not schedule
  /// events, resume coroutines or park.
  virtual Time step() = 0;

 protected:
  ~Poller() = default;

 private:
  friend class Engine;
  std::coroutine_handle<> h_;  // the parked loop
};

class Engine {
 public:
  Engine() { heap_.reserve(1024); }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  Time now() const { return now_; }

  /// Resume `h` at absolute time `t` (clamped to now() if in the past).
  void schedule_at(Time t, std::coroutine_handle<> h) {
    queue_push(Item{clamp_to_now(t), next_seq_++,
                    reinterpret_cast<std::uintptr_t>(h.address())});
  }
  /// Resume `h` after `delay`.
  void schedule_in(Time delay, std::coroutine_handle<> h) {
    schedule_at(now_ + delay, h);
  }

  /// Run `fn` at absolute time `t` (used for device callbacks,
  /// interrupts). The callable is constructed directly into a pooled
  /// slot; captures up to InlineFn::kCapacity bytes never touch the heap.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineFn> &&
                std::is_invocable_v<std::remove_cvref_t<F>&>>>
  void call_at(Time t, F&& fn) {
    FnSlot* slot = acquire_slot();
    slot->fn.assign(std::forward<F>(fn));
    push_fn(t, slot);
  }
  /// Overload for a pre-built InlineFn (one relocation into the slot).
  void call_at(Time t, InlineFn fn) {
    FnSlot* slot = acquire_slot();
    slot->fn = std::move(fn);
    push_fn(t, slot);
  }
  template <typename F>
  void call_in(Time delay, F&& fn) {
    call_at(now_ + delay, std::forward<F>(fn));
  }

  /// Detach a root task: it starts at the current time and owns itself.
  template <typename T>
  void spawn(Task<T> task) {
    auto h = task.release();
    auto& p = h.promise();
    p.owner_engine = this;
    p.root_id = next_root_id_++;
    roots_.emplace(p.root_id, h);
    schedule_at(now_, h);
  }

  /// Run until the event queue drains and no poller is parked. Returns the
  /// final virtual time.
  /// Defined inline: this is THE simulation hot loop, and keeping it
  /// visible to callers lets the compiler collapse a schedule→dispatch
  /// ping-pong into register traffic.
  Time run() {
    if (pending_ != 0 || !parked_.empty()) run_drain();
    return now_;
  }
  /// Run until the queue drains or virtual time would pass `deadline`.
  /// Events and poller steps after `deadline` stay queued; now() is
  /// clamped to `deadline`.
  Time run_until(Time deadline) {
    if (pending_ != 0 || !parked_.empty()) run_until_drain(deadline);
    if (now_ < deadline) now_ = deadline;
    return now_;
  }

  /// Sentinel for "no queued event" (see next_event_time()).
  static constexpr Time kNoEvent = std::numeric_limits<Time>::max();
  /// Timestamp of the earliest queued event, or kNoEvent when idle. Never
  /// read on the hot loop. Parked pollers are not counted.
  Time next_event_time() const {
    return pending_ == 0 ? kNoEvent : heap_.top().t;
  }

  /// Number of detached roots that have not finished yet.
  std::size_t live_roots() const { return roots_.size(); }
  /// Total events processed (for the engine microbenchmarks).
  std::uint64_t events_processed() const { return events_processed_; }
  /// Events whose requested time lay in the past and were clamped to
  /// now(). Non-zero values indicate a model bug worth investigating.
  std::uint64_t clamped_events() const { return clamped_events_; }
  /// Events currently queued (for capacity planning in benches).
  std::size_t pending_events() const { return pending_; }
  /// High-water mark of the queue depth (events simultaneously queued).
  std::size_t queue_peak_depth() const { return peak_pending_; }
  /// Parked-poller steps replayed without an event (Poller::step calls
  /// that did not wake).
  std::uint64_t polls_elided() const { return polls_elided_; }
  /// Parked pollers resumed as events (counted in events_processed too).
  std::uint64_t poll_wakes() const { return poll_wakes_; }

  /// The active tracer, or nullptr when tracing is off. Every trace point
  /// in the stack guards on this single pointer, so disabled tracing costs
  /// one predicted branch per point; the engine itself never reads it on
  /// the hot loop. Installed by trace::Tracer::set_enabled.
  trace::Tracer* tracer() const { return tracer_; }
  void set_tracer(trace::Tracer* t) { tracer_ = t; }

  /// Awaitable: suspend the current coroutine for `d` of virtual time.
  auto delay(Time d) {
    struct Awaiter {
      Engine& engine;
      Time d;
      bool await_ready() const { return false; }
      void await_suspend(std::coroutine_handle<> h) { engine.schedule_in(d, h); }
      void await_resume() const {}
    };
    return Awaiter{*this, d};
  }

  /// Awaitable: suspend until absolute virtual time `t` (>= now()).
  auto sleep_until(Time t) {
    struct Awaiter {
      Engine& engine;
      Time t;
      bool await_ready() const { return t <= engine.now(); }
      void await_suspend(std::coroutine_handle<> h) { engine.schedule_at(t, h); }
      void await_resume() const {}
    };
    return Awaiter{*this, t};
  }

  /// Awaitable: suspend the calling coroutine as the parked poller `p`.
  /// Its first step falls after `delay`, in the slot schedule_in(delay)
  /// would have taken; the coroutine resumes when a step returns
  /// Poller::kWake.
  auto park(Poller& p, Time delay) {
    struct Awaiter {
      Engine& engine;
      Poller& p;
      Time delay;
      bool await_ready() const { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        engine.park_at(p, h, engine.now_ + delay);
      }
      void await_resume() const {}
    };
    return Awaiter{*this, p, delay};
  }

 private:
  friend void detail::notify_root_done(Engine&, std::uint64_t) noexcept;

  /// Pop and dispatch exactly one event (requires pending_ != 0): the
  /// drain loops' body.
  [[gnu::always_inline]] void step_one() {
    --pending_;
    const Item item = heap_.pop();
    now_ = item.t;
    dispatch(item.payload);
  }

  // Payload tag bit. FnSlot and coroutine frames are both aligned to
  // alignof(std::max_align_t) (>= 8), so the low bit of the address is
  // free.
  static constexpr std::uintptr_t kFnTag = 1;

  /// Pooled parking space for one scheduled callback. Slots live in
  /// fixed-size slabs (stable addresses) and recycle via freelist; retired
  /// slabs are cached per-thread across engine instances.
  struct FnSlot {
    InlineFn fn;
    FnSlot* next_free = nullptr;
  };

  /// One queued event (payload: coroutine frame address, or
  /// FnSlot* | kFnTag).
  using Item = QueueItem;

  /// 4-ary min-heap ordered by Item::before, fronted by a one-item cache.
  /// `(t, seq)` is a strict total order (seq is unique), so pop order is
  /// independent of internal layout — determinism rests on neither the
  /// arity nor the cache, only on always popping the global minimum.
  ///
  /// The cache absorbs ping-pong scheduling (push one, pop one — the
  /// dominant pattern in request-response simulations): such events never
  /// touch the vector. The cached item is NOT necessarily the global
  /// minimum; pop() compares it against the heap front.
  class EventHeap {
   public:
    bool empty() const { return !has_cached_ && v_.empty(); }
    std::size_t size() const { return v_.size() + (has_cached_ ? 1 : 0); }
    void reserve(std::size_t n) { v_.reserve(n); }
    /// The global minimum (requires !empty()).
    const Item& top() const {
      if (!has_cached_) return v_.front();
      if (v_.empty() || cached_.before(v_.front())) return cached_;
      return v_.front();
    }
    const std::vector<Item>& heap_items() const { return v_; }
    bool has_cached() const { return has_cached_; }
    const Item& cached() const { return cached_; }

    // Everything below is force-inlined: GCC's size heuristics otherwise
    // outline the whole push/pop, and every scheduling site then pays a
    // call with a by-value Item staged through the stack (~15-20%% of the
    // per-event budget at both queue-depth extremes).
    [[gnu::always_inline]] void push(Item item) {
      if (!has_cached_) {
        cached_ = item;
        has_cached_ = true;
        return;
      }
      // Keep the smaller of the two in the cache (it is the likelier next
      // pop) and spill the other into the heap.
      Item spill = item;
      if (item.before(cached_)) {
        spill = cached_;
        cached_ = item;
      }
      heap_push(spill);
    }

    [[gnu::always_inline]] Item pop() {
      if (has_cached_ && (v_.empty() || cached_.before(v_.front()))) {
        has_cached_ = false;
        return cached_;
      }
      return heap_pop();
    }

   private:
    [[gnu::always_inline]] void heap_push(Item item) {
      std::size_t i = v_.size();
      v_.emplace_back(item);
      // Fast path: events mostly arrive in time order, so the new item
      // usually stays where it landed (one compare, zero extra stores).
      if (i == 0 || !item.before(v_[(i - 1) / 4])) return;
      do {
        const std::size_t parent = (i - 1) / 4;
        if (!item.before(v_[parent])) break;
        v_[i] = v_[parent];
        i = parent;
      } while (i > 0);
      v_[i] = item;
    }

    [[gnu::always_inline]] Item heap_pop() {
      const Item out = v_.front();
      const Item last = v_.back();
      v_.pop_back();
      const std::size_t n = v_.size();
      if (n > 0) {
        std::size_t i = 0;
        for (;;) {
          const std::size_t first = 4 * i + 1;
          if (first >= n) break;
          std::size_t best = first;
          const std::size_t end = first + 4 < n ? first + 4 : n;
          for (std::size_t c = first + 1; c < end; ++c) {
            if (v_[c].before(v_[best])) best = c;
          }
          if (!v_[best].before(last)) break;
          v_[i] = v_[best];
          i = best;
        }
        v_[i] = last;
      }
      return out;
    }

    bool has_cached_ = false;
    Item cached_{};
    std::vector<Item> v_;
  };

  [[gnu::always_inline]] void queue_push(Item item) {
    if (++pending_ > peak_pending_) peak_pending_ = pending_;
    heap_.push(item);
  }

  [[gnu::always_inline]] void run_drain() {
    for (;;) {
      if (!parked_.empty()) {
        drain_parked();
        if (pending_ == 0) return;
      }
      // Events only, in the loop's original shape: runs that never park
      // pay one check per event.
      do {
        step_one();
      } while (pending_ != 0 && parked_.empty());
      if (pending_ == 0 && parked_.empty()) return;
    }
  }

  /// run_drain while some poller is parked; returns once none is.
  [[gnu::noinline]] void drain_parked() {
    while (!parked_.empty()) {
      if (pending_ == 0) {
        run_parked(nullptr, kNoEvent);
      } else if (parked_.front().before(heap_.top())) {
        run_parked(&heap_.top(), kNoEvent);
      } else {
        step_one();
      }
    }
  }

  [[gnu::always_inline]] void run_until_drain(Time deadline) {
    if (!parked_.empty()) {
      drain_parked_until(deadline);
      return;
    }
    // Events only, in the loop's original shape (see run_drain).
    if (heap_.top().t > deadline) return;
    do {
      step_one();
    } while (pending_ != 0 && heap_.top().t <= deadline && parked_.empty());
    if (!parked_.empty()) drain_parked_until(deadline);
  }

  /// run_until_drain with parked pollers (it also drains plain events if
  /// the last poller wakes).
  [[gnu::noinline]] void drain_parked_until(Time deadline) {
    for (;;) {
      const Item* next =
          pending_ != 0 && heap_.top().t <= deadline ? &heap_.top() : nullptr;
      if (!parked_.empty() && parked_.front().t <= deadline &&
          (next == nullptr || parked_.front().before(*next))) {
        run_parked(next, deadline);
      } else if (next == nullptr) {
        return;
      } else {
        step_one();
      }
    }
  }

  // --- Parked pollers (DESIGN.md §20) -----------------------------------
  // A binary min-heap beside the event queue, keys inline. Among
  // themselves pollers order by (t, order); against a queued event a
  // poller goes first at equal t iff its seq <= the event's seq, because
  // its step would have been scheduled when next_seq_ was seq — after
  // every event with a smaller seq and before every later one.

  struct Parked {
    Time t;               // instant of the poller's next step
    std::uint64_t seq;    // next_seq_ when that step was scheduled
    std::uint64_t order;  // engine-wide park order: ties among pollers
    Poller* p;
    bool before(const Item& e) const {
      return t < e.t || (t == e.t && seq <= e.seq);
    }
    bool before(const Parked& o) const {
      return t < o.t || (t == o.t && order < o.order);
    }
  };

  void park_at(Poller& p, std::coroutine_handle<> h, Time t);

  /// Restore the heap below a root whose key grew (or that was replaced).
  void sift_down_root();
  /// Replay the earliest poller's steps while each stays before `next`
  /// (the earliest queued event, or nullptr), before every other poller
  /// and at or before `limit`; then re-sift it, or resume it when a step
  /// wakes it. Out of line: the drain loops stay small for runs that never
  /// park.
  void run_parked(const Item* next, Time limit);

  Time clamp_to_now(Time t) {
    if (t < now_) [[unlikely]] {
      ++clamped_events_;
      return now_;
    }
    return t;
  }

  /// One slab of FnSlots plus its length (slabs have varying sizes:
  /// geometric growth, and recycled slabs keep their original size).
  struct Slab {
    std::unique_ptr<FnSlot[]> slots;
    std::size_t count = 0;
  };

  /// Thread-local cache of retired slabs. The simulator is single-threaded
  /// by design, and tests/benches construct thousands of short-lived
  /// engines; recycling slabs avoids a malloc/free pair per slab per
  /// engine — and, more importantly, stops glibc from trimming the freed
  /// pages back to the kernel at every engine teardown only to page-fault
  /// them in again (that churn costs far more than the events themselves).
  static std::vector<Slab>& slab_cache();

  FnSlot* acquire_slot() {
    FnSlot* slot = free_slots_;
    if (slot == nullptr) [[unlikely]] {
      slot = grow_slots();
    }
    free_slots_ = slot->next_free;
    return slot;
  }

  FnSlot* grow_slots();

  void release_slot(FnSlot* slot) {
    // Destroy the callable now, not at engine teardown. Callables with no
    // destructor state need no clear at all: assign() overwrites in place.
    if (!slot->fn.trivial_state()) [[unlikely]] slot->fn.clear();
    slot->next_free = free_slots_;
    free_slots_ = slot;
  }

  void push_fn(Time t, FnSlot* slot) {
    queue_push(Item{clamp_to_now(t), next_seq_++,
                    reinterpret_cast<std::uintptr_t>(slot) | kFnTag});
  }

  /// Execute one popped event: resume a coroutine (tag 0) or invoke and
  /// recycle a parked callback (kFnTag set).
  void dispatch(std::uintptr_t payload) {
    ++events_processed_;
    if (payload & kFnTag) {
      FnSlot* slot = reinterpret_cast<FnSlot*>(payload & ~kFnTag);
      slot->fn();
      release_slot(slot);
    } else {
      std::coroutine_handle<>::from_address(reinterpret_cast<void*>(payload))
          .resume();
    }
  }

  // 512 slots * sizeof(FnSlot)==128 keeps every slab at 64 KiB, safely
  // below glibc's 128 KiB mmap threshold (an over-threshold slab would be
  // served by mmap/munmap plus fresh page faults on every allocation).
  static constexpr std::size_t kMaxSlabSlots = 512;
  // Upper bound on slots parked in the thread-local slab cache (~1 MiB).
  static constexpr std::size_t kMaxCachedSlots = 8192;

  EventHeap heap_;
  std::size_t pending_ = 0;
  std::size_t peak_pending_ = 0;
  std::vector<Slab> slots_;
  std::size_t slab_slots_ = 64;  // next fresh-slab size; doubles to the cap
  FnSlot* free_slots_ = nullptr;
  std::unordered_map<std::uint64_t, std::coroutine_handle<>> roots_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_root_id_ = 1;
  std::uint64_t events_processed_ = 0;
  std::uint64_t clamped_events_ = 0;
  std::vector<Parked> parked_;  // min-heap by Parked::before
  std::uint64_t next_order_ = 0;
  std::uint64_t polls_elided_ = 0;
  std::uint64_t poll_wakes_ = 0;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace cord::sim
