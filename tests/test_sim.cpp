// Unit tests for the discrete-event simulation core: engine ordering
// (including a randomized differential against a reference order), parked
// pollers, coroutine task composition, latches/signals/channels, FIFO
// resources, RNG determinism, and statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "sim/units.hpp"

namespace cord::sim {
namespace {

TEST(Units, Conversions) {
  EXPECT_EQ(ns(1), 1000);
  EXPECT_EQ(us(1), 1'000'000);
  EXPECT_EQ(ms(1), 1'000'000'000);
  EXPECT_EQ(sec(1), 1'000'000'000'000);
  EXPECT_DOUBLE_EQ(to_ns(ns(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_us(us(7)), 7.0);
  EXPECT_EQ(ns_d(1.5), 1500);
}

TEST(Units, BandwidthTimeFor) {
  // 100 Gbit/s == 12.5 bytes/ns: 4096 B should take 327.68 ns.
  auto bw = Bandwidth::gbit_per_sec(100.0);
  EXPECT_EQ(bw.time_for(4096), 327'680);
  EXPECT_NEAR(bw.gbps(), 100.0, 1e-9);
  // 1 GiB/s
  auto bw2 = Bandwidth::gbyte_per_sec(1.0);
  EXPECT_EQ(bw2.time_for(1000), 1'000'000);  // 1000 B at 1 B/ns
  EXPECT_TRUE(Bandwidth::unlimited().is_unlimited());
  EXPECT_EQ(Bandwidth::unlimited().time_for(1 << 20), 0);
}

TEST(Units, Format) {
  EXPECT_EQ(format_time(ns(5)), "5.0 ns");
  EXPECT_EQ(format_time(us(3)), "3.000 us");
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(4096), "4.0 KiB");
}

TEST(Engine, DelayAdvancesVirtualTime) {
  Engine e;
  Time observed = -1;
  e.spawn([](Engine& e, Time& observed) -> Task<> {
    co_await e.delay(us(5));
    observed = e.now();
  }(e, observed));
  e.run();
  EXPECT_EQ(observed, us(5));
  EXPECT_EQ(e.live_roots(), 0u);
}

TEST(Engine, EventsFireInTimestampOrder) {
  Engine e;
  std::vector<int> order;
  e.spawn([](Engine& e, std::vector<int>& order) -> Task<> {
    co_await e.delay(ns(30));
    order.push_back(3);
  }(e, order));
  e.spawn([](Engine& e, std::vector<int>& order) -> Task<> {
    co_await e.delay(ns(10));
    order.push_back(1);
  }(e, order));
  e.spawn([](Engine& e, std::vector<int>& order) -> Task<> {
    co_await e.delay(ns(20));
    order.push_back(2);
  }(e, order));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TiesBreakByScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.spawn([](Engine& e, std::vector<int>& order, int i) -> Task<> {
      co_await e.delay(ns(10));
      order.push_back(i);
    }(e, order, i));
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, CallAtRunsCallback) {
  Engine e;
  Time fired = -1;
  e.call_at(ns(42), [&] { fired = e.now(); });
  e.run();
  EXPECT_EQ(fired, ns(42));
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.call_at(ns(10), [&] { ++fired; });
  e.call_at(ns(100), [&] { ++fired; });
  e.run_until(ns(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), ns(50));
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), ns(100));
}

TEST(Engine, DestructorReclaimsStuckRoots) {
  // A root waiting on a latch that never triggers must not leak.
  auto latch_owner = std::make_unique<Engine>();
  Engine& e = *latch_owner;
  auto latch = std::make_unique<Latch>(e);
  e.spawn([](Latch& l) -> Task<> { co_await l.wait(); }(*latch));
  e.run();
  EXPECT_EQ(e.live_roots(), 1u);
  latch_owner.reset();  // must destroy the suspended root without UB
}

// --- Event queue against a reference total order ----------------------------
// A seeded program schedules through call_at from outside and inside
// dispatch. Its times mix duplicate timestamps, clamped past scheduling
// and far-future times near Engine::kNoEvent / 2. The clock steps in
// run_until windows with a next_event_time() peek at each edge. Every
// dispatch must pop the minimum of a std::set on (t, seq) that mirrors
// the queue.

struct RefQueue {
  Engine engine;
  Rng rng;
  std::set<std::pair<Time, std::uint64_t>> ref;
  std::uint64_t next_seq = 0;  // mirrors the engine's insertion counter
  std::uint64_t clamped = 0;
  std::uint64_t fired = 0;
  std::size_t peak = 0;
  Time last_push = 0;
  int budget = 20000;

  explicit RefQueue(std::uint64_t seed) : rng(seed) {}

  Time draw_time() {
    const Time now = engine.now();
    const auto r = static_cast<Time>(rng.next_u64() % 2048);
    switch (rng.next_u64() % 8) {
      case 0:  // at or before now: a past time clamps to now
        return now - r % 20;
      case 1:  // duplicate of the previous push's timestamp
        return last_push;
      case 2:  // within a few picoseconds
        return now + r % 64;
      case 3:
      case 4:
      case 5:  // the FIFO-ish common case: a few ns out
        return now + ns(1 + r % 2000);
      case 6:  // milliseconds out
        return now + ms(1 + r % 50);
      default:  // far future, half-way to the kNoEvent sentinel
        return Engine::kNoEvent / 2 - r % 4;
    }
  }

  void push() {
    --budget;
    const Time want = draw_time();
    last_push = want;
    if (want < engine.now()) ++clamped;
    const std::uint64_t seq = next_seq++;
    ref.emplace(std::max(want, engine.now()), seq);
    peak = std::max(peak, ref.size());
    engine.call_at(want, [this, seq] { fire(seq); });
  }

  void fire(std::uint64_t seq) {
    ASSERT_FALSE(ref.empty());
    const auto [t, expect_seq] = *ref.begin();
    ASSERT_EQ(engine.now(), t);
    ASSERT_EQ(seq, expect_seq);
    ref.erase(ref.begin());
    ++fired;
    const std::uint64_t kids = rng.next_u64() % 3;
    for (std::uint64_t k = 0; k < kids && budget > 0; ++k) push();
  }
};

TEST(Engine, RandomizedOrderMatchesReference) {
  for (const std::uint64_t seed : {1ull, 7ull, 0xC0FFEEull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RefQueue q(seed);
    for (Time edge = ns(100); q.budget > 0; edge += ns(137)) {
      for (int i = 0; i < 4 && q.budget > 0; ++i) q.push();
      ASSERT_EQ(q.engine.next_event_time(),
                q.ref.empty() ? Engine::kNoEvent : q.ref.begin()->first);
      q.engine.run_until(edge);
      ASSERT_EQ(q.engine.pending_events(), q.ref.size());
    }
    q.engine.run();
    EXPECT_TRUE(q.ref.empty());
    EXPECT_EQ(q.engine.next_event_time(), Engine::kNoEvent);
    EXPECT_EQ(q.engine.events_processed(), q.fired);
    EXPECT_EQ(q.engine.clamped_events(), q.clamped);
    EXPECT_EQ(q.engine.queue_peak_depth(), q.peak);
    // The stream must have exercised the clamp and the far-future band.
    EXPECT_GT(q.clamped, 0u);
    EXPECT_GE(q.engine.now(), Engine::kNoEvent / 2 - 3);
  }
}

// --- Parked pollers ---------------------------------------------------------
// One busy-poll loop in two forms: `spin_loop` schedules a delay event per
// empty step (the reference), `park_loop` replays its empty steps through a
// Poller. Every empty step folds the loop id into an order-dependent
// accumulator (as Core's DVFS EWMA is), and every taken item records its
// instant, so equal results mean equal step order.

struct PollWorld {
  Engine engine;
  int work = 0;               // items posted and not yet taken
  int remaining = 0;          // items still to be taken in total
  std::uint64_t activity = 0;  // moves on every post and take
  double acc = 0.0;
  std::vector<Time> steps;    // instants of empty steps
  std::vector<std::pair<Time, int>> taken;

  void post() {
    ++work;
    ++activity;
  }
  /// One empty step of loop `id`: charge it, return the delay to the next.
  Time empty_step(int id, int& idle) {
    steps.push_back(engine.now());
    acc = acc * 0.75 + id + 1;
    ++idle;
    return idle < 4 ? ns(10) + id * ns(5) : ns(4) * idle;
  }
  /// Take an item if one waits; true when the loop should look again.
  bool take(int id, int& idle) {
    if (work == 0) return false;
    --work;
    --remaining;
    ++activity;
    idle = 0;
    taken.emplace_back(engine.now(), id);
    return true;
  }
};

Task<> spin_loop(PollWorld& w, int id) {
  int idle = 0;
  while (w.remaining > 0) {
    if (w.take(id, idle)) continue;
    co_await w.engine.delay(w.empty_step(id, idle));
  }
}

class ParkedLoop final : public Poller {
 public:
  ParkedLoop(PollWorld& w, int id, int& idle) : w_(w), id_(id), idle_(idle) {}
  Time step() override {
    if (w_.activity != seen_) return kWake;
    return w_.empty_step(id_, idle_);
  }
  auto park() {
    seen_ = w_.activity;
    return w_.engine.park(*this, w_.empty_step(id_, idle_));
  }

 private:
  PollWorld& w_;
  int id_;
  int& idle_;
  std::uint64_t seen_ = 0;
};

Task<> park_loop(PollWorld& w, int id) {
  int idle = 0;
  ParkedLoop p(w, id, idle);
  while (w.remaining > 0) {
    if (w.take(id, idle)) continue;
    co_await p.park();
  }
}

struct PollOutcome {
  std::vector<std::pair<Time, int>> taken;
  std::uint64_t acc_bits = 0;
  Time end = 0;
  std::uint64_t events = 0;
  std::uint64_t elided = 0;
  std::uint64_t wakes = 0;
  bool operator==(const PollOutcome& o) const {
    return taken == o.taken && acc_bits == o.acc_bits && end == o.end;
  }
};

/// A post due at `t`: `late` schedules it after the step due at `t` was
/// scheduled (so that step reads first), otherwise before.
struct Post {
  Time t;
  bool late;
};

/// Run two loops on one world with the given posts. `window` > 0 drives the
/// engine through run_until() slices instead of run().
PollOutcome run_polls(bool parked, const std::vector<Post>& posts,
                      Time window = 0) {
  PollWorld w;
  w.remaining = static_cast<int>(posts.size());
  for (const Post& p : posts) {
    if (p.late) {
      w.engine.call_at(p.t - 1, [&w, t = p.t] {
        w.engine.call_at(t, [&w] { w.post(); });
      });
    } else {
      w.engine.call_at(p.t, [&w] { w.post(); });
    }
  }
  for (int id = 0; id < 2; ++id) {
    w.engine.spawn(parked ? park_loop(w, id) : spin_loop(w, id));
  }
  if (window > 0) {
    while (w.engine.live_roots() > 0) w.engine.run_until(w.engine.now() + window);
  } else {
    w.engine.run();
  }
  EXPECT_EQ(w.engine.live_roots(), 0u);
  PollOutcome out;
  out.taken = w.taken;
  std::memcpy(&out.acc_bits, &w.acc, sizeof(double));
  out.end = w.engine.now();
  out.events = w.engine.events_processed();
  out.elided = w.engine.polls_elided();
  out.wakes = w.engine.poll_wakes();
  return out;
}

TEST(Poller, ParkedStepsKeepExactOrderAtTiedInstants) {
  // Step instants of the two loops before any work arrives.
  PollWorld probe;
  probe.remaining = 1;
  probe.engine.call_at(ns(2000), [&] { probe.post(); });
  for (int id = 0; id < 2; ++id) probe.engine.spawn(spin_loop(probe, id));
  probe.engine.run();
  std::vector<Time> ties(probe.steps.begin(), probe.steps.begin() + 60);
  // Each tie instant, with the post ordered before and after the step due
  // then, plus two later posts that land between steps.
  for (const Time t : ties) {
    for (const bool late : {false, true}) {
      const std::vector<Post> posts{{t, late}, {t + ns(333), false},
                                    {t + ns(1001), true}};
      const PollOutcome ref = run_polls(false, posts);
      const PollOutcome got = run_polls(true, posts);
      EXPECT_EQ(got, ref) << "tie at " << t << (late ? " (late)" : " (early)");
      EXPECT_LT(got.events, ref.events);
      EXPECT_GT(got.elided, 0u);
      EXPECT_GT(got.wakes, 0u);
      EXPECT_EQ(ref.elided + ref.wakes, 0u);
    }
  }
}

TEST(Poller, RunUntilSlicesMatchRun) {
  const std::vector<Post> posts{{ns(95), false}, {ns(95), true},
                                {ns(700), false}, {ns(3210), true}};
  const PollOutcome ref = run_polls(false, posts);
  EXPECT_EQ(run_polls(true, posts), ref);
  // run_until() leaves now() at the last slice edge, so compare the rest.
  for (const Time window : {ns(1), ns(7), ns(64)}) {
    const PollOutcome got = run_polls(true, posts, window);
    EXPECT_EQ(got.taken, ref.taken) << "window " << window;
    EXPECT_EQ(got.acc_bits, ref.acc_bits) << "window " << window;
  }
}

TEST(Poller, RunReplaysParkedStepsUntilTheWake) {
  // run() drains parked pollers like events: it returns only once the
  // parked loop has woken and finished.
  struct Wait final : Poller {
    bool ready = false;
    int steps = 0;
    Time step() override {
      ++steps;
      return ready ? kWake : ns(10);
    }
  };
  Engine e;
  Wait wait;
  Time woke = -1;
  e.call_at(us(1), [&wait] { wait.ready = true; });
  e.spawn([](Engine& e, Wait& w, Time& woke) -> Task<> {
    co_await e.park(w, ns(10));
    woke = e.now();
  }(e, wait, woke));
  const Time end = e.run();
  // Steps at 10, 20, ..., 1000 ns; the callback due at 1 us was
  // scheduled first, so it runs before the step that wakes.
  EXPECT_EQ(wait.steps, 100);
  EXPECT_EQ(e.polls_elided(), 99u);
  EXPECT_EQ(e.poll_wakes(), 1u);
  EXPECT_EQ(woke, us(1));
  EXPECT_EQ(end, us(1));
  EXPECT_EQ(e.live_roots(), 0u);
}

Task<int> add_later(Engine& e, int a, int b) {
  co_await e.delay(ns(7));
  co_return a + b;
}

TEST(Task, NestedTasksComposeAndReturnValues) {
  Engine e;
  int result = 0;
  e.spawn([](Engine& e, int& result) -> Task<> {
    int x = co_await add_later(e, 2, 3);
    int y = co_await add_later(e, x, 10);
    result = y;
  }(e, result));
  e.run();
  EXPECT_EQ(result, 15);
  EXPECT_EQ(e.now(), ns(14));
}

Task<int> thrower(Engine& e) {
  co_await e.delay(ns(1));
  throw std::runtime_error("boom");
}

TEST(Task, ExceptionsPropagateToAwaiter) {
  Engine e;
  bool caught = false;
  e.spawn([](Engine& e, bool& caught) -> Task<> {
    try {
      (void)co_await thrower(e);
    } catch (const std::runtime_error&) {
      caught = true;
    }
  }(e, caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Task, DeepRecursionDoesNotOverflowStack) {
  // Symmetric transfer should make deeply nested awaits O(1) native stack.
#if defined(__SANITIZE_ADDRESS__)
  // ASan instrumentation defeats the symmetric-transfer tail call, so the
  // unwind really does recurse on the native stack; keep the depth modest.
  constexpr int kDepth = 1'000;
#else
  constexpr int kDepth = 50'000;
#endif
  Engine e;
  struct Helper {
    static Task<int> count_down(Engine& e, int n) {
      if (n == 0) co_return 0;
      co_await e.delay(ps(1));
      int v = co_await count_down(e, n - 1);
      co_return v + 1;
    }
  };
  int result = 0;
  e.spawn([](Engine& e, int& result) -> Task<> {
    result = co_await Helper::count_down(e, kDepth);
  }(e, result));
  e.run();
  EXPECT_EQ(result, kDepth);
}

TEST(Latch, WaitersReleaseOnTrigger) {
  Engine e;
  Latch latch(e);
  std::vector<Time> wake_times;
  for (int i = 0; i < 3; ++i) {
    e.spawn([](Engine& e, Latch& l, std::vector<Time>& t) -> Task<> {
      co_await l.wait();
      t.push_back(e.now());
    }(e, latch, wake_times));
  }
  e.call_at(ns(100), [&] { latch.trigger(); });
  e.run();
  ASSERT_EQ(wake_times.size(), 3u);
  for (Time t : wake_times) EXPECT_EQ(t, ns(100));
}

TEST(Latch, WaitAfterTriggerIsImmediate) {
  Engine e;
  Latch latch(e);
  latch.trigger();
  Time woke = -1;
  e.spawn([](Engine& e, Latch& l, Time& woke) -> Task<> {
    co_await e.delay(ns(5));
    co_await l.wait();  // should not suspend
    woke = e.now();
  }(e, latch, woke));
  e.run();
  EXPECT_EQ(woke, ns(5));
}

TEST(Signal, EachTriggerReleasesCurrentWaiters) {
  Engine e;
  Signal sig(e);
  int wakes = 0;
  e.spawn([](Engine& e, Signal& s, int& wakes) -> Task<> {
    co_await s.wait();
    ++wakes;
    co_await s.wait();
    ++wakes;
    (void)e;
  }(e, sig, wakes));
  e.call_at(ns(10), [&] { sig.trigger(); });
  e.call_at(ns(20), [&] { sig.trigger(); });
  e.run();
  EXPECT_EQ(wakes, 2);
}

TEST(Channel, FifoDeliveryAndSuspendingRecv) {
  Engine e;
  Channel<int> ch(e);
  std::vector<int> got;
  e.spawn([](Channel<int>& ch, std::vector<int>& got) -> Task<> {
    for (int i = 0; i < 3; ++i) got.push_back(co_await ch.recv());
  }(ch, got));
  e.call_at(ns(10), [&] { ch.send(1); });
  e.call_at(ns(20), [&] {
    ch.send(2);
    ch.send(3);
  });
  e.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Resource, SerializesOverlappingRequests) {
  Engine e;
  Resource r(e);
  std::vector<Time> finish;
  for (int i = 0; i < 3; ++i) {
    e.spawn([](Engine& e, Resource& r, std::vector<Time>& fin) -> Task<> {
      co_await r.use(ns(100));
      fin.push_back(e.now());
    }(e, r, finish));
  }
  e.run();
  // Three requests issued at t=0 against a 100 ns server: 100, 200, 300.
  EXPECT_EQ(finish, (std::vector<Time>{ns(100), ns(200), ns(300)}));
  EXPECT_EQ(r.busy_total(), ns(300));
}

TEST(Resource, IdleServerStartsImmediately) {
  Engine e;
  Resource r(e);
  Time t1 = -1, t2 = -1;
  e.spawn([](Engine& e, Resource& r, Time& t1, Time& t2) -> Task<> {
    co_await r.use(ns(10));
    t1 = e.now();
    co_await e.delay(ns(100));  // let the server go idle
    co_await r.use(ns(10));
    t2 = e.now();
  }(e, r, t1, t2));
  e.run();
  EXPECT_EQ(t1, ns(10));
  EXPECT_EQ(t2, ns(120));  // starts at 110, not at 20
}

TEST(Resource, ReserveReturnsCompletionWithoutSuspending) {
  Engine e;
  Resource r(e);
  EXPECT_EQ(r.reserve(ns(50)), ns(50));
  EXPECT_EQ(r.reserve(ns(50)), ns(100));
  EXPECT_EQ(r.next_free(), ns(100));
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng r(11);
  OnlineStats s;
  for (int i = 0; i < 20'000; ++i) s.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Stats, OnlineStatsBasics) {
  OnlineStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(Stats, ThroughputCounter) {
  ThroughputCounter c;
  c.start(us(0));
  c.add(1'000'000);  // 1 MB over 1 ms -> 1 GB/s -> 8 Gbit/s
  EXPECT_NEAR(c.per_second(ms(1)), 1e9, 1.0);
  EXPECT_NEAR(c.gbit_per_sec(ms(1)), 8.0, 1e-9);
}

}  // namespace
}  // namespace cord::sim
