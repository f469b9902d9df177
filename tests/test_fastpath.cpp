// Tests for the allocation-free simulator fast path: event-queue
// determinism (same-timestamp insertion order, past-time clamping),
// InlineFn semantics (move-only captures, over-capacity heap fallback),
// MrTable slot recycling, WrPool recycling, the coroutine frame arena,
// and a perftest-shaped smoke
// test pinned to exact pre-optimisation outputs (bit-for-bit: any change
// in event ordering would shift these values).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/system.hpp"
#include "nic/mr.hpp"
#include "nic/wr_pool.hpp"
#include "perftest/perftest.hpp"
#include "sim/engine.hpp"
#include "sim/frame_arena.hpp"
#include "sim/inline_fn.hpp"
#include "sim/units.hpp"

namespace cord {
namespace {

// --- Event engine ordering --------------------------------------------

TEST(EngineOrder, SameTimestampFiresInInsertionOrder) {
  sim::Engine engine;
  std::vector<int> fired;
  // Enough events to overflow the queue's one-item cache and exercise
  // heap sifts, all at the same timestamp.
  for (int i = 0; i < 300; ++i) {
    engine.call_at(sim::ns(50), [&fired, i] { fired.push_back(i); });
  }
  engine.run();
  ASSERT_EQ(fired.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(fired[i], i) << "at index " << i;
}

TEST(EngineOrder, MixedTimestampsSortStably) {
  sim::Engine engine;
  std::vector<std::pair<int, int>> fired;  // (time_ns, insertion index)
  // Interleave three timestamps in an adversarial insertion order.
  const int times[] = {30, 10, 20, 10, 30, 20, 10, 20, 30};
  for (int i = 0; i < 9; ++i) {
    engine.call_at(sim::ns(times[i]), [&fired, t = times[i], i] {
      fired.emplace_back(t, i);
    });
  }
  engine.run();
  const std::vector<std::pair<int, int>> expect = {
      {10, 1}, {10, 3}, {10, 6}, {20, 2}, {20, 5},
      {20, 7}, {30, 0}, {30, 4}, {30, 8}};
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(engine.events_processed(), 9u);
}

TEST(EngineOrder, PastTimeClampsToNowInsteadOfReordering) {
  sim::Engine engine;
  std::vector<int> fired;
  engine.call_at(sim::ns(100), [&] {
    EXPECT_EQ(engine.now(), sim::ns(100));
    // Scheduling into the past must clamp to now(), not time-travel.
    engine.call_at(sim::ns(40), [&] {
      fired.push_back(2);
      EXPECT_EQ(engine.now(), sim::ns(100));
    });
    fired.push_back(1);
  });
  EXPECT_EQ(engine.clamped_events(), 0u);
  engine.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.clamped_events(), 1u);
}

TEST(EngineOrder, RunUntilLeavesLaterEventsQueued) {
  sim::Engine engine;
  int fired = 0;
  engine.call_at(sim::ns(10), [&] { ++fired; });
  engine.call_at(sim::ns(20), [&] { ++fired; });
  engine.call_at(sim::ns(30), [&] { ++fired; });
  EXPECT_EQ(engine.pending_events(), 3u);
  EXPECT_EQ(engine.run_until(sim::ns(20)), sim::ns(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(engine.pending_events(), 0u);
}

// Parked callbacks that never fire must still be destroyed (captures own
// resources — here a shared_ptr whose use_count observes destruction).
TEST(EngineOrder, UnfiredCallbacksDestroyedAtTeardown) {
  auto token = std::make_shared<int>(42);
  {
    sim::Engine engine;
    engine.call_at(sim::ns(10), [keep = token] { (void)*keep; });
    engine.call_at(sim::ns(20), [keep = token] { (void)*keep; });
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// --- InlineFn ----------------------------------------------------------

TEST(InlineFn, MoveOnlyCaptureStaysInline) {
  auto p = std::make_unique<int>(7);
  sim::InlineFn fn([q = std::move(p)]() { *q += 1; });
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_FALSE(fn.on_heap());
  sim::InlineFn moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));
  moved();
  moved.clear();
  EXPECT_FALSE(static_cast<bool>(moved));
}

TEST(InlineFn, OverCapacityCaptureFallsBackToHeap) {
  struct Big {
    std::byte blob[sim::InlineFn::kCapacity + 64] = {};
    int* out = nullptr;
  };
  static_assert(!sim::InlineFn::fits_inline<Big>);
  int result = 0;
  Big big;
  big.out = &result;
  sim::InlineFn fn([big]() { *big.out = 9; });
  EXPECT_TRUE(fn.on_heap());
  sim::InlineFn moved = std::move(fn);  // heap pointer relocates trivially
  EXPECT_TRUE(moved.on_heap());
  moved();
  EXPECT_EQ(result, 9);
}

TEST(InlineFn, EngineRunsMoveOnlyAndOversizedCallbacks) {
  sim::Engine engine;
  int sum = 0;
  auto p = std::make_unique<int>(5);
  engine.call_in(sim::ns(1), [&sum, q = std::move(p)] { sum += *q; });
  struct Fat {
    std::byte pad[200];
  };
  engine.call_in(sim::ns(2), [&sum, fat = Fat{}] { sum += sizeof(fat); });
  engine.run();
  EXPECT_EQ(sum, 205);
}

// --- MrTable -----------------------------------------------------------

TEST(MrTable, DeregisterRecyclesSlotsWithoutGrowth) {
  nic::MrTable table;
  alignas(8) static std::byte buf[4096];
  const auto addr = reinterpret_cast<std::uintptr_t>(buf);
  const std::size_t buckets0 = table.bucket_count();
  // Sustained register/deregister churn: tombstones must be shed by
  // in-place rehashes, not by doubling the table forever, and region
  // objects must come from the freelist.
  for (int i = 0; i < 2000; ++i) {
    const auto& mr = table.register_mr(1, addr, sizeof(buf), nic::kAccessLocalWrite);
    EXPECT_EQ(mr.lkey, mr.rkey);
    ASSERT_TRUE(table.deregister_mr(mr.lkey));
  }
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.bucket_count(), buckets0);
  EXPECT_EQ(table.region_slabs(), 1u);  // one slot, recycled 2000 times
}

TEST(MrTable, LookupSurvivesRehashAndTombstones) {
  nic::MrTable table;
  alignas(8) static std::byte buf[1 << 16];
  const auto addr = reinterpret_cast<std::uintptr_t>(buf);
  std::vector<std::uint32_t> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back(
        table.register_mr(1, addr + 64u * i, 64, nic::kAccessLocalWrite).lkey);
  }
  // Deregister every other MR, then verify the survivors still validate
  // (probes must skip tombstones correctly) and the dead keys fail.
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(table.deregister_mr(keys[i]));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const nic::Sge sge{addr + 64u * static_cast<std::uint32_t>(i), 64, keys[i]};
    const nic::MemoryRegion* mr = table.check_local(sge, 1, true);
    if (i % 2 == 0) {
      EXPECT_EQ(mr, nullptr) << "deregistered key " << keys[i];
    } else {
      ASSERT_NE(mr, nullptr) << "live key " << keys[i];
      EXPECT_EQ(mr->lkey, keys[i]);
    }
  }
  EXPECT_EQ(table.size(), 100u);
}

// Pointers returned by register_mr must stay valid across later
// registrations (kernel/verbs hold them long term).
TEST(MrTable, RegionPointersStableAcrossGrowth) {
  nic::MrTable table;
  alignas(8) static std::byte buf[1 << 16];
  const auto addr = reinterpret_cast<std::uintptr_t>(buf);
  const nic::MemoryRegion& first =
      table.register_mr(1, addr, 64, nic::kAccessLocalWrite);
  const std::uint32_t first_key = first.lkey;
  for (int i = 1; i < 500; ++i) {
    table.register_mr(1, addr + 64u * i, 64, nic::kAccessLocalWrite);
  }
  EXPECT_EQ(first.lkey, first_key);  // object not moved by table growth
  EXPECT_EQ(first.addr, addr);
}

// --- WrPool ------------------------------------------------------------

TEST(WrPool, RecyclesNodesAtSteadyState) {
  nic::WrPool pool;
  for (int round = 0; round < 100; ++round) {
    nic::WrRef a = pool.acquire(nic::SendWr{});
    nic::WrRef b = pool.acquire(nic::SendWr{});
    EXPECT_EQ(pool.outstanding(), 2u);
    nic::WrRef c = a;  // copy bumps the refcount; no new node
    EXPECT_EQ(pool.outstanding(), 2u);
  }
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.allocated(), 2u);  // plateaued at peak in-flight depth
}

TEST(WrPool, InlinePayloadReleasedOnRecycle) {
  nic::WrPool pool;
  nic::SendWr wr;
  wr.inline_payload.assign(220, std::byte{0xAB});
  {
    nic::WrRef ref = pool.acquire(std::move(wr));
    EXPECT_EQ(ref->inline_payload.size(), 220u);
  }
  // The recycled node must not pin the payload buffer.
  nic::WrRef next = pool.acquire(nic::SendWr{});
  EXPECT_TRUE(next->inline_payload.empty());
}

// --- Coroutine frame arena --------------------------------------------

TEST(FrameArena, RecyclesBlocksLifo) {
  using namespace sim::detail;
  const auto s0 = frame_arena_stats();
  void* a = frame_alloc(256);
  ASSERT_NE(a, nullptr);
  frame_free(a, 256);
  void* b = frame_alloc(256);
  EXPECT_EQ(a, b);  // same size class comes straight off the freelist
  frame_free(b, 256);
  const auto s1 = frame_arena_stats();
  EXPECT_EQ(s1.allocs, s0.allocs + 2);
  EXPECT_EQ(s1.fallback_allocs, s0.fallback_allocs);
}

TEST(FrameArena, OversizedFramesFallBackToHeap) {
  using namespace sim::detail;
  const auto s0 = frame_arena_stats();
  void* big = frame_alloc(1 << 16);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xCD, 1 << 16);
  frame_free(big, 1 << 16);
  EXPECT_EQ(frame_arena_stats().fallback_allocs, s0.fallback_allocs + 1);
}

sim::Task<> trivial_task(int& counter) {
  ++counter;
  co_return;
}

TEST(FrameArena, SpawnHeavyWorkloadReusesSlabSpace) {
  using namespace sim::detail;
  sim::Engine e;
  int ran = 0;
  for (int i = 0; i < 64; ++i) e.spawn(trivial_task(ran));
  e.run();
  ASSERT_EQ(ran, 64);
  const std::size_t warm_bytes = frame_arena_stats().slab_bytes;
  for (int i = 0; i < 512; ++i) {
    e.spawn(trivial_task(ran));
    e.run();  // frame freed before the next spawn: steady-state recycling
  }
  EXPECT_EQ(frame_arena_stats().slab_bytes, warm_bytes);
  EXPECT_EQ(ran, 64 + 512);
}

// --- Determinism smoke test -------------------------------------------
//
// Golden values captured from the seed build (hex floats are exact): the
// engine/NIC fast-path rework must keep every simulated timestamp
// bit-identical. If an intentional timing-model change ever shifts these,
// re-capture them and say so in the commit.

TEST(GoldenSmoke, Fig1ShapedLatencyAndBandwidth) {
  const auto cfg = core::system_l();

  struct Golden {
    std::size_t size;
    bool interrupt;
    double avg, p50, p99;
  };
  const Golden lat_golden[] = {
      {64, false, 0x1.3ae147ae147aep+0, 0x1.3ae147ae147aep+0, 0x1.3ae147ae147aep+0},
      {64, true, 0x1.74e1719f7f8cbp+2, 0x1.74e1719f7f8cbp+2, 0x1.74e1719f7f8cbp+2},
      {4096, false, 0x1.2ae147ae147aep+1, 0x1.2ae147ae147aep+1, 0x1.2ae147ae147aep+1},
      {4096, true, 0x1.baad2dcb1465fp+2, 0x1.baad2dcb1465fp+2, 0x1.baad2dcb1465fp+2},
  };
  for (const Golden& g : lat_golden) {
    perftest::Params p;
    p.op = perftest::TestOp::kSend;
    p.msg_size = g.size;
    p.iterations = 50;
    p.warmup = 10;
    p.knobs.interrupt_wait = g.interrupt;
    const auto r = perftest::run_latency(cfg, p);
    EXPECT_EQ(r.avg_us, g.avg) << "size=" << g.size << " int=" << g.interrupt;
    EXPECT_EQ(r.p50_us, g.p50) << "size=" << g.size << " int=" << g.interrupt;
    EXPECT_EQ(r.p99_us, g.p99) << "size=" << g.size << " int=" << g.interrupt;
  }

  perftest::Params p;
  p.op = perftest::TestOp::kSend;
  p.msg_size = 65536;
  p.iterations = 200;
  const auto r = perftest::run_bandwidth(cfg, p);
  EXPECT_EQ(r.gbps, 0x1.899e6c9441779p+6);
  EXPECT_EQ(r.messages, 200u);
  EXPECT_EQ(r.elapsed, 1'065'575'000);
}

}  // namespace
}  // namespace cord
