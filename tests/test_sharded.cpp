// Sharded-simulation tests: the conservative-window protocol itself, its
// setup-time rejection of unsafe partitions, a randomized single-engine
// vs conservative differential, run-to-run and shards-vs-single-engine
// determinism (golden values + canonical trace memcmp), the NIC's
// doorbell/completion batching counters, the coroutine frame arena, and
// the flame view.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "fabric/link.hpp"
#include "nic/nic.hpp"
#include "perftest/perftest.hpp"
#include "sim/frame_arena.hpp"
#include "sim/sharded.hpp"
#include "trace/export.hpp"
#include "trace/flame.hpp"

namespace cord {
namespace {

using sim::Time;

// --- ShardedEngine protocol -------------------------------------------

TEST(ShardedEngine, CrossPostDeliversAtExactTime) {
  sim::ShardedEngine se(2);
  se.set_lookahead(sim::ns(100));
  sim::Engine& e0 = se.shard(0);
  sim::Engine& e1 = se.shard(1);
  Time hit = -1;
  e0.call_at(1000, [&] {
    e0.cross_post(e1, 1000 + se.lookahead(),
                  sim::InlineFn([&, &e1 = e1] { hit = e1.now(); }));
  });
  se.run();
  EXPECT_EQ(hit, 1000 + se.lookahead());
  EXPECT_EQ(se.stats().messages, 1u);
  EXPECT_GE(se.stats().windows, 1u);
}

TEST(ShardedEngine, TornWindowThrowsLogicError) {
  sim::ShardedEngine se(2);
  se.set_lookahead(sim::ns(100));
  sim::Engine& e0 = se.shard(0);
  sim::Engine& e1 = se.shard(1);
  e0.call_at(1000, [&] {
    // One picosecond short of the lookahead: the protocol cannot deliver
    // this without tearing the open window.
    e0.cross_post(e1, 1000 + se.lookahead() - 1, sim::InlineFn([] {}));
  });
  EXPECT_THROW(se.run(), std::logic_error);
}

TEST(ShardedEngine, ZeroLookaheadRejectedAtSetup) {
  sim::ShardedEngine se(2);
  EXPECT_THROW(se.set_lookahead(0), std::invalid_argument);
  EXPECT_THROW(se.set_lookahead(-5), std::invalid_argument);
  // Single shard needs no lookahead at all.
  sim::ShardedEngine one(1);
  EXPECT_NO_THROW(one.set_lookahead(0));
}

TEST(ShardedEngine, SystemRejectsZeroPropagationCrossShardLink) {
  core::SystemConfig cfg = core::system_l();
  cfg.wire_propagation = 0;
  EXPECT_THROW(core::System(cfg, 2, 2), std::invalid_argument);
  // The same topology is fine unsharded (no cross-shard links exist)...
  EXPECT_NO_THROW(core::System(cfg, 2, 1));
  // ...or when the placement keeps both hosts on one shard.
  EXPECT_NO_THROW(core::System(cfg, 2, 2, {1, 1}));
}

TEST(ShardedEngine, SystemValidatesPlacement) {
  const core::SystemConfig cfg = core::system_l();
  EXPECT_THROW(core::System(cfg, 2, 2, {0}), std::invalid_argument);
  EXPECT_THROW(core::System(cfg, 2, 2, {0, 7}), std::invalid_argument);
  EXPECT_THROW(core::System(cfg, 2, 0), std::invalid_argument);
}

TEST(ShardedEngine, SequentialMergesGlobalTimeOrder) {
  sim::ShardedEngine se(2);
  sim::Engine& e0 = se.shard(0);
  sim::Engine& e1 = se.shard(1);
  std::vector<int> order;
  Time e0_now_during_e1_event = -1;
  e0.call_at(200, [&] { order.push_back(0); });
  e1.call_at(100, [&] {
    order.push_back(1);
    // Merged mode drives every engine's clock from the global one.
    e0_now_during_e1_event = e0.now();
  });
  e0.call_at(300, [&] { order.push_back(2); });
  e1.call_at(300, [&] { order.push_back(3); });
  const Time end = se.run_sequential();
  EXPECT_EQ(end, 300);
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3}));  // shard 0 first on ties
  EXPECT_EQ(e0_now_during_e1_event, 100);
  EXPECT_EQ(e0.now(), 300);
  EXPECT_EQ(e1.now(), 300);
  EXPECT_EQ(se.stats().sequential_events, 4u);
}

// Shard-sync counters surface through System::metrics() and every host
// kernel's proc_read("metrics").
TEST(ShardedEngine, CountersSurfaceThroughSystemMetricsAndProcfs) {
  core::System sys(core::system_l(), /*host_count=*/2, /*shards=*/2);
  sim::ShardedEngine& se = sys.sharded();
  // Drive the shards directly with two chains that post to each other:
  // the hosts' NIC models stay idle, so every counter below is
  // attributable to the chains.
  struct Chain {
    sim::ShardedEngine* se;
    std::uint32_t s, k;
    void operator()() const {
      sim::Engine& e = se->shard(s);
      if (k % 8 == 0) {
        e.cross_post(se->shard(1 - s), e.now() + se->lookahead(s, 1 - s),
                     sim::InlineFn([] {}));
      }
      if (k + 1 < 64) e.call_at(e.now() + sim::ns(10), Chain{se, s, k + 1});
    }
  };
  for (std::uint32_t s = 0; s < 2; ++s) {
    se.shard(s).call_at(1 + s, Chain{&se, s, 0});
  }
  se.run();
  const auto& st = se.stats();
  EXPECT_GT(st.windows, 0u);
  EXPECT_EQ(st.messages, 16u);
  EXPECT_EQ(se.clamped_events(), 0u);
  EXPECT_EQ(sys.metrics().gauge_value("sim.shard.windows"),
            static_cast<std::int64_t>(st.windows));
  EXPECT_EQ(sys.metrics().gauge_value("sim.shard.messages"),
            static_cast<std::int64_t>(st.messages));
  const std::string dump = sys.host(0).kernel().proc_read("metrics");
  EXPECT_NE(dump.find("sim.shard.windows"), std::string::npos);
  EXPECT_NE(dump.find("sim.shard.messages"), std::string::npos);
  EXPECT_EQ(sys.host(1).kernel().metrics().gauge_value("sim.shard.messages"),
            static_cast<std::int64_t>(st.messages));
}

// --- Differential: conservative windows against a single engine -------
//
// Every event's behavior below is a pure function of (seed, shard, step),
// never of model state, and all state writes are commutative
// accumulations. So the same final state is reachable under any legal
// execution order, and one model must give bit-equal accumulators, final
// times, event counts and zero clamps on a single engine and under
// conservative sharded sync, for any topology and seed.

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct ModelCfg {
  std::size_t shards = 2;
  Time lookahead = 100;
  std::uint64_t seed = 1;
  std::uint32_t chain_len = 64;  // events per shard chain
  Time base_gap = 0;             // per-event delta = base_gap + h % gap_mod
  Time gap_mod = 1;
  std::uint32_t post_every = 4;  // cross-post when h % post_every == 0
  // Per-shard overrides (index < size); empty = uniform.
  std::vector<Time> base_gap_of;
  std::vector<std::uint32_t> chain_len_of;

  Time gap(std::size_t s) const {
    return s < base_gap_of.size() ? base_gap_of[s] : base_gap;
  }
  std::uint32_t len(std::size_t s) const {
    return s < chain_len_of.size() ? chain_len_of[s] : chain_len;
  }
};

struct ModelResult {
  std::vector<std::uint64_t> acc;  // one commutative accumulator per shard
  Time final_time = 0;
  std::uint64_t events = 0;
  std::uint64_t clamped = 0;
};

// Executor seam: where events live and how cross-"shard" posts travel.
struct SingleExec {
  explicit SingleExec(const ModelCfg&) {}
  sim::Engine& engine(std::size_t) { return eng; }
  void post(std::size_t, std::size_t, Time t, sim::InlineFn fn) {
    eng.call_at(t, std::move(fn));
  }
  Time run() { return eng.run(); }
  std::uint64_t events() const { return eng.events_processed(); }
  std::uint64_t clamped() const { return eng.clamped_events(); }
  sim::Engine eng;
};

struct ShardExec {
  explicit ShardExec(const ModelCfg& cfg) : se(cfg.shards) {
    se.set_lookahead(cfg.lookahead);
  }
  sim::Engine& engine(std::size_t s) { return se.shard(s); }
  void post(std::size_t src, std::size_t dst, Time t, sim::InlineFn fn) {
    se.shard(src).cross_post(se.shard(dst), t, std::move(fn));
  }
  Time run() { return se.run(); }
  std::uint64_t events() const { return se.events_processed(); }
  std::uint64_t clamped() const { return se.clamped_events(); }
  sim::ShardedEngine se;
};

// One chain step on logical shard `s`. Scheduling decisions never read
// model state, so the executed event set is identical across executors.
template <typename Exec>
void chain_step(Exec& ex, const ModelCfg& cfg, ModelResult& st,
                std::uint32_t s, std::uint32_t k) {
  sim::Engine& e = ex.engine(s);
  const Time t = e.now();
  const std::uint64_t h = splitmix(cfg.seed ^ (s * 0x10001ULL) ^ k);
  st.acc[s] += h;
  if (cfg.shards > 1 && cfg.post_every != 0 && h % cfg.post_every == 0) {
    const auto dst = static_cast<std::uint32_t>(
        (s + 1 + (h >> 8) % (cfg.shards - 1)) % cfg.shards);
    const Time post_t =
        t + cfg.lookahead + static_cast<Time>((h >> 16) % 16);
    const std::uint64_t v = splitmix(h);
    ex.post(s, dst, post_t,
            sim::InlineFn([&st, dst, v] { st.acc[dst] += v; }));
  }
  if (k + 1 < cfg.len(s)) {
    const Time delta = cfg.gap(s) + static_cast<Time>(h % cfg.gap_mod);
    e.call_at(t + delta, [&ex, &cfg, &st, s, k] {
      chain_step(ex, cfg, st, s, k + 1);
    });
  }
}

template <typename Exec>
ModelResult run_model(const ModelCfg& cfg) {
  Exec ex(cfg);
  ModelResult r;
  r.acc.assign(cfg.shards, 0);
  for (std::uint32_t s = 0; s < cfg.shards; ++s) {
    ex.engine(s).call_at(static_cast<Time>(1 + s), [&ex, &cfg, &r, s] {
      chain_step(ex, cfg, r, s, 0);
    });
  }
  r.final_time = ex.run();
  r.events = ex.events();
  r.clamped = ex.clamped();
  return r;
}

void expect_equivalent(const ModelCfg& cfg) {
  const ModelResult single = run_model<SingleExec>(cfg);
  const ModelResult cons = run_model<ShardExec>(cfg);
  EXPECT_EQ(single.acc, cons.acc);
  EXPECT_EQ(single.final_time, cons.final_time);
  EXPECT_EQ(single.events, cons.events);
  EXPECT_EQ(0u, single.clamped);
  EXPECT_EQ(0u, cons.clamped);
}

// A dense fast shard plus a slow poster whose every step posts: the slow
// shard's deliveries bound the fast shard's windows.
TEST(ShardedDifferential, DenseShardWithSlowPosterMatchesSingleEngine) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ModelCfg cfg;
    cfg.shards = 2;
    cfg.lookahead = 100;
    cfg.seed = seed;
    cfg.gap_mod = 8;
    cfg.post_every = 1;  // every shard-0 step posts
    cfg.base_gap_of = {400, 25};
    cfg.chain_len_of = {24, 256};
    expect_equivalent(cfg);
  }
}

// Randomized sweep: topologies and rates drawn from the seed.
TEST(ShardedDifferential, RandomizedMatchesSingleEngine) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::uint64_t h = splitmix(seed * 0xabcdULL);
    ModelCfg cfg;
    cfg.shards = 2 + h % 3;  // 2..4
    cfg.lookahead = 50 + static_cast<Time>((h >> 8) % 200);
    cfg.seed = seed;
    cfg.chain_len = 48 + static_cast<std::uint32_t>((h >> 16) % 128);
    cfg.base_gap = 10 + static_cast<Time>((h >> 24) % 64);
    cfg.gap_mod = 1 + static_cast<Time>((h >> 32) % 96);
    cfg.post_every = 1 + static_cast<std::uint32_t>((h >> 40) % 5);
    // Skew one shard slow.
    cfg.base_gap_of.assign(cfg.shards, cfg.base_gap);
    cfg.base_gap_of[h % cfg.shards] = cfg.base_gap * 16;
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " shards=" + std::to_string(cfg.shards));
    expect_equivalent(cfg);
  }
}

// --- Determinism: sharded runs against the single-engine goldens ------
//
// The values are the GoldenSmoke goldens from test_fastpath.cpp (hex
// floats are exact). A sharded run is only correct if it reproduces the
// single-engine simulation bit-for-bit.

TEST(ShardedGolden, SendLatencyMatchesSingleEngineGoldens) {
  const auto cfg = core::system_l();
  for (std::size_t shards : {2u, 4u}) {
    perftest::Params p;
    p.op = perftest::TestOp::kSend;
    p.msg_size = 64;
    p.iterations = 50;
    p.warmup = 10;
    p.shards = shards;
    const auto r = perftest::run_latency(cfg, p);
    EXPECT_EQ(r.avg_us, 0x1.3ae147ae147aep+0) << "shards=" << shards;
    EXPECT_EQ(r.p50_us, 0x1.3ae147ae147aep+0) << "shards=" << shards;
    EXPECT_EQ(r.p99_us, 0x1.3ae147ae147aep+0) << "shards=" << shards;
    EXPECT_EQ(r.clamped_events, 0u);
    EXPECT_GT(r.shard_windows, 0u);
    EXPECT_GT(r.shard_messages, 0u);
  }
}

TEST(ShardedGolden, LargeAndInterruptLatencyMatchGoldens) {
  const auto cfg = core::system_l();
  {
    perftest::Params p;
    p.op = perftest::TestOp::kSend;
    p.msg_size = 4096;
    p.iterations = 50;
    p.warmup = 10;
    p.shards = 2;
    const auto r = perftest::run_latency(cfg, p);
    EXPECT_EQ(r.avg_us, 0x1.2ae147ae147aep+1);
  }
  {
    perftest::Params p;
    p.op = perftest::TestOp::kSend;
    p.msg_size = 64;
    p.iterations = 50;
    p.warmup = 10;
    p.knobs.interrupt_wait = true;
    p.shards = 2;
    const auto r = perftest::run_latency(cfg, p);
    EXPECT_EQ(r.avg_us, 0x1.74e1719f7f8cbp+2);
  }
}

TEST(ShardedGolden, BandwidthMatchesSingleEngineGolden) {
  const auto cfg = core::system_l();
  for (std::size_t shards : {2u, 4u}) {
    perftest::Params p;
    p.op = perftest::TestOp::kSend;
    p.msg_size = 65536;
    p.iterations = 200;
    p.shards = shards;
    const auto r = perftest::run_bandwidth(cfg, p);
    EXPECT_EQ(r.gbps, 0x1.899e6c9441779p+6) << "shards=" << shards;
    EXPECT_EQ(r.messages, 200u);
    EXPECT_EQ(r.elapsed, 1'065'575'000) << "shards=" << shards;
    EXPECT_GT(r.shard_messages, 0u);
  }
}

TEST(ShardedGolden, WriteAndReadLatencyMatchSingleEngine) {
  const auto cfg = core::system_l();
  for (perftest::TestOp op : {perftest::TestOp::kWrite, perftest::TestOp::kRead}) {
    perftest::Params p;
    p.op = op;
    p.msg_size = 1024;
    p.iterations = 30;
    p.warmup = 5;
    const auto single = perftest::run_latency(cfg, p);
    p.shards = 2;
    const auto sharded = perftest::run_latency(cfg, p);
    EXPECT_EQ(sharded.avg_us, single.avg_us);
    EXPECT_EQ(sharded.p50_us, single.p50_us);
    EXPECT_EQ(sharded.p99_us, single.p99_us);
  }
}

TEST(ShardedGolden, RdmaBandwidthMatchesSingleEngine) {
  const auto cfg = core::system_l();
  for (perftest::TestOp op : {perftest::TestOp::kWrite, perftest::TestOp::kRead}) {
    perftest::Params p;
    p.op = op;
    p.msg_size = 8192;
    p.iterations = 100;
    const auto single = perftest::run_bandwidth(cfg, p);
    p.shards = 2;
    const auto sharded = perftest::run_bandwidth(cfg, p);
    EXPECT_EQ(sharded.gbps, single.gbps);
    EXPECT_EQ(sharded.elapsed, single.elapsed);
  }
}

TEST(ShardedGolden, UdBandwidthIsReproducibleAcrossRuns) {
  // UD's client-done signal crosses shards at the lookahead horizon, so
  // the sharded run is deterministic run-to-run (though the idle server
  // tail differs from the single-engine interleaving).
  const auto cfg = core::system_l();
  perftest::Params p;
  p.op = perftest::TestOp::kSend;
  p.transport = perftest::Transport::kUD;
  p.msg_size = 2048;
  p.iterations = 100;
  p.shards = 2;
  const auto a = perftest::run_bandwidth(cfg, p);
  const auto b = perftest::run_bandwidth(cfg, p);
  EXPECT_EQ(a.gbps, b.gbps);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_GT(a.gbps, 0.0);
  // And the client-side numbers match the single-engine run exactly.
  perftest::Params p1 = p;
  p1.shards = 1;
  const auto single = perftest::run_bandwidth(cfg, p1);
  EXPECT_EQ(a.gbps, single.gbps);
  EXPECT_EQ(a.elapsed, single.elapsed);
}

TEST(ShardedGolden, CanonicalTraceIsShardInvariant) {
  const auto cfg = core::system_l();
  auto capture = [&](std::size_t shards) {
    perftest::Params p;
    p.op = perftest::TestOp::kSend;
    p.msg_size = 256;
    p.iterations = 20;
    p.warmup = 5;
    p.shards = shards;
    p.capture_trace = true;
    auto r = perftest::run_latency(cfg, p);
    EXPECT_EQ(r.trace_dropped, 0u);
    return trace::canonical_trace(std::move(r.trace));
  };
  const auto t1 = capture(1);
  const auto t2 = capture(2);
  const auto t4 = capture(4);
  ASSERT_FALSE(t1.empty());
  ASSERT_EQ(t1.size(), t2.size());
  ASSERT_EQ(t1.size(), t4.size());
  EXPECT_EQ(0, std::memcmp(t1.data(), t2.data(),
                           t1.size() * sizeof(trace::Record)));
  EXPECT_EQ(0, std::memcmp(t1.data(), t4.data(),
                           t1.size() * sizeof(trace::Record)));
}

// --- Satellite: NIC doorbell/completion batching ----------------------

struct TwoNode {
  sim::Engine engine;
  fabric::Network network{engine};
  nic::NicRegistry registry;
  std::unique_ptr<nic::Nic> nic0;
  std::unique_ptr<nic::Nic> nic1;

  TwoNode() {
    network.add_node(0, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
    network.add_node(1, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
    network.connect(0, 1, sim::Bandwidth::gbit_per_sec(100.0), sim::ns(150));
    nic0 = std::make_unique<nic::Nic>(engine, network, registry, 0, nic::NicConfig{});
    nic1 = std::make_unique<nic::Nic>(engine, network, registry, 1, nic::NicConfig{});
  }
};

std::uintptr_t uptr(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

TEST(NicBatching, BurstOfPostsRingsOneDoorbell) {
  TwoNode f;
  auto pd0 = f.nic0->alloc_pd();
  auto pd1 = f.nic1->alloc_pd();
  auto* scq0 = f.nic0->create_cq(64);
  auto* rcq0 = f.nic0->create_cq(64);
  auto* scq1 = f.nic1->create_cq(64);
  auto* rcq1 = f.nic1->create_cq(64);
  auto* qp0 = f.nic0->create_qp({nic::QpType::kRC, pd0, scq0, rcq0, 64, 64, 0});
  auto* qp1 = f.nic1->create_qp({nic::QpType::kRC, pd1, scq1, rcq1, 64, 64, 0});
  ASSERT_EQ(f.nic0->modify_qp(*qp0, nic::QpState::kInit), nic::kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qp0, nic::QpState::kRtr, {1, qp1->qpn()}), nic::kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qp0, nic::QpState::kRts), nic::kOk);
  ASSERT_EQ(f.nic1->modify_qp(*qp1, nic::QpState::kInit), nic::kOk);
  ASSERT_EQ(f.nic1->modify_qp(*qp1, nic::QpState::kRtr, {0, qp0->qpn()}), nic::kOk);
  ASSERT_EQ(f.nic1->modify_qp(*qp1, nic::QpState::kRts), nic::kOk);

  std::vector<std::byte> src(64, std::byte{0x5A}), dst(4 * 64);
  const auto& mr_src = f.nic0->register_mr(pd0, src.data(), src.size(), 0);
  const auto& mr_dst = f.nic1->register_mr(pd1, dst.data(), dst.size(),
                                           nic::kAccessLocalWrite);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(f.nic1->post_recv(
                  *qp1, {std::uint64_t(i),
                         {uptr(dst.data()) + 64u * i, 64, mr_dst.lkey}}),
              nic::kOk);
  }
  // Four posts back-to-back, no engine progress in between: the first
  // rings the doorbell and wakes the SQ worker, the rest ride the burst.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(f.nic0->post_send(
                  *qp0, nic::SendWr{.wr_id = std::uint64_t(i),
                                    .sge = {uptr(src.data()), 64, mr_src.lkey}}),
              nic::kOk);
  }
  const auto& c = f.nic0->counters();
  EXPECT_EQ(c.doorbells, 1u);
  EXPECT_EQ(c.doorbells_coalesced, 3u);
  f.engine.run();
  EXPECT_EQ(c.sq_bursts, 1u);
  EXPECT_EQ(c.sq_burst_wrs, 4u);
  std::array<nic::Cqe, 8> wc;
  EXPECT_EQ(scq0->poll(wc), 4u);
  EXPECT_EQ(rcq1->poll(wc), 4u);
  EXPECT_EQ(c.cross_msgs, 0u);  // single engine: nothing crosses shards
}

TEST(NicBatching, ErrorFlushCoalescesIntoOneBatch) {
  TwoNode f;
  auto pd0 = f.nic0->alloc_pd();
  auto* scq0 = f.nic0->create_cq(64);
  auto* rcq0 = f.nic0->create_cq(64);
  auto* qp0 = f.nic0->create_qp({nic::QpType::kRC, pd0, scq0, rcq0, 64, 64, 0});
  ASSERT_EQ(f.nic0->modify_qp(*qp0, nic::QpState::kInit), nic::kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qp0, nic::QpState::kRtr, {1, 99}), nic::kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qp0, nic::QpState::kRts), nic::kOk);
  std::vector<std::byte> buf(256);
  const auto& mr = f.nic0->register_mr(pd0, buf.data(), buf.size(),
                                       nic::kAccessLocalWrite);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(f.nic0->post_recv(
                  *qp0, {std::uint64_t(i), {uptr(buf.data()), 64, mr.lkey}}),
              nic::kOk);
  }
  f.nic0->qp_set_error(*qp0);
  f.engine.run();
  const auto& c = f.nic0->counters();
  EXPECT_EQ(c.cqe_flush_batches, 1u);
  EXPECT_EQ(c.cqe_flushed, 3u);
  std::array<nic::Cqe, 8> wc;
  ASSERT_EQ(rcq0->poll(wc), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(wc[i].status, nic::WcStatus::kWorkRequestFlushed);
  }
}

TEST(NicBatching, CrossShardMessagesAreCounted) {
  const auto cfg = core::system_l();
  perftest::Params p;
  p.op = perftest::TestOp::kSend;
  p.msg_size = 64;
  p.iterations = 10;
  p.warmup = 2;
  p.shards = 2;
  const auto r = perftest::run_latency(cfg, p);
  EXPECT_GT(r.shard_messages, 0u);
}

// --- Satellite: coroutine frame arena ---------------------------------

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

// --- Satellite: flame view --------------------------------------------

TEST(FlameView, AggregatesByShardWithBarrierIdle) {
  std::vector<std::vector<trace::Record>> per_shard(2);
  trace::Record wire{};
  wire.point = trace::Point::kWireTx;
  wire.t = 100;
  wire.dur = 5000;
  per_shard[0].push_back(wire);
  wire.t = 200;
  per_shard[0].push_back(wire);
  trace::Record post{};
  post.point = trace::Point::kVerbsPostSend;
  post.t = 50;
  per_shard[1].push_back(post);

  sim::ShardStats sync;
  sync.barrier_wait_ns = {0, 750};
  const trace::FlameView v = trace::build_flame(per_shard, &sync);

  const std::string wire_stack =
      std::string("shard0;") + std::string(trace::category(wire.point)) + ";" +
      std::string(trace::to_string(wire.point));
  bool saw_wire = false, saw_idle = false, saw_post = false;
  for (const auto& e : v.entries) {
    if (e.stack == wire_stack) {
      saw_wire = true;
      EXPECT_EQ(e.weight, 10000u);  // 2 spans x 5000 ps, summed
      EXPECT_EQ(e.unit, trace::FlameEntry::Unit::kVirtualPs);
    }
    if (e.stack == "shard1;sync;barrier_idle") {
      saw_idle = true;
      EXPECT_EQ(e.weight, 750u);
      EXPECT_EQ(e.unit, trace::FlameEntry::Unit::kWallNs);
    }
    if (e.stack.find("shard1;verbs;") == 0) saw_post = true;
  }
  EXPECT_TRUE(saw_wire);
  EXPECT_TRUE(saw_idle);
  EXPECT_TRUE(saw_post);
  EXPECT_EQ(v.total_virtual_ps, 10000u);
  EXPECT_EQ(v.total_samples, 1u);
  EXPECT_EQ(v.total_barrier_wall_ns, 750u);

  const std::string folded = trace::flame_folded(v);
  EXPECT_NE(folded.find(wire_stack + " 10000\n"), std::string::npos);
  EXPECT_NE(folded.find("shard1;sync;barrier_idle 750\n"), std::string::npos);
  EXPECT_FALSE(trace::render_flame(v).empty());
}

TEST(FlameView, BarrierIdleFromRealShardedRun) {
  // A real 2-shard run records wall-clock barrier idle on both shards;
  // build the flame from the stats and check the sync rows exist (wall ns
  // depend on the host, so only presence and positivity are asserted).
  sim::ShardedEngine se(2);
  se.set_lookahead(sim::ns(100));
  sim::Engine& e0 = se.shard(0);
  for (int i = 0; i < 50; ++i) {
    e0.call_at(1000 * (i + 1), [&, i] {
      if (i % 2 == 0) {
        e0.cross_post(se.shard(1), e0.now() + se.lookahead(),
                      sim::InlineFn([] {}));
      }
    });
  }
  se.run();
  EXPECT_GT(se.stats().messages, 0u);
  const trace::FlameView v = trace::build_flame({{}, {}}, &se.stats());
  std::uint64_t idle = 0;
  for (const auto& e : v.entries) {
    if (e.stack.find(";sync;barrier_idle") != std::string::npos) {
      idle += e.weight;
    }
  }
  EXPECT_EQ(idle, v.total_barrier_wall_ns);
}

}  // namespace
}  // namespace cord
