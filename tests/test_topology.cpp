// Rack-topology tests: the leaf-spine builder and its routed multi-hop
// paths, route determinism and error paths, the duplicate-connect and
// lookahead-sentinel regressions, the per-shard-pair lookahead matrix
// (closure, validation, torn-window enforcement, adaptive windows), and
// shards-vs-single-engine bit-identity of perftest runs on a rack fabric.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/system.hpp"
#include "fabric/link.hpp"
#include "fabric/topology.hpp"
#include "nic/nic.hpp"
#include "perftest/perftest.hpp"
#include "sim/sharded.hpp"
#include "trace/export.hpp"

namespace cord {
namespace {

using sim::Time;

fabric::RackConfig two_by_two() { return fabric::RackConfig{}; }

void add_hosts(fabric::Network& net, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    net.add_node(static_cast<fabric::NodeId>(i),
                 sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
  }
}

// --- Topology geometry and routing ------------------------------------

TEST(RackTopology, ConfigGeometry) {
  fabric::RackConfig cfg;
  cfg.racks = 3;
  cfg.hosts_per_rack = 4;
  EXPECT_EQ(cfg.host_count(), 12u);
  EXPECT_EQ(cfg.switch_count(), 4u);  // 3 ToRs + spine
  EXPECT_EQ(cfg.node_count(), 16u);
  EXPECT_EQ(cfg.rack_of(0), 0u);
  EXPECT_EQ(cfg.rack_of(11), 2u);
  EXPECT_EQ(cfg.tor_id(0), 12u);
  EXPECT_EQ(cfg.tor_id(2), 14u);
  EXPECT_EQ(cfg.spine_id(), 15u);

  fabric::RackConfig single;
  single.racks = 1;
  EXPECT_EQ(single.switch_count(), 1u);  // one rack needs no spine
}

TEST(RackTopology, BuilderRejectsDegenerateShapes) {
  sim::Engine e;
  fabric::Network net(e);
  fabric::RackConfig cfg;
  cfg.racks = 0;
  EXPECT_THROW(fabric::build_rack(net, cfg), std::invalid_argument);
  cfg.racks = 1;
  cfg.hosts_per_rack = 0;
  EXPECT_THROW(fabric::build_rack(net, cfg), std::invalid_argument);
}

TEST(RackTopology, RoutedPathsFollowLeafSpine) {
  sim::Engine e;
  fabric::Network net(e);
  const fabric::RackConfig cfg = two_by_two();  // 2 racks x 2 hosts
  add_hosts(net, cfg.host_count());
  fabric::build_rack(net, cfg);

  // Node ids: hosts 0..3, ToRs 4 (rack 0) and 5, spine 6.
  EXPECT_TRUE(net.is_switch(4));
  EXPECT_TRUE(net.is_switch(6));
  EXPECT_FALSE(net.is_switch(0));

  // Intra-rack: two hops through the ToR.
  EXPECT_EQ(net.route(0, 1), (std::vector<fabric::NodeId>{0, 4, 1}));
  const fabric::Path intra = net.path(0, 1);
  EXPECT_EQ(intra.hop_count, 2);
  // Host hop carries only the wire's propagation; the hop leaving the ToR
  // folds in the ToR's forwarding latency.
  EXPECT_EQ(intra.hops[0].propagation, cfg.host_propagation);
  EXPECT_EQ(intra.hops[1].propagation, cfg.host_propagation + cfg.tor_latency);
  EXPECT_EQ(intra.propagation(), sim::ns(150 + 150 + 300));

  // Cross-rack: four hops via the spine.
  EXPECT_EQ(net.route(0, 2), (std::vector<fabric::NodeId>{0, 4, 6, 5, 2}));
  const fabric::Path cross = net.path(0, 2);
  EXPECT_EQ(cross.hop_count, 4);
  EXPECT_EQ(cross.hops[0].propagation, cfg.host_propagation);
  EXPECT_EQ(cross.hops[1].propagation,
            cfg.uplink_propagation + cfg.tor_latency);
  EXPECT_EQ(cross.hops[2].propagation,
            cfg.uplink_propagation + cfg.spine_latency);
  EXPECT_EQ(cross.hops[3].propagation, cfg.host_propagation + cfg.tor_latency);
  EXPECT_EQ(cross.propagation(), sim::ns(150 + 650 + 800 + 450));
  // The src/dst split is topological (climbing hops vs descending hops),
  // NOT placement-derived: even on a single-engine fabric the cross-rack
  // route splits at the spine, exactly as it does when sharded. (Pre-fix,
  // a 1-shard run reported src_hops == hop_count here, which made UD
  // completion times and ctrl-lane handoffs placement-dependent.)
  EXPECT_EQ(cross.src_hops, 2);
  EXPECT_EQ(cross.dst_hops(), 2);
  EXPECT_EQ(cross.src_propagation(), sim::ns(150 + 650));
  // Intra-rack: up to the ToR is source-side, down to the host dst-side.
  EXPECT_EQ(intra.src_hops, 1);
  EXPECT_EQ(intra.dst_hops(), 1);

  // Routes are directional and deterministic: the reverse path mirrors.
  EXPECT_EQ(net.route(2, 0), (std::vector<fabric::NodeId>{2, 5, 6, 4, 0}));
  // Loopback stays the 1-hop special case.
  EXPECT_EQ(net.route(3, 3), (std::vector<fabric::NodeId>{3}));
  EXPECT_EQ(net.path(3, 3).hop_count, 1);
}

TEST(RackTopology, SingleRackHasNoSpine) {
  sim::Engine e;
  fabric::Network net(e);
  fabric::RackConfig cfg;
  cfg.racks = 1;
  cfg.hosts_per_rack = 3;
  add_hosts(net, cfg.host_count());
  fabric::build_rack(net, cfg);
  EXPECT_EQ(net.route(0, 2), (std::vector<fabric::NodeId>{0, 3, 2}));
  EXPECT_FALSE(net.is_switch(cfg.spine_id()));  // never added
  EXPECT_TRUE(net.has_path(1, 2));
}

TEST(RackTopology, PathErrorPaths) {
  sim::Engine e;
  fabric::Network net(e);
  add_hosts(net, 2);
  // No wiring at all: unknown loopback and no-link both throw.
  EXPECT_THROW(net.path(7, 7), std::invalid_argument);
  EXPECT_THROW(net.path(0, 1), std::invalid_argument);
  EXPECT_FALSE(net.has_path(0, 1));
  // A switch wired to only one of the hosts: host 1 stays unreachable, and
  // the error distinguishes "no route" from "no link".
  net.add_switch(10, /*tier=*/1, sim::ns(300));
  net.connect(0, 10, sim::Bandwidth::gbit_per_sec(100.0), sim::ns(150));
  EXPECT_FALSE(net.has_path(0, 1));
  EXPECT_THROW(net.path(0, 1), std::invalid_argument);
  EXPECT_THROW(net.route(0, 1), std::invalid_argument);
}

// --- Regression: duplicate connect ------------------------------------
//
// Pre-fix, Network::connect silently replaced the Link, destroying the
// Resources inside it while Paths handed to NICs still pointed at them.

TEST(RackTopology, DuplicateConnectThrows) {
  sim::Engine e;
  fabric::Network net(e);
  add_hosts(net, 2);
  net.connect(0, 1, sim::Bandwidth::gbit_per_sec(100.0), sim::ns(150));
  EXPECT_THROW(
      net.connect(0, 1, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(50)),
      std::invalid_argument);
  // The pair key is unordered: reconnecting in reverse is the same link.
  EXPECT_THROW(
      net.connect(1, 0, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(50)),
      std::invalid_argument);
  // The original link (and any Path resource taken from it) is untouched.
  const fabric::Path p = net.path(0, 1);
  EXPECT_EQ(p.hops[0].propagation, sim::ns(150));
}

TEST(RackTopology, RewiringABuiltRackThrows) {
  sim::Engine e;
  fabric::Network net(e);
  const fabric::RackConfig cfg = two_by_two();
  add_hosts(net, cfg.host_count());
  fabric::build_rack(net, cfg);
  EXPECT_THROW(net.connect(0, cfg.tor_id(0), cfg.host_bandwidth,
                           cfg.host_propagation),
               std::invalid_argument);
  // A node can be a host or a switch, never both.
  EXPECT_THROW(net.add_switch(0, 1), std::invalid_argument);
}

// --- Sharded rack systems ---------------------------------------------

TEST(RackSharding, PrefixSuffixSplitIsTopological) {
  core::SystemConfig cfg = core::system_l();
  cfg.wiring = core::SystemConfig::Wiring::kRack;
  cfg.rack = two_by_two();
  core::System sys(cfg, 4, 2);  // block placement: rack 0 -> shard 0, rack 1 -> shard 1
  fabric::Network& net = *sys.network_ptr();

  // Cross-rack route: sender's shard drives host->ToR and ToR->spine, the
  // receiver's drives spine->ToR and ToR->host.
  const fabric::Path cross = net.path(0, 2);
  EXPECT_EQ(cross.hop_count, 4);
  EXPECT_EQ(cross.src_hops, 2);
  EXPECT_EQ(cross.dst_hops(), 2);
  EXPECT_EQ(cross.src_propagation(),
            cfg.rack.host_propagation + cfg.rack.uplink_propagation +
                cfg.rack.tor_latency);
  // Intra-rack routes never leave the shard, but the topological split
  // still puts the descending ToR->host hop on the destination side —
  // the same split a 1-shard run reports.
  EXPECT_EQ(net.path(0, 1).src_hops, 1);
  EXPECT_EQ(net.path(0, 1).dst_hops(), 1);

  // The derived pair lookahead is the cross-rack source-side propagation:
  // 150 ns access + (350 ns uplink + 300 ns ToR forward) = 800 ns.
  EXPECT_EQ(sys.sharded().lookahead(0, 1), sim::ns(800));
  EXPECT_EQ(sys.sharded().lookahead(1, 0), sim::ns(800));
}

TEST(RackSharding, MisalignedPlacementsAreRejected) {
  core::SystemConfig cfg = core::system_l();
  cfg.wiring = core::SystemConfig::Wiring::kRack;
  cfg.rack = two_by_two();
  // Rack 0 = hosts {0, 1}: splitting it across shards must throw.
  EXPECT_THROW(core::System(cfg, 4, 2, {0, 1, 0, 1}), std::invalid_argument);
  // Rack-aligned but reversed placement is fine.
  EXPECT_NO_THROW(core::System(cfg, 4, 2, {1, 1, 0, 0}));
  // Host count must match the rack shape.
  EXPECT_THROW(core::System(cfg, 3, 1), std::invalid_argument);
}

// --- Regression: lookahead sentinel overflow --------------------------
//
// fabric::Network::min_cross_lookahead returns Engine::kNoEvent for
// partitions with no cross-shard path. Pre-fix, set_lookahead stored the
// raw sentinel and window arithmetic (T + L) wrapped sim::Time.

TEST(LookaheadMatrix, SentinelClampsToUnbounded) {
  sim::ShardedEngine se(2);
  se.set_lookahead(sim::Engine::kNoEvent);
  EXPECT_EQ(se.lookahead(), sim::ShardedEngine::kUnboundedLookahead);
  EXPECT_EQ(se.lookahead(0, 1), sim::ShardedEngine::kUnboundedLookahead);

  // Matrix form clamps the same way.
  sim::ShardedEngine sm(2);
  sm.set_lookahead(std::vector<Time>(4, sim::Engine::kNoEvent));
  EXPECT_EQ(sm.lookahead(1, 0), sim::ShardedEngine::kUnboundedLookahead);

  // sat_add can no longer wrap: the window edge saturates at the sentinel.
  EXPECT_EQ(sim::ShardedEngine::sat_add(
                sim::Engine::kNoEvent, sim::ShardedEngine::kUnboundedLookahead),
            sim::Engine::kNoEvent);
  EXPECT_EQ(sim::ShardedEngine::sat_add(sim::ns(1000), sim::ns(500)),
            sim::ns(1500));

  // Unbounded shards run their (independent) events to completion. One
  // flag per shard: with no cross-shard traffic the workers never
  // synchronize mid-run, so a shared counter would be a data race.
  bool ran0 = false;
  bool ran1 = false;
  se.shard(0).call_at(sim::ns(5000), [&ran0] { ran0 = true; });
  se.shard(1).call_at(sim::ns(7000), [&ran1] { ran1 = true; });
  se.run();
  EXPECT_TRUE(ran0);
  EXPECT_TRUE(ran1);
}

// --- Regression: finite times near the sentinel ------------------------
//
// Pre-fix, run_parallel converted any *finite* window edge that reached
// kUnboundedLookahead into "unbounded", so a shard whose next event sat
// within one lookahead of the sentinel free-ran past its peers: cross
// posts landed behind the receiver's clock and were silently clamped and
// reordered. Event times that large are out of the protocol's domain;
// they must fail loudly, never desynchronize quietly.

TEST(LookaheadMatrix, EventAtTheSentinelFailsLoudly) {
  sim::ShardedEngine se(2);
  se.set_lookahead(sim::ns(100));
  se.shard(0).call_at(sim::ShardedEngine::kUnboundedLookahead, [] {});
  se.shard(1).call_at(sim::ns(10), [] {});
  EXPECT_THROW(se.run(), std::logic_error);
}

TEST(LookaheadMatrix, SentinelAdjacentWindowFailsLoudlyNotSilently) {
  // next0 is within one lookahead of the sentinel, so the edge computed
  // from it crosses the threshold. Pre-fix both shards went unbounded and
  // the cross post (dated past the sentinel) was clamped behind shard 1's
  // clock with only a counter to show for it; now the run throws.
  const Time base = sim::ShardedEngine::kUnboundedLookahead - sim::ns(50);
  sim::ShardedEngine se(2);
  se.set_lookahead(sim::ns(100));
  sim::Engine& e0 = se.shard(0);
  e0.call_at(base, [&] {
    e0.cross_post(se.shard(1), base + sim::ns(100), sim::InlineFn([] {}));
  });
  se.shard(1).call_at(base + sim::ns(20), [] {});
  EXPECT_THROW(se.run(), std::logic_error);
  EXPECT_EQ(se.clamped_events(), 0u);
}

// --- Per-pair lookahead matrix ----------------------------------------

TEST(LookaheadMatrix, ValidatesShapeAndEntries) {
  sim::ShardedEngine se(3);
  EXPECT_THROW(se.set_lookahead(std::vector<Time>(4, sim::ns(100))),
               std::invalid_argument);  // wrong size (needs 9)
  std::vector<Time> m(9, sim::ns(100));
  m[0 * 3 + 1] = 0;
  EXPECT_THROW(se.set_lookahead(m), std::invalid_argument);
  m[0 * 3 + 1] = -sim::ns(5);
  EXPECT_THROW(se.set_lookahead(m), std::invalid_argument);
  // Diagonal entries are ignored (a shard needs no lookahead to itself).
  m[0 * 3 + 1] = sim::ns(100);
  m[0] = m[4] = m[8] = 0;
  EXPECT_NO_THROW(se.set_lookahead(m));
  EXPECT_EQ(se.lookahead(), sim::ns(100));
}

TEST(LookaheadMatrix, ClosesOverRelays) {
  // Direct bounds: 0 -> 1 at 100 ns, 1 -> 2 at 100 ns, everything else
  // unbounded. An effect can still relay 0 -> 1 -> 2, so the closed bound
  // for (0, 2) must be 200 ns, not unbounded.
  sim::ShardedEngine se(3);
  std::vector<Time> m(9, sim::ShardedEngine::kUnboundedLookahead);
  m[0 * 3 + 1] = sim::ns(100);
  m[1 * 3 + 2] = sim::ns(100);
  se.set_lookahead(m);
  EXPECT_EQ(se.lookahead(0, 1), sim::ns(100));
  EXPECT_EQ(se.lookahead(1, 2), sim::ns(100));
  EXPECT_EQ(se.lookahead(0, 2), sim::ns(200));
  // No route back: the reverse directions stay unbounded.
  EXPECT_EQ(se.lookahead(2, 0), sim::ShardedEngine::kUnboundedLookahead);
  EXPECT_EQ(se.lookahead(1, 0), sim::ShardedEngine::kUnboundedLookahead);
}

TEST(LookaheadMatrix, EnforcesPairBoundsNotTheGlobalMin) {
  // Pair (0, 1) is tight at 100 ns; everything touching shard 2 is 1 us.
  // A 0 -> 2 post dated only 100 ns out clears the global minimum but
  // violates its pair bound — the protocol must reject it.
  auto make = [] {
    auto se = std::make_unique<sim::ShardedEngine>(3);
    std::vector<Time> m(9, sim::ns(1000));
    m[0 * 3 + 1] = m[1 * 3 + 0] = sim::ns(100);
    se->set_lookahead(m);
    return se;
  };
  {
    auto se = make();
    sim::Engine& e0 = se->shard(0);
    e0.call_at(sim::ns(1000), [&, se = se.get()] {
      e0.cross_post(se->shard(2), e0.now() + sim::ns(100),
                    sim::InlineFn([] {}));
    });
    EXPECT_THROW(se->run(), std::logic_error);
  }
  {
    // The same dating is fine on the tight pair.
    auto se = make();
    sim::Engine& e0 = se->shard(0);
    Time hit = -1;
    e0.call_at(sim::ns(1000), [&, se = se.get()] {
      e0.cross_post(se->shard(1), e0.now() + sim::ns(100),
                    sim::InlineFn([&, se] { hit = se->shard(1).now(); }));
    });
    se->run();
    EXPECT_EQ(hit, sim::ns(1100));
  }
}

TEST(LookaheadMatrix, AdaptiveWindowsBeatTheUniformMinimum) {
  // Shard 2 carries a long event train (200 events, 1 us apart) and is
  // 1 ms of lookahead away from everyone; shards 0 and 1 interact on a
  // tight 100 ns pair. Under the old uniform protocol the global window is
  // the 100 ns minimum and shard 2 crawls through its train one window per
  // event; the per-pair matrix lets shard 2's window stretch to its own
  // 1 ms bounds and swallow the train whole.
  static constexpr int kEvents = 200;
  auto run_case = [](bool per_pair) {
    sim::ShardedEngine se(3);
    if (per_pair) {
      std::vector<Time> m(9, sim::ns(1'000'000));
      m[0 * 3 + 1] = m[1 * 3 + 0] = sim::ns(100);
      se.set_lookahead(m);
    } else {
      se.set_lookahead(sim::ns(100));  // the uniform global minimum
    }
    sim::Engine& e0 = se.shard(0);
    int delivered = 0;
    int ticks = 0;
    e0.call_at(sim::ns(1000), [&, &se = se] {
      e0.cross_post(se.shard(1), e0.now() + sim::ns(100),
                    sim::InlineFn([&] { ++delivered; }));
    });
    for (int i = 0; i < kEvents; ++i) {
      se.shard(2).call_at(sim::ns(1000) * (i + 1), [&] { ++ticks; });
    }
    se.run();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(ticks, kEvents);
    return se.stats().windows;
  };
  const std::uint64_t uniform = run_case(false);
  const std::uint64_t adaptive = run_case(true);
  EXPECT_GT(uniform, static_cast<std::uint64_t>(kEvents) / 2);
  EXPECT_LT(adaptive, uniform / 4);
}

// --- Bit-identity: perftest on a rack fabric --------------------------
//
// Client on host 0, server on host 7 — the far corner of a 4-rack x
// 2-host leaf-spine — with the default block placement (rack-aligned at
// 1, 2 and 4 shards). A sharded run is only correct if it reproduces the
// single-engine simulation bit-for-bit.

perftest::Params rack_params(perftest::TestOp op, std::size_t shards) {
  perftest::Params p;
  p.op = op;
  p.msg_size = 64;
  p.iterations = 30;
  p.warmup = 5;
  p.racks = 4;
  p.hosts_per_rack = 2;
  p.shards = shards;
  return p;
}

TEST(RackGolden, SendLatencyIsShardInvariant) {
  const auto cfg = core::system_l();
  const auto single = perftest::run_latency(cfg, rack_params(perftest::TestOp::kSend, 1));
  EXPECT_GT(single.avg_us, 0.0);
  for (std::size_t shards : {2u, 4u}) {
    const auto r =
        perftest::run_latency(cfg, rack_params(perftest::TestOp::kSend, shards));
    EXPECT_EQ(r.avg_us, single.avg_us) << "shards=" << shards;
    EXPECT_EQ(r.p50_us, single.p50_us) << "shards=" << shards;
    EXPECT_EQ(r.p99_us, single.p99_us) << "shards=" << shards;
    EXPECT_GT(r.shard_windows, 0u);
    EXPECT_GT(r.shard_messages, 0u);
  }
}

TEST(RackGolden, WriteAndReadLatencyAreShardInvariant) {
  const auto cfg = core::system_l();
  for (perftest::TestOp op :
       {perftest::TestOp::kWrite, perftest::TestOp::kRead}) {
    const auto single = perftest::run_latency(cfg, rack_params(op, 1));
    const auto sharded = perftest::run_latency(cfg, rack_params(op, 4));
    EXPECT_EQ(sharded.avg_us, single.avg_us);
    EXPECT_EQ(sharded.p50_us, single.p50_us);
    EXPECT_EQ(sharded.p99_us, single.p99_us);
  }
}

TEST(RackGolden, BandwidthIsShardInvariant) {
  const auto cfg = core::system_l();
  auto params = [](std::size_t shards) {
    perftest::Params p = rack_params(perftest::TestOp::kSend, shards);
    p.msg_size = 8192;
    p.iterations = 100;
    return p;
  };
  const auto single = perftest::run_bandwidth(cfg, params(1));
  EXPECT_GT(single.gbps, 0.0);
  for (std::size_t shards : {2u, 4u}) {
    const auto r = perftest::run_bandwidth(cfg, params(shards));
    EXPECT_EQ(r.gbps, single.gbps) << "shards=" << shards;
    EXPECT_EQ(r.elapsed, single.elapsed) << "shards=" << shards;
    EXPECT_EQ(r.messages, single.messages) << "shards=" << shards;
  }
}

TEST(RackGolden, MtuBoundarySizesAreShardInvariant) {
  // MTU segmentation edge cases (1 byte, exactly k*MTU, k*MTU + 1) across
  // the routed rack fabric: the fused per-burst segmentation must produce
  // bit-identical latencies at every shard count. The NIC default MTU is
  // 4096.
  const auto cfg = core::system_l();
  for (const std::size_t msg_size : {std::size_t{1}, std::size_t{4096},
                                     std::size_t{3 * 4096},
                                     std::size_t{3 * 4096 + 1}}) {
    auto params = [&](std::size_t shards) {
      perftest::Params p = rack_params(perftest::TestOp::kSend, shards);
      p.msg_size = msg_size;
      p.iterations = 10;
      p.warmup = 2;
      return p;
    };
    const auto single = perftest::run_latency(cfg, params(1));
    EXPECT_GT(single.avg_us, 0.0);
    for (const std::size_t shards : {2u, 4u}) {
      SCOPED_TRACE("msg_size=" + std::to_string(msg_size) +
                   " shards=" + std::to_string(shards));
      const auto r = perftest::run_latency(cfg, params(shards));
      EXPECT_EQ(r.avg_us, single.avg_us);
      EXPECT_EQ(r.p50_us, single.p50_us);
      EXPECT_EQ(r.p99_us, single.p99_us);
    }
  }
}

TEST(RackGolden, CanonicalTraceIsShardInvariant) {
  const auto cfg = core::system_l();
  auto capture = [&](std::size_t shards) {
    perftest::Params p = rack_params(perftest::TestOp::kSend, shards);
    p.msg_size = 256;
    p.iterations = 10;
    p.warmup = 2;
    p.capture_trace = true;
    auto r = perftest::run_latency(cfg, p);
    EXPECT_EQ(r.trace_dropped, 0u);
    return trace::canonical_trace(std::move(r.trace));
  };
  // The 1-shard capture is the golden; the 2- and 4-shard runs must
  // reproduce it byte-for-byte.
  const auto t1 = capture(1);
  ASSERT_FALSE(t1.empty());
  for (const std::size_t shards : {2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto t = capture(shards);
    ASSERT_EQ(t1.size(), t.size());
    EXPECT_EQ(0, std::memcmp(t1.data(), t.data(),
                             t1.size() * sizeof(trace::Record)));
  }
}

TEST(RackGolden, UdSendIsShardInvariant) {
  // Regression for the placement-derived prefix split: UD completes a send
  // at the end of the path's source-side segment, so a 1-shard rack run
  // (src_hops == hop_count pre-fix) dated client completions at full
  // 4-hop delivery while a sharded run dated them at the rack boundary —
  // every UD latency differed by the downstream propagation. The split is
  // topological now, so the completion point is the same at every shard
  // count.
  const auto cfg = core::system_l();
  auto capture = [&](std::size_t shards) {
    perftest::Params p = rack_params(perftest::TestOp::kSend, shards);
    p.transport = perftest::Transport::kUD;
    p.msg_size = 512;
    p.iterations = 10;
    p.warmup = 2;
    p.capture_trace = true;
    return perftest::run_latency(cfg, p);
  };
  const auto single = capture(1);
  EXPECT_GT(single.avg_us, 0.0);
  const auto t1 = trace::canonical_trace(std::move(capture(1).trace));
  ASSERT_FALSE(t1.empty());
  for (std::size_t shards : {2u, 4u}) {
    const auto r = capture(shards);
    EXPECT_EQ(r.avg_us, single.avg_us) << "shards=" << shards;
    EXPECT_EQ(r.p50_us, single.p50_us) << "shards=" << shards;
    EXPECT_EQ(r.p99_us, single.p99_us) << "shards=" << shards;
    auto rt = capture(shards);
    const auto ts = trace::canonical_trace(std::move(rt.trace));
    ASSERT_EQ(t1.size(), ts.size()) << "shards=" << shards;
    EXPECT_EQ(0, std::memcmp(t1.data(), ts.data(),
                             t1.size() * sizeof(trace::Record)))
        << "shards=" << shards;
  }
}

// --- Bit-identity: NIC-level rack runs ---------------------------------
//
// core::System shares one NicConfig across hosts and its workloads never
// converge on a downlink, so these regressions drive NICs directly over a
// hand-built sharded rack.

/// Hosts wired through a rack preset over a ShardedEngine with a
/// rack-aligned block placement (rack r's hosts, and its ToR, on shard
/// r * shards / racks; the spine rides shard 0 — it drives no link
/// direction, both directions of a tiered link bind to the lower-tier
/// endpoint). Per-host NicConfigs, unlike core::System's shared one.
struct RackNicFixture {
  fabric::RackConfig rack;
  sim::ShardedEngine sharded;
  std::vector<std::size_t> placement;  // node (hosts then switches) -> shard
  fabric::Network net;
  nic::NicRegistry registry;
  std::vector<std::unique_ptr<nic::Nic>> nics;

  RackNicFixture(const fabric::RackConfig& r, std::size_t shards,
                 const std::vector<nic::NicConfig>& cfgs)
      : rack(r),
        sharded(shards),
        placement(make_placement(r, shards)),
        net([this](fabric::NodeId n) -> sim::Engine& {
          return sharded.shard(placement.at(n));
        }) {
    for (std::size_t i = 0; i < rack.host_count(); ++i) {
      net.add_node(static_cast<fabric::NodeId>(i),
                   sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
    }
    fabric::build_rack(net, rack);
    if (shards > 1) {
      sharded.set_lookahead(net.cross_lookahead_matrix(
          [this](fabric::NodeId n) { return placement.at(n); }, shards));
    }
    for (std::size_t i = 0; i < rack.host_count(); ++i) {
      nics.push_back(std::make_unique<nic::Nic>(
          sharded.shard(placement.at(i)), net, registry,
          static_cast<fabric::NodeId>(i), cfgs.at(i % cfgs.size())));
    }
  }

  static std::vector<std::size_t> make_placement(const fabric::RackConfig& r,
                                                 std::size_t shards) {
    std::vector<std::size_t> p;
    for (std::size_t h = 0; h < r.host_count(); ++h) {
      p.push_back(r.rack_of(static_cast<fabric::NodeId>(h)) * shards /
                  r.racks);
    }
    for (std::size_t rk = 0; rk < r.racks; ++rk) {
      p.push_back(rk * shards / r.racks);  // ToR rides its rack
    }
    if (r.racks > 1) p.push_back(0);  // spine
    return p;
  }

  struct RcPair {
    nic::QueuePair* qp_a;
    nic::QueuePair* qp_b;
    nic::CompletionQueue* scq_a;
    nic::CompletionQueue* rcq_a;
    nic::CompletionQueue* scq_b;
    nic::CompletionQueue* rcq_b;
    nic::ProtectionDomainId pd_a;
    nic::ProtectionDomainId pd_b;
  };

  RcPair connect_rc(std::size_t a, std::size_t b) {
    RcPair p{};
    nic::Nic& na = *nics.at(a);
    nic::Nic& nb = *nics.at(b);
    p.pd_a = na.alloc_pd();
    p.pd_b = nb.alloc_pd();
    p.scq_a = na.create_cq(1024);
    p.rcq_a = na.create_cq(1024);
    p.scq_b = nb.create_cq(1024);
    p.rcq_b = nb.create_cq(1024);
    p.qp_a = na.create_qp(
        nic::QpConfig{nic::QpType::kRC, p.pd_a, p.scq_a, p.rcq_a, 128, 512, 0});
    p.qp_b = nb.create_qp(
        nic::QpConfig{nic::QpType::kRC, p.pd_b, p.scq_b, p.rcq_b, 128, 512, 0});
    EXPECT_EQ(na.modify_qp(*p.qp_a, nic::QpState::kInit), nic::kOk);
    EXPECT_EQ(na.modify_qp(*p.qp_a, nic::QpState::kRtr,
                           {static_cast<fabric::NodeId>(b), p.qp_b->qpn()}),
              nic::kOk);
    EXPECT_EQ(na.modify_qp(*p.qp_a, nic::QpState::kRts), nic::kOk);
    EXPECT_EQ(nb.modify_qp(*p.qp_b, nic::QpState::kInit), nic::kOk);
    EXPECT_EQ(nb.modify_qp(*p.qp_b, nic::QpState::kRtr,
                           {static_cast<fabric::NodeId>(a), p.qp_a->qpn()}),
              nic::kOk);
    EXPECT_EQ(nb.modify_qp(*p.qp_b, nic::QpState::kRts), nic::kOk);
    return p;
  }
};

/// Drain one successful completion from a CQ.
nic::Cqe take_one(nic::CompletionQueue& cq) {
  std::array<nic::Cqe, 4> wc;
  EXPECT_EQ(cq.poll(wc), 1u) << "expected exactly one completion";
  EXPECT_EQ(wc[0].status, nic::WcStatus::kSuccess);
  return wc[0];
}

// Regression for the receiver-config suffix sizing: the boundary handoff
// used to re-derive wire size as payload + the *receiver's* header_bytes,
// so with per-NIC header configs a sharded run's suffix-hop occupancy
// diverged from the fused run (which serialized the sender's framing on
// every hop). The chunk now carries the sender's wire size.
Time run_hetero_header_send(std::size_t shards) {
  fabric::RackConfig r;
  r.racks = 2;
  r.hosts_per_rack = 1;
  nic::NicConfig sender_cfg;  // default 58-byte framing
  nic::NicConfig receiver_cfg;
  receiver_cfg.header_bytes = 190;
  RackNicFixture f(r, shards, {sender_cfg, receiver_cfg});
  auto rc = f.connect_rc(0, 1);

  std::vector<std::byte> src(8192, std::byte{0x5a});
  std::vector<std::byte> dst(8192);
  const auto& smr = f.nics[0]->register_mr(rc.pd_a, src.data(), src.size(),
                                           nic::kAccessLocalWrite);
  const auto& dmr = f.nics[1]->register_mr(rc.pd_b, dst.data(), dst.size(),
                                           nic::kAccessLocalWrite);
  nic::RecvWr rwr;
  rwr.wr_id = 1;
  rwr.sge = {reinterpret_cast<std::uintptr_t>(dst.data()),
             static_cast<std::uint32_t>(dst.size()), dmr.lkey};
  EXPECT_EQ(f.nics[1]->post_recv(*rc.qp_b, rwr), nic::kOk);
  nic::SendWr swr;
  swr.wr_id = 2;
  swr.opcode = nic::Opcode::kSend;
  swr.sge = {reinterpret_cast<std::uintptr_t>(src.data()),
             static_cast<std::uint32_t>(src.size()), smr.lkey};
  EXPECT_EQ(f.nics[0]->post_send(*rc.qp_a, swr), nic::kOk);

  const Time end = f.sharded.run();
  take_one(*rc.scq_a);
  take_one(*rc.rcq_b);
  EXPECT_EQ(dst, src);
  return end;
}

TEST(RackSharding, HeterogeneousHeaderBytesAreShardInvariant) {
  EXPECT_EQ(run_hetero_header_send(1), run_hetero_header_send(2));
}

// Regression for the placement-derived ctrl-lane split: host 1 streams a
// multi-chunk write to host 2 (occupying the spine->ToR1 and ToR1->host2
// downlinks) while host 0 issues a read of host 2's memory. Pre-fix a
// fused run reserved ctrl packets (the read request; the write's ACK,
// which shares the spine->ToR0 downlink with the read-response data)
// through the *whole* path, queueing them behind the data stream, while a
// sharded run priority-laned the downstream hops with the closed-form
// latency — fused and sharded diverged under any converging traffic. The
// topological split makes both reserve the same source-side hops and
// formula the same suffix.
Time run_fanin_read_under_write(std::size_t shards) {
  fabric::RackConfig r;
  r.racks = 2;
  r.hosts_per_rack = 2;  // hosts 0, 1 | 2, 3
  RackNicFixture f(r, shards, {nic::NicConfig{}});
  auto reader = f.connect_rc(0, 2);
  auto writer = f.connect_rc(1, 2);

  std::vector<std::byte> read_dst(2048);
  std::vector<std::byte> read_src(2048, std::byte{0x11});
  std::vector<std::byte> write_src(32768, std::byte{0x22});
  std::vector<std::byte> write_dst(32768);
  const auto& rd = f.nics[0]->register_mr(reader.pd_a, read_dst.data(),
                                          read_dst.size(),
                                          nic::kAccessLocalWrite);
  const auto& rs = f.nics[2]->register_mr(reader.pd_b, read_src.data(),
                                          read_src.size(),
                                          nic::kAccessRemoteRead);
  const auto& ws = f.nics[1]->register_mr(writer.pd_a, write_src.data(),
                                          write_src.size(),
                                          nic::kAccessLocalWrite);
  const auto& wd = f.nics[2]->register_mr(writer.pd_b, write_dst.data(),
                                          write_dst.size(),
                                          nic::kAccessRemoteWrite);

  nic::SendWr write;
  write.wr_id = 10;
  write.opcode = nic::Opcode::kRdmaWrite;
  write.sge = {reinterpret_cast<std::uintptr_t>(write_src.data()),
               static_cast<std::uint32_t>(write_src.size()), ws.lkey};
  write.remote_addr = reinterpret_cast<std::uintptr_t>(write_dst.data());
  write.rkey = wd.rkey;
  EXPECT_EQ(f.nics[1]->post_send(*writer.qp_a, write), nic::kOk);

  nic::SendWr read;
  read.wr_id = 11;
  read.opcode = nic::Opcode::kRdmaRead;
  read.sge = {reinterpret_cast<std::uintptr_t>(read_dst.data()),
              static_cast<std::uint32_t>(read_dst.size()), rd.lkey};
  read.remote_addr = reinterpret_cast<std::uintptr_t>(read_src.data());
  read.rkey = rs.rkey;
  EXPECT_EQ(f.nics[0]->post_send(*reader.qp_a, read), nic::kOk);

  const Time end = f.sharded.run();
  take_one(*writer.scq_a);
  take_one(*reader.scq_a);
  EXPECT_EQ(read_dst, read_src);
  EXPECT_EQ(write_dst, write_src);
  return end;
}

TEST(RackSharding, ConvergingDownlinkTrafficIsShardInvariant) {
  EXPECT_EQ(run_fanin_read_under_write(1), run_fanin_read_under_write(2));
}

}  // namespace
}  // namespace cord
