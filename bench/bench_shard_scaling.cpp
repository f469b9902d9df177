// Shard-scaling benchmark matrix: two fabrics x 1/2/4/8 engine shards
// under conservative-window synchronization.
//
//   BM_ShardScaling      — link-partitioned independent node pairs, RC
//                          sends within each pair. Pair-aligned partition,
//                          no cross-shard links, one unbounded window: the
//                          embarrassingly-parallel best case that bounds
//                          what sharding can ever buy on a NIC workload.
//   BM_ShardScalingRack  — routed 8-rack x 2-host leaf-spine fabric with
//                          every stream crossing the spine: multi-hop
//                          reservations, boundary-split arrivals, bounded
//                          conservative windows.
//
// Honesty note: core-count speedup requires hardware parallelism. The
// benchmark reports std::thread::hardware_concurrency() as a counter; on
// a 1-core host the multi-shard configs measure protocol + thread
// overhead.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "fabric/link.hpp"
#include "fabric/topology.hpp"
#include "nic/nic.hpp"
#include "sim/sharded.hpp"

namespace {

using namespace cord;

constexpr std::size_t kPairs = 8;
constexpr int kMsgsPerPair = 256;
constexpr std::uint32_t kMsgBytes = 64;

std::uintptr_t uptr(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

/// kPairs back-to-back node pairs, pair k on shard k * shards / kPairs.
struct PairsFabric {
  sim::ShardedEngine se;
  fabric::Network net;
  nic::NicRegistry reg;
  std::vector<std::unique_ptr<nic::Nic>> nics;
  std::vector<nic::QueuePair*> qps;  // [2k] client, [2k+1] server
  std::vector<nic::CompletionQueue*> scqs, rcqs;
  std::vector<std::vector<std::byte>> bufs;

  explicit PairsFabric(std::size_t shards)
      : se(shards), net([this](fabric::NodeId n) -> sim::Engine& {
          return se.shard(shard_of(n));
        }) {
    for (std::size_t n = 0; n < 2 * kPairs; ++n) {
      net.add_node(static_cast<fabric::NodeId>(n),
                   sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
    }
    for (std::size_t k = 0; k < kPairs; ++k) {
      net.connect(static_cast<fabric::NodeId>(2 * k),
                  static_cast<fabric::NodeId>(2 * k + 1),
                  sim::Bandwidth::gbit_per_sec(100.0), sim::ns(150));
    }
    // Pair-aligned partition: no cross-shard links, unbounded lookahead.
    se.set_lookahead(net.min_cross_lookahead(
        [this](fabric::NodeId n) { return shard_of(n); }));
    for (std::size_t n = 0; n < 2 * kPairs; ++n) {
      nics.push_back(std::make_unique<nic::Nic>(
          se.shard(shard_of(static_cast<fabric::NodeId>(n))), net, reg,
          static_cast<nic::NodeId>(n), nic::NicConfig{}));
    }
    bufs.resize(2 * kPairs);
    for (std::size_t k = 0; k < kPairs; ++k) connect_pair(k);
  }

  std::size_t shard_of(fabric::NodeId n) const {
    return (n / 2) * se.shard_count() / kPairs;
  }

  void connect_pair(std::size_t k) {
    nic::Nic& a = *nics[2 * k];
    nic::Nic& b = *nics[2 * k + 1];
    auto pda = a.alloc_pd();
    auto pdb = b.alloc_pd();
    auto* scqa = a.create_cq(1024);
    auto* rcqa = a.create_cq(1024);
    auto* scqb = b.create_cq(1024);
    auto* rcqb = b.create_cq(1024);
    auto* qpa = a.create_qp({nic::QpType::kRC, pda, scqa, rcqa, 1024, 1024, 0});
    auto* qpb = b.create_qp({nic::QpType::kRC, pdb, scqb, rcqb, 1024, 1024, 0});
    a.modify_qp(*qpa, nic::QpState::kInit);
    a.modify_qp(*qpa, nic::QpState::kRtr,
                {static_cast<nic::NodeId>(2 * k + 1), qpb->qpn()});
    a.modify_qp(*qpa, nic::QpState::kRts);
    b.modify_qp(*qpb, nic::QpState::kInit);
    b.modify_qp(*qpb, nic::QpState::kRtr,
                {static_cast<nic::NodeId>(2 * k), qpa->qpn()});
    b.modify_qp(*qpb, nic::QpState::kRts);
    qps.push_back(qpa);
    qps.push_back(qpb);
    scqs.push_back(scqa);
    scqs.push_back(scqb);
    rcqs.push_back(rcqa);
    rcqs.push_back(rcqb);
    bufs[2 * k].assign(kMsgBytes, std::byte{0x5A});
    bufs[2 * k + 1].assign(static_cast<std::size_t>(kMsgBytes) * kMsgsPerPair,
                           std::byte{0});
    const auto& mr_src = a.register_mr(pda, bufs[2 * k].data(),
                                       bufs[2 * k].size(), 0);
    const auto& mr_dst =
        b.register_mr(pdb, bufs[2 * k + 1].data(), bufs[2 * k + 1].size(),
                      nic::kAccessLocalWrite);
    for (int i = 0; i < kMsgsPerPair; ++i) {
      b.post_recv(*qpb,
                  {std::uint64_t(i),
                   {uptr(bufs[2 * k + 1].data()) + std::size_t(i) * kMsgBytes,
                    kMsgBytes, mr_dst.lkey}});
    }
    for (int i = 0; i < kMsgsPerPair; ++i) {
      a.post_send(*qpa,
                  nic::SendWr{.wr_id = std::uint64_t(i),
                              .sge = {uptr(bufs[2 * k].data()), kMsgBytes,
                                      mr_src.lkey}});
    }
  }
};

void BM_ShardScaling(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  // Rate over wall time, measured here: the library's kIsRate divides by
  // the *main thread's* CPU time, which excludes shard workers and would
  // fake a speedup whenever the coordinator sleeps at the barrier.
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    PairsFabric f(shards);
    f.se.run();
    events += f.se.events_processed();
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  state.counters["events_per_sec"] =
      wall.count() > 0 ? static_cast<double>(events) / wall.count() : 0.0;
  state.counters["hw_threads"] = static_cast<double>(
      std::max(1u, std::thread::hardware_concurrency()));
}
BENCHMARK(BM_ShardScaling)
    ->ArgsProduct({{1, 2, 4, 8}})
    ->ArgNames({"shards"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The routed counterpart: an 8-rack x 2-host leaf-spine fabric with every
/// stream crossing the spine (client in racks 0-3, server in racks 4-7),
/// rack-aligned block partition, per-pair lookahead matrix. Unlike the
/// pair fabric this exercises multi-hop reservations, the boundary-split
/// arrival path and bounded conservative windows.
struct RackFabric {
  static constexpr std::size_t kRacks = 8;
  static constexpr std::size_t kHostsPerRack = 2;
  static constexpr std::size_t kHosts = kRacks * kHostsPerRack;
  static constexpr std::size_t kStreams = kHosts / 2;  // i -> i + kHosts/2

  sim::ShardedEngine se;
  fabric::RackConfig rack;
  fabric::Network net;
  nic::NicRegistry reg;
  std::vector<std::unique_ptr<nic::Nic>> nics;
  std::vector<std::vector<std::byte>> bufs;

  explicit RackFabric(std::size_t shards)
      : se(shards), net([this](fabric::NodeId n) -> sim::Engine& {
          return se.shard(shard_of(n));
        }) {
    rack.racks = kRacks;
    rack.hosts_per_rack = kHostsPerRack;
    for (std::size_t n = 0; n < kHosts; ++n) {
      net.add_node(static_cast<fabric::NodeId>(n),
                   sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
    }
    fabric::build_rack(net, rack);
    se.set_lookahead(net.cross_lookahead_matrix(
        [this](fabric::NodeId n) { return shard_of(n); }, shards));
    for (std::size_t n = 0; n < kHosts; ++n) {
      nics.push_back(std::make_unique<nic::Nic>(
          se.shard(shard_of(static_cast<fabric::NodeId>(n))), net, reg,
          static_cast<nic::NodeId>(n), nic::NicConfig{}));
    }
    bufs.resize(kHosts);
    for (std::size_t k = 0; k < kStreams; ++k) connect_stream(k);
  }

  /// Rack-aligned block partition: rack r on shard r * shards / kRacks;
  /// each ToR rides its rack's shard, the spine shard 0 (it drives no hop
  /// resource either way).
  std::size_t shard_of(fabric::NodeId n) const {
    if (n < kHosts) return rack.rack_of(n) * se.shard_count() / kRacks;
    if (n < kHosts + kRacks) return (n - kHosts) * se.shard_count() / kRacks;
    return 0;  // spine
  }

  void connect_stream(std::size_t k) {
    const auto an = static_cast<nic::NodeId>(k);
    const auto bn = static_cast<nic::NodeId>(k + kHosts / 2);
    nic::Nic& a = *nics[an];
    nic::Nic& b = *nics[bn];
    auto pda = a.alloc_pd();
    auto pdb = b.alloc_pd();
    auto* scqa = a.create_cq(1024);
    auto* rcqa = a.create_cq(1024);
    auto* scqb = b.create_cq(1024);
    auto* rcqb = b.create_cq(1024);
    auto* qpa = a.create_qp({nic::QpType::kRC, pda, scqa, rcqa, 1024, 1024, 0});
    auto* qpb = b.create_qp({nic::QpType::kRC, pdb, scqb, rcqb, 1024, 1024, 0});
    a.modify_qp(*qpa, nic::QpState::kInit);
    a.modify_qp(*qpa, nic::QpState::kRtr, {bn, qpb->qpn()});
    a.modify_qp(*qpa, nic::QpState::kRts);
    b.modify_qp(*qpb, nic::QpState::kInit);
    b.modify_qp(*qpb, nic::QpState::kRtr, {an, qpa->qpn()});
    b.modify_qp(*qpb, nic::QpState::kRts);
    bufs[an].assign(kMsgBytes, std::byte{0x5A});
    bufs[bn].assign(static_cast<std::size_t>(kMsgBytes) * kMsgsPerPair,
                    std::byte{0});
    const auto& mr_src = a.register_mr(pda, bufs[an].data(), bufs[an].size(), 0);
    const auto& mr_dst = b.register_mr(pdb, bufs[bn].data(), bufs[bn].size(),
                                       nic::kAccessLocalWrite);
    for (int i = 0; i < kMsgsPerPair; ++i) {
      b.post_recv(*qpb, {std::uint64_t(i),
                         {uptr(bufs[bn].data()) + std::size_t(i) * kMsgBytes,
                          kMsgBytes, mr_dst.lkey}});
    }
    for (int i = 0; i < kMsgsPerPair; ++i) {
      a.post_send(*qpa, nic::SendWr{.wr_id = std::uint64_t(i),
                                    .sge = {uptr(bufs[an].data()), kMsgBytes,
                                            mr_src.lkey}});
    }
  }
};

void BM_ShardScalingRack(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    RackFabric f(shards);
    f.se.run();
    events += f.se.events_processed();
    windows += f.se.stats().windows;
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  state.counters["events_per_sec"] =
      wall.count() > 0 ? static_cast<double>(events) / wall.count() : 0.0;
  state.counters["windows"] = static_cast<double>(windows);
  state.counters["hw_threads"] = static_cast<double>(
      std::max(1u, std::thread::hardware_concurrency()));
}
BENCHMARK(BM_ShardScalingRack)
    ->ArgsProduct({{1, 2, 4, 8}})
    ->ArgNames({"shards"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
