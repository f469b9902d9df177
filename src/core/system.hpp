// System assembly: puts engine, fabric, NICs, kernels and cores together,
// with named presets for the paper's two testbeds.
//
//   System L — two nodes, Intel i5-4590 (3.3/3.7 GHz, Turbo disabled for
//              benchmarks), ConnectX-6 Dx RoCE back-to-back at 100 Gbit/s
//              (motherboard-limited), bare metal, KPTI off, CoRD prototype
//              supports inline sends.
//   System A — two Azure HB120 nodes, virtualized EPYC 7V73X, virtualized
//              ConnectX-6 InfiniBand at 200 Gbit/s, DVFS cannot be
//              disabled, syscalls are costlier and jittery (virtualized),
//              KPTI off (hardware-mitigated Meltdown), CoRD prototype
//              lacks inline support — producing the bimodal overhead of
//              Fig. 5a.
//
// Sharding: a System may partition its hosts across N sim::Engine shards
// (one thread each) synchronized with conservative time windows; the
// lookahead is derived automatically from the minimum propagation delay
// of the links that cross the partition (see sim/sharded.hpp and
// DESIGN.md §12). `shards = 1` (the default) is the exact pre-sharding
// single-engine system.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fabric/topology.hpp"
#include "os/conn.hpp"
#include "os/kernel.hpp"
#include "sim/sharded.hpp"
#include "trace/causal/aggregate.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "verbs/verbs.hpp"

namespace cord::core {

struct SystemConfig {
  std::string name;
  sim::Bandwidth wire_bandwidth = sim::Bandwidth::gbit_per_sec(100.0);
  sim::Time wire_propagation = sim::ns(150);
  sim::Bandwidth loopback_bandwidth = sim::Bandwidth::gbit_per_sec(200.0);
  sim::Time loopback_delay = sim::ns(150);
  nic::NicConfig nic;
  os::CpuModel cpu;
  os::KernelConfig kernel;
  /// Whether this system's CoRD prototype supports inline sends.
  bool cord_inline_support = true;
  /// Default for routing poll_cq through the kernel in CoRD mode.
  bool cord_poll_via_kernel = true;
  /// Connection-endpoint mode (the runtime conn=exclusive|shared knob,
  /// os::parse_conn_mode). Exclusive gives every logical connection its
  /// own physical QP; shared multiplexes logical connections over a
  /// bounded pool of `shared_qp_pool` physical QPs per destination
  /// (DCT/RDMAvisor-style, os/conn.hpp), keeping the NIC context working
  /// set and host memory bounded at millions of logical connections.
  os::ConnMode conn_mode = os::ConnMode::kExclusive;
  std::uint32_t shared_qp_pool = 64;

  /// Fabric topology between hosts.
  enum class Wiring {
    kFullMesh,  ///< every host pair linked (the default, matches the paper)
    kPairs,     ///< hosts (2k, 2k+1) linked only — a link-partitioned fabric
                ///< with no cross-pair (and so possibly no cross-shard) links
    kRack,      ///< leaf-spine: hosts -> ToR switches -> spine, routed paths
                ///< (rack shape and per-tier parameters from `rack`)
  };
  Wiring wiring = Wiring::kFullMesh;
  /// Rack shape when wiring == kRack. rack.host_count() must equal the
  /// System's host_count; with shards > 1 the placement must be
  /// rack-aligned (all hosts of a rack on one shard).
  fabric::RackConfig rack;
};

/// The paper's local testbed (defaults as benchmarked: Turbo disabled).
SystemConfig system_l();
/// System L with Turbo Boost left on (the DVFS-interaction observation).
SystemConfig system_l_turbo();
/// The Azure HB120 testbed.
SystemConfig system_a();

class System {
 public:
  /// `shards` > 1 partitions the hosts across that many engines. The
  /// default placement is a block partition (host i on shard
  /// i * shards / host_count); pass `placement` (one shard index per
  /// host) to override. Throws std::invalid_argument when the partition
  /// admits no safe lookahead (a cross-shard link with zero propagation).
  explicit System(SystemConfig cfg, std::size_t host_count = 2,
                  std::size_t shards = 1,
                  std::vector<std::uint32_t> placement = {});

  /// Shard 0's engine — the only engine when shards == 1. Single-engine
  /// callers (everything predating sharding) keep working unchanged.
  sim::Engine& engine() { return sharded_.shard(0); }
  /// The shard coordinator (1 shard degrades to plain Engine::run()).
  sim::ShardedEngine& sharded() { return sharded_; }
  std::size_t shard_count() const { return sharded_.shard_count(); }
  std::uint32_t shard_of(nic::NodeId node) const { return placement_.at(node); }
  sim::Engine& engine_for(nic::NodeId node) {
    return sharded_.shard(placement_.at(node));
  }

  fabric::Network* network_ptr() { return &network_; }
  const SystemConfig& config() const { return cfg_; }
  std::size_t host_count() const { return hosts_.size(); }
  os::Host& host(std::size_t i) { return *hosts_.at(i); }

  /// Shard 0's tracer, disabled by default (zero data-path cost until
  /// `tracer().set_enabled(true)` arms the trace points).
  trace::Tracer& tracer() { return *tracers_.at(0); }
  /// Per-shard tracer (records carry the shard's virtual clock; merge
  /// with merged_trace()).
  trace::Tracer& tracer(std::size_t shard) { return *tracers_.at(shard); }
  /// Arm or disarm every shard's tracer.
  void set_tracing(bool on);
  /// All shards' records merged by virtual time (stable: ties keep shard
  /// order, then emission order).
  std::vector<trace::Record> merged_trace() const;
  /// Records dropped across all shard tracers (ring overflow).
  std::uint64_t trace_dropped() const;

  /// Rebuild the system-wide causal aggregate from the current merged
  /// trace (clears previous observations; SLO configuration is kept).
  /// Shard-invariant: same simulation, any shard count → identical
  /// aggregate state. Feeds the causal.* gauges in metrics().
  const trace::causal::Aggregator& analyze_causal();
  /// The causal aggregate as last built by analyze_causal() (empty until
  /// the first call). Configure SLOs here before running:
  /// `causal().set_slo(...)` — const_cast-free via the non-const overload.
  trace::causal::Aggregator& causal() { return causal_; }
  const trace::causal::Aggregator& causal() const { return causal_; }

  /// System-wide metrics: live views of engine health (events processed,
  /// event-count clamp) — distinct from each host kernel's registry.
  trace::MetricsRegistry& metrics() { return metrics_; }

  /// Context options for a process on this system in the given mode,
  /// applying the system's CoRD capabilities.
  verbs::ContextOptions options(verbs::DataplaneMode mode,
                                os::TenantId tenant = 0) const {
    return verbs::ContextOptions{
        .mode = mode,
        .poll_via_kernel = cfg_.cord_poll_via_kernel,
        .cord_inline_support = cfg_.cord_inline_support,
        .tenant = tenant,
    };
  }

 private:
  static std::vector<std::uint32_t> make_placement(
      std::size_t host_count, std::size_t shards,
      std::vector<std::uint32_t> placement);

  SystemConfig cfg_;
  std::vector<std::uint32_t> placement_;  // host -> shard (init before network_)
  sim::ShardedEngine sharded_;
  fabric::Network network_;
  nic::NicRegistry registry_;
  std::vector<std::unique_ptr<os::Host>> hosts_;
  std::vector<std::unique_ptr<trace::Tracer>> tracers_;
  trace::MetricsRegistry metrics_;
  trace::causal::Aggregator causal_;
};

}  // namespace cord::core
