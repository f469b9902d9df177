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
// A System runs on one sim::Engine, and every pair of its hosts is linked
// by a direct wire.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fabric/link.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"
#include "trace/causal/aggregate.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "verbs/verbs.hpp"

namespace cord::core {

struct SystemConfig {
  std::string name;
  sim::Bandwidth wire_bandwidth = sim::Bandwidth::gbit_per_sec(100.0);
  sim::Time wire_propagation = sim::ns(150);
  nic::NicConfig nic;
  os::CpuModel cpu;
  /// Whether this system's CoRD prototype supports inline sends.
  bool cord_inline_support = true;
  /// Default for routing poll_cq through the kernel in CoRD mode.
  bool cord_poll_via_kernel = true;
};

/// The paper's local testbed (defaults as benchmarked: Turbo disabled).
SystemConfig system_l();
/// System L with Turbo Boost left on (the DVFS-interaction observation).
SystemConfig system_l_turbo();
/// The Azure HB120 testbed.
SystemConfig system_a();

class System {
 public:
  explicit System(SystemConfig cfg, std::size_t host_count = 2);

  sim::Engine& engine() { return engine_; }
  /// engine() under its old name, kept only for perfbench/bench.cpp until
  /// a benchmark change moves that file to engine().
  sim::Engine& sharded() { return engine_; }
  /// Always 1, kept only for perfbench/bench.cpp (see sharded()).
  std::size_t shard_count() const { return 1; }

  fabric::Network* network_ptr() { return &network_; }
  const SystemConfig& config() const { return cfg_; }
  std::size_t host_count() const { return hosts_.size(); }
  os::Host& host(std::size_t i) { return *hosts_.at(i); }

  /// The system's tracer, disabled by default (zero data-path cost until
  /// `tracer().set_enabled(true)` arms the trace points).
  trace::Tracer& tracer() { return tracer_; }
  /// Arm or disarm the tracer.
  void set_tracing(bool on) { tracer_.set_enabled(on); }
  /// Records the tracer dropped (ring overflow).
  std::uint64_t trace_dropped() const { return tracer_.dropped(); }

  /// Rebuild the system-wide causal aggregate from one ingest of the
  /// whole trace (every host's spans), replacing the previous one. Feeds
  /// the causal.* gauges in metrics().
  const trace::causal::Aggregator& analyze_causal();

  /// System-wide metrics, the only registry of the one engine's gauges:
  /// engine.* (events processed, events scheduled into the past and
  /// clamped to now() — a model bug when non-zero — and the queue's live
  /// and peak depth), sim.* (idle-poll elision), the nic.* sums over hosts
  /// and the causal.* views. Each host kernel's registry holds that host's
  /// own facts.
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
  SystemConfig cfg_;
  sim::Engine engine_;
  fabric::Network network_;
  nic::NicRegistry registry_;
  std::vector<std::unique_ptr<os::Host>> hosts_;
  trace::Tracer tracer_;
  trace::MetricsRegistry metrics_;
  trace::causal::Aggregator causal_;
};

}  // namespace cord::core
