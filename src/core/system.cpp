#include "core/system.hpp"

#include <stdexcept>

#include "trace/export.hpp"

namespace cord::core {

SystemConfig system_l() {
  SystemConfig c;
  c.name = "L";
  // ConnectX-6 Dx at 200 Gbit/s capped to 100 Gbit/s by the motherboard.
  c.wire_bandwidth = sim::Bandwidth::gbit_per_sec(100.0);
  c.wire_propagation = sim::ns(150);  // back-to-back cable
  c.nic = nic::NicConfig{};           // CX-6 class defaults
  c.nic.max_inline = 220;

  c.cpu = os::CpuModel{};
  c.cpu.base_ghz = 3.3;   // i5-4590
  c.cpu.turbo_ghz = 3.7;
  c.cpu.turbo_enabled = false;  // paper: "we disable Turbo Boost"
  c.cpu.kpti = false;           // paper: "we disable KPTI"
  c.cpu.syscall_crossing = sim::ns(180);
  c.cpu.memcpy_bandwidth = sim::Bandwidth::gbyte_per_sec(7.5);

  c.kernel = os::KernelConfig{};
  c.cord_inline_support = true;
  c.cord_poll_via_kernel = true;
  return c;
}

SystemConfig system_l_turbo() {
  SystemConfig c = system_l();
  c.name = "L+turbo";
  c.cpu.turbo_enabled = true;
  return c;
}

SystemConfig system_a() {
  SystemConfig c;
  c.name = "A";
  // Virtualized ConnectX-6 InfiniBand, 200 Gbit/s, through a switch.
  c.wire_bandwidth = sim::Bandwidth::gbit_per_sec(200.0);
  c.wire_propagation = sim::ns(600);

  c.nic = nic::NicConfig{};
  c.nic.pcie_bandwidth = sim::Bandwidth::gbit_per_sec(256.0);  // PCIe gen4 x16
  c.nic.dma_latency = sim::ns(500);      // SR-IOV adds latency
  c.nic.doorbell_latency = sim::ns(400); // virtualized MMIO
  c.nic.interrupt_delivery = sim::ns(1200);
  c.nic.max_inline = 1024;  // CX-6 IB configured for large inline; this is
                            // why the bimodal split sits at ~1 KiB (Fig. 5a)

  c.cpu = os::CpuModel{};
  c.cpu.base_ghz = 2.2;   // EPYC 7V73X base
  c.cpu.turbo_ghz = 3.5;
  c.cpu.turbo_enabled = true;  // cloud policy: DVFS cannot be disabled
  c.cpu.kpti = false;          // Meltdown mitigated in hardware
  c.cpu.syscall_crossing = sim::ns(220);
  c.cpu.virt_overhead = 0.8;   // nested paging, virtualized MSRs
  c.cpu.syscall_jitter = 0.30; // noisy neighbours, hypervisor scheduling
  c.cpu.memcpy_bandwidth = sim::Bandwidth::gbyte_per_sec(12.0);

  c.kernel = os::KernelConfig{};
  c.cord_inline_support = false;  // the paper's prototype gap on system A
  c.cord_poll_via_kernel = true;
  return c;
}

std::vector<std::uint32_t> System::make_placement(
    std::size_t host_count, std::size_t shards,
    std::vector<std::uint32_t> placement) {
  if (shards == 0) throw std::invalid_argument("shards must be >= 1");
  if (placement.empty()) {
    placement.resize(host_count);
    for (std::size_t i = 0; i < host_count; ++i) {
      placement[i] = static_cast<std::uint32_t>(i * shards / host_count);
    }
    return placement;
  }
  if (placement.size() != host_count) {
    throw std::invalid_argument("placement size != host count");
  }
  for (std::uint32_t s : placement) {
    if (s >= shards) throw std::invalid_argument("placement shard out of range");
  }
  return placement;
}

System::System(SystemConfig cfg, std::size_t host_count, std::size_t shards,
               std::vector<std::uint32_t> placement)
    : cfg_(std::move(cfg)),
      placement_(make_placement(host_count, shards, std::move(placement))),
      sharded_(shards),
      network_([this](fabric::NodeId n) -> sim::Engine& {
        return sharded_.shard(placement_.at(n));
      }) {
  for (std::size_t i = 0; i < host_count; ++i) {
    network_.add_node(static_cast<nic::NodeId>(i), cfg_.loopback_bandwidth,
                      cfg_.loopback_delay);
  }
  switch (cfg_.wiring) {
    case SystemConfig::Wiring::kFullMesh:
      for (std::size_t i = 0; i < host_count; ++i) {
        for (std::size_t j = i + 1; j < host_count; ++j) {
          network_.connect(static_cast<nic::NodeId>(i),
                           static_cast<nic::NodeId>(j), cfg_.wire_bandwidth,
                           cfg_.wire_propagation);
        }
      }
      break;
    case SystemConfig::Wiring::kPairs:
      for (std::size_t i = 0; i + 1 < host_count; i += 2) {
        network_.connect(static_cast<nic::NodeId>(i),
                         static_cast<nic::NodeId>(i + 1), cfg_.wire_bandwidth,
                         cfg_.wire_propagation);
      }
      break;
    case SystemConfig::Wiring::kRack: {
      const fabric::RackConfig& rack = cfg_.rack;
      if (rack.host_count() != host_count) {
        throw std::invalid_argument(
            "System: rack topology (" + std::to_string(rack.racks) + " x " +
            std::to_string(rack.hosts_per_rack) + " hosts) does not match "
            "host_count = " + std::to_string(host_count));
      }
      // Switch placement: a rack (its hosts + its ToR) is one engine
      // domain, so the ToR rides on its rack's shard; rack-misaligned host
      // placements are rejected up front (compute_routes would also catch
      // them, with a less direct message). The spine never drives a hop
      // resource (both uplink directions bind ToR-side), so its placement
      // entry is only needed for Network bookkeeping.
      for (std::size_t r = 0; r < rack.racks; ++r) {
        const std::uint32_t shard = placement_.at(r * rack.hosts_per_rack);
        for (std::size_t h = 1; h < rack.hosts_per_rack; ++h) {
          if (placement_.at(r * rack.hosts_per_rack + h) != shard) {
            throw std::invalid_argument(
                "System: rack " + std::to_string(r) +
                " straddles shards — sharded rack topologies require "
                "rack-aligned placements (all hosts of a rack on one "
                "shard)");
          }
        }
        placement_.push_back(shard);  // ToR of rack r
      }
      if (rack.racks > 1) placement_.push_back(placement_.at(0));  // spine
      fabric::build_rack(network_, rack);
      break;
    }
  }
  // The partition's lookahead, per shard pair: the minimum source-side
  // propagation of any routed path crossing each pair (pairs no path
  // crosses stay unbounded). A cross-shard path with zero propagation
  // would admit no parallel window at all, so it is rejected here (at
  // setup) rather than deadlocking or — worse — silently reordering at
  // run time.
  if (shards > 1) {
    sharded_.set_lookahead(network_.cross_lookahead_matrix(
        [this](fabric::NodeId n) { return placement_.at(n); }, shards));
  }
  for (std::size_t i = 0; i < host_count; ++i) {
    hosts_.push_back(std::make_unique<os::Host>(
        engine_for(static_cast<nic::NodeId>(i)), network_, registry_,
        static_cast<nic::NodeId>(i), cfg_.nic, cfg_.cpu, cfg_.kernel));
  }
  tracers_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    tracers_.push_back(std::make_unique<trace::Tracer>(sharded_.shard(s)));
    // Disjoint span-id sequences per shard: a merged stream keeps one
    // correlation id per logical work request.
    tracers_.back()->set_span_range(static_cast<std::uint32_t>(s) + 1,
                                    static_cast<std::uint32_t>(shards));
  }
  // Engine-health gauges, read live (no per-event bookkeeping). The clamp
  // gauge is how the bench harness notices a truncated run (satellite of
  // the observability work: a clamped run is a lie unless surfaced).
  metrics_.callback_gauge("engine.events_processed", [this] {
    return static_cast<std::int64_t>(sharded_.events_processed());
  });
  metrics_.callback_gauge("engine.clamped_events", [this] {
    return static_cast<std::int64_t>(sharded_.clamped_events());
  });
  // Event-queue health: depth high-water mark — a live view, zero
  // per-event bookkeeping.
  metrics_.callback_gauge("engine.queue_peak_depth", [this] {
    return static_cast<std::int64_t>(sharded_.queue_peak_depth());
  });
  // Idle-poll elision (DESIGN.md §20): empty poll-loop steps replayed
  // without an event, and parked loops resumed as events. Pollers only
  // park on a single-shard engine, so shard 0 holds every count.
  metrics_.callback_gauge("sim.polls_elided", [this] {
    return static_cast<std::int64_t>(engine().polls_elided());
  });
  metrics_.callback_gauge("sim.poll_wakes", [this] {
    return static_cast<std::int64_t>(engine().poll_wakes());
  });
  // System-wide NIC doorbell/burst totals, summed over hosts at read
  // time. Mirrors the per-host gauges each Kernel exposes through
  // proc_read("metrics"), so fleet-level dashboards don't have to crawl
  // every host.
  const auto nic_sum = [this](std::uint64_t nic::NicCounters::*field) {
    std::int64_t total = 0;
    for (const auto& h : hosts_) {
      total += static_cast<std::int64_t>(h->nic().counters().*field);
    }
    return total;
  };
  metrics_.callback_gauge("nic.doorbells", [nic_sum] {
    return nic_sum(&nic::NicCounters::doorbells);
  });
  metrics_.callback_gauge("nic.doorbells_coalesced", [nic_sum] {
    return nic_sum(&nic::NicCounters::doorbells_coalesced);
  });
  metrics_.callback_gauge("nic.sq_bursts", [nic_sum] {
    return nic_sum(&nic::NicCounters::sq_bursts);
  });
  metrics_.callback_gauge("nic.sq_burst_wrs", [nic_sum] {
    return nic_sum(&nic::NicCounters::sq_burst_wrs);
  });
  metrics_.callback_gauge("nic.sq_fused_batches", [nic_sum] {
    return nic_sum(&nic::NicCounters::sq_fused_batches);
  });
  metrics_.callback_gauge("nic.seg_msgs", [nic_sum] {
    return nic_sum(&nic::NicCounters::seg_msgs);
  });
  metrics_.callback_gauge("nic.seg_chunks", [nic_sum] {
    return nic_sum(&nic::NicCounters::seg_chunks);
  });
  // Shard-synchronization health: live views of the coordinator's
  // per-run stats.
  metrics_.callback_gauge("sim.shard.windows", [this] {
    return static_cast<std::int64_t>(sharded_.stats().windows);
  });
  metrics_.callback_gauge("sim.shard.messages", [this] {
    return static_cast<std::int64_t>(sharded_.stats().messages);
  });
  // Causal-layer health: spans analyzed, watchdog firings, and the global
  // p99 end-to-end latency — all views of the aggregate analyze_causal()
  // last built (zero until it runs; no data-path cost ever).
  metrics_.callback_gauge("causal.spans", [this] {
    return static_cast<std::int64_t>(causal_.spans());
  });
  metrics_.callback_gauge("causal.watchdog_violations", [this] {
    return static_cast<std::int64_t>(causal_.watchdog_violations());
  });
  metrics_.callback_gauge("causal.p99_e2e_ns", [this] {
    return static_cast<std::int64_t>(causal_.e2e().percentile(99.0) / 1e3);
  });
}

void System::set_tracing(bool on) {
  for (auto& t : tracers_) t->set_enabled(on);
}

std::vector<trace::Record> System::merged_trace() const {
  // Single shard: the stream as emitted (byte-identical to the tracer's
  // snapshot; emission order is the pre-sharding trace contract).
  if (tracers_.size() == 1) return tracers_.front()->snapshot();
  std::vector<std::vector<trace::Record>> streams;
  streams.reserve(tracers_.size());
  for (const auto& t : tracers_) streams.push_back(t->snapshot());
  return trace::merge_by_time(std::move(streams));
}

std::uint64_t System::trace_dropped() const {
  std::uint64_t d = 0;
  for (const auto& t : tracers_) d += t->dropped();
  return d;
}

const trace::causal::Aggregator& System::analyze_causal() {
  causal_.clear();
  causal_.ingest(merged_trace());
  return causal_;
}

}  // namespace cord::core
