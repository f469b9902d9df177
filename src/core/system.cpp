#include "core/system.hpp"

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

  c.cord_inline_support = false;  // the paper's prototype gap on system A
  c.cord_poll_via_kernel = true;
  return c;
}

System::System(SystemConfig cfg, std::size_t host_count)
    : cfg_(std::move(cfg)),
      network_(engine_, host_count, cfg_.wire_bandwidth, cfg_.wire_propagation),
      tracer_(engine_) {
  for (std::size_t i = 0; i < host_count; ++i) {
    hosts_.push_back(std::make_unique<os::Host>(
        engine_, network_, registry_, static_cast<nic::NodeId>(i), cfg_.nic,
        cfg_.cpu));
  }
  // Engine-health gauges, read live (no per-event bookkeeping). The clamp
  // gauge counts events scheduled into the past and clamped to now() — a
  // model bug, which the bench harness surfaces instead of burying.
  metrics_.callback_gauge("engine.events_processed", [this] {
    return static_cast<std::int64_t>(engine_.events_processed());
  });
  // Timed waits resumed in place; added to events_processed, the events a
  // queue-only engine would have dispatched.
  metrics_.callback_gauge("engine.resumed_in_place", [this] {
    return static_cast<std::int64_t>(engine_.resumed_in_place());
  });
  metrics_.callback_gauge("engine.clamped_events", [this] {
    return static_cast<std::int64_t>(engine_.clamped_events());
  });
  // Event-queue health: live depth and high-water mark — zero per-event
  // bookkeeping.
  metrics_.callback_gauge("engine.queue_depth", [this] {
    return static_cast<std::int64_t>(engine_.pending_events());
  });
  metrics_.callback_gauge("engine.queue_peak_depth", [this] {
    return static_cast<std::int64_t>(engine_.queue_peak_depth());
  });
  // Idle-poll elision (DESIGN.md §20): empty poll-loop steps replayed
  // without an event, parked loops resumed as events, and the catch-up
  // passes that replayed the steps.
  metrics_.callback_gauge("sim.polls_elided", [this] {
    return static_cast<std::int64_t>(engine_.polls_elided());
  });
  metrics_.callback_gauge("sim.poll_wakes", [this] {
    return static_cast<std::int64_t>(engine_.poll_wakes());
  });
  metrics_.callback_gauge("sim.poll_catchups", [this] {
    return static_cast<std::int64_t>(engine_.poll_catchups());
  });
  // NIC doorbell/burst/segment totals, summed over hosts at read time.
  // This is the only registry of these names; one host's counts are its
  // Nic::counters().
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
  // Causal-layer health: spans analyzed and the global p99 end-to-end
  // latency, both views of the aggregate analyze_causal() last built (zero
  // until it runs; no data-path cost ever).
  metrics_.callback_gauge("causal.spans", [this] {
    return static_cast<std::int64_t>(causal_.spans());
  });
  metrics_.callback_gauge("causal.p99_e2e_ns", [this] {
    return static_cast<std::int64_t>(causal_.e2e().percentile(99.0) / 1e3);
  });
}

const trace::causal::Aggregator& System::analyze_causal() {
  causal_ = {};
  causal_.ingest(tracer_.snapshot());
  return causal_;
}

}  // namespace cord::core
