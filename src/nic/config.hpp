// Timing/capacity parameters of the simulated NIC. Defaults approximate a
// ConnectX-6-class device; the per-system presets in src/core/system.cpp
// override them per testbed.
#pragma once

#include <cstdint>

#include "sim/units.hpp"

namespace cord::nic {

struct NicConfig {
  /// PCIe DMA engine bandwidth (shared by reads and writes).
  sim::Bandwidth pcie_bandwidth = sim::Bandwidth::gbit_per_sec(128.0);
  /// Fixed initiation latency of a DMA transaction (first chunk only).
  sim::Time dma_latency = sim::ns(300);
  /// MMIO doorbell write to NIC starting to look at the WQE.
  sim::Time doorbell_latency = sim::ns(250);
  /// NIC processing per send WQE (fetch, parse, schedule).
  sim::Time wqe_processing = sim::ns(80);
  /// NIC processing on the responder for an inbound message.
  sim::Time rx_processing = sim::ns(80);
  /// Writing a CQE back to host memory.
  sim::Time cqe_write = sim::ns(100);
  /// Handling an inbound ACK/NAK on the requester.
  sim::Time ack_processing = sim::ns(50);
  /// Raising an interrupt: NIC -> host IRQ handler entry.
  sim::Time interrupt_delivery = sim::ns(600);
  /// Path MTU; also the UD maximum message size.
  std::uint32_t mtu = 4096;
  /// Per-packet header bytes charged on the wire (RoCE/IB headers).
  std::uint32_t header_bytes = 58;
  /// ACK packet size on the wire.
  std::uint32_t ack_bytes = 26;
  /// Largest inline payload the device accepts (0 disables inline).
  std::uint32_t max_inline = 220;
  /// Receiver-not-ready retry backoff and retry budget.
  sim::Time rnr_timer = sim::us(10);
  std::uint32_t rnr_retries = 8;
  /// On-NIC connection-context cache (ICM model, nic/icm.hpp): how many
  /// QP contexts and MR contexts fit on-die. 0 = unbounded (model off,
  /// nothing charged — the default, keeping existing scenarios
  /// byte-identical). When bounded, a miss charges icm_miss_latency on
  /// the doorbell ring (QP context) or the WQE fetch (MR context) — the
  /// host-memory fetch over PCIe that produces the connection-count
  /// performance cliff.
  std::uint32_t icm_qp_capacity = 0;
  std::uint32_t icm_mr_capacity = 0;
  sim::Time icm_miss_latency = sim::ns(600);
};

}  // namespace cord::nic
