// Timing/capacity parameters of the simulated NIC. Defaults approximate a
// ConnectX-6-class device; the per-system presets in src/core/system.cpp
// override them per testbed. Costs no testbed varies are the constants
// below.
#pragma once

#include <cstdint>

#include "sim/units.hpp"

namespace cord::nic {

/// NIC processing per send WQE (fetch, parse, schedule).
inline constexpr sim::Time kWqeProcessing = sim::ns(80);
/// NIC processing on the responder for an inbound message.
inline constexpr sim::Time kRxProcessing = sim::ns(80);
/// Writing a CQE back to host memory.
inline constexpr sim::Time kCqeWrite = sim::ns(100);
/// Handling an inbound ACK/NAK on the requester.
inline constexpr sim::Time kAckProcessing = sim::ns(50);
/// Path MTU; also the UD maximum message size.
inline constexpr std::uint32_t kMtu = 4096;
/// Per-packet header bytes charged on the wire (RoCE/IB headers).
inline constexpr std::uint32_t kHeaderBytes = 58;
/// ACK packet size on the wire.
inline constexpr std::uint32_t kAckBytes = 26;
/// Receiver-not-ready retry backoff and retry budget. The budget counts
/// retries after the first attempt (IB's rnr_retry), so an unanswered WR
/// is tried kRnrRetries + 1 times before it fails.
inline constexpr sim::Time kRnrTimer = sim::us(10);
inline constexpr std::uint32_t kRnrRetries = 8;
/// An ICM cache miss (NicConfig::icm_*_capacity): the host-memory context
/// fetch over PCIe.
inline constexpr sim::Time kIcmMissLatency = sim::ns(600);

struct NicConfig {
  /// PCIe DMA engine bandwidth (shared by reads and writes).
  sim::Bandwidth pcie_bandwidth = sim::Bandwidth::gbit_per_sec(128.0);
  /// Fixed initiation latency of a DMA transaction (first chunk only).
  sim::Time dma_latency = sim::ns(300);
  /// MMIO doorbell write to NIC starting to look at the WQE.
  sim::Time doorbell_latency = sim::ns(250);
  /// Raising an interrupt: NIC -> host IRQ handler entry.
  sim::Time interrupt_delivery = sim::ns(600);
  /// Largest inline payload the device accepts (0 disables inline).
  std::uint32_t max_inline = 220;
  /// On-NIC connection-context cache (ICM model, nic/icm.hpp): how many
  /// QP contexts and MR contexts fit on-die. 0 = unbounded (model off,
  /// nothing charged — the default, keeping existing scenarios
  /// byte-identical). When bounded, a miss charges kIcmMissLatency on
  /// the doorbell ring (QP context) or the WQE fetch (MR context) — the
  /// host-memory fetch over PCIe that produces the connection-count
  /// performance cliff.
  std::uint32_t icm_qp_capacity = 0;
  std::uint32_t icm_mr_capacity = 0;
};

}  // namespace cord::nic
