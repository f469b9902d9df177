// Massive-tenancy scenarios: connection scaling and noisy-neighbor
// isolation (the paper's §2 scalability argument made runnable).
//
//   run_conn_scale      — one client host holding N logical connections to
//                         one server, issuing RDMA writes round-robin.
//                         Exclusive mode pins one QP (and one MR) context
//                         per connection on the NIC; once N outgrows the
//                         ICM cache (nic/icm.hpp) every doorbell and WQE
//                         fetch pays a host-memory context fetch — the
//                         connection-count latency cliff. Shared mode
//                         (DCT/RDMAvisor-style) multiplexes the logical
//                         connections onto a fixed physical pool, which
//                         bounds the context working set and host memory.
//
//   run_noisy_neighbor  — V victim tenants ping a quiet host while an
//                         attacker tenant on the same NIC floods doorbells
//                         (deep windows over many QPs, thrashing the ICM
//                         cache) and churns MR registrations. In bypass
//                         mode the kernel never sees the data plane, so no
//                         policy can protect the victims; in CoRD mode the
//                         policy chain (QosTokenBucket + OpRateQuota +
//                         RegistrationQuota + SecurityAcl) paces the
//                         attacker and restores the victims' tail latency.
#pragma once

#include <cstdint>

#include "core/system.hpp"
#include "sim/stats.hpp"

namespace cord::perftest {

/// Exclusive: one physical QP per logical connection (classic RC).
/// Shared: logical connections map round-robin onto a bounded QP pool.
enum class ConnMode : std::uint8_t { kExclusive, kShared };

/// The entire per-connection state in shared mode: 4 bytes, so a million
/// logical connections cost 4 MB of host memory and no NIC context
/// beyond the fixed pool.
struct LogicalConn {
  std::uint32_t phys = 0;  ///< index of the backing physical QP
};

struct ScaleParams {
  /// Logical connections from client (host 0) to server (host 1).
  std::size_t connections = 1024;
  ConnMode conn_mode = ConnMode::kExclusive;
  std::uint32_t shared_qp_pool = 64;
  /// On-NIC context-cache capacities (0 = unbounded, the model off).
  std::uint32_t icm_qp_capacity = 0;
  std::uint32_t icm_mr_capacity = 0;
  /// 64-byte RDMA writes issued round-robin across the connections.
  std::size_t ops = 20000;
  /// Outstanding-operation window (must not exceed `connections`).
  std::uint32_t window = 16;
  /// Issue through the CoRD kernel dataplane instead of bypass.
  bool cord = false;
};

struct ScaleResult {
  /// Per-operation post-to-completion latency in microseconds.
  sim::Samples latency_us;
  double avg_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// Client-NIC ICM cache counters for the run.
  std::uint64_t icm_qp_hits = 0, icm_qp_misses = 0, icm_qp_evictions = 0;
  std::uint64_t icm_mr_hits = 0, icm_mr_misses = 0, icm_mr_evictions = 0;
  /// Physical QPs actually created client-side, and the bytes of
  /// per-logical-connection descriptor state (the memory bounded by
  /// shared mode).
  std::size_t physical_qps = 0;
  std::size_t conn_table_bytes = 0;
  std::uint64_t clamped_events = 0;
};

ScaleResult run_conn_scale(const core::SystemConfig& cfg, const ScaleParams& p);

struct NoisyParams {
  /// Victim tenants (tenant ids 1..victims, one core each on host 0),
  /// each pinging host 1 with small signaled RDMA writes.
  std::size_t victims = 4;
  std::size_t victim_pings = 300;
  /// Attacker tenant (id victims+1) floods host 2 over this many QPs —
  /// sized past icm_qp_capacity so every attacker doorbell misses and
  /// evicts victim contexts.
  std::size_t attacker_qps = 768;
  /// Attacker runs until this virtual time (victims finish by count).
  sim::Time duration = sim::ms(5);
  /// On-NIC context-cache capacities for every NIC in the system.
  std::uint32_t icm_qp_capacity = 512;
  std::uint32_t icm_mr_capacity = 512;
  /// Dataplane mode for all tenants: bypass (policies can't touch the
  /// data plane) or CoRD (every verb crosses the policy chain).
  bool cord = false;
  /// Install the isolation chain on host 0's kernel.
  bool policies = false;
};

struct NoisyResult {
  /// Victim ping completion times (all victims pooled), microseconds.
  sim::Samples victim_us;
  double victim_avg_us = 0.0;
  double victim_p50_us = 0.0;
  double victim_p99_us = 0.0;
  /// Attacker progress: completed writes, denied posts (policy -EAGAIN),
  /// completed and denied MR registrations.
  std::uint64_t attacker_ops = 0;
  std::uint64_t attacker_denied = 0;
  std::uint64_t attacker_regs = 0;
  std::uint64_t attacker_reg_denied = 0;
  /// Host-0 NIC ICM counters (shared between victims and attacker).
  std::uint64_t icm_qp_misses = 0;
  std::uint64_t icm_qp_evictions = 0;
  std::uint64_t clamped_events = 0;
};

NoisyResult run_noisy_neighbor(const core::SystemConfig& cfg,
                               const NoisyParams& p);

}  // namespace cord::perftest
