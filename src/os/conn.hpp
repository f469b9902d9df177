// Connection-endpoint modes: exclusive (one physical QP per logical
// connection — classic RC) vs shared (DCT/RDMAvisor-style multiplexing:
// many logical connections ride a bounded pool of physical QPs).
//
// The exclusive model is what makes RDMA fall off a cliff at scale:
// every connection pins a QP context on the NIC, and once the working
// set outgrows the on-NIC ICM cache (nic/icm.hpp) each doorbell pays a
// host-memory context fetch. The shared model bounds the physical-QP
// count — and with it the NIC context working set and the host memory —
// at the cost of multiplexing logical connections onto shared send
// queues. CoRD makes this natural to deploy: the kernel already owns the
// dataplane, so the mapping from logical connection to physical QP can
// live below the verbs API without application cooperation.
#pragma once

#include <cstdint>
#include <vector>

#include "nic/cq.hpp"
#include "nic/qp.hpp"
#include "os/kernel.hpp"

namespace cord::os {

enum class ConnMode : std::uint8_t { kExclusive, kShared };

/// Per-host connection multiplexer. Owns the physical QPs (and one
/// completion queue they share) plus the logical-connection table; the
/// data plane asks `physical(conn)` for the QP backing a logical
/// connection and posts on it through the usual verbs/kernel paths.
///
/// Control-plane setup (wire()) manipulates NIC state directly, like
/// System construction does: establishment cost is out of scope for the
/// scale scenarios this backs — the subject is the steady-state cost of
/// *holding* N connections.
class ConnectionService {
 public:
  using ConnId = std::uint32_t;

  /// The entire per-connection state in shared mode — 16 bytes. This is
  /// the boundedness claim made quantitative: a million logical
  /// connections cost ~16 MB of host memory and zero additional NIC
  /// contexts beyond the fixed pool.
  struct LogicalConn {
    nic::NodeId dst = 0;        ///< destination host
    std::uint32_t phys = 0;     ///< index into this service's QP list
    std::uint64_t ops = 0;      ///< posts mapped through this connection
  };

  ConnectionService(Host& host, ConnMode mode, std::uint32_t pool_size);

  ConnMode mode() const { return mode_; }
  Host& host() { return *host_; }
  nic::CompletionQueue& cq() { return *cq_; }
  nic::ProtectionDomainId pd() const { return pd_; }

  /// Physical QP backing logical connection `c`; counts the mapping.
  nic::QueuePair& physical(ConnId c) {
    LogicalConn& lc = logical_[c];
    ++lc.ops;
    return *qps_[lc.phys];
  }
  const LogicalConn& conn(ConnId c) const { return logical_[c]; }

  std::size_t physical_count() const { return qps_.size(); }
  /// Bytes of per-connection descriptor state (the memory that scales
  /// with the logical connection count).
  std::size_t conn_table_bytes() const {
    return logical_.size() * sizeof(LogicalConn);
  }

  /// Establish `logical` connections from `a` to `b` (both directions are
  /// wired so either side could transmit). Exclusive mode creates one
  /// connected QP pair per logical connection; shared mode creates
  /// min(pool_size, logical) pairs and maps logical connections onto them
  /// round-robin. Both services must use the same mode.
  static void wire(ConnectionService& a, ConnectionService& b,
                   std::size_t logical);

 private:
  Host* host_;
  ConnMode mode_;
  std::uint32_t pool_size_;
  nic::ProtectionDomainId pd_ = 0;
  nic::CompletionQueue* cq_ = nullptr;
  std::vector<nic::QueuePair*> qps_;
  std::vector<LogicalConn> logical_;
};

}  // namespace cord::os
