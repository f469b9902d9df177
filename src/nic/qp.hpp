// Queue pair: the communication endpoint. Holds the send/receive rings,
// the connection state machine (RESET -> INIT -> RTR -> RTS -> ERROR) and
// per-QP traffic counters (exported to the kernel for observability — one
// of the OS-control features CoRD enables).
#pragma once

#include <cstdint>
#include <deque>

#include "nic/cq.hpp"
#include "nic/srq.hpp"
#include "nic/types.hpp"

namespace cord::nic {

struct QpCounters {
  std::uint64_t tx_msgs = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_msgs = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t rnr_events = 0;
  std::uint64_t errors = 0;
};

struct QpConfig {
  QpType type = QpType::kRC;
  ProtectionDomainId pd = 0;
  CompletionQueue* send_cq = nullptr;
  CompletionQueue* recv_cq = nullptr;
  std::uint32_t sq_depth = 128;
  std::uint32_t rq_depth = 512;
  std::uint32_t max_inline = 0;
  /// When set, inbound messages consume WQEs from this shared receive
  /// queue instead of the per-QP RQ (post_recv is then invalid).
  SharedReceiveQueue* srq = nullptr;
};

class QueuePair {
 public:
  QueuePair(std::uint32_t qpn, const QpConfig& cfg) : qpn_(qpn), cfg_(cfg) {}

  std::uint32_t qpn() const { return qpn_; }
  const QpConfig& config() const { return cfg_; }
  QpType type() const { return cfg_.type; }
  QpState state() const { return state_; }
  ProtectionDomainId pd() const { return cfg_.pd; }
  CompletionQueue& send_cq() const { return *cfg_.send_cq; }
  CompletionQueue& recv_cq() const { return *cfg_.recv_cq; }

  /// RC peer (valid once RTR).
  const AddressHandle& dest() const { return dest_; }

  QpCounters& counters() { return counters_; }
  const QpCounters& counters() const { return counters_; }

 private:
  friend class Nic;

  std::uint32_t qpn_;
  QpConfig cfg_;
  QpState state_ = QpState::kReset;
  AddressHandle dest_;

  std::deque<SendWr> sq_;
  std::deque<RecvWr> rq_;
  /// Send WQEs handed to the device but not yet completed (occupies SQ
  /// credits until the CQE is generated).
  std::uint32_t sq_inflight_ = 0;
  bool sq_drain_active_ = false;

  QpCounters counters_;
};

}  // namespace cord::nic
