// The ibverbs-like public API — the "narrow waist" the paper interposes.
//
// A Context binds a process (a simulated core of a host, with a tenant id)
// to the RDMA stack in one of two dataplane modes:
//
//   kBypass — classical RDMA: post_send/post_recv/poll_cq run entirely in
//             user space and talk to the NIC through MMIO doorbells.
//   kCord   — the paper's converged dataplane: every data-plane verb is a
//             system call; the kernel runs its policy chain and then the
//             kernel-level driver performs the exact same NIC interaction.
//
// Control-plane verbs (object creation, connection) go through the kernel
// ioctl path in both modes, as in real RDMA.
//
// All verbs return Tasks because they consume simulated CPU time on the
// calling core.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "nic/nic.hpp"
#include "os/kernel.hpp"

namespace cord::verbs {

enum class DataplaneMode { kBypass, kCord };

struct ContextOptions {
  DataplaneMode mode = DataplaneMode::kBypass;
  /// CoRD only: route ibv_poll_cq through the kernel as well ("each
  /// data-plane operation goes through the kernel", §4). When false, the
  /// CQ is polled from user space (it lives in user-mapped memory) and
  /// only the posting verbs cross into the kernel.
  bool poll_via_kernel = true;
  /// CoRD only: whether the kernel data path supports inline sends. The
  /// paper's prototype lacks them on system A, which is what produces the
  /// bimodal small-message overhead of Fig. 5a.
  bool cord_inline_support = true;
  /// CoRD only: maximum back-to-back sends to one QP gathered into the
  /// context's submission ring before one batched kernel crossing flushes
  /// them (io_uring-style; Kernel::submit_send_batch). 1 (the default)
  /// keeps the classic one-syscall-per-op path, byte-identical to older
  /// builds. With tx_batch > 1 a buffered post_send returns 0 immediately;
  /// its real verdict is delivered at flush time (any verb that is not a
  /// send to the ring's QP — a poll, a receive post, a send to another
  /// QP, a flush(), or the ring filling up) as the flush's return value.
  std::uint32_t tx_batch = 1;
  os::TenantId tenant = 0;
};

class Context {
 public:
  Context(os::Host& host, std::size_t core_idx, ContextOptions opts = {})
      : host_(&host), core_(&host.core(core_idx)), opts_(opts) {}

  os::Host& host() { return *host_; }
  os::Core& core() { return *core_; }
  const ContextOptions& options() const { return opts_; }
  DataplaneMode mode() const { return opts_.mode; }
  nic::NodeId node() const { return host_->node(); }

  // --- Control plane ----------------------------------------------------
  sim::Task<nic::ProtectionDomainId> alloc_pd();
  sim::Task<const nic::MemoryRegion*> reg_mr(nic::ProtectionDomainId pd,
                                             void* addr, std::size_t len,
                                             std::uint32_t access);
  sim::Task<bool> dereg_mr(std::uint32_t lkey);
  sim::Task<nic::CompletionQueue*> create_cq(std::uint32_t capacity);
  sim::Task<nic::QueuePair*> create_qp(const nic::QpConfig& cfg);
  sim::Task<nic::SharedReceiveQueue*> create_srq(nic::ProtectionDomainId pd,
                                                 std::uint32_t capacity);
  /// RESET -> INIT -> RTR -> RTS in one call (the usual connection dance).
  sim::Task<int> connect_qp(nic::QueuePair& qp, nic::AddressHandle dest = {});
  sim::Task<> destroy_qp(nic::QueuePair& qp);

  // --- Data plane ---------------------------------------------------------
  sim::Task<int> post_send(nic::QueuePair& qp, nic::SendWr wr);
  sim::Task<int> post_recv(nic::QueuePair& qp, nic::RecvWr wr);
  sim::Task<int> post_srq_recv(nic::SharedReceiveQueue& srq, nic::RecvWr wr);
  sim::Task<std::size_t> poll_cq(nic::CompletionQueue& cq, std::span<nic::Cqe> out);
  /// True when poll_cq reads the CQ from user space with nothing to flush
  /// first, so a poll that finds the CQ empty does exactly what
  /// charge_poll_miss() does, plus a delay of what it returns.
  bool poll_miss_is_pure() const {
    return !batching() &&
           !(opts_.mode == DataplaneMode::kCord && opts_.poll_via_kernel);
  }
  /// The effects of one empty user-space poll_cq without its delay: counts
  /// the verb and charges the spin, returning the charged time. A parked
  /// poll loop (mpi::Endpoint::progress_until) replays misses with it.
  sim::Time charge_poll_miss() {
    ++dataplane_ops_;
    return core_->charge(os::kPollMiss, os::Work::kSpin);
  }

  // --- Batched submission (ContextOptions::tx_batch > 1, CoRD only) -----
  /// Flush the submission ring in a single kernel crossing. Flushing an
  /// empty ring is a strict no-op — no syscall is charged and no policy
  /// runs. Returns the first nonzero per-WR rc.
  sim::Task<int> flush();
  /// WRs currently gathered and not yet submitted.
  std::uint32_t pending() const {
    return static_cast<std::uint32_t>(ring_.size());
  }
  /// Post a burst of receives in one kernel crossing (CoRD batching); in
  /// bypass mode or with tx_batch == 1 it degrades to per-op posting.
  sim::Task<int> post_recv_burst(nic::QueuePair& qp,
                                 std::span<const nic::RecvWr> wrs);

  /// Busy-poll until one completion arrives (charges spin time — this is
  /// the polling pillar). Throws std::runtime_error when nothing completes
  /// within `timeout` of virtual time (a deadlocked workload).
  sim::Task<nic::Cqe> wait_one(nic::CompletionQueue& cq,
                               sim::Time timeout = sim::sec(30));
  /// Interrupt-driven completion wait (the "polling removed" path):
  /// arm the CQ, sleep, get woken by the IRQ, then harvest. Times out as
  /// wait_one does.
  sim::Task<nic::Cqe> wait_one_event(nic::CompletionQueue& cq,
                                     sim::Time timeout = sim::sec(30));

  /// Number of data-plane verbs issued through this context (replayed poll
  /// misses of loops parked on its core included).
  std::uint64_t dataplane_ops() const {
    core_->poll_group().catch_up();
    return dataplane_ops_;
  }

 private:
  bool batching() const {
    return opts_.mode == DataplaneMode::kCord && opts_.tx_batch > 1;
  }

  os::Host* host_;
  os::Core* core_;
  ContextOptions opts_;
  std::uint64_t dataplane_ops_ = 0;
  /// The gathered-but-unsubmitted sends (tx_batch > 1 only), all to
  /// ring_qp_: every verb but a send to ring_qp_ flushes the ring first,
  /// so one ring serves every QP of the context.
  nic::QueuePair* ring_qp_ = nullptr;
  std::vector<nic::SendWr> ring_;
};

}  // namespace cord::verbs
