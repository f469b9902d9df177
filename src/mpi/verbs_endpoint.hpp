// MPI endpoint over the verbs API — the architecture of real MPI-over-
// RDMA stacks (MVAPICH/Open MPI UCX):
//
//  * full mesh of RC queue pairs, one per peer, sharing one send CQ, one
//    recv CQ and one SRQ per rank;
//  * eager protocol for small messages: sender copies into a registered
//    bounce slot, receiver consumes SRQ slots and copies out (or buffers
//    unexpected);
//  * rendezvous for large messages: sender registers the user buffer
//    (registration cache) and sends an RTS; the receiver pulls the data
//    with one RDMA READ straight into the destination buffer (zero-copy)
//    and returns a FIN.
//
// Because every data-plane verb goes through the rank's verbs::Context,
// switching the whole MPI stack between bypass and CoRD is the one-line
// mode change the paper advertises.
#pragma once

#include <map>
#include <memory>
#include <set>

#include "mpi/endpoint.hpp"
#include "verbs/verbs.hpp"

namespace cord::mpi {

class VerbsEndpoint : public Endpoint {
 public:
  /// Messages up to this many bytes go eagerly through a bounce slot;
  /// larger ones by rendezvous.
  static constexpr std::size_t kEagerThreshold = 4096;

  /// `srq_slots` eager receive slots are pre-posted to the rank's SRQ.
  VerbsEndpoint(int rank, int world_size, verbs::Context ctx,
                std::uint32_t srq_slots);

  int rank() const override { return rank_; }
  int world_size() const override { return world_size_; }
  os::Core& core() override { return ctx_.core(); }
  verbs::Context& context() { return ctx_; }

  /// Allocate PD/CQs/SRQ/bounce buffers and pre-post the SRQ.
  sim::Task<> setup();
  /// Create and connect the RC queue pairs of one rank pair (both sides).
  static sim::Task<> wire(VerbsEndpoint& a, VerbsEndpoint& b);

  sim::Task<> send(int dst, int tag, std::span<const std::byte> data) override;
  sim::Task<bool> progress_once() override;

 private:
  struct WireHeader {
    std::uint32_t kind = 0;  // 0 eager, 1 rts, 2 fin
    std::int32_t tag = 0;
    std::uint64_t size = 0;
    std::uint64_t cookie = 0;
    std::uint64_t addr = 0;
    std::uint32_t rkey = 0;
    std::int32_t src = 0;  // sender rank, checked against the CQE's QP
  };
  static constexpr std::uint32_t kKindEager = 0;
  static constexpr std::uint32_t kKindRts = 1;
  static constexpr std::uint32_t kKindFin = 2;
  static constexpr std::uint64_t kSendWrBase = 1ull << 20;
  static constexpr std::uint64_t kReadWrBase = 1ull << 21;

  struct ReadInFlight {
    PostedRecv* pr = nullptr;
    int src = 0;
    std::uint64_t cookie = 0;
    std::uint64_t size = 0;
  };
  struct DeferredFin {
    int dst = 0;
    std::uint64_t cookie = 0;
  };

  sim::Task<> start_pull(PostedRecv& pr, const PendingRts& rts) override;
  bool can_park() const override;
  sim::Time charge_poll_miss() override { return ctx_.charge_poll_miss(); }
  sim::Task<bool> finish_progress(bool poll_recv) override;

  /// Eager bounce slots for outgoing messages.
  static constexpr std::uint32_t kSendSlots = 64;

  static constexpr std::size_t slot_size() {
    return kEagerThreshold + sizeof(WireHeader);
  }
  std::byte* send_slot(std::uint32_t s) { return send_arena_.data() + s * slot_size(); }
  std::byte* recv_slot(std::uint32_t s) { return recv_arena_.data() + s * slot_size(); }

  sim::Task<std::uint32_t> acquire_slot();
  sim::Task<> post_with_retry(nic::QueuePair& qp, nic::SendWr wr);
  sim::Task<const nic::MemoryRegion*> get_mr(const void* p, std::size_t len);
  /// Post an eager-protocol control/payload message from a bounce slot.
  sim::Task<> post_slot_message(int dst, const WireHeader& hdr,
                                std::span<const std::byte> payload);
  sim::Task<> flush_deferred_fins();

  int rank_;
  int world_size_;
  verbs::Context ctx_;
  std::uint32_t srq_slots_;

  nic::ProtectionDomainId pd_ = 0;
  nic::CompletionQueue* scq_ = nullptr;
  nic::CompletionQueue* rcq_ = nullptr;
  nic::SharedReceiveQueue* srq_ = nullptr;
  std::vector<nic::QueuePair*> qps_;  // by peer rank

  std::vector<std::byte> send_arena_;
  std::vector<std::byte> recv_arena_;
  const nic::MemoryRegion* send_mr_ = nullptr;
  const nic::MemoryRegion* recv_mr_ = nullptr;
  std::deque<std::uint32_t> free_slots_;

  std::map<std::pair<std::uintptr_t, std::size_t>, const nic::MemoryRegion*>
      mr_cache_;
  std::map<std::uint64_t, ReadInFlight> reads_;  // wr_id -> read
  std::set<std::uint64_t> awaiting_fin_;
  std::deque<DeferredFin> deferred_fins_;
  std::uint64_t next_cookie_ = 1;
  std::uint64_t next_read_wr_ = kReadWrBase;
};

}  // namespace cord::mpi
