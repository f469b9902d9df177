#include "mpi/verbs_endpoint.hpp"

#include <cstring>

namespace cord::mpi {

namespace {
std::uintptr_t uptr(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }
}  // namespace

VerbsEndpoint::VerbsEndpoint(int rank, int world_size, verbs::Context ctx,
                             std::uint32_t srq_slots)
    : rank_(rank),
      world_size_(world_size),
      ctx_(std::move(ctx)),
      srq_slots_(srq_slots) {
  qps_.resize(world_size_, nullptr);
}

sim::Task<> VerbsEndpoint::setup() {
  pd_ = co_await ctx_.alloc_pd();
  const std::uint32_t cq_cap = 4 * (srq_slots_ + kSendSlots) + 1024;
  scq_ = co_await ctx_.create_cq(cq_cap);
  rcq_ = co_await ctx_.create_cq(cq_cap);
  scq_->watch_pushes(&activity_, core().poll_group());
  rcq_->watch_pushes(&activity_, core().poll_group());
  srq_ = co_await ctx_.create_srq(pd_, srq_slots_);

  send_arena_.resize(kSendSlots * slot_size());
  recv_arena_.resize(srq_slots_ * slot_size());
  send_mr_ = co_await ctx_.reg_mr(pd_, send_arena_.data(), send_arena_.size(),
                                  nic::kAccessLocalWrite);
  recv_mr_ = co_await ctx_.reg_mr(pd_, recv_arena_.data(), recv_arena_.size(),
                                  nic::kAccessLocalWrite);
  for (std::uint32_t s = 0; s < kSendSlots; ++s) free_slots_.push_back(s);
  for (std::uint32_t s = 0; s < srq_slots_; ++s) {
    const int rc = co_await ctx_.post_srq_recv(
        *srq_, {s, {uptr(recv_slot(s)), static_cast<std::uint32_t>(slot_size()),
                    recv_mr_->lkey}});
    if (rc != 0) throw std::runtime_error("SRQ prefill failed");
  }
}

sim::Task<> VerbsEndpoint::wire(VerbsEndpoint& a, VerbsEndpoint& b) {
  const nic::QpConfig qc_a{nic::QpType::kRC, a.pd_,  a.scq_, a.rcq_,
                           256,              0,      220,    a.srq_};
  const nic::QpConfig qc_b{nic::QpType::kRC, b.pd_,  b.scq_, b.rcq_,
                           256,              0,      220,    b.srq_};
  nic::QueuePair* qa = co_await a.ctx_.create_qp(qc_a);
  nic::QueuePair* qb = co_await b.ctx_.create_qp(qc_b);
  if (qa == nullptr || qb == nullptr) throw std::runtime_error("create_qp failed");
  int rc = co_await a.ctx_.connect_qp(*qa, {b.ctx_.node(), qb->qpn()});
  if (rc != 0) throw std::runtime_error("wire: connect a failed");
  rc = co_await b.ctx_.connect_qp(*qb, {a.ctx_.node(), qa->qpn()});
  if (rc != 0) throw std::runtime_error("wire: connect b failed");
  a.qps_[b.rank_] = qa;
  b.qps_[a.rank_] = qb;
}

sim::Task<std::uint32_t> VerbsEndpoint::acquire_slot() {
  co_await progress_until([&] { return !free_slots_.empty(); }, "acquire_slot");
  const std::uint32_t s = free_slots_.front();
  free_slots_.pop_front();
  co_return s;
}

sim::Task<> VerbsEndpoint::post_with_retry(nic::QueuePair& qp, nic::SendWr wr) {
  for (;;) {
    const int rc = co_await ctx_.post_send(qp, wr);
    if (rc == 0) co_return;
    if (rc != nic::kErrQueueFull) {
      throw std::runtime_error("MPI post_send failed");
    }
    (void)co_await progress_once();  // drain completions to free SQ credits
  }
}

sim::Task<const nic::MemoryRegion*> VerbsEndpoint::get_mr(const void* p,
                                                          std::size_t len) {
  const auto key = std::make_pair(uptr(p), len);
  auto it = mr_cache_.find(key);
  if (it != mr_cache_.end()) co_return it->second;
  const nic::MemoryRegion* mr = co_await ctx_.reg_mr(
      pd_, const_cast<void*>(p), len,
      nic::kAccessLocalWrite | nic::kAccessRemoteRead | nic::kAccessRemoteWrite);
  mr_cache_[key] = mr;
  co_return mr;
}

sim::Task<> VerbsEndpoint::post_slot_message(int dst, const WireHeader& hdr,
                                             std::span<const std::byte> payload) {
  const std::uint32_t slot = co_await acquire_slot();
  std::byte* buf = send_slot(slot);
  std::memcpy(buf, &hdr, sizeof(WireHeader));
  if (!payload.empty()) {
    std::memcpy(buf + sizeof(WireHeader), payload.data(), payload.size());
    // The eager sender-side copy into the bounce buffer.
    co_await core().work(core().memcpy_time(payload.size()), os::Work::kCompute);
  }
  const auto total = static_cast<std::uint32_t>(sizeof(WireHeader) + payload.size());
  nic::SendWr wr;
  wr.wr_id = kSendWrBase + slot;
  wr.opcode = nic::Opcode::kSend;
  wr.sge = {uptr(buf), total, send_mr_->lkey};
  wr.inline_data = total <= qps_[dst]->config().max_inline;
  co_await post_with_retry(*qps_[dst], std::move(wr));
}

sim::Task<> VerbsEndpoint::send(int dst, int tag, std::span<const std::byte> data) {
  if (dst == rank_) {
    // Self-sends do not touch the network (MPI implementations shortcut
    // them in memory even with shared memory disabled).
    deliver_eager(rank_, tag, data);
    co_await core().work(core().memcpy_time(data.size()), os::Work::kCompute);
    co_return;
  }
  if (data.size() <= kEagerThreshold) {
    WireHeader hdr{kKindEager, tag, data.size(), 0, 0, 0, rank_};
    co_await post_slot_message(dst, hdr, data);
    co_return;
  }
  // Rendezvous.
  const nic::MemoryRegion* mr = co_await get_mr(data.data(), data.size());
  const std::uint64_t cookie = next_cookie_++;
  awaiting_fin_.insert(cookie);
  WireHeader hdr{kKindRts, tag, data.size(), cookie, uptr(data.data()),
                 mr->rkey, rank_};
  co_await post_slot_message(dst, hdr, {});
  co_await progress_until([&] { return !awaiting_fin_.contains(cookie); },
                          "rendezvous FIN");
}

sim::Task<> VerbsEndpoint::start_pull(PostedRecv& pr, const PendingRts& rts) {
  const PendingRts info = rts;  // before the first suspension
  const nic::MemoryRegion* mr = co_await get_mr(pr.out.data(), pr.out.size());
  const std::uint64_t wr_id = next_read_wr_++;
  reads_[wr_id] = ReadInFlight{&pr, info.src, info.cookie, info.size};
  nic::SendWr wr;
  wr.wr_id = wr_id;
  wr.opcode = nic::Opcode::kRdmaRead;
  wr.sge = {uptr(pr.out.data()), static_cast<std::uint32_t>(info.size), mr->lkey};
  wr.remote_addr = info.addr;
  wr.rkey = info.rkey;
  co_await post_with_retry(*qps_[info.src], std::move(wr));
}

sim::Task<> VerbsEndpoint::flush_deferred_fins() {
  while (!deferred_fins_.empty() && !free_slots_.empty()) {
    const DeferredFin fin = deferred_fins_.front();
    deferred_fins_.pop_front();
    WireHeader hdr{kKindFin, 0, 0, fin.cookie, 0, 0, rank_};
    co_await post_slot_message(fin.dst, hdr, {});
  }
}

sim::Task<bool> VerbsEndpoint::progress_once() {
  std::array<nic::Cqe, 16> wc;

  // Send-side completions: free bounce slots, finish rendezvous reads.
  std::size_t n = co_await ctx_.poll_cq(*scq_, wc);
  for (std::size_t i = 0; i < n; ++i) {
    // A harvested CQE changes this endpoint's state only now, a poll
    // charge after its push moved activity_: move it again so a loop that
    // parked in between re-checks.
    move_activity();
    const nic::Cqe& c = wc[i];
    if (c.status != nic::WcStatus::kSuccess) {
      throw std::runtime_error(std::string("MPI send completion error: ") +
                               std::string(nic::to_string(c.status)));
    }
    if (c.wr_id >= kReadWrBase) {
      auto it = reads_.find(c.wr_id);
      if (it == reads_.end()) throw std::runtime_error("unknown read completion");
      ReadInFlight r = it->second;
      reads_.erase(it);
      r.pr->got = r.size;
      r.pr->done = true;
      deferred_fins_.push_back({r.src, r.cookie});
    } else {
      free_slots_.push_back(static_cast<std::uint32_t>(c.wr_id - kSendWrBase));
    }
  }

  const bool recv_any = co_await finish_progress(true);
  co_return n > 0 || recv_any;
}

bool VerbsEndpoint::can_park() const {
  // An empty progress_once must have no effect but its two reads: both CQs
  // empty, no copy cost to charge and no deferred FIN that could go out.
  return ctx_.poll_miss_is_pure() && scq_->depth() == 0 &&
         rcq_->depth() == 0 && pending_copy_cost_ == 0 &&
         (deferred_fins_.empty() || free_slots_.empty());
}

sim::Task<bool> VerbsEndpoint::finish_progress(bool poll_recv) {
  std::array<nic::Cqe, 16> wc;

  // Receive-side completions: parse eager/RTS/FIN, repost SRQ slots.
  const std::size_t m = poll_recv ? co_await ctx_.poll_cq(*rcq_, wc) : 0;
  for (std::size_t i = 0; i < m; ++i) {
    move_activity();  // as for send completions
    const nic::Cqe& c = wc[i];
    if (c.status != nic::WcStatus::kSuccess) {
      throw std::runtime_error(std::string("MPI recv completion error: ") +
                               std::string(nic::to_string(c.status)));
    }
    const auto slot = static_cast<std::uint32_t>(c.wr_id);
    const std::byte* buf = recv_slot(slot);
    WireHeader hdr;
    std::memcpy(&hdr, buf, sizeof(WireHeader));
    // The header names the sender; its QP to us must be the CQE's.
    const int src = hdr.src;
    if (src < 0 || src >= world_size_ || qps_[src] == nullptr ||
        qps_[src]->qpn() != c.qp_num) {
      throw std::runtime_error("unknown QP");
    }
    switch (hdr.kind) {
      case kKindEager:
        deliver_eager(src, hdr.tag,
                      {buf + sizeof(WireHeader), static_cast<std::size_t>(hdr.size)});
        break;
      case kKindRts: {
        const PendingRts rts{src, hdr.tag, hdr.size, hdr.cookie, hdr.addr,
                             hdr.rkey};
        PostedRecv* pr = deliver_rts(rts);
        if (pr != nullptr) co_await start_pull(*pr, rts);
        break;
      }
      case kKindFin:
        awaiting_fin_.erase(hdr.cookie);
        break;
      default:
        throw std::runtime_error("corrupt MPI wire header");
    }
    const int rc = co_await ctx_.post_srq_recv(
        *srq_, {slot, {uptr(recv_slot(slot)),
                       static_cast<std::uint32_t>(slot_size()), recv_mr_->lkey}});
    if (rc != 0) throw std::runtime_error("SRQ repost failed");
  }

  // Charge the receive-side copies accrued by deliver_eager.
  if (pending_copy_cost_ > 0) {
    const sim::Time cost = pending_copy_cost_;
    pending_copy_cost_ = 0;
    co_await core().work(cost, os::Work::kCompute);
  }
  co_await flush_deferred_fins();
  co_return m > 0;
}

}  // namespace cord::mpi
