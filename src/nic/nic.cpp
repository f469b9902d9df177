#include "nic/nic.hpp"

#include <algorithm>
#include <cstring>

#include "nic/segment.hpp"
#include "trace/trace.hpp"

namespace cord::nic {

std::string_view to_string(WcStatus s) {
  switch (s) {
    case WcStatus::kSuccess: return "success";
    case WcStatus::kLocalLengthError: return "local-length-error";
    case WcStatus::kLocalProtectionError: return "local-protection-error";
    case WcStatus::kRemoteAccessError: return "remote-access-error";
    case WcStatus::kRemoteInvalidRequest: return "remote-invalid-request";
    case WcStatus::kRnrRetryExceeded: return "rnr-retry-exceeded";
    case WcStatus::kWorkRequestFlushed: return "work-request-flushed";
  }
  return "unknown";
}

std::string_view to_string(Opcode op) {
  switch (op) {
    case Opcode::kSend: return "send";
    case Opcode::kSendWithImm: return "send-imm";
    case Opcode::kRdmaWrite: return "rdma-write";
    case Opcode::kRdmaWriteWithImm: return "rdma-write-imm";
    case Opcode::kRdmaRead: return "rdma-read";
    case Opcode::kFetchAdd: return "fetch-add";
    case Opcode::kCompareSwap: return "compare-swap";
  }
  return "unknown";
}

namespace {

WcOpcode wc_opcode(Opcode op) {
  switch (op) {
    case Opcode::kSend:
    case Opcode::kSendWithImm:
      return WcOpcode::kSend;
    case Opcode::kRdmaWrite:
    case Opcode::kRdmaWriteWithImm:
      return WcOpcode::kRdmaWrite;
    case Opcode::kRdmaRead:
      return WcOpcode::kRdmaRead;
    case Opcode::kFetchAdd:
      return WcOpcode::kFetchAdd;
    case Opcode::kCompareSwap:
      return WcOpcode::kCompareSwap;
  }
  return WcOpcode::kSend;
}

/// The MR access an inbound request needs at the responder (a send needs
/// none: it lands in a receive WQE).
std::uint32_t remote_access(Opcode op) {
  switch (op) {
    case Opcode::kSend:
    case Opcode::kSendWithImm:
      return kAccessNone;
    case Opcode::kRdmaWrite:
    case Opcode::kRdmaWriteWithImm:
      return kAccessRemoteWrite;
    case Opcode::kRdmaRead:
      return kAccessRemoteRead;
    case Opcode::kFetchAdd:
    case Opcode::kCompareSwap:
      return kAccessRemoteAtomic;
  }
  return kAccessNone;
}

std::uint64_t payload_len(const SendWr& wr) {
  return wr.inline_data ? wr.inline_payload.size() : wr.sge.length;
}

const std::byte* payload_ptr(const SendWr& wr) {
  return wr.inline_data ? wr.inline_payload.data()
                        : reinterpret_cast<const std::byte*>(wr.sge.addr);
}

}  // namespace

void NicRegistry::add(Nic& nic) {
  if (nic.node() >= nics_.size()) nics_.resize(nic.node() + 1, nullptr);
  nics_[nic.node()] = &nic;
}

Nic::Nic(sim::Engine& engine, fabric::Network& network, NicRegistry& registry,
         NodeId node, const NicConfig& cfg)
    : engine_(&engine),
      network_(&network),
      registry_(&registry),
      node_(node),
      cfg_(cfg),
      processing_(engine),
      dma_rd_(engine),
      dma_wr_(engine),
      icm_qp_(cfg.icm_qp_capacity),
      icm_mr_(cfg.icm_mr_capacity) {
  registry.add(*this);
}

CompletionQueue* Nic::create_cq(std::uint32_t capacity) {
  const std::uint32_t cqn = kFirstCqn + static_cast<std::uint32_t>(cqs_.size());
  cqs_.push_back(sim::make_slab<CompletionQueue>(cqn, capacity));
  return cqs_.back().get();
}

QueuePair* Nic::create_qp(const QpConfig& cfg) {
  if (cfg.send_cq == nullptr || cfg.recv_cq == nullptr) return nullptr;
  const std::uint32_t qpn = kFirstQpn + static_cast<std::uint32_t>(qps_.size());
  QpConfig clamped = cfg;
  // The device caps the inline size it accepts (ibv_create_qp adjusts
  // cap.max_inline_data the same way).
  clamped.max_inline = std::min(clamped.max_inline, cfg_.max_inline);
  qps_.push_back(sim::make_slab<QueuePair>(qpn, clamped));
  return qps_.back().get();
}

void Nic::destroy_qp(std::uint32_t qpn) {
  const std::uint32_t idx = qpn - kFirstQpn;
  if (idx < qps_.size()) qps_[idx].reset();
  icm_qp_.erase(qpn);
}

SharedReceiveQueue* Nic::create_srq(ProtectionDomainId pd, std::uint32_t capacity) {
  const std::uint32_t srqn = kFirstSrqn + static_cast<std::uint32_t>(srqs_.size());
  srqs_.push_back(sim::make_slab<SharedReceiveQueue>(srqn, pd, capacity));
  return srqs_.back().get();
}

int Nic::post_srq_recv(SharedReceiveQueue& srq, RecvWr wr) {
  if (srq.wqes_.size() >= srq.capacity()) return kErrQueueFull;
  if (wr.sge.length > 0 &&
      mrs_.check_local(wr.sge, srq.pd(), /*needs_local_write=*/true) == nullptr) {
    return kErrInvalid;
  }
  srq.wqes_.push_back(wr);
  return kOk;
}

int Nic::modify_qp(QueuePair& qp, QpState target, AddressHandle dest) {
  switch (target) {
    case QpState::kReset:
      qp.state_ = QpState::kReset;
      qp.sq_.clear();
      qp.rq_.clear();
      qp.sq_inflight_ = 0;
      return kOk;
    case QpState::kInit:
      if (qp.state_ != QpState::kReset) return kErrState;
      qp.state_ = QpState::kInit;
      return kOk;
    case QpState::kRtr:
      if (qp.state_ != QpState::kInit) return kErrState;
      if (qp.type() == QpType::kRC) {
        if (registry_->find(dest.node) == nullptr) return kErrInvalid;
        qp.dest_ = dest;
      }
      qp.state_ = QpState::kRtr;
      return kOk;
    case QpState::kRts:
      if (qp.state_ != QpState::kRtr) return kErrState;
      qp.state_ = QpState::kRts;
      return kOk;
    case QpState::kError:
      qp_set_error(qp);
      return kOk;
  }
  return kErrInvalid;
}

void Nic::qp_set_error(QueuePair& qp) { qp_set_error(qp, engine_->now()); }

void Nic::qp_set_error(QueuePair& qp, sim::Time error_at) {
  if (qp.state_ == QpState::kError) return;
  qp.state_ = QpState::kError;
  qp.counters_.errors++;
  const sim::Time at = error_at + kCqeWrite;
  // Coalesced flush: every flushed CQE shares one timestamp and the
  // registrations below used to be consecutive seq numbers from one
  // synchronous loop — no foreign event could interleave between them —
  // so folding them into a single engine event preserves the observable
  // CQ contents at every point in virtual time while cutting the flush
  // of a deep queue from O(depth) events to one.
  std::vector<std::pair<CompletionQueue*, Cqe>> flush;
  flush.reserve(qp.rq_.size() + qp.sq_.size());
  for (const RecvWr& rwr : qp.rq_) {
    flush.emplace_back(&qp.recv_cq(),
                       Cqe{rwr.wr_id, WcStatus::kWorkRequestFlushed,
                           WcOpcode::kRecv, 0, qp.qpn(), 0, 0, false});
  }
  qp.rq_.clear();
  for (const SendWr& swr : qp.sq_) {
    flush.emplace_back(&qp.send_cq(),
                       Cqe{swr.wr_id, WcStatus::kWorkRequestFlushed,
                           wc_opcode(swr.opcode), 0, qp.qpn(), 0, 0, false});
  }
  qp.sq_.clear();
  if (flush.empty()) return;
  counters_.cqe_flush_batches++;
  counters_.cqe_flushed += flush.size();
  engine_->call_at(at, [flush = std::move(flush)] {
    for (const auto& [cq, cqe] : flush) cq->push(cqe);
  });
}

int Nic::post_send(QueuePair& qp, SendWr wr) {
  if (qp.state_ != QpState::kRts) return kErrState;
  if (qp.sq_.size() + qp.sq_inflight_ >= qp.config().sq_depth) return kErrQueueFull;
  const bool is_atomic =
      wr.opcode == Opcode::kFetchAdd || wr.opcode == Opcode::kCompareSwap;
  if (qp.type() == QpType::kUD) {
    if (wr.opcode != Opcode::kSend && wr.opcode != Opcode::kSendWithImm)
      return kErrInvalid;
    if (wr.sge.length > kMtu) return kErrInvalid;
    if (registry_->find(wr.ud.node) == nullptr) return kErrInvalid;
  }
  if (is_atomic) {
    // Atomics operate on exactly 8 remote bytes, naturally aligned.
    if (wr.sge.length != 8 || wr.remote_addr % 8 != 0) return kErrInvalid;
    if (wr.inline_data) return kErrInvalid;
  }
  if (wr.inline_data) {
    if (wr.sge.length > qp.config().max_inline) return kErrInvalid;
    if (wr.opcode == Opcode::kRdmaRead) return kErrInvalid;
    wr.inline_payload.assign(mem(wr.sge.addr), mem(wr.sge.addr) + wr.sge.length);
  }
  if (trace::Tracer* tr = engine_->tracer()) [[unlikely]] {
    tr->record(trace::Point::kWqePost, wr.trace_span, qp.qpn(), 0,
               static_cast<std::uint8_t>(node_), payload_len(wr));
  }
  const std::uint32_t span = wr.trace_span;
  qp.sq_.push_back(std::move(wr));
  kick(qp, span);
  return kOk;
}

int Nic::post_recv(QueuePair& qp, RecvWr wr) {
  if (qp.config().srq != nullptr) return kErrInvalid;  // use post_srq_recv
  if (qp.state_ == QpState::kReset || qp.state_ == QpState::kError)
    return kErrState;
  if (qp.rq_.size() >= qp.config().rq_depth) return kErrQueueFull;
  if (wr.sge.length > 0 &&
      mrs_.check_local(wr.sge, qp.pd(), /*needs_local_write=*/true) == nullptr) {
    return kErrInvalid;
  }
  qp.rq_.push_back(wr);
  return kOk;
}

void Nic::kick(QueuePair& qp, std::uint32_t trace_span) {
  if (qp.sq_drain_active_) {
    // The SQ drain is already active on this queue: the post rides the
    // in-flight burst and no doorbell write (or engine event) is modeled.
    counters_.doorbells_coalesced++;
    return;
  }
  counters_.doorbells++;
  qp.sq_drain_active_ = true;
  // The doorbell makes the device look up the QP context; if it is not
  // resident in the on-NIC ICM cache, the device stalls for a host-memory
  // fetch before it can schedule the SQ (the connection-count cliff).
  const sim::Time db = cfg_.doorbell_latency +
                       (icm_qp_.touch(qp.qpn()) ? 0 : kIcmMissLatency);
  if (trace::Tracer* tr = engine_->tracer()) [[unlikely]] {
    tr->record(trace::Point::kDoorbell, trace_span, qp.qpn(), 0,
               static_cast<std::uint8_t>(node_), 0, db);
  }
  engine_->call_in(db, [this, qpn = qp.qpn()] {
    if (find_qp(qpn) != nullptr) {
      counters_.sq_bursts++;
      sq_resume(qpn);
    }
  });
}

void Nic::sq_resume(std::uint32_t qpn) {
  QueuePair* qp = find_qp(qpn);
  if (qp == nullptr) return;
  if (qp->state_ != QpState::kRts || qp->sq_.empty()) {
    qp->sq_drain_active_ = false;
    return;
  }
  sq_drain_burst(*qp);
}

void Nic::sq_drain_burst(QueuePair& qp) {
  // One event for the whole burst: WQE k's pipeline slot is reserved once
  // WQE k-1's is known, so slot k ends at f_k = max(now, next_free) +
  // the widths of slots 1..k. Each WQE's downstream chain is reserved with
  // earliest = f_k. WQEs stay in sq_ until popped, so an error surfaced by
  // an earlier WQE (qp_set_error walks sq_) flushes every later one and
  // ends the loop. Nothing in this event posts to sq_ or changes the MR
  // table, so each WQE's protection verdict is the one it would get at the
  // doorbell, and wqe_fetch_cost runs in pop order.
  counters_.sq_fused_batches++;
  const std::uint32_t qpn = qp.qpn();
  sim::Time last = engine_->now();
  while (qp.state_ == QpState::kRts && !qp.sq_.empty()) {
    SendWr wr = std::move(qp.sq_.front());
    qp.sq_.pop_front();
    qp.sq_inflight_++;
    counters_.sq_burst_wrs++;
    const bool mr_ok = wqe_mr_ok(wr, qp.pd());
    // An ICM MR-context miss widens this WQE's pipeline slot: the fetch
    // stalls on the host-memory context read before parsing can start.
    const sim::Time fetch = wqe_fetch_cost(wr, mr_ok);
    last = processing_.reserve(fetch);
    process_one(qp, std::move(wr), 0, last, mr_ok, fetch);
  }
  // One continuation event at the burst's end: drains WQEs posted while
  // this burst was (virtually) processing, or deactivates the drain.
  engine_->call_at(last, [this, qpn] { sq_resume(qpn); });
}

bool Nic::wqe_mr_ok(const SendWr& wr, ProtectionDomainId pd) const {
  if (wr.inline_data || payload_len(wr) == 0) return true;
  const bool needs_local_write = wr.opcode == Opcode::kRdmaRead ||
                                 wr.opcode == Opcode::kFetchAdd ||
                                 wr.opcode == Opcode::kCompareSwap;
  return mrs_.check_local(wr.sge, pd, needs_local_write) != nullptr;
}

sim::Time Nic::wqe_fetch_cost(const SendWr& wr, bool mr_ok) {
  // Inline/empty WQEs carry their payload (or none) in the descriptor and
  // reference no MR context; failed protection checks abort before any
  // context fetch.
  if (wr.inline_data || payload_len(wr) == 0 || !mr_ok) {
    return kWqeProcessing;
  }
  return icm_mr_.touch(wr.sge.lkey) ? kWqeProcessing
                                    : kWqeProcessing + kIcmMissLatency;
}

void Nic::retry_send(std::uint32_t qpn, WrRef wr, std::uint32_t rnr_attempts) {
  QueuePair* qp = find_qp(qpn);
  if (qp == nullptr) return;
  if (qp->state_ != QpState::kRts) {
    // The QP failed while the WR waited out its RNR timer: it flushes.
    sender_complete(qpn, *wr, WcStatus::kWorkRequestFlushed,
                    engine_->now() + kCqeWrite);
    return;
  }
  engine_->spawn([](Nic& nic, std::uint32_t qpn, WrRef wr,
                    std::uint32_t attempts) -> sim::Task<> {
    QueuePair* qp = nic.find_qp(qpn);
    if (qp == nullptr) co_return;
    // A retry re-fetches the WQE, so it re-touches the MR context too.
    const bool mr_ok = nic.wqe_mr_ok(*wr, qp->pd());
    const sim::Time fetch = nic.wqe_fetch_cost(*wr, mr_ok);
    const sim::Time at = co_await nic.processing_.use(fetch);
    qp = nic.find_qp(qpn);
    if (qp == nullptr) co_return;
    // The credit for this WR is still held; process_one does not take one.
    nic.process_one(*qp, std::move(*wr), attempts, at, mr_ok, fetch);
  }(*this, qpn, std::move(wr), rnr_attempts));
}

Nic::SenderMeta Nic::meta_of(const SendWr& wr) {
  return SenderMeta{wr.wr_id, wr.trace_span,
                    static_cast<std::uint32_t>(payload_len(wr)), wr.opcode,
                    wr.signaled};
}

// One record per pipeline stage of a WQE's execution, stamped with the
// reservation times the drain and schedule_chain computed (ahead of the
// drain event). Only called with an active tracer.
void Nic::trace_chain(std::uint32_t qpn, const SendWr& wr, const TxTimes& t,
                      NodeId dst_node, std::uint64_t len, sim::Time at,
                      sim::Time fetch_cost) {
  trace::Tracer* tr = engine_->tracer();
  const auto node = static_cast<std::uint8_t>(node_);
  // `at` is the end of the reserved WQE-processing slot; back-dating the
  // fetch record by the slot width (which includes any ICM miss penalty)
  // plumbs the reservation into the trace (the causal analyzer reads
  // service time as record duration and closes the NIC scheduling stage
  // at t + dur == at).
  tr->record_at(at - fetch_cost, trace::Point::kWqeFetch,
                wr.trace_span, qpn, 0, node, len, fetch_cost);
  if (!wr.inline_data && len > 0) {
    tr->record_at(at, trace::Point::kDmaFetch, wr.trace_span, qpn, 0, node,
                  len, dma_fetch_time(len));
  }
  tr->record_at(at, trace::Point::kWireTx, wr.trace_span, qpn, 0, node, len,
                t.wire_done - at);
  if (t.delivered > t.wire_done) {
    tr->record_at(t.wire_done, trace::Point::kDmaDeliver, wr.trace_span, qpn,
                  0, static_cast<std::uint8_t>(dst_node), len,
                  t.delivered - t.wire_done);
  }
}

sim::Time Nic::dma_fetch_time(std::uint64_t len) const {
  // Summed PCIe occupancy of the payload's MTU chunks — the same
  // segmentation schedule_chain reserves, reproduced arithmetically.
  sim::Time total = 0;
  for_each_chunk(len, kMtu, [&](std::uint32_t chunk) {
    total += cfg_.pcie_bandwidth.time_for(chunk);
  });
  return total;
}

void Nic::process_one(QueuePair& qp, SendWr wr, std::uint32_t rnr_attempts,
                      sim::Time at, bool mr_ok, sim::Time fetch_cost) {
  const std::uint64_t len = payload_len(wr);

  if (!mr_ok) {
    sender_complete(qp.qpn(), wr, WcStatus::kLocalProtectionError,
                    at + kCqeWrite);
    qp_set_error(qp, at);
    return;
  }

  const bool is_ud = qp.type() == QpType::kUD;
  const AddressHandle dest = is_ud ? wr.ud : qp.dest_;
  Nic* dst = registry_->find(dest.node);
  if (dst == nullptr) {
    sender_complete(qp.qpn(), wr, WcStatus::kRemoteInvalidRequest,
                    at + kCqeWrite);
    if (!is_ud) qp_set_error(qp, at);
    return;
  }

  if (rnr_attempts == 0) {
    counters_.tx_msgs++;
    counters_.tx_bytes += len;
    qp.counters_.tx_msgs++;
    qp.counters_.tx_bytes += len;
  }

  const std::uint32_t sqpn = qp.qpn();
  // A send or write carries its payload through the DMA/wire chain. A read
  // or atomic request is header-sized on the wire (an atomic's operands
  // ride in the header).
  const bool header_only = wr.opcode == Opcode::kRdmaRead ||
                           wr.opcode == Opcode::kFetchAdd ||
                           wr.opcode == Opcode::kCompareSwap;
  TxTimes t;
  if (header_only) {
    const sim::Time arrive =
        network_->path(node_, dst->node_).reserve(at, kHeaderBytes);
    t = {arrive, arrive};
  } else {
    t = schedule_chain(*dst, len, /*skip_src_dma=*/wr.inline_data, at);
  }
  if (engine_->tracer() != nullptr) [[unlikely]] {
    trace_chain(sqpn, wr, t, dest.node, header_only ? 0 : len, at, fetch_cost);
  }
  // An unreliable send gets no ACK: it completes at its wire egress.
  if (is_ud) {
    sender_complete(sqpn, wr, WcStatus::kSuccess, t.wire_done + kCqeWrite);
  }
  WrRef shared = wr_pool_.acquire(std::move(wr));
  engine_->call_at(t.wire_done,
                   [this, dst, dqpn = dest.qpn, shared, sqpn,
                    delivered = t.delivered, rnr_attempts, is_ud] {
                     dst->handle_inbound(dqpn, shared, *this, sqpn, delivered,
                                         rnr_attempts, /*reliable=*/!is_ud);
                   });
}

void Nic::handle_inbound(std::uint32_t local_qpn, WrRef wr, Nic& src,
                         std::uint32_t src_qpn, sim::Time delivered,
                         std::uint32_t rnr_attempts, bool reliable) {
  QueuePair* qp = find_qp(local_qpn);
  if (qp == nullptr ||
      (qp->state_ != QpState::kRtr && qp->state_ != QpState::kRts)) {
    if (reliable) nak(src, src_qpn, *wr, WcStatus::kRemoteInvalidRequest);
    return;  // UD: silently dropped
  }
  const std::uint32_t access = remote_access(wr->opcode);
  if (access != kAccessNone &&
      mrs_.check_remote(wr->rkey, wr->remote_addr, payload_len(*wr),
                        access) == nullptr) {
    nak(src, src_qpn, *wr, WcStatus::kRemoteAccessError);
    return;
  }
  switch (wr->opcode) {
    case Opcode::kRdmaRead:
      respond_read(std::move(wr), src, src_qpn);
      return;
    case Opcode::kFetchAdd:
    case Opcode::kCompareSwap:
      respond_atomic(std::move(wr), src, src_qpn);
      return;
    default:
      land(*qp, std::move(wr), src, src_qpn, delivered, rnr_attempts, reliable);
  }
}

void Nic::land(QueuePair& qp, WrRef wr, Nic& src, std::uint32_t src_qpn,
               sim::Time delivered, std::uint32_t rnr_attempts, bool reliable) {
  const Opcode op = wr->opcode;
  const bool is_send = op == Opcode::kSend || op == Opcode::kSendWithImm;
  const bool has_imm =
      op == Opcode::kSendWithImm || op == Opcode::kRdmaWriteWithImm;
  RecvWr rwr;
  if (is_send || has_imm) {
    SharedReceiveQueue* srq = qp.config().srq;
    std::deque<RecvWr>& rq = srq != nullptr ? srq->wqes_ : qp.rq_;
    if (rq.empty()) {
      qp.counters_.rnr_events++;
      if (reliable) rnr_nak(src, src_qpn, std::move(wr), rnr_attempts);
      return;  // UD: datagram dropped
    }
    rwr = rq.front();
    rq.pop_front();
    if (srq != nullptr) srq->consumed_++;
  }
  // A UD receive buffer starts with the GRH.
  const std::uint32_t grh =
      is_send && qp.type() == QpType::kUD ? kGrhBytes : 0;
  if (is_send && payload_len(*wr) + grh > rwr.sge.length) {
    complete_at(engine_->now() + kCqeWrite, qp.recv_cq(),
                Cqe{rwr.wr_id, WcStatus::kLocalLengthError, WcOpcode::kRecv, 0,
                    qp.qpn(), src_qpn, 0, false});
    qp_set_error(qp);
    if (reliable) nak(src, src_qpn, *wr, WcStatus::kRemoteInvalidRequest);
    return;
  }

  const sim::Time done = std::max(engine_->now(), delivered) + kRxProcessing;
  auto deliver = [this, wr = std::move(wr), rwr, &src, qpn = qp.qpn(), src_qpn,
                  grh, reliable, is_send, has_imm] {
    QueuePair* qp = find_qp(qpn);
    if (qp == nullptr) return;
    const std::uint64_t len = payload_len(*wr);
    if (len > 0) {
      std::byte* to = is_send ? mem(rwr.sge.addr) + grh : mem(wr->remote_addr);
      std::memcpy(to, payload_ptr(*wr), len);
    }
    counters_.rx_msgs++;
    counters_.rx_bytes += len;
    qp->counters_.rx_msgs++;
    qp->counters_.rx_bytes += len;
    if (is_send || has_imm) {
      complete_at(engine_->now() + kCqeWrite, qp->recv_cq(),
                  Cqe{rwr.wr_id, WcStatus::kSuccess,
                      is_send ? WcOpcode::kRecv : WcOpcode::kRecvRdmaWithImm,
                      static_cast<std::uint32_t>(len + grh), qpn, src_qpn,
                      wr->imm, has_imm});
    }
    trace::Tracer* tr = engine_->tracer();
    if (tr != nullptr && is_send) [[unlikely]] {
      tr->record_at(engine_->now() + kCqeWrite, trace::Point::kCompletion,
                    wr->trace_span, qpn, 0, static_cast<std::uint8_t>(node_),
                    len, 0, /*aux=*/1);
    }
    if (reliable) ctrl_complete(src, engine_->now(), src_qpn, meta_of(*wr));
  };
  engine_->call_at(done, std::move(deliver));
}

void Nic::respond_read(WrRef wr, Nic& src, std::uint32_t src_qpn) {
  const std::uint64_t len = wr->sge.length;
  // Responder streams the data back; charge responder-side processing.
  processing_.reserve(kRxProcessing);
  counters_.rx_msgs++;  // the read request itself
  TxTimes t = schedule_chain(src, len, /*skip_src_dma=*/false, engine_->now());
  counters_.tx_bytes += len;
  engine_->call_at(t.delivered, [this, wr, len, &src, src_qpn] {
    if (len > 0)
      std::memcpy(mem(wr->sge.addr), mem(wr->remote_addr), len);
    src.counters_.rx_bytes += len;
    src.sender_complete(src_qpn, *wr, WcStatus::kSuccess,
                        src.engine_->now() + kAckProcessing + kCqeWrite);
  });
}

void Nic::respond_atomic(WrRef wr, Nic& src, std::uint32_t src_qpn) {
  // Atomics serialize on the responder's processing pipeline; the
  // read-modify-write happens here, atomically with respect to all other
  // simulated accesses (single-threaded event execution).
  const sim::Time done = processing_.reserve(kRxProcessing);
  std::uint64_t old_value;
  std::memcpy(&old_value, mem(wr->remote_addr), 8);
  std::uint64_t new_value = old_value;
  if (wr->opcode == Opcode::kFetchAdd) {
    new_value = old_value + wr->compare_add;
  } else if (old_value == wr->compare_add) {
    new_value = wr->swap;
  }
  std::memcpy(mem(wr->remote_addr), &new_value, 8);
  counters_.rx_msgs++;
  // Response carries the old value back; the requester DMA-writes it into
  // the caller's 8-byte buffer and completes.
  engine_->call_at(done, [this, wr, old_value, &src, src_qpn] {
    const sim::Time arrive = network_->path(node_, src.node())
                                 .reserve(engine_->now(), kAckBytes + 8);
    engine_->call_at(arrive, [psrc = &src, src_qpn, m = meta_of(*wr),
                              addr = wr->sge.addr, old_value] {
      std::memcpy(mem(addr), &old_value, 8);
      psrc->sender_complete(src_qpn, m, WcStatus::kSuccess,
                            psrc->engine_->now() + kAckProcessing + kCqeWrite);
    });
  });
}

void Nic::nak(Nic& src, std::uint32_t src_qpn, const SendWr& wr,
              WcStatus status) {
  send_ctrl(src, engine_->now(), [&src, src_qpn, m = meta_of(wr), status] {
    src.sender_complete(src_qpn, m, status,
                        src.engine_->now() + kCqeWrite);
    if (QueuePair* sqp = src.find_qp(src_qpn)) src.qp_set_error(*sqp);
  });
}

void Nic::rnr_nak(Nic& src, std::uint32_t src_qpn, WrRef wr,
                  std::uint32_t attempts) {
  if (attempts >= kRnrRetries) {
    nak(src, src_qpn, *wr, WcStatus::kRnrRetryExceeded);
    return;
  }
  send_ctrl(src, engine_->now(), [&src, src_qpn, wr, attempts] {
    src.engine_->call_in(kRnrTimer, [&src, src_qpn, wr, attempts] {
      src.retry_send(src_qpn, wr, attempts + 1);
    });
  });
}

void Nic::send_ctrl(Nic& dst, sim::Time earliest, sim::InlineFn fn) {
  // The ctrl packet serializes on the wire like any other chunk.
  const sim::Time arrive =
      network_->path(node_, dst.node()).reserve(earliest, kAckBytes);
  engine_->call_at(arrive + kAckProcessing, std::move(fn));
}

Nic::TxTimes Nic::schedule_chain(Nic& dst, std::uint64_t bytes, bool skip_src_dma,
                                 sim::Time at) {
  const fabric::Path p = network_->path(node_, dst.node_);
  TxTimes t{at, at};
  counters_.seg_msgs++;
  counters_.seg_chunks += chunk_count(bytes, kMtu);
  for_each_chunk(bytes, kMtu, [&](std::uint32_t chunk) {
    // dma_latency is pipeline depth, not occupancy: reservations on the
    // shared DMA engine consume only the transfer time, and the fixed
    // latency shifts the readiness of every chunk afterwards. Folding the
    // latency into the reservation's earliest-start would spuriously
    // serialize unrelated messages (the engine would sit "reserved but
    // idle" for the latency window) — catastrophic on loopback paths where
    // source- and destination-side reservations share one engine.
    const sim::Time ready =
        skip_src_dma
            ? at
            : dma_rd_.reserve_at(at, cfg_.pcie_bandwidth.time_for(chunk)) +
                  cfg_.dma_latency;
    t.wire_done = p.reserve(ready, chunk + kHeaderBytes);
    t.delivered = dst.dma_wr_.reserve_at(
                      t.wire_done, dst.cfg_.pcie_bandwidth.time_for(chunk)) +
                  dst.cfg_.dma_latency;
  });
  return t;
}

void Nic::complete_at(sim::Time at, CompletionQueue& cq, Cqe cqe) {
  engine_->call_at(at, [&cq, cqe] { cq.push(cqe); });
}

void Nic::sender_complete(std::uint32_t qpn, const SenderMeta& m, WcStatus status,
                          sim::Time at) {
  engine_->call_at(std::max(engine_->now(), at), [this, qpn, m, status] {
    sender_complete_now(qpn, m, status);
  });
}

void Nic::sender_complete_now(std::uint32_t qpn, const SenderMeta& m,
                              WcStatus status) {
  QueuePair* qp = find_qp(qpn);
  if (qp == nullptr) return;
  if (qp->sq_inflight_ > 0) qp->sq_inflight_--;
  if (m.signaled || status != WcStatus::kSuccess) {
    qp->send_cq().push(
        Cqe{m.wr_id, status, wc_opcode(m.opcode), m.payload_len, qpn, 0, 0,
            false});
  }
  if (trace::Tracer* tr = engine_->tracer()) [[unlikely]] {
    tr->record(trace::Point::kCompletion, m.trace_span, qpn, 0,
               static_cast<std::uint8_t>(node_),
               static_cast<std::uint8_t>(status), 0,
               /*aux=*/0);
  }
}

void Nic::ctrl_complete(Nic& requester, sim::Time earliest,
                        std::uint32_t requester_qpn, SenderMeta m) {
  // Same wire model as send_ctrl; the callback lands one cqe_write later
  // and executes the completion directly, so a successful ACK costs one
  // requester-side event instead of two.
  const sim::Time arrive =
      network_->path(node_, requester.node()).reserve(earliest, kAckBytes);
  engine_->call_at(arrive + kAckProcessing + kCqeWrite,
                   [req = &requester, requester_qpn, m] {
                     req->sender_complete_now(requester_qpn, m,
                                              WcStatus::kSuccess);
                   });
}

}  // namespace cord::nic
