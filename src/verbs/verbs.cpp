#include "verbs/verbs.hpp"

#include <stdexcept>

#include "trace/trace.hpp"

namespace cord::verbs {

namespace {

std::uint8_t node8(os::Host& host) {
  return static_cast<std::uint8_t>(host.node());
}

}  // namespace

sim::Task<nic::ProtectionDomainId> Context::alloc_pd() {
  co_return co_await host_->kernel().alloc_pd(*core_);
}

sim::Task<const nic::MemoryRegion*> Context::reg_mr(nic::ProtectionDomainId pd,
                                                    void* addr, std::size_t len,
                                                    std::uint32_t access) {
  co_return co_await host_->kernel().reg_mr(*core_, opts_.tenant, pd, addr, len,
                                            access);
}

sim::Task<bool> Context::dereg_mr(std::uint32_t lkey) {
  co_return co_await host_->kernel().dereg_mr(*core_, opts_.tenant, lkey);
}

sim::Task<nic::CompletionQueue*> Context::create_cq(std::uint32_t capacity) {
  co_return co_await host_->kernel().create_cq(*core_, capacity);
}

sim::Task<nic::QueuePair*> Context::create_qp(const nic::QpConfig& cfg) {
  co_return co_await host_->kernel().create_qp(*core_, cfg);
}

sim::Task<nic::SharedReceiveQueue*> Context::create_srq(nic::ProtectionDomainId pd,
                                                        std::uint32_t capacity) {
  co_return co_await host_->kernel().create_srq(*core_, pd, capacity);
}

sim::Task<int> Context::connect_qp(nic::QueuePair& qp, nic::AddressHandle dest) {
  os::Kernel& k = host_->kernel();
  if (int rc = co_await k.modify_qp(*core_, qp, nic::QpState::kInit); rc != 0)
    co_return rc;
  if (int rc = co_await k.modify_qp(*core_, qp, nic::QpState::kRtr, dest); rc != 0)
    co_return rc;
  co_return co_await k.modify_qp(*core_, qp, nic::QpState::kRts);
}

sim::Task<> Context::destroy_qp(nic::QueuePair& qp) {
  // Pending ring entries reference the QP; submit them before it dies.
  if (!ring_.empty() && ring_qp_ == &qp) (void)co_await flush();
  co_await host_->kernel().destroy_qp(*core_, qp.qpn());
}

sim::Task<int> Context::flush() {
  if (ring_.empty()) co_return 0;  // empty flush is free
  // Move the ring out before suspending: another coroutine on this
  // context may post into the ring while the crossing runs.
  nic::QueuePair& qp = *ring_qp_;
  std::vector<nic::SendWr> wrs = std::move(ring_);
  ring_.clear();
  ring_.reserve(opts_.tx_batch);
  std::vector<int> rcs(wrs.size(), 0);
  co_return co_await host_->kernel().submit_send_batch(*core_, opts_.tenant,
                                                       qp, wrs, rcs);
}

sim::Task<int> Context::post_send(nic::QueuePair& qp, nic::SendWr wr) {
  ++dataplane_ops_;
  // A WR's span chain starts here: mint the correlation id at the API
  // boundary so every later record (syscall, policy, NIC) links back.
  if (trace::Tracer* tr = core_->engine().tracer()) [[unlikely]] {
    wr.trace_span = tr->new_span();
    // Above the NIC the payload is always described by the SGE; the inline
    // copy into the WQE happens later, inside the NIC's post_send.
    const std::uint64_t bytes = wr.sge.length;
    tr->record(trace::Point::kVerbsPostSend, wr.trace_span, qp.qpn(),
               opts_.tenant, node8(*host_), bytes, 0,
               static_cast<std::uint16_t>(wr.opcode));
  }
  // CoRD without inline support falls back to a regular DMA'd send — the
  // missing-inline gap the paper observed on system A.
  if (wr.inline_data && opts_.mode == DataplaneMode::kCord &&
      !opts_.cord_inline_support) {
    wr.inline_data = false;
  }
  // Building the WQE (plus the inline payload copy) happens in user space
  // in both modes; the drivers are "largely equivalent".
  sim::Time build = os::kWqeBuild;
  if (wr.inline_data) build += core_->memcpy_time(wr.sge.length);
  co_await core_->work(build, os::Work::kCompute);

  if (opts_.mode == DataplaneMode::kBypass) {
    co_await core_->work(os::kDoorbellMmio, os::Work::kCompute);
    co_return host_->nic().post_send(qp, std::move(wr));
  }
  if (batching()) {
    // A send to another QP first closes the ring's gather window. A flush
    // suspends, and the ring may refill meanwhile, so flush until the ring
    // is empty or holds this QP's sends.
    while (!ring_.empty() && ring_qp_ != &qp) (void)co_await flush();
    ring_qp_ = &qp;
    ring_.push_back(std::move(wr));
    if (ring_.size() >= opts_.tx_batch) co_return co_await flush();
    co_return 0;
  }
  co_return co_await host_->kernel().post_send(*core_, opts_.tenant, qp,
                                               std::move(wr));
}

sim::Task<int> Context::post_recv(nic::QueuePair& qp, nic::RecvWr wr) {
  if (batching()) (void)co_await flush();  // a recv ends the gather
  ++dataplane_ops_;
  if (trace::Tracer* tr = core_->engine().tracer()) [[unlikely]] {
    tr->record(trace::Point::kVerbsPostRecv, 0, qp.qpn(), opts_.tenant,
               node8(*host_), wr.sge.length);
  }
  co_await core_->work(os::kWqeBuild, os::Work::kCompute);
  if (opts_.mode == DataplaneMode::kBypass) {
    co_await core_->work(os::kDoorbellMmio, os::Work::kCompute);
    co_return host_->nic().post_recv(qp, wr);
  }
  co_return co_await host_->kernel().post_recv(*core_, opts_.tenant, qp, wr);
}

sim::Task<int> Context::post_srq_recv(nic::SharedReceiveQueue& srq,
                                      nic::RecvWr wr) {
  if (batching()) (void)co_await flush();
  ++dataplane_ops_;
  co_await core_->work(os::kWqeBuild, os::Work::kCompute);
  if (opts_.mode == DataplaneMode::kBypass) {
    co_await core_->work(os::kDoorbellMmio, os::Work::kCompute);
    co_return host_->nic().post_srq_recv(srq, wr);
  }
  co_return co_await host_->kernel().post_srq_recv(*core_, opts_.tenant, srq, wr);
}

sim::Task<int> Context::post_recv_burst(nic::QueuePair& qp,
                                        std::span<const nic::RecvWr> wrs) {
  if (wrs.empty()) co_return 0;
  if (!batching()) {
    // Degrades to the classic per-op path (bypass, or tx_batch == 1).
    int first = 0;
    for (const nic::RecvWr& wr : wrs) {
      const int rc = co_await post_recv(qp, wr);
      if (first == 0) first = rc;
    }
    co_return first;
  }
  (void)co_await flush();  // a recv ends the gather
  dataplane_ops_ += wrs.size();
  if (trace::Tracer* tr = core_->engine().tracer()) [[unlikely]] {
    for (const nic::RecvWr& wr : wrs) {
      tr->record(trace::Point::kVerbsPostRecv, 0, qp.qpn(), opts_.tenant,
                 node8(*host_), wr.sge.length);
    }
  }
  co_await core_->work(static_cast<sim::Time>(wrs.size()) * os::kWqeBuild,
                       os::Work::kCompute);
  std::vector<int> rcs(wrs.size(), 0);
  co_return co_await host_->kernel().submit_recv_batch(*core_, opts_.tenant, qp,
                                                       wrs, rcs);
}

sim::Task<std::size_t> Context::poll_cq(nic::CompletionQueue& cq,
                                        std::span<nic::Cqe> out) {
  // Harvesting closes the gather window: whatever was posted must be
  // submitted before we look for its completions.
  if (batching()) (void)co_await flush();
  if (opts_.mode == DataplaneMode::kCord && opts_.poll_via_kernel) {
    ++dataplane_ops_;
    co_return co_await host_->kernel().poll_cq(*core_, opts_.tenant, cq, out);
  }
  // User-space poll: the CQ ring lives in user-mapped memory.
  const std::size_t n = cq.poll(out);
  if (n == 0) {
    co_await core_->engine().delay(charge_poll_miss());
    co_return 0;
  }
  ++dataplane_ops_;
  if (trace::Tracer* tr = core_->engine().tracer()) [[unlikely]] {
    tr->record(trace::Point::kVerbsPollCq, 0, cq.cqn(), opts_.tenant,
               node8(*host_), n);
  }
  co_await core_->work(static_cast<sim::Time>(n) * os::kPollHit,
                       os::Work::kCompute);
  co_return n;
}

sim::Task<nic::Cqe> Context::wait_one(nic::CompletionQueue& cq, sim::Time timeout) {
  const sim::Time deadline = core_->engine().now() + timeout;
  nic::Cqe wc;
  for (;;) {
    const std::size_t n = co_await poll_cq(cq, std::span<nic::Cqe>{&wc, 1});
    if (n == 1) co_return wc;
    if (core_->engine().now() >= deadline) {
      throw std::runtime_error(
          "wait_one timed out: no completion arrived (workload deadlock?)");
    }
  }
}

sim::Task<nic::Cqe> Context::wait_one_event(nic::CompletionQueue& cq,
                                            sim::Time timeout) {
  const sim::Time deadline = core_->engine().now() + timeout;
  nic::Cqe wc;
  for (;;) {
    // Harvest without spinning: one poll, then sleep on the CQ event.
    const std::size_t n = co_await poll_cq(cq, std::span<nic::Cqe>{&wc, 1});
    if (n == 1) co_return wc;
    if (core_->engine().now() >= deadline) {
      throw std::runtime_error("wait_one_event timed out");
    }
    co_await host_->kernel().wait_cq_event(*core_, cq);
  }
}

}  // namespace cord::verbs
