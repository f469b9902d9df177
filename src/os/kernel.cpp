#include "os/kernel.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <vector>

#include "trace/trace.hpp"

namespace cord::os {

Kernel::Kernel(sim::Engine& engine, nic::Nic& nic)
    : engine_(&engine), nic_(&nic) {
  // Live views of the kernel's own counters — read-time callbacks, so the
  // hot path keeps plain integer increments.
  metrics_.callback_gauge("kernel.syscalls", [this] {
    return static_cast<std::int64_t>(syscalls_);
  });
  metrics_.callback_gauge("kernel.interrupts", [this] {
    return static_cast<std::int64_t>(interrupts_);
  });
  // Crossing-vs-op split (batched submission makes them diverge: one
  // crossing, counted in kernel.syscalls, services a whole flushed ring)
  // plus the flush shape.
  metrics_.callback_gauge("kernel.ops_serviced", [this] {
    return static_cast<std::int64_t>(ops_serviced_);
  });
  metrics_.callback_gauge("kernel.batch.flushes", [this] {
    return static_cast<std::int64_t>(batch_flushes_);
  });
  metrics_.callback_gauge("kernel.batch.flushed_ops", [this] {
    return static_cast<std::int64_t>(batch_flushed_ops_);
  });
  metrics_.callback_gauge("kernel.batch.max_wrs", [this] {
    return static_cast<std::int64_t>(batch_max_wrs_);
  });
  // The engine is the System's, shared by every host, so its engine.* and
  // sim.* gauges live once, in core::System::metrics(), as do the NIC
  // doorbell/burst/segment sums over hosts; one host's counts are its
  // Nic::counters().
  //
  // On-NIC context-cache health (ICM model, nic/icm.hpp). All zero while
  // the cache is unbounded (the default); under a bounded configuration
  // the miss/eviction rates are the first thing to read when a host's
  // latency climbs with its connection count.
  metrics_.callback_gauge("nic.icm.qp_hits", [this] {
    return static_cast<std::int64_t>(nic_->icm_qp_cache().stats().hits);
  });
  metrics_.callback_gauge("nic.icm.qp_misses", [this] {
    return static_cast<std::int64_t>(nic_->icm_qp_cache().stats().misses);
  });
  metrics_.callback_gauge("nic.icm.qp_evictions", [this] {
    return static_cast<std::int64_t>(nic_->icm_qp_cache().stats().evictions);
  });
  metrics_.callback_gauge("nic.icm.mr_hits", [this] {
    return static_cast<std::int64_t>(nic_->icm_mr_cache().stats().hits);
  });
  metrics_.callback_gauge("nic.icm.mr_misses", [this] {
    return static_cast<std::int64_t>(nic_->icm_mr_cache().stats().misses);
  });
  metrics_.callback_gauge("nic.icm.mr_evictions", [this] {
    return static_cast<std::int64_t>(nic_->icm_mr_cache().stats().evictions);
  });
  // Tail-latency watchdog firings (causal layer), counted at read time,
  // so an armed-but-unread watchdog costs nothing on the data path.
  metrics_.callback_gauge("kernel.watchdog_violations", [this] {
    return static_cast<std::int64_t>(causal().watchdog_violations());
  });
}

trace::causal::Aggregator Kernel::causal() const {
  trace::causal::Aggregator agg;
  for (const auto& [tenant, slo] : slos_) agg.set_slo(tenant, slo);
  // The System's one tracer holds every host's records; this kernel's
  // view keeps the spans its own host posted.
  if (const trace::Tracer* tr = engine_->tracer()) {
    agg.ingest(tr->snapshot(), static_cast<std::uint8_t>(nic_->node()));
  }
  return agg;
}

const Kernel::TenantMetrics& Kernel::tenant_metrics(TenantId tenant) {
  if (tenant >= tenant_metrics_.size()) {
    tenant_metrics_.resize(tenant + 1);
  }
  TenantMetrics& tm = tenant_metrics_[tenant];
  if (tm.post_sends == nullptr) {
    tm.post_sends = &metrics_.counter("kernel.tenant.post_sends", tenant);
    tm.post_recvs = &metrics_.counter("kernel.tenant.post_recvs", tenant);
    tm.polls = &metrics_.counter("kernel.tenant.polls", tenant);
    tm.tx_bytes = &metrics_.counter("kernel.tenant.tx_bytes", tenant);
    tm.completions = &metrics_.counter("kernel.tenant.completions", tenant);
    tm.syscall_ns = &metrics_.histogram("kernel.tenant.syscall_ns", tenant);
  }
  return tm;
}

sim::Task<> Kernel::ioctl(Core& core, sim::Time cmd_cost) {
  ++syscalls_;
  ++ops_serviced_;
  const sim::Time cost = core.syscall_cost() + kIoctlSerialize + cmd_cost;
  co_await core.work(cost, Work::kKernel);
}

sim::Task<nic::ProtectionDomainId> Kernel::alloc_pd(Core& core) {
  co_await ioctl(core, kControlCmd);
  co_return nic_->alloc_pd();
}

sim::Task<const nic::MemoryRegion*> Kernel::reg_mr(Core& core, TenantId tenant,
                                                   nic::ProtectionDomainId pd,
                                                   void* addr, std::size_t len,
                                                   std::uint32_t access) {
  const DataplaneOp op{DataplaneOp::Kind::kRegMr, tenant, 0,
                       nic::Opcode::kSend, len, 0};
  const PolicyVerdict v = policies_.evaluate(op, engine_->now());
  if (!v.allow) {
    // Denied registrations still pay the crossing (the argument check
    // happens inside the ioctl), but never reach the firmware command
    // or the page pinning.
    co_await ioctl(core, v.cpu_cost);
    co_return nullptr;
  }
  // Registration also pins pages: charge a per-page cost on top of the
  // firmware command (page-table walk + pinning, ~120 ns/page).
  const auto pages = static_cast<sim::Time>((len + 4095) / 4096);
  co_await ioctl(core, kControlCmd + pages * sim::ns(120) + v.cpu_cost);
  if (v.pace_delay > 0) co_await core.idle(v.pace_delay);
  co_return &nic_->register_mr(pd, addr, len, access);
}

sim::Task<bool> Kernel::dereg_mr(Core& core, TenantId tenant, std::uint32_t lkey) {
  const DataplaneOp op{DataplaneOp::Kind::kDeregMr, tenant, 0,
                       nic::Opcode::kSend, 0, 0};
  const PolicyVerdict v = policies_.evaluate(op, engine_->now());
  co_await ioctl(core, kControlCmd + v.cpu_cost);
  if (!v.allow) co_return false;
  co_return nic_->deregister_mr(lkey);
}

sim::Task<nic::CompletionQueue*> Kernel::create_cq(Core& core,
                                                   std::uint32_t capacity) {
  co_await ioctl(core, kControlCmd);
  nic::CompletionQueue* cq = nic_->create_cq(capacity);
  // Install the interrupt path: an armed CQ receiving a completion raises
  // an IRQ; the kernel's handler wakes whoever sleeps on the CQ.
  cq->set_event_handler([this](nic::CompletionQueue& c) {
    engine_->call_in(nic_->config().interrupt_delivery, [this, &c] {
      ++interrupts_;
      if (trace::Tracer* tr = engine_->tracer()) [[unlikely]] {
        tr->record(trace::Point::kInterrupt, 0, c.cqn(), 0,
                   static_cast<std::uint8_t>(nic_->node()));
      }
      cq_signal(c).trigger();
    });
  });
  co_return cq;
}

sim::Task<nic::QueuePair*> Kernel::create_qp(Core& core, const nic::QpConfig& cfg) {
  co_await ioctl(core, kControlCmd);
  co_return nic_->create_qp(cfg);
}

sim::Task<nic::SharedReceiveQueue*> Kernel::create_srq(Core& core,
                                                       nic::ProtectionDomainId pd,
                                                       std::uint32_t capacity) {
  co_await ioctl(core, kControlCmd);
  co_return nic_->create_srq(pd, capacity);
}

sim::Task<int> Kernel::modify_qp(Core& core, nic::QueuePair& qp,
                                 nic::QpState target, nic::AddressHandle dest) {
  co_await ioctl(core, kControlCmd);
  co_return nic_->modify_qp(qp, target, dest);
}

sim::Task<> Kernel::destroy_qp(Core& core, std::uint32_t qpn) {
  co_await ioctl(core, kControlCmd);
  nic_->destroy_qp(qpn);
}

sim::Task<int> Kernel::send_crossing(Core& core, TenantId tenant,
                                     nic::QueuePair& qp,
                                     std::span<nic::SendWr> wrs,
                                     std::span<int> rcs) {
  const std::size_t n = wrs.size();
  ++syscalls_;
  ops_serviced_ += n;
  const sim::Time t0 = engine_->now();
  const std::uint32_t qpn = qp.qpn();
  const std::uint8_t node = static_cast<std::uint8_t>(nic_->node());
  // Copy of the handle struct: tenant_metrics_ may reallocate while this
  // coroutine is suspended, but the pointed-to registry entries are stable.
  const TenantMetrics tm = tenant_metrics(tenant);
  tm.post_sends->add(n);
  trace::Tracer* tr = engine_->tracer();
  // Every WR runs the full chain. A denied WR's errno goes straight into
  // rcs; 0 marks an admitted one until the NIC's rc replaces it.
  sim::Time cpu = static_cast<sim::Time>(n) * kCordPostWork;
  sim::Time pace = 0;
  bool admitted = false;
  for (std::size_t i = 0; i < n; ++i) {
    const nic::SendWr& wr = wrs[i];
    // The SGE describes the payload even for inline sends: the copy into
    // the WQE (which fills inline_payload) happens below us, in the NIC.
    const std::uint64_t bytes = wr.sge.length;
    tm.tx_bytes->add(bytes);
    if (tr != nullptr) [[unlikely]] {
      tr->record(trace::Point::kSyscallEnter, wr.trace_span, qpn, tenant, node,
                 bytes);
    }
    const nic::NodeId dst =
        qp.type() == nic::QpType::kUD ? wr.ud.node : qp.dest().node;
    const DataplaneOp op{DataplaneOp::Kind::kPostSend, tenant, qpn, wr.opcode,
                         bytes, dst};
    const PolicyVerdict v = policies_.evaluate(op, t0, tr, wr.trace_span, node);
    cpu += v.cpu_cost;
    rcs[i] = v.allow ? 0 : v.error;
    if (v.allow) {
      admitted = true;
      pace = std::max(pace, v.pace_delay);
    }
  }
  co_await core.work(core.syscall_cost() + cpu, Work::kKernel);
  if (admitted) {
    // Shaped debts accumulate in the bucket, so the largest admitted delay
    // already covers every other WR: one pacing idle, then one doorbell.
    if (pace > 0) co_await core.idle(pace);
    co_await core.work(kDoorbellMmio, Work::kKernel);
  }
  int first_err = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rcs[i] == 0) rcs[i] = nic_->post_send(qp, std::move(wrs[i]));
    if (first_err == 0) first_err = rcs[i];
  }
  const sim::Time elapsed = engine_->now() - t0;
  tm.syscall_ns->add(static_cast<std::uint64_t>(elapsed) / 1000);
  if ((tr = engine_->tracer()) != nullptr) [[unlikely]] {
    for (std::size_t i = 0; i < n; ++i) {
      tr->record(trace::Point::kSyscallExit, wrs[i].trace_span, qpn, tenant,
                 node, static_cast<std::uint64_t>(elapsed));
    }
  }
  co_return first_err;
}

template <typename PostFn>
sim::Task<int> Kernel::recv_crossing(Core& core, TenantId tenant,
                                     std::uint32_t qpn,
                                     std::span<const nic::RecvWr> wrs,
                                     std::span<int> rcs, PostFn post) {
  const std::size_t n = wrs.size();
  ++syscalls_;
  ops_serviced_ += n;
  const sim::Time t0 = engine_->now();
  const std::uint8_t node = static_cast<std::uint8_t>(nic_->node());
  const TenantMetrics tm = tenant_metrics(tenant);
  tm.post_recvs->add(n);
  trace::Tracer* tr = engine_->tracer();
  sim::Time cpu = static_cast<sim::Time>(n) * kCordPostWork;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bytes = wrs[i].sge.length;
    if (tr != nullptr) [[unlikely]] {
      tr->record(trace::Point::kSyscallEnter, 0, qpn, tenant, node, bytes);
    }
    const DataplaneOp op{DataplaneOp::Kind::kPostRecv, tenant, qpn,
                         nic::Opcode::kSend, bytes, 0};
    const PolicyVerdict v = policies_.evaluate(op, t0, tr, 0, node);
    cpu += v.cpu_cost;
    rcs[i] = v.allow ? 0 : v.error;
  }
  co_await core.work(core.syscall_cost() + cpu, Work::kKernel);
  int first_err = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rcs[i] == 0) rcs[i] = post(wrs[i]);
    if (first_err == 0) first_err = rcs[i];
  }
  const sim::Time elapsed = engine_->now() - t0;
  tm.syscall_ns->add(static_cast<std::uint64_t>(elapsed) / 1000);
  if ((tr = engine_->tracer()) != nullptr) [[unlikely]] {
    for (std::size_t i = 0; i < n; ++i) {
      tr->record(trace::Point::kSyscallExit, 0, qpn, tenant, node,
                 static_cast<std::uint64_t>(elapsed));
    }
  }
  co_return first_err;
}

sim::Task<int> Kernel::post_send(Core& core, TenantId tenant, nic::QueuePair& qp,
                                 nic::SendWr wr) {
  int rc = 0;
  co_return co_await send_crossing(core, tenant, qp, {&wr, 1}, {&rc, 1});
}

sim::Task<int> Kernel::post_recv(Core& core, TenantId tenant, nic::QueuePair& qp,
                                 nic::RecvWr wr) {
  int rc = 0;
  co_return co_await recv_crossing(
      core, tenant, qp.qpn(), {&wr, 1}, {&rc, 1},
      [this, &qp](const nic::RecvWr& w) { return nic_->post_recv(qp, w); });
}

sim::Task<int> Kernel::post_srq_recv(Core& core, TenantId tenant,
                                     nic::SharedReceiveQueue& srq, nic::RecvWr wr) {
  int rc = 0;
  co_return co_await recv_crossing(
      core, tenant, 0, {&wr, 1}, {&rc, 1},
      [this, &srq](const nic::RecvWr& w) { return nic_->post_srq_recv(srq, w); });
}

sim::Task<std::size_t> Kernel::poll_cq(Core& core, TenantId tenant,
                                       nic::CompletionQueue& cq,
                                       std::span<nic::Cqe> out) {
  ++syscalls_;
  ++ops_serviced_;
  const sim::Time t0 = engine_->now();
  const std::uint8_t node = static_cast<std::uint8_t>(nic_->node());
  const TenantMetrics tm = tenant_metrics(tenant);
  tm.polls->add();
  trace::Tracer* tr = engine_->tracer();
  if (tr != nullptr) [[unlikely]] {
    tr->record(trace::Point::kSyscallEnter, 0, cq.cqn(), tenant, node);
  }
  const DataplaneOp op{DataplaneOp::Kind::kPollCq, tenant, 0,
                       nic::Opcode::kSend, 0, 0};
  const PolicyVerdict v = policies_.evaluate(op, t0, tr, 0, node);
  // A denied poll (CQ-quota policing a poll storm) returns 0 completions
  // without touching the CQ: the entries stay queued for a later,
  // in-quota poll.
  const std::size_t n = v.allow ? cq.poll(out) : 0;
  tm.completions->add(n);
  if (tr != nullptr && n > 0) [[unlikely]] {
    tr->record(trace::Point::kCqePoll, 0, cq.cqn(), tenant, node, n);
  }
  co_await core.work(core.syscall_cost() + kCordPollWork + v.cpu_cost +
                         static_cast<sim::Time>(n) * kPollHit,
                     Work::kKernel);
  const sim::Time elapsed = engine_->now() - t0;
  tm.syscall_ns->add(static_cast<std::uint64_t>(elapsed) / 1000);
  if ((tr = engine_->tracer()) != nullptr) [[unlikely]] {
    tr->record(trace::Point::kSyscallExit, 0, cq.cqn(), tenant, node,
               static_cast<std::uint64_t>(elapsed));
  }
  co_return n;
}

sim::Task<int> Kernel::submit_send_batch(Core& core, TenantId tenant,
                                         nic::QueuePair& qp,
                                         std::span<nic::SendWr> wrs,
                                         std::span<int> rcs) {
  if (wrs.empty()) co_return 0;  // no syscall, no policy work
  count_flush(wrs.size());
  co_return co_await send_crossing(core, tenant, qp, wrs, rcs);
}

sim::Task<int> Kernel::submit_recv_batch(Core& core, TenantId tenant,
                                         nic::QueuePair& qp,
                                         std::span<const nic::RecvWr> wrs,
                                         std::span<int> rcs) {
  if (wrs.empty()) co_return 0;  // no syscall, no policy work
  count_flush(wrs.size());
  co_return co_await recv_crossing(
      core, tenant, qp.qpn(), wrs, rcs,
      [this, &qp](const nic::RecvWr& w) { return nic_->post_recv(qp, w); });
}

sim::Task<> Kernel::wait_cq_event(Core& core, nic::CompletionQueue& cq) {
  ++syscalls_;
  ++ops_serviced_;
  co_await core.work(core.syscall_cost(), Work::kKernel);
  if (cq.depth() > 0) co_return;  // completion raced ahead of the sleep
  cq.arm();
  if (cq.depth() > 0) co_return;  // re-check after arming (the usual dance)
  co_await cq_signal(cq).wait();
  // IRQ handler + scheduler wakeup on this core.
  co_await core.work(kInterruptHandling + kWakeupLatency, Work::kKernel);
}

namespace {

void append_tenant_line(std::string& out, const trace::MetricsRegistry& m,
                        std::uint32_t t) {
  char buf[256];
  const auto cv = [&](const char* name) -> std::uint64_t {
    const trace::Counter* c = m.find_counter(name, t);
    return c == nullptr ? 0 : c->value;
  };
  std::uint64_t p50 = 0, p99 = 0;
  if (const sim::LogHistogram* h = m.find_histogram("kernel.tenant.syscall_ns", t)) {
    p50 = static_cast<std::uint64_t>(h->percentile(50.0));
    p99 = static_cast<std::uint64_t>(h->percentile(99.0));
  }
  std::snprintf(buf, sizeof buf,
                "tenant %" PRIu32 " post_sends=%" PRIu64 " post_recvs=%" PRIu64
                " polls=%" PRIu64 " tx_bytes=%" PRIu64 " completions=%" PRIu64
                " syscall_p50_ns=%" PRIu64 " syscall_p99_ns=%" PRIu64 "\n",
                t, cv("kernel.tenant.post_sends"), cv("kernel.tenant.post_recvs"),
                cv("kernel.tenant.polls"), cv("kernel.tenant.tx_bytes"),
                cv("kernel.tenant.completions"), p50, p99);
  out += buf;
}

}  // namespace

std::string Kernel::proc_read(std::string_view path) const {
  char buf[256];
  if (path == "metrics") return metrics_.text();
  if (path == "syscalls") {
    // `syscalls` counts crossings (one per batched flush), so it stays
    // truthful under batching; the ops they serviced follow.
    std::snprintf(buf, sizeof buf,
                  "syscalls %" PRIu64 "\nops_serviced %" PRIu64
                  "\nbatch_flushes %" PRIu64 "\nbatch_flushed_ops %" PRIu64
                  "\ninterrupts %" PRIu64 "\n",
                  syscalls_, ops_serviced_, batch_flushes_, batch_flushed_ops_,
                  interrupts_);
    return buf;
  }
  if (path == "tenants") {
    std::string out;
    for (std::uint32_t t : metrics_.labels("kernel.tenant.post_sends")) {
      append_tenant_line(out, metrics_, t);
    }
    return out;
  }
  constexpr std::string_view kTenant = "tenant/";
  if (path.size() > kTenant.size() && path.substr(0, kTenant.size()) == kTenant) {
    const std::uint32_t t =
        static_cast<std::uint32_t>(std::atoi(std::string(path.substr(kTenant.size())).c_str()));
    if (metrics_.find_counter("kernel.tenant.post_sends", t) == nullptr) return {};
    std::string out;
    append_tenant_line(out, metrics_, t);
    return out;
  }
  if (path == "latency") return causal().latency_report();
  if (path == "critpath") return causal().critpath_report();
  constexpr std::string_view kLatency = "latency/";
  if (path.size() > kLatency.size() &&
      path.substr(0, kLatency.size()) == kLatency) {
    const std::uint32_t t = static_cast<std::uint32_t>(
        std::atoi(std::string(path.substr(kLatency.size())).c_str()));
    return causal().tenant_report(t);
  }
  constexpr std::string_view kQp = "qp/";
  if (path.size() > kQp.size() && path.substr(0, kQp.size()) == kQp) {
    const std::uint32_t qpn =
        static_cast<std::uint32_t>(std::atoi(std::string(path.substr(kQp.size())).c_str()));
    const nic::QpCounters* c = qp_counters(qpn);
    if (c == nullptr) return {};
    std::snprintf(buf, sizeof buf,
                  "qp %" PRIu32 " tx_msgs=%" PRIu64 " tx_bytes=%" PRIu64
                  " rx_msgs=%" PRIu64 " rx_bytes=%" PRIu64 "\n",
                  qpn, c->tx_msgs, c->tx_bytes, c->rx_msgs, c->rx_bytes);
    return buf;
  }
  return {};
}

sim::Signal& Kernel::cq_signal(nic::CompletionQueue& cq) {
  auto it = cq_signals_.find(cq.cqn());
  if (it == cq_signals_.end()) {
    it = cq_signals_.emplace(cq.cqn(), std::make_unique<sim::Signal>(*engine_)).first;
  }
  return *it->second;
}

}  // namespace cord::os
