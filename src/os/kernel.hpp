// The simulated OS kernel of one host.
//
// Control plane: all verbs object management (PDs, MRs, CQs, QPs) goes
// through the ioctl path with (de)serialization cost — identical for
// bypass and CoRD, as in real RDMA.
//
// Data plane: CoRD's contribution. post_send / post_recv / poll_cq enter
// the kernel via a syscall, run the policy chain, then invoke the
// kernel-level driver, which drives the *same* NIC interface the
// user-level driver uses in bypass mode (the paper's ~250-line mlx5
// change). Without policies, the only overhead is the crossing itself.
//
// The kernel also owns interrupt delivery for armed CQs (the
// "polling removed" path) and the OS-control operations CoRD enables
// (revoking a QP, reading per-QP traffic counters, and the causal latency
// view of its host's spans). Of the causal layer it keeps only the armed
// SLOs: every read builds the view afresh from the whole trace.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "nic/nic.hpp"
#include "os/cpu.hpp"
#include "os/policy.hpp"
#include "sim/event.hpp"
#include "trace/causal/aggregate.hpp"
#include "trace/metrics.hpp"

namespace cord::os {

class Kernel {
 public:
  Kernel(sim::Engine& engine, nic::Nic& nic);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  nic::Nic& nic() { return *nic_; }
  PolicyChain& policies() { return policies_; }

  // --- Control plane (ioctl path; same for bypass and CoRD) ------------
  sim::Task<nic::ProtectionDomainId> alloc_pd(Core& core);
  /// MR (de)registration carries the tenant and runs the policy chain
  /// (kRegMr/kDeregMr): registration churn consumes MR-table slots and
  /// on-NIC contexts, so it is quota-gated even in bypass mode — the
  /// control plane is always kernel-mediated. A denied registration
  /// returns nullptr (the verdict's errno is not surfaced past the ioctl).
  sim::Task<const nic::MemoryRegion*> reg_mr(Core& core, TenantId tenant,
                                             nic::ProtectionDomainId pd,
                                             void* addr, std::size_t len,
                                             std::uint32_t access);
  sim::Task<bool> dereg_mr(Core& core, TenantId tenant, std::uint32_t lkey);
  sim::Task<nic::CompletionQueue*> create_cq(Core& core, std::uint32_t capacity);
  sim::Task<nic::QueuePair*> create_qp(Core& core, const nic::QpConfig& cfg);
  sim::Task<nic::SharedReceiveQueue*> create_srq(Core& core,
                                                 nic::ProtectionDomainId pd,
                                                 std::uint32_t capacity);
  sim::Task<int> modify_qp(Core& core, nic::QueuePair& qp, nic::QpState target,
                           nic::AddressHandle dest = {});
  sim::Task<> destroy_qp(Core& core, std::uint32_t qpn);

  // --- CoRD data plane --------------------------------------------------
  sim::Task<int> post_send(Core& core, TenantId tenant, nic::QueuePair& qp,
                           nic::SendWr wr);
  sim::Task<int> post_recv(Core& core, TenantId tenant, nic::QueuePair& qp,
                           nic::RecvWr wr);
  sim::Task<int> post_srq_recv(Core& core, TenantId tenant,
                               nic::SharedReceiveQueue& srq, nic::RecvWr wr);
  sim::Task<std::size_t> poll_cq(Core& core, TenantId tenant,
                                 nic::CompletionQueue& cq, std::span<nic::Cqe> out);

  // --- Batched submission (io_uring-style, one crossing per flush) ------
  /// Submit a gathered ring of send WRs in ONE kernel crossing: the
  /// syscall/KPTI cost and the SQ doorbell are charged once for the whole
  /// batch, while per-WR driver work and the full policy chain stay
  /// per-op. Per-WR results land in `rcs` (same length as `wrs`); returns
  /// the first nonzero rc, 0 if all were admitted. An empty span is a
  /// strict no-op: no syscall charged, no policy evaluated.
  sim::Task<int> submit_send_batch(Core& core, TenantId tenant,
                                   nic::QueuePair& qp,
                                   std::span<nic::SendWr> wrs,
                                   std::span<int> rcs);
  /// Same amortization for receive posting (the RQ-replenish loops of the
  /// bandwidth workloads): one crossing posts the whole burst.
  sim::Task<int> submit_recv_batch(Core& core, TenantId tenant,
                                   nic::QueuePair& qp,
                                   std::span<const nic::RecvWr> wrs,
                                   std::span<int> rcs);

  // --- Interrupt-driven completion (the "no polling" path) --------------
  /// Arm `cq` and sleep until it signals a completion event. Charges the
  /// syscall, IRQ handling and wakeup costs. Returns immediately if a
  /// completion is already pending.
  sim::Task<> wait_cq_event(Core& core, nic::CompletionQueue& cq);

  // --- OS-control operations enabled by kernel-owned state --------------
  /// Forcibly transition a QP to the error state, flushing its work.
  void revoke_qp(nic::QueuePair& qp) { nic_->qp_set_error(qp); }
  /// Read per-QP traffic counters without application cooperation.
  const nic::QpCounters* qp_counters(std::uint32_t qpn) const {
    const nic::QueuePair* qp = nic_->find_qp(qpn);
    return qp == nullptr ? nullptr : &qp->counters();
  }

  /// User->kernel crossings (one per syscall; one per batched flush).
  /// Historical name — this is the *crossing* count, not the op count.
  std::uint64_t syscall_count() const { return syscalls_; }
  /// Operations serviced across all crossings. Equal to syscall_count()
  /// while every op takes its own syscall; diverges under batching, where
  /// one flush services a whole ring.
  std::uint64_t ops_serviced_count() const { return ops_serviced_; }
  /// Batched flushes performed / ops they carried / deepest flush seen.
  std::uint64_t batch_flushes() const { return batch_flushes_; }
  std::uint64_t batch_flushed_ops() const { return batch_flushed_ops_; }
  std::uint64_t batch_max_wrs() const { return batch_max_wrs_; }
  std::uint64_t interrupt_count() const { return interrupts_; }

  /// Always-zero verdict counts, kept only for perfbench/bench.cpp (as
  /// core::System::sharded() is) until a benchmark change drops its
  /// verdict counters: every WR runs the full chain, nothing is cached.
  struct NoVerdicts {
    struct Stats {
      std::uint64_t hits = 0;
      std::uint64_t misses = 0;
    };
    Stats stats() const { return {}; }
  };
  NoVerdicts verdict_cache() const { return {}; }

  // --- Kernel-side observability (CoRD's motivating capability) ---------
  /// The host's metrics registry. In CoRD mode the data-plane syscalls
  /// account every tenant's ops/bytes/latency here *without application
  /// cooperation*; in bypass mode the data plane never enters the kernel,
  /// so the per-tenant metrics simply never appear. The shared engine's
  /// gauges are not here but in core::System::metrics().
  trace::MetricsRegistry& metrics() { return metrics_; }
  const trace::MetricsRegistry& metrics() const { return metrics_; }

  /// /proc-style query interface. Supported paths:
  ///   "metrics"          full registry dump (one metric per line)
  ///   "syscalls"         syscall / interrupt totals
  ///   "tenants"          one summary line per tenant the kernel has seen
  ///   "tenant/<id>"      detailed metrics for one tenant
  ///   "qp/<qpn>"         traffic counters of one queue pair
  ///   "latency"          causal latency report: e2e percentiles +
  ///                      per-stage share/queue table (trace-derived)
  ///   "latency/<id>"     one tenant's causal latency report
  ///   "critpath"         critical-path summary + slowest-span waterfalls
  /// Unknown paths return the empty string. The latency surfaces, like
  /// the kernel.watchdog_violations gauge, read causal(): nothing runs on
  /// the data path, and they report no completed spans while tracing is
  /// disarmed.
  std::string proc_read(std::string_view path) const;

  // --- causal latency attribution / tail-latency watchdog ---------------
  /// Arm the tail-latency watchdog for one tenant: fire when the tenant's
  /// observed `percentile` of end-to-end latency exceeds `budget`.
  void set_latency_slo(TenantId tenant, double percentile, sim::Time budget) {
    slos_[tenant] = {percentile, budget};
  }
  /// A fresh causal aggregate of the spans this host posted, built with
  /// the armed SLOs from one ingest of the engine tracer's whole trace, so
  /// it does not depend on when or how often it is read. Empty while
  /// tracing is disarmed.
  trace::causal::Aggregator causal() const;

 private:
  /// Hot-path metric handles for one tenant (pointers into metrics_, which
  /// has stable addresses). Created on a tenant's first syscall.
  struct TenantMetrics {
    trace::Counter* post_sends = nullptr;
    trace::Counter* post_recvs = nullptr;
    trace::Counter* polls = nullptr;
    trace::Counter* tx_bytes = nullptr;
    trace::Counter* completions = nullptr;
    sim::LogHistogram* syscall_ns = nullptr;
  };
  /// Serialization + deserialization of ioctl argument structures.
  static constexpr sim::Time kIoctlSerialize = sim::ns(350);
  /// Firmware/command cost of creating or modifying a verbs object.
  static constexpr sim::Time kControlCmd = sim::us(5);
  /// Kernel-level driver work per CoRD post operation (on top of the
  /// user-kernel crossing).
  static constexpr sim::Time kCordPostWork = sim::ns(120);
  /// Kernel-level driver work per CoRD poll operation.
  static constexpr sim::Time kCordPollWork = sim::ns(60);

  /// Dense by tenant id (tenants are small integers in this repo).
  const TenantMetrics& tenant_metrics(TenantId tenant);
  /// Full ioctl round trip: crossing + serialization + command.
  sim::Task<> ioctl(Core& core, sim::Time cmd_cost);
  sim::Signal& cq_signal(nic::CompletionQueue& cq);

  /// The one send crossing behind post_send (n = 1) and
  /// submit_send_batch: one syscall charge, per-WR driver work and full
  /// policy chain, one pacing idle (the largest admitted delay) and one
  /// doorbell if any WR was admitted. A denied WR's errno lands in `rcs`.
  sim::Task<int> send_crossing(Core& core, TenantId tenant, nic::QueuePair& qp,
                               std::span<nic::SendWr> wrs, std::span<int> rcs);
  /// The one receive crossing behind post_recv, post_srq_recv (n = 1) and
  /// submit_recv_batch. `post` hands an admitted WR to the NIC (a QP's RQ
  /// or an SRQ); `qpn` is what the chain and the trace see (0 for an SRQ).
  template <typename PostFn>
  sim::Task<int> recv_crossing(Core& core, TenantId tenant, std::uint32_t qpn,
                               std::span<const nic::RecvWr> wrs,
                               std::span<int> rcs, PostFn post);
  /// The kernel.batch.* accounting of one non-empty flush of `n` WRs.
  void count_flush(std::size_t n) {
    ++batch_flushes_;
    batch_flushed_ops_ += n;
    batch_max_wrs_ = std::max<std::uint64_t>(batch_max_wrs_, n);
  }

  sim::Engine* engine_;
  nic::Nic* nic_;
  PolicyChain policies_;
  std::map<std::uint32_t, std::unique_ptr<sim::Signal>> cq_signals_;
  std::uint64_t syscalls_ = 0;
  std::uint64_t ops_serviced_ = 0;
  std::uint64_t batch_flushes_ = 0;
  std::uint64_t batch_flushed_ops_ = 0;
  std::uint64_t batch_max_wrs_ = 0;
  std::uint64_t interrupts_ = 0;
  trace::MetricsRegistry metrics_;
  std::vector<TenantMetrics> tenant_metrics_;
  /// Tail-latency SLOs armed by set_latency_slo, applied to every causal().
  std::map<TenantId, trace::causal::SloConfig> slos_;
};

/// A host: one NIC, one kernel, N cores. Benchmark processes and MPI
/// ranks bind to cores of a host.
class Host {
 public:
  Host(sim::Engine& engine, fabric::Network& network, nic::NicRegistry& registry,
       nic::NodeId node, const nic::NicConfig& nic_cfg, const CpuModel& cpu)
      : engine_(&engine),
        cpu_model_(cpu),
        nic_(engine, network, registry, node, nic_cfg),
        kernel_(engine, nic_) {}

  sim::Engine& engine() { return *engine_; }
  nic::Nic& nic() { return nic_; }
  Kernel& kernel() { return kernel_; }
  nic::NodeId node() const { return nic_.node(); }

  /// Cores are created on first use; each gets a distinct RNG stream.
  Core& core(std::size_t idx) {
    while (cores_.size() <= idx) {
      cores_.push_back(std::make_unique<Core>(
          *engine_, cpu_model_,
          0xC0FFEEull * (cores_.size() + 1) + nic_.node() * 7919));
    }
    return *cores_[idx];
  }
  std::size_t core_count() const { return cores_.size(); }

 private:
  sim::Engine* engine_;
  CpuModel cpu_model_;
  nic::Nic nic_;
  Kernel kernel_;
  std::vector<std::unique_ptr<Core>> cores_;
};

}  // namespace cord::os
