// observability: what the OS can see and do once it owns the data path.
//
// Two applications talk over CoRD while the "operator" — pure kernel-side
// code, no application cooperation — watches per-tenant traffic through
// the kernel's metrics registry (`Kernel::proc_read`), a StatsCollector
// policy, and per-QP counters, then enforces a security decision by
// revoking one connection mid-run. The whole CoRD phase runs with the
// tracer armed, and the capture is exported as Chrome trace-event JSON
// (load it in https://ui.perfetto.dev to see each work request's post →
// syscall → policy → doorbell → DMA → wire → completion span chain).
//
// The control: the same traffic in bypass mode leaves the kernel blind —
// zero syscalls, zero per-tenant metrics. That contrast is the paper's
// observability argument in one program.
//
// On top of the raw trace, the causal layer turns the capture into
// answers: per-stage latency waterfalls, the critical-path summary, and a
// tail-latency watchdog armed on tenant 9's SLO — all readable through
// the same proc interface ("latency", "latency/<tenant>", "critpath"),
// and offline via `cord-inspect` on the exported artifacts.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "os/policies.hpp"
#include "sim/join.hpp"
#include "trace/export.hpp"

using namespace cord;

namespace {

/// Artifacts land in build/ when run from the source tree (kept out of
/// git); under ctest the working directory is already inside the build
/// tree, so the bare name is fine.
std::string artifact_path(const char* name) {
  std::error_code ec;
  if (std::filesystem::is_directory("build", ec)) {
    return std::string("build/") + name;
  }
  return name;
}

sim::Task<> traffic_loop(core::System& sys, verbs::DataplaneMode mode,
                         os::TenantId tenant, std::size_t msg_size, int count,
                         std::uint32_t& qpn_out, bool& saw_flush) {
  verbs::Context a(sys.host(0), tenant, sys.options(mode, tenant));
  verbs::Context b(sys.host(1), tenant, sys.options(mode, tenant));
  auto pd_a = co_await a.alloc_pd();
  auto pd_b = co_await b.alloc_pd();
  auto* scq_a = co_await a.create_cq(1024);
  auto* rcq_a = co_await a.create_cq(1024);
  auto* scq_b = co_await b.create_cq(1024);
  auto* rcq_b = co_await b.create_cq(1024);
  auto* qp_a = co_await a.create_qp({nic::QpType::kRC, pd_a, scq_a, rcq_a, 64, 1024, 0});
  auto* qp_b = co_await b.create_qp({nic::QpType::kRC, pd_b, scq_b, rcq_b, 64, 1024, 0});
  co_await a.connect_qp(*qp_a, {b.node(), qp_b->qpn()});
  co_await b.connect_qp(*qp_b, {a.node(), qp_a->qpn()});
  qpn_out = qp_a->qpn();

  std::vector<std::byte> payload(msg_size, std::byte{0x3C});
  std::vector<std::byte> sink(msg_size);
  auto* mr_a = co_await a.reg_mr(pd_a, payload.data(), msg_size, 0);
  auto* mr_b = co_await b.reg_mr(pd_b, sink.data(), msg_size, nic::kAccessLocalWrite);

  for (int i = 0; i < count; ++i) {
    (void)co_await b.post_recv(
        *qp_b, {1, {reinterpret_cast<std::uintptr_t>(sink.data()),
                    static_cast<std::uint32_t>(msg_size), mr_b->lkey}});
    int rc = co_await a.post_send(
        *qp_a, {.sge = {reinterpret_cast<std::uintptr_t>(payload.data()),
                        static_cast<std::uint32_t>(msg_size), mr_a->lkey}});
    if (rc != 0) {
      // The QP was revoked under us: posts fail with ENOTCONN from now on
      // (outstanding WRs, had there been any, would surface as flushes).
      saw_flush = true;
      break;
    }
    nic::Cqe wc = co_await a.wait_one(*scq_a);
    if (wc.status != nic::WcStatus::kSuccess) {
      saw_flush = true;  // revocation surfaces as a flush on poll
      break;
    }
    (void)co_await b.wait_one(*rcq_b);
    co_await sys.engine().delay(sim::us(50));
  }
}

/// Count complete span chains in a trace: spans that have both a
/// kVerbsPostSend and a sender-side kCompletion record.
std::size_t complete_chains(const std::vector<trace::Record>& records) {
  std::vector<std::uint8_t> posted, completed;
  auto mark = [](std::vector<std::uint8_t>& v, std::uint32_t span) {
    if (span >= v.size()) v.resize(span + 1, 0);
    v[span] = 1;
  };
  for (const trace::Record& r : records) {
    if (r.span == 0) continue;
    if (r.point == trace::Point::kVerbsPostSend) mark(posted, r.span);
    if (r.point == trace::Point::kCompletion && r.aux == 0) {
      mark(completed, r.span);
    }
  }
  std::size_t n = 0;
  for (std::size_t s = 0; s < posted.size() && s < completed.size(); ++s) {
    if (posted[s] && completed[s]) ++n;
  }
  return n;
}

}  // namespace

int main() {
  std::printf("observability: the kernel watches and polices RDMA tenants\n");

  // ---- Phase 1: CoRD mode — the kernel sees everything -----------------
  std::printf("\n=== CoRD mode ===\n");
  core::System sys(core::system_l(), 2);
  os::Kernel& kernel = sys.host(0).kernel();

  // Operator side: install a stats policy. Pure kernel configuration.
  auto& stats = static_cast<os::StatsCollector&>(
      kernel.policies().install(std::make_unique<os::StatsCollector>()));

  // Arm the tracer for the whole phase: every WR leaves a span chain.
  sys.tracer().set_enabled(true);

  // Arm the tail-latency watchdog: tenant 9's p99 must stay under 5 us.
  // Its 64 KiB payloads take >5.2 us of wire serialization alone at
  // 100 Gbit/s, so the SLO is unmeetable and the watchdog must fire —
  // blaming the wire stage, not the kernel crossing. Tenant 7 (4 KiB)
  // has no SLO and stays clean.
  kernel.set_latency_slo(/*tenant=*/9, /*percentile=*/99.0,
                         /*budget=*/sim::us(5));

  std::uint32_t qpn_good = 0, qpn_bad = 0;
  bool flushed_good = false, flushed_bad = false;
  sys.engine().spawn(traffic_loop(sys, verbs::DataplaneMode::kCord,
                                  /*tenant=*/7, 4096, 400, qpn_good,
                                  flushed_good));
  sys.engine().spawn(traffic_loop(sys, verbs::DataplaneMode::kCord,
                                  /*tenant=*/9, 65536, 400, qpn_bad,
                                  flushed_bad));

  // Mid-run, the operator inspects traffic and revokes tenant 9's QP.
  sys.engine().call_at(sim::ms(5), [&] {
    std::printf("  [t=5ms] operator snapshot (kernel proc_read, no app help):\n");
    std::printf("%s", kernel.proc_read("tenants").c_str());
    std::printf("%s", kernel.proc_read("qp/" + std::to_string(qpn_bad)).c_str());
    std::printf("  [t=5ms] tenant 9 violates policy -> revoking its QP\n");
    if (nic::QueuePair* qp = sys.host(0).nic().find_qp(qpn_bad)) {
      kernel.revoke_qp(*qp);
    }
  });

  sys.engine().run();

  std::printf("\n  tenant 7 (well-behaved): %s\n",
              flushed_good ? "flushed (unexpected!)" : "ran to completion");
  std::printf("  tenant 9 (revoked):      %s\n",
              flushed_bad ? "connection killed by the OS (posts fail, WRs flush)"
                          : "unaffected (bug!)");

  std::printf("\n  final kernel-side accounting:\n%s",
              kernel.proc_read("tenants").c_str());
  std::printf("  policy mirror agrees: tenant 9 saw %llu sends\n",
              static_cast<unsigned long long>(stats.tenant(9).post_sends));
  std::printf("  engine health: clamped_events=%lld\n",
              static_cast<long long>(sys.metrics().gauge_value("engine.clamped_events")));

  // ---- Causal latency attribution (the trace, made answerable) ---------
  std::printf("\n  causal latency view (kernel proc_read(\"latency\")):\n%s",
              kernel.proc_read("latency").c_str());
  std::printf("\n  tenant 9 before revocation (proc_read(\"latency/9\")):\n%s",
              kernel.proc_read("latency/9").c_str());
  std::printf("\n  critical path (proc_read(\"critpath\"), first lines):\n");
  {
    const std::string cp = kernel.proc_read("critpath");
    std::size_t pos = 0;
    for (int i = 0; i < 10 && pos < cp.size(); ++i) {
      const std::size_t eol = cp.find('\n', pos);
      std::printf("%s\n", cp.substr(pos, eol - pos).c_str());
      pos = eol == std::string::npos ? cp.size() : eol + 1;
    }
  }
  const trace::causal::Aggregator view = kernel.causal();
  const std::uint64_t violations_bad = view.watchdog_violations(9);
  const std::uint64_t violations_good = view.watchdog_violations(7);
  std::printf("\n  watchdog: tenant 9 violations=%llu (SLO p99 <= 5 us, "
              "unmeetable at 64 KiB), tenant 7 violations=%llu\n",
              static_cast<unsigned long long>(violations_bad),
              static_cast<unsigned long long>(violations_good));
  const bool watchdog_ok = violations_bad > 0 && violations_good == 0;

  const std::vector<trace::Record> records = sys.tracer().snapshot();
  const std::size_t chains = complete_chains(records);
  const std::string trace_path = artifact_path("observability_trace.json");
  const std::string metrics_path = artifact_path("observability_metrics.txt");
  const bool exported =
      trace::write_chrome_trace_file(trace_path.c_str(), records);
  {
    // The System's registry: the engine, the NIC sums over both hosts and
    // the whole-trace causal view that cord-inspect's machinery section
    // summarizes.
    sys.analyze_causal();
    std::ofstream m(metrics_path);
    m << sys.metrics().text();
  }
  std::printf("  trace: %zu records, %zu complete WQE span chains -> %s\n",
              records.size(), chains,
              exported ? trace_path.c_str() : "(export failed)");
  std::printf("  inspect offline: cord-inspect %s %s\n", trace_path.c_str(),
              metrics_path.c_str());

  const bool cord_visible =
      kernel.metrics().find_counter("kernel.tenant.post_sends", 9) != nullptr &&
      kernel.metrics().find_counter("kernel.tenant.post_sends", 9)->value > 0;

  // ---- Phase 2: bypass mode — the same traffic is invisible ------------
  std::printf("\n=== Bypass mode (control) ===\n");
  core::System sys_bp(core::system_l(), 2);
  std::uint32_t qpn_bp = 0;
  bool flushed_bp = false;
  sys_bp.engine().spawn(traffic_loop(sys_bp, verbs::DataplaneMode::kBypass,
                                     /*tenant=*/7, 4096, 100, qpn_bp,
                                     flushed_bp));
  sys_bp.engine().run();

  os::Kernel& kernel_bp = sys_bp.host(0).kernel();
  const std::string bp_tenants = kernel_bp.proc_read("tenants");
  std::printf("  kernel proc_read(\"tenants\") after 100 bypassed sends: %s\n",
              bp_tenants.empty() ? "(empty — the kernel saw nothing)"
                                 : bp_tenants.c_str());
  std::printf("%s", kernel_bp.proc_read("syscalls").c_str());
  const bool bypass_blind =
      bp_tenants.empty() &&
      kernel_bp.metrics().find_counter("kernel.tenant.post_sends", 7) == nullptr;
  std::printf("  -> %s\n",
              bypass_blind ? "bypass traffic is invisible to the OS"
                           : "unexpected kernel-side visibility (bug!)");

  const bool ok = flushed_bad && !flushed_good && cord_visible && bypass_blind &&
                  exported && chains > 0 && watchdog_ok;
  return ok ? 0 : 1;
}
