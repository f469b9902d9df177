// Tests for cord::trace::causal — waterfall conservation (bit-exact, for
// every perftest op), critical-path extraction, the
// bounded aggregation layer, the tail-latency watchdog, and the kernel /
// System surfaces they feed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "perftest/perftest.hpp"
#include "trace/causal/aggregate.hpp"
#include "trace/causal/causal.hpp"

namespace {

using namespace cord;
namespace causal = trace::causal;

perftest::Params traced(perftest::TestOp op, int iters = 15) {
  perftest::Params p;
  p.op = op;
  p.msg_size = 4096;
  p.iterations = iters;
  p.warmup = 5;
  p.allow_inline = false;  // non-inline: the chain includes kDmaFetch
  p.client = verbs::ContextOptions{.mode = verbs::DataplaneMode::kCord};
  p.server = verbs::ContextOptions{.mode = verbs::DataplaneMode::kCord};
  p.capture_trace = true;
  return p;
}

/// One synthetic record (defaults chosen so chains are easy to read).
trace::Record rec(trace::Point point, sim::Time t, std::uint32_t span,
                  sim::Time dur = 0, std::uint16_t aux = 0,
                  std::uint64_t arg = 0, std::uint8_t node = 0,
                  std::uint32_t qpn = 0x100, std::uint32_t tenant = 1) {
  trace::Record r;
  r.t = t;
  r.dur = dur;
  r.arg = arg;
  r.span = span;
  r.qpn = qpn;
  r.tenant = tenant;
  r.point = point;
  r.node = node;
  r.aux = aux;
  return r;
}

/// The full 10-point chain of one WR: post at 100, sender CQE at 700.
std::vector<trace::Record> golden_chain(std::uint32_t span = 1) {
  using P = trace::Point;
  return {
      rec(P::kVerbsPostSend, 100, span, 0, /*aux=opcode*/ 2, /*arg=bytes*/ 4096),
      rec(P::kSyscallEnter, 150, span),
      rec(P::kWqePost, 200, span, 0, 0, 4096),
      rec(P::kDoorbell, 210, span, /*dur=*/30),
      rec(P::kWqeFetch, 260, span, /*dur=*/40),   // nic-sched ends at 300
      rec(P::kDmaFetch, 300, span, /*dur=*/100),  // dma-fetch ends at 400
      rec(P::kWireTx, 400, span, /*dur=*/150),    // wire ends at 550
      rec(P::kDmaDeliver, 550, span, /*dur=*/50, 0, 0, /*node=*/1),
      rec(P::kCompletion, 650, span, 0, /*aux=RX*/ 1, 0, /*node=*/1),
      rec(P::kCompletion, 700, span, 0, /*aux=TX*/ 0),
  };
}

// ---------------------------------------------------------------------------
// build_waterfall: exact stage widths, conservation, degenerate chains
// ---------------------------------------------------------------------------

TEST(BuildWaterfall, GoldenChainExactWidths) {
  const auto chain = golden_chain();
  const auto w = causal::build_waterfall(chain);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->post_t, 100);
  EXPECT_EQ(w->end_t, 700);
  EXPECT_EQ(w->e2e(), 600);
  EXPECT_EQ(w->qpn, 0x100u);
  EXPECT_EQ(w->tenant, 1u);
  EXPECT_EQ(w->bytes, 4096u);
  EXPECT_EQ(w->opcode, 2u);
  EXPECT_EQ(w->src_node, 0);
  EXPECT_EQ(w->dst_node, 1);

  using S = causal::Stage;
  EXPECT_EQ((*w)[S::kUserPost].span, 50);   // 100 -> 150 (syscall enter)
  EXPECT_EQ((*w)[S::kKernel].span, 50);     // 150 -> 200 (wqe post)
  EXPECT_EQ((*w)[S::kNicSched].span, 100);  // 200 -> 300 (fetch end)
  EXPECT_EQ((*w)[S::kDmaFetch].span, 100);  // 300 -> 400
  EXPECT_EQ((*w)[S::kWire].span, 150);      // 400 -> 550
  EXPECT_EQ((*w)[S::kDeliver].span, 50);    // 550 -> 600
  EXPECT_EQ((*w)[S::kRemoteCqe].span, 50);  // 600 -> 650
  EXPECT_EQ((*w)[S::kAck].span, 50);        // 650 -> 700
  EXPECT_EQ(w->stage_sum(), w->e2e());

  // nic-sched service = doorbell MMIO (30) + reserved fetch slot (40);
  // the remaining 30 is SQ residency / pipeline queueing.
  EXPECT_EQ((*w)[S::kNicSched].service, 70);
  EXPECT_EQ((*w)[S::kNicSched].queue, 30);
  EXPECT_EQ(w->binding(), S::kWire);
}

TEST(BuildWaterfall, IncompleteChainIsNullopt) {
  auto chain = golden_chain();
  chain.pop_back();  // drop the sender completion
  EXPECT_FALSE(causal::build_waterfall(chain).has_value());
  EXPECT_FALSE(causal::build_waterfall({}).has_value());
}

TEST(BuildWaterfall, MissingStagesCollapseToZeroWidth) {
  // Post + sender completion only: everything rides in the final stage,
  // conservation still holds exactly.
  using P = trace::Point;
  const std::vector<trace::Record> chain = {
      rec(P::kVerbsPostSend, 100, 1),
      rec(P::kCompletion, 300, 1, 0, /*aux=TX*/ 0),
  };
  const auto w = causal::build_waterfall(chain);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->e2e(), 200);
  EXPECT_EQ(w->stage_sum(), 200);
  for (std::size_t i = 0; i + 1 < causal::kStageCount; ++i) {
    EXPECT_EQ(w->stages[i].span, 0) << "stage " << i;
  }
  EXPECT_EQ((*w)[causal::Stage::kAck].span, 200);
}

TEST(BuildWaterfall, BypassChainHasZeroKernelStage) {
  // No syscall milestone: user-space work runs to the WQE post, the
  // kernel stage is empty.
  auto chain = golden_chain();
  chain.erase(chain.begin() + 1);  // drop kSyscallEnter
  const auto w = causal::build_waterfall(chain);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ((*w)[causal::Stage::kUserPost].span, 100);  // 100 -> 200
  EXPECT_EQ((*w)[causal::Stage::kKernel].span, 0);
  EXPECT_EQ(w->stage_sum(), w->e2e());
}

TEST(BuildWaterfall, OutOfOrderMilestonesAreClampedNotNegative) {
  // A deliver milestone beyond the sender CQE (overlapping ACK return)
  // must clamp to the end, never produce negative widths.
  using P = trace::Point;
  const std::vector<trace::Record> chain = {
      rec(P::kVerbsPostSend, 100, 1),
      rec(P::kWireTx, 150, 1, /*dur=*/100),       // wire ends at 250
      rec(P::kDmaDeliver, 260, 1, /*dur=*/500),   // ends at 760 — past end!
      rec(P::kCompletion, 400, 1, 0, /*aux=*/0),  // end at 400
  };
  const auto w = causal::build_waterfall(chain);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->e2e(), 300);
  EXPECT_EQ(w->stage_sum(), 300);
  for (const causal::StageSlice& s : w->stages) {
    EXPECT_GE(s.span, 0);
    EXPECT_GE(s.service, 0);
    EXPECT_GE(s.queue, 0);
  }
  EXPECT_EQ((*w)[causal::Stage::kDeliver].span, 150);  // 250 -> clamp(760)=400
  EXPECT_EQ((*w)[causal::Stage::kAck].span, 0);
}

// ---------------------------------------------------------------------------
// Conservation on real traces: bit-exact for all perftest ops
// ---------------------------------------------------------------------------

TEST(Conservation, BitExactAcrossOps) {
  const auto cfg = core::system_l();
  for (perftest::TestOp op : {perftest::TestOp::kSend, perftest::TestOp::kWrite,
                              perftest::TestOp::kRead}) {
    const auto r = perftest::run_latency(cfg, traced(op));
    ASSERT_EQ(r.trace_dropped, 0u);
    const auto falls = causal::build_waterfalls(r.trace);
    ASSERT_FALSE(falls.empty()) << "op=" << static_cast<int>(op);
    // Independent end-to-end per span, straight from the raw records.
    std::map<std::uint32_t, sim::Time> post, done;
    for (const trace::Record& rc : r.trace) {
      if (rc.span == 0) continue;
      if (rc.point == trace::Point::kVerbsPostSend &&
          (!post.count(rc.span) || rc.t < post[rc.span])) {
        post[rc.span] = rc.t;
      }
      if (rc.point == trace::Point::kCompletion && rc.aux == 0 &&
          (!done.count(rc.span) || rc.t > done[rc.span])) {
        done[rc.span] = rc.t;
      }
    }
    for (const causal::Waterfall& w : falls) {
      // The conservation invariant: stage widths sum to the span's
      // end-to-end latency, bit-exact in integer picoseconds.
      ASSERT_EQ(w.stage_sum(), w.e2e())
          << "op=" << static_cast<int>(op) << " qpn=" << w.qpn;
      ASSERT_TRUE(post.count(w.span) && done.count(w.span));
      ASSERT_EQ(w.e2e(), done[w.span] - post[w.span]);
      for (const causal::StageSlice& s : w.stages) {
        ASSERT_EQ(s.span, s.service + s.queue);
        ASSERT_GE(s.service, 0);
        ASSERT_GE(s.queue, 0);
      }
    }
  }
}

TEST(Conservation, ReportsIdenticalRunToRun) {
  const auto cfg = core::system_l();
  auto reports = [&] {
    const auto r = perftest::run_latency(cfg, traced(perftest::TestOp::kSend));
    causal::Aggregator agg;
    agg.ingest(r.trace);
    EXPECT_GT(agg.spans(), 0u);
    return agg.latency_report() + "\n---\n" + agg.critpath_report();
  };
  EXPECT_EQ(reports(), reports());
}

// ---------------------------------------------------------------------------
// CriticalPath aggregation
// ---------------------------------------------------------------------------

TEST(CriticalPath, AccumulatesAndPicksDominantStage) {
  std::vector<causal::Waterfall> falls;
  for (std::uint32_t i = 1; i <= 3; ++i) {
    const auto w = causal::build_waterfall(golden_chain(i));
    ASSERT_TRUE(w.has_value());
    falls.push_back(*w);
  }
  const causal::CriticalPath cp = causal::critical_path(falls);
  EXPECT_EQ(cp.spans, 3u);
  EXPECT_EQ(cp.total_e2e, 3 * 600);
  EXPECT_EQ(cp.dominant(), causal::Stage::kWire);
  EXPECT_EQ(cp.binding[static_cast<std::size_t>(causal::Stage::kWire)], 3u);
  using S = causal::Stage;
  EXPECT_EQ(cp.stage_span[static_cast<std::size_t>(S::kNicSched)], 300);
  EXPECT_EQ(cp.stage_service[static_cast<std::size_t>(S::kNicSched)], 210);
  EXPECT_EQ(cp.stage_queue[static_cast<std::size_t>(S::kNicSched)], 90);

  const std::string report = causal::critical_path_report(cp);
  EXPECT_NE(report.find("dominant stage wire"), std::string::npos);
  EXPECT_NE(report.find("nic-sched"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Aggregator: bounded state, incremental ingest, watchdog
// ---------------------------------------------------------------------------

/// A minimal chain with an exact e2e, for histogram-level tests.
std::vector<trace::Record> simple_span(std::uint32_t span, sim::Time t0,
                                       sim::Time e2e, std::uint32_t tenant,
                                       std::uint32_t qpn = 0x100) {
  using P = trace::Point;
  return {
      rec(P::kVerbsPostSend, t0, span, 0, 0, 64, 0, qpn, tenant),
      rec(P::kWireTx, t0, span, e2e / 2, 0, 0, 0, qpn, tenant),
      rec(P::kCompletion, t0 + e2e, span, 0, 0, 0, 0, qpn, tenant),
  };
}

TEST(Aggregator, TopKReservoirKeepsSlowestSorted) {
  constexpr std::uint32_t kSpans = 20;
  static_assert(kSpans > causal::Aggregator::kTopK);
  causal::Aggregator agg;
  std::vector<trace::Record> all;
  for (std::uint32_t i = 1; i <= kSpans; ++i) {
    const auto chain = simple_span(i, 1000 * i, 100 * i, /*tenant=*/1);
    all.insert(all.end(), chain.begin(), chain.end());
  }
  agg.ingest(all);
  EXPECT_EQ(agg.spans(), kSpans);
  ASSERT_EQ(agg.slowest().size(), causal::Aggregator::kTopK);
  for (std::size_t k = 0; k < causal::Aggregator::kTopK; ++k) {
    EXPECT_EQ(agg.slowest()[k].e2e(), 100 * (kSpans - k)) << "rank " << k;
  }
  EXPECT_EQ(agg.pending_spans(), 0u);
}

TEST(Aggregator, IncrementalIngestMatchesOneShot) {
  std::vector<trace::Record> all;
  for (std::uint32_t i = 1; i <= 6; ++i) {
    const auto chain = simple_span(i, 1000 * i, 150 * i, /*tenant=*/i % 2);
    all.insert(all.end(), chain.begin(), chain.end());
  }
  causal::Aggregator one;
  one.ingest(all);
  causal::Aggregator inc;
  // Record-at-a-time: spans finalize as their completions arrive.
  for (const trace::Record& r : all) {
    inc.ingest(std::span<const trace::Record>(&r, 1));
  }
  EXPECT_EQ(inc.spans(), one.spans());
  EXPECT_EQ(inc.latency_report(), one.latency_report());
  EXPECT_EQ(inc.critpath_report(), one.critpath_report());
}

TEST(Aggregator, OneCallIngestKeepsEveryCompletedSpan) {
  // More chains than the pending bound, all complete, in one call: the
  // bound applies only to chains still incomplete once the call is done.
  constexpr std::uint32_t kSpans = 70'000;
  static_assert(kSpans > causal::Aggregator::kMaxPendingSpans);
  std::vector<trace::Record> all;
  for (std::uint32_t i = 1; i <= kSpans; ++i) {
    const auto chain =
        simple_span(i, 1000 * i, 100 * (1 + i % 50), /*tenant=*/i % 3);
    all.insert(all.end(), chain.begin(), chain.end());
  }
  causal::Aggregator one;
  one.ingest(all);
  EXPECT_EQ(one.spans(), kSpans);
  EXPECT_EQ(one.pending_evicted(), 0u);
  EXPECT_EQ(one.pending_spans(), 0u);

  causal::Aggregator sliced;
  constexpr std::size_t kSlice = 1u << 14;
  for (std::size_t i = 0; i < all.size(); i += kSlice) {
    sliced.ingest(std::span<const trace::Record>(all).subspan(
        i, std::min(kSlice, all.size() - i)));
  }
  EXPECT_EQ(sliced.spans(), kSpans);
  EXPECT_EQ(one.latency_report(), sliced.latency_report());
  EXPECT_EQ(one.critpath_report(), sliced.critpath_report());
}

TEST(Aggregator, PerTenantHistograms) {
  causal::Aggregator agg;
  std::vector<trace::Record> all;
  auto add = [&](std::uint32_t span, sim::Time e2e, std::uint32_t tenant,
                 std::uint32_t qpn) {
    const auto chain = simple_span(span, 1000 * span, e2e, tenant, qpn);
    all.insert(all.end(), chain.begin(), chain.end());
  };
  add(1, 100, 7, 0x100);
  add(2, 200, 7, 0x100);
  add(3, 400, 9, 0x200);
  agg.ingest(all);
  ASSERT_NE(agg.tenant_e2e(7), nullptr);
  EXPECT_EQ(agg.tenant_e2e(7)->count(), 2u);
  EXPECT_EQ(agg.tenant_e2e(7)->max(), 200u);
  EXPECT_EQ(agg.tenant_e2e(8), nullptr);
  EXPECT_EQ(agg.tenants(), (std::vector<std::uint32_t>{7, 9}));
  EXPECT_EQ(agg.tenant_report(8), "");  // unseen tenant: proc convention
  EXPECT_NE(agg.tenant_report(7).find("tenant 7:"), std::string::npos);
}

TEST(Aggregator, WatchdogFiresOnlyForOverBudgetTenant) {
  causal::Aggregator agg;
  agg.set_slo(/*tenant=*/9, {/*percentile=*/99.0, /*budget=*/500});
  EXPECT_TRUE(agg.watchdog_armed());
  std::vector<trace::Record> all;
  for (std::uint32_t i = 1; i <= 8; ++i) {
    // Tenant 9: e2e 2000 (4x over budget). Tenant 7: same latency, no SLO.
    const auto t9 = simple_span(2 * i, 10'000 * i, 2000, 9, 0x900);
    const auto t7 = simple_span(2 * i + 1, 10'000 * i + 5000, 2000, 7, 0x700);
    all.insert(all.end(), t9.begin(), t9.end());
    all.insert(all.end(), t7.begin(), t7.end());
  }
  agg.ingest(all);
  EXPECT_EQ(agg.spans(), 16u);
  EXPECT_GT(agg.watchdog_violations(), 0u);
  EXPECT_EQ(agg.watchdog_violations(9), agg.watchdog_violations());
  EXPECT_EQ(agg.watchdog_violations(7), 0u);
  ASSERT_FALSE(agg.watchdog_events().empty());
  for (const causal::WatchdogEvent& e : agg.watchdog_events()) {
    EXPECT_EQ(e.tenant, 9u);
    EXPECT_EQ(e.qpn, 0x900u);
    EXPECT_EQ(e.e2e, 2000);
    EXPECT_GT(e.observed_px, 500.0);
    EXPECT_EQ(e.blamed, causal::Stage::kWire);  // wire-tx dur = e2e/2 binds
  }
  EXPECT_NE(agg.latency_report().find("watchdog:"), std::string::npos);
  EXPECT_NE(agg.critpath_report().find("watchdog events"), std::string::npos);
}

TEST(Aggregator, WatchdogQuietWhenUnderBudget) {
  causal::Aggregator agg;
  agg.set_slo(/*tenant=*/3, {99.0, /*budget=*/1'000'000});
  std::vector<trace::Record> all;
  for (std::uint32_t i = 1; i <= 8; ++i) {
    const auto chain = simple_span(i, 10'000 * i, 2000, /*tenant=*/3);
    all.insert(all.end(), chain.begin(), chain.end());
  }
  agg.ingest(all);
  EXPECT_EQ(agg.spans(), 8u);
  EXPECT_EQ(agg.watchdog_violations(), 0u);
  EXPECT_TRUE(agg.watchdog_events().empty());
}

TEST(Aggregator, WatchdogFiresWhenEverySpanIsOverBudget) {
  // Every span takes 7,736 ps, over a p50 budget of 7,000 ps. Interpolating
  // inside the [4,096, 8,192) bucket alone would put p50 at 4,096-6,144 ps,
  // under the budget; the percentile stays inside the samples instead.
  causal::Aggregator agg;
  agg.set_slo(/*tenant=*/9, {50.0, /*budget=*/7000});
  std::vector<trace::Record> all;
  for (std::uint32_t i = 1; i <= 8; ++i) {
    const auto chain = simple_span(i, 10'000 * i, 7736, /*tenant=*/9);
    all.insert(all.end(), chain.begin(), chain.end());
  }
  agg.ingest(all);
  const sim::LogHistogram* e2e = agg.tenant_e2e(9);
  ASSERT_NE(e2e, nullptr);
  for (const double p : {0.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(e2e->percentile(p), 7736.0) << "p" << p;
  }
  EXPECT_EQ(agg.watchdog_violations(9), 8u);
}

// ---------------------------------------------------------------------------
// Kernel and System surfaces
// ---------------------------------------------------------------------------

sim::Task<> ten_sends(core::System& sys, std::uint32_t& qpn_out,
                      int& failures) {
  const auto mode = verbs::DataplaneMode::kCord;
  verbs::Context a(sys.host(0), 0, sys.options(mode, /*tenant=*/5));
  verbs::Context b(sys.host(1), 0, sys.options(mode, /*tenant=*/5));
  auto pd_a = co_await a.alloc_pd();
  auto pd_b = co_await b.alloc_pd();
  auto* scq_a = co_await a.create_cq(64);
  auto* rcq_a = co_await a.create_cq(64);
  auto* scq_b = co_await b.create_cq(64);
  auto* rcq_b = co_await b.create_cq(64);
  auto* qp_a =
      co_await a.create_qp({nic::QpType::kRC, pd_a, scq_a, rcq_a, 64, 64, 220});
  auto* qp_b =
      co_await b.create_qp({nic::QpType::kRC, pd_b, scq_b, rcq_b, 64, 64, 220});
  co_await a.connect_qp(*qp_a, {b.node(), qp_b->qpn()});
  co_await b.connect_qp(*qp_b, {a.node(), qp_a->qpn()});
  qpn_out = qp_a->qpn();

  std::vector<std::byte> src(64, std::byte{0x11});
  std::vector<std::byte> dst(64);
  auto* mr_b =
      co_await b.reg_mr(pd_b, dst.data(), dst.size(), nic::kAccessLocalWrite);
  for (int i = 0; i < 10; ++i) {
    (void)co_await b.post_recv(
        *qp_b,
        {1, {reinterpret_cast<std::uintptr_t>(dst.data()), 64, mr_b->lkey}});
    int rc = co_await a.post_send(
        *qp_a, {.sge = {reinterpret_cast<std::uintptr_t>(src.data()), 64, 0},
                .inline_data = true});
    if (rc != 0) ++failures;
    nic::Cqe wc = co_await a.wait_one(*scq_a);
    if (wc.status != nic::WcStatus::kSuccess) ++failures;
    (void)co_await b.wait_one(*rcq_b);
  }
}

TEST(KernelCausal, ProcReadLatencySurfaces) {
  core::System sys(core::system_l(), 2);
  os::Kernel& kernel = sys.host(0).kernel();
  // Unmeetable SLO (1 ps): every completed span violates.
  kernel.set_latency_slo(/*tenant=*/5, 99.0, /*budget=*/1);
  sys.set_tracing(true);
  std::uint32_t qpn = 0;
  int failures = 0;
  sys.engine().spawn(ten_sends(sys, qpn, failures));
  sys.engine().run();
  ASSERT_EQ(failures, 0);

  const std::string latency = kernel.proc_read("latency");
  EXPECT_NE(latency.find("latency: spans="), std::string::npos);
  EXPECT_NE(latency.find("nic-sched"), std::string::npos);
  EXPECT_NE(latency.find("watchdog: violations="), std::string::npos);

  const std::string tenant = kernel.proc_read("latency/5");
  EXPECT_NE(tenant.find("tenant 5: spans=10"), std::string::npos);
  EXPECT_EQ(kernel.proc_read("latency/42"), "");  // unseen tenant

  const std::string critpath = kernel.proc_read("critpath");
  EXPECT_NE(critpath.find("critical-path: 10 spans"), std::string::npos);
  EXPECT_NE(critpath.find("slowest"), std::string::npos);
  EXPECT_NE(critpath.find("watchdog events"), std::string::npos);

  EXPECT_EQ(kernel.causal().spans(), 10u);
  EXPECT_EQ(kernel.causal().watchdog_violations(5), 10u);
  // The registry gauge reads the same count.
  EXPECT_NE(kernel.proc_read("metrics").find("kernel.watchdog_violations 10"),
            std::string::npos);
}

TEST(KernelCausal, SurfacesEmptyWithoutTracing) {
  core::System sys(core::system_l(), 2);
  os::Kernel& kernel = sys.host(0).kernel();
  std::uint32_t qpn = 0;
  int failures = 0;
  sys.engine().spawn(ten_sends(sys, qpn, failures));
  sys.engine().run();
  ASSERT_EQ(failures, 0);
  // Tracing disarmed: the causal layer saw nothing and says so.
  EXPECT_NE(kernel.proc_read("latency").find("no completed spans"),
            std::string::npos);
  EXPECT_NE(kernel.proc_read("critpath").find("no completed spans"),
            std::string::npos);
  EXPECT_EQ(kernel.proc_read("latency/5"), "");
  EXPECT_EQ(kernel.causal().spans(), 0u);
}

TEST(KernelCausal, EachKernelSeesOnlyItsOwnHostsSpans) {
  core::System sys(core::system_l(), 2);
  // Unmeetable SLOs on both hosts: only the host that posts may fire.
  sys.host(0).kernel().set_latency_slo(/*tenant=*/5, 99.0, /*budget=*/1);
  sys.host(1).kernel().set_latency_slo(/*tenant=*/5, 99.0, /*budget=*/1);
  sys.set_tracing(true);
  std::uint32_t qpn = 0;
  int failures = 0;
  sys.engine().spawn(ten_sends(sys, qpn, failures));
  sys.engine().run();
  ASSERT_EQ(failures, 0);

  // Only host 0 posts sends.
  const os::Kernel& k0 = sys.host(0).kernel();
  const os::Kernel& k1 = sys.host(1).kernel();
  EXPECT_EQ(k0.causal().spans(), 10u);
  EXPECT_EQ(k0.causal().watchdog_violations(5), 10u);
  EXPECT_EQ(k1.causal().spans(), 0u);
  EXPECT_EQ(k1.causal().watchdog_violations(), 0u);
  EXPECT_EQ(k1.proc_read("latency/5"), "");
  EXPECT_NE(k1.proc_read("latency").find("no completed spans"),
            std::string::npos);
  // The System's whole-trace view keeps every host's spans.
  EXPECT_EQ(sys.analyze_causal().spans(), 10u);
}

/// 200 UD datagrams of 2 KiB from tenant 5 on host 0 to host 1, one at a
/// time. A UD datagram's receive completion is recorded after its sender
/// completion (the sender completes at wire egress).
sim::Task<> ud_sends(core::System& sys, int& failures) {
  const auto mode = verbs::DataplaneMode::kCord;
  verbs::Context a(sys.host(0), 0, sys.options(mode, /*tenant=*/5));
  verbs::Context b(sys.host(1), 0, sys.options(mode, /*tenant=*/5));
  auto pd_a = co_await a.alloc_pd();
  auto pd_b = co_await b.alloc_pd();
  auto* cq_a = co_await a.create_cq(64);
  auto* cq_b = co_await b.create_cq(64);
  auto* qp_a =
      co_await a.create_qp({nic::QpType::kUD, pd_a, cq_a, cq_a, 64, 64, 0});
  auto* qp_b =
      co_await b.create_qp({nic::QpType::kUD, pd_b, cq_b, cq_b, 64, 64, 0});
  if (co_await a.connect_qp(*qp_a) != 0 || co_await b.connect_qp(*qp_b) != 0) {
    ++failures;
    co_return;
  }
  constexpr std::uint32_t kBytes = 2048;
  std::vector<std::byte> src(kBytes, std::byte{0x5A});
  std::vector<std::byte> dst(kBytes + nic::kGrhBytes);
  auto* mr_a = co_await a.reg_mr(pd_a, src.data(), src.size(), 0);
  auto* mr_b =
      co_await b.reg_mr(pd_b, dst.data(), dst.size(), nic::kAccessLocalWrite);
  for (int i = 0; i < 200; ++i) {
    (void)co_await b.post_recv(
        *qp_b, {1,
                {reinterpret_cast<std::uintptr_t>(dst.data()),
                 static_cast<std::uint32_t>(dst.size()), mr_b->lkey}});
    int rc = co_await a.post_send(
        *qp_a,
        {.sge = {reinterpret_cast<std::uintptr_t>(src.data()), kBytes,
                 mr_a->lkey},
         .ud = {b.node(), qp_b->qpn()}});
    if (rc != 0) ++failures;
    nic::Cqe wc = co_await a.wait_one(*cq_a);
    if (wc.status != nic::WcStatus::kSuccess) ++failures;
    wc = co_await b.wait_one(*cq_b);
    if (wc.status != nic::WcStatus::kSuccess) ++failures;
  }
}

TEST(KernelCausal, MidRunReadsLeaveTheViewUnchanged) {
  core::System sys(core::system_l(), 2);
  os::Kernel& kernel = sys.host(0).kernel();
  sys.set_tracing(true);
  int failures = 0;
  sys.engine().spawn(ud_sends(sys, failures));
  // Reads spread over the run, at a period unrelated to the sends'; some
  // fall between a datagram's sender and receive completions.
  for (int i = 1; i <= 400; ++i) {
    sys.engine().call_at(sim::us(60) + i * sim::ns(1977),
                         [&kernel] { (void)kernel.proc_read("latency"); });
  }
  sys.engine().run();
  ASSERT_EQ(failures, 0);

  causal::Aggregator whole;
  whole.ingest(sys.tracer().snapshot(), /*origin=*/0);
  const causal::Aggregator view = kernel.causal();
  EXPECT_EQ(whole.spans(), 200u);
  EXPECT_EQ(whole.pending_spans(), 0u);
  EXPECT_EQ(view.spans(), whole.spans());
  EXPECT_EQ(view.pending_spans(), whole.pending_spans());
  EXPECT_EQ(view.latency_report(), whole.latency_report());
  EXPECT_EQ(view.critpath_report(), whole.critpath_report());
}

TEST(SystemCausal, AnalyzeCausalFeedsGauges) {
  core::System sys(core::system_l(), 2);
  sys.set_tracing(true);
  std::uint32_t qpn = 0;
  int failures = 0;
  sys.engine().spawn(ten_sends(sys, qpn, failures));
  sys.engine().run();
  ASSERT_EQ(failures, 0);

  EXPECT_EQ(sys.metrics().gauge_value("causal.spans"), 0);  // not yet built
  const causal::Aggregator& agg = sys.analyze_causal();
  EXPECT_EQ(agg.spans(), 10u);
  EXPECT_EQ(sys.metrics().gauge_value("causal.spans"), 10);
  EXPECT_GT(sys.metrics().gauge_value("causal.p99_e2e_ns"), 0);
  // Rebuilding from the same trace is idempotent.
  sys.analyze_causal();
  EXPECT_EQ(sys.metrics().gauge_value("causal.spans"), 10);
}

}  // namespace
