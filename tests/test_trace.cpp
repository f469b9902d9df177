// Tests for cord::trace: record layout, tracer bounds, metrics registry,
// log histogram, trace determinism, the golden span chain of one RC send
// in CoRD mode, Chrome-trace export, and the kernel's proc_read surface.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "perftest/perftest.hpp"
#include "sim/stats.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace {

using namespace cord;

// ---------------------------------------------------------------------------
// Record / Tracer basics
// ---------------------------------------------------------------------------

TEST(TraceRecord, IsFixedSizePod) {
  static_assert(sizeof(trace::Record) == 40);
  static_assert(std::is_trivially_copyable_v<trace::Record>);
  SUCCEED();
}

TEST(Tracer, DisabledRecordsNothingThroughEngine) {
  sim::Engine engine;
  trace::Tracer tracer(engine);
  EXPECT_EQ(engine.tracer(), nullptr);  // never attached
  tracer.set_enabled(true);
  EXPECT_EQ(engine.tracer(), &tracer);
  tracer.set_enabled(false);
  EXPECT_EQ(engine.tracer(), nullptr);
}

TEST(Tracer, BoundedWithDropCounter) {
  sim::Engine engine;
  trace::Tracer tracer(engine, /*max_records=*/10);
  tracer.set_enabled(true);
  for (int i = 0; i < 25; ++i) {
    tracer.record(trace::Point::kWqePost, tracer.new_span(), 0x100, 1, 0);
  }
  EXPECT_EQ(tracer.size(), 10u);
  EXPECT_EQ(tracer.dropped(), 15u);
  tracer.clear();
  EXPECT_TRUE(tracer.empty());
  EXPECT_EQ(tracer.dropped(), 0u);
  tracer.record(trace::Point::kWqePost, 1, 0x100, 1, 0);
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(Tracer, SlabGrowthPreservesOrder) {
  sim::Engine engine;
  trace::Tracer tracer(engine, 1u << 16);
  tracer.set_enabled(true);
  const std::size_t n = 5000;  // spans multiple 2048-record slabs
  for (std::size_t i = 0; i < n; ++i) {
    tracer.record(trace::Point::kWireTx, static_cast<std::uint32_t>(i + 1),
                  0x100, 0, 0, /*arg=*/i);
  }
  ASSERT_EQ(tracer.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(tracer[i].arg, i);
    EXPECT_EQ(tracer[i].span, i + 1);
  }
}

TEST(Tracer, DetachesFromEngineOnDestruction) {
  sim::Engine engine;
  {
    trace::Tracer tracer(engine);
    tracer.set_enabled(true);
    ASSERT_EQ(engine.tracer(), &tracer);
  }
  EXPECT_EQ(engine.tracer(), nullptr);
}

// ---------------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------------

TEST(LogHistogram, CountsAndPercentiles) {
  sim::LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(99.0), 0.0);
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<std::uint64_t>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 0.01);
  // Log-bucketed: percentiles are octave-accurate, not exact.
  EXPECT_GT(h.percentile(50.0), 250.0);
  EXPECT_LT(h.percentile(50.0), 1000.0);
  EXPECT_LE(h.percentile(99.0), 1000.0);
  EXPECT_GE(h.percentile(99.0), h.percentile(50.0));
}

TEST(LogHistogram, FixedMemoryAcrossWideRange) {
  sim::LogHistogram h;
  h.add(0);
  h.add(1);
  h.add(std::uint64_t{1} << 63);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max(), std::uint64_t{1} << 63);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterGaugeHistogramRoundTrip) {
  trace::MetricsRegistry m;
  m.counter("ops", 1).add(3);
  m.counter("ops", 1).add();          // same entry
  m.counter("ops", 2).add(10);
  m.gauge("depth").set(-4);
  m.histogram("lat", 1).add(100);
  EXPECT_EQ(m.find_counter("ops", 1)->value, 4u);
  EXPECT_EQ(m.find_counter("ops", 2)->value, 10u);
  EXPECT_EQ(m.gauge_value("depth"), -4);
  EXPECT_EQ(m.find_histogram("lat", 1)->count(), 1u);
  EXPECT_EQ(m.find_counter("missing"), nullptr);
  EXPECT_EQ(m.find_counter("ops", 3), nullptr);
  // Kind mismatch is a programming error.
  EXPECT_THROW(m.gauge("ops", 1), std::logic_error);
}

TEST(MetricsRegistry, LabelsSortedAndCallbackGauge) {
  trace::MetricsRegistry m;
  m.counter("t.ops", 9).add();
  m.counter("t.ops", 2).add();
  m.counter("t.ops", 5).add();
  m.counter("t.ops").add();  // unlabelled entry excluded from labels()
  const auto labels = m.labels("t.ops");
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], 2u);
  EXPECT_EQ(labels[1], 5u);
  EXPECT_EQ(labels[2], 9u);

  std::int64_t live = 7;
  m.callback_gauge("live", [&live] { return live; });
  EXPECT_EQ(m.gauge_value("live"), 7);
  live = 42;
  EXPECT_EQ(m.gauge_value("live"), 42);
}

TEST(MetricsRegistry, TextAndCsvAreDeterministic) {
  trace::MetricsRegistry m;
  m.counter("b.ops", 2).add(5);
  m.counter("a.ops").add(1);
  m.histogram("lat", 1).add(64);
  const std::string t1 = m.text();
  const std::string t2 = m.text();
  EXPECT_EQ(t1, t2);
  // Sorted map order: "a.ops" line precedes "b.ops".
  EXPECT_LT(t1.find("a.ops"), t1.find("b.ops"));
  EXPECT_NE(t1.find("lat"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: trace capture via perftest
// ---------------------------------------------------------------------------

perftest::Params traced_params(verbs::DataplaneMode mode, int iters = 30) {
  perftest::Params p;
  p.op = perftest::TestOp::kSend;
  p.msg_size = 4096;
  p.iterations = iters;
  p.warmup = 5;
  p.allow_inline = false;  // non-inline: the chain includes kDmaFetch
  p.client = verbs::ContextOptions{.mode = mode};
  p.server = verbs::ContextOptions{.mode = mode};
  p.capture_trace = true;
  return p;
}

TEST(TraceCapture, DeterministicAcrossIdenticalRuns) {
  const auto cfg = core::system_l();
  const auto p = traced_params(verbs::DataplaneMode::kCord);
  auto r1 = perftest::run_latency(cfg, p);
  auto r2 = perftest::run_latency(cfg, p);
  ASSERT_FALSE(r1.trace.empty());
  ASSERT_EQ(r1.trace.size(), r2.trace.size());
  EXPECT_EQ(r1.trace_dropped, 0u);
  // Byte-identical streams: traces are diffable artifacts.
  EXPECT_EQ(std::memcmp(r1.trace.data(), r2.trace.data(),
                        r1.trace.size() * sizeof(trace::Record)),
            0);
}

TEST(TraceCapture, TracingAddsNoVirtualTime) {
  const auto cfg = core::system_l();
  auto p = traced_params(verbs::DataplaneMode::kCord);
  auto traced = perftest::run_latency(cfg, p);
  p.capture_trace = false;
  auto plain = perftest::run_latency(cfg, p);
  // The observer must not distort the measurement.
  EXPECT_DOUBLE_EQ(traced.avg_us, plain.avg_us);
  EXPECT_DOUBLE_EQ(traced.p99_us, plain.p99_us);
}

/// Golden span-chain test: one RC send in CoRD mode must produce the
/// paper's full latency breakdown, in causal order.
TEST(TraceCapture, GoldenSpanChainCordRcSend) {
  const auto cfg = core::system_l();
  const auto r =
      perftest::run_latency(cfg, traced_params(verbs::DataplaneMode::kCord, 5));
  ASSERT_FALSE(r.trace.empty());

  // Pick the first span that has a sender-side completion (a client data
  // send that ran to completion).
  std::uint32_t span = 0;
  for (const auto& rec : r.trace) {
    if (rec.point == trace::Point::kCompletion && rec.aux == 0 &&
        rec.span != 0) {
      span = rec.span;
      break;
    }
  }
  ASSERT_NE(span, 0u) << "no completed span found in trace";

  std::map<trace::Point, sim::Time> at;
  for (const auto& rec : r.trace) {
    if (rec.span == span && !at.contains(rec.point)) at[rec.point] = rec.t;
  }
  // The complete chain, user space -> kernel -> NIC -> wire -> CQE.
  for (trace::Point pt :
       {trace::Point::kVerbsPostSend, trace::Point::kSyscallEnter,
        trace::Point::kWqePost, trace::Point::kDoorbell,
        trace::Point::kWqeFetch, trace::Point::kDmaFetch,
        trace::Point::kWireTx, trace::Point::kDmaDeliver,
        trace::Point::kCompletion}) {
    ASSERT_TRUE(at.contains(pt)) << "span missing " << trace::to_string(pt);
  }
  EXPECT_LE(at[trace::Point::kVerbsPostSend], at[trace::Point::kSyscallEnter]);
  EXPECT_LE(at[trace::Point::kSyscallEnter], at[trace::Point::kWqePost]);
  EXPECT_LE(at[trace::Point::kWqePost], at[trace::Point::kDoorbell]);
  EXPECT_LE(at[trace::Point::kDoorbell], at[trace::Point::kWqeFetch]);
  EXPECT_LE(at[trace::Point::kWqeFetch], at[trace::Point::kDmaFetch]);
  EXPECT_LE(at[trace::Point::kDmaFetch], at[trace::Point::kWireTx]);
  EXPECT_LE(at[trace::Point::kWireTx], at[trace::Point::kDmaDeliver]);
  EXPECT_LE(at[trace::Point::kDmaDeliver], at[trace::Point::kCompletion]);
}

TEST(TraceCapture, BypassModeSkipsKernelPoints) {
  const auto cfg = core::system_l();
  const auto r =
      perftest::run_latency(cfg, traced_params(verbs::DataplaneMode::kBypass, 5));
  ASSERT_FALSE(r.trace.empty());
  bool saw_post = false;
  for (const auto& rec : r.trace) {
    EXPECT_NE(rec.point, trace::Point::kSyscallEnter);
    EXPECT_NE(rec.point, trace::Point::kSyscallExit);
    EXPECT_NE(rec.point, trace::Point::kPolicyEval);
    if (rec.point == trace::Point::kVerbsPostSend) saw_post = true;
  }
  EXPECT_TRUE(saw_post);  // user-space points still fire
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

/// Minimal structural JSON validation: balanced braces/brackets outside
/// strings, and the trace-event envelope with one object per record.
void validate_json_structure(const std::string& json, std::size_t records) {
  long depth_obj = 0, depth_arr = 0;
  bool in_string = false, escaped = false;
  std::size_t events = 0;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
        if (depth_obj == 1 && depth_arr == 1) ++events;
        ++depth_obj;
        break;
      case '}': --depth_obj; ASSERT_GE(depth_obj, 0); break;
      case '[': ++depth_arr; break;
      case ']': --depth_arr; ASSERT_GE(depth_arr, 0); break;
      default: break;
    }
  }
  EXPECT_EQ(depth_obj, 0);
  EXPECT_EQ(depth_arr, 0);
  EXPECT_FALSE(in_string);
  EXPECT_EQ(events, records);
}

TEST(ChromeTraceExport, ValidJsonWithOneEventPerRecord) {
  const auto cfg = core::system_l();
  const auto r =
      perftest::run_latency(cfg, traced_params(verbs::DataplaneMode::kCord, 5));
  ASSERT_FALSE(r.trace.empty());
  const std::string json = trace::chrome_trace_json(r.trace);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["), 0u);
  validate_json_structure(json, r.trace.size());
  // Spot-check vocabulary: slices and instants both present.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"wire-tx\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exporter round-tripping: export -> reparse recovers the records exactly
// ---------------------------------------------------------------------------

TEST(PointNames, RoundTripEveryPoint) {
  for (std::uint8_t i = 0; i < static_cast<std::uint8_t>(trace::Point::kCount);
       ++i) {
    const auto p = static_cast<trace::Point>(i);
    EXPECT_EQ(trace::point_from_name(trace::to_string(p)), p);
  }
  EXPECT_EQ(trace::point_from_name("not-a-point"), trace::Point::kCount);
  EXPECT_EQ(trace::point_from_name(""), trace::Point::kCount);
}

TEST(ExportRoundTrip, CsvIsByteExact) {
  const auto cfg = core::system_l();
  const auto r =
      perftest::run_latency(cfg, traced_params(verbs::DataplaneMode::kCord, 5));
  ASSERT_FALSE(r.trace.empty());
  const std::string csv = trace::records_csv(r.trace);
  ASSERT_FALSE(csv.empty());
  const std::vector<trace::Record> parsed = trace::parse_records_csv(csv);
  ASSERT_EQ(parsed.size(), r.trace.size());
  // Field-exact: the 40-byte PODs memcmp equal...
  EXPECT_EQ(std::memcmp(parsed.data(), r.trace.data(),
                        parsed.size() * sizeof(trace::Record)),
            0);
  // ...and re-exporting reproduces the identical bytes.
  EXPECT_EQ(trace::records_csv(parsed), csv);
}

TEST(ExportRoundTrip, ChromeJsonIsByteExact) {
  const auto cfg = core::system_l();
  const auto r =
      perftest::run_latency(cfg, traced_params(verbs::DataplaneMode::kCord, 5));
  ASSERT_FALSE(r.trace.empty());
  const std::string json = trace::chrome_trace_json(r.trace);
  const std::vector<trace::Record> parsed = trace::parse_chrome_trace(json);
  ASSERT_EQ(parsed.size(), r.trace.size());
  // The %.6f microsecond encoding is exact at 1 ps granularity, so even
  // the picosecond timestamps survive the text round trip bit-for-bit.
  EXPECT_EQ(std::memcmp(parsed.data(), r.trace.data(),
                        parsed.size() * sizeof(trace::Record)),
            0);
  EXPECT_EQ(trace::chrome_trace_json(parsed), json);
}

TEST(ExportRoundTrip, ParsersSkipJunkLines) {
  const std::string csv =
      "t_ps,dur_ps,point,span,qpn,tenant,node,arg,aux\n"
      "garbage line\n"
      "100,5,wire-tx,1,256,2,0,64,0\n"
      "100,5,no-such-point,1,256,2,0,64,0\n"
      "100,5,wire-tx,1,256,2,999,64,0\n"  // node > 0xFF
      "\n";
  const auto parsed = trace::parse_records_csv(csv);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].t, 100);
  EXPECT_EQ(parsed[0].dur, 5);
  EXPECT_EQ(parsed[0].point, trace::Point::kWireTx);
  EXPECT_EQ(parsed[0].qpn, 256u);
  EXPECT_EQ(trace::parse_chrome_trace("{\"traceEvents\":[]}").size(), 0u);
  EXPECT_EQ(trace::parse_chrome_trace("not json at all").size(), 0u);
}

// ---------------------------------------------------------------------------
// Kernel-side observability surface
// ---------------------------------------------------------------------------

/// Ten 64-byte RC sends from host 0 to host 1 as tenant 5. No gtest
/// macros inside: ASSERT_* expands to a plain `return`, which is
/// ill-formed in a coroutine — failures are counted instead.
sim::Task<> ten_sends(core::System& sys, verbs::DataplaneMode mode,
                      std::uint32_t& qpn_out, int& failures) {
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

TEST(ProcRead, CordModePopulatesTenantMetricsBypassDoesNot) {
  for (const bool cord : {true, false}) {
    SCOPED_TRACE(cord ? "cord" : "bypass");
    const auto mode =
        cord ? verbs::DataplaneMode::kCord : verbs::DataplaneMode::kBypass;
    core::System sys(core::system_l(), 2);
    std::uint32_t qpn = 0;
    int failures = 0;
    sys.engine().spawn(ten_sends(sys, mode, qpn, failures));
    sys.engine().run();
    ASSERT_EQ(failures, 0);
    ASSERT_NE(qpn, 0u);

    os::Kernel& k = sys.host(0).kernel();
    const std::string tenants = k.proc_read("tenants");
    if (cord) {
      // Per-tenant ops/bytes/latency, kernel-side, no app cooperation.
      EXPECT_NE(tenants.find("tenant 5"), std::string::npos) << tenants;
      EXPECT_NE(tenants.find("post_sends=10"), std::string::npos) << tenants;
      EXPECT_NE(tenants.find("tx_bytes=640"), std::string::npos) << tenants;
      EXPECT_NE(tenants.find("syscall_p99_ns="), std::string::npos);
      const auto* h = k.metrics().find_histogram("kernel.tenant.syscall_ns", 5);
      ASSERT_NE(h, nullptr);
      EXPECT_GT(h->count(), 0u);
      EXPECT_GT(h->percentile(50.0), 0.0);
      // tenant/<id> and metrics views agree.
      EXPECT_EQ(k.proc_read("tenant/5"), tenants);
      EXPECT_NE(k.proc_read("metrics").find("kernel.tenant.post_sends"),
                std::string::npos);
      const std::string qp = k.proc_read("qp/" + std::to_string(qpn));
      EXPECT_NE(qp.find("tx_msgs=10"), std::string::npos) << qp;
    } else {
      // Bypass: the kernel never saw the data plane.
      EXPECT_TRUE(tenants.empty()) << tenants;
      EXPECT_EQ(k.metrics().find_counter("kernel.tenant.post_sends", 5),
                nullptr);
    }
    EXPECT_TRUE(k.proc_read("bogus/path").empty());
  }
}

TEST(SystemMetrics, EngineGaugesAreLive) {
  core::System sys(core::system_l(), 2);
  EXPECT_EQ(sys.metrics().gauge_value("engine.events_processed"), 0);
  sys.engine().call_in(sim::ns(5), [] {});
  sys.engine().run();
  EXPECT_GT(sys.metrics().gauge_value("engine.events_processed"), 0);
  EXPECT_EQ(sys.metrics().gauge_value("engine.clamped_events"), 0);
}

TEST(SystemMetrics, QueueGaugesMirrorEngineStats) {
  core::System sys(core::system_l(), 2);
  // Before any load: the gauge exists and reads zero.
  EXPECT_EQ(sys.metrics().gauge_value("engine.queue_peak_depth"), 0);
  int fired = 0;
  for (int i = 0; i < 5000; ++i) {
    sys.engine().call_at(sim::ns(10 + i * 5), [&fired] { ++fired; });
  }
  sys.engine().run();
  EXPECT_EQ(fired, 5000);
  EXPECT_EQ(sys.metrics().gauge_value("engine.queue_peak_depth"), 5000);
  // The same stats surface per host through the kernel's /proc-style
  // metrics read — the Kernel::proc_read("metrics") observability path.
  const std::string dump = sys.host(0).kernel().proc_read("metrics");
  EXPECT_NE(dump.find("engine.queue_depth"), std::string::npos);
  EXPECT_NE(dump.find("engine.queue_peak_depth"), std::string::npos);
  EXPECT_EQ(
      sys.host(0).kernel().metrics().gauge_value("engine.queue_peak_depth"),
      5000);
  EXPECT_EQ(sys.host(0).kernel().metrics().gauge_value("engine.queue_depth"),
            0);
}

TEST(SystemMetrics, NicGaugesMirrorDoorbellAndBurstCounters) {
  // Ten sequential RC sends (each waits for its completion): every post
  // rings its own doorbell, activates one burst of one WR, and the fused
  // drain (no tracer attached) segments one 64-byte chunk per message.
  core::System sys(core::system_l(), 2);
  std::uint32_t qpn = 0;
  int failures = 0;
  sys.engine().spawn(ten_sends(sys, verbs::DataplaneMode::kCord, qpn, failures));
  sys.engine().run();
  ASSERT_EQ(failures, 0);

  // System-wide sums over hosts.
  EXPECT_EQ(sys.metrics().gauge_value("nic.doorbells"), 10);
  EXPECT_EQ(sys.metrics().gauge_value("nic.doorbells_coalesced"), 0);
  EXPECT_EQ(sys.metrics().gauge_value("nic.sq_bursts"), 10);
  EXPECT_EQ(sys.metrics().gauge_value("nic.sq_burst_wrs"), 10);
  EXPECT_EQ(sys.metrics().gauge_value("nic.sq_fused_batches"), 10);
  EXPECT_EQ(sys.metrics().gauge_value("nic.seg_msgs"), 10);
  EXPECT_EQ(sys.metrics().gauge_value("nic.seg_chunks"), 10);

  // Per-host mirror through the kernel's /proc-style metrics read: host 0
  // did all the sending, host 1 none.
  os::Kernel& k0 = sys.host(0).kernel();
  const std::string dump = k0.proc_read("metrics");
  for (const char* name :
       {"nic.doorbells", "nic.doorbells_coalesced", "nic.sq_bursts",
        "nic.sq_burst_wrs", "nic.sq_fused_batches", "nic.seg_msgs",
        "nic.seg_chunks"}) {
    EXPECT_NE(dump.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(k0.metrics().gauge_value("nic.sq_burst_wrs"), 10);
  EXPECT_EQ(sys.host(1).kernel().metrics().gauge_value("nic.sq_burst_wrs"), 0);
}

}  // namespace
