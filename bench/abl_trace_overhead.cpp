// Ablation: what does cord::trace cost?
//
// The tracing contract is "branch-cheap when disabled": every trace point
// is one predicted null-pointer check, and the engine hot loop contains
// no trace code at all. This bench quantifies that claim:
//
//   * ScheduleDispatch_NoTracer vs ScheduleDispatch_TracerIdle — the
//     engine's schedule/dispatch hot path with no Tracer object vs with a
//     Tracer constructed but disabled. These must be indistinguishable
//     (the engine only carries a never-read null pointer).
//   * ScheduleDispatch_CausalIdle — the same path with the full causal
//     analysis layer instantiated and its watchdog armed, tracing still
//     disabled. The causal layer is pull-based (it only reads the trace
//     buffer when a report is requested), so this too must be
//     indistinguishable from NoTracer.
//   * SendPath_TracingOff vs SendPath_TracingOn — a full RC send through
//     the NIC model with trace points compiled in but disarmed, vs armed
//     and recording ~10 records per message.
//   * Component costs: raw record append, retained-counter increment,
//     log-histogram insert.
//
// The bench gate (cmake/bench_gate.cmake) runs this binary and fails if
// the disabled-tracing engine path regresses against the no-tracer path.
#include <benchmark/benchmark.h>

#include <vector>

#include "nic/nic.hpp"
#include "sim/engine.hpp"
#include "trace/causal/aggregate.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace {

using namespace cord;

void BM_ScheduleDispatch_NoTracer(benchmark::State& state) {
  sim::Engine engine;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    engine.call_in(sim::ns(10), [&] { ++fired; });
    engine.run();
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_ScheduleDispatch_NoTracer);

void BM_ScheduleDispatch_TracerIdle(benchmark::State& state) {
  sim::Engine engine;
  trace::Tracer tracer(engine);  // constructed, never enabled
  std::uint64_t fired = 0;
  for (auto _ : state) {
    engine.call_in(sim::ns(10), [&] { ++fired; });
    engine.run();
  }
  benchmark::DoNotOptimize(fired);
  benchmark::DoNotOptimize(tracer.size());
}
BENCHMARK(BM_ScheduleDispatch_TracerIdle);

void BM_ScheduleDispatch_CausalIdle(benchmark::State& state) {
  sim::Engine engine;
  trace::Tracer tracer(engine);  // constructed, never enabled
  trace::causal::Aggregator causal;
  causal.set_slo(/*tenant=*/0, {99.0, sim::us(1)});  // watchdog armed, never fed
  std::uint64_t fired = 0;
  for (auto _ : state) {
    engine.call_in(sim::ns(10), [&] { ++fired; });
    engine.run();
  }
  benchmark::DoNotOptimize(fired);
  benchmark::DoNotOptimize(tracer.size());
  benchmark::DoNotOptimize(causal.spans());
}
BENCHMARK(BM_ScheduleDispatch_CausalIdle);

/// One inline RC send end-to-end through the NIC model (mirrors
/// micro_sim's BM_NicEndToEndMessage so numbers are comparable).
struct SendFixture {
  sim::Engine engine;
  fabric::Network net{engine, 2, sim::Bandwidth::gbit_per_sec(100.0),
                      sim::ns(150)};
  nic::NicRegistry reg;
  nic::Nic n0{engine, net, reg, 0, {}};
  nic::Nic n1{engine, net, reg, 1, {}};
  nic::QueuePair* qp0 = nullptr;
  nic::QueuePair* qp1 = nullptr;
  nic::CompletionQueue* cq0 = nullptr;
  nic::CompletionQueue* cq1 = nullptr;
  std::vector<std::byte> src = std::vector<std::byte>(64);
  std::vector<std::byte> dst = std::vector<std::byte>(4096);
  const nic::MemoryRegion* rmr = nullptr;

  SendFixture() {
    auto pd0 = n0.alloc_pd();
    auto pd1 = n1.alloc_pd();
    cq0 = n0.create_cq(1u << 20);
    cq1 = n1.create_cq(1u << 20);
    qp0 = n0.create_qp({nic::QpType::kRC, pd0, cq0, cq0, 1u << 16, 1u << 16, 220});
    qp1 = n1.create_qp({nic::QpType::kRC, pd1, cq1, cq1, 1u << 16, 1u << 16, 220});
    n0.modify_qp(*qp0, nic::QpState::kInit);
    n0.modify_qp(*qp0, nic::QpState::kRtr, {1, qp1->qpn()});
    n0.modify_qp(*qp0, nic::QpState::kRts);
    n1.modify_qp(*qp1, nic::QpState::kInit);
    n1.modify_qp(*qp1, nic::QpState::kRtr, {0, qp0->qpn()});
    n1.modify_qp(*qp1, nic::QpState::kRts);
    rmr = &n1.register_mr(pd1, dst.data(), dst.size(), nic::kAccessLocalWrite);
  }

  void one_message(std::vector<nic::Cqe>& wc) {
    n1.post_recv(*qp1, {1, {reinterpret_cast<std::uintptr_t>(dst.data()), 4096,
                            rmr->lkey}});
    n0.post_send(*qp0,
                 {.sge = {reinterpret_cast<std::uintptr_t>(src.data()), 64, 0},
                  .inline_data = true});
    engine.run();
    while (cq0->poll(wc) > 0) {
    }
    while (cq1->poll(wc) > 0) {
    }
  }
};

void BM_SendPath_TracingOff(benchmark::State& state) {
  SendFixture f;
  trace::Tracer tracer(f.engine);  // trace points see a null engine tracer
  std::vector<nic::Cqe> wc(16);
  for (auto _ : state) f.one_message(wc);
  state.SetLabel("trace points disarmed");
  benchmark::DoNotOptimize(tracer.size());
}
BENCHMARK(BM_SendPath_TracingOff);

void BM_SendPath_TracingOn(benchmark::State& state) {
  SendFixture f;
  trace::Tracer tracer(f.engine);
  tracer.set_enabled(true);
  std::vector<nic::Cqe> wc(16);
  std::uint64_t records = 0;
  for (auto _ : state) {
    f.one_message(wc);
    records += tracer.size();
    tracer.clear();  // keep the buffer from saturating mid-bench
  }
  state.SetLabel("trace points armed");
  benchmark::DoNotOptimize(records);
}
BENCHMARK(BM_SendPath_TracingOn);

void BM_TracerRecordAppend(benchmark::State& state) {
  sim::Engine engine;
  trace::Tracer tracer(engine, /*max_records=*/1u << 22);
  std::uint32_t span = 0;
  for (auto _ : state) {
    tracer.record(trace::Point::kWqePost, ++span, 0x100, 7, 0, 4096);
    if (tracer.size() == tracer.capacity()) tracer.clear();
  }
  benchmark::DoNotOptimize(tracer.dropped());
}
BENCHMARK(BM_TracerRecordAppend);

void BM_MetricsCounterAdd(benchmark::State& state) {
  trace::MetricsRegistry registry;
  trace::Counter& c = registry.counter("kernel.tenant.tx_bytes", 7);
  for (auto _ : state) {
    c.add(4096);
  }
  benchmark::DoNotOptimize(c.value);
}
BENCHMARK(BM_MetricsCounterAdd);

void BM_LogHistogramAdd(benchmark::State& state) {
  sim::LogHistogram h;
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.add(v);
    v = v * 2862933555777941757ull + 3037000493ull;  // cheap LCG spread
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_LogHistogramAdd);

}  // namespace

BENCHMARK_MAIN();
