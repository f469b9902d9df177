// Host-cost benchmark driver: runs one named workload of the simulator in
// this process (single engine, no extra threads), measures host time per
// layer call, reads the per-layer counters through public accessors, and
// prints one JSON line per point run for run.py to check and aggregate.
//
//   perfbench --workload npb_cg|npb_is|perftest_bw [--size full|smoke]
//             [--seed N] [--seconds S] [--trace 0|1] [--reference]
//             [--spans FILE]
//
// Output lines (stdout):
//   POINT {...}  one per point run: host times, simulated outputs, counters
//                (and, for traced runs, trace volume and the causal
//                aggregate of the time-ordered merged trace);
//   RUN {...}    once at the end: passes made, peak RSS.
//
// The seed only permutes the order of a workload's points. Every point
// builds a fresh core::System, so the order moves host state (allocator and
// arena warmth) and never a simulated output.
//
// --reference runs each point once through the library entry points
// (npb::run, perftest::run_bandwidth) and prints only the simulated
// outputs; run.py stores them as the expected outputs. The perftest points
// are otherwise driven by a copy of perftest's windowed bandwidth loop over
// a System built here, because run_bandwidth keeps its System private and
// the engine, NIC and kernel counters are read from that System; the
// stored expected outputs pin the copy to the library bit for bit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/system.hpp"
#include "mpi/world.hpp"
#include "npb/npb.hpp"
#include "perftest/perftest.hpp"
#include "sim/join.hpp"
#include "trace/causal/aggregate.hpp"

namespace {

using namespace cord;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

class Json {
 public:
  Json& num(std::string_view k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(k, buf);
  }
  Json& u64(std::string_view k, std::uint64_t v) { return raw(k, std::to_string(v)); }
  Json& i64(std::string_view k, std::int64_t v) { return raw(k, std::to_string(v)); }
  Json& str(std::string_view k, std::string_view v) {
    return raw(k, "\"" + std::string(v) + "\"");
  }
  Json& raw(std::string_view k, std::string_view json) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += k;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

template <typename T>
std::string json_array(const T& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Host-time spans around every call the benchmark makes into a layer. Kept
// in memory and written out once at the end.
// ---------------------------------------------------------------------------

class Spans {
 public:
  struct Span {
    std::string name;
    std::string point;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Spans& spans, int id) : spans_(&spans), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { spans_->close(id_); }

   private:
    Spans* spans_;
    int id_;
  };

  Scope scope(std::string name, std::string point) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), std::move(point), now(), 0.0,
                      open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return Scope(*this, id);
  }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"id\":%zu,\"name\":\"%s\",\"point\":\"%s\","
                   "\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d}\n",
                   i == 0 ? "" : ",", i, s.name.c_str(), s.point.c_str(),
                   s.start, s.end, s.parent);
    }
    std::fputs("]\n", f);
    std::fclose(f);
  }

 private:
  double now() const { return seconds_between(origin_, Clock::now()); }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    open_.pop_back();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kNpb, kBandwidth };

struct Point {
  std::string id;
  std::string mode;  // bypass | cord | ipoib (host.wall_s.<mode>)
  Kind kind = Kind::kNpb;
  // NPB points (System A, two hosts, as in Fig. 6).
  npb::Kernel kernel = npb::Kernel::kCG;
  int ranks = 128;
  int iterations = 1;
  mpi::NetMode net = mpi::NetMode::kBypass;
  // perftest points (System L, RC, tx-depth 128).
  perftest::Params bw;
};

Point npb_point(npb::Kernel kernel, int ranks, mpi::NetMode net) {
  Point p;
  p.kind = Kind::kNpb;
  p.kernel = kernel;
  p.ranks = ranks;
  p.iterations = 1;
  p.net = net;
  p.mode = net == mpi::NetMode::kBypass ? "bypass"
           : net == mpi::NetMode::kCord ? "cord"
                                        : "ipoib";
  p.id = p.mode;
  return p;
}

Point bw_point(std::string id, perftest::TestOp op, std::size_t size,
               int iterations, verbs::DataplaneMode mode,
               std::uint32_t tx_batch) {
  const core::SystemConfig cfg = core::system_l();
  Point p;
  p.kind = Kind::kBandwidth;
  p.id = std::move(id);
  p.mode = mode == verbs::DataplaneMode::kBypass ? "bypass" : "cord";
  p.bw.op = op;
  p.bw.transport = perftest::Transport::kRC;
  p.bw.msg_size = size;
  p.bw.iterations = iterations;
  p.bw.tx_depth = 128;
  p.bw.tx_batch = tx_batch;
  p.bw.client = verbs::ContextOptions{
      .mode = mode,
      .poll_via_kernel = cfg.cord_poll_via_kernel,
      .cord_inline_support = cfg.cord_inline_support};
  p.bw.server = p.bw.client;
  return p;
}

std::vector<Point> workload_points(std::string_view workload, bool smoke) {
  using mpi::NetMode;
  using perftest::TestOp;
  using verbs::DataplaneMode;
  const int ranks = smoke ? 16 : 128;
  if (workload == "npb_cg") {
    return {npb_point(npb::Kernel::kCG, ranks, NetMode::kBypass),
            npb_point(npb::Kernel::kCG, ranks, NetMode::kCord)};
  }
  if (workload == "npb_is") {
    return {npb_point(npb::Kernel::kIS, ranks, NetMode::kBypass),
            npb_point(npb::Kernel::kIS, ranks, NetMode::kCord),
            npb_point(npb::Kernel::kIS, ranks, NetMode::kIpoib)};
  }
  if (workload == "perftest_bw") {
    // Smoke size: 1% of the iterations.
    const int div = smoke ? 100 : 1;
    const int n64 = 1000000 / div, n64k = 40000 / div, n1m = 2000 / div;
    return {
        bw_point("send64_bypass", TestOp::kSend, 64, n64, DataplaneMode::kBypass, 1),
        bw_point("send64_cord", TestOp::kSend, 64, n64, DataplaneMode::kCord, 1),
        bw_point("send64_cord_b16", TestOp::kSend, 64, n64, DataplaneMode::kCord, 16),
        bw_point("write64k_bypass", TestOp::kWrite, 64 << 10, n64k,
                 DataplaneMode::kBypass, 1),
        bw_point("write64k_cord", TestOp::kWrite, 64 << 10, n64k,
                 DataplaneMode::kCord, 1),
        bw_point("read1m_bypass", TestOp::kRead, 1 << 20, n1m,
                 DataplaneMode::kBypass, 1),
        bw_point("read1m_cord", TestOp::kRead, 1 << 20, n1m, DataplaneMode::kCord, 1),
    };
  }
  throw std::invalid_argument("unknown workload: " + std::string(workload));
}

/// Seeded Fisher-Yates over splitmix64: the same seed gives the same order
/// on every platform (std::shuffle's algorithm is unspecified).
void permute(std::vector<Point>& points, std::uint64_t seed) {
  std::uint64_t x = seed;
  auto next = [&x] {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  for (std::size_t i = points.size(); i > 1; --i) {
    std::swap(points[i - 1], points[next() % i]);
  }
}

// ---------------------------------------------------------------------------
// perftest's windowed bandwidth test (RC, polling, no knobs), driven over a
// System owned here. Mirrors perftest.cpp step for step: any divergence
// changes the simulated Gb/s, which the expected outputs catch.
// ---------------------------------------------------------------------------

namespace bw {

using nic::Cqe;
using nic::RecvWr;
using nic::SendWr;
using perftest::Params;
using perftest::TestOp;

constexpr std::byte kPattern{0xA5};

std::uintptr_t uptr(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

struct Setup {
  std::unique_ptr<verbs::Context> client;
  std::unique_ptr<verbs::Context> server;
  nic::ProtectionDomainId pd_c = 0, pd_s = 0;
  nic::CompletionQueue* scq_c = nullptr;
  nic::CompletionQueue* rcq_c = nullptr;
  nic::CompletionQueue* scq_s = nullptr;
  nic::CompletionQueue* rcq_s = nullptr;
  nic::QueuePair* qp_c = nullptr;
  nic::QueuePair* qp_s = nullptr;
  std::vector<std::byte> data_c, sink_c, data_s, sink_s;
  const nic::MemoryRegion* mr_data_c = nullptr;
  const nic::MemoryRegion* mr_sink_c = nullptr;
  const nic::MemoryRegion* mr_data_s = nullptr;
  const nic::MemoryRegion* mr_sink_s = nullptr;
  bool use_inline = false;
  std::uint32_t recv_len = 0;
  std::uint32_t slots = 1;
  nic::NodeId server_node = 1;
};

struct Out {
  double gbps = 0.0;
  double mmsg_per_sec = 0.0;
  std::uint64_t messages = 0;
  sim::Time elapsed = 0;
};

sim::Task<> establish(Setup& s, core::System& sys, const Params& p,
                      std::uint32_t slots) {
  s.slots = slots;
  s.server_node = static_cast<nic::NodeId>(sys.host_count() - 1);
  verbs::ContextOptions copts = p.client;
  verbs::ContextOptions sopts = p.server;
  if (p.tx_batch > 1) {
    copts.tx_batch = p.tx_batch;
    sopts.tx_batch = p.tx_batch;
  }
  s.client = std::make_unique<verbs::Context>(sys.host(0), 0, copts);
  s.server = std::make_unique<verbs::Context>(sys.host(s.server_node), 0, sopts);

  s.pd_c = co_await s.client->alloc_pd();
  s.pd_s = co_await s.server->alloc_pd();
  s.scq_c = co_await s.client->create_cq(8192);
  s.rcq_c = co_await s.client->create_cq(8192);
  s.scq_s = co_await s.server->create_cq(8192);
  s.rcq_s = co_await s.server->create_cq(8192);

  const std::uint32_t max_inline = 0xFFFF;
  const std::uint32_t sq_depth = std::max<std::uint32_t>(256, p.tx_depth + 16);
  const std::uint32_t rq_depth = std::max<std::uint32_t>(1024, 2 * p.tx_depth);
  s.qp_c = co_await s.client->create_qp(
      {nic::QpType::kRC, s.pd_c, s.scq_c, s.rcq_c, sq_depth, rq_depth, max_inline});
  s.qp_s = co_await s.server->create_qp(
      {nic::QpType::kRC, s.pd_s, s.scq_s, s.rcq_s, sq_depth, rq_depth, max_inline});
  int rc = co_await s.client->connect_qp(*s.qp_c, {s.server_node, s.qp_s->qpn()});
  if (rc != 0) throw std::runtime_error("client connect failed");
  rc = co_await s.server->connect_qp(*s.qp_s, {0, s.qp_c->qpn()});
  if (rc != 0) throw std::runtime_error("server connect failed");

  s.recv_len = static_cast<std::uint32_t>(p.msg_size);
  s.data_c.assign(p.msg_size, kPattern);
  s.data_s.assign(p.msg_size, kPattern);
  s.sink_c.assign(static_cast<std::size_t>(s.recv_len) * slots, std::byte{0});
  s.sink_s.assign(static_cast<std::size_t>(s.recv_len) * slots, std::byte{0});

  s.mr_data_c = co_await s.client->reg_mr(s.pd_c, s.data_c.data(), s.data_c.size(),
                                          nic::kAccessRemoteRead);
  s.mr_data_s = co_await s.server->reg_mr(s.pd_s, s.data_s.data(), s.data_s.size(),
                                          nic::kAccessRemoteRead);
  s.mr_sink_c = co_await s.client->reg_mr(
      s.pd_c, s.sink_c.data(), s.sink_c.size(),
      nic::kAccessLocalWrite | nic::kAccessRemoteWrite);
  s.mr_sink_s = co_await s.server->reg_mr(
      s.pd_s, s.sink_s.data(), s.sink_s.size(),
      nic::kAccessLocalWrite | nic::kAccessRemoteWrite);

  const std::uint32_t dev_inline = sys.config().nic.max_inline;
  s.use_inline = p.allow_inline && p.op != TestOp::kRead && p.msg_size <= dev_inline;
}

std::byte* sink_slot(std::vector<std::byte>& sink, std::uint32_t recv_len,
                     std::uint32_t slot) {
  return sink.data() + static_cast<std::size_t>(recv_len) * slot;
}

SendWr make_send(const Setup& s, const Params& p) {
  SendWr wr;
  wr.opcode = nic::Opcode::kSend;
  wr.sge = {uptr(s.data_c.data()), static_cast<std::uint32_t>(p.msg_size),
            s.mr_data_c->lkey};
  wr.inline_data = s.use_inline;
  return wr;
}

sim::Task<> server(Setup& s, const Params& p, int total) {
  verbs::Context& ctx = *s.server;
  int received = 0;
  std::uint32_t next_slot = 0;
  std::vector<Cqe> wc(64);
  while (received < total) {
    const std::size_t n = co_await ctx.poll_cq(*s.rcq_s, wc);
    if (n == 0) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (wc[j].status != nic::WcStatus::kSuccess) {
        throw std::runtime_error("server recv completion error");
      }
      ++received;
    }
    if (p.tx_batch > 1) {
      std::vector<RecvWr> refill(n);
      for (std::size_t j = 0; j < n; ++j) {
        refill[j] = {1, {uptr(sink_slot(s.sink_s, s.recv_len, next_slot)),
                         s.recv_len, s.mr_sink_s->lkey}};
        next_slot = (next_slot + 1) % s.slots;
      }
      const int rc = co_await ctx.post_recv_burst(*s.qp_s, refill);
      if (rc != 0) throw std::runtime_error("server repost failed");
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        const int rc = co_await ctx.post_recv(
            *s.qp_s, {1, {uptr(sink_slot(s.sink_s, s.recv_len, next_slot)),
                          s.recv_len, s.mr_sink_s->lkey}});
        if (rc != 0) throw std::runtime_error("server repost failed");
        next_slot = (next_slot + 1) % s.slots;
      }
    }
  }
}

sim::Task<> client(Setup& s, const Params& p, Out& out) {
  verbs::Context& ctx = *s.client;
  const int total = p.iterations;
  int posted = 0, completed = 0;
  std::vector<Cqe> wc(64);
  const sim::Time t0 = ctx.core().engine().now();
  const sim::Time deadline = t0 + sim::sec(120);
  while (completed < total) {
    while (posted < total && posted - completed < static_cast<int>(p.tx_depth)) {
      SendWr wr = make_send(s, p);
      if (p.op == TestOp::kWrite) {
        wr.opcode = nic::Opcode::kRdmaWrite;
        wr.remote_addr = uptr(s.sink_s.data());
        wr.rkey = s.mr_sink_s->rkey;
      } else if (p.op == TestOp::kRead) {
        wr.opcode = nic::Opcode::kRdmaRead;
        wr.sge = {uptr(s.sink_c.data()), static_cast<std::uint32_t>(p.msg_size),
                  s.mr_sink_c->lkey};
        wr.remote_addr = uptr(s.data_s.data());
        wr.rkey = s.mr_data_s->rkey;
      }
      const int rc = co_await ctx.post_send(*s.qp_c, std::move(wr));
      if (rc != 0) throw std::runtime_error("bw post_send failed");
      ++posted;
    }
    const std::size_t n = co_await ctx.poll_cq(*s.scq_c, wc);
    for (std::size_t j = 0; j < n; ++j) {
      if (wc[j].status != nic::WcStatus::kSuccess) {
        throw std::runtime_error("bw completion error");
      }
    }
    completed += static_cast<int>(n);
    if (ctx.core().engine().now() > deadline) {
      throw std::runtime_error("bandwidth test timed out");
    }
  }
  out.elapsed = ctx.core().engine().now() - t0;
  out.messages = static_cast<std::uint64_t>(total);
  const double sec = sim::to_sec(out.elapsed);
  out.gbps = static_cast<double>(out.messages) * static_cast<double>(p.msg_size) *
             8.0 / sec / 1e9;
  out.mmsg_per_sec = static_cast<double>(out.messages) / sec / 1e6;
}

/// Run the test to completion on `sys` (single engine).
Out run(core::System& sys, const Params& p) {
  Out out;
  Setup s;  // outlives the root coroutine, as in perftest
  const std::uint64_t by_mem = std::max<std::uint64_t>(
      8, (256ull << 20) / std::max<std::size_t>(p.msg_size, 1));
  const auto slots = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      std::max<std::uint32_t>(2 * p.tx_depth, 512), by_mem));
  sys.engine().spawn([](Setup& s, core::System& sys, const Params& p,
                        std::uint32_t slots, Out& out) -> sim::Task<> {
    co_await establish(s, sys, p, slots);
    if (p.op == TestOp::kSend) {
      for (std::uint32_t i = 0; i < slots; ++i) {
        const int rc = co_await s.server->post_recv(
            *s.qp_s, {1, {uptr(sink_slot(s.sink_s, s.recv_len, i)), s.recv_len,
                          s.mr_sink_s->lkey}});
        if (rc != 0) throw std::runtime_error("prefill post_recv failed");
      }
      sim::Joinable srv(sys.engine(), server(s, p, p.iterations));
      co_await client(s, p, out);
      co_await srv.join();
      if (s.sink_s[0] != kPattern) {
        throw std::runtime_error("payload integrity check failed");
      }
    } else {
      co_await client(s, p, out);
      const std::vector<std::byte>& landing =
          p.op == TestOp::kWrite ? s.sink_s : s.sink_c;
      if (landing[0] != kPattern) {
        throw std::runtime_error("payload integrity check failed");
      }
    }
  }(s, sys, p, slots, out));
  sys.engine().run();
  if (out.messages == 0) throw std::runtime_error("bandwidth test produced no result");
  return out;
}

}  // namespace bw

// ---------------------------------------------------------------------------
// One point run
// ---------------------------------------------------------------------------

/// Counters of every layer, read through public accessors after the run.
std::string counters_json(core::System& sys) {
  nic::NicCounters n;
  std::uint64_t crossings = 0, ops = 0, interrupts = 0, hits = 0, misses = 0;
  sim::Time compute = 0, spin = 0, kernel = 0;
  for (std::size_t h = 0; h < sys.host_count(); ++h) {
    os::Host& host = sys.host(h);
    const nic::NicCounters& c = host.nic().counters();
    n.tx_msgs += c.tx_msgs;
    n.doorbells += c.doorbells;
    n.doorbells_coalesced += c.doorbells_coalesced;
    n.sq_bursts += c.sq_bursts;
    n.sq_burst_wrs += c.sq_burst_wrs;
    n.sq_fused_batches += c.sq_fused_batches;
    n.seg_msgs += c.seg_msgs;
    n.seg_chunks += c.seg_chunks;
    n.cqe_flushed += c.cqe_flushed;
    const os::Kernel& k = host.kernel();
    crossings += k.syscall_count();
    ops += k.ops_serviced_count();
    interrupts += k.interrupt_count();
    hits += k.verdict_cache().stats().hits;
    misses += k.verdict_cache().stats().misses;
    for (std::size_t c = 0; c < host.core_count(); ++c) {
      compute += host.core(c).time_compute();
      spin += host.core(c).time_spin();
      kernel += host.core(c).time_kernel();
    }
  }
  Json j;
  j.u64("events", sys.sharded().events_processed())
      .u64("queue_peak_depth", sys.sharded().queue_peak_depth())
      .u64("clamped_events", sys.sharded().clamped_events())
      .u64("nic_tx_msgs", n.tx_msgs)
      .u64("nic_doorbells", n.doorbells)
      .u64("nic_doorbells_coalesced", n.doorbells_coalesced)
      .u64("nic_sq_bursts", n.sq_bursts)
      .u64("nic_sq_burst_wrs", n.sq_burst_wrs)
      .u64("nic_sq_fused_batches", n.sq_fused_batches)
      .u64("nic_seg_msgs", n.seg_msgs)
      .u64("nic_seg_chunks", n.seg_chunks)
      .u64("nic_cqe_flushed", n.cqe_flushed)
      .u64("os_crossings", crossings)
      .u64("os_ops_serviced", ops)
      .u64("os_interrupts", interrupts)
      .u64("os_verdict_hits", hits)
      .u64("os_verdict_misses", misses)
      .i64("core_compute_ps", compute)
      .i64("core_spin_ps", spin)
      .i64("core_kernel_ps", kernel);
  return j.text();
}

/// Feed the merged trace to the causal aggregator in time-ordered slices,
/// so chains finalize long before the pending-span bound could evict them.
/// With one shard the tracer's own stream is the merged trace, so it is
/// sorted through an index instead of copied: the 64 B perftest points
/// trace over ten million records.
std::string causal_json(core::System& sys, Spans& spans, const std::string& id,
                        double& analyze_s) {
  if (sys.shard_count() != 1) throw std::logic_error("traced runs use one shard");
  const Clock::time_point t0 = Clock::now();
  const trace::Tracer& tracer = sys.tracer();
  std::vector<std::uint32_t> order(tracer.size());
  {
    auto sc = spans.scope("trace.sort", id);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::uint32_t>(i);
    std::stable_sort(order.begin(), order.end(),
                     [&tracer](std::uint32_t a, std::uint32_t b) {
                       return tracer[a].t < tracer[b].t;
                     });
  }
  trace::causal::Aggregator agg;
  {
    auto sc = spans.scope("causal.ingest", id);
    constexpr std::size_t kSlice = 1u << 14;
    std::vector<trace::Record> slice;
    slice.reserve(kSlice);
    for (std::size_t i = 0; i < order.size(); i += kSlice) {
      slice.clear();
      for (std::size_t k = i; k < std::min(i + kSlice, order.size()); ++k) {
        slice.push_back(tracer[order[k]]);
      }
      agg.ingest(slice);
    }
  }
  analyze_s = seconds_between(t0, Clock::now());

  const trace::causal::CriticalPath& cp = agg.critical();
  std::vector<std::int64_t> span_ps, queue_ps;
  for (std::size_t i = 0; i < trace::causal::kStageCount; ++i) {
    span_ps.push_back(cp.stage_span[i]);
    queue_ps.push_back(cp.stage_queue[i]);
  }
  std::vector<std::uint64_t> buckets;
  for (std::size_t i = 0; i < sim::LogHistogram::kBuckets; ++i) {
    buckets.push_back(agg.e2e().bucket(i));
  }
  Json j;
  j.u64("records", tracer.size())
      .u64("dropped", sys.trace_dropped())
      .u64("spans", agg.spans())
      .u64("evicted", agg.pending_evicted())
      .i64("total_e2e_ps", cp.total_e2e)
      .raw("stage_span_ps", json_array(span_ps))
      .raw("stage_queue_ps", json_array(queue_ps))
      .raw("e2e_buckets", json_array(buckets))
      .u64("e2e_max_ps", agg.e2e().max());
  return j.text();
}

struct Options {
  std::string workload;
  bool smoke = false;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool reference = false;
  std::string spans_path;
};

constexpr std::size_t kTraceCapacity = 1u << 24;  // records per run; ~640 MiB max

/// What one run_point call does after building the point's System.
enum class Run {
  kSetupOnly,  // tear it down again (a setup_s sample)
  kUntraced,   // run it and read the counters
  kTraced,     // run it traced, read the counters, analyze the trace
  kReference,  // run it through the library entry point, outputs only
};

/// Build the point's System (and World) and run it as `how` says. Prints
/// one POINT line.
void run_point(const Point& pt, int pass, Run how, Spans& spans) {
  const bool setup_only = how == Run::kSetupOnly;
  const bool traced = how == Run::kTraced;
  auto point_scope = spans.scope(setup_only ? "setup_only" : "point", pt.id);
  Json j;
  j.str("point", pt.id).str("mode", pt.mode).i64("pass", pass)
      .raw("traced", traced ? "true" : "false")
      .raw("setup_only", setup_only ? "true" : "false");

  const Clock::time_point t0 = Clock::now();
  core::SystemConfig cfg;
  {
    auto sc = spans.scope("core.config", pt.id);
    cfg = pt.kind == Kind::kNpb ? core::system_a() : core::system_l();
  }
  std::unique_ptr<core::System> sys;
  {
    auto sc = spans.scope("core.system_build", pt.id);
    sys = std::make_unique<core::System>(cfg, 2);
  }
  const Clock::time_point t1 = Clock::now();
  std::unique_ptr<mpi::World> world;
  if (pt.kind == Kind::kNpb) {
    auto sc = spans.scope("mpi.world_build", pt.id);
    mpi::WorldConfig wc;
    wc.net = pt.net;
    wc.srq_slots = 512;
    world = std::make_unique<mpi::World>(*sys, pt.ranks, wc);
  }
  const Clock::time_point t2 = Clock::now();
  j.num("setup_s", seconds_between(t0, t2))
      .num("system_build_s", seconds_between(t0, t1))
      .num("world_build_s", seconds_between(t1, t2));

  if (!setup_only) {
    if (traced) {
      sys->tracer().set_capacity(kTraceCapacity);
      sys->set_tracing(true);
    }
    sim::Time elapsed = 0;
    std::uint64_t messages = 0, bytes = 0;
    Clock::time_point t3;
    if (pt.kind == Kind::kNpb) {
      npb::Result r;
      {
        auto sc = spans.scope("npb.run", pt.id);
        r = npb::run(*world, npb::RunConfig{pt.kernel, npb::Class::kB,
                                            /*verify=*/false, pt.iterations});
      }
      t3 = Clock::now();
      elapsed = r.elapsed;
      messages = r.messages;
      bytes = r.bytes;
    } else {
      bw::Out r;
      if (how == Run::kReference) {
        auto sc = spans.scope("perftest.run_bandwidth", pt.id);
        const perftest::BandwidthResult b = perftest::run_bandwidth(cfg, pt.bw);
        r = {b.gbps, b.mmsg_per_sec, b.messages, b.elapsed};
      } else {
        auto sc = spans.scope("perftest.bw", pt.id);
        r = bw::run(*sys, pt.bw);
      }
      t3 = Clock::now();
      elapsed = r.elapsed;
      messages = r.messages;
      bytes = r.messages * pt.bw.msg_size;
      j.num("gbps", r.gbps).num("mmsg_s", r.mmsg_per_sec);
    }
    j.num("wall_s", seconds_between(t2, t3))
        .i64("elapsed_ps", elapsed)
        .u64("messages", messages)
        .u64("bytes", bytes);
    if (how != Run::kReference) {
      auto sc = spans.scope("collect", pt.id);
      j.raw("counters", counters_json(*sys));
    }
    if (traced) {
      double analyze_s = 0.0;
      j.raw("trace", causal_json(*sys, spans, pt.id, analyze_s));
      j.num("analyze_s", analyze_s);
    }
  }
  {
    auto sc = spans.scope("teardown", pt.id);
    world.reset();
    sys.reset();
  }
  std::printf("POINT %s\n", j.text().c_str());
  std::fflush(stdout);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(a));
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--size") {
      const std::string v = value();
      if (v != "full" && v != "smoke") throw std::invalid_argument("bad --size " + v);
      o.smoke = v == "smoke";
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--reference") {
      o.reference = true;
    } else if (a == "--spans") {
      o.spans_path = value();
    } else {
      throw std::invalid_argument("unknown argument " + std::string(a));
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

// Before each measured run a point is also set up (and torn down) this many
// times without running, so setup_s is a median over set-ups spread across
// the whole run.
constexpr int kSetupsPerRun = 4;
// Untraced passes over all points stop once the next would overrun
// --seconds; at least kMinPasses are made so wall_s is always a median.
// With --trace 1 only kMinPasses are made: the per-layer counts need one
// pass, and the traced pass that follows costs about as much again.
constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 50;

int run(const Options& o) {
  std::vector<Point> points = workload_points(o.workload, o.smoke);
  permute(points, o.seed);
  Spans spans;
  int passes = 0;
  if (o.reference) {
    for (const Point& pt : points) run_point(pt, 0, Run::kReference, spans);
    passes = 1;
  } else {
    const double budget = o.trace ? 0.0 : o.seconds;
    const Clock::time_point start = Clock::now();
    while (passes < kMaxPasses) {
      auto sc = spans.scope("pass", "");
      for (const Point& pt : points) {
        for (int r = 0; r < kSetupsPerRun; ++r) {
          run_point(pt, passes, Run::kSetupOnly, spans);
        }
        run_point(pt, passes, Run::kUntraced, spans);
      }
      ++passes;
      const double elapsed = seconds_between(start, Clock::now());
      if (passes >= kMinPasses && elapsed * (passes + 1) / passes > budget) break;
    }
    if (o.trace) {
      auto sc = spans.scope("traced_pass", "");
      for (const Point& pt : points) run_point(pt, passes, Run::kTraced, spans);
    }
  }
  if (!o.spans_path.empty()) spans.write(o.spans_path);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Json j;
  j.i64("passes", passes).i64("peak_rss_kb", ru.ru_maxrss);
  std::printf("RUN %s\n", j.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
