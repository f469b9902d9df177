#include "perftest/perftest.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "sim/join.hpp"

namespace cord::perftest {
namespace {

using nic::Cqe;
using nic::RecvWr;
using nic::SendWr;
using sim::Time;

constexpr std::byte kPattern{0xA5};

std::uintptr_t uptr(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

struct Setup {
  core::System* sys = nullptr;
  std::unique_ptr<verbs::Context> client;
  std::unique_ptr<verbs::Context> server;
  nic::ProtectionDomainId pd_c = 0, pd_s = 0;
  nic::CompletionQueue* scq_c = nullptr;
  nic::CompletionQueue* rcq_c = nullptr;
  nic::CompletionQueue* scq_s = nullptr;
  nic::CompletionQueue* rcq_s = nullptr;
  nic::QueuePair* qp_c = nullptr;
  nic::QueuePair* qp_s = nullptr;

  // `data` is the local send source (remote-readable for read tests);
  // `sink` is the local receive/landing region (remote-writable).
  std::vector<std::byte> data_c, sink_c, data_s, sink_s;
  const nic::MemoryRegion* mr_data_c = nullptr;
  const nic::MemoryRegion* mr_sink_c = nullptr;
  const nic::MemoryRegion* mr_data_s = nullptr;
  const nic::MemoryRegion* mr_sink_s = nullptr;

  bool is_ud = false;
  bool use_inline = false;
  std::uint32_t recv_len = 0;  // sink slot length (payload + GRH for UD)
  std::uint32_t slots = 1;     // receive slots carved out of `sink`
  nic::NodeId server_node = 1; // the second host of the back-to-back pair
};

/// Receive-slot sizing: bandwidth tests rotate through several slots so a
/// deep RQ can stay posted.
sim::Task<> establish(Setup& s, core::System& sys, const Params& p,
                      std::uint32_t slots) {
  s.sys = &sys;
  s.is_ud = p.transport == Transport::kUD;
  s.slots = slots;
  verbs::ContextOptions copts = p.client;
  verbs::ContextOptions sopts = p.server;
  if (p.tx_batch > 1) {
    copts.tx_batch = p.tx_batch;
    sopts.tx_batch = p.tx_batch;
  }
  s.client = std::make_unique<verbs::Context>(sys.host(0), 0, copts);
  s.server =
      std::make_unique<verbs::Context>(sys.host(s.server_node), 0, sopts);

  s.pd_c = co_await s.client->alloc_pd();
  s.pd_s = co_await s.server->alloc_pd();
  s.scq_c = co_await s.client->create_cq(8192);
  s.rcq_c = co_await s.client->create_cq(8192);
  s.scq_s = co_await s.server->create_cq(8192);
  s.rcq_s = co_await s.server->create_cq(8192);

  const std::uint32_t max_inline = 0xFFFF;  // device clamps via NicConfig
  const nic::QpType type = s.is_ud ? nic::QpType::kUD : nic::QpType::kRC;
  const std::uint32_t sq_depth = std::max<std::uint32_t>(256, p.tx_depth + 16);
  const std::uint32_t rq_depth = std::max<std::uint32_t>(1024, 2 * p.tx_depth);
  s.qp_c = co_await s.client->create_qp(
      {type, s.pd_c, s.scq_c, s.rcq_c, sq_depth, rq_depth, max_inline});
  s.qp_s = co_await s.server->create_qp(
      {type, s.pd_s, s.scq_s, s.rcq_s, sq_depth, rq_depth, max_inline});
  if (s.is_ud) {
    (void)co_await s.client->connect_qp(*s.qp_c);
    (void)co_await s.server->connect_qp(*s.qp_s);
  } else {
    int rc = co_await s.client->connect_qp(*s.qp_c,
                                           {s.server_node, s.qp_s->qpn()});
    if (rc != 0) throw std::runtime_error("client connect failed");
    rc = co_await s.server->connect_qp(*s.qp_s, {0, s.qp_c->qpn()});
    if (rc != 0) throw std::runtime_error("server connect failed");
  }

  s.recv_len = static_cast<std::uint32_t>(p.msg_size) +
               (s.is_ud ? nic::kGrhBytes : 0);
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

  // Inline when the device supports it at this size (perftest default).
  const std::uint32_t dev_inline = sys.config().nic.max_inline;
  s.use_inline = p.allow_inline && p.op != TestOp::kRead &&
                 p.msg_size <= dev_inline;
}

std::byte* sink_slot(std::vector<std::byte>& sink, std::uint32_t recv_len,
                     std::uint32_t slot) {
  return sink.data() + static_cast<std::size_t>(recv_len) * slot;
}

/// Emulated getppid per data-plane op (the "kernel-bypass removed" knob).
sim::Task<> maybe_syscall(verbs::Context& ctx, const Knobs& k) {
  if (k.extra_syscall) {
    co_await ctx.core().work(ctx.core().syscall_cost(), os::Work::kKernel);
  }
}

/// Emulated extra data movement (the "zero-copy removed" knob).
sim::Task<> maybe_copy(verbs::Context& ctx, const Knobs& k, std::size_t bytes) {
  if (k.extra_copy) co_await ctx.core().do_memcpy(bytes);
}

sim::Task<Cqe> wait_cqe(verbs::Context& ctx, nic::CompletionQueue& cq,
                        const Knobs& k) {
  Cqe wc = k.interrupt_wait ? co_await ctx.wait_one_event(cq)
                            : co_await ctx.wait_one(cq);
  if (wc.status != nic::WcStatus::kSuccess) {
    throw std::runtime_error(std::string("completion error: ") +
                             std::string(nic::to_string(wc.status)));
  }
  co_return wc;
}

/// Events-mode batch harvest ("polling removed"). Models perftest
/// --use-event faithfully: the consumer never spins — it blocks in
/// ibv_get_cq_event for the interrupt announcing completions (paying the
/// IRQ + wakeup even when CQEs already sit in the ring, since the event
/// that announced them consumed that CPU regardless), acknowledges the
/// event, re-arms, and drains a bounded batch.
sim::Task<std::size_t> event_harvest(verbs::Context& ctx, nic::CompletionQueue& cq,
                                     std::span<Cqe> out) {
  os::Core& core = ctx.core();
  if (cq.depth() == 0) {
    co_await ctx.host().kernel().wait_cq_event(core, cq);  // sleeps; pays IRQ+wake
  } else {
    // Event already delivered while we were busy: its IRQ + the event-fd
    // read still consumed this core.
    co_await core.work(core.model().interrupt_handling +
                           core.model().wakeup_latency + core.syscall_cost(),
                       os::Work::kKernel);
  }
  const std::size_t cap = std::min<std::size_t>(out.size(), 16);
  co_return co_await ctx.poll_cq(cq, out.first(cap));
}

SendWr make_send(const Setup& s, const Params& p, bool from_client) {
  SendWr wr;
  wr.opcode = nic::Opcode::kSend;
  const auto& data = from_client ? s.data_c : s.data_s;
  const auto* mr = from_client ? s.mr_data_c : s.mr_data_s;
  wr.sge = {uptr(data.data()), static_cast<std::uint32_t>(p.msg_size), mr->lkey};
  wr.inline_data = s.use_inline;
  if (s.is_ud) {
    wr.ud = from_client ? nic::AddressHandle{s.server_node, s.qp_s->qpn()}
                        : nic::AddressHandle{0, s.qp_c->qpn()};
  }
  return wr;
}

// ---------------------------------------------------------------------------
// Latency tests
// ---------------------------------------------------------------------------

sim::Task<> send_lat_server(Setup& s, const Params& p, int total) {
  verbs::Context& ctx = *s.server;
  for (int i = 0; i < total; ++i) {
    (void)co_await wait_cqe(ctx, *s.rcq_s, p.knobs);
    // Repost the receive for the next ping before echoing.
    int rc = co_await ctx.post_recv(
        *s.qp_s, {1, {uptr(sink_slot(s.sink_s, s.recv_len, 0)), s.recv_len,
                      s.mr_sink_s->lkey}});
    if (rc != 0) throw std::runtime_error("server post_recv failed");
    co_await maybe_syscall(ctx, p.knobs);
    co_await maybe_copy(ctx, p.knobs, p.msg_size);
    rc = co_await ctx.post_send(*s.qp_s, make_send(s, p, /*from_client=*/false));
    if (rc != 0) throw std::runtime_error("server post_send failed");
    (void)co_await wait_cqe(ctx, *s.scq_s, p.knobs);
  }
}

sim::Task<> send_lat_client(Setup& s, const Params& p, LatencyResult& out) {
  verbs::Context& ctx = *s.client;
  const int total = p.warmup + p.iterations;
  for (int i = 0; i < total; ++i) {
    int rc = co_await ctx.post_recv(
        *s.qp_c, {2, {uptr(sink_slot(s.sink_c, s.recv_len, 0)), s.recv_len,
                      s.mr_sink_c->lkey}});
    if (rc != 0) throw std::runtime_error("client post_recv failed");
    const Time t0 = ctx.core().engine().now();
    co_await maybe_syscall(ctx, p.knobs);
    co_await maybe_copy(ctx, p.knobs, p.msg_size);
    rc = co_await ctx.post_send(*s.qp_c, make_send(s, p, /*from_client=*/true));
    if (rc != 0) throw std::runtime_error("client post_send failed");
    (void)co_await wait_cqe(ctx, *s.scq_c, p.knobs);
    (void)co_await wait_cqe(ctx, *s.rcq_c, p.knobs);
    const Time rtt = ctx.core().engine().now() - t0;
    if (i >= p.warmup) out.latency_us.add(sim::to_us(rtt) / 2.0);
  }
}

/// Busy-poll on a memory location (write_lat's synchronization scheme).
sim::Task<> spin_on_byte(verbs::Context& ctx, const volatile std::byte* addr,
                         std::byte expected) {
  const Time deadline = ctx.core().engine().now() + sim::sec(30);
  while (*addr != expected) {
    co_await ctx.core().work(ctx.core().model().poll_miss, os::Work::kSpin);
    if (ctx.core().engine().now() >= deadline) {
      throw std::runtime_error("write_lat memory poll timed out");
    }
  }
}

sim::Task<> write_lat_server(Setup& s, const Params& p, int total) {
  verbs::Context& ctx = *s.server;
  for (int i = 0; i < total; ++i) {
    const auto marker = static_cast<std::byte>((i % 250) + 1);
    co_await spin_on_byte(ctx, &s.sink_s[p.msg_size - 1], marker);
    s.data_s[p.msg_size - 1] = marker;
    SendWr wr = make_send(s, p, /*from_client=*/false);
    wr.opcode = nic::Opcode::kRdmaWrite;
    wr.remote_addr = uptr(s.sink_c.data());
    wr.rkey = s.mr_sink_c->rkey;
    co_await maybe_syscall(ctx, p.knobs);
    int rc = co_await ctx.post_send(*s.qp_s, std::move(wr));
    if (rc != 0) throw std::runtime_error("server write failed");
    (void)co_await wait_cqe(ctx, *s.scq_s, p.knobs);
  }
}

sim::Task<> write_lat_client(Setup& s, const Params& p, LatencyResult& out) {
  verbs::Context& ctx = *s.client;
  const int total = p.warmup + p.iterations;
  for (int i = 0; i < total; ++i) {
    const auto marker = static_cast<std::byte>((i % 250) + 1);
    s.data_c[p.msg_size - 1] = marker;
    const Time t0 = ctx.core().engine().now();
    SendWr wr = make_send(s, p, /*from_client=*/true);
    wr.opcode = nic::Opcode::kRdmaWrite;
    wr.remote_addr = uptr(s.sink_s.data());
    wr.rkey = s.mr_sink_s->rkey;
    co_await maybe_syscall(ctx, p.knobs);
    int rc = co_await ctx.post_send(*s.qp_c, std::move(wr));
    if (rc != 0) throw std::runtime_error("client write failed");
    (void)co_await wait_cqe(ctx, *s.scq_c, p.knobs);
    co_await spin_on_byte(ctx, &s.sink_c[p.msg_size - 1], marker);
    const Time rtt = ctx.core().engine().now() - t0;
    if (i >= p.warmup) out.latency_us.add(sim::to_us(rtt) / 2.0);
  }
}

sim::Task<> read_lat_client(Setup& s, const Params& p, LatencyResult& out) {
  verbs::Context& ctx = *s.client;
  const int total = p.warmup + p.iterations;
  for (int i = 0; i < total; ++i) {
    const Time t0 = ctx.core().engine().now();
    SendWr wr;
    wr.opcode = nic::Opcode::kRdmaRead;
    wr.sge = {uptr(s.sink_c.data()), static_cast<std::uint32_t>(p.msg_size),
              s.mr_sink_c->lkey};
    wr.remote_addr = uptr(s.data_s.data());
    wr.rkey = s.mr_data_s->rkey;
    co_await maybe_syscall(ctx, p.knobs);
    int rc = co_await ctx.post_send(*s.qp_c, std::move(wr));
    if (rc != 0) throw std::runtime_error("client read failed");
    (void)co_await wait_cqe(ctx, *s.scq_c, p.knobs);
    const Time lat = ctx.core().engine().now() - t0;
    if (i >= p.warmup) out.latency_us.add(sim::to_us(lat));
  }
}

// ---------------------------------------------------------------------------
// Bandwidth tests
// ---------------------------------------------------------------------------

/// `client_done` (may be null) lets the UD server stop once the client has
/// finished: undelivered datagrams were legitimately dropped.
sim::Task<> send_bw_server(Setup& s, const Params& p, int total,
                           const bool* client_done) {
  verbs::Context& ctx = *s.server;
  int received = 0;
  std::uint32_t next_slot = 0;
  std::vector<Cqe> wc(64);
  std::vector<RecvWr> refill;
  while (received < total) {
    // UD servers (client_done set) must not block in the event path: the
    // tail of the stream may have been legitimately dropped.
    const bool can_sleep = p.knobs.interrupt_wait && client_done == nullptr;
    std::size_t n = can_sleep ? co_await event_harvest(ctx, *s.rcq_s, wc)
                              : co_await ctx.poll_cq(*s.rcq_s, wc);
    if (n == 0) {
      if (client_done != nullptr && *client_done) break;
      continue;
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (wc[j].status != nic::WcStatus::kSuccess) {
        throw std::runtime_error("server recv completion error");
      }
      ++received;
    }
    // Replenish the RQ with as many slots as we just consumed: one kernel
    // crossing with batching on, per-op posts otherwise.
    refill.clear();
    for (std::size_t j = 0; j < n; ++j) {
      refill.push_back({1, {uptr(sink_slot(s.sink_s, s.recv_len, next_slot)),
                            s.recv_len, s.mr_sink_s->lkey}});
      next_slot = (next_slot + 1) % s.slots;
    }
    if (co_await ctx.post_recv_burst(*s.qp_s, refill) != 0) {
      throw std::runtime_error("server repost failed");
    }
  }
}

sim::Task<> bw_client(Setup& s, const Params& p, BandwidthResult& out) {
  verbs::Context& ctx = *s.client;
  const int total = p.iterations;
  int posted = 0, completed = 0;
  std::vector<Cqe> wc(64);
  const Time t0 = ctx.core().engine().now();
  const Time deadline = t0 + sim::sec(120);
  while (completed < total) {
    while (posted < total &&
           posted - completed < static_cast<int>(p.tx_depth)) {
      SendWr wr = make_send(s, p, /*from_client=*/true);
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
      co_await maybe_syscall(ctx, p.knobs);
      co_await maybe_copy(ctx, p.knobs, p.msg_size);
      int rc = co_await ctx.post_send(*s.qp_c, std::move(wr));
      if (rc != 0) throw std::runtime_error("bw post_send failed");
      ++posted;
    }
    std::size_t n = p.knobs.interrupt_wait
                        ? co_await event_harvest(ctx, *s.scq_c, wc)
                        : co_await ctx.poll_cq(*s.scq_c, wc);
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

void validate(const Params& p) {
  if (p.msg_size == 0) throw std::invalid_argument("msg_size must be > 0");
  if (p.transport == Transport::kUD && p.op != TestOp::kSend) {
    throw std::invalid_argument("UD supports only send/recv");
  }
  if (p.transport == Transport::kUD && p.msg_size > 4096) {
    throw std::invalid_argument("UD messages are limited to the MTU");
  }
}

void arm_tracing(core::System& sys, const Params& p) {
  if (!p.capture_trace) return;
  sys.tracer().set_capacity(p.trace_capacity);
  sys.set_tracing(true);
}

}  // namespace

LatencyResult run_latency(const core::SystemConfig& cfg, const Params& p) {
  validate(p);
  core::System sys(cfg);
  LatencyResult result;
  // Lives outside the workload coroutine: straggler NIC events (in-flight
  // deliveries past the last harvested completion) still reference these
  // buffers while run() drains the queue after the workload frame is gone.
  Setup s;
  arm_tracing(sys, p);
  sys.engine().spawn([](Setup& s, core::System& sys, const Params& p,
                        LatencyResult& result) -> sim::Task<> {
    co_await establish(s, sys, p, /*slots=*/1);
    const int total = p.warmup + p.iterations;
    switch (p.op) {
      case TestOp::kSend: {
        // Server's first receive must be posted before the first ping.
        int rc = co_await s.server->post_recv(
            *s.qp_s, {1, {uptr(s.sink_s.data()), s.recv_len, s.mr_sink_s->lkey}});
        if (rc != 0) throw std::runtime_error("initial post_recv failed");
        sim::Joinable srv(sys.engine(), send_lat_server(s, p, total));
        co_await send_lat_client(s, p, result);
        co_await srv.join();
        break;
      }
      case TestOp::kWrite: {
        sim::Joinable srv(sys.engine(), write_lat_server(s, p, total));
        co_await write_lat_client(s, p, result);
        co_await srv.join();
        break;
      }
      case TestOp::kRead: {
        co_await read_lat_client(s, p, result);
        break;
      }
    }
  }(s, sys, p, result));
  sys.engine().run();
  result.avg_us = result.latency_us.mean();
  result.p50_us = result.latency_us.percentile(50);
  result.p99_us = result.latency_us.percentile(99);
  if (p.capture_trace) {
    result.trace = sys.tracer().snapshot();
    result.trace_dropped = sys.trace_dropped();
  }
  result.clamped_events = sys.engine().clamped_events();
  if (result.latency_us.count() == 0) {
    throw std::runtime_error("latency test produced no samples");
  }
  return result;
}

BandwidthResult run_bandwidth(const core::SystemConfig& cfg, const Params& p) {
  validate(p);
  core::System sys(cfg);
  BandwidthResult result;
  // Outlives the coroutine frame; see run_latency.
  Setup s;
  // Deep RQ for small messages; for large ones cap the sink region at
  // 256 MiB — the wire serializes large messages so far apart that a
  // shallow RQ never underruns (reposting is ns, wire gaps are us).
  const std::uint64_t by_mem =
      std::max<std::uint64_t>(8, (256ull << 20) / std::max<std::size_t>(p.msg_size, 1));
  const auto slots = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      std::max<std::uint32_t>(2 * p.tx_depth, 512), by_mem));
  arm_tracing(sys, p);
  sys.engine().spawn([](Setup& s, core::System& sys, const Params& p,
                        std::uint32_t slots, BandwidthResult& result) -> sim::Task<> {
    co_await establish(s, sys, p, slots);
    if (p.op == TestOp::kSend) {
      // Pre-fill the server RQ.
      for (std::uint32_t i = 0; i < slots; ++i) {
        int rc = co_await s.server->post_recv(
            *s.qp_s, {1, {uptr(sink_slot(s.sink_s, s.recv_len, i)), s.recv_len,
                          s.mr_sink_s->lkey}});
        if (rc != 0) throw std::runtime_error("prefill post_recv failed");
      }
      bool client_done = false;
      sim::Joinable srv(sys.engine(),
                        send_bw_server(s, p, p.iterations,
                                       s.is_ud ? &client_done : nullptr));
      co_await bw_client(s, p, result);
      client_done = true;
      co_await srv.join();
      // Integrity: the last delivered slot must carry the pattern.
      if (s.sink_s[s.is_ud ? nic::kGrhBytes : 0] != kPattern) {
        throw std::runtime_error("payload integrity check failed");
      }
    } else {
      co_await bw_client(s, p, result);
      std::vector<std::byte>& landing =
          p.op == TestOp::kWrite ? s.sink_s : s.sink_c;
      if (landing[0] != kPattern) {
        throw std::runtime_error("payload integrity check failed");
      }
    }
  }(s, sys, p, slots, result));
  sys.engine().run();
  if (p.capture_trace) {
    result.trace = sys.tracer().snapshot();
    result.trace_dropped = sys.trace_dropped();
  }
  result.clamped_events = sys.engine().clamped_events();
  if (result.messages == 0) {
    throw std::runtime_error("bandwidth test produced no result");
  }
  return result;
}

}  // namespace cord::perftest
