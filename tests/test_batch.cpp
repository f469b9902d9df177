// Batched syscall submission (verbs submission rings + one-crossing
// flushes). A flush is the kernel's one send crossing with n WRs: every WR
// runs the full policy chain, exactly as a per-op post does.
//
// The headline invariants:
//   * tx_batch > 1 must not change simulated results: latency samples are
//     exactly the per-op samples (the flush happens at the same virtual
//     instant the per-op syscall would have), and batched runs are
//     bit-identical run to run.
//   * one flush = one kernel crossing servicing the whole ring — the
//     crossings / ops_serviced counters must diverge.
//   * edge cases: an empty flush is a strict no-op (covered in
//     test_os.cpp) and zero-length WQEs ride the batched path unharmed.
#include <gtest/gtest.h>

#include <random>

#include "os/policies.hpp"
#include "perftest/perftest.hpp"
#include "test_util.hpp"

namespace cord::perftest {
namespace {

using cord::testing::RcEndpoints;
using cord::testing::TwoHostFixture;
using cord::testing::run_task;
using cord::testing::uptr;

Params cord_params(TestOp op, Transport tr, std::size_t size) {
  Params p;
  p.op = op;
  p.transport = tr;
  p.msg_size = size;
  p.iterations = 60;
  p.warmup = 10;
  p.client = verbs::ContextOptions{.mode = verbs::DataplaneMode::kCord};
  p.server = verbs::ContextOptions{.mode = verbs::DataplaneMode::kCord};
  return p;
}

// --- Differential: batched CoRD == per-op CoRD, sample for sample -------

TEST(Batch, BatchedLatencyMatchesPerOpRandomized) {
  // Randomized configurations, fixed seed: op x transport x size. For
  // every drawn config the batched
  // runs must reproduce the per-op latency samples *exactly* — the
  // submission ring defers the crossing but never moves it in virtual
  // time (the poll that harvests the completion flushes first).
  std::mt19937 rng(0xC02Du);
  const TestOp ops[] = {TestOp::kSend, TestOp::kWrite, TestOp::kRead};
  const std::size_t sizes[] = {8, 64, 512, 4096};
  for (int trial = 0; trial < 5; ++trial) {
    const TestOp op = ops[rng() % 3];
    const Transport tr =
        (op == TestOp::kSend && rng() % 2 == 0) ? Transport::kUD : Transport::kRC;
    Params base = cord_params(op, tr, sizes[rng() % 4]);
    const auto ref = run_latency(core::system_l(), base);
    for (std::uint32_t b : {4u, 16u, 64u}) {
      Params bp = base;
      bp.tx_batch = b;
      const auto r = run_latency(core::system_l(), bp);
      ASSERT_EQ(r.latency_us.values(), ref.latency_us.values())
          << "trial " << trial << " tx_batch=" << b
          << " diverged from the per-op run";
    }
  }
}

TEST(Batch, BatchedBandwidthBitIdenticalRunToRun) {
  // A deep-pipeline bandwidth run actually exercises multi-WR flushes
  // (the latency ping-pong above only ever gathers one WR). The result
  // must be bit-identical from run to run.
  Params p = cord_params(TestOp::kSend, Transport::kRC, 64);
  p.iterations = 300;
  p.tx_depth = 64;
  p.tx_batch = 16;
  const auto first = run_bandwidth(core::system_l(), p);
  ASSERT_EQ(first.messages, 300u);
  const auto r = run_bandwidth(core::system_l(), p);
  ASSERT_EQ(r.messages, 300u);
  EXPECT_EQ(r.gbps, first.gbps);
  EXPECT_EQ(r.elapsed, first.elapsed);
}

// --- Crossing amortization and the counter split -------------------------

TEST(Batch, OneFlushServicesTheWholeRing) {
  TwoHostFixture f;
  run_task(f.engine, [](TwoHostFixture& f) -> sim::Task<> {
    verbs::Context c0(*f.host0, 0,
                      {.mode = verbs::DataplaneMode::kCord, .tx_batch = 8});
    verbs::Context c1(*f.host1, 0, {.mode = verbs::DataplaneMode::kCord});
    RcEndpoints e = co_await cord::testing::connect_rc(c0, c1);
    std::vector<std::byte> src(64, std::byte{0x5A}), dst(64);
    auto* smr = co_await c0.reg_mr(e.pd0, src.data(), src.size(), 0);
    auto* rmr = co_await c1.reg_mr(
        e.pd1, dst.data(), dst.size(),
        nic::kAccessLocalWrite | nic::kAccessRemoteWrite);
    const std::uint64_t cross0 = f.host0->kernel().syscall_count();
    const std::uint64_t ops0 = f.host0->kernel().ops_serviced_count();
    for (int i = 0; i < 32; ++i) {
      nic::SendWr wr;
      wr.wr_id = static_cast<std::uint64_t>(i);
      wr.opcode = nic::Opcode::kRdmaWrite;
      wr.sge = {uptr(src.data()), 64, smr->lkey};
      wr.remote_addr = uptr(dst.data());
      wr.rkey = rmr->rkey;
      int rc = co_await c0.post_send(*e.qp0, std::move(wr));
      if (rc != 0) throw std::runtime_error("batched post_send failed");
    }
    // 32 posts at tx_batch=8: the ring flushed itself four times.
    if (f.host0->kernel().syscall_count() - cross0 != 4)
      throw std::runtime_error("expected exactly 4 crossings for 32 posts");
    if (f.host0->kernel().ops_serviced_count() - ops0 != 32)
      throw std::runtime_error("expected 32 ops serviced");
    int harvested = 0;
    nic::Cqe wc[8];
    while (harvested < 32) {
      harvested += static_cast<int>(
          co_await c0.poll_cq(*e.scq0, std::span<nic::Cqe>{wc, 8}));
    }
    if (dst[0] != std::byte{0x5A}) throw std::runtime_error("payload corrupt");
  }(f));
  const os::Kernel& k = f.host0->kernel();
  EXPECT_EQ(k.batch_flushes(), 4u);
  EXPECT_EQ(k.batch_flushed_ops(), 32u);
  EXPECT_EQ(k.batch_max_wrs(), 8u);
  EXPECT_LT(k.syscall_count(), k.ops_serviced_count())
      << "batching must amortize crossings below ops serviced";
  const std::string proc = k.proc_read("syscalls");
  EXPECT_NE(proc.find("crossings"), std::string::npos) << proc;
  EXPECT_NE(proc.find("ops_serviced"), std::string::npos) << proc;
  EXPECT_NE(proc.find("batch_flushes"), std::string::npos) << proc;
}

TEST(Batch, RecvBurstIsOneCrossing) {
  TwoHostFixture f;
  run_task(f.engine, [](TwoHostFixture& f) -> sim::Task<> {
    verbs::Context c0(*f.host0, 0, {.mode = verbs::DataplaneMode::kCord});
    verbs::Context c1(*f.host1, 0,
                      {.mode = verbs::DataplaneMode::kCord, .tx_batch = 8});
    RcEndpoints e = co_await cord::testing::connect_rc(c0, c1);
    std::vector<std::byte> src(64, std::byte{0x33}), dst(16 * 64);
    auto* smr = co_await c0.reg_mr(e.pd0, src.data(), src.size(), 0);
    auto* rmr = co_await c1.reg_mr(e.pd1, dst.data(), dst.size(),
                                   nic::kAccessLocalWrite);
    std::vector<nic::RecvWr> burst(16);
    for (int i = 0; i < 16; ++i) {
      burst[i] = {static_cast<std::uint64_t>(i),
                  {uptr(dst.data()) + 64 * i, 64, rmr->lkey}};
    }
    const std::uint64_t cross0 = f.host1->kernel().syscall_count();
    int rc = co_await c1.post_recv_burst(*e.qp1, burst);
    if (rc != 0) throw std::runtime_error("recv burst failed");
    if (f.host1->kernel().syscall_count() - cross0 != 1)
      throw std::runtime_error("a recv burst must be one crossing");
    for (int i = 0; i < 16; ++i) {
      rc = co_await c0.post_send(
          *e.qp0, {.sge = {uptr(src.data()), 64, smr->lkey}});
      if (rc != 0) throw std::runtime_error("post_send failed");
      (void)co_await c1.wait_one(*e.rcq1);
    }
    if (dst[15 * 64] != std::byte{0x33})
      throw std::runtime_error("last burst slot never landed");
  }(f));
  EXPECT_EQ(f.host1->kernel().batch_flushes(), 1u);
  EXPECT_EQ(f.host1->kernel().batch_flushed_ops(), 16u);
}

// --- Edge cases ---------------------------------------------------------

TEST(Batch, ZeroLengthWqeRidesTheBatchedPath) {
  TwoHostFixture f;
  run_task(f.engine, [](TwoHostFixture& f) -> sim::Task<> {
    verbs::Context c0(*f.host0, 0,
                      {.mode = verbs::DataplaneMode::kCord, .tx_batch = 4});
    verbs::Context c1(*f.host1, 0, {.mode = verbs::DataplaneMode::kCord});
    RcEndpoints e = co_await cord::testing::connect_rc(c0, c1);
    std::vector<std::byte> dst(64);
    auto* rmr = co_await c1.reg_mr(
        e.pd1, dst.data(), dst.size(),
        nic::kAccessLocalWrite | nic::kAccessRemoteWrite);
    nic::SendWr wr;
    wr.wr_id = 42;
    wr.opcode = nic::Opcode::kRdmaWrite;
    wr.sge = {0, 0, 0};  // zero-length WQE
    wr.remote_addr = uptr(dst.data());
    wr.rkey = rmr->rkey;
    int rc = co_await c0.post_send(*e.qp0, std::move(wr));
    if (rc != 0) throw std::runtime_error("zero-length post failed");
    if (c0.pending() != 1) throw std::runtime_error("WR should be gathered");
    nic::Cqe wc = co_await c0.wait_one(*e.scq0);  // the wait's poll flushes
    if (wc.wr_id != 42 || wc.status != nic::WcStatus::kSuccess)
      throw std::runtime_error("zero-length WQE must complete cleanly");
  }(f));
}

// --- One policy path: a flush runs the per-op chain on every WR ---------

TEST(Batch, FlushIdlesOnceForTheLargestShapingDelay) {
  // Eight 4 KiB writes in one tx_batch = 8 flush under a 1 GB/s shaping
  // bucket with a 4 KiB burst. The k-th WR (k = 0..7) leaves the bucket
  // k * 4 KiB in debt; debts accumulate, so the last WR's delay already
  // covers the others and the flush idles 7 * 4096 B / 1 GB/s = 28.672 us,
  // not the 114.688 us sum of all eight delays.
  TwoHostFixture f;
  f.host0->kernel().policies().install(std::make_unique<os::QosTokenBucket>(
      1e9, 4096, os::QosTokenBucket::Mode::kShape));
  sim::Time idle = -1;
  // Buffers outlive the coroutine frame: the flushed writes' DMA and wire
  // events still read them while the engine drains.
  std::vector<std::byte> src(4096), dst(4096);
  run_task(f.engine, [](TwoHostFixture& f, sim::Time& idle,
                        std::vector<std::byte>& src,
                        std::vector<std::byte>& dst) -> sim::Task<> {
    verbs::Context c0(*f.host0, 0,
                      {.mode = verbs::DataplaneMode::kCord, .tx_batch = 8});
    verbs::Context c1(*f.host1, 0, {.mode = verbs::DataplaneMode::kCord});
    RcEndpoints e = co_await cord::testing::connect_rc(c0, c1);
    auto* smr = co_await c0.reg_mr(e.pd0, src.data(), src.size(), 0);
    auto* rmr = co_await c1.reg_mr(
        e.pd1, dst.data(), dst.size(),
        nic::kAccessLocalWrite | nic::kAccessRemoteWrite);
    os::Core& core = c0.core();
    sim::Time gather = 0;  // a post that only appends to the ring
    for (int i = 0; i < 8; ++i) {
      nic::SendWr wr;
      wr.opcode = nic::Opcode::kRdmaWrite;
      wr.sge = {uptr(src.data()), 4096, smr->lkey};
      wr.remote_addr = uptr(dst.data());
      wr.rkey = rmr->rkey;
      const sim::Time t0 = f.engine.now();
      const sim::Time k0 = core.time_kernel();
      if (co_await c0.post_send(*e.qp0, std::move(wr)) != 0)
        throw std::runtime_error("batched post_send failed");
      const sim::Time took = f.engine.now() - t0;
      // The eighth post fills the ring and flushes it: what it took beyond
      // the gather and the kernel work is the pacing idle.
      if (i < 7) {
        gather = took;
      } else {
        idle = took - gather - (core.time_kernel() - k0);
      }
    }
  }(f, idle, src, dst));
  EXPECT_EQ(f.host0->kernel().batch_flushes(), 1u);
  EXPECT_EQ(f.host0->kernel().batch_flushed_ops(), 8u);
  EXPECT_EQ(idle, sim::ns(28'672));
}

/// What one posting of the same four UD sends leaves behind, per-op or in
/// one flush, under a chain of StatsCollector, MessageSizeQuota (256 B cap)
/// and SecurityAcl (the tenant may reach node 1 only).
struct ChainRun {
  std::vector<int> rcs;
  os::StatsCollector::TenantStats stats;
  std::uint64_t acl_denied = 0;
  sim::Time kernel = 0;  ///< kernel time the posting charged
};

ChainRun post_through_chain(bool one_flush) {
  constexpr os::TenantId kTenant = 9;
  TwoHostFixture f;
  os::Kernel& k = f.host0->kernel();
  auto& stats = static_cast<os::StatsCollector&>(
      k.policies().install(std::make_unique<os::StatsCollector>()));
  auto& size = static_cast<os::MessageSizeQuota&>(
      k.policies().install(std::make_unique<os::MessageSizeQuota>(1 << 20)));
  size.set_tenant_max(kTenant, 256);
  auto& acl = static_cast<os::SecurityAcl&>(
      k.policies().install(std::make_unique<os::SecurityAcl>()));
  acl.register_tenant(kTenant);
  acl.allow(kTenant, 1);
  ChainRun out;
  std::vector<std::byte> src(512);
  run_task(f.engine, [](TwoHostFixture& f, bool one_flush, ChainRun& out,
                        std::vector<std::byte>& src) -> sim::Task<> {
    verbs::Context c0(*f.host0, 0,
                      {.mode = verbs::DataplaneMode::kCord, .tenant = kTenant});
    verbs::Context c1(*f.host1, 0, {.mode = verbs::DataplaneMode::kCord});
    const auto pd0 = co_await c0.alloc_pd();
    const auto pd1 = co_await c1.alloc_pd();
    auto* cq0 = co_await c0.create_cq(64);
    auto* cq1 = co_await c1.create_cq(64);
    auto* qp0 = co_await c0.create_qp({nic::QpType::kUD, pd0, cq0, cq0, 64, 64, 0});
    auto* qp1 = co_await c1.create_qp({nic::QpType::kUD, pd1, cq1, cq1, 64, 64, 0});
    if (co_await c0.connect_qp(*qp0) != 0 || co_await c1.connect_qp(*qp1) != 0)
      throw std::runtime_error("UD QP bring-up failed");
    auto* mr = co_await c0.reg_mr(pd0, src.data(), src.size(), 0);
    // Admitted, over the size cap, to a node off the allow-list, admitted.
    const std::uint32_t len[] = {64, 512, 64, 128};
    const nic::NodeId to[] = {1, 1, 0, 1};
    std::vector<nic::SendWr> wrs(4);
    for (std::size_t i = 0; i < wrs.size(); ++i) {
      wrs[i].wr_id = i;
      wrs[i].sge = {uptr(src.data()), len[i], mr->lkey};
      wrs[i].ud = {to[i], qp1->qpn()};
    }
    os::Kernel& k = f.host0->kernel();
    os::Core& core = c0.core();
    out.rcs.assign(wrs.size(), 0);
    const sim::Time k0 = core.time_kernel();
    if (one_flush) {
      (void)co_await k.submit_send_batch(core, kTenant, *qp0, wrs, out.rcs);
    } else {
      for (std::size_t i = 0; i < wrs.size(); ++i) {
        out.rcs[i] = co_await k.post_send(core, kTenant, *qp0, std::move(wrs[i]));
      }
    }
    out.kernel = core.time_kernel() - k0;
  }(f, one_flush, out, src));
  out.stats = stats.tenant(kTenant);
  out.acl_denied = acl.denied();
  return out;
}

TEST(Batch, FlushRunsTheFullChainPerWr) {
  const ChainRun per_op = post_through_chain(false);
  const ChainRun flush = post_through_chain(true);
  EXPECT_EQ(per_op.rcs, (std::vector<int>{0, -90, -1, 0}))
      << "EMSGSIZE for the over-cap WR, EPERM for the off-list node";
  EXPECT_EQ(flush.rcs, per_op.rcs);
  EXPECT_EQ(flush.stats.post_sends, 4u);
  EXPECT_EQ(flush.stats.post_sends, per_op.stats.post_sends);
  EXPECT_EQ(flush.stats.bytes, per_op.stats.bytes);
  EXPECT_EQ(flush.stats.reg_mrs, per_op.stats.reg_mrs);
  EXPECT_EQ(flush.acl_denied, 1u);
  EXPECT_EQ(flush.acl_denied, per_op.acl_denied);
  // The same policy work on every WR: the flush saves only the n - 1
  // extra crossings, and one doorbell per admitted WR beyond the first.
  const os::CpuModel m;
  constexpr sim::Time kWrs = 4, kAdmitted = 2;
  EXPECT_EQ(flush.kernel, per_op.kernel - (kWrs - 1) * m.syscall_crossing -
                              (kAdmitted - 1) * m.doorbell_mmio);
}

}  // namespace
}  // namespace cord::perftest
