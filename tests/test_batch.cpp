// Batched syscall submission (verbs submission rings + one-crossing
// flushes) and the kernel's policy-verdict fast-path cache.
//
// The headline invariants:
//   * tx_batch > 1 must not change simulated results: latency samples are
//     exactly the per-op samples (the flush happens at the same virtual
//     instant the per-op syscall would have), and batched runs are
//     bit-identical across shard counts.
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
  // Randomized configurations, fixed seed: op x transport x size x shard
  // count. For every drawn config the batched
  // runs must reproduce the per-op latency samples *exactly* — the
  // submission ring defers the crossing but never moves it in virtual
  // time (the poll that harvests the completion flushes first).
  std::mt19937 rng(0xC02Du);
  const TestOp ops[] = {TestOp::kSend, TestOp::kWrite, TestOp::kRead};
  const std::size_t sizes[] = {8, 64, 512, 4096};
  const std::size_t shard_opts[] = {1, 2, 4};
  for (int trial = 0; trial < 5; ++trial) {
    const TestOp op = ops[rng() % 3];
    const Transport tr =
        (op == TestOp::kSend && rng() % 2 == 0) ? Transport::kUD : Transport::kRC;
    Params base = cord_params(op, tr, sizes[rng() % 4]);
    base.shards = shard_opts[rng() % 3];
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

TEST(Batch, BatchedBandwidthBitIdenticalAcrossShards) {
  // A deep-pipeline bandwidth run actually exercises multi-WR flushes
  // (the latency ping-pong above only ever gathers one WR). The result
  // must be bit-identical at every shard count.
  Params p = cord_params(TestOp::kSend, Transport::kRC, 64);
  p.iterations = 300;
  p.tx_depth = 64;
  p.tx_batch = 16;
  const auto single = run_bandwidth(core::system_l(), p);
  ASSERT_EQ(single.messages, 300u);
  for (std::size_t shards : {2u, 4u}) {
    Params v = p;
    v.shards = shards;
    const auto r = run_bandwidth(core::system_l(), v);
    ASSERT_EQ(r.messages, 300u);
    EXPECT_EQ(r.gbps, single.gbps) << "shards=" << shards;
    EXPECT_EQ(r.elapsed, single.elapsed) << "shards=" << shards;
  }
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

// --- Verdict-cache observability ----------------------------------------

TEST(Batch, VerdictCacheGaugesVisibleInProcMetrics) {
  TwoHostFixture f;
  f.host0->kernel().policies().install(std::make_unique<os::StatsCollector>());
  run_task(f.engine, [](TwoHostFixture& f) -> sim::Task<> {
    verbs::Context c0(*f.host0, 0,
                      {.mode = verbs::DataplaneMode::kCord, .tx_batch = 8,
                       .tenant = 4});
    verbs::Context c1(*f.host1, 0, {.mode = verbs::DataplaneMode::kCord});
    RcEndpoints e = co_await cord::testing::connect_rc(c0, c1);
    std::vector<std::byte> src(64), dst(64);
    auto* smr = co_await c0.reg_mr(e.pd0, src.data(), src.size(), 0);
    auto* rmr = co_await c1.reg_mr(
        e.pd1, dst.data(), dst.size(),
        nic::kAccessLocalWrite | nic::kAccessRemoteWrite);
    for (int i = 0; i < 16; ++i) {
      nic::SendWr wr;
      wr.opcode = nic::Opcode::kRdmaWrite;
      wr.sge = {uptr(src.data()), 64, smr->lkey};
      wr.remote_addr = uptr(dst.data());
      wr.rkey = rmr->rkey;
      (void)co_await c0.post_send(*e.qp0, std::move(wr));
    }
    (void)co_await c0.flush_all();
    int harvested = 0;
    nic::Cqe wc[8];
    while (harvested < 16) {
      harvested += static_cast<int>(
          co_await c0.poll_cq(*e.scq0, std::span<nic::Cqe>{wc, 8}));
    }
  }(f));
  const os::Kernel& k = f.host0->kernel();
  EXPECT_GE(k.verdict_cache().stats().hits, 15u)
      << "after the first full evaluation every same-key WR must hit";
  EXPECT_GE(k.verdict_cache().stats().insertions, 1u);
  const std::string m = k.proc_read("metrics");
  EXPECT_NE(m.find("kernel.verdict_cache.hits"), std::string::npos) << m;
  EXPECT_NE(m.find("kernel.verdict_cache.misses"), std::string::npos) << m;
  EXPECT_NE(m.find("kernel.policy_epoch"), std::string::npos) << m;
  const std::string proc = k.proc_read("syscalls");
  EXPECT_NE(proc.find("verdict_hits"), std::string::npos) << proc;
}

}  // namespace
}  // namespace cord::perftest
