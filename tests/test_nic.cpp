// Unit tests for the simulated NIC: registration/protection, the QP state
// machine, RC send/recv, RDMA read/write, UD datagrams, inline data,
// error semantics (rkey violations, RNR, flush), and timing sanity.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "fabric/link.hpp"
#include "nic/nic.hpp"
#include "nic/segment.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace cord::nic {
namespace {

using sim::Time;

/// Two NICs connected back-to-back at 100 Gbit/s — a miniature "system L".
struct TwoNodeFixture {
  sim::Engine engine;
  fabric::Network network{engine, 2, sim::Bandwidth::gbit_per_sec(100.0),
                          sim::ns(150)};
  NicRegistry registry;
  NicConfig cfg;
  std::unique_ptr<Nic> nic0;
  std::unique_ptr<Nic> nic1;

  explicit TwoNodeFixture(NicConfig c = {}) : cfg(c) {
    nic0 = std::make_unique<Nic>(engine, network, registry, 0, cfg);
    nic1 = std::make_unique<Nic>(engine, network, registry, 1, cfg);
  }

  /// Creates an RC queue pair on each NIC, connected to each other.
  struct RcPair {
    QueuePair* qp0;
    QueuePair* qp1;
    CompletionQueue* scq0;
    CompletionQueue* rcq0;
    CompletionQueue* scq1;
    CompletionQueue* rcq1;
    ProtectionDomainId pd0;
    ProtectionDomainId pd1;
  };

  RcPair connect_rc(std::uint32_t max_inline = 0) {
    RcPair p{};
    p.pd0 = nic0->alloc_pd();
    p.pd1 = nic1->alloc_pd();
    p.scq0 = nic0->create_cq(1024);
    p.rcq0 = nic0->create_cq(1024);
    p.scq1 = nic1->create_cq(1024);
    p.rcq1 = nic1->create_cq(1024);
    p.qp0 = nic0->create_qp(
        QpConfig{QpType::kRC, p.pd0, p.scq0, p.rcq0, 128, 512, max_inline});
    p.qp1 = nic1->create_qp(
        QpConfig{QpType::kRC, p.pd1, p.scq1, p.rcq1, 128, 512, max_inline});
    EXPECT_EQ(nic0->modify_qp(*p.qp0, QpState::kInit), kOk);
    EXPECT_EQ(nic0->modify_qp(*p.qp0, QpState::kRtr, {1, p.qp1->qpn()}), kOk);
    EXPECT_EQ(nic0->modify_qp(*p.qp0, QpState::kRts), kOk);
    EXPECT_EQ(nic1->modify_qp(*p.qp1, QpState::kInit), kOk);
    EXPECT_EQ(nic1->modify_qp(*p.qp1, QpState::kRtr, {0, p.qp0->qpn()}), kOk);
    EXPECT_EQ(nic1->modify_qp(*p.qp1, QpState::kRts), kOk);
    return p;
  }
};

/// Drain one completion from a CQ, asserting there is exactly one.
Cqe take_one(CompletionQueue& cq) {
  std::array<Cqe, 4> wc;
  EXPECT_EQ(cq.poll(wc), 1u) << "expected exactly one completion";
  return wc[0];
}

TEST(MrTable, RegisterCheckDeregister) {
  MrTable t;
  std::vector<std::byte> buf(4096);
  auto addr = reinterpret_cast<std::uintptr_t>(buf.data());
  const MemoryRegion& mr =
      t.register_mr(1, addr, buf.size(), kAccessLocalWrite | kAccessRemoteRead);
  EXPECT_EQ(mr.lkey, mr.rkey);
  // Local checks.
  EXPECT_NE(t.check_local({addr, 4096, mr.lkey}, 1, true), nullptr);
  EXPECT_EQ(t.check_local({addr, 4096, mr.lkey}, 2, true), nullptr)
      << "PD mismatch must fail";
  EXPECT_EQ(t.check_local({addr, 4097, mr.lkey}, 1, false), nullptr)
      << "out-of-range must fail";
  EXPECT_EQ(t.check_local({addr + 1, 4096, mr.lkey}, 1, false), nullptr);
  EXPECT_NE(t.check_local({addr + 100, 100, mr.lkey}, 1, false), nullptr);
  EXPECT_EQ(t.check_local({addr, 16, mr.lkey + 1}, 1, false), nullptr);
  // Remote checks.
  EXPECT_NE(t.check_remote(mr.rkey, addr, 4096, kAccessRemoteRead), nullptr);
  EXPECT_EQ(t.check_remote(mr.rkey, addr, 4096, kAccessRemoteWrite), nullptr)
      << "missing access flag must fail";
  EXPECT_EQ(t.check_remote(mr.rkey + 7, addr, 16, kAccessRemoteRead), nullptr);
  // Deregistration invalidates both keys.
  EXPECT_TRUE(t.deregister_mr(mr.lkey));
  EXPECT_FALSE(t.deregister_mr(mr.lkey));
  EXPECT_EQ(t.check_remote(mr.rkey, addr, 16, kAccessRemoteRead), nullptr);
}

TEST(MrTable, OverflowProofRangeCheck) {
  MrTable t;
  const MemoryRegion& mr = t.register_mr(1, 0x1000, 0x100, kAccessNone);
  // addr + len overflow must not wrap around into acceptance.
  EXPECT_EQ(t.check_local({~std::uintptr_t{0} - 1, 16, mr.lkey}, 1, false), nullptr);
}

TEST(QpStateMachine, LegalAndIllegalTransitions) {
  TwoNodeFixture f;
  auto* cq = f.nic0->create_cq(16);
  auto* qp = f.nic0->create_qp(QpConfig{QpType::kRC, 1, cq, cq, 16, 16, 0});
  ASSERT_NE(qp, nullptr);
  EXPECT_EQ(qp->state(), QpState::kReset);
  EXPECT_EQ(f.nic0->modify_qp(*qp, QpState::kRts), kErrState)
      << "RESET -> RTS must be rejected";
  EXPECT_EQ(f.nic0->modify_qp(*qp, QpState::kInit), kOk);
  EXPECT_EQ(f.nic0->modify_qp(*qp, QpState::kInit), kErrState);
  EXPECT_EQ(f.nic0->modify_qp(*qp, QpState::kRtr, {99, 1}), kErrInvalid)
      << "unknown destination node must be rejected";
  EXPECT_EQ(f.nic0->modify_qp(*qp, QpState::kRtr, {1, 0x100}), kOk);
  EXPECT_EQ(f.nic0->modify_qp(*qp, QpState::kRts), kOk);
  EXPECT_EQ(f.nic0->modify_qp(*qp, QpState::kError), kOk);
  EXPECT_EQ(qp->state(), QpState::kError);
  EXPECT_EQ(f.nic0->modify_qp(*qp, QpState::kReset), kOk);
  EXPECT_EQ(qp->state(), QpState::kReset);
}

TEST(QpStateMachine, PostRequiresCorrectState) {
  TwoNodeFixture f;
  auto* cq = f.nic0->create_cq(16);
  auto* qp = f.nic0->create_qp(QpConfig{QpType::kRC, 1, cq, cq, 16, 16, 0});
  std::vector<std::byte> buf(64);
  auto addr = reinterpret_cast<std::uintptr_t>(buf.data());
  const auto& mr = f.nic0->register_mr(1, buf.data(), buf.size(), kAccessLocalWrite);
  EXPECT_EQ(f.nic0->post_send(*qp, SendWr{.sge = {addr, 64, mr.lkey}}), kErrState);
  EXPECT_EQ(f.nic0->post_recv(*qp, RecvWr{0, {addr, 64, mr.lkey}}), kErrState);
  ASSERT_EQ(f.nic0->modify_qp(*qp, QpState::kInit), kOk);
  EXPECT_EQ(f.nic0->post_recv(*qp, RecvWr{0, {addr, 64, mr.lkey}}), kOk)
      << "receives may be posted from INIT";
  EXPECT_EQ(f.nic0->post_send(*qp, SendWr{.sge = {addr, 64, mr.lkey}}), kErrState)
      << "sends require RTS";
}

TEST(RcSendRecv, DeliversPayloadAndCompletions) {
  TwoNodeFixture f;
  auto p = f.connect_rc();
  std::vector<std::byte> src(4096), dst(4096, std::byte{0});
  std::iota(reinterpret_cast<std::uint8_t*>(src.data()),
            reinterpret_cast<std::uint8_t*>(src.data()) + src.size(), 1);
  const auto& smr = f.nic0->register_mr(p.pd0, src.data(), src.size(), 0);
  const auto& rmr =
      f.nic1->register_mr(p.pd1, dst.data(), dst.size(), kAccessLocalWrite);

  ASSERT_EQ(f.nic1->post_recv(*p.qp1,
                              RecvWr{77, {reinterpret_cast<std::uintptr_t>(dst.data()),
                                          4096, rmr.lkey}}),
            kOk);
  ASSERT_EQ(f.nic0->post_send(*p.qp0,
                              SendWr{.wr_id = 42,
                                     .opcode = Opcode::kSend,
                                     .sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                             4096, smr.lkey}}),
            kOk);
  f.engine.run();

  Cqe sc = take_one(*p.scq0);
  EXPECT_EQ(sc.wr_id, 42u);
  EXPECT_EQ(sc.status, WcStatus::kSuccess);
  EXPECT_EQ(sc.opcode, WcOpcode::kSend);

  Cqe rc = take_one(*p.rcq1);
  EXPECT_EQ(rc.wr_id, 77u);
  EXPECT_EQ(rc.status, WcStatus::kSuccess);
  EXPECT_EQ(rc.opcode, WcOpcode::kRecv);
  EXPECT_EQ(rc.byte_len, 4096u);
  EXPECT_EQ(rc.qp_num, p.qp1->qpn());
  EXPECT_EQ(rc.src_qp, p.qp0->qpn());
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 4096), 0);
}

TEST(RcSendRecv, SendWithImmediateCarriesImm) {
  TwoNodeFixture f;
  auto p = f.connect_rc();
  std::vector<std::byte> src(16), dst(16);
  const auto& smr = f.nic0->register_mr(p.pd0, src.data(), src.size(), 0);
  const auto& rmr =
      f.nic1->register_mr(p.pd1, dst.data(), dst.size(), kAccessLocalWrite);
  ASSERT_EQ(f.nic1->post_recv(*p.qp1,
                              RecvWr{1, {reinterpret_cast<std::uintptr_t>(dst.data()),
                                         16, rmr.lkey}}),
            kOk);
  ASSERT_EQ(f.nic0->post_send(*p.qp0,
                              SendWr{.wr_id = 2,
                                     .opcode = Opcode::kSendWithImm,
                                     .sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                             16, smr.lkey},
                                     .imm = 0xBEEF}),
            kOk);
  f.engine.run();
  Cqe rc = take_one(*p.rcq1);
  EXPECT_TRUE(rc.has_imm);
  EXPECT_EQ(rc.imm, 0xBEEFu);
}

TEST(RcSendRecv, ManyMessagesArriveInOrder) {
  TwoNodeFixture f;
  auto p = f.connect_rc();
  constexpr int kMsgs = 64;
  std::vector<std::vector<std::byte>> bufs(kMsgs, std::vector<std::byte>(8));
  std::vector<std::vector<std::byte>> dsts(kMsgs, std::vector<std::byte>(8));
  for (int i = 0; i < kMsgs; ++i) {
    bufs[i][0] = static_cast<std::byte>(i);
    const auto& smr = f.nic0->register_mr(p.pd0, bufs[i].data(), 8, 0);
    const auto& rmr = f.nic1->register_mr(p.pd1, dsts[i].data(), 8, kAccessLocalWrite);
    ASSERT_EQ(f.nic1->post_recv(
                  *p.qp1, RecvWr{static_cast<std::uint64_t>(i),
                                 {reinterpret_cast<std::uintptr_t>(dsts[i].data()), 8,
                                  rmr.lkey}}),
              kOk);
    ASSERT_EQ(f.nic0->post_send(
                  *p.qp0, SendWr{.wr_id = static_cast<std::uint64_t>(i),
                                 .sge = {reinterpret_cast<std::uintptr_t>(bufs[i].data()),
                                         8, smr.lkey}}),
              kOk);
  }
  f.engine.run();
  std::vector<Cqe> wc(kMsgs + 1);
  ASSERT_EQ(p.rcq1->poll(wc), static_cast<std::size_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(wc[i].wr_id, static_cast<std::uint64_t>(i)) << "ordering violated";
    EXPECT_EQ(static_cast<int>(dsts[i][0]), i) << "message i landed in recv i";
  }
}

TEST(RdmaWrite, WritesRemoteMemoryWithoutReceiverCqe) {
  TwoNodeFixture f;
  auto p = f.connect_rc();
  std::vector<std::byte> src(1024), dst(1024, std::byte{0});
  std::iota(reinterpret_cast<std::uint8_t*>(src.data()),
            reinterpret_cast<std::uint8_t*>(src.data()) + src.size(), 3);
  const auto& smr = f.nic0->register_mr(p.pd0, src.data(), src.size(), 0);
  const auto& rmr =
      f.nic1->register_mr(p.pd1, dst.data(), dst.size(),
                          kAccessLocalWrite | kAccessRemoteWrite);
  ASSERT_EQ(f.nic0->post_send(*p.qp0,
                              SendWr{.wr_id = 5,
                                     .opcode = Opcode::kRdmaWrite,
                                     .sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                             1024, smr.lkey},
                                     .remote_addr = reinterpret_cast<std::uintptr_t>(dst.data()),
                                     .rkey = rmr.rkey}),
            kOk);
  f.engine.run();
  Cqe sc = take_one(*p.scq0);
  EXPECT_EQ(sc.status, WcStatus::kSuccess);
  EXPECT_EQ(sc.opcode, WcOpcode::kRdmaWrite);
  EXPECT_EQ(p.rcq1->depth(), 0u) << "plain RDMA write must not consume a recv";
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 1024), 0);
}

TEST(RdmaWrite, WithImmConsumesRecvAndSignalsImm) {
  TwoNodeFixture f;
  auto p = f.connect_rc();
  std::vector<std::byte> src(64), dst(64), rbuf(64);
  const auto& smr = f.nic0->register_mr(p.pd0, src.data(), src.size(), 0);
  const auto& rmr = f.nic1->register_mr(p.pd1, dst.data(), dst.size(),
                                        kAccessLocalWrite | kAccessRemoteWrite);
  const auto& rb = f.nic1->register_mr(p.pd1, rbuf.data(), rbuf.size(), kAccessLocalWrite);
  ASSERT_EQ(f.nic1->post_recv(*p.qp1,
                              RecvWr{9, {reinterpret_cast<std::uintptr_t>(rbuf.data()),
                                         64, rb.lkey}}),
            kOk);
  ASSERT_EQ(f.nic0->post_send(*p.qp0,
                              SendWr{.wr_id = 6,
                                     .opcode = Opcode::kRdmaWriteWithImm,
                                     .sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                             64, smr.lkey},
                                     .imm = 0xAA55,
                                     .remote_addr = reinterpret_cast<std::uintptr_t>(dst.data()),
                                     .rkey = rmr.rkey}),
            kOk);
  f.engine.run();
  Cqe rc = take_one(*p.rcq1);
  EXPECT_EQ(rc.wr_id, 9u);
  EXPECT_EQ(rc.opcode, WcOpcode::kRecvRdmaWithImm);
  EXPECT_TRUE(rc.has_imm);
  EXPECT_EQ(rc.imm, 0xAA55u);
}

TEST(RdmaRead, FetchesRemoteMemory) {
  TwoNodeFixture f;
  auto p = f.connect_rc();
  std::vector<std::byte> remote(2048), local(2048, std::byte{0});
  std::iota(reinterpret_cast<std::uint8_t*>(remote.data()),
            reinterpret_cast<std::uint8_t*>(remote.data()) + remote.size(), 9);
  const auto& rmr =
      f.nic1->register_mr(p.pd1, remote.data(), remote.size(), kAccessRemoteRead);
  const auto& lmr =
      f.nic0->register_mr(p.pd0, local.data(), local.size(), kAccessLocalWrite);
  ASSERT_EQ(f.nic0->post_send(*p.qp0,
                              SendWr{.wr_id = 11,
                                     .opcode = Opcode::kRdmaRead,
                                     .sge = {reinterpret_cast<std::uintptr_t>(local.data()),
                                             2048, lmr.lkey},
                                     .remote_addr = reinterpret_cast<std::uintptr_t>(remote.data()),
                                     .rkey = rmr.rkey}),
            kOk);
  f.engine.run();
  Cqe sc = take_one(*p.scq0);
  EXPECT_EQ(sc.status, WcStatus::kSuccess);
  EXPECT_EQ(sc.opcode, WcOpcode::kRdmaRead);
  EXPECT_EQ(std::memcmp(remote.data(), local.data(), 2048), 0);
}

TEST(RdmaRead, ServerCpuNotInvolved) {
  // The paper's Fig. 3 hinges on this: an RDMA read completes without any
  // receiver-side posting or completion.
  TwoNodeFixture f;
  auto p = f.connect_rc();
  std::vector<std::byte> remote(128), local(128);
  const auto& rmr =
      f.nic1->register_mr(p.pd1, remote.data(), remote.size(), kAccessRemoteRead);
  const auto& lmr =
      f.nic0->register_mr(p.pd0, local.data(), local.size(), kAccessLocalWrite);
  ASSERT_EQ(f.nic0->post_send(*p.qp0,
                              SendWr{.opcode = Opcode::kRdmaRead,
                                     .sge = {reinterpret_cast<std::uintptr_t>(local.data()),
                                             128, lmr.lkey},
                                     .remote_addr = reinterpret_cast<std::uintptr_t>(remote.data()),
                                     .rkey = rmr.rkey}),
            kOk);
  f.engine.run();
  EXPECT_EQ(p.rcq1->depth(), 0u);
  EXPECT_EQ(p.scq1->depth(), 0u);
}

TEST(Inline, PayloadSnapshotAtPostTime) {
  TwoNodeFixture f;
  auto p = f.connect_rc(/*max_inline=*/220);
  std::vector<std::byte> src(64, std::byte{0x11}), dst(64);
  const auto& rmr =
      f.nic1->register_mr(p.pd1, dst.data(), dst.size(), kAccessLocalWrite);
  ASSERT_EQ(f.nic1->post_recv(*p.qp1,
                              RecvWr{1, {reinterpret_cast<std::uintptr_t>(dst.data()),
                                         64, rmr.lkey}}),
            kOk);
  // Inline needs no lkey at all.
  ASSERT_EQ(f.nic0->post_send(*p.qp0,
                              SendWr{.opcode = Opcode::kSend,
                                     .sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                             64, 0},
                                     .inline_data = true}),
            kOk);
  // Clobber the source immediately after posting: inline must not care.
  std::fill(src.begin(), src.end(), std::byte{0xFF});
  f.engine.run();
  EXPECT_EQ(static_cast<int>(dst[0]), 0x11)
      << "inline payload must be captured at post time";
}

TEST(Inline, RejectsOversizedAndReads) {
  TwoNodeFixture f;
  auto p = f.connect_rc(/*max_inline=*/64);
  std::vector<std::byte> src(128);
  EXPECT_EQ(f.nic0->post_send(*p.qp0,
                              SendWr{.sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                             128, 0},
                                     .inline_data = true}),
            kErrInvalid);
  EXPECT_EQ(f.nic0->post_send(*p.qp0,
                              SendWr{.opcode = Opcode::kRdmaRead,
                                     .sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                             32, 0},
                                     .inline_data = true}),
            kErrInvalid);
}

TEST(Protection, BadLkeyCompletesWithErrorAndKillsQp) {
  TwoNodeFixture f;
  auto p = f.connect_rc();
  std::vector<std::byte> src(64);
  ASSERT_EQ(f.nic0->post_send(*p.qp0,
                              SendWr{.wr_id = 1,
                                     .sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                             64, 0xDEAD}}),
            kOk)
      << "lkey is validated asynchronously, as on real hardware";
  f.engine.run();
  Cqe sc = take_one(*p.scq0);
  EXPECT_EQ(sc.status, WcStatus::kLocalProtectionError);
  EXPECT_EQ(p.qp0->state(), QpState::kError);
}

TEST(Protection, RemoteWriteWithoutPermissionFails) {
  TwoNodeFixture f;
  auto p = f.connect_rc();
  std::vector<std::byte> src(64), dst(64);
  const auto& smr = f.nic0->register_mr(p.pd0, src.data(), src.size(), 0);
  // Remote MR grants only READ; the write must be NAKed.
  const auto& rmr =
      f.nic1->register_mr(p.pd1, dst.data(), dst.size(), kAccessRemoteRead);
  ASSERT_EQ(f.nic0->post_send(*p.qp0,
                              SendWr{.wr_id = 2,
                                     .opcode = Opcode::kRdmaWrite,
                                     .sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                             64, smr.lkey},
                                     .remote_addr = reinterpret_cast<std::uintptr_t>(dst.data()),
                                     .rkey = rmr.rkey}),
            kOk);
  f.engine.run();
  Cqe sc = take_one(*p.scq0);
  EXPECT_EQ(sc.status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(p.qp0->state(), QpState::kError);
  EXPECT_EQ(dst[0], std::byte{0}) << "no memory may be touched on a NAK";
}

TEST(Protection, ReadBeyondRegionFails) {
  TwoNodeFixture f;
  auto p = f.connect_rc();
  std::vector<std::byte> remote(64), local(128);
  const auto& rmr =
      f.nic1->register_mr(p.pd1, remote.data(), remote.size(), kAccessRemoteRead);
  const auto& lmr =
      f.nic0->register_mr(p.pd0, local.data(), local.size(), kAccessLocalWrite);
  ASSERT_EQ(f.nic0->post_send(*p.qp0,
                              SendWr{.opcode = Opcode::kRdmaRead,
                                     .sge = {reinterpret_cast<std::uintptr_t>(local.data()),
                                             128, lmr.lkey},
                                     .remote_addr = reinterpret_cast<std::uintptr_t>(remote.data()),
                                     .rkey = rmr.rkey}),
            kOk);
  f.engine.run();
  Cqe sc = take_one(*p.scq0);
  EXPECT_EQ(sc.status, WcStatus::kRemoteAccessError);
}

TEST(Rnr, RetriesUntilReceiverPosts) {
  TwoNodeFixture f;
  auto p = f.connect_rc();
  std::vector<std::byte> src(32, std::byte{7}), dst(32);
  const auto& smr = f.nic0->register_mr(p.pd0, src.data(), src.size(), 0);
  const auto& rmr =
      f.nic1->register_mr(p.pd1, dst.data(), dst.size(), kAccessLocalWrite);
  // Send with no receive posted; post the receive 30 us later (within the
  // retry budget: 8 retries x 10 us).
  ASSERT_EQ(f.nic0->post_send(*p.qp0,
                              SendWr{.wr_id = 3,
                                     .sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                             32, smr.lkey}}),
            kOk);
  f.engine.call_at(sim::us(30), [&] {
    ASSERT_EQ(f.nic1->post_recv(*p.qp1,
                                RecvWr{4, {reinterpret_cast<std::uintptr_t>(dst.data()),
                                           32, rmr.lkey}}),
              kOk);
  });
  f.engine.run();
  Cqe sc = take_one(*p.scq0);
  EXPECT_EQ(sc.status, WcStatus::kSuccess);
  EXPECT_EQ(dst[0], std::byte{7});
  EXPECT_GE(p.qp1->counters().rnr_events, 1u);
}

TEST(Rnr, ExhaustedRetriesFailTheSend) {
  TwoNodeFixture f;
  auto p = f.connect_rc();
  std::vector<std::byte> src(32);
  const auto& smr = f.nic0->register_mr(p.pd0, src.data(), src.size(), 0);
  ASSERT_EQ(f.nic0->post_send(*p.qp0,
                              SendWr{.wr_id = 3,
                                     .sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                             32, smr.lkey}}),
            kOk);
  f.engine.run();
  Cqe sc = take_one(*p.scq0);
  EXPECT_EQ(sc.status, WcStatus::kRnrRetryExceeded);
  EXPECT_EQ(p.qp0->state(), QpState::kError);
  // kRnrRetries counts retries after the first attempt (IB's rnr_retry),
  // so the responder turns the send away kRnrRetries + 1 times.
  EXPECT_EQ(p.qp1->counters().rnr_events, kRnrRetries + 1);
}

TEST(Flush, ErrorStateFlushesPostedWork) {
  TwoNodeFixture f;
  auto p = f.connect_rc();
  std::vector<std::byte> buf(64);
  const auto& mr =
      f.nic1->register_mr(p.pd1, buf.data(), buf.size(), kAccessLocalWrite);
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_EQ(f.nic1->post_recv(*p.qp1,
                                RecvWr{i, {reinterpret_cast<std::uintptr_t>(buf.data()),
                                           64, mr.lkey}}),
              kOk);
  }
  f.nic1->qp_set_error(*p.qp1);
  f.engine.run();
  std::vector<Cqe> wc(8);
  ASSERT_EQ(p.rcq1->poll(wc), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(wc[i].status, WcStatus::kWorkRequestFlushed);
  EXPECT_EQ(f.nic1->post_recv(*p.qp1, RecvWr{9, {0, 0, 0}}), kErrState);
}

TEST(Ud, DatagramWithGrhAndSrcQp) {
  TwoNodeFixture f;
  // Build two UD QPs (no connection).
  auto pd0 = f.nic0->alloc_pd();
  auto pd1 = f.nic1->alloc_pd();
  auto* cq0 = f.nic0->create_cq(64);
  auto* cq1 = f.nic1->create_cq(64);
  auto* qp0 = f.nic0->create_qp(QpConfig{QpType::kUD, pd0, cq0, cq0, 64, 64, 0});
  auto* qp1 = f.nic1->create_qp(QpConfig{QpType::kUD, pd1, cq1, cq1, 64, 64, 0});
  for (auto [nic, qp] : {std::pair{f.nic0.get(), qp0}, {f.nic1.get(), qp1}}) {
    ASSERT_EQ(nic->modify_qp(*qp, QpState::kInit), kOk);
    ASSERT_EQ(nic->modify_qp(*qp, QpState::kRtr), kOk);
    ASSERT_EQ(nic->modify_qp(*qp, QpState::kRts), kOk);
  }
  std::vector<std::byte> src(100, std::byte{0x5A}), dst(200);
  const auto& smr = f.nic0->register_mr(pd0, src.data(), src.size(), 0);
  const auto& rmr =
      f.nic1->register_mr(pd1, dst.data(), dst.size(), kAccessLocalWrite);
  ASSERT_EQ(f.nic1->post_recv(*qp1,
                              RecvWr{21, {reinterpret_cast<std::uintptr_t>(dst.data()),
                                          200, rmr.lkey}}),
            kOk);
  ASSERT_EQ(f.nic0->post_send(*qp0,
                              SendWr{.wr_id = 20,
                                     .opcode = Opcode::kSend,
                                     .sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                             100, smr.lkey},
                                     .ud = {1, qp1->qpn()}}),
            kOk);
  f.engine.run();
  Cqe rc = take_one(*cq1);
  EXPECT_EQ(rc.byte_len, 100u + kGrhBytes) << "UD byte_len includes the GRH";
  EXPECT_EQ(rc.src_qp, qp0->qpn());
  EXPECT_EQ(dst[kGrhBytes], std::byte{0x5A}) << "payload lands after the GRH";
  Cqe sc = take_one(*cq0);
  EXPECT_EQ(sc.status, WcStatus::kSuccess);
}

TEST(Ud, RejectsOversizeAndRdma) {
  TwoNodeFixture f;
  auto pd0 = f.nic0->alloc_pd();
  auto* cq0 = f.nic0->create_cq(64);
  auto* qp0 = f.nic0->create_qp(QpConfig{QpType::kUD, pd0, cq0, cq0, 64, 64, 0});
  ASSERT_EQ(f.nic0->modify_qp(*qp0, QpState::kInit), kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qp0, QpState::kRtr), kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qp0, QpState::kRts), kOk);
  std::vector<std::byte> big(8192);
  EXPECT_EQ(f.nic0->post_send(*qp0,
                              SendWr{.sge = {reinterpret_cast<std::uintptr_t>(big.data()),
                                             8192, 0},
                                     .ud = {1, 1}}),
            kErrInvalid)
      << "UD messages are limited to the MTU";
  EXPECT_EQ(f.nic0->post_send(*qp0,
                              SendWr{.opcode = Opcode::kRdmaWrite,
                                     .sge = {reinterpret_cast<std::uintptr_t>(big.data()),
                                             64, 0},
                                     .ud = {1, 1}}),
            kErrInvalid)
      << "UD does not support one-sided operations";
}

TEST(Ud, NoReceivePostedDropsSilently) {
  TwoNodeFixture f;
  auto pd0 = f.nic0->alloc_pd();
  auto pd1 = f.nic1->alloc_pd();
  auto* cq0 = f.nic0->create_cq(64);
  auto* cq1 = f.nic1->create_cq(64);
  auto* qp0 = f.nic0->create_qp(QpConfig{QpType::kUD, pd0, cq0, cq0, 64, 64, 0});
  auto* qp1 = f.nic1->create_qp(QpConfig{QpType::kUD, pd1, cq1, cq1, 64, 64, 0});
  for (auto [nic, qp] : {std::pair{f.nic0.get(), qp0}, {f.nic1.get(), qp1}}) {
    ASSERT_EQ(nic->modify_qp(*qp, QpState::kInit), kOk);
    ASSERT_EQ(nic->modify_qp(*qp, QpState::kRtr), kOk);
    ASSERT_EQ(nic->modify_qp(*qp, QpState::kRts), kOk);
  }
  std::vector<std::byte> src(64);
  const auto& smr = f.nic0->register_mr(pd0, src.data(), src.size(), 0);
  ASSERT_EQ(f.nic0->post_send(*qp0,
                              SendWr{.sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                             64, smr.lkey},
                                     .ud = {1, qp1->qpn()}}),
            kOk);
  f.engine.run();
  EXPECT_EQ(cq1->depth(), 0u);
  // Sender still completes (fire and forget).
  Cqe sc = take_one(*cq0);
  EXPECT_EQ(sc.status, WcStatus::kSuccess);
  EXPECT_EQ(qp0->state(), QpState::kRts) << "UD drop must not error the QP";
}

TEST(Loopback, SameNodeTrafficWorks) {
  TwoNodeFixture f;
  auto pd = f.nic0->alloc_pd();
  auto* scq = f.nic0->create_cq(64);
  auto* rcq = f.nic0->create_cq(64);
  auto* qa = f.nic0->create_qp(QpConfig{QpType::kRC, pd, scq, rcq, 64, 64, 0});
  auto* qb = f.nic0->create_qp(QpConfig{QpType::kRC, pd, scq, rcq, 64, 64, 0});
  ASSERT_EQ(f.nic0->modify_qp(*qa, QpState::kInit), kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qa, QpState::kRtr, {0, qb->qpn()}), kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qa, QpState::kRts), kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qb, QpState::kInit), kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qb, QpState::kRtr, {0, qa->qpn()}), kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qb, QpState::kRts), kOk);
  std::vector<std::byte> src(256, std::byte{0x42}), dst(256);
  const auto& smr = f.nic0->register_mr(pd, src.data(), src.size(), 0);
  const auto& rmr =
      f.nic0->register_mr(pd, dst.data(), dst.size(), kAccessLocalWrite);
  ASSERT_EQ(f.nic0->post_recv(*qb,
                              RecvWr{1, {reinterpret_cast<std::uintptr_t>(dst.data()),
                                         256, rmr.lkey}}),
            kOk);
  ASSERT_EQ(f.nic0->post_send(*qa,
                              SendWr{.sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                             256, smr.lkey}}),
            kOk);
  f.engine.run();
  EXPECT_EQ(dst[0], std::byte{0x42});
}

TEST(Timing, SmallRcSendLatencyInCx6Ballpark) {
  TwoNodeFixture f;
  auto p = f.connect_rc(220);
  std::vector<std::byte> src(8), dst(8);
  const auto& rmr =
      f.nic1->register_mr(p.pd1, dst.data(), dst.size(), kAccessLocalWrite);
  ASSERT_EQ(f.nic1->post_recv(*p.qp1,
                              RecvWr{1, {reinterpret_cast<std::uintptr_t>(dst.data()),
                                         8, rmr.lkey}}),
            kOk);
  Time recv_time = -1;
  f.engine.call_at(0, [&] {
    ASSERT_EQ(f.nic0->post_send(*p.qp0,
                                SendWr{.sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                               8, 0},
                                       .inline_data = true}),
              kOk);
  });
  f.engine.run();
  // Recover the receive completion time by draining events: the CQE was
  // pushed at the completion timestamp. We approximate via final run time:
  // everything in this test ends with the ACK, shortly after delivery.
  recv_time = f.engine.now();
  EXPECT_GT(recv_time, sim::ns(500)) << "unrealistically fast";
  EXPECT_LT(recv_time, sim::us(3)) << "unrealistically slow for an 8 B send";
}

TEST(Timing, LargeTransferApproachesWireBandwidth) {
  TwoNodeFixture f;
  auto p = f.connect_rc();
  constexpr std::size_t kSize = 8u << 20;  // 8 MiB
  std::vector<std::byte> src(kSize, std::byte{1}), dst(kSize);
  const auto& smr = f.nic0->register_mr(p.pd0, src.data(), kSize, 0);
  const auto& rmr = f.nic1->register_mr(p.pd1, dst.data(), kSize,
                                        kAccessLocalWrite | kAccessRemoteWrite);
  ASSERT_EQ(f.nic0->post_send(*p.qp0,
                              SendWr{.opcode = Opcode::kRdmaWrite,
                                     .sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                             kSize, smr.lkey},
                                     .remote_addr = reinterpret_cast<std::uintptr_t>(dst.data()),
                                     .rkey = rmr.rkey}),
            kOk);
  const Time end = f.engine.run();
  // Ideal wire time at 100 Gbit/s is ~671 us; with headers and DMA the
  // model must land within ~40% of that, and never below it.
  const double ideal_us = 8.0 * kSize / 100e9 * 1e6;
  EXPECT_GT(sim::to_us(end), ideal_us);
  EXPECT_LT(sim::to_us(end), ideal_us * 1.4);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), kSize), 0);
}

TEST(Counters, TrackTrafficPerQpAndPerNic) {
  TwoNodeFixture f;
  auto p = f.connect_rc();
  std::vector<std::byte> src(512), dst(512);
  const auto& smr = f.nic0->register_mr(p.pd0, src.data(), src.size(), 0);
  const auto& rmr =
      f.nic1->register_mr(p.pd1, dst.data(), dst.size(), kAccessLocalWrite);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_EQ(f.nic1->post_recv(*p.qp1,
                                RecvWr{i, {reinterpret_cast<std::uintptr_t>(dst.data()),
                                           512, rmr.lkey}}),
              kOk);
    ASSERT_EQ(f.nic0->post_send(*p.qp0,
                                SendWr{.wr_id = i,
                                       .sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                               512, smr.lkey}}),
              kOk);
  }
  f.engine.run();
  EXPECT_EQ(p.qp0->counters().tx_msgs, 4u);
  EXPECT_EQ(p.qp0->counters().tx_bytes, 2048u);
  EXPECT_EQ(p.qp1->counters().rx_msgs, 4u);
  EXPECT_EQ(p.qp1->counters().rx_bytes, 2048u);
  EXPECT_EQ(f.nic0->counters().tx_msgs, 4u);
  EXPECT_EQ(f.nic1->counters().rx_bytes, 2048u);
}

TEST(Cq, OverflowLatches) {
  TwoNodeFixture f;
  CompletionQueue cq(1, 2);
  EXPECT_TRUE(cq.push(Cqe{}));
  EXPECT_TRUE(cq.push(Cqe{}));
  EXPECT_FALSE(cq.push(Cqe{}));
  EXPECT_TRUE(cq.overflowed());
}

TEST(Cq, ArmFiresOnceOnNextCompletion) {
  CompletionQueue cq(1, 16);
  int events = 0;
  cq.set_event_handler([&](CompletionQueue&) { ++events; });
  cq.push(Cqe{});
  EXPECT_EQ(events, 0) << "unarmed CQ must not raise events";
  cq.arm();
  cq.push(Cqe{});
  cq.push(Cqe{});
  EXPECT_EQ(events, 1) << "arming is one-shot";
}

TEST(SqDepth, BackpressureWhenFull) {
  TwoNodeFixture f;
  auto pd = f.nic0->alloc_pd();
  auto* cq = f.nic0->create_cq(64);
  auto* qp = f.nic0->create_qp(QpConfig{QpType::kRC, pd, cq, cq, 2, 64, 64});
  ASSERT_EQ(f.nic0->modify_qp(*qp, QpState::kInit), kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qp, QpState::kRtr, {1, 0x100}), kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qp, QpState::kRts), kOk);
  std::vector<std::byte> buf(8);
  SendWr wr{.sge = {reinterpret_cast<std::uintptr_t>(buf.data()), 8, 0},
            .inline_data = true};
  EXPECT_EQ(f.nic0->post_send(*qp, SendWr{wr}), kOk);
  EXPECT_EQ(f.nic0->post_send(*qp, SendWr{wr}), kOk);
  EXPECT_EQ(f.nic0->post_send(*qp, SendWr{wr}), kErrQueueFull);
}

// --- MTU segmentation contract (nic/segment.hpp) -----------------------

TEST(Segmentation, ChunkCountAtMtuBoundaries) {
  EXPECT_EQ(chunk_count(0, kMtu), 1u) << "zero-length = one header-only chunk";
  EXPECT_EQ(chunk_count(1, kMtu), 1u);
  EXPECT_EQ(chunk_count(kMtu - 1, kMtu), 1u);
  EXPECT_EQ(chunk_count(kMtu, kMtu), 1u) << "exact MTU must not round up";
  EXPECT_EQ(chunk_count(kMtu + 1, kMtu), 2u);
  EXPECT_EQ(chunk_count(3ull * kMtu, kMtu), 3u);
  EXPECT_EQ(chunk_count(3ull * kMtu + 1, kMtu), 4u);
  // Max-size message (2 GiB, the verbs single-WR ceiling): no overflow.
  constexpr std::uint64_t kMax = 1ull << 31;
  EXPECT_EQ(chunk_count(kMax, kMtu), kMax / kMtu);
}

TEST(Segmentation, ForEachChunkMatchesCountAndConservesBytes) {
  for (const std::uint64_t bytes :
       {0ull, 1ull, 4095ull, 4096ull, 4097ull, 3ull * 4096, 3ull * 4096 + 1,
        1ull << 31}) {
    std::uint64_t chunks = 0;
    std::uint64_t sum = 0;
    std::uint32_t last = 0;
    for_each_chunk(bytes, kMtu, [&](std::uint32_t c) {
      ++chunks;
      sum += c;
      last = c;
      EXPECT_LE(c, kMtu);
    });
    EXPECT_EQ(chunks, chunk_count(bytes, kMtu)) << "bytes=" << bytes;
    EXPECT_EQ(sum, bytes) << "bytes=" << bytes;
    if (bytes == 0) {
      EXPECT_EQ(last, 0u) << "zero-length message still emits one chunk";
    } else {
      EXPECT_EQ(last, bytes % kMtu == 0 ? kMtu : bytes % kMtu);
    }
  }
}

TEST(Segmentation, NicCountersTrackExactChunkCounts) {
  // Sends straddling every MTU boundary case: 0, 1, MTU, k*MTU, k*MTU+1.
  TwoNodeFixture f;
  auto p = f.connect_rc();
  const std::vector<std::uint32_t> sizes = {0, 1, kMtu, 3 * kMtu, 3 * kMtu + 1};
  const std::uint32_t max_size = 3 * kMtu + 1;
  std::vector<std::byte> src(max_size), dst(max_size);
  const auto& smr = f.nic0->register_mr(p.pd0, src.data(), src.size(), 0);
  const auto& rmr =
      f.nic1->register_mr(p.pd1, dst.data(), dst.size(), kAccessLocalWrite);
  std::uint64_t want_chunks = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ASSERT_EQ(f.nic1->post_recv(
                  *p.qp1,
                  RecvWr{i, {reinterpret_cast<std::uintptr_t>(dst.data()),
                             max_size, rmr.lkey}}),
              kOk);
    ASSERT_EQ(f.nic0->post_send(
                  *p.qp0,
                  SendWr{.wr_id = i,
                         .opcode = Opcode::kSend,
                         .sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                                 sizes[i], smr.lkey},
                         .signaled = true}),
              kOk);
    want_chunks += chunk_count(sizes[i], kMtu);
  }
  f.engine.run();
  std::vector<Cqe> wc(sizes.size() + 1);
  EXPECT_EQ(p.scq0->poll(wc), sizes.size());
  EXPECT_EQ(p.rcq1->poll(wc), sizes.size());
  EXPECT_EQ(f.nic0->counters().seg_msgs, sizes.size());
  EXPECT_EQ(f.nic0->counters().seg_chunks, want_chunks);
}

TEST(Segmentation, BoundarySizeDeliveryTimesAreReproducible) {
  // The same boundary-size workload must finish at the same simulated
  // instants run to run.
  auto run = [] {
    TwoNodeFixture f;
    auto p = f.connect_rc();
    const std::uint32_t max_size = 3 * kMtu + 1;
    std::vector<std::byte> src(max_size), dst(max_size);
    const auto& smr = f.nic0->register_mr(p.pd0, src.data(), src.size(), 0);
    const auto& rmr =
        f.nic1->register_mr(p.pd1, dst.data(), dst.size(), kAccessLocalWrite);
    std::vector<Time> completion_times;
    p.scq0->set_event_handler([&](CompletionQueue& cq) {
      completion_times.push_back(f.engine.now());
      cq.arm();
    });
    p.scq0->arm();
    for (const std::uint32_t size : {1u, kMtu, 3 * kMtu, 3 * kMtu + 1}) {
      EXPECT_EQ(f.nic1->post_recv(
                    *p.qp1,
                    RecvWr{size, {reinterpret_cast<std::uintptr_t>(dst.data()),
                                  max_size, rmr.lkey}}),
                kOk);
      EXPECT_EQ(
          f.nic0->post_send(
              *p.qp0,
              SendWr{.wr_id = size,
                     .opcode = Opcode::kSend,
                     .sge = {reinterpret_cast<std::uintptr_t>(src.data()),
                             size, smr.lkey},
                     .signaled = true}),
          kOk);
    }
    f.engine.run();
    completion_times.push_back(f.engine.now());
    return completion_times;
  };
  const auto first = run();
  ASSERT_EQ(first.size(), 5u) << "4 completions + final engine time";
  EXPECT_EQ(run(), first);
}

// --- Doorbell and completion batching --------------------------------------

TEST(NicBatching, BurstOfPostsRingsOneDoorbell) {
  TwoNodeFixture f;
  auto pd0 = f.nic0->alloc_pd();
  auto pd1 = f.nic1->alloc_pd();
  auto* scq0 = f.nic0->create_cq(64);
  auto* rcq0 = f.nic0->create_cq(64);
  auto* scq1 = f.nic1->create_cq(64);
  auto* rcq1 = f.nic1->create_cq(64);
  auto* qp0 = f.nic0->create_qp({QpType::kRC, pd0, scq0, rcq0, 64, 64, 0});
  auto* qp1 = f.nic1->create_qp({QpType::kRC, pd1, scq1, rcq1, 64, 64, 0});
  ASSERT_EQ(f.nic0->modify_qp(*qp0, QpState::kInit), kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qp0, QpState::kRtr, {1, qp1->qpn()}), kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qp0, QpState::kRts), kOk);
  ASSERT_EQ(f.nic1->modify_qp(*qp1, QpState::kInit), kOk);
  ASSERT_EQ(f.nic1->modify_qp(*qp1, QpState::kRtr, {0, qp0->qpn()}), kOk);
  ASSERT_EQ(f.nic1->modify_qp(*qp1, QpState::kRts), kOk);

  std::vector<std::byte> src(64, std::byte{0x5A}), dst(4 * 64);
  const auto& mr_src = f.nic0->register_mr(pd0, src.data(), src.size(), 0);
  const auto& mr_dst =
      f.nic1->register_mr(pd1, dst.data(), dst.size(), kAccessLocalWrite);
  const auto uptr = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p);
  };
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(f.nic1->post_recv(
                  *qp1, {std::uint64_t(i),
                         {uptr(dst.data()) + 64u * i, 64, mr_dst.lkey}}),
              kOk);
  }
  // Four posts back-to-back, no engine progress in between: the first
  // rings the doorbell and wakes the SQ drain, the rest ride the burst.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(f.nic0->post_send(
                  *qp0, SendWr{.wr_id = std::uint64_t(i),
                               .sge = {uptr(src.data()), 64, mr_src.lkey}}),
              kOk);
  }
  const auto& c = f.nic0->counters();
  EXPECT_EQ(c.doorbells, 1u);
  EXPECT_EQ(c.doorbells_coalesced, 3u);
  f.engine.run();
  EXPECT_EQ(c.sq_bursts, 1u);
  EXPECT_EQ(c.sq_burst_wrs, 4u);
  std::array<Cqe, 8> wc;
  EXPECT_EQ(scq0->poll(wc), 4u);
  EXPECT_EQ(rcq1->poll(wc), 4u);
}

TEST(NicBatching, ErrorFlushCoalescesIntoOneBatch) {
  TwoNodeFixture f;
  auto pd0 = f.nic0->alloc_pd();
  auto* scq0 = f.nic0->create_cq(64);
  auto* rcq0 = f.nic0->create_cq(64);
  auto* qp0 = f.nic0->create_qp({QpType::kRC, pd0, scq0, rcq0, 64, 64, 0});
  ASSERT_EQ(f.nic0->modify_qp(*qp0, QpState::kInit), kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qp0, QpState::kRtr, {1, 99}), kOk);
  ASSERT_EQ(f.nic0->modify_qp(*qp0, QpState::kRts), kOk);
  std::vector<std::byte> buf(256);
  const auto& mr =
      f.nic0->register_mr(pd0, buf.data(), buf.size(), kAccessLocalWrite);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(f.nic0->post_recv(
                  *qp0, {std::uint64_t(i),
                         {reinterpret_cast<std::uintptr_t>(buf.data()), 64,
                          mr.lkey}}),
              kOk);
  }
  f.nic0->qp_set_error(*qp0);
  f.engine.run();
  const auto& c = f.nic0->counters();
  EXPECT_EQ(c.cqe_flush_batches, 1u);
  EXPECT_EQ(c.cqe_flushed, 3u);
  std::array<Cqe, 8> wc;
  ASSERT_EQ(rcq0->poll(wc), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(wc[i].status, WcStatus::kWorkRequestFlushed);
  }
}

// --- Responder paths, pinned -----------------------------------------------
//
// Sixteen runs drive every responder decision: the QP-state check, the rkey
// check of each one-sided opcode, RNR retry and exhaustion, the receive
// length check for RC and UD, an SRQ underrun and the landing of each
// opcode. Each run (tracer attached) reduces to one text row: the end time,
// the engine events, the trace record count with a digest of every record,
// the responder's RNR count, both QP states, and every CQE in poll order
// with the instant it was pushed. A change that moves any event, record or
// completion on these paths fails here.

std::string_view state_name(QpState s) {
  switch (s) {
    case QpState::kReset: return "reset";
    case QpState::kInit: return "init";
    case QpState::kRtr: return "rtr";
    case QpState::kRts: return "rts";
    case QpState::kError: return "error";
  }
  return "?";
}

std::string_view wc_name(WcOpcode op) {
  switch (op) {
    case WcOpcode::kSend: return "send";
    case WcOpcode::kRdmaWrite: return "write";
    case WcOpcode::kRdmaRead: return "read";
    case WcOpcode::kFetchAdd: return "fetch-add";
    case WcOpcode::kCompareSwap: return "compare-swap";
    case WcOpcode::kRecv: return "recv";
    case WcOpcode::kRecvRdmaWithImm: return "recv-imm";
  }
  return "?";
}

/// FNV-1a over every field of every record, in emission order.
std::uint64_t trace_digest(const trace::Tracer& tr) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  tr.for_each([&](const trace::Record& r) {
    mix(static_cast<std::uint64_t>(r.t), 8);
    mix(static_cast<std::uint64_t>(r.dur), 8);
    mix(r.arg, 8);
    mix(r.span, 4);
    mix(r.qpn, 4);
    mix(r.tenant, 4);
    mix(static_cast<std::uint64_t>(r.point), 1);
    mix(r.node, 1);
    mix(r.aux, 2);
  });
  return h;
}

/// One pinned run: qp0 on nic0 requests, qp1 on nic1 responds.
struct PinRun {
  TwoNodeFixture f;
  trace::Tracer tracer{f.engine};
  ProtectionDomainId pd0 = f.nic0->alloc_pd();
  ProtectionDomainId pd1 = f.nic1->alloc_pd();
  CompletionQueue* scq0 = f.nic0->create_cq(64);
  CompletionQueue* rcq0 = f.nic0->create_cq(64);
  CompletionQueue* scq1 = f.nic1->create_cq(64);
  CompletionQueue* rcq1 = f.nic1->create_cq(64);
  SharedReceiveQueue* srq = nullptr;
  QueuePair* qp0 = nullptr;
  QueuePair* qp1 = nullptr;
  std::vector<std::byte> src = std::vector<std::byte>(256, std::byte{0x5A});
  std::vector<std::byte> dst = std::vector<std::byte>(256);
  std::vector<std::byte> rbuf = std::vector<std::byte>(256);
  std::uint32_t src_lkey =
      f.nic0->register_mr(pd0, src.data(), src.size(), kAccessLocalWrite).lkey;
  std::uint32_t rbuf_lkey =
      f.nic1->register_mr(pd1, rbuf.data(), rbuf.size(), kAccessLocalWrite).lkey;
  /// Every remote access granted.
  std::uint32_t open_rkey =
      f.nic1->register_mr(pd1, dst.data(), dst.size(),
                          kAccessLocalWrite | kAccessRemoteRead |
                              kAccessRemoteWrite | kAccessRemoteAtomic)
          .rkey;
  /// The same bytes with no remote access.
  std::uint32_t closed_rkey =
      f.nic1->register_mr(pd1, dst.data(), dst.size(), kAccessLocalWrite).rkey;
  /// Push instant of every CQE, per CQ, in push order.
  std::array<std::vector<Time>, 4> pushed;

  PinRun() {
    tracer.set_enabled(true);
    const std::array<CompletionQueue*, 4> cqs{scq0, rcq0, scq1, rcq1};
    for (std::size_t i = 0; i < cqs.size(); ++i) {
      cqs[i]->set_event_handler([this, i](CompletionQueue& cq) {
        pushed[i].push_back(f.engine.now());
        cq.arm();
      });
      cqs[i]->arm();
    }
  }

  /// Creates the pair; qp0 reaches RTS, qp1 stops at `responder`.
  void connect(QpType type, QpState responder = QpState::kRts,
               bool with_srq = false) {
    if (with_srq) srq = f.nic1->create_srq(pd1, 16);
    qp0 = f.nic0->create_qp({type, pd0, scq0, rcq0, 64, 64, 0});
    qp1 = f.nic1->create_qp({type, pd1, scq1, rcq1, 64, 64, 0, srq});
    EXPECT_EQ(f.nic0->modify_qp(*qp0, QpState::kInit), kOk);
    EXPECT_EQ(f.nic0->modify_qp(*qp0, QpState::kRtr, {1, qp1->qpn()}), kOk);
    EXPECT_EQ(f.nic0->modify_qp(*qp0, QpState::kRts), kOk);
    for (QpState s : {QpState::kInit, QpState::kRtr, QpState::kRts}) {
      if (static_cast<int>(s) > static_cast<int>(responder)) break;
      EXPECT_EQ(f.nic1->modify_qp(*qp1, s, {0, qp0->qpn()}), kOk);
    }
  }

  void post(Opcode op, std::uint64_t wr_id, std::uint32_t len,
            std::uint32_t rkey = 0) {
    SendWr wr{.wr_id = wr_id,
              .opcode = op,
              .sge = {reinterpret_cast<std::uintptr_t>(src.data()), len,
                      src_lkey},
              .imm = 0x1000u + static_cast<std::uint32_t>(wr_id),
              .remote_addr = reinterpret_cast<std::uintptr_t>(dst.data()),
              .rkey = rkey,
              .compare_add = 3,
              .swap = 9,
              .trace_span = tracer.new_span()};
    if (qp0->type() == QpType::kUD) wr.ud = {1, qp1->qpn()};
    EXPECT_EQ(f.nic0->post_send(*qp0, std::move(wr)), kOk);
  }

  void recv(std::uint64_t wr_id, std::uint32_t len) {
    const RecvWr wr{wr_id,
                    {reinterpret_cast<std::uintptr_t>(rbuf.data()), len,
                     rbuf_lkey}};
    EXPECT_EQ(srq != nullptr ? f.nic1->post_srq_recv(*srq, wr)
                             : f.nic1->post_recv(*qp1, wr),
              kOk);
  }

  void recv_at(Time t, std::uint64_t wr_id, std::uint32_t len) {
    f.engine.call_at(t, [this, wr_id, len] { recv(wr_id, len); });
  }

  std::string run() {
    f.engine.run();
    char line[256];
    std::snprintf(line, sizeof line,
                  "end=%lld events=%llu trace=%zu:%016llx rnr=%llu qp0=%s "
                  "qp1=%s",
                  static_cast<long long>(f.engine.now()),
                  static_cast<unsigned long long>(f.engine.events_processed()),
                  tracer.size(),
                  static_cast<unsigned long long>(trace_digest(tracer)),
                  static_cast<unsigned long long>(qp1->counters().rnr_events),
                  state_name(qp0->state()).data(),
                  state_name(qp1->state()).data());
    std::string out = line;
    if (srq != nullptr) {
      out += " srq=" + std::to_string(srq->consumed()) + "/" +
             std::to_string(srq->depth());
    }
    const std::array<std::pair<const char*, CompletionQueue*>, 4> cqs{
        {{"scq0", scq0}, {"rcq0", rcq0}, {"scq1", scq1}, {"rcq1", rcq1}}};
    for (std::size_t i = 0; i < cqs.size(); ++i) {
      std::array<Cqe, 16> wc;
      const std::size_t n = cqs[i].second->poll(wc);
      EXPECT_EQ(n, pushed[i].size());
      for (std::size_t k = 0; k < n && k < pushed[i].size(); ++k) {
        const Cqe& c = wc[k];
        std::snprintf(line, sizeof line, "\n%s @%lld wr=%llu %s %s len=%u "
                      "qp=%u src=%u",
                      cqs[i].first, static_cast<long long>(pushed[i][k]),
                      static_cast<unsigned long long>(c.wr_id),
                      to_string(c.status).data(), wc_name(c.opcode).data(),
                      c.byte_len, c.qp_num, c.src_qp);
        out += line;
        if (c.has_imm) out += " imm=" + std::to_string(c.imm);
      }
    }
    return out;
  }
};

TEST(ResponderPins, EveryResponderPathMatchesItsPin) {
  struct Case {
    const char* name;
    std::function<void(PinRun&)> setup;
    const char* want;
  };
  const std::vector<Case> cases = {
      {"send to a responder in reset",
       [](PinRun& r) {
         r.connect(QpType::kRC, QpState::kReset);
         r.post(Opcode::kSend, 1, 64);
       },
       "end=1095840 events=5 trace=7:64dff1816f106c1a rnr=0 qp0=error qp1=reset\n"
       "scq0 @1095840 wr=1 remote-invalid-request send len=64 qp=256 src=0"},
      {"send to a responder in init",
       [](PinRun& r) {
         r.connect(QpType::kRC, QpState::kInit);
         r.recv(7, 64);
         r.post(Opcode::kSend, 1, 64);
       },
       "end=1095840 events=5 trace=7:64dff1816f106c1a rnr=0 qp0=error qp1=init\n"
       "scq0 @1095840 wr=1 remote-invalid-request send len=64 qp=256 src=0"},
      {"write without remote access, then a send",
       [](PinRun& r) {
         r.connect(QpType::kRC);
         r.recv(7, 64);
         r.post(Opcode::kRdmaWrite, 1, 64, r.closed_rkey);
         r.post(Opcode::kSend, 2, 64);
       },
       "end=1559840 events=9 trace=14:66592e7316943c8d rnr=0 qp0=error qp1=rts\n"
       "scq0 @1095840 wr=1 remote-access-error write len=64 qp=256 src=0\n"
       "scq0 @1559840 wr=2 success send len=64 qp=256 src=0\n"
       "rcq1 @1357760 wr=7 success recv len=64 qp=256 src=256"},
      {"read without remote access, then a send",
       [](PinRun& r) {
         r.connect(QpType::kRC);
         r.recv(7, 64);
         r.post(Opcode::kRdmaRead, 1, 64, r.closed_rkey);
         r.post(Opcode::kSend, 2, 64);
       },
       "end=1559840 events=9 trace=12:55cf29d7e98c61dd rnr=0 qp0=error qp1=rts\n"
       "scq0 @786720 wr=1 remote-access-error read len=64 qp=256 src=0\n"
       "scq0 @1559840 wr=2 success send len=64 qp=256 src=0\n"
       "rcq1 @1357760 wr=7 success recv len=64 qp=256 src=256"},
      {"fetch-add without remote access, then a send",
       [](PinRun& r) {
         r.connect(QpType::kRC);
         r.recv(7, 64);
         r.post(Opcode::kFetchAdd, 1, 8, r.closed_rkey);
         r.post(Opcode::kSend, 2, 64);
       },
       "end=1559840 events=9 trace=12:8b8460a574a6abc5 rnr=0 qp0=error qp1=rts\n"
       "scq0 @786720 wr=1 remote-access-error fetch-add len=8 qp=256 src=0\n"
       "scq0 @1559840 wr=2 success send len=64 qp=256 src=0\n"
       "rcq1 @1357760 wr=7 success recv len=64 qp=256 src=256"},
      {"compare-swap without remote access, then a send",
       [](PinRun& r) {
         r.connect(QpType::kRC);
         r.recv(7, 64);
         r.post(Opcode::kCompareSwap, 1, 8, r.closed_rkey);
         r.post(Opcode::kSend, 2, 64);
       },
       "end=1559840 events=9 trace=12:8b8460a574a6abc5 rnr=0 qp0=error qp1=rts\n"
       "scq0 @786720 wr=1 remote-access-error compare-swap len=8 qp=256 src=0\n"
       "scq0 @1559840 wr=2 success send len=64 qp=256 src=0\n"
       "rcq1 @1357760 wr=7 success recv len=64 qp=256 src=256"},
      {"send-imm, no receive: RNR exhausted",
       [](PinRun& r) {
         r.connect(QpType::kRC);
         r.post(Opcode::kSendWithImm, 1, 64);
       },
       "end=87062560 events=45 trace=39:5c0ba66ba128620f rnr=9 qp0=error qp1=rts\n"
       "scq0 @87062560 wr=1 rnr-retry-exceeded send len=64 qp=256 src=0"},
      {"send-imm, receive at 25 us: retry succeeds",
       [](PinRun& r) {
         r.connect(QpType::kRC);
         r.recv_at(sim::us(25), 7, 64);
         r.post(Opcode::kSendWithImm, 1, 64);
       },
       "end=33717360 events=22 trace=20:c8bc1f971f25ea4c rnr=3 qp0=rts qp1=rts\n"
       "scq0 @33717360 wr=1 success send len=64 qp=256 src=0\n"
       "rcq1 @33515280 wr=7 success recv len=64 qp=256 src=256 imm=4097"},
      {"write-imm, no receive: RNR exhausted",
       [](PinRun& r) {
         r.connect(QpType::kRC);
         r.post(Opcode::kRdmaWriteWithImm, 1, 64, r.open_rkey);
       },
       "end=87062560 events=45 trace=39:5c0ba66ba128620f rnr=9 qp0=error qp1=rts\n"
       "scq0 @87062560 wr=1 rnr-retry-exceeded write len=64 qp=256 src=0"},
      {"write-imm, receive at 25 us: retry succeeds",
       [](PinRun& r) {
         r.connect(QpType::kRC);
         r.recv_at(sim::us(25), 7, 0);
         r.post(Opcode::kRdmaWriteWithImm, 1, 64, r.open_rkey);
       },
       "end=33717360 events=22 trace=19:8d60a52cf73a37e9 rnr=3 qp0=rts qp1=rts\n"
       "scq0 @33717360 wr=1 success write len=64 qp=256 src=0\n"
       "rcq1 @33515280 wr=7 success recv-imm len=64 qp=256 src=256 imm=4097"},
      {"64 B send into a 16 B receive, a second send behind it",
       [](PinRun& r) {
         r.connect(QpType::kRC);
         r.recv(7, 16);
         r.recv(8, 64);
         r.post(Opcode::kSend, 1, 64);
         r.post(Opcode::kSend, 2, 64);
       },
       "end=1175840 events=10 trace=13:71c89d2b00b51d9a rnr=0 qp0=error qp1=error\n"
       "scq0 @1095840 wr=1 remote-invalid-request send len=64 qp=256 src=0\n"
       "scq0 @1175840 wr=2 remote-invalid-request send len=64 qp=256 src=0\n"
       "rcq1 @893760 wr=7 local-length-error recv len=0 qp=256 src=256\n"
       "rcq1 @893760 wr=8 work-request-flushed recv len=0 qp=256 src=0"},
      {"UD send, no receive",
       [](PinRun& r) {
         r.connect(QpType::kUD);
         r.post(Opcode::kSend, 1, 64);
       },
       "end=893760 events=4 trace=7:bc0e95959bb89b72 rnr=1 qp0=rts qp1=rts\n"
       "scq0 @893760 wr=1 success send len=64 qp=256 src=0"},
      {"UD send into a 100 B receive (64 B + GRH does not fit)",
       [](PinRun& r) {
         r.connect(QpType::kUD);
         r.recv(7, 100);
         r.post(Opcode::kSend, 1, 64);
       },
       "end=893760 events=5 trace=7:bc0e95959bb89b72 rnr=0 qp0=rts qp1=error\n"
       "scq0 @893760 wr=1 success send len=64 qp=256 src=0\n"
       "rcq1 @893760 wr=7 local-length-error recv len=0 qp=256 src=256"},
      {"UD send into a 16 B receive",
       [](PinRun& r) {
         r.connect(QpType::kUD);
         r.recv(7, 16);
         r.post(Opcode::kSend, 1, 64);
       },
       "end=893760 events=5 trace=7:bc0e95959bb89b72 rnr=0 qp0=rts qp1=error\n"
       "scq0 @893760 wr=1 success send len=64 qp=256 src=0\n"
       "rcq1 @893760 wr=7 local-length-error recv len=0 qp=256 src=256"},
      {"SRQ underrun, slot posted at 25 us",
       [](PinRun& r) {
         r.connect(QpType::kRC, QpState::kRts, /*with_srq=*/true);
         r.recv_at(sim::us(25), 7, 64);
         r.post(Opcode::kSend, 1, 64);
       },
       "end=33717360 events=22 trace=20:c8bc1f971f25ea4c rnr=3 qp0=rts qp1=rts srq=1/0\n"
       "scq0 @33717360 wr=1 success send len=64 qp=256 src=0\n"
       "rcq1 @33515280 wr=7 success recv len=64 qp=256 src=256"},
      {"success mix: send, write, read, fetch-add, write-imm",
       [](PinRun& r) {
         r.connect(QpType::kRC);
         r.recv(7, 64);
         r.recv(8, 0);
         r.post(Opcode::kSend, 1, 64);
         r.post(Opcode::kRdmaWrite, 2, 64, r.open_rkey);
         r.post(Opcode::kRdmaRead, 3, 64, r.open_rkey);
         r.post(Opcode::kFetchAdd, 4, 8, r.open_rkey);
         r.post(Opcode::kRdmaWriteWithImm, 5, 32, r.open_rkey);
       },
       "end=1796160 events=20 trace=28:1ac2ed09f3d1b968 rnr=0 qp0=rts qp1=rts\n"
       "scq0 @1494880 wr=4 success fetch-add len=8 qp=256 src=0\n"
       "scq0 @1496960 wr=1 success send len=64 qp=256 src=0\n"
       "scq0 @1559840 wr=2 success write len=64 qp=256 src=0\n"
       "scq0 @1793280 wr=5 success write len=32 qp=256 src=0\n"
       "scq0 @1796160 wr=3 success read len=64 qp=256 src=0\n"
       "rcq1 @1277760 wr=7 success recv len=64 qp=256 src=256\n"
       "rcq1 @1591200 wr=8 success recv-imm len=32 qp=256 src=256 imm=4101"},
  };
  for (const Case& c : cases) {
    PinRun r;
    c.setup(r);
    EXPECT_EQ(r.run(), c.want) << c.name;
  }
}

TEST(Rnr, RetryOnAFailedQpFlushesTheWr) {
  // The write's NAK fails qp0 while the send behind it waits out its RNR
  // timer; the retry then finds qp0 in Error and flushes the send instead
  // of dropping it (which would also strand its SQ credit).
  PinRun r;
  r.connect(QpType::kRC);
  r.post(Opcode::kRdmaWrite, 1, 64, r.closed_rkey);
  r.post(Opcode::kSend, 2, 64);
  r.f.engine.run();
  std::array<Cqe, 4> wc;
  ASSERT_EQ(r.scq0->poll(wc), 2u);
  EXPECT_EQ(wc[0].wr_id, 1u);
  EXPECT_EQ(wc[0].status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(wc[1].wr_id, 2u);
  EXPECT_EQ(wc[1].status, WcStatus::kWorkRequestFlushed);
  EXPECT_EQ(wc[1].opcode, WcOpcode::kSend);
  // The retry fires one kRnrTimer after the RNR NAK reaches qp0 (shortly
  // after the write's NAK) and the flush lands one kCqeWrite later.
  ASSERT_EQ(r.pushed[0].size(), 2u);
  EXPECT_EQ(r.pushed[0][1], 11175840);
  EXPECT_GT(r.pushed[0][1], r.pushed[0][0] + kRnrTimer);
  EXPECT_EQ(r.rcq1->depth(), 0u);
  EXPECT_EQ(r.qp1->counters().rnr_events, 1u);
  EXPECT_EQ(r.qp0->state(), QpState::kError);
}

// --- Fabric ------------------------------------------------------------------

TEST(Network, EveryPairIsOneHopWithItsOwnDirection) {
  sim::Engine e;
  const sim::Bandwidth wire = sim::Bandwidth::gbit_per_sec(100.0);
  fabric::Network net(e, 3, wire, sim::ns(300));
  for (fabric::NodeId a = 0; a < 3; ++a) {
    for (fabric::NodeId b = 0; b < 3; ++b) {
      const fabric::Path p = net.path(a, b);
      // Each direction, and each node's loopback, is a resource of its own.
      for (fabric::NodeId c = 0; c < 3; ++c) {
        for (fabric::NodeId d = 0; d < 3; ++d) {
          if (a != c || b != d) {
            EXPECT_NE(p.tx, net.path(c, d).tx);
          }
        }
      }
      if (a == b) {
        EXPECT_EQ(p.bandwidth.gbps(), fabric::kLoopbackBandwidth.gbps());
        EXPECT_EQ(p.propagation, fabric::kLoopbackDelay);
      } else {
        EXPECT_EQ(p.bandwidth.gbps(), wire.gbps());
        EXPECT_EQ(p.propagation, sim::ns(300));
      }
    }
  }
  // 1000 bytes take 80 ns at 100 Gbit/s; the reverse direction is idle.
  EXPECT_EQ(net.path(0, 1).reserve(0, 1000), sim::ns(80) + sim::ns(300));
  EXPECT_EQ(net.path(1, 0).reserve(0, 1000), sim::ns(80) + sim::ns(300));
  // A loopback runs at 200 Gbit/s: 40 ns for the same 1000 bytes.
  EXPECT_EQ(net.path(2, 2).reserve(0, 1000),
            sim::ns(40) + fabric::kLoopbackDelay);
  EXPECT_THROW(net.path(3, 3), std::invalid_argument);
  EXPECT_THROW(net.path(0, 3), std::invalid_argument);
  EXPECT_THROW(net.path(7, 1), std::invalid_argument);
}

}  // namespace
}  // namespace cord::nic
