// Unit tests for the simulated NIC: registration/protection, the QP state
// machine, RC send/recv, RDMA read/write, UD datagrams, inline data,
// error semantics (rkey violations, RNR, flush), and timing sanity.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "fabric/link.hpp"
#include "nic/nic.hpp"
#include "nic/segment.hpp"
#include "sim/engine.hpp"

namespace cord::nic {
namespace {

using sim::Time;

/// Two NICs connected back-to-back at 100 Gbit/s — a miniature "system L".
struct TwoNodeFixture {
  sim::Engine engine;
  fabric::Network network{engine};
  NicRegistry registry;
  NicConfig cfg;
  std::unique_ptr<Nic> nic0;
  std::unique_ptr<Nic> nic1;

  explicit TwoNodeFixture(NicConfig c = {}) : cfg(c) {
    network.add_node(0, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
    network.add_node(1, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
    network.connect(0, 1, sim::Bandwidth::gbit_per_sec(100.0), sim::ns(150));
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
  constexpr std::uint32_t kMtu = 4096;
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
  constexpr std::uint32_t kMtu = 4096;
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
  const std::uint32_t mtu = f.cfg.mtu;
  const std::vector<std::uint32_t> sizes = {0, 1, mtu, 3 * mtu, 3 * mtu + 1};
  const std::uint32_t max_size = 3 * mtu + 1;
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
    want_chunks += chunk_count(sizes[i], mtu);
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
    const std::uint32_t mtu = f.cfg.mtu;
    const std::uint32_t max_size = 3 * mtu + 1;
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
    for (const std::uint32_t size : {1u, mtu, 3 * mtu, 3 * mtu + 1}) {
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
  // rings the doorbell and wakes the SQ worker, the rest ride the burst.
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

// --- Fabric wiring errors ---------------------------------------------------

TEST(Network, PathErrorsThrow) {
  sim::Engine e;
  fabric::Network net(e);
  net.add_node(0, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
  net.add_node(1, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
  // No wiring at all: an unknown loopback and a missing link both throw.
  EXPECT_THROW(net.path(7, 7), std::invalid_argument);
  EXPECT_THROW(net.path(0, 1), std::invalid_argument);
}

// Network::connect used to replace a Link silently, destroying the
// Resources inside it while Paths handed to NICs still pointed at them.
TEST(Network, DuplicateConnectThrows) {
  sim::Engine e;
  fabric::Network net(e);
  net.add_node(0, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
  net.add_node(1, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(150));
  net.connect(0, 1, sim::Bandwidth::gbit_per_sec(100.0), sim::ns(150));
  EXPECT_THROW(
      net.connect(0, 1, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(50)),
      std::invalid_argument);
  // The pair key is unordered: reconnecting in reverse is the same link.
  EXPECT_THROW(
      net.connect(1, 0, sim::Bandwidth::gbit_per_sec(200.0), sim::ns(50)),
      std::invalid_argument);
  // The original link (and any Path resource taken from it) is untouched.
  EXPECT_EQ(net.path(0, 1).propagation, sim::ns(150));
}

}  // namespace
}  // namespace cord::nic
