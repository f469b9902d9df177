// Shared-receive-queue tests: creation, posting, consumption across many
// QPs, protection, capacity and RNR-on-underrun — the machinery the MPI
// eager protocol scales on.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace cord::nic {
namespace {

using cord::testing::TwoHostFixture;
using cord::testing::uptr;

struct SrqFixture : TwoHostFixture {
  ProtectionDomainId pd0;
  ProtectionDomainId pd1;
  CompletionQueue* scq0;
  CompletionQueue* cq1;
  SharedReceiveQueue* srq;
  std::vector<std::byte> slab;  // receive slots on host1
  const MemoryRegion* slab_mr;
  static constexpr std::uint32_t kSlot = 256;

  SrqFixture() : slab(64 * kSlot) {
    pd0 = host0->nic().alloc_pd();
    pd1 = host1->nic().alloc_pd();
    scq0 = host0->nic().create_cq(256);
    cq1 = host1->nic().create_cq(256);
    srq = host1->nic().create_srq(pd1, 64);
    slab_mr = &host1->nic().register_mr(pd1, slab.data(), slab.size(),
                                        kAccessLocalWrite);
  }

  /// RC QP on host0 connected to a SRQ-attached QP on host1.
  std::pair<QueuePair*, QueuePair*> connect_pair() {
    QueuePair* q0 = host0->nic().create_qp(
        {QpType::kRC, pd0, scq0, scq0, 64, 64, 0});
    QueuePair* q1 = host1->nic().create_qp(
        {QpType::kRC, pd1, cq1, cq1, 64, 0, 0, srq});
    EXPECT_EQ(host0->nic().modify_qp(*q0, QpState::kInit), kOk);
    EXPECT_EQ(host0->nic().modify_qp(*q0, QpState::kRtr, {1, q1->qpn()}), kOk);
    EXPECT_EQ(host0->nic().modify_qp(*q0, QpState::kRts), kOk);
    EXPECT_EQ(host1->nic().modify_qp(*q1, QpState::kInit), kOk);
    EXPECT_EQ(host1->nic().modify_qp(*q1, QpState::kRtr, {0, q0->qpn()}), kOk);
    EXPECT_EQ(host1->nic().modify_qp(*q1, QpState::kRts), kOk);
    return {q0, q1};
  }

  int post_slot(std::uint32_t i) {
    return host1->nic().post_srq_recv(
        *srq, {i, {uptr(slab.data() + i * kSlot), kSlot, slab_mr->lkey}});
  }
};

TEST(Srq, PostValidatesProtection) {
  SrqFixture f;
  EXPECT_EQ(f.post_slot(0), kOk);
  // Wrong lkey.
  EXPECT_EQ(f.host1->nic().post_srq_recv(
                *f.srq, {9, {uptr(f.slab.data()), 64, 0xDEAD}}),
            kErrInvalid);
  // MR from another PD must be rejected.
  std::vector<std::byte> other(64);
  const MemoryRegion& foreign = f.host1->nic().register_mr(
      f.pd1 + 100, other.data(), other.size(), kAccessLocalWrite);
  EXPECT_EQ(f.host1->nic().post_srq_recv(
                *f.srq, {9, {uptr(other.data()), 64, foreign.lkey}}),
            kErrInvalid);
}

TEST(Srq, CapacityEnforced) {
  SrqFixture f;
  for (std::uint32_t i = 0; i < 64; ++i) EXPECT_EQ(f.post_slot(i % 64), kOk);
  EXPECT_EQ(f.post_slot(0), kErrQueueFull);
}

TEST(Srq, PostRecvOnSrqQpRejected) {
  SrqFixture f;
  auto [q0, q1] = f.connect_pair();
  (void)q0;
  EXPECT_EQ(f.host1->nic().post_recv(*q1, {1, {uptr(f.slab.data()), 64,
                                               f.slab_mr->lkey}}),
            kErrInvalid)
      << "SRQ-attached QPs must use post_srq_recv";
}

TEST(Srq, ManyQpsShareOnePool) {
  SrqFixture f;
  constexpr int kQps = 8;
  std::vector<std::pair<QueuePair*, QueuePair*>> pairs;
  for (int i = 0; i < kQps; ++i) pairs.push_back(f.connect_pair());
  for (std::uint32_t i = 0; i < 32; ++i) ASSERT_EQ(f.post_slot(i), kOk);

  std::vector<std::vector<std::byte>> srcs;
  for (int i = 0; i < kQps; ++i) {
    srcs.emplace_back(100, static_cast<std::byte>(i + 1));
  }
  for (int i = 0; i < kQps; ++i) {
    const auto& mr = f.host0->nic().register_mr(f.pd0, srcs[i].data(), 100, 0);
    ASSERT_EQ(f.host0->nic().post_send(
                  *pairs[i].first,
                  SendWr{.wr_id = static_cast<std::uint64_t>(i),
                         .sge = {uptr(srcs[i].data()), 100, mr.lkey}}),
              kOk);
  }
  f.engine.run();

  std::vector<Cqe> wc(32);
  const std::size_t n = f.cq1->poll(wc);
  ASSERT_EQ(n, static_cast<std::size_t>(kQps));
  EXPECT_EQ(f.srq->consumed(), static_cast<std::uint64_t>(kQps));
  EXPECT_EQ(f.srq->depth(), 32u - kQps);
  // Each CQE identifies its QP; payload landed in the slot its WQE named.
  for (std::size_t i = 0; i < n; ++i) {
    const auto slot = static_cast<std::uint32_t>(wc[i].wr_id);
    const int sender = static_cast<int>(wc[i].wr_id);  // wr_id == qp index here?
    (void)sender;
    EXPECT_EQ(wc[i].status, WcStatus::kSuccess);
    EXPECT_NE(f.slab[slot * SrqFixture::kSlot], std::byte{0})
        << "slot " << slot << " untouched";
  }
}

TEST(Srq, UnderrunTriggersRnrRetryThenSucceeds) {
  SrqFixture f;
  auto [q0, q1] = f.connect_pair();
  (void)q1;
  std::vector<std::byte> src(64, std::byte{0x7E});
  const auto& mr = f.host0->nic().register_mr(f.pd0, src.data(), 64, 0);
  ASSERT_EQ(f.host0->nic().post_send(
                *q0, SendWr{.wr_id = 5, .sge = {uptr(src.data()), 64, mr.lkey}}),
            kOk);
  // Provide the slot only after 25 us — within the RNR retry budget.
  f.engine.call_at(sim::us(25), [&f] { ASSERT_EQ(f.post_slot(0), kOk); });
  f.engine.run();
  std::vector<Cqe> wc(4);
  ASSERT_EQ(f.scq0->poll(wc), 1u);
  EXPECT_EQ(wc[0].status, WcStatus::kSuccess);
  EXPECT_EQ(f.slab[0], std::byte{0x7E});
}

TEST(Srq, WriteWithImmConsumesAnSrqSlot) {
  // The immediate needs a receive WQE; on an SRQ-attached QP it comes from
  // the SRQ, while the payload lands at the remote address, not the slot.
  SrqFixture f;
  auto [q0, q1] = f.connect_pair();
  (void)q1;
  std::vector<std::byte> src(64, std::byte{0x3C}), dst(64);
  const auto& smr = f.host0->nic().register_mr(f.pd0, src.data(), 64, 0);
  const auto& dmr = f.host1->nic().register_mr(
      f.pd1, dst.data(), 64, kAccessLocalWrite | kAccessRemoteWrite);
  ASSERT_EQ(f.post_slot(0), kOk);
  ASSERT_EQ(f.host0->nic().post_send(
                *q0, SendWr{.wr_id = 5,
                            .opcode = Opcode::kRdmaWriteWithImm,
                            .sge = {uptr(src.data()), 64, smr.lkey},
                            .imm = 0xC0DE,
                            .remote_addr = uptr(dst.data()),
                            .rkey = dmr.rkey}),
            kOk);
  f.engine.run();
  std::vector<Cqe> wc(4);
  ASSERT_EQ(f.scq0->poll(wc), 1u);
  EXPECT_EQ(wc[0].status, WcStatus::kSuccess);
  ASSERT_EQ(f.cq1->poll(wc), 1u);
  EXPECT_EQ(wc[0].status, WcStatus::kSuccess);
  EXPECT_EQ(wc[0].opcode, WcOpcode::kRecvRdmaWithImm);
  EXPECT_EQ(wc[0].wr_id, 0u);
  EXPECT_EQ(wc[0].byte_len, 64u);
  EXPECT_TRUE(wc[0].has_imm);
  EXPECT_EQ(wc[0].imm, 0xC0DEu);
  EXPECT_EQ(dst[63], std::byte{0x3C});
  EXPECT_EQ(f.slab[0], std::byte{0}) << "the slot's buffer is not written";
  EXPECT_EQ(f.srq->consumed(), 1u);
  EXPECT_EQ(f.srq->depth(), 0u);
}

TEST(Srq, FifoConsumptionOrder) {
  SrqFixture f;
  auto [q0, q1] = f.connect_pair();
  (void)q1;
  for (std::uint32_t i = 0; i < 4; ++i) ASSERT_EQ(f.post_slot(i), kOk);
  std::vector<std::byte> src(16);
  const auto& mr = f.host0->nic().register_mr(f.pd0, src.data(), 16, 0);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_EQ(f.host0->nic().post_send(
                  *q0, SendWr{.wr_id = i, .sge = {uptr(src.data()), 16, mr.lkey}}),
              kOk);
  }
  f.engine.run();
  std::vector<Cqe> wc(8);
  ASSERT_EQ(f.cq1->poll(wc), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(wc[i].wr_id, i) << "SRQ slots must be consumed FIFO";
  }
}

}  // namespace
}  // namespace cord::nic
