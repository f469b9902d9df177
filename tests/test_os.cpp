// Unit tests for the OS layer: CPU/DVFS model, syscall cost model,
// the policy framework and the concrete CoRD policies, kernel control
// plane, the CoRD data-plane syscalls, and interrupt-driven completions.
#include <gtest/gtest.h>

#include "os/policies.hpp"
#include "test_util.hpp"

namespace cord::os {
namespace {

using cord::testing::RcEndpoints;
using cord::testing::TwoHostFixture;
using cord::testing::run_task;
using cord::testing::uptr;

TEST(CpuModel, MemcpyMatchesPaperCalibration) {
  sim::Engine e;
  Core core(e, CpuModel{}, 1);
  // The paper: removing zero-copy adds up to 140 us/MiB.
  const sim::Time t = core.memcpy_time(1 << 20);
  EXPECT_NEAR(sim::to_us(t), 140.0, 1.0);
}

TEST(CpuModel, SyscallCostRespectsKptiAndVirtualization) {
  sim::Engine e;
  Core plain(e, CpuModel{}, 1);
  CpuModel kpti_model;
  kpti_model.kpti = true;
  Core kpti(e, kpti_model, 1);
  CpuModel virt_model;
  virt_model.virt_overhead = 0.6;
  Core virt(e, virt_model, 1);
  const sim::Time base = plain.syscall_cost();
  EXPECT_EQ(base, sim::ns(180));
  EXPECT_EQ(kpti.syscall_cost(), 3 * base);
  EXPECT_NEAR(static_cast<double>(virt.syscall_cost()),
              1.6 * static_cast<double>(base), 1.0);
}

TEST(CpuModel, SyscallJitterIsDeterministicPerSeed) {
  sim::Engine e;
  CpuModel m;
  m.syscall_jitter = 0.3;
  Core a(e, m, 42), b(e, m, 42), c(e, m, 43);
  EXPECT_EQ(a.syscall_cost(), b.syscall_cost());
  // Different seeds should (overwhelmingly) differ.
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) any_diff |= (a.syscall_cost() != c.syscall_cost());
  EXPECT_TRUE(any_diff);
}

TEST(Dvfs, SpinLoadDegradesFrequencyAndRecovers) {
  sim::Engine e;
  CpuModel m;
  m.turbo_enabled = true;
  Core core(e, m, 1);
  EXPECT_DOUBLE_EQ(core.frequency_ghz(), m.turbo_ghz) << "idle core boosts";
  // Spin hard for several DVFS windows.
  core.charge(sim::us(500), Work::kSpin);
  EXPECT_NEAR(core.frequency_ghz(), m.base_ghz, 0.01)
      << "sustained spinning drops to base clock";
  // Compute/kernel time cools it back down.
  core.charge(sim::us(500), Work::kCompute);
  EXPECT_NEAR(core.frequency_ghz(), m.turbo_ghz, 0.01);
}

TEST(Dvfs, DisabledTurboPinsBaseClock) {
  sim::Engine e;
  Core core(e, CpuModel{}, 1);  // turbo_enabled = false
  EXPECT_DOUBLE_EQ(core.frequency_ghz(), 3.3);
  core.charge(sim::us(500), Work::kSpin);
  EXPECT_DOUBLE_EQ(core.frequency_ghz(), 3.3);
}

TEST(Dvfs, WorkAccountingPerKind) {
  sim::Engine e;
  Core core(e, CpuModel{}, 1);
  run_task(e, [](Core& c) -> sim::Task<> {
    co_await c.work(sim::us(3), Work::kCompute);
    co_await c.work(sim::us(2), Work::kSpin);
    co_await c.work(sim::us(1), Work::kKernel);
  }(core));
  EXPECT_EQ(core.time_compute(), sim::us(3));
  EXPECT_EQ(core.time_spin(), sim::us(2));
  EXPECT_EQ(core.time_kernel(), sim::us(1));
  EXPECT_EQ(e.now(), sim::us(6));
}

TEST(PolicyChain, CostsAccumulateAndDenialShortCircuits) {
  struct Fixed final : Policy {
    bool allow;
    explicit Fixed(bool a) : allow(a) {}
    std::string_view name() const override { return "fixed"; }
    PolicyVerdict on_op(const DataplaneOp&, sim::Time) override {
      ++calls;
      return {.allow = allow, .error = -1, .cpu_cost = sim::ns(10)};
    }
    int calls = 0;
  };
  PolicyChain chain;
  auto& p1 = static_cast<Fixed&>(chain.install(std::make_unique<Fixed>(true)));
  auto& p2 = static_cast<Fixed&>(chain.install(std::make_unique<Fixed>(false)));
  auto& p3 = static_cast<Fixed&>(chain.install(std::make_unique<Fixed>(true)));
  PolicyVerdict v = chain.evaluate(DataplaneOp{}, 0);
  EXPECT_FALSE(v.allow);
  EXPECT_EQ(v.cpu_cost, sim::ns(20)) << "only evaluated policies bill cost";
  EXPECT_EQ(p1.calls, 1);
  EXPECT_EQ(p2.calls, 1);
  EXPECT_EQ(p3.calls, 0) << "denial short-circuits";
  EXPECT_TRUE(chain.remove("fixed"));
  EXPECT_EQ(chain.size(), 2u);
}

TEST(QosTokenBucket, ShapingDelaysOverRateTraffic) {
  QosTokenBucket qos(/*bytes_per_sec=*/1e9, /*burst=*/4096, QosTokenBucket::Mode::kShape);
  DataplaneOp op{DataplaneOp::Kind::kPostSend, 1, 0, nic::Opcode::kSend, 4096, 1};
  // First op drains the burst; tokens start empty so expect initial pacing
  // then steady-state delay of size/rate.
  PolicyVerdict v1 = qos.on_op(op, sim::ms(1));  // 1 ms of refill at 1 GB/s = 1 MB >> burst
  EXPECT_TRUE(v1.allow);
  EXPECT_EQ(v1.pace_delay, 0) << "burst credit covers the first message";
  PolicyVerdict v2 = qos.on_op(op, sim::ms(1));
  EXPECT_TRUE(v2.allow);
  // 4096 B at 1 GB/s = 4096 ns of pacing debt.
  EXPECT_NEAR(sim::to_ns(v2.pace_delay), 4096.0, 1.0);
}

TEST(QosTokenBucket, PolicingDeniesWithEagain) {
  QosTokenBucket qos(1e9, 4096, QosTokenBucket::Mode::kPolice);
  DataplaneOp op{DataplaneOp::Kind::kPostSend, 1, 0, nic::Opcode::kSend, 4096, 1};
  EXPECT_TRUE(qos.on_op(op, sim::ms(1)).allow);
  PolicyVerdict v = qos.on_op(op, sim::ms(1));
  EXPECT_FALSE(v.allow);
  EXPECT_EQ(v.error, -11);
}

TEST(QosTokenBucket, PerTenantRateOverride) {
  QosTokenBucket qos(1e9, 1 << 20, QosTokenBucket::Mode::kShape);
  qos.set_tenant_rate(7, 1e6);  // tenant 7 squeezed to 1 MB/s
  DataplaneOp big{DataplaneOp::Kind::kPostSend, 7, 0, nic::Opcode::kSend, 1 << 20, 1};
  (void)qos.on_op(big, sim::sec(2));  // drain tenant-7 burst
  PolicyVerdict v = qos.on_op(big, sim::sec(2));
  EXPECT_TRUE(v.allow);
  EXPECT_NEAR(sim::to_sec(v.pace_delay), 1.048, 0.01) << "1 MiB at 1 MB/s";
  // Other tenants unaffected.
  DataplaneOp other{DataplaneOp::Kind::kPostSend, 8, 0, nic::Opcode::kSend, 4096, 1};
  (void)qos.on_op(other, sim::sec(2));
  EXPECT_EQ(qos.on_op(other, sim::sec(2)).pace_delay, 0);
}

TEST(QosTokenBucket, RecvAndPollAreFree) {
  QosTokenBucket qos(1.0, 1, QosTokenBucket::Mode::kPolice);  // draconian
  DataplaneOp recv{DataplaneOp::Kind::kPostRecv, 1, 0, nic::Opcode::kSend, 1 << 20, 0};
  DataplaneOp poll{DataplaneOp::Kind::kPollCq, 1, 0, nic::Opcode::kSend, 0, 0};
  EXPECT_TRUE(qos.on_op(recv, 0).allow);
  EXPECT_TRUE(qos.on_op(poll, 0).allow);
}

TEST(SecurityAcl, RegisteredTenantsAreRestricted) {
  SecurityAcl acl;
  acl.register_tenant(1);
  acl.allow(1, 5);
  DataplaneOp to5{DataplaneOp::Kind::kPostSend, 1, 0, nic::Opcode::kSend, 64, 5};
  DataplaneOp to6{DataplaneOp::Kind::kPostSend, 1, 0, nic::Opcode::kSend, 64, 6};
  EXPECT_TRUE(acl.on_op(to5, 0).allow);
  EXPECT_FALSE(acl.on_op(to6, 0).allow);
  // Unknown tenants pass in non-strict mode, fail in strict mode.
  DataplaneOp other{DataplaneOp::Kind::kPostSend, 2, 0, nic::Opcode::kSend, 64, 6};
  EXPECT_TRUE(acl.on_op(other, 0).allow);
  acl.set_strict(true);
  EXPECT_FALSE(acl.on_op(other, 0).allow);
  // Revocation takes effect immediately — the OS-control headline feature.
  acl.revoke(1, 5);
  EXPECT_FALSE(acl.on_op(to5, 0).allow);
  EXPECT_EQ(acl.denied(), 3u);
}

TEST(MessageSizeQuota, CapsPerTenant) {
  MessageSizeQuota quota(1 << 20);
  quota.set_tenant_max(3, 4096);
  DataplaneOp big{DataplaneOp::Kind::kPostSend, 3, 0, nic::Opcode::kSend, 8192, 0};
  DataplaneOp ok{DataplaneOp::Kind::kPostSend, 3, 0, nic::Opcode::kSend, 4096, 0};
  DataplaneOp other{DataplaneOp::Kind::kPostSend, 4, 0, nic::Opcode::kSend, 8192, 0};
  EXPECT_FALSE(quota.on_op(big, 0).allow);
  EXPECT_EQ(quota.on_op(big, 0).error, -90);
  EXPECT_TRUE(quota.on_op(ok, 0).allow);
  EXPECT_TRUE(quota.on_op(other, 0).allow);
}

TEST(StatsCollector, CountsPerTenant) {
  StatsCollector stats;
  stats.on_op({DataplaneOp::Kind::kPostSend, 1, 0, nic::Opcode::kSend, 100, 0}, 0);
  stats.on_op({DataplaneOp::Kind::kPostSend, 1, 0, nic::Opcode::kSend, 200, 0}, 0);
  stats.on_op({DataplaneOp::Kind::kPostRecv, 1, 0, nic::Opcode::kSend, 0, 0}, 0);
  stats.on_op({DataplaneOp::Kind::kPollCq, 2, 0, nic::Opcode::kSend, 0, 0}, 0);
  EXPECT_EQ(stats.tenant(1).post_sends, 2u);
  EXPECT_EQ(stats.tenant(1).bytes, 300u);
  EXPECT_EQ(stats.tenant(1).post_recvs, 1u);
  EXPECT_EQ(stats.tenant(2).polls, 1u);
}

TEST(Kernel, ControlPlaneCreatesUsableObjects) {
  TwoHostFixture f;
  Core& core = f.host0->core(0);
  auto* cq = run_task(f.engine, f.host0->kernel().create_cq(core, 64));
  ASSERT_NE(cq, nullptr);
  auto pd = run_task(f.engine, f.host0->kernel().alloc_pd(core));
  auto* qp = run_task(f.engine,
                      f.host0->kernel().create_qp(
                          core, nic::QpConfig{nic::QpType::kRC, pd, cq, cq, 16, 16, 0}));
  ASSERT_NE(qp, nullptr);
  EXPECT_GT(f.engine.now(), sim::us(10)) << "control-plane ops must cost time";
  EXPECT_EQ(f.host0->kernel().syscall_count(), 3u);
}

TEST(Kernel, CordPostSendDeliversThroughPolicies) {
  TwoHostFixture f;
  auto& stats = static_cast<StatsCollector&>(
      f.host0->kernel().policies().install(std::make_unique<StatsCollector>()));

  run_task(f.engine, [](TwoHostFixture& f) -> sim::Task<> {
    verbs::Context c0(*f.host0, 0, {.mode = verbs::DataplaneMode::kCord, .tenant = 9});
    verbs::Context c1(*f.host1, 0, {.mode = verbs::DataplaneMode::kCord});
    RcEndpoints e = co_await cord::testing::connect_rc(c0, c1);
    std::vector<std::byte> src(256, std::byte{0x77}), dst(256);
    auto* smr = co_await c0.reg_mr(e.pd0, src.data(), src.size(), 0);
    auto* rmr = co_await c1.reg_mr(e.pd1, dst.data(), dst.size(), nic::kAccessLocalWrite);
    int rc = co_await c1.post_recv(*e.qp1, {1, {uptr(dst.data()), 256, rmr->lkey}});
    if (rc != 0) throw std::runtime_error("post_recv failed");
    rc = co_await c0.post_send(*e.qp0, {.wr_id = 2, .sge = {uptr(src.data()), 256, smr->lkey}});
    if (rc != 0) throw std::runtime_error("post_send failed");
    nic::Cqe wc = co_await c1.wait_one(*e.rcq1);
    if (wc.status != nic::WcStatus::kSuccess) throw std::runtime_error("bad status");
    if (dst[0] != std::byte{0x77}) throw std::runtime_error("payload corrupt");
  }(f));

  EXPECT_EQ(stats.tenant(9).post_sends, 1u);
  EXPECT_EQ(stats.tenant(9).bytes, 256u);
}

TEST(Kernel, PolicyDenialReturnsErrorToApplication) {
  TwoHostFixture f;
  auto& acl = static_cast<SecurityAcl&>(
      f.host0->kernel().policies().install(std::make_unique<SecurityAcl>()));
  acl.register_tenant(5);  // tenant 5 has an empty allow-list

  int send_rc = 0;
  run_task(f.engine, [](TwoHostFixture& f, int& send_rc) -> sim::Task<> {
    verbs::Context c0(*f.host0, 0, {.mode = verbs::DataplaneMode::kCord, .tenant = 5});
    verbs::Context c1(*f.host1, 0, {.mode = verbs::DataplaneMode::kCord});
    RcEndpoints e = co_await cord::testing::connect_rc(c0, c1);
    std::vector<std::byte> src(64);
    auto* smr = co_await c0.reg_mr(e.pd0, src.data(), src.size(), 0);
    send_rc = co_await c0.post_send(
        *e.qp0, {.wr_id = 1, .sge = {uptr(src.data()), 64, smr->lkey}});
  }(f, send_rc));
  EXPECT_EQ(send_rc, -1) << "EPERM must reach the application";
}

TEST(Kernel, WaitCqEventWakesViaInterrupt) {
  TwoHostFixture f;
  run_task(f.engine, [](TwoHostFixture& f) -> sim::Task<> {
    verbs::Context c0(*f.host0, 0, {});
    verbs::Context c1(*f.host1, 0, {});
    RcEndpoints e = co_await cord::testing::connect_rc(c0, c1);
    std::vector<std::byte> src(64, std::byte{1}), dst(64);
    auto* rmr = co_await c1.reg_mr(e.pd1, dst.data(), dst.size(), nic::kAccessLocalWrite);
    (void)co_await c1.post_recv(*e.qp1, {1, {uptr(dst.data()), 64, rmr->lkey}});
    // Receiver sleeps; sender posts 50 us later.
    f.engine.call_at(f.engine.now() + sim::us(50), [&f, &e, &src] {
      f.engine.spawn([](TwoHostFixture& f, RcEndpoints& e,
                        std::vector<std::byte>& src) -> sim::Task<> {
        verbs::Context cs(*f.host0, 1, {});
        (void)co_await cs.post_send(
            *e.qp0, {.sge = {uptr(src.data()), 64, 0}, .inline_data = true});
      }(f, e, src));
    });
    nic::Cqe wc = co_await c1.wait_one_event(*e.rcq1);
    if (wc.status != nic::WcStatus::kSuccess) throw std::runtime_error("bad wc");
  }(f));
  EXPECT_GE(f.host1->kernel().interrupt_count(), 1u)
      << "the event path must ride an interrupt";
}

TEST(Kernel, RevokeQpFlushesApplicationWork) {
  TwoHostFixture f;
  run_task(f.engine, [](TwoHostFixture& f) -> sim::Task<> {
    verbs::Context c0(*f.host0, 0, {});
    verbs::Context c1(*f.host1, 0, {});
    RcEndpoints e = co_await cord::testing::connect_rc(c0, c1);
    std::vector<std::byte> dst(64);
    auto* rmr = co_await c1.reg_mr(e.pd1, dst.data(), dst.size(), nic::kAccessLocalWrite);
    (void)co_await c1.post_recv(*e.qp1, {1, {uptr(dst.data()), 64, rmr->lkey}});
    // The OS yanks the QP out from under the application.
    f.host1->kernel().revoke_qp(*e.qp1);
    nic::Cqe wc = co_await c1.wait_one(*e.rcq1);
    if (wc.status != nic::WcStatus::kWorkRequestFlushed)
      throw std::runtime_error("expected flush");
  }(f));
}

// --- Policy-chain bugfix regressions and the isolation quotas -----------

TEST(QosTokenBucket, FreshBucketStartsFull) {
  // Regression: an unprimed bucket used to start at zero tokens, so a
  // tenant first seen at t=0 (zero elapsed time to refill) had its very
  // first op denied in police mode under zero contention.
  QosTokenBucket qos(1e9, 4096, QosTokenBucket::Mode::kPolice);
  DataplaneOp op{DataplaneOp::Kind::kPostSend, 1, 0, nic::Opcode::kSend, 4096, 1};
  EXPECT_TRUE(qos.on_op(op, 0).allow) << "burst credit must cover the first op";
  EXPECT_FALSE(qos.on_op(op, 0).allow) << "burst is spent, no time has passed";
}

TEST(QosTokenBucket, MidDebtRateChangeRepricesExistingDebt) {
  QosTokenBucket qos(1e9, 4096, QosTokenBucket::Mode::kShape);
  DataplaneOp op{DataplaneOp::Kind::kPostSend, 2, 0, nic::Opcode::kSend, 4096, 1};
  EXPECT_EQ(qos.on_op(op, 0).pace_delay, 0) << "burst covers the first op";
  EXPECT_NEAR(sim::to_ns(qos.on_op(op, 0).pace_delay), 4096.0, 1.0)
      << "4096 B of debt at 1 GB/s";
  // The operator squeezes the tenant mid-debt: the outstanding debt (and
  // all new debt) drains at the new rate from the next op on.
  qos.set_tenant_rate(2, 1e6);
  EXPECT_NEAR(sim::to_ms(qos.on_op(op, 0).pace_delay), 8.192, 0.01)
      << "8192 B of debt at 1 MB/s";
  qos.set_tenant_rate(2, 0);  // restore the default
  EXPECT_NEAR(sim::to_ns(qos.on_op(op, 0).pace_delay), 12288.0, 1.0);
}

TEST(MessageSizeQuota, ZeroCapBlocksPayloadsButNotZeroLength) {
  // A zero cap must read as "no payload allowed", not "uncapped": the
  // comparison is strictly-greater, so only zero-length ops pass.
  MessageSizeQuota quota(1 << 20);
  quota.set_tenant_max(3, 0);
  DataplaneOp one{DataplaneOp::Kind::kPostSend, 3, 0, nic::Opcode::kSend, 1, 0};
  DataplaneOp zero{DataplaneOp::Kind::kPostSend, 3, 0, nic::Opcode::kSend, 0, 0};
  EXPECT_FALSE(quota.on_op(one, 0).allow);
  EXPECT_TRUE(quota.on_op(zero, 0).allow);
}

TEST(SecurityAcl, RevokeIsAuthoritativeForUnknownTenants) {
  // Regression: revoking a never-registered tenant used to be a no-op
  // (erase of an absent entry, tenant still unknown and so unrestricted).
  // Revocation must make the allow-list authoritative for the tenant.
  SecurityAcl acl;
  DataplaneOp to5{DataplaneOp::Kind::kPostSend, 2, 0, nic::Opcode::kSend, 64, 5};
  DataplaneOp to6{DataplaneOp::Kind::kPostSend, 2, 0, nic::Opcode::kSend, 64, 6};
  EXPECT_TRUE(acl.on_op(to5, 0).allow) << "unknown tenants are unrestricted";
  acl.revoke(2, 5);
  EXPECT_FALSE(acl.on_op(to5, 0).allow);
  EXPECT_FALSE(acl.on_op(to6, 0).allow) << "the (empty) list now governs";
}

TEST(SecurityAcl, GatesOneSidedReadsAndAtomics) {
  // RDMA reads and atomics reach the chain as kPostSend with their
  // opcode: the ACL gates them like any send — the control a bypassed
  // deployment fundamentally lacks once a QP is connected.
  SecurityAcl acl;
  acl.register_tenant(4);
  acl.allow(4, 5);
  DataplaneOp read{DataplaneOp::Kind::kPostSend, 4, 0, nic::Opcode::kRdmaRead, 64, 6};
  DataplaneOp atomic{DataplaneOp::Kind::kPostSend, 4, 0, nic::Opcode::kFetchAdd, 8, 5};
  EXPECT_FALSE(acl.on_op(read, 0).allow);
  EXPECT_TRUE(acl.on_op(atomic, 0).allow);
}

TEST(OpRateQuota, LimitsOnlyMaskedKindsPerTenant) {
  OpRateQuota quota(/*ops_per_sec=*/1e6, /*burst=*/2,
                    OpRateQuota::kind_bit(DataplaneOp::Kind::kPostSend) |
                        OpRateQuota::kind_bit(DataplaneOp::Kind::kPollCq));
  DataplaneOp send{DataplaneOp::Kind::kPostSend, 1, 0, nic::Opcode::kSend, 64, 0};
  DataplaneOp recv{DataplaneOp::Kind::kPostRecv, 1, 0, nic::Opcode::kSend, 0, 0};
  EXPECT_TRUE(quota.on_op(send, 0).allow);
  EXPECT_TRUE(quota.on_op(send, 0).allow);
  PolicyVerdict v = quota.on_op(send, 0);
  EXPECT_FALSE(v.allow) << "burst of 2 spent at t=0";
  EXPECT_EQ(v.error, -11);
  EXPECT_TRUE(quota.on_op(recv, 0).allow) << "unmasked kinds pass untouched";
  // One token refills after 1 us at 1M ops/s.
  EXPECT_TRUE(quota.on_op(send, sim::us(1)).allow);
  EXPECT_EQ(quota.denied(), 1u);
  // Other tenants have their own bucket.
  DataplaneOp other{DataplaneOp::Kind::kPostSend, 2, 0, nic::Opcode::kSend, 64, 0};
  EXPECT_TRUE(quota.on_op(other, sim::us(1)).allow);
}

TEST(OpRateQuota, PerTenantRateOverride) {
  OpRateQuota quota(1e6, 1, OpRateQuota::kind_bit(DataplaneOp::Kind::kPostSend));
  quota.set_tenant_rate(7, 1.0);  // one op per second
  DataplaneOp op{DataplaneOp::Kind::kPostSend, 7, 0, nic::Opcode::kSend, 64, 0};
  EXPECT_TRUE(quota.on_op(op, 0).allow);
  EXPECT_FALSE(quota.on_op(op, sim::ms(500)).allow) << "no token yet at 1 op/s";
  EXPECT_TRUE(quota.on_op(op, sim::sec(2)).allow);
}

TEST(RegistrationQuota, CapsLiveMrsAndPacesChurn) {
  RegistrationQuota quota(/*max_live_mrs=*/2, /*regs_per_sec=*/1e3, /*burst=*/8);
  DataplaneOp reg{DataplaneOp::Kind::kRegMr, 1, 0, nic::Opcode::kSend, 4096, 0};
  DataplaneOp dereg{DataplaneOp::Kind::kDeregMr, 1, 0, nic::Opcode::kSend, 0, 0};
  EXPECT_TRUE(quota.on_op(reg, 0).allow);
  EXPECT_TRUE(quota.on_op(reg, 0).allow);
  PolicyVerdict v = quota.on_op(reg, 0);
  EXPECT_FALSE(v.allow);
  EXPECT_EQ(v.error, -12) << "live cap reads as ENOMEM";
  EXPECT_EQ(quota.live(1), 2u);
  EXPECT_TRUE(quota.on_op(dereg, 0).allow);
  EXPECT_EQ(quota.live(1), 1u);
  EXPECT_TRUE(quota.on_op(reg, 0).allow) << "freed slot is reusable";
  EXPECT_EQ(quota.denied(), 1u);
}

TEST(RegistrationQuota, ChurnBeyondBurstIsEagain) {
  RegistrationQuota quota(/*max_live_mrs=*/100, /*regs_per_sec=*/1e3, /*burst=*/2);
  DataplaneOp reg{DataplaneOp::Kind::kRegMr, 1, 0, nic::Opcode::kSend, 4096, 0};
  DataplaneOp dereg{DataplaneOp::Kind::kDeregMr, 1, 0, nic::Opcode::kSend, 0, 0};
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(quota.on_op(reg, 0).allow);
    EXPECT_TRUE(quota.on_op(dereg, 0).allow);
  }
  PolicyVerdict v = quota.on_op(reg, 0);
  EXPECT_FALSE(v.allow) << "register/deregister churn drains the bucket";
  EXPECT_EQ(v.error, -11);
  EXPECT_TRUE(quota.on_op(reg, sim::ms(1)).allow) << "1 ms refills a token";
}

TEST(StatsCollector, CountsRegistrations) {
  StatsCollector stats;
  stats.on_op({DataplaneOp::Kind::kRegMr, 1, 0, nic::Opcode::kSend, 4096, 0}, 0);
  stats.on_op({DataplaneOp::Kind::kRegMr, 1, 0, nic::Opcode::kSend, 4096, 0}, 0);
  stats.on_op({DataplaneOp::Kind::kDeregMr, 1, 0, nic::Opcode::kSend, 0, 0}, 0);
  EXPECT_EQ(stats.tenant(1).reg_mrs, 2u);
  EXPECT_EQ(stats.tenant(1).dereg_mrs, 1u);
}

TEST(Kernel, RegMrDenialReturnsNullToApplication) {
  TwoHostFixture f;
  auto& quota = static_cast<RegistrationQuota&>(
      f.host0->kernel().policies().install(
          std::make_unique<RegistrationQuota>(100, 1e6, 8)));
  quota.set_tenant_max_live(6, 1);

  const nic::MemoryRegion* first = nullptr;
  const nic::MemoryRegion* second = nullptr;
  run_task(f.engine, [](TwoHostFixture& f, const nic::MemoryRegion*& first,
                        const nic::MemoryRegion*& second) -> sim::Task<> {
    verbs::Context c0(*f.host0, 0, {.mode = verbs::DataplaneMode::kCord, .tenant = 6});
    auto pd = co_await c0.alloc_pd();
    std::vector<std::byte> buf(4096);
    first = co_await c0.reg_mr(pd, buf.data(), buf.size(), 0);
    second = co_await c0.reg_mr(pd, buf.data(), buf.size(), 0);
    if (first != nullptr) (void)co_await c0.dereg_mr(first->lkey);
  }(f, first, second));
  EXPECT_NE(first, nullptr);
  EXPECT_EQ(second, nullptr) << "quota denial must surface as a null MR";
  EXPECT_EQ(quota.denied(), 1u);
}

TEST(Kernel, DeniedPollLeavesCompletionsQueued) {
  TwoHostFixture f;
  // host1 polls through its kernel; one poll allowed, then a near-zero
  // refill rate denies the rest.
  f.host1->kernel().policies().install(std::make_unique<OpRateQuota>(
      1e-9, 1, OpRateQuota::kind_bit(DataplaneOp::Kind::kPollCq)));

  run_task(f.engine, [](TwoHostFixture& f) -> sim::Task<> {
    verbs::Context c0(*f.host0, 0, {});
    verbs::Context c1(*f.host1, 0, {.mode = verbs::DataplaneMode::kCord, .tenant = 2});
    RcEndpoints e = co_await cord::testing::connect_rc(c0, c1);
    std::vector<std::byte> src(64, std::byte{1}), dst(128);
    auto* rmr = co_await c1.reg_mr(e.pd1, dst.data(), dst.size(),
                                   nic::kAccessLocalWrite);
    for (int i = 0; i < 2; ++i) {
      int rc = co_await c1.post_recv(
          *e.qp1, {static_cast<std::uint64_t>(i),
                   {uptr(dst.data()) + 64 * i, 64, rmr->lkey}});
      if (rc != 0) throw std::runtime_error("post_recv failed");
      rc = co_await c0.post_send(
          *e.qp0, {.sge = {uptr(src.data()), 64, 0}, .inline_data = true});
      if (rc != 0) throw std::runtime_error("post_send failed");
    }
    co_await f.engine.delay(sim::us(100));  // let both sends complete
    if (e.rcq1->depth() != 2) throw std::runtime_error("expected 2 CQEs");
    nic::Cqe wc[2];
    std::size_t n = co_await c1.poll_cq(*e.rcq1, std::span<nic::Cqe>{wc, 1});
    if (n != 1) throw std::runtime_error("first poll should harvest");
    n = co_await c1.poll_cq(*e.rcq1, std::span<nic::Cqe>{wc, 2});
    if (n != 0) throw std::runtime_error("denied poll must return 0");
    if (e.rcq1->depth() != 1)
      throw std::runtime_error("denied poll must leave the CQE queued");
  }(f));
}

// --- Batched-submission plumbing ---------------------------------------

TEST(Kernel, EmptyFlushIsAStrictNoOp) {
  TwoHostFixture f;
  auto& stats = static_cast<StatsCollector&>(
      f.host0->kernel().policies().install(std::make_unique<StatsCollector>()));
  run_task(f.engine, [](TwoHostFixture& f) -> sim::Task<> {
    verbs::Context c0(*f.host0, 0,
                      {.mode = verbs::DataplaneMode::kCord, .tx_batch = 8,
                       .tenant = 3});
    verbs::Context c1(*f.host1, 0, {.mode = verbs::DataplaneMode::kCord});
    (void)co_await cord::testing::connect_rc(c0, c1);
    const std::uint64_t before = f.host0->kernel().syscall_count();
    const sim::Time t0 = f.engine.now();
    const int rc = co_await c0.flush();       // nothing pending
    if (rc != 0) throw std::runtime_error("empty flush must return 0");
    if (f.host0->kernel().syscall_count() != before)
      throw std::runtime_error("empty flush must not charge a syscall");
    if (f.engine.now() != t0)
      throw std::runtime_error("empty flush must consume no virtual time");
    if (c0.pending() != 0) throw std::runtime_error("nothing may pend");
  }(f));
  EXPECT_EQ(f.host0->kernel().batch_flushes(), 0u);
  EXPECT_EQ(stats.tenant(3).post_sends, 0u) << "no policy may have run";
}

TEST(Kernel, RevokeFlipsBatchedVerdictToEperm) {
  TwoHostFixture f;
  auto& acl = static_cast<SecurityAcl&>(
      f.host0->kernel().policies().install(std::make_unique<SecurityAcl>()));
  acl.register_tenant(5);
  acl.allow(5, 1);  // host1 is node 1

  int rc1 = 0, rc2 = 0, rc3 = 0;
  // Buffers outlive the coroutine frame: the last flushed send's DMA/wire
  // events still read them while the engine drains.
  std::vector<std::byte> src(64), dst(1024);
  run_task(f.engine, [](TwoHostFixture& f, SecurityAcl& acl, int& rc1, int& rc2,
                        int& rc3, std::vector<std::byte>& src,
                        std::vector<std::byte>& dst) -> sim::Task<> {
    verbs::Context c0(*f.host0, 0,
                      {.mode = verbs::DataplaneMode::kCord, .tx_batch = 8,
                       .tenant = 5});
    verbs::Context c1(*f.host1, 0, {.mode = verbs::DataplaneMode::kCord});
    RcEndpoints e = co_await cord::testing::connect_rc(c0, c1);
    auto* smr = co_await c0.reg_mr(e.pd0, src.data(), src.size(), 0);
    auto* rmr =
        co_await c1.reg_mr(e.pd1, dst.data(), dst.size(), nic::kAccessLocalWrite);
    for (int i = 0; i < 8; ++i) {
      (void)co_await c1.post_recv(
          *e.qp1, {static_cast<std::uint64_t>(i),
                   {uptr(dst.data()) + 64 * i, 64, rmr->lkey}});
    }
    auto send = [&](int& rc) -> sim::Task<> {
      int prc = co_await c0.post_send(
          *e.qp0, {.wr_id = 1, .sge = {uptr(src.data()), 64, smr->lkey}});
      const int frc = co_await c0.flush();
      rc = prc != 0 ? prc : frc;
    };
    co_await send(rc1);  // the chain allows
    co_await send(rc2);  // and allows again
    acl.revoke(5, 1);    // the next flush's chain must see the revoke
    co_await send(rc3);
  }(f, acl, rc1, rc2, rc3, src, dst));
  EXPECT_EQ(rc1, 0);
  EXPECT_EQ(rc2, 0);
  EXPECT_EQ(rc3, -1) << "EPERM must reach the batched submitter after revoke";
}

TEST(Kernel, RateChangeFlipsBatchedVerdict) {
  TwoHostFixture f;
  // Police at a near-zero refill rate with exactly one message of burst:
  // the first batched send is admitted, the second is denied because the
  // chain sees the empty bucket.
  auto& qos = static_cast<QosTokenBucket&>(
      f.host0->kernel().policies().install(std::make_unique<QosTokenBucket>(
          1e-9, 64, QosTokenBucket::Mode::kPolice)));

  int rc1 = 0, rc2 = 0, rc3 = 0;
  // Buffers outlive the coroutine frame (see RevokeFlips... above).
  std::vector<std::byte> src(64), dst(1024);
  run_task(f.engine, [](TwoHostFixture& f, QosTokenBucket& qos, int& rc1,
                        int& rc2, int& rc3, std::vector<std::byte>& src,
                        std::vector<std::byte>& dst) -> sim::Task<> {
    verbs::Context c0(*f.host0, 0,
                      {.mode = verbs::DataplaneMode::kCord, .tx_batch = 8,
                       .tenant = 7});
    verbs::Context c1(*f.host1, 0, {.mode = verbs::DataplaneMode::kCord});
    RcEndpoints e = co_await cord::testing::connect_rc(c0, c1);
    auto* smr = co_await c0.reg_mr(e.pd0, src.data(), src.size(), 0);
    auto* rmr =
        co_await c1.reg_mr(e.pd1, dst.data(), dst.size(), nic::kAccessLocalWrite);
    for (int i = 0; i < 8; ++i) {
      (void)co_await c1.post_recv(
          *e.qp1, {static_cast<std::uint64_t>(i),
                   {uptr(dst.data()) + 64 * i, 64, rmr->lkey}});
    }
    auto send = [&](int& rc) -> sim::Task<> {
      int prc = co_await c0.post_send(
          *e.qp0, {.wr_id = 1, .sge = {uptr(src.data()), 64, smr->lkey}});
      const int frc = co_await c0.flush();
      rc = prc != 0 ? prc : frc;
    };
    co_await send(rc1);  // burst covers it
    co_await send(rc2);  // bucket empty: the chain denies
    // The operator un-throttles the tenant; after a refill interval the
    // chain admits again.
    qos.set_tenant_rate(7, 1e12);
    co_await f.engine.delay(sim::us(1));
    co_await send(rc3);
  }(f, qos, rc1, rc2, rc3, src, dst));
  EXPECT_EQ(rc1, 0);
  EXPECT_EQ(rc2, -11) << "EAGAIN from the empty bucket";
  EXPECT_EQ(rc3, 0) << "set_tenant_rate must re-admit";
}

}  // namespace
}  // namespace cord::os
