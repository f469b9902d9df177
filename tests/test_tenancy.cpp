// Massive-tenancy scaling and isolation: the ICM context cache (unit +
// charged-latency integration), shared-connection memory boundedness, the
// exclusive-mode connection-count latency cliff, run-to-run determinism of
// the tenancy scenarios, and the noisy-neighbor isolation story (policies
// restore victim tail).
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "nic/icm.hpp"
#include "perftest/tenancy.hpp"

namespace cord {
namespace {

using perftest::NoisyParams;
using perftest::NoisyResult;
using perftest::ScaleParams;
using perftest::ScaleResult;

// --- IcmCache unit ------------------------------------------------------

TEST(IcmCache, ZeroCapacityIsDisabledAndCountsNothing) {
  nic::IcmCache cache(0);
  EXPECT_FALSE(cache.enabled());
  for (std::uint32_t k = 0; k < 100; ++k) EXPECT_TRUE(cache.touch(k));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(IcmCache, LruEvictsLeastRecentlyTouched) {
  nic::IcmCache cache(2);
  EXPECT_FALSE(cache.touch(1));  // cold miss
  EXPECT_FALSE(cache.touch(2));  // cold miss
  EXPECT_TRUE(cache.touch(1));   // hit, 1 becomes MRU
  EXPECT_FALSE(cache.touch(3));  // evicts 2 (LRU)
  EXPECT_TRUE(cache.touch(1));
  EXPECT_TRUE(cache.touch(3));
  EXPECT_FALSE(cache.touch(2)) << "2 was evicted";
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(IcmCache, EraseFreesTheSlotWithoutEvicting) {
  // lkeys/qpns are recycled by their tables; a stale cache entry must not
  // count a recycled key as resident.
  nic::IcmCache cache(2);
  (void)cache.touch(1);
  (void)cache.touch(2);
  cache.erase(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.touch(3)) << "erased slot reused, no eviction needed";
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_TRUE(cache.touch(2));
  EXPECT_FALSE(cache.touch(1)) << "erased key is gone";
  cache.erase(99);  // erasing an absent key is a no-op
  EXPECT_EQ(cache.size(), 2u);
}

// --- Charged miss latency (NIC integration) -----------------------------

TEST(IcmCache, MissLatencyIsChargedPerDoorbell) {
  // Two connections alternating under a one-entry QP cache: every
  // doorbell misses. The per-op latency must exceed the unbounded run by
  // exactly the configured miss penalty — deterministically, not
  // statistically.
  ScaleParams p;
  p.connections = 2;
  p.window = 1;
  p.ops = 12;
  p.icm_qp_capacity = 0;
  p.icm_mr_capacity = 0;
  const core::SystemConfig cfg = core::system_l();
  const ScaleResult unbounded = perftest::run_conn_scale(cfg, p);
  p.icm_qp_capacity = 1;
  const ScaleResult capped = perftest::run_conn_scale(cfg, p);

  EXPECT_EQ(unbounded.icm_qp_misses, 0u);
  EXPECT_EQ(unbounded.icm_qp_hits, 0u) << "disabled cache counts nothing";
  EXPECT_EQ(capped.icm_qp_misses, 12u);
  EXPECT_EQ(capped.icm_qp_evictions, 11u);
  EXPECT_EQ(capped.icm_qp_hits, 0u);
  EXPECT_NEAR(capped.avg_us - unbounded.avg_us,
              sim::to_us(nic::kIcmMissLatency), 1e-6)
      << "every op pays exactly one QP-context fetch";
}

// --- Run-to-run determinism -----------------------------------------------

TEST(ConnScale, BitIdenticalRunToRun) {
  ScaleParams base;
  base.connections = 128;
  base.window = 8;
  base.ops = 1200;
  base.icm_qp_capacity = 64;
  base.icm_mr_capacity = 64;
  const core::SystemConfig cfg = core::system_l();
  const ScaleResult golden = perftest::run_conn_scale(cfg, base);
  EXPECT_GT(golden.icm_qp_misses, 0u) << "working set must outgrow the cache";

  const ScaleResult r = perftest::run_conn_scale(cfg, base);
  EXPECT_EQ(r.latency_us.values(), golden.latency_us.values())
      << "latency samples diverged between two identical runs";
  EXPECT_EQ(r.icm_qp_misses, golden.icm_qp_misses);
  EXPECT_EQ(r.icm_mr_misses, golden.icm_mr_misses);
  EXPECT_EQ(r.clamped_events, 0u);
}

TEST(NoisyNeighbor, ShapingIsDeterministicRunToRun) {
  NoisyParams base;
  base.victims = 2;
  base.victim_pings = 80;
  base.attacker_qps = 96;
  base.icm_qp_capacity = 64;
  base.icm_mr_capacity = 64;
  base.duration = sim::ms(1);
  base.cord = true;
  base.policies = true;
  const core::SystemConfig cfg = core::system_l();
  const NoisyResult golden = perftest::run_noisy_neighbor(cfg, base);
  const NoisyResult r = perftest::run_noisy_neighbor(cfg, base);
  EXPECT_EQ(r.victim_us.values(), golden.victim_us.values())
      << "victim samples diverged between two identical runs";
  EXPECT_EQ(r.attacker_ops, golden.attacker_ops);
  EXPECT_EQ(r.attacker_denied, golden.attacker_denied);
  EXPECT_EQ(r.attacker_regs, golden.attacker_regs);
  EXPECT_EQ(r.clamped_events, 0u);
}

// --- Shared-connection boundedness and the exclusive-mode cliff ---------

TEST(ConnScale, SharedModeBoundsMemoryAndContexts) {
  ScaleParams p;
  p.connections = 200000;
  p.conn_mode = perftest::ConnMode::kShared;
  p.shared_qp_pool = 32;
  p.window = 8;
  p.ops = 1000;
  p.icm_qp_capacity = 512;
  p.icm_mr_capacity = 512;
  const ScaleResult r = perftest::run_conn_scale(core::system_l(), p);
  EXPECT_EQ(r.physical_qps, 32u) << "the pool, not the logical count";
  EXPECT_EQ(r.conn_table_bytes, 200000u * 4u)
      << "4 B per logical connection: the index of its physical QP";
  // The physical working set (32 QPs, 32 MRs) fits the cache: only cold
  // misses, no steady-state context thrash at 200k logical connections.
  EXPECT_LE(r.icm_qp_misses, 32u);
  EXPECT_LE(r.icm_mr_misses, 32u);
  EXPECT_EQ(r.icm_qp_evictions, 0u);
}

TEST(ConnScale, ExclusiveModeHitsTheContextCliff) {
  ScaleParams fits;
  fits.connections = 256;
  fits.window = 8;
  fits.ops = 4096;
  fits.icm_qp_capacity = 512;
  fits.icm_mr_capacity = 512;
  ScaleParams thrash = fits;
  thrash.connections = 2048;
  const core::SystemConfig cfg = core::system_l();
  const ScaleResult a = perftest::run_conn_scale(cfg, fits);
  const ScaleResult b = perftest::run_conn_scale(cfg, thrash);
  EXPECT_EQ(a.physical_qps, 256u) << "one QP per logical connection";
  EXPECT_EQ(a.conn_table_bytes, 256u * sizeof(perftest::LogicalConn));
  EXPECT_EQ(a.icm_qp_misses, 256u) << "cold misses only below capacity";
  EXPECT_EQ(a.icm_qp_evictions, 0u);
  EXPECT_GE(b.icm_qp_misses, static_cast<std::uint64_t>(0.9 * 4096))
      << "round-robin over 4x capacity misses nearly every doorbell";
  // Each op pays a QP-context fetch on the doorbell and an MR-context
  // fetch on the WQE read: the cliff is two miss penalties per op.
  EXPECT_GT(b.avg_us - a.avg_us, 0.8 * 2 * sim::to_us(nic::kIcmMissLatency));
}

// --- Noisy neighbor: bypass cannot protect victims, CoRD policies can ---

TEST(NoisyNeighbor, PolicyChainRestoresVictimTail) {
  NoisyParams p;
  p.victims = 2;
  p.victim_pings = 120;
  p.attacker_qps = 96;
  p.icm_qp_capacity = 64;
  p.icm_mr_capacity = 64;
  p.duration = sim::ms(2);
  const core::SystemConfig cfg = core::system_l();

  NoisyParams bypass = p;  // classic RDMA: the kernel never sees the flood
  const NoisyResult open = perftest::run_noisy_neighbor(cfg, bypass);

  NoisyParams cord = p;
  cord.cord = true;
  cord.policies = true;
  const NoisyResult guarded = perftest::run_noisy_neighbor(cfg, cord);

  EXPECT_GT(open.icm_qp_evictions, 0u) << "the attacker must thrash the cache";
  EXPECT_GT(guarded.attacker_denied, 0u) << "the quota must actually bite";
  EXPECT_LT(guarded.attacker_ops, open.attacker_ops / 2)
      << "the attacker is paced, not merely surcharged";
  EXPECT_LT(guarded.victim_p99_us, open.victim_p99_us / 1.5)
      << "policies must restore the victims' tail";
  EXPECT_GT(guarded.attacker_reg_denied, 0u)
      << "registration churn runs into the quota";
}

TEST(NoisyNeighbor, RegistrationQuotaBitesEvenInBypassMode) {
  // The control plane is kernel-mediated in both modes: the registration
  // quota is the one isolation lever a bypass deployment retains, while
  // the data-plane flood goes unpoliced (the paper's argument, inverted).
  NoisyParams p;
  p.victims = 1;
  p.victim_pings = 60;
  p.attacker_qps = 96;
  p.icm_qp_capacity = 64;
  p.icm_mr_capacity = 64;
  p.duration = sim::ms(1);
  p.cord = false;
  p.policies = true;
  const NoisyResult r = perftest::run_noisy_neighbor(core::system_l(), p);
  EXPECT_GT(r.attacker_reg_denied, 0u) << "reg_mr still crosses the kernel";
  EXPECT_EQ(r.attacker_denied, 0u)
      << "bypassed posts never reach the policy chain";
}

}  // namespace
}  // namespace cord
