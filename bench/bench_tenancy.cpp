// Massive-tenancy gate numbers: the qps connection-scale sweep (the
// exclusive-mode ICM latency cliff and shared-mode boundedness) and the
// noisy-neighbor victim-tail comparison (bypass vs CoRD + policy chain).
//
// Unlike the google-benchmark binaries these numbers are *simulated*
// results — exact, deterministic virtual-time quantities, independent of
// host noise — so cmake/bench_gate.cmake holds them to tight floors
// rather than a regression tolerance. Output is a flat JSON object
// (argv[1], default BENCH_tenancy.json) consumed with string(JSON).
#include <cstdio>
#include <string>

#include "perftest/tenancy.hpp"

namespace {

using cord::perftest::ConnMode;
using cord::perftest::NoisyParams;
using cord::perftest::NoisyResult;
using cord::perftest::ScaleParams;
using cord::perftest::ScaleResult;

ScaleResult scale_point(std::size_t connections, ConnMode mode) {
  ScaleParams p;
  p.connections = connections;
  p.conn_mode = mode;
  p.shared_qp_pool = 64;
  p.icm_qp_capacity = 4096;
  p.icm_mr_capacity = 4096;
  p.ops = 20000;
  p.window = 16;
  return cord::perftest::run_conn_scale(cord::core::system_l(), p);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_tenancy.json";

  // --- Connection-scale sweep: exclusive mode over the cliff ------------
  const ScaleResult e1k = scale_point(1024, ConnMode::kExclusive);
  const ScaleResult e4k = scale_point(4096, ConnMode::kExclusive);
  const ScaleResult e16k = scale_point(16384, ConnMode::kExclusive);
  const double cliff_ratio = e16k.avg_us / e1k.avg_us;

  // --- Shared mode at a million logical connections ---------------------
  const ScaleResult s1m = scale_point(1000000, ConnMode::kShared);

  // --- Noisy neighbor: bypass vs CoRD + isolation chain -----------------
  NoisyParams np;  // defaults: 4 victims, 768 attacker QPs, 512-entry caches
  const NoisyResult open = cord::perftest::run_noisy_neighbor(
      cord::core::system_l(), np);
  NoisyParams guarded_p = np;
  guarded_p.cord = true;
  guarded_p.policies = true;
  const NoisyResult guarded = cord::perftest::run_noisy_neighbor(
      cord::core::system_l(), guarded_p);
  const double tail_restore = open.victim_p99_us / guarded.victim_p99_us;

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_tenancy: cannot open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"excl_1024_avg_us\": %.4f,\n", e1k.avg_us);
  std::fprintf(f, "  \"excl_4096_avg_us\": %.4f,\n", e4k.avg_us);
  std::fprintf(f, "  \"excl_16384_avg_us\": %.4f,\n", e16k.avg_us);
  std::fprintf(f, "  \"excl_16384_qp_misses\": %llu,\n",
               static_cast<unsigned long long>(e16k.icm_qp_misses));
  std::fprintf(f, "  \"excl_1024_qp_misses\": %llu,\n",
               static_cast<unsigned long long>(e1k.icm_qp_misses));
  std::fprintf(f, "  \"cliff_ratio\": %.4f,\n", cliff_ratio);
  std::fprintf(f, "  \"shared_1m_avg_us\": %.4f,\n", s1m.avg_us);
  std::fprintf(f, "  \"shared_1m_physical_qps\": %llu,\n",
               static_cast<unsigned long long>(s1m.physical_qps));
  std::fprintf(f, "  \"shared_1m_conn_table_bytes\": %llu,\n",
               static_cast<unsigned long long>(s1m.conn_table_bytes));
  std::fprintf(f, "  \"shared_1m_qp_misses\": %llu,\n",
               static_cast<unsigned long long>(s1m.icm_qp_misses));
  std::fprintf(f, "  \"noisy_bypass_victim_p99_us\": %.4f,\n",
               open.victim_p99_us);
  std::fprintf(f, "  \"noisy_bypass_victim_p50_us\": %.4f,\n",
               open.victim_p50_us);
  std::fprintf(f, "  \"noisy_cord_victim_p99_us\": %.4f,\n",
               guarded.victim_p99_us);
  std::fprintf(f, "  \"noisy_cord_victim_p50_us\": %.4f,\n",
               guarded.victim_p50_us);
  std::fprintf(f, "  \"victim_tail_restore\": %.4f,\n", tail_restore);
  std::fprintf(f, "  \"noisy_bypass_attacker_ops\": %llu,\n",
               static_cast<unsigned long long>(open.attacker_ops));
  std::fprintf(f, "  \"noisy_cord_attacker_ops\": %llu,\n",
               static_cast<unsigned long long>(guarded.attacker_ops));
  std::fprintf(f, "  \"noisy_cord_attacker_denied\": %llu,\n",
               static_cast<unsigned long long>(guarded.attacker_denied));
  std::fprintf(f, "  \"noisy_cord_attacker_reg_denied\": %llu\n",
               static_cast<unsigned long long>(guarded.attacker_reg_denied));
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("bench_tenancy: cliff %.2fx (%.2f -> %.2f us), "
              "shared@1M %zu QPs / %zu B, tail restore %.2fx "
              "(p99 %.2f -> %.2f us)\n",
              cliff_ratio, e1k.avg_us, e16k.avg_us, s1m.physical_qps,
              s1m.conn_table_bytes, tail_restore, open.victim_p99_us,
              guarded.victim_p99_us);
  return 0;
}
