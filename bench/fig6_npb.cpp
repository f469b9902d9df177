// Figure 6 — Relative runtime of the NPB benchmarks on system A:
// communication over RDMA (kernel bypass), CoRD, and IPoIB, with MPI
// barred from using shared memory (all traffic through the NIC).
//
// Expected shape (paper §5): CoRD has nearly zero overhead over bypass
// for every benchmark (EP and CG can come out marginally *faster* thanks
// to the syscall/DVFS interaction with Turbo enabled); IPoIB is up to 2x
// slower, worst for the simultaneously data- and message-intensive IS
// and SP.
//
// Scale notes: EP/IS/CG/MG/FT/LU run 128 ranks, SP/BT 225 (square rank
// counts, within the paper's 128-240 range). Iteration counts are trimmed
// to ~10 (relative runtimes are iteration-independent in steady state)
// and FT uses class A buffers to stay within simulation-host memory; both
// trims are documented in EXPERIMENTS.md.
//
// `fig6_npb --quick` runs every kernel at 16 ranks for one iteration and
// prints each mode's simulated runtime in exact picoseconds; ctest
// compares that output byte for byte against bench/golden/fig6_quick.txt.
#include <cstdio>
#include <string_view>

#include "bench_util.hpp"
#include "npb/npb.hpp"

namespace {

using namespace cord;
using namespace cord::bench;
using namespace cord::npb;
using mpi::NetMode;

struct Row {
  Kernel kernel;
  int ranks;
  Class cls;
  int iters;
};

const Row kRows[] = {
    {Kernel::kBT, 225, Class::kB, 10}, {Kernel::kCG, 128, Class::kB, 20},
    {Kernel::kEP, 128, Class::kB, 0},  {Kernel::kFT, 128, Class::kA, 10},
    {Kernel::kIS, 128, Class::kB, 10}, {Kernel::kLU, 128, Class::kB, 10},
    {Kernel::kMG, 128, Class::kB, 10}, {Kernel::kSP, 225, Class::kB, 10},
};

Result run_one(const Row& row, NetMode net) {
  core::System sys(core::system_a(), 2);
  mpi::WorldConfig cfg;
  cfg.net = net;
  cfg.srq_slots = 512;
  mpi::World world(sys, row.ranks, cfg);
  return run(world, RunConfig{row.kernel, row.cls, /*verify=*/false, row.iters});
}

int quick() {
  std::printf("=== Figure 6 (quick): NPB at 16 ranks, 1 iteration ===\n\n");
  Table t({"bench", "ranks", "RDMA ps", "CoRD ps", "IPoIB ps", "CoRD", "IPoIB"});
  for (const Row& full : kRows) {
    // Same kernel and class; CG and IS match the perfbench smoke points.
    const Row row{full.kernel, 16, full.cls, 1};
    const sim::Time rdma = run_one(row, NetMode::kBypass).elapsed;
    const sim::Time cord = run_one(row, NetMode::kCord).elapsed;
    const sim::Time ipoib = run_one(row, NetMode::kIpoib).elapsed;
    const auto ratio = [rdma](sim::Time x) {
      return fmt("%.6f", static_cast<double>(x) / static_cast<double>(rdma));
    };
    t.add_row({std::string(to_string(row.kernel)), std::to_string(row.ranks),
               std::to_string(rdma), std::to_string(cord), std::to_string(ipoib),
               ratio(cord), ratio(ipoib)});
  }
  t.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string_view(argv[1]) == "--quick") return quick();
  std::printf(
      "=== Figure 6: NPB relative runtime on system A (RDMA = 1.00) ===\n"
      "(no shared-memory communication; 2 nodes)\n\n");
  Table t({"bench", "ranks", "RDMA ms", "CoRD", "IPoIB", "msg/rank/s", "Gbit/s/node"});
  for (const Row& row : kRows) {
    std::fprintf(stderr, "[fig6] running %s (%d ranks)...\n",
                 std::string(to_string(row.kernel)).c_str(), row.ranks);
    const Result rdma = run_one(row, NetMode::kBypass);
    std::fprintf(stderr, "[fig6]   rdma  %.2f ms\n", sim::to_ms(rdma.elapsed));
    const Result cord = run_one(row, NetMode::kCord);
    std::fprintf(stderr, "[fig6]   cord  %.2f ms\n", sim::to_ms(cord.elapsed));
    const Result ipoib = run_one(row, NetMode::kIpoib);
    std::fprintf(stderr, "[fig6]   ipoib %.2f ms\n", sim::to_ms(ipoib.elapsed));
    const double base_ms = sim::to_ms(rdma.elapsed);
    const double msg_rate = static_cast<double>(rdma.messages) /
                            sim::to_sec(rdma.elapsed) / row.ranks;
    const double node_gbps =
        static_cast<double>(rdma.bytes) * 8.0 / sim::to_sec(rdma.elapsed) / 2e9;
    t.add_row({std::string(to_string(row.kernel)), std::to_string(row.ranks),
               fmt("%.2f", base_ms),
               fmt("%.3f", sim::to_ms(cord.elapsed) / base_ms),
               fmt("%.3f", sim::to_ms(ipoib.elapsed) / base_ms),
               fmt("%.0f", msg_rate), fmt("%.2f", node_gbps)});
    std::fflush(stdout);
  }
  t.print();
  std::printf(
      "\nPaper checkpoints: CoRD ~1.00 everywhere (EP/CG may dip below\n"
      "1.00 with Turbo enabled); IPoIB up to ~2x, worst on the data- and\n"
      "message-intensive IS and SP.\n");
  return 0;
}
