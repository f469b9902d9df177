// The NAS Parallel Benchmarks (MPI version) — communication-faithful
// implementations of all eight kernels used in the paper's Fig. 6.
//
// Each kernel reproduces the NPB-MPI decomposition and exchange pattern
// (who talks to whom, how often, how many bytes) with real buffers moving
// through the MPI runtime. Computation is charged analytically from the
// published per-class operation counts; `verify` mode runs real
// arithmetic where practical (EP's Gaussian deviates, IS's full
// distributed sort) and data-integrity/invariant checks everywhere else.
// Only `verify` mode generates IS's keys; a timed run sends the same
// counts of unfilled keys. See DESIGN.md §9 for the documented
// approximations.
//
// Communication-intensity summary (drives the Fig. 6 shape):
//   EP — almost none (3 small allreduces at the end);
//   IS — data + message intensive (alltoallv of the whole key space);
//   CG — few large messages (row-group exchanges per matvec);
//   MG — halo exchanges across V-cycle levels;
//   FT — very large alltoall transposes;
//   LU — many small wavefront messages;
//   SP/BT — data + message intensive multi-partition face exchanges.
#pragma once

#include <string_view>

#include "mpi/world.hpp"

namespace cord::npb {

enum class Kernel { kEP, kIS, kCG, kMG, kFT, kLU, kSP, kBT };
enum class Class { kS, kA, kB };

std::string_view to_string(Kernel k);

struct RunConfig {
  Kernel kernel = Kernel::kEP;
  Class cls = Class::kS;
  /// Run real arithmetic + strict verification (use with small classes).
  bool verify = false;
  /// Override the iteration count (0 = class default). The figure bench
  /// trims long-running kernels to ~20 iterations; relative runtimes are
  /// iteration-independent in steady state.
  int iterations = 0;
};

struct Result {
  sim::Time elapsed = 0;
  /// Traffic actually emitted through the transport by all ranks.
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Execute one kernel on an existing world. This is the only entry point:
/// it runs World::run with the kernel body on every rank.
Result run(mpi::World& world, const RunConfig& cfg);

/// Charge `flops` of computation to the rank's core at the kernel's
/// sustained rate (Gop/s per core). NPB kernels sustain very different
/// fractions of peak: indirect-access SpMV (CG) runs ~0.6 Gop/s/core
/// while vectorizable structured solvers (SP/BT) sustain several Gop/s —
/// using one rate for all would distort every compute/communication
/// balance in Fig. 6.
inline sim::Task<> compute_flops(mpi::Rank& r, double flops,
                                 double sustained_gops = 2.5) {
  const auto t = static_cast<sim::Time>(flops / (sustained_gops * 1e9) *
                                        static_cast<double>(sim::kSecond));
  return r.compute(t);
}

}  // namespace cord::npb
