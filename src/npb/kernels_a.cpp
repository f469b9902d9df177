// NPB kernels EP, IS, CG, MG.
//
// EP and IS run real arithmetic in verify mode (Gaussian-deviate counting
// and a full distributed bucket sort); CG and MG run the exact NPB-MPI
// exchange patterns with stamped buffers and invariant checks. Computation
// volume comes from the published per-class operation counts. Outside
// verify mode EP draws no deviates and IS holds no key array: IS takes
// analytic bucket counts and ships its send buffer unfilled.
#include <algorithm>
#include <array>
#include <vector>

#include "npb/bodies.hpp"
#include "npb/internal.hpp"

namespace cord::npb::internal {

// ---------------------------------------------------------------------------
// EP — embarrassingly parallel: generate Gaussian deviates, count them in
// annular bins, three small allreduces at the very end.
// ---------------------------------------------------------------------------

sim::Task<> ep_body(mpi::Rank& r, const BodyContext& ctx) {
  // log2 of the number of random pairs. Class S is scaled down (2^20
  // instead of the official 2^24) so the real-arithmetic verify mode
  // stays snappy; A and B are the official sizes.
  const int m = ctx.cls == Class::kS ? 20 : ctx.cls == Class::kA ? 28 : 30;
  const std::uint64_t total_pairs = 1ull << m;
  const std::uint64_t per =
      total_pairs / static_cast<std::uint64_t>(r.size()) +
      (r.id() == r.size() - 1 ? total_pairs % static_cast<std::uint64_t>(r.size())
                              : 0);

  double sx = 0.0;
  double sy = 0.0;
  std::array<double, 10> q{};
  // ~40 operations per pair (two PRNG draws, the polar test, the
  // occasional log/sqrt) — charged in chunks so the DVFS model sees a
  // realistic busy profile rather than one monolithic block.
  constexpr double kOpsPerPair = 40.0;
  constexpr int kChunks = 8;
  if (ctx.verify) {
    sim::Rng rng(0x45500ull + static_cast<std::uint64_t>(r.id()));
    for (std::uint64_t i = 0; i < per; ++i) {
      const double x = 2.0 * rng.next_double() - 1.0;
      const double y = 2.0 * rng.next_double() - 1.0;
      const double t = x * x + y * y;
      if (t <= 1.0 && t > 0.0) {
        const double f = std::sqrt(-2.0 * std::log(t) / t);
        const double gx = x * f;
        const double gy = y * f;
        const auto l = static_cast<std::size_t>(
            std::min(9.0, std::max(std::abs(gx), std::abs(gy))));
        q[l] += 1.0;
        sx += gx;
        sy += gy;
      }
    }
  }
  for (int c = 0; c < kChunks; ++c) {
    co_await compute_flops(r, static_cast<double>(per) * kOpsPerPair / kChunks, 1.5);
  }

  std::array<double, 2> sums{sx, sy};
  std::array<double, 2> sums_out{};
  co_await r.allreduce<double>(sums, sums_out, Op::kSum);
  std::array<double, 10> q_out{};
  co_await r.allreduce<double>(q, q_out, Op::kSum);

  if (ctx.verify) {
    double accepted = 0.0;
    for (double v : q_out) accepted += v;
    const double expect = static_cast<double>(total_pairs) * 0.7853981633974483;
    if (std::abs(accepted / expect - 1.0) > 0.01) {
      throw VerifyFailure("EP: acceptance ratio off pi/4");
    }
    // Gaussian sums are O(sqrt(n)); allow a generous multiple.
    const double bound = 6.0 * std::sqrt(accepted);
    if (std::abs(sums_out[0]) > bound || std::abs(sums_out[1]) > bound) {
      throw VerifyFailure("EP: deviate sums not centered");
    }
    if (!(q_out[0] > q_out[1] && q_out[1] > q_out[2])) {
      throw VerifyFailure("EP: annulus counts not decreasing");
    }
  }
}

// ---------------------------------------------------------------------------
// IS — integer sort: iterated bucket sort of uniformly distributed keys.
// Per iteration: local histogram, allreduce of bucket counts, alltoallv of
// the keys, local sort. Data- and message-intensive.
// ---------------------------------------------------------------------------

sim::Task<> is_body(mpi::Rank& r, const BodyContext& ctx) {
  const int total_log2 = ctx.cls == Class::kS ? 16 : ctx.cls == Class::kA ? 23 : 25;
  const int key_log2 = ctx.cls == Class::kS ? 11 : ctx.cls == Class::kA ? 19 : 21;
  const int iters = ctx.iterations > 0 ? ctx.iterations : 10;
  const int n = r.size();
  const std::uint64_t total_keys = 1ull << total_log2;
  const auto per = static_cast<std::size_t>(total_keys / static_cast<std::uint64_t>(n));
  const std::uint32_t max_key = 1u << key_log2;

  // Only verify mode reads keys; the timed run ships sendbuf as it is.
  std::vector<std::uint32_t> keys;
  if (ctx.verify) {
    keys.resize(per);
    sim::Rng rng(0x15000ull + static_cast<std::uint64_t>(r.id()));
    for (auto& k : keys) {
      k = static_cast<std::uint32_t>(rng.next_below(max_key));
    }
  }

  std::vector<std::int64_t> counts(n), counts_sum(n);
  std::vector<std::size_t> scounts(n), rcounts(n);
  std::vector<std::uint32_t> sendbuf(per), recvbuf;

  for (int it = 0; it < iters; ++it) {
    // Local histogram over n splitter buckets (bucket = key's top bits).
    const int shift = key_log2 - ilog2(n);
    std::fill(counts.begin(), counts.end(), 0);
    if (ctx.verify) {
      for (std::uint32_t k : keys) counts[k >> shift]++;
    } else {
      // Uniform keys: analytic counts.
      for (int i = 0; i < n; ++i) {
        counts[i] = static_cast<std::int64_t>(per / static_cast<std::size_t>(n));
      }
      counts[0] += static_cast<std::int64_t>(per % static_cast<std::size_t>(n));
    }
    co_await compute_flops(r, static_cast<double>(per) * 2.0, 3.0);

    co_await r.allreduce<std::int64_t>(counts, counts_sum, Op::kSum);

    // Scatter keys into per-destination runs.
    for (int i = 0; i < n; ++i) scounts[i] = static_cast<std::size_t>(counts[i]);
    if (ctx.verify) {
      std::vector<std::size_t> off(n, 0);
      for (int i = 1; i < n; ++i) off[i] = off[i - 1] + scounts[i - 1];
      for (std::uint32_t k : keys) sendbuf[off[k >> shift]++] = k;
    }
    co_await compute_flops(r, static_cast<double>(per) * 2.0, 3.0);

    // Everyone tells everyone the counts, then the keys move.
    std::vector<std::int64_t> flat_s(n);
    for (int i = 0; i < n; ++i) flat_s[i] = counts[i];
    std::vector<std::int64_t> flat_r(n);
    co_await r.alltoall<std::int64_t>(flat_s, flat_r);
    std::size_t rtotal = 0;
    for (int i = 0; i < n; ++i) {
      rcounts[i] = static_cast<std::size_t>(flat_r[i]);
      rtotal += rcounts[i];
    }
    recvbuf.resize(rtotal);
    co_await r.alltoallv<std::uint32_t>(sendbuf, scounts, recvbuf, rcounts);

    // Local sort of the received keys.
    if (ctx.verify) std::sort(recvbuf.begin(), recvbuf.end());
    co_await compute_flops(
        r,
        static_cast<double>(rtotal) *
            std::max(1.0, std::log2(static_cast<double>(rtotal))) * 1.5,
        3.0);
  }

  if (ctx.verify) {
    // Global order: my largest key <= right neighbour's smallest.
    std::array<std::uint32_t, 1> my_max{recvbuf.empty() ? 0 : recvbuf.back()};
    std::array<std::uint32_t, 1> left_max{0};
    const int right = (r.id() + 1) % r.size();
    const int left = (r.id() - 1 + r.size()) % r.size();
    co_await r.sendrecv<std::uint32_t>(right, 91, my_max, left, 91, left_max);
    if (r.id() > 0 && !recvbuf.empty() && left_max[0] > recvbuf.front()) {
      throw VerifyFailure("IS: global order violated");
    }
    // Conservation: total key count unchanged.
    std::array<std::int64_t, 1> cnt{static_cast<std::int64_t>(recvbuf.size())};
    std::array<std::int64_t, 1> cnt_sum{};
    co_await r.allreduce<std::int64_t>(cnt, cnt_sum, Op::kSum);
    if (cnt_sum[0] != static_cast<std::int64_t>(total_keys)) {
      throw VerifyFailure("IS: keys lost or duplicated");
    }
    for (std::size_t i = 1; i < recvbuf.size(); ++i) {
      if (recvbuf[i - 1] > recvbuf[i]) throw VerifyFailure("IS: not sorted");
    }
  }
}

// ---------------------------------------------------------------------------
// CG — conjugate gradient on a 2D process grid: per inner iteration, a
// recursive-halving exchange of vector segments along the grid row (the
// sparse-matvec sum), one transpose exchange, and two scalar allreduces.
// "Few large messages."
// ---------------------------------------------------------------------------

sim::Task<> cg_body(mpi::Rank& r, const BodyContext& ctx) {
  if (!is_pow2(r.size())) throw std::invalid_argument("CG needs 2^k ranks");
  const int na = ctx.cls == Class::kS ? 1400 : ctx.cls == Class::kA ? 14000 : 75000;
  const int outer_default = ctx.cls == Class::kB ? 75 : 15;
  const int outer = ctx.iterations > 0 ? ctx.iterations : outer_default;
  constexpr int kInner = 25;
  // Total op count per class (NPB reports 0.07/1.50/54.9 Gop for S/A/B).
  const double total_gop =
      ctx.cls == Class::kS ? 0.07 : ctx.cls == Class::kA ? 1.50 : 54.9;
  const double flops_per_inner = total_gop * 1e9 /
                                 (static_cast<double>(outer_default) * kInner) /
                                 static_cast<double>(r.size());

  const auto [nrows, ncols] = grid2d(r.size());
  const int row = r.id() / ncols;
  const int col = r.id() % ncols;
  const std::size_t seg = static_cast<std::size_t>(na) /
                          static_cast<std::size_t>(ncols);

  std::vector<double> w(seg), scratch(seg);
  for (int o = 0; o < outer; ++o) {
    for (int inner = 0; inner < kInner; ++inner) {
      co_await compute_flops(r, flops_per_inner, 0.6);  // SpMV is indirect-access bound
      // Sum of partial matvec results across the row (recursive halving).
      for (int mask = 1; mask < ncols; mask <<= 1) {
        const int partner = row * ncols + (col ^ mask);
        const std::uint64_t salt =
            static_cast<std::uint64_t>(o) * 1000 + inner * 10 +
            static_cast<std::uint64_t>(ilog2(mask));
        if (ctx.verify) stamp(w, r.id(), salt);
        co_await r.sendrecv<double>(partner, 40, w, partner, 40, scratch);
        if (ctx.verify) check_stamp(scratch, partner, salt, "CG row exchange");
        co_await compute_flops(r, static_cast<double>(seg), 0.6);
      }
      // Transpose exchange (w lives row-distributed, q column-distributed).
      // On a square grid the matrix-transpose map is an involution; on a
      // non-square grid (ncols = nrows/2) we pair ranks with id ^ (P/2),
      // which moves the same volume symmetrically (NPB's exch_proc is the
      // exact analogue).
      const int tpartner = nrows == ncols ? col * nrows + row
                                          : r.id() ^ (r.size() / 2);
      if (tpartner != r.id() && tpartner < r.size()) {
        co_await r.sendrecv<double>(tpartner, 41, w, tpartner, 41, scratch);
      }
      // rho and alpha dot products.
      std::array<double, 1> dot{1.0}, dot_out{};
      co_await r.allreduce<double>(dot, dot_out, Op::kSum);
      co_await r.allreduce<double>(dot, dot_out, Op::kSum);
      if (ctx.verify && dot_out[0] != static_cast<double>(r.size())) {
        throw VerifyFailure("CG: allreduce sum wrong");
      }
    }
    // Norm of the residual once per outer iteration.
    std::array<double, 1> norm{0.5}, norm_out{};
    co_await r.allreduce<double>(norm, norm_out, Op::kSum);
  }
}

// ---------------------------------------------------------------------------
// MG — multigrid V-cycles on a 3D decomposition: halo exchange of six
// faces per level going down and up, plus a norm allreduce per iteration.
// ---------------------------------------------------------------------------

sim::Task<> mg_body(mpi::Rank& r, const BodyContext& ctx) {
  if (!is_pow2(r.size())) throw std::invalid_argument("MG needs 2^k ranks");
  const int nx = ctx.cls == Class::kS ? 32 : 256;
  const int iters_default = ctx.cls == Class::kS ? 4 : ctx.cls == Class::kA ? 4 : 20;
  const int iters = ctx.iterations > 0 ? ctx.iterations : iters_default;
  const double total_gop =
      ctx.cls == Class::kS ? 0.01 : ctx.cls == Class::kA ? 3.63 : 18.1;
  const double flops_per_iter = total_gop * 1e9 /
                                static_cast<double>(iters_default) /
                                static_cast<double>(r.size());

  const auto dims = grid3d(r.size());
  std::array<int, 3> coord{};
  {
    int rem = r.id();
    coord[0] = rem % dims[0];
    rem /= dims[0];
    coord[1] = rem % dims[1];
    rem /= dims[1];
    coord[2] = rem;
  }
  auto rank_of = [&](std::array<int, 3> c) {
    return (c[2] * dims[1] + c[1]) * dims[0] + c[0];
  };

  const int levels = std::max(2, ilog2(nx) - 2);
  std::vector<double> face, got;
  for (int it = 0; it < iters; ++it) {
    // One V-cycle: fine -> coarse -> fine.
    for (int pass = 0; pass < 2; ++pass) {
      for (int li = 0; li < levels; ++li) {
        const int level = pass == 0 ? levels - li : li + 1;
        const int nl = std::max(4, nx >> (levels - level));
        for (int dim = 0; dim < 3; ++dim) {
          // Local face size at this level (points in the two other dims).
          const int da = nl / dims[(dim + 1) % 3];
          const int db = nl / dims[(dim + 2) % 3];
          const auto elems = static_cast<std::size_t>(
              std::max(1, da) * std::max(1, db));
          face.resize(elems);
          got.resize(elems);
          for (int dir : {-1, +1}) {
            // Shift exchange: give the face in direction `dir`, take the
            // face arriving from `-dir` (paired sendrecvs; no circular
            // wait on periodic rings).
            std::array<int, 3> to = coord;
            to[dim] = (to[dim] + dir + dims[dim]) % dims[dim];
            std::array<int, 3> from = coord;
            from[dim] = (from[dim] - dir + dims[dim]) % dims[dim];
            const int dst = rank_of(to);
            const int src = rank_of(from);
            if (dst == r.id()) continue;  // periodic self-wrap
            const std::uint64_t salt = static_cast<std::uint64_t>(it) * 10000 +
                                       pass * 1000 + level * 10 +
                                       static_cast<std::uint64_t>(dim * 2 + (dir > 0));
            if (ctx.verify) stamp(face, r.id(), salt);
            co_await r.sendrecv<double>(dst, 50 + dim, face, src, 50 + dim, got);
            if (ctx.verify) check_stamp(got, src, salt, "MG halo");
          }
        }
        co_await compute_flops(
            r, flops_per_iter / (2.0 * static_cast<double>(levels)), 2.5);
      }
    }
    std::array<double, 1> norm{1.0}, norm_out{};
    co_await r.allreduce<double>(norm, norm_out, Op::kSum);
    if (ctx.verify && norm_out[0] != static_cast<double>(r.size())) {
      throw VerifyFailure("MG: norm allreduce wrong");
    }
  }
}

}  // namespace cord::npb::internal
