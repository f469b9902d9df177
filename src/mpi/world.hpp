// The MPI runtime: a World of ranks spread across the hosts of a
// core::System, with typed point-to-point operations and the collectives
// the NPB suite needs (barrier, bcast, reduce, allreduce, allgather,
// alltoall(v)) implemented with the standard algorithms (dissemination,
// binomial trees, recursive doubling, ring, pairwise exchange).
//
// The network is pluggable per the paper's Fig. 6 comparison:
//   kBypass — MPI over verbs with kernel-bypass (classical RDMA);
//   kCord   — the same verbs stack, data plane through the kernel;
//   kIpoib  — MPI over the socket stack on the same NIC.
// Shared-memory communication is deliberately absent (the paper bars it
// "to amplify the network effects") — same-host ranks go through the NIC
// loopback (verbs) or the kernel stack (sockets).
#pragma once

#include <functional>
#include <memory>

#include "core/system.hpp"
#include "mpi/socket_endpoint.hpp"
#include "mpi/verbs_endpoint.hpp"
#include "sim/join.hpp"

namespace cord::mpi {

enum class NetMode { kBypass, kCord, kIpoib };

struct WorldConfig {
  NetMode net = NetMode::kBypass;
  std::uint32_t srq_slots = 1024;
  os::TenantId tenant = 0;
};

enum class Op { kSum, kMax, kMin };

template <typename T>
T apply_op(Op op, T a, T b) {
  switch (op) {
    case Op::kSum: return a + b;
    case Op::kMax: return a > b ? a : b;
    case Op::kMin: return a < b ? a : b;
  }
  return a;
}

class Rank {
 public:
  Rank(int id, std::unique_ptr<Endpoint> ep) : id_(id), ep_(std::move(ep)) {}

  int id() const { return id_; }
  int size() const { return ep_->world_size(); }
  os::Core& core() { return ep_->core(); }
  Endpoint& endpoint() { return *ep_; }
  sim::Time now() { return core().engine().now(); }

  /// Charge `t` of computation (at base frequency) to this rank's core.
  sim::Task<> compute(sim::Time t) { return core().work(t, os::Work::kCompute); }

  // --- typed point-to-point --------------------------------------------
  template <typename T>
  sim::Task<> send(int dst, int tag, std::span<const T> data) {
    co_await ep_->send(dst, tag, std::as_bytes(data));
  }
  template <typename T>
  sim::Task<std::size_t> recv(int src, int tag, std::span<T> out) {
    const std::size_t bytes = co_await ep_->recv(src, tag, std::as_writable_bytes(out));
    co_return bytes / sizeof(T);
  }
  template <typename T>
  sim::Task<> sendrecv(int dst, int stag, std::span<const T> sdata, int src,
                       int rtag, std::span<T> rdata) {
    sim::Joinable tx(core().engine(), send<T>(dst, stag, sdata));
    (void)co_await recv<T>(src, rtag, rdata);
    co_await tx.join();
  }

  // --- collectives --------------------------------------------------------
  sim::Task<> barrier();
  template <typename T>
  sim::Task<> bcast(std::span<T> data, int root);
  template <typename T>
  sim::Task<> reduce(std::span<const T> in, std::span<T> out, Op op, int root);
  template <typename T>
  sim::Task<> allreduce(std::span<const T> in, std::span<T> out, Op op);
  /// in: my block (k elements); out: size*k elements.
  template <typename T>
  sim::Task<> allgather(std::span<const T> in, std::span<T> out);
  /// in/out: size*k elements, block i for/from rank i.
  template <typename T>
  sim::Task<> alltoall(std::span<const T> in, std::span<T> out);
  /// Variable block sizes; offsets are prefix sums of counts.
  template <typename T>
  sim::Task<> alltoallv(std::span<const T> in, std::span<const std::size_t> scounts,
                        std::span<T> out, std::span<const std::size_t> rcounts);

 private:
  int coll_tag() { return kCollTagBase + (coll_seq_++ & 0xFFFFFF); }
  static constexpr int kCollTagBase = 1 << 28;

  int id_;
  std::unique_ptr<Endpoint> ep_;
  std::uint32_t coll_seq_ = 0;
};

class World {
 public:
  /// Ranks are block-distributed across the system's hosts, one core each.
  World(core::System& system, int nranks, WorldConfig cfg = {});

  core::System& system() { return *system_; }
  int size() const { return static_cast<int>(ranks_.size()); }
  Rank& rank(int i) { return *ranks_.at(i); }
  const WorldConfig& config() const { return cfg_; }

  /// Wire the world up, run `body` on every rank, and return the virtual
  /// time from the post-setup barrier to the last rank finishing.
  sim::Time run(std::function<sim::Task<>(Rank&)> body);

  /// Total traffic emitted through the transports so far (NIC counters
  /// for verbs modes, socket-stack counters for IPoIB).
  struct Traffic {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  Traffic traffic() const;

  /// Host index a rank lives on (block distribution).
  int host_of(int rank) const {
    const int hosts = static_cast<int>(system_->host_count());
    const int n = static_cast<int>(nranks_);
    return static_cast<int>(static_cast<long long>(rank) * hosts / n);
  }

 private:
  sim::Task<> setup_verbs();
  sim::Task<> setup_sockets();

  core::System* system_;
  WorldConfig cfg_;
  int nranks_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::vector<std::unique_ptr<sock::SocketStack>> stacks_;  // IPoIB only
};

// --- collective templates ----------------------------------------------

template <typename T>
sim::Task<> Rank::bcast(std::span<T> data, int root) {
  const int n = size();
  if (n == 1) co_return;
  const int tag = coll_tag();
  const int relative = (id_ - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (relative & mask) {
      const int src = (relative - mask + root) % n;
      (void)co_await recv<T>(src, tag, data);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < n) {
      const int dst = (relative + mask + root) % n;
      co_await send<T>(dst, tag, data);
    }
    mask >>= 1;
  }
}

template <typename T>
sim::Task<> Rank::reduce(std::span<const T> in, std::span<T> out, Op op, int root) {
  const int n = size();
  std::vector<T> acc(in.begin(), in.end());
  std::vector<T> scratch(in.size());
  const int tag = coll_tag();
  const int relative = (id_ - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (relative & mask) {
      const int dst = (relative - mask + root) % n;
      co_await send<T>(dst, tag, std::span<const T>(acc));
      break;
    }
    if (relative + mask < n) {
      const int src = (relative + mask + root) % n;
      (void)co_await recv<T>(src, tag, std::span<T>(scratch));
      for (std::size_t i = 0; i < acc.size(); ++i) {
        acc[i] = apply_op(op, acc[i], scratch[i]);
      }
      // The reduction arithmetic itself costs CPU (~1 ns/element).
      co_await compute(sim::ns(static_cast<std::int64_t>(acc.size())));
    }
    mask <<= 1;
  }
  if (id_ == root) std::copy(acc.begin(), acc.end(), out.begin());
}

template <typename T>
sim::Task<> Rank::allreduce(std::span<const T> in, std::span<T> out, Op op) {
  const int n = size();
  std::copy(in.begin(), in.end(), out.begin());
  if (n == 1) co_return;
  if ((n & (n - 1)) == 0) {
    // Recursive doubling.
    std::vector<T> scratch(in.size());
    for (int mask = 1; mask < n; mask <<= 1) {
      const int partner = id_ ^ mask;
      const int tag = coll_tag();
      co_await sendrecv<T>(partner, tag, std::span<const T>(out.data(), out.size()),
                           partner, tag, std::span<T>(scratch));
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = apply_op(op, out[i], scratch[i]);
      }
      co_await compute(sim::ns(static_cast<std::int64_t>(out.size())));
    }
  } else {
    co_await reduce<T>(in, out, op, 0);
    co_await bcast<T>(out, 0);
  }
}

template <typename T>
sim::Task<> Rank::allgather(std::span<const T> in, std::span<T> out) {
  const int n = size();
  const std::size_t k = in.size();
  std::copy(in.begin(), in.end(), out.begin() + id_ * k);
  if (n == 1) co_return;
  const int right = (id_ + 1) % n;
  const int left = (id_ - 1 + n) % n;
  for (int step = 0; step < n - 1; ++step) {
    const int send_block = (id_ - step + n) % n;
    const int recv_block = (id_ - step - 1 + n) % n;
    const int tag = coll_tag();
    co_await sendrecv<T>(
        right, tag, std::span<const T>(out.data() + send_block * k, k), left, tag,
        std::span<T>(out.data() + recv_block * k, k));
  }
}

template <typename T>
sim::Task<> Rank::alltoall(std::span<const T> in, std::span<T> out) {
  const int n = size();
  const std::size_t k = in.size() / n;
  std::copy(in.begin() + id_ * k, in.begin() + (id_ + 1) * k,
            out.begin() + id_ * k);
  for (int step = 1; step < n; ++step) {
    const int dst = (id_ + step) % n;
    const int src = (id_ - step + n) % n;
    const int tag = coll_tag();
    co_await sendrecv<T>(dst, tag, std::span<const T>(in.data() + dst * k, k),
                         src, tag, std::span<T>(out.data() + src * k, k));
  }
}

template <typename T>
sim::Task<> Rank::alltoallv(std::span<const T> in,
                            std::span<const std::size_t> scounts, std::span<T> out,
                            std::span<const std::size_t> rcounts) {
  const int n = size();
  std::vector<std::size_t> soff(n + 1, 0), roff(n + 1, 0);
  for (int i = 0; i < n; ++i) {
    soff[i + 1] = soff[i] + scounts[i];
    roff[i + 1] = roff[i] + rcounts[i];
  }
  std::copy(in.begin() + soff[id_], in.begin() + soff[id_ + 1],
            out.begin() + roff[id_]);
  for (int step = 1; step < n; ++step) {
    const int dst = (id_ + step) % n;
    const int src = (id_ - step + n) % n;
    const int tag = coll_tag();
    co_await sendrecv<T>(
        dst, tag, std::span<const T>(in.data() + soff[dst], scounts[dst]), src,
        tag, std::span<T>(out.data() + roff[src], rcounts[src]));
  }
}

}  // namespace cord::mpi
