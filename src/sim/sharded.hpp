// Sharded simulation: N Engine instances, one thread each, synchronized
// with conservative (lookahead-based) time windows.
//
// Protocol (synchronous conservative windows, a la CMB null-message-free
// variants): the lookahead D[i][j] is a lower bound on how far in the
// future any cross-shard effect from shard i must land on shard j (the
// minimum source-side propagation of any fabric path crossing that pair,
// run through a min-plus transitive closure so relayed effects i -> k -> j
// are bounded too). With T_j = shard j's earliest queued event time, shard
// k may safely execute every event strictly before
//
//   end_k = min( min_{j != k} T_j + D[j][k],   // nothing can reach k earlier
//                T_k + min_j D[k][j] )         // k's own posts drain next edge
//
// — the first term is safety (no peer can send k a message dated inside
// the window), the second is liveness (anything k posts while running is
// parked in a mailbox until the window edge; bounding the window by k's
// own earliest possible post keeps k from spinning forever on a reply
// that sits in its own outbox). With a uniform matrix this degenerates to
// the classic global window [T, T + L]. At the window edge all shards
// block on a barrier, the coordinator drains the cross-shard mailboxes
// into the destination engines in a deterministic order, recomputes the
// T's, and opens the next windows.
//
// Determinism: within a shard the existing (t, seq) total order applies
// unchanged. Cross-shard messages are assigned destination seq numbers at
// window edges by draining mailboxes in (t, source shard, posting order)
// order — a pure function of simulation state, independent of thread
// scheduling — so an N-shard run is reproducible run-to-run and, for
// models whose timestamps don't depend on event interleaving across
// shards, bit-identical to the single-engine run. Window *placement*
// (hence ShardStats::windows) depends on the matrix, but which events run
// and the timestamps they produce do not.
//
// Mailboxes are phase-separated rather than locked: during a window only
// the source shard's thread appends to mail_[src][dst]; between the finish
// and start barriers only the coordinator thread reads and clears them.
// The barriers provide the happens-before edges, so the vectors need no
// atomics and run clean under ThreadSanitizer.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/inline_fn.hpp"
#include "sim/units.hpp"

namespace cord::sim {

/// Per-run statistics of a sharded execution (reset by each run call).
struct ShardStats {
  std::uint64_t windows = 0;        ///< sync windows (rounds) executed
  std::uint64_t messages = 0;       ///< cross-shard messages delivered
  std::uint64_t sequential_events = 0;  ///< events run in merged mode
  /// Wall-clock nanoseconds each shard spent blocked on the window-edge
  /// barrier waiting for stragglers (sync idle; feeds the flame view).
  std::vector<std::uint64_t> barrier_wait_ns;
  /// Window-edge barriers each shard blocked on (the wait count behind
  /// barrier_wait_ns; feeds the critical-path report's sync section).
  std::vector<std::uint64_t> barrier_waits;
};

class ShardedEngine {
 public:
  /// Lookahead value meaning "these shards never interact": windows on
  /// such pairs are unbounded. Deliberately kNoEvent / 2 so that
  /// T + lookahead can never wrap sim::Time; set_lookahead clamps any
  /// larger value (including the raw Engine::kNoEvent sentinel that
  /// fabric::Network::min_cross_lookahead returns for partitions with no
  /// cross-shard path) down to this. Event times must stay below this
  /// value too — run() fails loudly (std::logic_error) once any queued
  /// event reaches it, rather than letting window arithmetic mistake a
  /// large finite time for the sentinel and silently stop synchronizing.
  static constexpr Time kUnboundedLookahead = Engine::kNoEvent / 2;

  explicit ShardedEngine(std::size_t shard_count);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;
  ~ShardedEngine();

  std::size_t shard_count() const { return engines_.size(); }
  Engine& shard(std::size_t i) { return *engines_[i]; }
  const Engine& shard(std::size_t i) const { return *engines_[i]; }

  /// Declare a uniform conservative lookahead: the minimum propagation
  /// delay of any path crossing any shard pair. Values >=
  /// kUnboundedLookahead (including Engine::kNoEvent) clamp to
  /// kUnboundedLookahead. Throws std::invalid_argument for la <= 0 with
  /// more than one shard — a zero-lookahead topology (e.g. a cross-shard
  /// link with zero propagation) admits no safe window and must be
  /// rejected at setup.
  void set_lookahead(Time la);

  /// Declare a per-shard-pair lookahead matrix (row-major, shard_count()^2
  /// entries; [src * n + dst]). Entry (i, j) bounds how far ahead of src's
  /// clock any direct i -> j effect must land; use kUnboundedLookahead (or
  /// anything larger, e.g. Engine::kNoEvent) for pairs that never
  /// interact. Diagonal entries are ignored. Off-diagonal entries <= 0
  /// throw std::invalid_argument when shard_count() > 1. The matrix is
  /// closed under min-plus composition internally (i -> k -> j relays),
  /// so callers only need to describe direct pair bounds.
  void set_lookahead(const std::vector<Time>& matrix);

  /// Minimum off-diagonal lookahead (kUnboundedLookahead when no pair
  /// interacts) — the uniform-protocol view of the matrix.
  Time lookahead() const { return min_lookahead_; }
  /// Closed pairwise bound: no effect originating on `src` can land on
  /// `dst` less than this far ahead of src's clock, even via relays.
  Time lookahead(std::size_t src, std::size_t dst) const {
    return lookahead_[src * shard_count() + dst];
  }

  /// Post `fn` at absolute time `t` onto `dst`. Called (via
  /// Engine::cross_post) from whatever thread currently runs `src`.
  /// During a parallel window the message is parked in the src->dst
  /// mailbox and throws std::logic_error if `t` violates the declared
  /// lookahead (a torn window: the model generated an effect earlier than
  /// the sync protocol can deliver it). Outside parallel execution it is
  /// delivered immediately.
  void post(Engine& src, Engine& dst, Time t, InlineFn fn);

  /// Merged sequential execution: one thread interleaves every engine in
  /// global (t, shard) order with a single shared notion of "now" (each
  /// engine's clock follows the global clock). Use for setup phases whose
  /// coroutines hop between shards in ways the conservative protocol does
  /// not allow. Returns the final global time; all shard clocks end equal.
  /// With one shard this is exactly Engine::run(), parked pollers
  /// included.
  Time run_sequential();

  /// Parallel conservative-window execution until every queue and mailbox
  /// drains. With one shard this is exactly Engine::run(). Returns the
  /// time of the latest executed event — never the conservative-window
  /// parking horizon — and aligns every shard clock to it, so the
  /// returned time and the post-run clocks match the single-engine run
  /// bit-for-bit at any shard count. Rethrows the first exception thrown
  /// inside any shard.
  Time run();

  /// Raise every shard clock to the current global maximum.
  void sync_clocks();

  const ShardStats& stats() const { return stats_; }
  /// Aggregates over all shards (drop-in for the Engine accessors).
  std::uint64_t events_processed() const;
  std::uint64_t clamped_events() const;
  std::size_t live_roots() const;
  /// Largest queue-depth high-water mark across all shards.
  std::size_t queue_peak_depth() const;

  /// t + la without wrapping sim::Time (saturates at Engine::kNoEvent).
  static Time sat_add(Time t, Time la) {
    return t >= Engine::kNoEvent - la ? Engine::kNoEvent : t + la;
  }

 private:
  struct Msg {
    Time t;  ///< delivery time on the destination
    InlineFn fn;
  };

  enum class Mode { kIdle, kSequential, kParallel };

  Time run_parallel();
  void drain_mailboxes();
  /// Min-plus transitive closure of lookahead_, then refresh the derived
  /// min_lookahead_ / out_min_ caches.
  void close_lookahead();

  std::vector<std::unique_ptr<Engine>> engines_;
  /// mail_[src * n + dst]: appended by src's thread during a window,
  /// drained by the coordinator between barriers.
  std::vector<std::vector<Msg>> mail_;
  /// Closed lookahead matrix [src * n + dst]; diagonal unused. Every
  /// entry is in (0, kUnboundedLookahead].
  std::vector<Time> lookahead_;
  /// out_min_[k] = min over j != k of lookahead_[k][j]: the earliest any
  /// post from k can be dated, relative to k's clock (liveness bound).
  std::vector<Time> out_min_;
  Time min_lookahead_ = kUnboundedLookahead;
  Mode mode_ = Mode::kIdle;
  /// Per-shard window edge for the current parallel round, written by the
  /// coordinator between barriers. Engine::kNoEvent means "unbounded: run
  /// to queue exhaustion".
  std::vector<Time> window_end_;
  bool stop_ = false;
  std::exception_ptr error_;
  ShardStats stats_;
};

}  // namespace cord::sim
