#include "sim/sharded.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>

namespace cord::sim {

ShardedEngine::ShardedEngine(std::size_t shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("ShardedEngine: shard_count must be >= 1");
  }
  engines_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto e = std::make_unique<Engine>();
    e->coordinator_ = this;
    e->shard_index_ = static_cast<std::uint32_t>(i);
    engines_.push_back(std::move(e));
  }
  mail_.resize(shard_count * shard_count);
  lookahead_.assign(shard_count * shard_count, kUnboundedLookahead);
  out_min_.assign(shard_count, kUnboundedLookahead);
  window_end_.assign(shard_count, 0);
  stats_.barrier_wait_ns.assign(shard_count, 0);
  stats_.barrier_waits.assign(shard_count, 0);
}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::set_lookahead(Time la) {
  if (shard_count() > 1 && la <= 0) {
    throw std::invalid_argument(
        "ShardedEngine: non-positive lookahead (" + std::to_string(la) +
        " ps) with " + std::to_string(shard_count()) +
        " shards — a cross-shard link with zero propagation delay admits "
        "no safe conservative window");
  }
  if (la >= kUnboundedLookahead) la = kUnboundedLookahead;
  const std::size_t n = shard_count();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      lookahead_[i * n + j] = la;
    }
  }
  close_lookahead();
}

void ShardedEngine::set_lookahead(const std::vector<Time>& matrix) {
  const std::size_t n = shard_count();
  if (matrix.size() != n * n) {
    throw std::invalid_argument(
        "ShardedEngine: lookahead matrix has " + std::to_string(matrix.size()) +
        " entries, want shard_count^2 = " + std::to_string(n * n));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      Time la = matrix[i * n + j];
      if (n > 1 && la <= 0) {
        throw std::invalid_argument(
            "ShardedEngine: non-positive lookahead (" + std::to_string(la) +
            " ps) for shard pair (" + std::to_string(i) + ", " +
            std::to_string(j) +
            ") — a cross-shard path with zero propagation delay admits no "
            "safe conservative window");
      }
      if (la >= kUnboundedLookahead) la = kUnboundedLookahead;
      lookahead_[i * n + j] = la;
    }
  }
  close_lookahead();
}

void ShardedEngine::close_lookahead() {
  const std::size_t n = shard_count();
  // Min-plus (tropical) transitive closure: an effect can cross i -> j by
  // relaying through any k (an event posted to k at t + D[i][k] can itself
  // post to j at t + D[i][k] + D[k][j]), so the safe pairwise bound is the
  // shortest path in the lookahead graph, not the direct entry alone.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const Time ik = lookahead_[i * n + k];
      if (i == k || ik >= kUnboundedLookahead) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == k || j == i) continue;
        const Time via = sat_add(ik, lookahead_[k * n + j]);
        if (via < lookahead_[i * n + j]) lookahead_[i * n + j] = via;
      }
    }
  }
  min_lookahead_ = kUnboundedLookahead;
  for (std::size_t i = 0; i < n; ++i) {
    Time out = kUnboundedLookahead;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      out = std::min(out, lookahead_[i * n + j]);
    }
    out_min_[i] = out;
    min_lookahead_ = std::min(min_lookahead_, out);
  }
}

void ShardedEngine::post(Engine& src, Engine& dst, Time t, InlineFn fn) {
  if (mode_ != Mode::kParallel) {
    // Single-threaded phases (merged setup, or user code between runs):
    // deliver directly. call_at clamps t < dst.now(), which cannot happen
    // here because the merged mode keeps all clocks equal.
    dst.call_at(t, std::move(fn));
    return;
  }
  // Subtraction form: t and now() are both in [0, kNoEvent], so the
  // difference cannot overflow, unlike now() + lookahead.
  const Time la = lookahead_[src.shard_index_ * shard_count() + dst.shard_index_];
  if (t - src.now() < la) {
    throw std::logic_error(
        "ShardedEngine: torn window — cross-shard event for t=" +
        std::to_string(t) + " ps posted at src time " +
        std::to_string(src.now()) + " ps violates the declared lookahead of " +
        std::to_string(la) + " ps for shard pair (" +
        std::to_string(src.shard_index_) + ", " +
        std::to_string(dst.shard_index_) +
        ") (a cross-shard path is faster than the lookahead claims)");
  }
  mail_[src.shard_index_ * shard_count() + dst.shard_index_].push_back(
      Msg{t, std::move(fn)});
}

void ShardedEngine::sync_clocks() {
  Time m = 0;
  for (const auto& e : engines_) m = std::max(m, e->now_);
  for (const auto& e : engines_) e->advance_now(m);
}

Time ShardedEngine::run_sequential() {
  // One shard has nothing to merge. Engine::run() also replays parked
  // pollers, which next_event_time() and step_one() do not see.
  if (shard_count() == 1) return engines_[0]->run();
  mode_ = Mode::kSequential;
  for (;;) {
    // Next event globally, ties broken by shard index: a deterministic
    // total order (t, shard, intra-shard seq) over all events.
    Engine* best = nullptr;
    Time best_t = Engine::kNoEvent;
    for (const auto& e : engines_) {
      const Time t = e->next_event_time();
      if (t < best_t) {
        best_t = t;
        best = e.get();
      }
    }
    if (best == nullptr) break;
    // Global-clock semantics: every engine observes the same "now", so a
    // coroutine that hops shards mid-await (e.g. connection setup touching
    // both endpoints) computes the same timestamps as on one engine.
    for (const auto& e : engines_) e->advance_now(best_t);
    best->step_one();
    ++stats_.sequential_events;
  }
  mode_ = Mode::kIdle;
  sync_clocks();
  return engines_.empty() ? 0 : engines_[0]->now_;
}

void ShardedEngine::drain_mailboxes() {
  const std::size_t n = shard_count();
  // Deterministic destination seq assignment: for each destination, merge
  // the per-source mailboxes by (t, source shard, posting order). This is
  // a function of simulation state only — wall-clock thread interleaving
  // cannot reorder it.
  for (std::size_t dst = 0; dst < n; ++dst) {
    // Index triples into the (src-major) mailboxes for this destination.
    struct Ref {
      Time t;
      std::uint32_t src;
      std::uint32_t pos;
    };
    std::vector<Ref> order;
    for (std::size_t src = 0; src < n; ++src) {
      auto& box = mail_[src * n + dst];
      for (std::size_t i = 0; i < box.size(); ++i) {
        order.push_back(Ref{box[i].t, static_cast<std::uint32_t>(src),
                            static_cast<std::uint32_t>(i)});
      }
    }
    if (order.empty()) continue;
    std::sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
      if (a.t != b.t) return a.t < b.t;
      if (a.src != b.src) return a.src < b.src;
      return a.pos < b.pos;
    });
    Engine& d = *engines_[dst];
    for (const Ref& r : order) {
      Msg& m = mail_[r.src * n + dst][r.pos];
      d.call_at(m.t, std::move(m.fn));
    }
    stats_.messages += order.size();
    for (std::size_t src = 0; src < n; ++src) mail_[src * n + dst].clear();
  }
}

Time ShardedEngine::run() {
  stats_.windows = 0;
  stats_.messages = 0;
  std::fill(stats_.barrier_wait_ns.begin(), stats_.barrier_wait_ns.end(), 0);
  std::fill(stats_.barrier_waits.begin(), stats_.barrier_waits.end(), 0);
  if (shard_count() == 1) return engines_[0]->run();
  return run_parallel();
}

Time ShardedEngine::run_parallel() {
  const std::size_t n = shard_count();
  mode_ = Mode::kParallel;
  stop_ = false;
  error_ = nullptr;
  // Baseline for the final-time computation below: clocks may start above
  // any event this run will execute (raised by sync_clocks or a sequential
  // phase), and the result must never move time backwards past that.
  Time base = 0;
  for (const auto& e : engines_) base = std::max(base, e->now_);

  // Two barriers per window: `start` publishes window_end_ (and stop_) to
  // the workers; `finish` publishes queue/mailbox state back to the
  // coordinator. All shared state below is touched only in the exclusive
  // phases these barriers carve out.
  std::barrier<> start(static_cast<std::ptrdiff_t>(n) + 1);
  std::barrier<> finish(static_cast<std::ptrdiff_t>(n) + 1);
  std::vector<std::exception_ptr> worker_error(n);

  std::vector<std::thread> workers;
  workers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers.emplace_back([this, i, &start, &finish, &worker_error] {
      Engine& e = *engines_[i];
      for (;;) {
        start.arrive_and_wait();
        if (stop_) return;
        try {
          const Time end = window_end_[i];
          if (end == Engine::kNoEvent) {
            // Unbounded window: no peer can reach this shard and nothing
            // it posts needs a barrier — drain the queue without parking
            // the clock at an artificial horizon.
            e.run();
          } else {
            // Events strictly inside [.., end) are safe; run_until is
            // inclusive, hence - 1. It also parks now() at the window
            // edge so the next window's cross-shard arrivals never clamp.
            e.run_until(end - 1);
          }
        } catch (...) {
          worker_error[i] = std::current_exception();
        }
        const auto idle0 = std::chrono::steady_clock::now();
        finish.arrive_and_wait();
        stats_.barrier_wait_ns[i] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - idle0)
                .count());
        stats_.barrier_waits[i]++;
      }
    });
  }

  std::vector<Time> next(n);
  for (;;) {
    Time next_min = Engine::kNoEvent;
    Time next_max_finite = 0;
    for (std::size_t i = 0; i < n; ++i) {
      next[i] = engines_[i]->next_event_time();
      next_min = std::min(next_min, next[i]);
      if (next[i] != Engine::kNoEvent) {
        next_max_finite = std::max(next_max_finite, next[i]);
      }
    }
    // Event times at or past kUnboundedLookahead (kNoEvent / 2) would be
    // indistinguishable from the unbounded-window sentinel in the edge
    // arithmetic below (their sat_add can saturate to kNoEvent) — fail
    // loudly instead of silently degrading the synchronization (~53 days
    // of simulated picoseconds; nothing in this repo gets close).
    if (next_max_finite >= kUnboundedLookahead && !error_) {
      error_ = std::make_exception_ptr(std::logic_error(
          "ShardedEngine: event time " + std::to_string(next_max_finite) +
          " ps has reached kUnboundedLookahead (kNoEvent / 2) — the "
          "conservative-window arithmetic cannot distinguish such times "
          "from the unbounded sentinel; the simulated time domain is "
          "exhausted"));
    }
    if (next_min == Engine::kNoEvent || error_) {
      stop_ = true;
      start.arrive_and_wait();  // release workers into their exit path
      break;
    }
    // Adaptive per-shard windows. Shard k may run every event strictly
    // before end_k = min(min_{j != k} T_j + D[j][k], T_k + out_min_[k]):
    // the first term is safety (any cross-shard effect from a peer event
    // at T_j lands no earlier than T_j + D[j][k], D closed over relays),
    // the second liveness (k's own posts are parked until the window edge;
    // without it a shard spin-waiting on a reply to its own in-window
    // post would never reach the barrier). Pairs with unbounded lookahead
    // contribute nothing; a shard no peer can reach and that can reach no
    // peer gets an unbounded window. With a uniform matrix every end_k
    // equals min(T) + L — exactly the classic global window.
    for (std::size_t k = 0; k < n; ++k) {
      // A window is unbounded only when every contributing term is the
      // kUnboundedLookahead sentinel (k can reach no peer AND no live
      // peer can reach k) — a finite edge stays finite no matter how
      // large, so a legitimately late event never silently detaches its
      // shard from the synchronization (the guard above bounds event
      // times, so the finite sat_adds here cannot saturate to kNoEvent).
      Time end = Engine::kNoEvent;
      if (next[k] != Engine::kNoEvent && out_min_[k] < kUnboundedLookahead) {
        end = sat_add(next[k], out_min_[k]);
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (j == k || next[j] == Engine::kNoEvent) continue;
        const Time la = lookahead_[j * n + k];
        if (la >= kUnboundedLookahead) continue;
        end = std::min(end, sat_add(next[j], la));
      }
      window_end_[k] = end;
    }
    start.arrive_and_wait();
    finish.arrive_and_wait();
    for (std::size_t i = 0; i < n; ++i) {
      if (worker_error[i] && !error_) error_ = worker_error[i];
    }
    drain_mailboxes();
    ++stats_.windows;
  }
  for (auto& w : workers) w.join();
  mode_ = Mode::kIdle;

  if (error_) std::rethrow_exception(error_);
  // The workers park shard clocks at window edges (up to one lookahead
  // past the last event), which would make the returned time — and any
  // call_in() issued after the run — depend on the shard count. Report
  // the latest *executed* event instead and align every clock to it: the
  // same final state a single merged engine reaches. Rewinding a parked
  // clock is safe here (all queues and mailboxes are empty), and shards
  // that ran nothing are raised exactly as sync_clocks would.
  Time m = base;
  for (const auto& e : engines_) m = std::max(m, e->last_event_);
  for (auto& e : engines_) e->now_ = m;
  return m;
}

std::uint64_t ShardedEngine::events_processed() const {
  std::uint64_t s = 0;
  for (const auto& e : engines_) s += e->events_processed();
  return s;
}

std::uint64_t ShardedEngine::clamped_events() const {
  std::uint64_t s = 0;
  for (const auto& e : engines_) s += e->clamped_events();
  return s;
}

std::size_t ShardedEngine::queue_peak_depth() const {
  std::size_t m = 0;
  for (const auto& e : engines_) m = std::max(m, e->queue_peak_depth());
  return m;
}

std::size_t ShardedEngine::live_roots() const {
  std::size_t s = 0;
  for (const auto& e : engines_) s += e->live_roots();
  return s;
}

void Engine::cross_post(Engine& dst, Time t, InlineFn fn) {
  if (&dst == this) {
    call_at(t, std::move(fn));
    return;
  }
  if (coordinator_ == nullptr || dst.coordinator_ != coordinator_) {
    throw std::logic_error(
        "Engine::cross_post: engines do not share a ShardedEngine");
  }
  coordinator_->post(*this, dst, t, std::move(fn));
}

}  // namespace cord::sim
