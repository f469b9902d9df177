// Transport-neutral MPI-style endpoint: tag matching, unexpected-message
// queues, and the posted-receive registry. Concrete endpoints (verbs,
// sockets) implement send() and the progress function; the matching logic
// here is shared.
//
// Semantics implemented (the subset NPB needs):
//  * point-to-point ordered delivery per (source, destination) pair;
//  * matching on exact (source, tag);
//  * eager messages buffer on the receiver if unexpected (with the copy
//    charged), rendezvous messages transfer zero-copy once matched.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <span>
#include <stdexcept>
#include <vector>

#include "os/cpu.hpp"
#include "sim/task.hpp"

namespace cord::mpi {

class Endpoint {
 public:
  virtual ~Endpoint() = default;

  virtual int rank() const = 0;
  virtual int world_size() const = 0;
  virtual os::Core& core() = 0;

  /// Blocking-buffered send (returns once the payload is handed to the
  /// transport; large messages block until the receiver has pulled them).
  virtual sim::Task<> send(int dst, int tag, std::span<const std::byte> data) = 0;

  /// Blocking receive into `out`; returns the message size. Throws on
  /// truncation (message larger than `out`).
  sim::Task<std::size_t> recv(int src, int tag, std::span<std::byte> out);

  /// Drive the transport once (poll queues, dispatch arrivals). Returns
  /// whether anything happened. Waiting loops call this repeatedly; it
  /// must always consume virtual time.
  virtual sim::Task<bool> progress_once() = 0;

  /// Poll progress until `done()` holds, backing off linearly on idle
  /// stretches (the simulated library spins less hard on long waits, at
  /// most ~20 us of detection latency) and with a virtual-time deadline
  /// that turns workload deadlocks into exceptions. `done()` may change
  /// only through this endpoint's progress or matching state.
  ///
  /// Where can_park() allows, the empty iterations are not simulated as
  /// events: the loop parks beside the event queue (IdleLoop) and resumes
  /// at the step that sees an arrival (a pushed CQE, a ready socket) or a
  /// self-send, with every charge, counter and instant as if it had kept
  /// polling (DESIGN.md §20).
  template <typename Pred>
  sim::Task<> progress_until(Pred&& done, const char* what) {
    IdleLoop loop(*this, core().engine().now() + kProgressTimeout);
    while (!done()) {
      bool any;
      if (can_park()) {
        co_await loop.park();
        if (loop.at() == IdleLoop::At::kHead) {
          loop.check_deadline(what);
          continue;
        }
        any = co_await finish_progress(loop.at() == IdleLoop::At::kRecvPoll);
      } else {
        any = co_await progress_once();
      }
      if (any) {
        loop.idle = 0;
        continue;
      }
      if (++loop.idle > IdleLoop::kSpins) {
        co_await core().work(IdleLoop::backoff(loop.idle), os::Work::kSpin);
      }
      loop.check_deadline(what);
    }
  }

 protected:
  /// One progress_until loop's idle state, and its stand-in while parked:
  /// each step() replays one step of an empty iteration — its polls (the
  /// send-CQ and receive-CQ reads, or one socket spin), the idle count and
  /// backoff, the deadline check — and wakes the loop at the first step
  /// after this endpoint's activity counter moves, when the deadline check
  /// would throw, or when the next poll would do more than miss.
  class IdleLoop final : public sim::Poller {
   public:
    /// Where a parked loop stands: the step the engine replays next.
    enum class At {
      kRecvPoll,  // the receive-CQ read (the send-CQ read just charged)
      kSettle,    // the end of an empty progress_once: idle count, backoff
      kHead,      // the deadline check, done() and the first poll
    };
    static constexpr int kSpins = 64;  // empty iterations before backoff
    static sim::Time backoff(int idle) {
      return std::min<sim::Time>(sim::ns(25) * idle, sim::us(20));
    }

    IdleLoop(Endpoint& ep, sim::Time deadline)
        : ep_(ep),
          deadline_(deadline),
          after_head_(ep.polls_twice() ? At::kRecvPoll : At::kSettle) {}
    At at() const { return at_; }
    /// Park at the loop head: charge the first poll due now and suspend
    /// until a step wakes the loop.
    auto park() {
      at_ = after_head_;
      seen_ = ep_.activity_;
      return ep_.core().engine().park(*this, ep_.core().poll_group(),
                                      ep_.charge_poll_miss());
    }
    void check_deadline(const char* what) const {
      if (ep_.core().engine().now() > deadline_) {
        throw std::runtime_error(std::string("MPI progress timed out: ") + what);
      }
    }
    sim::Time step() override;
    /// The first instant the deadline check can throw, or the transport's
    /// own bound (poll_wake_bound).
    sim::Time wake_bound(sim::Time next) const override {
      return std::min(deadline_ + 1, ep_.poll_wake_bound(next));
    }

    int idle = 0;

   private:
    Endpoint& ep_;
    sim::Time deadline_;
    At after_head_;  // the step after the first poll
    At at_ = At::kHead;
    std::uint64_t seen_ = 0;  // ep_.activity_ when the loop parked
  };

  /// Whether an empty progress_once starting now would do nothing but its
  /// polls, each costing charge_poll_miss(), and nothing but those polls
  /// can change that without moving activity_. Transports that cannot
  /// promise this never park.
  virtual bool can_park() const { return false; }
  /// Whether an empty progress_once polls twice (verbs: the send CQ, then
  /// the receive CQ) rather than once (sockets: one spin).
  virtual bool polls_twice() const { return true; }
  /// Replay one empty poll: count it, charge its spin, and return the
  /// charged time — or return sim::Poller::kWake, charging nothing, when
  /// the poll due now would do more than miss. At a loop head that
  /// can_park() allowed, it never does.
  virtual sim::Time charge_poll_miss() { return 0; }
  /// A lower bound on the instant of the first poll charge_poll_miss()
  /// would refuse, for a parked loop whose next step falls at `next`.
  virtual sim::Time poll_wake_bound(sim::Time /*next*/) const {
    return sim::Poller::kNever;
  }
  /// Finish a progress_once that a parked loop woke in the middle of: from
  /// its receive-CQ read (`poll_recv`) or from just after it. Returns what
  /// the whole progress_once would have returned.
  virtual sim::Task<bool> finish_progress(bool /*poll_recv*/) { co_return false; }

  struct PostedRecv {
    int src = 0;
    int tag = 0;
    std::span<std::byte> out;
    std::size_t got = 0;
    bool matched = false;  // a transfer is in flight for this recv
    bool done = false;
  };
  struct UnexpectedMsg {
    int src = 0;
    int tag = 0;
    std::vector<std::byte> data;
  };

  /// A rendezvous announcement (RTS): `size` bytes at the sender's
  /// `addr`/`rkey`, identified by the sender-local `cookie`. Stored once,
  /// in pending_rts_, until a receive matches it.
  struct PendingRts {
    int src = 0;
    int tag = 0;
    std::uint64_t size = 0;
    std::uint64_t cookie = 0;
    std::uint64_t addr = 0;
    std::uint32_t rkey = 0;
  };

  /// Implementation hook: an RTS matched a posted receive — start pulling
  /// its bytes. Implementations copy `rts` before their first suspension.
  virtual sim::Task<> start_pull(PostedRecv& pr, const PendingRts& rts) = 0;

  /// Called by implementations when an eager payload arrives (and by
  /// self-sends). Accrues the receive-side copy into pending_copy_cost_,
  /// which the progress loop charges, and moves activity_.
  void deliver_eager(int src, int tag, std::span<const std::byte> payload);

  /// Called by implementations when a rendezvous announcement arrives.
  /// Returns the matched posted receive (caller then invokes start_pull),
  /// or nullptr if the RTS is stored as pending.
  PostedRecv* deliver_rts(const PendingRts& rts);

  /// Deadlock guard: a blocking operation that makes no progress for this
  /// much virtual time indicates a hung workload and throws.
  static constexpr sim::Time kProgressTimeout = sim::sec(5);

  std::list<PostedRecv*> posted_;
  std::deque<UnexpectedMsg> unexpected_;
  std::deque<PendingRts> pending_rts_;
  /// Copy cost accrued by deliveries inside progress; drained and charged
  /// by the progress loop.
  sim::Time pending_copy_cost_ = 0;
  /// Moves on every CQE pushed into this endpoint's CQs, again when a loop
  /// processes it, on every socket readiness, and on every eager delivery:
  /// a parked progress loop wakes when it differs from the value it parked
  /// with. Moved only through move_activity() (or a watched CQ's push),
  /// which first notifies the loops parked on this endpoint's core.
  std::uint64_t activity_ = 0;
  void move_activity() {
    core().poll_group().notify();
    ++activity_;
  }
};

}  // namespace cord::mpi
