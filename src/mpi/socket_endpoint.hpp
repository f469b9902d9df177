// MPI endpoint over the socket stack (the IPoIB baseline): one stream
// socket per peer, length-prefixed frames, epoll-style progress. All
// messages are effectively "eager" — the kernel stream handles any size
// with its own flow control; matching still happens at the MPI layer.
//
// Progress spins on non-blocking polls (kPollSpin each) and falls back to
// an epoll wait on the kBlockAfter-th empty poll in a row. The spins park
// beside the event queue like the verbs CQ reads (DESIGN.md §20): while
// no peer is ready and no copy cost is pending, each is replayed by
// charge_poll_miss(); the poll that blocks runs for real.
#pragma once

#include <vector>

#include "mpi/endpoint.hpp"
#include "sock/socket.hpp"

namespace cord::mpi {

class SocketEndpoint : public Endpoint {
 public:
  SocketEndpoint(int rank, int world_size, os::Core& core,
                 sock::SocketStack& stack)
      : rank_(rank), world_size_(world_size), core_(&core), stack_(&stack) {
    sockets_.resize(world_size, nullptr);
    readers_.resize(world_size);
  }

  int rank() const override { return rank_; }
  int world_size() const override { return world_size_; }
  os::Core& core() override { return *core_; }
  sock::SocketStack& stack() { return *stack_; }

  /// Install the connected socket towards `peer` (wired by the World).
  void attach(int peer, sock::Socket* socket);

  sim::Task<> send(int dst, int tag, std::span<const std::byte> data) override;
  sim::Task<bool> progress_once() override;

 private:
  /// The CPU one empty non-blocking poll spins for.
  static constexpr sim::Time kPollSpin = sim::ns(300);
  /// Empty polls in a row after which progress blocks in epoll_wait.
  static constexpr int kBlockAfter = 256;

  struct FrameHeader {
    std::int32_t tag = 0;
    std::uint32_t pad = 0;
    std::uint64_t size = 0;
  };
  struct Reader {
    bool have_header = false;
    FrameHeader header;
    std::vector<std::byte> body;
    std::size_t got = 0;
    bool busy = false;  // a send is serializing on this peer's socket
  };

  sim::Task<> start_pull(PostedRecv&, const PendingRts&) override {
    throw std::runtime_error("sockets have no rendezvous path");
  }
  bool can_park() const override {
    return ready_.empty() && pending_copy_cost_ == 0 &&
           idle_streak_ + 1 < kBlockAfter;
  }
  bool polls_twice() const override { return false; }
  sim::Time charge_poll_miss() override;
  /// The kBlockAfter-th empty poll comes after the spins left before it,
  /// each at least one kPollSpin at the fastest clock.
  sim::Time poll_wake_bound(sim::Time next) const override {
    return next + (kBlockAfter - 1 - idle_streak_) * core_->fastest(kPollSpin);
  }

  /// Drain whatever is buffered on one socket into frames.
  sim::Task<bool> pump(int peer);
  void mark_ready(int peer);

  int rank_;
  int world_size_;
  os::Core* core_;
  sock::SocketStack* stack_;
  std::vector<sock::Socket*> sockets_;
  std::vector<Reader> readers_;
  std::unique_ptr<sim::Signal> epoll_signal_;
  std::deque<int> ready_;        // peers with signalled readiness
  std::vector<char> in_ready_;   // dedupe flags for ready_
  int idle_streak_ = 0;          // consecutive empty polls (spin-then-block)
};

}  // namespace cord::mpi
