#include "mpi/socket_endpoint.hpp"

#include <cstring>

namespace cord::mpi {

void SocketEndpoint::attach(int peer, sock::Socket* socket) {
  sockets_[peer] = socket;
  if (!epoll_signal_) {
    epoll_signal_ = std::make_unique<sim::Signal>(core_->engine());
    in_ready_.assign(static_cast<std::size_t>(world_size_), 0);
  }
  // Epoll-style readiness: arrivals enqueue the peer once; progress_once
  // only visits ready peers (O(ready), not O(world)).
  socket->set_data_listener([this, peer] { mark_ready(peer); });
}

void SocketEndpoint::mark_ready(int peer) {
  move_activity();
  if (in_ready_[static_cast<std::size_t>(peer)] == 0) {
    in_ready_[static_cast<std::size_t>(peer)] = 1;
    ready_.push_back(peer);
  }
  epoll_signal_->trigger();
}

sim::Task<> SocketEndpoint::send(int dst, int tag, std::span<const std::byte> data) {
  if (dst == rank_) {
    deliver_eager(rank_, tag, data);
    const sim::Time cost = pending_copy_cost_;
    pending_copy_cost_ = 0;
    co_await core().work(cost, os::Work::kCompute);
    co_return;
  }
  // Serialize concurrent sends to the same peer (stream framing). Plain
  // delay rather than progress: the blocking send completes on socket
  // window events, which progress_once cannot observe.
  while (readers_[dst].busy) co_await core().engine().delay(sim::us(1));
  readers_[dst].busy = true;
  FrameHeader hdr{tag, 0, data.size()};
  std::vector<std::byte> frame(sizeof(FrameHeader) + data.size());
  std::memcpy(frame.data(), &hdr, sizeof(FrameHeader));
  if (!data.empty()) {
    std::memcpy(frame.data() + sizeof(FrameHeader), data.data(), data.size());
  }
  const int rc = co_await sockets_[dst]->send(core(), frame);
  readers_[dst].busy = false;
  if (rc != 0) throw std::runtime_error("socket send failed");
}

sim::Task<bool> SocketEndpoint::pump(int peer) {
  sock::Socket* s = sockets_[peer];
  Reader& r = readers_[peer];
  bool any = false;
  for (;;) {
    if (!r.have_header) {
      if (s->available() < sizeof(FrameHeader)) break;
      std::byte raw[sizeof(FrameHeader)];
      co_await s->recv_exact(core(), raw);
      std::memcpy(&r.header, raw, sizeof(FrameHeader));
      r.have_header = true;
      r.body.resize(r.header.size);
      r.got = 0;
      any = true;
    }
    if (r.got < r.body.size()) {
      if (s->available() == 0) break;
      const std::size_t n = co_await s->recv(
          core(), std::span<std::byte>(r.body).subspan(r.got));
      r.got += n;
      any = true;
    }
    if (r.got == r.body.size()) {
      deliver_eager(peer, r.header.tag, r.body);
      r.have_header = false;
      r.body.clear();
      r.got = 0;
    }
  }
  co_return any;
}

sim::Task<bool> SocketEndpoint::progress_once() {
  bool any = false;
  // Visit only peers whose sockets signalled readiness.
  std::size_t budget = ready_.size();
  while (budget-- > 0 && !ready_.empty()) {
    const int peer = ready_.front();
    ready_.pop_front();
    in_ready_[static_cast<std::size_t>(peer)] = 0;
    if (sockets_[peer] == nullptr || sockets_[peer]->available() == 0) continue;
    any |= co_await pump(peer);
    // Bytes may remain (partial frame or another frame behind): keep the
    // peer queued so the next progress call resumes it.
    if (sockets_[peer]->available() > 0) mark_ready(peer);
  }
  if (pending_copy_cost_ > 0) {
    const sim::Time cost = pending_copy_cost_;
    pending_copy_cost_ = 0;
    co_await core().work(cost, os::Work::kCompute);
    any = true;
  }
  // The spin-then-block streak is also what a parked loop's steps count.
  core().poll_group().notify();
  if (!any) {
    // Real MPI-over-sockets progress engines spin on non-blocking polls
    // for a while before blocking (sched_yield loops); only a sustained
    // idle stretch falls back to epoll_wait + interrupt wakeup. This also
    // keeps the DVFS profile comparable to the verbs transports (spinning
    // counts as spin).
    if (++idle_streak_ < kBlockAfter) {
      co_await core().work(kPollSpin, os::Work::kSpin);
    } else {
      co_await core().work(core().syscall_cost(), os::Work::kKernel);
      if (ready_.empty()) {
        co_await epoll_signal_->wait();
        co_await core().work(os::kInterruptHandling + os::kWakeupLatency,
                             os::Work::kKernel);
      }
      core().poll_group().notify();
      idle_streak_ = 0;
    }
  } else {
    idle_streak_ = 0;
  }
  co_return any;
}

sim::Time SocketEndpoint::charge_poll_miss() {
  // The replayed spin of an empty progress_once; the poll that would block
  // in epoll_wait instead wakes the loop to run it. A loop parking here
  // moves the streak another parked loop's steps count.
  core().poll_group().notify();
  if (idle_streak_ + 1 >= kBlockAfter) return sim::Poller::kWake;
  ++idle_streak_;
  return core().charge(kPollSpin, os::Work::kSpin);
}

}  // namespace cord::mpi
