#include "sock/socket.hpp"

#include <algorithm>

namespace cord::sock {

std::pair<Socket*, Socket*> SocketStack::connect(SocketStack& a, SocketStack& b) {
  // Capture each pointer as it is created: when `a` and `b` are the same
  // stack (two ranks on one host), back() after both pushes would alias.
  auto sock_a = std::make_unique<Socket>(a.engine());
  auto sock_b = std::make_unique<Socket>(b.engine());
  Socket* sa = sock_a.get();
  Socket* sb = sock_b.get();
  a.sockets_.push_back(std::move(sock_a));
  b.sockets_.push_back(std::move(sock_b));
  sa->local_stack_ = &a;
  sb->local_stack_ = &b;
  sa->peer_ = sb;
  sb->peer_ = sa;
  return {sa, sb};
}

sim::Task<int> Socket::send(os::Core& core, std::span<const std::byte> data) {
  SocketStack& stack = *local_stack_;
  const SocketConfig& cfg = stack.cfg_;
  sim::Engine& engine = stack.engine();
  SocketStack& peer_stack = *peer_->local_stack_;

  // send() syscall entry + user->kernel copy of the whole payload.
  co_await core.work(core.syscall_cost() + core.memcpy_time(data.size()),
                     os::Work::kKernel);

  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t seg = std::min<std::size_t>(cfg.mss, data.size() - offset);
    // Socket-buffer backpressure.
    while (inflight_ + seg > cfg.sndbuf) co_await window_signal_.wait();
    inflight_ += seg;

    // Kernel TX path: the shared occupancy is the per-segment stack cost
    // divided across the service cores plus the data touch; the full
    // stack latency is pipeline depth added after the reservation.
    const sim::Time tx_busy = cfg.stack_tx / cfg.service_cores +
                              cfg.kernel_touch.time_for(seg);
    const sim::Time tx_done = stack.tx_path_.reserve(tx_busy) + cfg.stack_tx;
    stack.segments_tx_++;
    stack.bytes_tx_ += seg;

    // Wire occupancy on the shared fabric, then receive-side kernel path.
    fabric::Path path = stack.network_->path(stack.host_->node(),
                                             peer_stack.host_->node());
    const sim::Time wire_done =
        path.reserve(tx_done + cfg.nic_overhead, seg + 78);  // IPoIB hdrs
    const sim::Time rx_busy = cfg.stack_rx / cfg.service_cores +
                              cfg.kernel_touch.time_for(seg);
    const sim::Time rx_done =
        peer_stack.rx_path_.reserve_at(wire_done, rx_busy) + cfg.stack_rx;

    // Deliver the bytes into the peer's receive queue at rx_done.
    std::vector<std::byte> payload(data.begin() + offset,
                                   data.begin() + offset + seg);
    engine.call_at(rx_done, [this, payload = std::move(payload)]() mutable {
      Socket* p = peer_;
      for (std::byte b : payload) p->rx_.push_back(b);
      // The window opens when the receiver *consumes* (TCP rwnd
      // semantics), not when bytes arrive — see Socket::recv.
      p->rx_signal_.trigger();
      if (p->on_data_) p->on_data_();
    });
    offset += seg;
  }
  co_return 0;
}

sim::Task<std::size_t> Socket::recv(os::Core& core, std::span<std::byte> out) {
  SocketStack& stack = *local_stack_;
  const SocketConfig& cfg = stack.cfg_;
  // recv()/epoll syscall entry.
  co_await core.work(core.syscall_cost(), os::Work::kKernel);
  if (rx_.empty()) {
    // Sleep until data arrives; pay the interrupt + wakeup on arrival.
    co_await rx_signal_.wait();
    co_await core.work(core.model().interrupt_handling +
                           core.model().wakeup_latency,
                       os::Work::kKernel);
  }
  const std::size_t n = std::min(out.size(), rx_.size());
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = rx_.front();
    rx_.pop_front();
  }
  // Consuming opens the peer's send window (TCP flow control).
  peer_->inflight_ -= std::min<std::uint64_t>(peer_->inflight_, n);
  peer_->window_signal_.trigger();
  // kernel->user copy of the harvested bytes.
  co_await core.work(core.memcpy_time(n), os::Work::kKernel);
  co_return n;
}

sim::Task<> Socket::recv_exact(os::Core& core, std::span<std::byte> out) {
  std::size_t got = 0;
  while (got < out.size()) {
    got += co_await recv(core, out.subspan(got));
  }
}

}  // namespace cord::sock
