// Stream sockets over the simulated fabric — the IPoIB baseline.
//
// IPoIB offers the full socket API over the InfiniBand NIC: the kernel
// network stack is on the data path (copies, per-segment processing,
// softirq demux, interrupt-driven receive). The paper uses it as the
// "functionally equivalent competitor to CoRD": full OS control, socket
// semantics, same NIC — but with all the costs CoRD avoids.
//
// Cost model per message:
//   sender:   send() syscall + user->kernel copy + per-segment stack cost,
//             serialized through the host's kernel TX path (softirq core),
//             then wire occupancy on the same fabric RDMA uses;
//   receiver: per-segment softirq processing serialized through the RX
//             path + kernel->user copy + (when sleeping) IRQ + wakeup.
//
// The per-host TX/RX kernel paths are FIFO resources: they cap aggregate
// IPoIB throughput per node (a saturated softirq core), which is what
// makes data-intensive NPB runs up to ~2x slower on IPoIB (Fig. 6).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "os/kernel.hpp"
#include "sim/event.hpp"
#include "sim/resource.hpp"

namespace cord::sock {

struct SocketConfig {
  /// IPoIB connected-mode MTU (payload per segment).
  std::uint32_t mss = 65480;
  /// Kernel stack latency per segment on the transmit side (qdisc, IPoIB
  /// encapsulation, TX completion handling). Latency, not occupancy: the
  /// shared path only holds stack_tx / service_cores per segment.
  sim::Time stack_tx = sim::us(2) + sim::ns(500);
  /// Kernel stack latency per segment on the receive side (softirq, demux).
  sim::Time stack_rx = sim::us(3);
  /// Multiqueue IPoIB spreads per-segment stack work across this many
  /// service cores: the pipeline latency stays per-segment, the shared
  /// occupancy divides.
  int service_cores = 16;
  /// Data touching in the kernel path (copy + checksum; IPoIB has no
  /// checksum offload) — this is what caps per-node aggregate throughput.
  /// Modern multiqueue IPoIB spreads softirq work over several service
  /// cores; ~24 GB/s of shared data touching puts the per-node ceiling at
  /// ~150 Gbit/s for MTU-sized segments while small segments stay
  /// per-segment-cost bound (the "message intensive" penalty of Fig. 6).
  sim::Bandwidth kernel_touch = sim::Bandwidth::gbyte_per_sec(12.0);
  /// Socket buffer: sender blocks when this many bytes are in flight.
  std::uint32_t sndbuf = 1 << 20;
  /// Extra latency of the IPoIB UD/CM path through the NIC per segment.
  sim::Time nic_overhead = sim::ns(700);
};

class SocketStack;

/// One endpoint of an established connection.
class Socket {
 public:
  Socket(sim::Engine& engine) : rx_signal_(engine), window_signal_(engine) {}

  /// Send the whole span; blocks (virtual time) on socket-buffer
  /// backpressure. Returns 0 or a negative errno.
  sim::Task<int> send(os::Core& core, std::span<const std::byte> data);

  /// Receive up to out.size() bytes; blocks until at least one byte is
  /// available. Returns the byte count.
  sim::Task<std::size_t> recv(os::Core& core, std::span<std::byte> out);

  /// Receive exactly out.size() bytes (loops over recv).
  sim::Task<> recv_exact(os::Core& core, std::span<std::byte> out);

  std::size_t available() const { return rx_bytes_; }

  /// Epoll-style readiness callback: invoked whenever bytes are delivered
  /// into this socket's receive queue.
  void set_data_listener(std::function<void()> fn) { on_data_ = std::move(fn); }

 private:
  friend class SocketStack;

  std::function<void()> on_data_;

  SocketStack* local_stack_ = nullptr;
  Socket* peer_ = nullptr;

  /// One delivered segment, consumed from `off`.
  struct Segment {
    std::vector<std::byte> bytes;
    std::size_t off = 0;
  };
  std::deque<Segment> rx_;          // received, not yet consumed
  std::size_t rx_bytes_ = 0;        // unconsumed bytes across rx_
  sim::Signal rx_signal_;
  std::uint64_t inflight_ = 0;      // bytes sent but not yet delivered
  sim::Signal window_signal_;
};

/// Per-host socket machinery: owns the kernel TX/RX path resources.
class SocketStack {
 public:
  SocketStack(os::Host& host, fabric::Network& network, SocketConfig cfg = {})
      : host_(&host),
        network_(&network),
        cfg_(cfg),
        tx_path_(host.engine()),
        rx_path_(host.engine()) {}

  os::Host& host() { return *host_; }
  const SocketConfig& config() const { return cfg_; }

  /// Create a connected socket pair between two stacks (the
  /// listen/connect/accept dance collapsed — connection setup is not on
  /// the critical path of any experiment).
  static std::pair<Socket*, Socket*> connect(SocketStack& a, SocketStack& b);

  std::uint64_t segments_tx() const { return segments_tx_; }
  std::uint64_t bytes_tx() const { return bytes_tx_; }

 private:
  friend class Socket;

  sim::Engine& engine() { return host_->engine(); }

  std::vector<std::unique_ptr<Socket>> sockets_;
  os::Host* host_;
  fabric::Network* network_;
  SocketConfig cfg_;
  sim::Resource tx_path_;  // kernel transmit path (softirq core)
  sim::Resource rx_path_;  // kernel receive path
  std::uint64_t segments_tx_ = 0;
  std::uint64_t bytes_tx_ = 0;
};

}  // namespace cord::sock
