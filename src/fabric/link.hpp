// Fabric between NICs: a direct wire between every pair of hosts and a
// loopback per host.
//
// Each direction of a wire is an independent FIFO Resource at the wire
// bandwidth plus a fixed propagation delay. The paper's two evaluation
// systems are back-to-back two-node setups (a single link plus per-NIC
// loopback paths); larger systems wire every host pair directly, so every
// path is exactly one hop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <stdexcept>

#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/units.hpp"

namespace cord::fabric {

using NodeId = std::uint32_t;

/// Traffic from a node to itself still traverses the NIC, bounded by PCIe.
inline constexpr sim::Bandwidth kLoopbackBandwidth =
    sim::Bandwidth::gbit_per_sec(200.0);
inline constexpr sim::Time kLoopbackDelay = sim::ns(150);

/// The directed one-hop path from a source host to a destination host: a
/// direction of a direct wire, or a node's loopback.
struct Path {
  sim::Resource* tx = nullptr;
  sim::Bandwidth bandwidth;
  sim::Time propagation = 0;

  /// Reserve the wire for one chunk that is ready to enter it at `ready`;
  /// returns when the chunk has fully arrived at the destination node.
  sim::Time reserve(sim::Time ready, std::uint64_t wire_bytes) const {
    return tx->reserve_at(ready, bandwidth.time_for(wire_bytes)) + propagation;
  }
};

/// Nodes 0..nodes-1, each pair joined by a wire of the given bandwidth and
/// propagation delay.
class Network {
 public:
  Network(sim::Engine& engine, std::size_t nodes, sim::Bandwidth wire_bandwidth,
          sim::Time wire_propagation)
      : nodes_(nodes), bandwidth_(wire_bandwidth), propagation_(wire_propagation) {
    for (std::size_t i = 0; i < nodes * nodes; ++i) tx_.emplace_back(engine);
  }

  /// The directed path from `src` to `dst`: the node's loopback when they
  /// are equal, else that direction of the wire between them. Throws
  /// std::invalid_argument for an unknown node.
  Path path(NodeId src, NodeId dst) {
    if (src >= nodes_ || dst >= nodes_) {
      throw std::invalid_argument("unknown node");
    }
    sim::Resource* tx = &tx_[src * nodes_ + dst];
    if (src == dst) return Path{tx, kLoopbackBandwidth, kLoopbackDelay};
    return Path{tx, bandwidth_, propagation_};
  }

 private:
  std::size_t nodes_;
  sim::Bandwidth bandwidth_;
  sim::Time propagation_;
  /// One Resource per ordered (src, dst) pair, row-major; the diagonal is
  /// each node's loopback. A deque, since a Resource cannot move.
  std::deque<sim::Resource> tx_;
};

}  // namespace cord::fabric
