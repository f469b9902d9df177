// MTU segmentation, shared by the NIC's transmit chain (schedule_chain)
// and its traced DMA durations (dma_fetch_time).
//
// A message of `bytes` payload is cut into MTU-sized chunks; a
// zero-length message (doorbell-only send, pure-immediate write) still
// occupies exactly one header-only chunk on the wire. Both facts are the
// segmentation contract, so they live here once, where the chunk-count
// arithmetic and the iteration can't drift apart.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

namespace cord::nic {

/// Number of wire chunks for a payload of `bytes` at MTU `mtu`.
/// Zero-length messages count as one (header-only) chunk.
constexpr std::uint64_t chunk_count(std::uint64_t bytes, std::uint32_t mtu) {
  return bytes == 0 ? 1 : (bytes + mtu - 1) / mtu;
}

/// Invoke `fn(chunk_bytes)` once per MTU chunk, in wire order. The final
/// chunk carries the remainder (or 0 for a zero-length message).
template <typename Fn>
void for_each_chunk(std::uint64_t bytes, std::uint32_t mtu, Fn&& fn) {
  std::uint64_t left = bytes;
  do {
    const auto chunk =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(left, mtu));
    fn(chunk);
    left -= chunk;
  } while (left > 0);
}

}  // namespace cord::nic
