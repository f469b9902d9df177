// Slab arena for coroutine frames.
//
// Every Task<T> coroutine frame allocates through here (class-scope
// operator new on the task promise), replacing the per-spawn malloc/free
// pair with a size-classed freelist carved out of 64 KiB slabs — the same
// slab discipline the engine uses for InlineFn slots. Spawn-heavy
// workloads (one frame per simulated request) recycle frames at freelist
// cost and never touch the global allocator in steady state.
//
// The simulator runs on one thread, so the arena is one process-wide,
// unsynchronized instance. It is immortal and owns its slabs until exit,
// so a block never outlives its slab and leak checkers see every slab as
// reachable.
#pragma once

#include <cstddef>

namespace cord::sim::detail {

/// Allocate a coroutine-frame block of at least `n` bytes.
void* frame_alloc(std::size_t n);
/// Return a block obtained from frame_alloc (same `n`).
void frame_free(void* p, std::size_t n) noexcept;

/// Introspection for tests: the arena's slab footprint and traffic.
struct FrameArenaStats {
  std::size_t slab_bytes = 0;    ///< bytes reserved in slabs
  std::size_t allocs = 0;        ///< frame_alloc calls
  std::size_t slab_carves = 0;   ///< allocs that had to carve fresh slab space
  std::size_t fallback_allocs = 0;  ///< oversized frames sent to operator new
};
FrameArenaStats frame_arena_stats();

}  // namespace cord::sim::detail
