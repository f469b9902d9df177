// Slab-backed object storage for simulator object tables.
//
// The frame arena (sim/frame_arena) already gives every coroutine frame
// size-classed storage carved from 64 KiB slabs. This header extends the
// same discipline to plain objects: `make_slab<T>()` placement-constructs
// T in an arena block and returns a unique_ptr whose deleter returns the
// block to the arena freelist. Tables that used to hold
// `std::unique_ptr<T>` (one malloc per QP/CQ/SRQ/MR) switch to
// `SlabPtr<T>` with no other code change, and objects created together
// land adjacent in the same slab — which is what makes a burst drain walk
// contiguous memory instead of malloc's scattered chunks. Blocks never
// outlive their slab: the arena keeps every slab until process exit.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "sim/frame_arena.hpp"

namespace cord::sim {

/// Deleter returning the object's storage to the frame-arena slabs.
template <typename T>
struct SlabDeleter {
  void operator()(T* p) const noexcept {
    p->~T();
    detail::frame_free(p, sizeof(T));
  }
};

/// unique_ptr whose pointee lives in a slab block instead of on the heap.
template <typename T>
using SlabPtr = std::unique_ptr<T, SlabDeleter<T>>;

/// Placement-construct T in a slab block (the SlabPtr owns it).
template <typename T, typename... Args>
SlabPtr<T> make_slab(Args&&... args) {
  void* mem = detail::frame_alloc(sizeof(T));
  try {
    return SlabPtr<T>(::new (mem) T(std::forward<Args>(args)...));
  } catch (...) {
    detail::frame_free(mem, sizeof(T));
    throw;
  }
}

}  // namespace cord::sim
