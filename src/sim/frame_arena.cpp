#include "sim/frame_arena.hpp"

#include <memory>
#include <new>
#include <vector>

namespace cord::sim::detail {
namespace {

// Size classes: 64-byte steps up to 2 KiB. Frames beyond that (deeply
// captured coroutines) fall through to the global allocator — they are
// rare and not worth fragmenting slabs for.
constexpr std::size_t kGranule = 64;
constexpr std::size_t kMaxBlock = 2048;
constexpr std::size_t kClasses = kMaxBlock / kGranule;  // 32
constexpr std::size_t kSlabBytes = 64 * 1024;  // below glibc's mmap threshold

constexpr std::size_t class_of(std::size_t n) {
  return (n + kGranule - 1) / kGranule - 1;
}
constexpr std::size_t class_bytes(std::size_t c) { return (c + 1) * kGranule; }

struct FreeBlock {
  FreeBlock* next;
};

struct Arena {
  FreeBlock* free_[kClasses] = {};
  std::byte* bump = nullptr;
  std::byte* bump_end = nullptr;
  /// Every slab, kept until exit: a block on a freelist may come from any
  /// of them, and owning them here keeps them reachable for leak checkers.
  std::vector<std::unique_ptr<std::byte[]>> slabs;
  FrameArenaStats stats;

  void* carve(std::size_t c) {
    const std::size_t bytes = class_bytes(c);
    if (static_cast<std::size_t>(bump_end - bump) < bytes) {
      slabs.push_back(std::make_unique<std::byte[]>(kSlabBytes));
      bump = slabs.back().get();
      bump_end = bump + kSlabBytes;
      stats.slab_bytes += kSlabBytes;
    }
    void* p = bump;
    bump += bytes;
    ++stats.slab_carves;
    return p;
  }
};

Arena& arena() {
  static Arena* a = new Arena;  // immortal: frames may outlive statics
  return *a;
}

}  // namespace

void* frame_alloc(std::size_t n) {
  Arena& a = arena();
  ++a.stats.allocs;
  if (n > kMaxBlock) [[unlikely]] {
    ++a.stats.fallback_allocs;
    return ::operator new(n);
  }
  const std::size_t c = class_of(n);
  if (FreeBlock* b = a.free_[c]) {
    a.free_[c] = b->next;
    return b;
  }
  return a.carve(c);
}

void frame_free(void* p, std::size_t n) noexcept {
  if (n > kMaxBlock) [[unlikely]] {
    ::operator delete(p);
    return;
  }
  Arena& a = arena();
  const std::size_t c = class_of(n);
  auto* b = static_cast<FreeBlock*>(p);
  b->next = a.free_[c];
  a.free_[c] = b;
}

FrameArenaStats frame_arena_stats() { return arena().stats; }

}  // namespace cord::sim::detail
