// InlineFn: a move-only `void()` callable stored in a fixed inline buffer
// sized for the simulator's hot paths. Every event the NIC schedules
// (`Engine::call_at`) used to heap-allocate a `std::function` control
// block; InlineFn stores captures up to `kCapacity` bytes inline in the
// event-queue slot itself, so simulation performs zero allocations per
// event. A callable that does not fit (or whose move may throw) is a
// compile error, not a silent per-event allocation: simulated results
// depend on malloc addresses through the MPI registration cache.
//
// Unlike `std::function`, InlineFn accepts move-only callables (captures
// holding pooled work-request handles, unique_ptrs, moved-in buffers).
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace cord::sim {

class InlineFn {
 public:
  /// 80 bytes covers every capture list on the NIC data plane (the
  /// largest — the send-arrival delivery continuation — packs to exactly
  /// 80 bytes with pooled work-request handles).
  static constexpr std::size_t kCapacity = 80;

  InlineFn() = default;
  InlineFn(std::nullptr_t) {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_v<std::decay_t<F>&>>>
  InlineFn(F&& f) {  // NOLINT(runtime/explicit)
    emplace(std::forward<F>(f));
  }

  InlineFn(InlineFn&& o) noexcept { move_from(o); }
  InlineFn& operator=(InlineFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() { invoke_(buf_); }

  /// Replace the stored callable, constructing the new one in place (no
  /// intermediate InlineFn move) — the event engine fills pooled slots
  /// through this. When the previous occupant had no destructor/relocator
  /// state (the common case: small trivially-copyable captures), the reset
  /// is skipped entirely; emplace() overwrites invoke_ and only writes the
  /// other fields when the new callable needs them, which is exactly when
  /// they are guaranteed null.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_v<std::decay_t<F>&>>>
  void assign(F&& f) {
    if (!trivial_state()) [[unlikely]] reset();
    emplace(std::forward<F>(f));
  }

  /// Destroy the stored callable (if any) and become empty.
  void clear() noexcept { reset(); }

  /// True when the stored callable (or empty state) carries no
  /// destructor/relocator obligations: destroying it is a no-op and a
  /// subsequent assign() may skip the reset. A stale invoke_ is harmless —
  /// emplace() always overwrites it.
  bool trivial_state() const {
    return destroy_ == nullptr && relocate_ == nullptr;
  }

 private:
  using Invoke = void (*)(void*);
  // Move-construct the callable from `src` into `dst`, destroying `src`.
  // nullptr means the callable is trivially relocatable (memcpy suffices).
  using Relocate = void (*)(void* dst, void* src) noexcept;
  // nullptr means trivially destructible.
  using Destroy = void (*)(void*) noexcept;

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    static_assert(sizeof(D) <= kCapacity &&
                      alignof(D) <= alignof(std::max_align_t) &&
                      (std::is_nothrow_move_constructible_v<D> ||
                       std::is_trivially_copyable_v<D>),
                  "callable does not fit InlineFn: shrink its captures "
                  "(or raise kCapacity) and keep its move noexcept");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    invoke_ = [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); };
    if constexpr (!std::is_trivially_copyable_v<D>) {
      relocate_ = [](void* dst, void* src) noexcept {
        D* s = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*s));
        s->~D();
      };
    }
    if constexpr (!std::is_trivially_destructible_v<D>) {
      destroy_ = [](void* p) noexcept {
        std::launder(reinterpret_cast<D*>(p))->~D();
      };
    }
  }

  void move_from(InlineFn& o) noexcept {
    invoke_ = o.invoke_;
    relocate_ = o.relocate_;
    destroy_ = o.destroy_;
    if (o.invoke_ != nullptr) {
      if (o.relocate_ != nullptr) {
        o.relocate_(buf_, o.buf_);
      } else {
        std::memcpy(buf_, o.buf_, kCapacity);
      }
    }
    o.invoke_ = nullptr;
    o.relocate_ = nullptr;
    o.destroy_ = nullptr;
  }

  void reset() noexcept {
    if (destroy_ != nullptr) destroy_(buf_);
    invoke_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

  alignas(std::max_align_t) std::byte buf_[kCapacity];
  Invoke invoke_ = nullptr;
  Relocate relocate_ = nullptr;
  Destroy destroy_ = nullptr;
};

}  // namespace cord::sim
