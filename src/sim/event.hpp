// Coordination primitives between simulated activities.
//
// Latch  — one-shot: waiters before trigger() suspend; waiters after pass
//          straight through. Used for "this operation completed" signals.
// Signal — repeating: each trigger() releases the waiters present at that
//          moment. Used for doorbells, interrupts, and queue notifications.
#pragma once

#include <coroutine>
#include <vector>

#include "sim/engine.hpp"

namespace cord::sim {

class Latch {
 public:
  explicit Latch(Engine& engine) : engine_(&engine) {}
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void trigger() {
    if (triggered_) return;
    triggered_ = true;
    release_all();
  }

  auto wait() {
    struct Awaiter {
      Latch& latch;
      bool await_ready() const { return latch.triggered_; }
      void await_suspend(std::coroutine_handle<> h) { latch.waiters_.push_back(h); }
      void await_resume() const {}
    };
    return Awaiter{*this};
  }

 private:
  void release_all() {
    // Resumption goes through the engine queue so trigger() is safe to call
    // from any context (no reentrant resume of the triggering coroutine).
    for (auto h : waiters_) engine_->schedule_at(engine_->now(), h);
    waiters_.clear();
  }

  Engine* engine_;
  std::vector<std::coroutine_handle<>> waiters_;
  bool triggered_ = false;
};

class Signal {
 public:
  explicit Signal(Engine& engine) : engine_(&engine) {}
  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  /// Release every coroutine currently waiting.
  void trigger() {
    for (auto h : waiters_) engine_->schedule_at(engine_->now(), h);
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Signal& signal;
      bool await_ready() const { return false; }
      void await_suspend(std::coroutine_handle<> h) { signal.waiters_.push_back(h); }
      void await_resume() const {}
    };
    return Awaiter{*this};
  }

 private:
  Engine* engine_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace cord::sim
