// Completion queue: a bounded ring of CQEs living in host memory. Polling
// it costs nothing at the device (the paper's "polling" pillar): the CPU
// cost of a poll is charged by the verbs layer. Arming requests a one-shot
// interrupt on the next completion (the `ibv_req_notify_cq` path used when
// polling is disabled).
//
// Storage is a power-of-two ring over a flat vector (real CQs are rings in
// host memory): push/poll are index arithmetic with no per-CQE allocation.
// The ring starts small and doubles up to `capacity` on demand, so huge
// capacities (benches create 2^20-entry CQs) cost nothing until used.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "nic/types.hpp"
#include "sim/engine.hpp"

namespace cord::nic {

class CompletionQueue {
 public:
  CompletionQueue(std::uint32_t cqn, std::uint32_t capacity)
      : cqn_(cqn), capacity_(capacity) {}

  std::uint32_t cqn() const { return cqn_; }
  std::uint32_t capacity() const { return capacity_; }
  bool overflowed() const { return overflowed_; }
  std::size_t depth() const { return count_; }

  /// Device side: append a CQE. Returns false (and latches the overflow
  /// flag) if the ring is full — a fatal condition, as on real hardware.
  bool push(const Cqe& cqe) {
    if (count_ >= capacity_) {
      overflowed_ = true;
      return false;
    }
    if (count_ == ring_.size()) grow();
    ring_[(head_ + count_) & (ring_.size() - 1)] = cqe;
    ++count_;
    if (push_counter_ != nullptr) {
      push_group_->notify();
      ++*push_counter_;
    }
    if (armed_) {
      armed_ = false;
      if (on_event_) on_event_(*this);
    }
    return true;
  }

  /// Host side: harvest up to out.size() completions. Returns the count.
  std::size_t poll(std::span<Cqe> out) {
    std::size_t n = 0;
    const std::size_t mask = ring_.empty() ? 0 : ring_.size() - 1;
    while (n < out.size() && count_ > 0) {
      out[n++] = ring_[head_];
      head_ = (head_ + 1) & mask;
      --count_;
    }
    return n;
  }

  /// Request a one-shot completion event (interrupt) on the next CQE.
  void arm() { armed_ = true; }
  bool armed() const { return armed_; }

  /// Installed by the kernel: invoked when an armed CQ receives a CQE.
  void set_event_handler(std::function<void(CompletionQueue&)> handler) {
    on_event_ = std::move(handler);
  }

  /// Installed by a consumer that parks its empty poll loop beside the
  /// event queue (mpi::Endpoint::progress_until): every pushed CQE notifies
  /// the loop's `group` and bumps `*counter`, which wakes the parked loop.
  /// Independent of arm() and the interrupt path.
  void watch_pushes(std::uint64_t* counter, const sim::PollGroup& group) {
    push_counter_ = counter;
    push_group_ = &group;
  }

 private:
  void grow() {
    const std::size_t old_size = ring_.size();
    std::size_t new_size = old_size == 0 ? 16 : old_size * 2;
    if (new_size > capacity_) {
      // Round the final allocation up to a power of two so index masking
      // keeps working; count_ still enforces `capacity_`.
      new_size = 1;
      while (new_size < capacity_) new_size *= 2;
    }
    std::vector<Cqe> next(new_size);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = ring_[(head_ + i) & (old_size - 1)];
    }
    ring_ = std::move(next);
    head_ = 0;
  }

  std::uint32_t cqn_;
  std::uint32_t capacity_;
  std::vector<Cqe> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  bool armed_ = false;
  bool overflowed_ = false;
  std::uint64_t* push_counter_ = nullptr;
  const sim::PollGroup* push_group_ = nullptr;
  std::function<void(CompletionQueue&)> on_event_;
};

}  // namespace cord::nic
