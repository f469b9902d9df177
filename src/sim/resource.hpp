// Resource: a FIFO server with a fixed service rate — the building block
// for every contended stage in the system (wire direction, PCIe DMA
// engine, NIC WQE processing pipeline, kernel softirq core).
//
// use(busy) reserves the next `busy` picoseconds of the server and
// suspends the caller until that slot ends, i.e. completion time is
//   start = max(now, next_free); finish = start + busy.
// This models serialization/bandwidth contention without per-packet
// events.
#pragma once

#include <algorithm>
#include <coroutine>

#include "sim/engine.hpp"
#include "sim/units.hpp"

namespace cord::sim {

class Resource {
 public:
  explicit Resource(Engine& engine) : engine_(&engine) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Occupy the server for `busy` time; resumes when the reserved slot ends.
  [[nodiscard]] auto use(Time busy) {
    struct Awaiter {
      Resource& res;
      Time busy;
      Time finish = 0;
      bool await_ready() {
        // Read the clock once: Time aliases Time, so after the stores
        // below the compiler would otherwise have to reload now_.
        const Time now = res.engine_->now();
        Time start = std::max(now, res.next_free_);
        finish = start + busy;
        res.next_free_ = finish;
        res.busy_total_ += busy;
        return finish <= now;
      }
      bool await_suspend(std::coroutine_handle<> h) {
        return res.engine_->suspend_until(finish, h);
      }
      /// Returns the completion time of this slot.
      Time await_resume() const { return finish; }
    };
    return Awaiter{*this, busy};
  }

  /// Reserve a slot without suspending; returns its completion time.
  /// Useful when the caller only needs the finish timestamp (e.g. posted
  /// MMIO writes that do not stall the CPU).
  Time reserve(Time busy) { return reserve_at(engine_->now(), busy); }

  /// Reserve a slot that cannot start before `earliest` (which may lie in
  /// the future). This is how pipelined stages chain: stage N+1 of a chunk
  /// is reserved to start when stage N of that chunk finishes, while other
  /// chunks fill the gaps in FIFO order.
  Time reserve_at(Time earliest, Time busy) {
    Time start = std::max({engine_->now(), earliest, next_free_});
    next_free_ = start + busy;
    busy_total_ += busy;
    return next_free_;
  }

  /// Earliest time a new request could start service.
  Time next_free() const { return std::max(engine_->now(), next_free_); }
  /// Cumulative busy time (for utilization reports).
  Time busy_total() const { return busy_total_; }

 private:
  Engine* engine_;
  Time next_free_ = 0;
  Time busy_total_ = 0;
};

}  // namespace cord::sim
