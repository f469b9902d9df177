// Joinable: run a task concurrently and join it later, propagating any
// exception to the joiner. The structured-concurrency companion to
// Engine::spawn (which detaches).
#pragma once

#include <exception>
#include <utility>

#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/task.hpp"

namespace cord::sim {

class Joinable {
 public:
  Joinable(Engine& engine, Task<> task) : done_(engine) {
    engine.spawn(wrap(std::move(task)));
  }
  Joinable(const Joinable&) = delete;
  Joinable& operator=(const Joinable&) = delete;

  /// Wait for the task to finish; rethrows its exception, if any.
  Task<> join() {
    co_await done_.wait();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  Task<> wrap(Task<> task) {
    try {
      co_await std::move(task);
    } catch (...) {
      error_ = std::current_exception();
    }
    done_.trigger();
  }

  Latch done_;
  std::exception_ptr error_;
};

}  // namespace cord::sim
