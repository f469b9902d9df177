// Shared fixtures for tests above the NIC layer: a two-host system wired
// back-to-back (a miniature "system L") plus helpers to run coroutines to
// completion and to establish connected RC queue pairs through the verbs
// API.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "os/kernel.hpp"
#include "verbs/verbs.hpp"

namespace cord::testing {

/// Run a value-returning task on the engine until the queue drains.
template <typename T>
T run_task(sim::Engine& engine, sim::Task<T> task) {
  std::optional<T> result;
  engine.spawn([](sim::Task<T> t, std::optional<T>& out) -> sim::Task<> {
    out = co_await std::move(t);
  }(std::move(task), result));
  engine.run();
  EXPECT_TRUE(result.has_value()) << "task did not complete";
  return std::move(*result);
}

inline void run_task(sim::Engine& engine, sim::Task<> task) {
  bool done = false;
  engine.spawn([](sim::Task<> t, bool& done) -> sim::Task<> {
    co_await std::move(t);
    done = true;
  }(std::move(task), done));
  engine.run();
  EXPECT_TRUE(done) << "task did not complete";
}

struct TwoHostFixture {
  sim::Engine engine;
  fabric::Network network;
  nic::NicRegistry registry;
  std::unique_ptr<os::Host> host0;
  std::unique_ptr<os::Host> host1;

  explicit TwoHostFixture(os::CpuModel cpu = {}, nic::NicConfig nic_cfg = {},
                          double wire_gbps = 100.0)
      : network(engine, 2, sim::Bandwidth::gbit_per_sec(wire_gbps),
                sim::ns(150)) {
    host0 = std::make_unique<os::Host>(engine, network, registry, 0, nic_cfg,
                                       cpu);
    host1 = std::make_unique<os::Host>(engine, network, registry, 1, nic_cfg,
                                       cpu);
  }
};

/// A connected RC endpoint pair created through two verbs contexts.
struct RcEndpoints {
  nic::ProtectionDomainId pd0 = 0, pd1 = 0;
  nic::CompletionQueue* scq0 = nullptr;
  nic::CompletionQueue* rcq0 = nullptr;
  nic::CompletionQueue* scq1 = nullptr;
  nic::CompletionQueue* rcq1 = nullptr;
  nic::QueuePair* qp0 = nullptr;
  nic::QueuePair* qp1 = nullptr;
};

inline sim::Task<RcEndpoints> connect_rc(verbs::Context& c0, verbs::Context& c1,
                                         std::uint32_t max_inline = 220) {
  RcEndpoints e;
  e.pd0 = co_await c0.alloc_pd();
  e.pd1 = co_await c1.alloc_pd();
  e.scq0 = co_await c0.create_cq(1024);
  e.rcq0 = co_await c0.create_cq(1024);
  e.scq1 = co_await c1.create_cq(1024);
  e.rcq1 = co_await c1.create_cq(1024);
  e.qp0 = co_await c0.create_qp(nic::QpConfig{nic::QpType::kRC, e.pd0, e.scq0,
                                              e.rcq0, 256, 1024, max_inline});
  e.qp1 = co_await c1.create_qp(nic::QpConfig{nic::QpType::kRC, e.pd1, e.scq1,
                                              e.rcq1, 256, 1024, max_inline});
  int rc = co_await c0.connect_qp(*e.qp0, {c1.node(), e.qp1->qpn()});
  if (rc != 0) throw std::runtime_error("connect_qp(0) failed");
  rc = co_await c1.connect_qp(*e.qp1, {c0.node(), e.qp0->qpn()});
  if (rc != 0) throw std::runtime_error("connect_qp(1) failed");
  co_return e;
}

inline std::uintptr_t uptr(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

}  // namespace cord::testing
