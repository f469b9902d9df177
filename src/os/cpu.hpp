// CPU cost model and per-core execution context.
//
// Every CPU-side cost in the system (posting a WQE, crossing into the
// kernel, copying a buffer, spinning on a CQ) is charged through a Core,
// which also runs the DVFS/Turbo model: sustained busy-polling raises the
// core's power draw and pushes the sustained frequency towards base,
// while kernel time and genuine compute let Turbo engage. This is the
// mechanism behind the paper's observation that "system calls interact
// with DVFS" (CoRD slightly outperforming bypass on large-message
// bandwidth with Turbo Boost enabled).
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sim/units.hpp"

namespace cord::os {

// CPU costs no testbed varies, at base frequency: Core charges them like
// every other cost, so the DVFS model scales them.

/// KPTI multiplies the syscall crossing (CR3 switch + TLB effects).
inline constexpr double kKptiMultiplier = 3.0;
/// Kernel IRQ entry + handler on interrupt-driven completion.
inline constexpr sim::Time kInterruptHandling = sim::ns(1500);
/// Waking a sleeping thread (scheduler + context switch).
inline constexpr sim::Time kWakeupLatency = sim::ns(2500);
/// Reading a (cached) completion-queue slot on a poll miss.
inline constexpr sim::Time kPollMiss = sim::ns(25);
/// Harvesting one CQE on a poll hit.
inline constexpr sim::Time kPollHit = sim::ns(40);
/// Building a WQE in the send path.
inline constexpr sim::Time kWqeBuild = sim::ns(45);
/// MMIO doorbell write (CPU side; the write is posted).
inline constexpr sim::Time kDoorbellMmio = sim::ns(70);

struct CpuModel {
  double base_ghz = 3.3;
  double turbo_ghz = 3.7;
  bool turbo_enabled = false;

  /// Single-threaded copy bandwidth. Calibrated from the paper: an extra
  /// copy costs "up to 140 us/MiB", i.e. ~7.5 GB/s.
  sim::Bandwidth memcpy_bandwidth = sim::Bandwidth::gbyte_per_sec(7.5);

  /// User->kernel->user crossing (no KPTI, bare metal).
  sim::Time syscall_crossing = sim::ns(180);
  /// KPTI multiplies the crossing cost by kKptiMultiplier.
  bool kpti = false;
  /// Extra multiplicative cost for virtualized syscalls (system A).
  double virt_overhead = 0.0;
  /// Relative jitter (stddev / mean) on syscall cost; nonzero on system A.
  double syscall_jitter = 0.0;
};

/// What a slice of CPU time was spent on — drives the DVFS model and the
/// per-core time accounting reported by the observability tools.
enum class Work : std::uint8_t { kCompute, kSpin, kKernel };

/// Every charge, accounting read and RNG draw first catches up the loops
/// parked on this core (poll_group()), whose replayed steps charge it too.
class Core {
 public:
  Core(sim::Engine& engine, const CpuModel& model, std::uint64_t rng_seed)
      : engine_(&engine), model_(model), rng_(rng_seed), polls_(engine) {}
  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  const CpuModel& model() const { return model_; }
  sim::Engine& engine() { return *engine_; }
  /// The loops parked on this core: one group, whose steps share its DVFS
  /// state (DESIGN.md §20).
  sim::PollGroup& poll_group() { return polls_; }

  /// Current effective frequency under the DVFS model.
  double frequency_ghz() const {
    polls_.catch_up();
    return frequency();
  }

  /// Scale a base-frequency cost to the current frequency and update the
  /// DVFS residency without suspending (for cost composition).
  sim::Time charge(sim::Time cost_at_base, Work kind) {
    polls_.catch_up();
    const sim::Time scaled = scale(cost_at_base, frequency());
    account(scaled, kind);
    return scaled;
  }
  /// The least charge(cost_at_base, ...) can return: the cost at the
  /// highest frequency the DVFS model reaches.
  sim::Time fastest(sim::Time cost_at_base) const {
    return scale(cost_at_base,
                 model_.turbo_enabled ? model_.turbo_ghz : model_.base_ghz);
  }

  /// Execute `cost_at_base` worth of work of the given kind.
  sim::Task<> work(sim::Time cost_at_base, Work kind) {
    const sim::Time scaled = charge(cost_at_base, kind);
    co_await engine_->delay(scaled);
  }

  /// Block without consuming CPU (sleeping on an event). Resets the spin
  /// residency towards idle.
  sim::Task<> idle(sim::Time duration) {
    polls_.catch_up();
    account(duration, Work::kCompute);  // idle cools the core like compute
    co_await engine_->delay(duration);
  }

  /// One sampled user<->kernel crossing (KPTI/virtualization/jitter aware).
  sim::Time syscall_cost() {
    polls_.catch_up();
    double cost = static_cast<double>(model_.syscall_crossing);
    if (model_.kpti) cost *= kKptiMultiplier;
    cost *= 1.0 + model_.virt_overhead;
    if (model_.syscall_jitter > 0.0) {
      const double factor =
          std::max(0.4, rng_.normal(1.0, model_.syscall_jitter));
      cost *= factor;
    }
    return static_cast<sim::Time>(cost);
  }

  sim::Time memcpy_time(std::uint64_t bytes) const {
    // Small copies are latency-bound (call + cache line touch), not
    // bandwidth-bound: floor at ~40 ns.
    return std::max<sim::Time>(sim::ns(40),
                               model_.memcpy_bandwidth.time_for(bytes));
  }

  /// Convenience: copy `bytes` on this core (the "zero-copy removed" path).
  sim::Task<> do_memcpy(std::uint64_t bytes) {
    co_await work(memcpy_time(bytes), Work::kCompute);
  }

  // Accounting (virtual time spent per work kind).
  sim::Time time_compute() const {
    polls_.catch_up();
    return time_compute_;
  }
  sim::Time time_spin() const {
    polls_.catch_up();
    return time_spin_;
  }
  sim::Time time_kernel() const {
    polls_.catch_up();
    return time_kernel_;
  }
  double spin_load() const {
    polls_.catch_up();
    return spin_load_;
  }

 private:
  double frequency() const {
    if (!model_.turbo_enabled) return model_.base_ghz;
    // Frequency degrades continuously with busy-poll residency: a core
    // that spends most of its window spinning draws its power budget and
    // settles at base clock.
    const double penalty = std::min(1.0, spin_load_ / 0.8);
    return model_.turbo_ghz - (model_.turbo_ghz - model_.base_ghz) * penalty;
  }
  sim::Time scale(sim::Time cost_at_base, double ghz) const {
    return static_cast<sim::Time>(static_cast<double>(cost_at_base) *
                                  model_.base_ghz / ghz);
  }
  void account(sim::Time dur, Work kind) {
    switch (kind) {
      case Work::kCompute: time_compute_ += dur; break;
      case Work::kSpin: time_spin_ += dur; break;
      case Work::kKernel: time_kernel_ += dur; break;
    }
    // Exponentially-weighted spin residency with a ~50 us window: the
    // power/thermal time constant that makes Turbo "sticky".
    constexpr double kTauPs = 50.0 * sim::kMicrosecond;
    const double frac =
        std::min(1.0, static_cast<double>(dur) / kTauPs);
    const double target = kind == Work::kSpin ? 1.0 : 0.0;
    spin_load_ = spin_load_ * (1.0 - frac) + target * frac;
  }

  sim::Engine* engine_;
  CpuModel model_;
  sim::Rng rng_;
  double spin_load_ = 0.0;
  sim::Time time_compute_ = 0;
  sim::Time time_spin_ = 0;
  sim::Time time_kernel_ = 0;
  sim::PollGroup polls_;
};

}  // namespace cord::os
