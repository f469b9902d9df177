// Reproduction of the perftest 4.5 microbenchmarks used in the paper's
// evaluation: ping-pong latency tests (send_lat / write_lat / read_lat)
// and windowed bandwidth tests (send_bw / write_bw / read_bw) over RC and
// UD transports.
//
// The `Knobs` structure implements §2's "technique removal" experiment:
//   extra_copy     — "remove zero-copy":   an extra memcpy on each side;
//   extra_syscall  — "remove kernel-bypass": a getppid-like syscall per
//                    posted message;
//   interrupt_wait — "remove polling":     completions via armed-CQ
//                    interrupts instead of busy polling.
//
// All tests run on a freshly assembled core::System per invocation, so
// sweep points are independent and deterministic.
#pragma once

#include "core/system.hpp"
#include "sim/stats.hpp"
#include "trace/trace.hpp"

namespace cord::perftest {

enum class TestOp { kSend, kWrite, kRead };
enum class Transport { kRC, kUD };

struct Knobs {
  bool extra_copy = false;
  bool extra_syscall = false;
  bool interrupt_wait = false;
};

struct Params {
  TestOp op = TestOp::kSend;
  Transport transport = Transport::kRC;
  std::size_t msg_size = 4096;
  int iterations = 600;
  int warmup = 60;
  /// Send-window depth for bandwidth tests (perftest --tx-depth).
  std::uint32_t tx_depth = 128;
  /// Use inline sends when the message fits (perftest does by default).
  bool allow_inline = true;
  /// CoRD submission-ring depth (perftest --tx-batch): back-to-back posts
  /// gathered per QP before one batched kernel crossing flushes them.
  /// 1 (the default) is the classic one-syscall-per-op path. Applied to
  /// both sides' contexts when > 1; ignored in bypass mode. See
  /// verbs::ContextOptions::tx_batch.
  std::uint32_t tx_batch = 1;
  verbs::ContextOptions client{};
  verbs::ContextOptions server{};
  Knobs knobs{};
  /// Arm the system tracer for the run and return the captured records in
  /// the result (off by default: tracing must never tax a benchmark run).
  bool capture_trace = false;
};

struct LatencyResult {
  /// Per-iteration latency in microseconds. Convention follows perftest:
  /// RTT/2 for send and write ping-pongs, full completion time for reads.
  sim::Samples latency_us;
  double avg_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// Captured trace (empty unless Params::capture_trace).
  std::vector<trace::Record> trace;
  std::uint64_t trace_dropped = 0;
  /// Events the run scheduled into the past (clamped to now()) — nonzero
  /// means a model bug and suspect numbers (surface it, don't bury it).
  std::uint64_t clamped_events = 0;
};

struct BandwidthResult {
  double gbps = 0.0;
  double mmsg_per_sec = 0.0;
  std::uint64_t messages = 0;
  sim::Time elapsed = 0;
  /// Captured trace (empty unless Params::capture_trace).
  std::vector<trace::Record> trace;
  std::uint64_t trace_dropped = 0;
  std::uint64_t clamped_events = 0;
};

/// Run a ping-pong latency test on a fresh instance of `cfg`.
LatencyResult run_latency(const core::SystemConfig& cfg, const Params& p);

/// Run a windowed bandwidth test on a fresh instance of `cfg`.
BandwidthResult run_bandwidth(const core::SystemConfig& cfg, const Params& p);

}  // namespace cord::perftest
