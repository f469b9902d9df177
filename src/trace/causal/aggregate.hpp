// Bounded-memory aggregation over causal waterfalls.
//
// The Aggregator ingests raw trace records, finalizes each span once its
// sender-side completion appears, and folds the resulting waterfall into:
//   * global + per-stage log-histograms (fixed 65-bucket memory each),
//   * per-tenant log-histograms,
//   * a top-K slowest-span reservoir retaining *full* waterfalls for the
//     tail (the p99.9 question "which stage was it stuck in?" needs the
//     breakdown, not just the number),
//   * a running CriticalPath (per-stage totals + binding counts),
//   * a tail-latency watchdog: a per-tenant pX-vs-SLO check as each span
//     is observed (in content order, which leads with the post time),
//     recording the causally-blamed (binding) stage of every violating
//     span.
//
// Every in-tree view (each kernel's proc surfaces, System::analyze_causal,
// cord-inspect) is one ingest call over the whole trace. perfbench feeds
// time-sorted slices instead, which is exact for RC only: a UD datagram's
// receive completion is recorded after its sender's completion, so a
// slice boundary between the two leaves the late record an orphan chain.
//
// Memory is bounded everywhere: histograms are fixed arrays, the
// reservoir holds K waterfalls, watchdog events are capped (a counter
// keeps the true total), and the chains still incomplete after a call
// are capped with deterministic eviction.
//
// Determinism: spans completed within one ingest call are observed in
// content order (waterfall_before), so a whole-trace ingest produces
// identical aggregate state — and identical reports — whatever order the
// records were emitted in.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "trace/causal/causal.hpp"

namespace cord::trace::causal {

/// A tenant's tail-latency SLO: fire once the tenant's observed
/// `percentile` of end-to-end latency exceeds `budget` (and the
/// triggering span itself is over budget, so one outlier cannot fire the
/// watchdog while the pX is still healthy).
struct SloConfig {
  double percentile = 99.0;
  sim::Time budget = 0;  ///< picoseconds; 0 disables the check
};

/// One watchdog firing, recorded at the violating span's completion time
/// (virtual time) with the causally-blamed stage.
struct WatchdogEvent {
  sim::Time at = 0;  ///< virtual time of the violating span's completion
  std::uint32_t tenant = 0;
  std::uint32_t qpn = 0;
  sim::Time e2e = 0;         ///< the violating span's end-to-end latency
  double observed_px = 0.0;  ///< the tenant's pX at firing time (ps)
  Stage blamed = Stage::kUserPost;  ///< binding stage of the span
};

class Aggregator {
 public:
  static constexpr std::size_t kTopK = 16;
  static constexpr std::size_t kMaxWatchdogEvents = 64;
  static constexpr std::size_t kMaxPendingSpans = 1u << 16;

  /// Arm the watchdog for one tenant.
  void set_slo(std::uint32_t tenant, SloConfig cfg) { slos_[tenant] = cfg; }

  /// Feed records (any subset of a stream, in stream order across calls).
  /// Spans are staged until their sender completion arrives, then built
  /// and observed; a later record of a span an earlier call finalized
  /// starts an orphan chain (see the file comment on slices). The pending
  /// bound applies once the call's chains are finalized, so one call
  /// never evicts a span it completes.
  /// With `origin`, only spans posted on that node (Waterfall::src_node)
  /// are observed; the others are dropped once complete.
  void ingest(std::span<const Record> records,
              std::optional<std::uint8_t> origin = std::nullopt);
  /// Fold one already-built waterfall into the aggregates.
  void observe(const Waterfall& w);

  std::uint64_t spans() const { return critical_.spans; }
  const CriticalPath& critical() const { return critical_; }
  const sim::LogHistogram& e2e() const { return e2e_; }
  const sim::LogHistogram& stage(Stage s) const {
    return stage_[static_cast<std::size_t>(s)];
  }
  /// Per-tenant e2e histogram; nullptr if the tenant has no spans.
  const sim::LogHistogram* tenant_e2e(std::uint32_t tenant) const;
  /// Tenants with at least one completed span, ascending.
  std::vector<std::uint32_t> tenants() const;
  /// Slowest-first reservoir of full waterfalls (<= kTopK entries).
  const std::vector<Waterfall>& slowest() const { return top_; }

  const std::vector<WatchdogEvent>& watchdog_events() const { return events_; }
  /// Total violations, including those beyond the retained-event cap.
  std::uint64_t watchdog_violations() const { return violations_; }
  std::uint64_t watchdog_violations(std::uint32_t tenant) const;
  bool watchdog_armed() const { return !slos_.empty(); }

  /// Spans staged but not yet completed (and how many were evicted).
  std::size_t pending_spans() const { return pending_.size(); }
  std::uint64_t pending_evicted() const { return pending_evicted_; }

  // --- text reports (proc_read / cord-inspect surfaces) -----------------
  /// Global e2e percentiles + per-stage share/queue table (+ watchdog
  /// line when armed).
  std::string latency_report() const;
  /// One tenant's percentiles, stage table and violations. Empty string
  /// for tenants with no completed spans (proc_read convention).
  std::string tenant_report(std::uint32_t tenant) const;
  /// critical_path_report over everything observed, plus the slowest-span
  /// waterfalls.
  std::string critpath_report() const;

 private:
  struct TenantStats {
    sim::LogHistogram e2e;
    std::array<sim::LogHistogram, kStageCount> stage{};
    std::uint64_t violations = 0;
  };

  const SloConfig* slo_for(std::uint32_t tenant) const;

  sim::LogHistogram e2e_;
  std::array<sim::LogHistogram, kStageCount> stage_{};
  // std::map throughout: deterministic iteration for reports, stable
  // addresses for returned pointers.
  std::map<std::uint32_t, TenantStats> tenants_;
  CriticalPath critical_;
  std::vector<Waterfall> top_;  ///< sorted slowest-first, size <= kTopK

  std::map<std::uint32_t, SloConfig> slos_;
  std::vector<WatchdogEvent> events_;
  std::uint64_t violations_ = 0;

  /// Staging: span id -> records seen so far (completed spans are built,
  /// observed and erased at the end of each ingest call).
  std::map<std::uint32_t, std::vector<Record>> pending_;
  std::uint64_t pending_evicted_ = 0;
};

}  // namespace cord::trace::causal
