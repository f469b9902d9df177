// MetricsRegistry — named counters, callback gauges, and log-bucketed
// histograms with optional per-tenant labels.
//
// This is the kernel-side metrics surface of the repro: the simulated
// kernel (and any policy) registers metrics here, and observers read them
// through `Kernel::proc_read` without touching the application — the
// paper's observability claim made concrete. Each fact has one registry:
// a Kernel's holds its host's kernel.*, nic.icm.* and policy metrics, and
// core::System::metrics() holds the one engine's engine.* and sim.*
// gauges, the nic.* doorbell/burst/segment sums over hosts and the
// causal.* views.
//
// Registration is a map lookup (cold path); updates go through retained
// pointers (hot path: one increment). Entries live in a std::map, so
// addresses are stable for the registry's lifetime and dumps iterate in a
// deterministic sorted order.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hpp"

namespace cord::trace {

/// Label value meaning "not labelled" (metrics global to the host).
inline constexpr std::uint32_t kNoLabel = 0xFFFFFFFFu;

struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t n = 1) { value += n; }
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. References stay valid for the registry's lifetime;
  /// hot paths should retain them instead of re-looking-up by name.
  Counter& counter(std::string_view name, std::uint32_t label = kNoLabel);
  sim::LogHistogram& histogram(std::string_view name,
                               std::uint32_t label = kNoLabel);

  /// A gauge computed at read time (e.g. surfacing a live engine counter
  /// such as Engine::clamped_events without copying it on every event).
  void callback_gauge(std::string_view name, std::function<std::int64_t()> fn,
                      std::uint32_t label = kNoLabel);

  /// Read-side lookups (nullptr when absent or of a different kind).
  const Counter* find_counter(std::string_view name,
                              std::uint32_t label = kNoLabel) const;
  const sim::LogHistogram* find_histogram(std::string_view name,
                                          std::uint32_t label = kNoLabel) const;
  /// Current value of a callback gauge (0 when absent).
  std::int64_t gauge_value(std::string_view name,
                           std::uint32_t label = kNoLabel) const;

  /// All labels registered under `name`, sorted ascending (kNoLabel
  /// excluded) — e.g. the set of tenants the kernel has seen.
  std::vector<std::uint32_t> labels(std::string_view name) const;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// /proc-style human-readable dump, one metric per line.
  std::string text() const;

 private:
  /// kCallback is a callback_gauge(), the one gauge kind.
  enum class Kind : std::uint8_t { kCounter, kCallback, kHistogram };

  struct Key {
    std::string name;
    std::uint32_t label;
    bool operator<(const Key& o) const {
      const int c = name.compare(o.name);
      return c != 0 ? c < 0 : label < o.label;
    }
  };

  struct Entry {
    Kind kind = Kind::kCounter;
    Counter counter;
    std::function<std::int64_t()> callback;
    sim::LogHistogram histogram;
  };

  Entry& get_or_create(std::string_view name, std::uint32_t label, Kind kind);
  const Entry* find(std::string_view name, std::uint32_t label,
                    Kind kind) const;

  std::map<Key, Entry> entries_;
};

}  // namespace cord::trace
