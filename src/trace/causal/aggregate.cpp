#include "trace/causal/aggregate.hpp"

#include <algorithm>
#include <cstdio>

namespace cord::trace::causal {

namespace {

void appendf(std::string& out, const char* fmt, auto... args) {
  char buf[256];
  const int n = std::snprintf(buf, sizeof buf, fmt, args...);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

double ps_to_us(double ps) { return ps / 1e6; }

/// Slowest-first reservoir order: e2e descending, content order on ties
/// (never span ids — the reservoir depends on content only).
bool slower(const Waterfall& a, const Waterfall& b) {
  if (a.e2e() != b.e2e()) return a.e2e() > b.e2e();
  return waterfall_before(a, b);
}

void append_percentiles(std::string& out, const sim::LogHistogram& h) {
  appendf(out,
          "p50=%.3f p90=%.3f p99=%.3f p99.9=%.3f max=%.3f us (mean %.3f)",
          ps_to_us(h.percentile(50.0)), ps_to_us(h.percentile(90.0)),
          ps_to_us(h.percentile(99.0)), ps_to_us(h.percentile(99.9)),
          static_cast<double>(h.max()) / 1e6, ps_to_us(h.mean()));
}

void append_stage_table(std::string& out, const CriticalPath& cp,
                        const std::array<sim::LogHistogram, kStageCount>* hists) {
  appendf(out, "  %-10s %8s %8s %12s\n", "stage", "share", "queue", "p99(us)");
  for (std::size_t i = 0; i < kStageCount; ++i) {
    if (cp.stage_span[i] == 0) continue;
    const std::string_view name = stage_name(static_cast<Stage>(i));
    const double share = cp.total_e2e > 0
                             ? 100.0 * static_cast<double>(cp.stage_span[i]) /
                                   static_cast<double>(cp.total_e2e)
                             : 0.0;
    const double queue_share =
        cp.stage_span[i] > 0
            ? 100.0 * static_cast<double>(cp.stage_queue[i]) /
                  static_cast<double>(cp.stage_span[i])
            : 0.0;
    const double p99 =
        hists != nullptr ? ps_to_us((*hists)[i].percentile(99.0)) : 0.0;
    appendf(out, "  %-10.*s %7.1f%% %7.1f%% %12.3f\n",
            static_cast<int>(name.size()), name.data(), share, queue_share,
            p99);
  }
}

}  // namespace

void Aggregator::ingest(std::span<const Record> records,
                        std::optional<std::uint8_t> origin) {
  // Stage 1: append every WR-scoped record of the call to its span's
  // pending chain, noting each sender completion as it arrives.
  std::vector<std::uint32_t> completed;
  for (const Record& r : records) {
    if (r.span == 0) continue;
    pending_[r.span].push_back(r);
    if (r.point == Point::kCompletion && r.aux == 0) {
      completed.push_back(r.span);
    }
  }
  // Stage 2: finalize those chains. Completed waterfalls are observed in
  // content order, so one-shot whole-trace ingests do not depend on
  // record emission order.
  std::vector<Waterfall> done;
  for (std::uint32_t span : completed) {
    const auto it = pending_.find(span);
    if (it == pending_.end()) continue;  // a second sender completion
    auto w = build_waterfall(it->second);
    if (w && (!origin || w->src_node == *origin)) done.push_back(*w);
    pending_.erase(it);
  }
  std::sort(done.begin(), done.end(), waterfall_before);
  for (const Waterfall& w : done) observe(w);
  // Stage 3: bound what stays incomplete. Evict the lowest span ids
  // (deterministic; old ids are the spans least likely to still
  // complete), never a chain this call completed.
  while (pending_.size() > kMaxPendingSpans) {
    pending_.erase(pending_.begin());
    ++pending_evicted_;
  }
}

void Aggregator::observe(const Waterfall& w) {
  const std::uint64_t e2e = static_cast<std::uint64_t>(w.e2e());
  e2e_.add(e2e);
  TenantStats& ts = tenants_[w.tenant];
  ts.e2e.add(e2e);
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const std::uint64_t span = static_cast<std::uint64_t>(w.stages[i].span);
    stage_[i].add(span);
    ts.stage[i].add(span);
  }
  critical_.add(w);
  // Top-K slowest reservoir (full waterfalls for the tail).
  const auto pos = std::upper_bound(top_.begin(), top_.end(), w, slower);
  if (pos != top_.end() || top_.size() < kTopK) {
    top_.insert(pos, w);
    if (top_.size() > kTopK) top_.pop_back();
  }
  // Tail-latency watchdog: evaluated as the span is observed, stamped with
  // its (virtual) completion time, after folding the span into the
  // tenant's histogram.
  const SloConfig* slo = slo_for(w.tenant);
  if (slo != nullptr && slo->budget > 0) {
    const double px = ts.e2e.percentile(slo->percentile);
    if (px > static_cast<double>(slo->budget) && w.e2e() > slo->budget) {
      ++violations_;
      ++ts.violations;
      if (events_.size() < kMaxWatchdogEvents) {
        events_.push_back(WatchdogEvent{w.end_t, w.tenant, w.qpn, w.e2e(),
                                        px, w.binding()});
      }
    }
  }
}

const sim::LogHistogram* Aggregator::tenant_e2e(std::uint32_t tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : &it->second.e2e;
}

std::vector<std::uint32_t> Aggregator::tenants() const {
  std::vector<std::uint32_t> out;
  out.reserve(tenants_.size());
  for (const auto& [id, ts] : tenants_) out.push_back(id);
  return out;
}

std::uint64_t Aggregator::watchdog_violations(std::uint32_t tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.violations;
}

const SloConfig* Aggregator::slo_for(std::uint32_t tenant) const {
  const auto it = slos_.find(tenant);
  return it == slos_.end() ? nullptr : &it->second;
}

std::string Aggregator::latency_report() const {
  std::string out;
  if (spans() == 0) {
    out = "latency: no completed spans\n";
    return out;
  }
  appendf(out, "latency: spans=%llu e2e ",
          static_cast<unsigned long long>(spans()));
  append_percentiles(out, e2e_);
  out += '\n';
  append_stage_table(out, critical_, &stage_);
  out += "  tenants:";
  for (std::uint32_t t : tenants()) appendf(out, " %u", t);
  out += '\n';
  if (watchdog_armed()) {
    appendf(out, "  watchdog: violations=%llu (events retained=%zu)\n",
            static_cast<unsigned long long>(violations_), events_.size());
  }
  return out;
}

std::string Aggregator::tenant_report(std::uint32_t tenant) const {
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return {};
  const TenantStats& ts = it->second;
  std::string out;
  appendf(out, "tenant %u: spans=%llu e2e ", tenant,
          static_cast<unsigned long long>(ts.e2e.count()));
  append_percentiles(out, ts.e2e);
  out += '\n';
  // Per-tenant stage shares from the tenant's own histograms.
  CriticalPath cp;
  cp.spans = ts.e2e.count();
  cp.total_e2e = static_cast<sim::Time>(ts.e2e.sum());
  for (std::size_t i = 0; i < kStageCount; ++i) {
    cp.stage_span[i] = static_cast<sim::Time>(ts.stage[i].sum());
  }
  append_stage_table(out, cp, &ts.stage);
  if (const SloConfig* slo = slo_for(tenant); slo != nullptr &&
                                              slo->budget > 0) {
    appendf(out, "  watchdog: slo p%.1f <= %.3f us, violations=%llu\n",
            slo->percentile, static_cast<double>(slo->budget) / 1e6,
            static_cast<unsigned long long>(ts.violations));
  }
  return out;
}

std::string Aggregator::critpath_report() const {
  std::string out = critical_path_report(critical_);
  if (!top_.empty()) {
    appendf(out, "slowest %zu spans:\n", top_.size());
    std::size_t rank = 1;
    for (const Waterfall& w : top_) {
      appendf(out, " #%zu ", rank++);
      out += waterfall_text(w);
    }
  }
  if (!events_.empty()) {
    appendf(out, "watchdog events (%llu total):\n",
            static_cast<unsigned long long>(violations_));
    for (const WatchdogEvent& e : events_) {
      const std::string_view blamed = stage_name(e.blamed);
      appendf(out,
              "  t=%.3f us tenant=%u qpn=0x%x e2e=%.3f us px=%.3f us "
              "blamed=%.*s\n",
              static_cast<double>(e.at) / 1e6, e.tenant, e.qpn,
              static_cast<double>(e.e2e) / 1e6, ps_to_us(e.observed_px),
              static_cast<int>(blamed.size()), blamed.data());
    }
  }
  return out;
}

}  // namespace cord::trace::causal
