// cord-inspect — offline causal-latency analysis of exported traces.
//
// Reads a trace (the Chrome trace-event JSON from write_chrome_trace) and
// prints the same causal surfaces the kernel exposes through
// proc_read("latency"/"critpath"): e2e percentiles, the per-stage
// share/queue table, the critical-path summary, and the slowest spans'
// full waterfalls. An optional metrics dump (the MetricsRegistry::text()
// of core::System::metrics()) adds an infrastructure summary — engine-queue
// health (depth, peak), idle-poll elision and the NIC doorbell/burst
// pipeline — so one command answers both "where did the time go" and
// "what was the machinery doing".
//
// Usage:
//   cord-inspect <trace.json> [metrics.txt]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "trace/causal/aggregate.hpp"
#include "trace/export.hpp"

using namespace cord;

namespace {

bool read_file(const char* path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// Print the infrastructure lines of a MetricsRegistry::text() dump:
/// engine-queue health, idle-poll elision, NIC doorbell/burst counters,
/// and causal gauges. Lines look like "name value" or
/// "name{tenant=N} value".
void print_machinery(const std::string& metrics_text) {
  static constexpr const char* kPrefixes[] = {"engine.", "sim.", "nic.",
                                              "causal."};
  std::printf("machinery (from metrics dump):\n");
  std::size_t pos = 0;
  std::size_t shown = 0;
  while (pos < metrics_text.size()) {
    const std::size_t eol = metrics_text.find('\n', pos);
    const std::size_t len =
        (eol == std::string::npos ? metrics_text.size() : eol) - pos;
    const std::string line = metrics_text.substr(pos, len);
    pos = eol == std::string::npos ? metrics_text.size() : eol + 1;
    for (const char* p : kPrefixes) {
      if (line.rfind(p, 0) == 0) {
        std::printf("  %s\n", line.c_str());
        ++shown;
        break;
      }
    }
  }
  if (shown == 0) {
    std::printf("  (no engine./sim./nic./causal. metrics found)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: %s <trace.json> [metrics.txt]\n", argv[0]);
    return 2;
  }
  std::string text;
  if (!read_file(argv[1], text)) {
    std::fprintf(stderr, "cord-inspect: cannot read %s\n", argv[1]);
    return 2;
  }
  const std::vector<trace::Record> records = trace::parse_chrome_trace(text);
  if (records.empty()) {
    std::fprintf(stderr, "cord-inspect: no trace records in %s\n", argv[1]);
    return 1;
  }

  trace::causal::Aggregator agg;
  agg.ingest(records);

  std::printf("trace: %s (%zu records, %llu completed spans, %zu "
              "incomplete)\n\n",
              argv[1], records.size(),
              static_cast<unsigned long long>(agg.spans()),
              agg.pending_spans());
  std::printf("%s\n", agg.latency_report().c_str());
  for (std::uint32_t t : agg.tenants()) {
    std::printf("%s", agg.tenant_report(t).c_str());
  }
  std::printf("\n%s", agg.critpath_report().c_str());

  if (argc == 3) {
    std::string metrics_text;
    if (!read_file(argv[2], metrics_text)) {
      std::fprintf(stderr, "cord-inspect: cannot read %s\n", argv[2]);
      return 2;
    }
    std::printf("\n");
    print_machinery(metrics_text);
  }
  return 0;
}
