// Shared helpers for the figure-regeneration benches: aligned table
// printing and the message-size sweeps used across figures.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace cord::bench {

/// Simple aligned table printer for paper-style outputs.
class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print() const {
    std::vector<std::size_t> width(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], r[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& r) {
      for (std::size_t c = 0; c < r.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(width[c]), r[c].c_str());
      }
      std::printf("\n");
    };
    print_row(header_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& r : rows_) print_row(r);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

inline std::string size_label(std::size_t bytes) {
  char buf[32];
  if (bytes >= (1u << 20)) {
    std::snprintf(buf, sizeof(buf), "%zuM", bytes >> 20);
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%zuK", bytes >> 10);
  } else {
    std::snprintf(buf, sizeof(buf), "%zu", bytes);
  }
  return buf;
}

/// Messages sized for a sweep point: fewer iterations for big messages so
/// total simulated bytes stay bounded.
inline int iters_for(std::size_t msg_size, int small = 2000, int large = 40) {
  if (msg_size >= (1u << 20)) return large;
  if (msg_size >= (1u << 16)) return 200;
  if (msg_size >= (1u << 13)) return 600;
  return small;
}

/// A clamped event was scheduled into the past and ran at now() instead:
/// a model bug, so the data point must not be trusted. One stderr line per
/// affected point keeps figure output (stdout) clean while making the bug
/// impossible to miss.
inline void warn_clamped(std::uint64_t clamped, const char* where) {
  if (clamped == 0) return;
  std::fprintf(stderr,
               "WARNING: %s: %llu event(s) were scheduled into the past and "
               "clamped to the current time (a model bug); results for this "
               "point are suspect\n",
               where, static_cast<unsigned long long>(clamped));
}

}  // namespace cord::bench
