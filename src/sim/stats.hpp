// Measurement collection: online summary statistics and sample
// percentiles used by the benchmark harnesses.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace cord::sim {

/// Online mean/variance/min/max (Welford).
class OnlineStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::uint64_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Stores raw samples; percentiles computed on demand.
class Samples {
 public:
  void add(double x) {
    values_.push_back(x);
    summary_.add(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { values_.reserve(n); }
  void clear() {
    values_.clear();
    summary_ = {};
    sorted_ = false;
  }

  std::size_t count() const { return values_.size(); }
  const OnlineStats& summary() const { return summary_; }
  double mean() const { return summary_.mean(); }
  double stddev() const { return summary_.stddev(); }
  double min() const { return summary_.min(); }
  double max() const { return summary_.max(); }

  /// Linear-interpolated percentile, p in [0, 100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  /// The recorded values — insertion order until the first percentile()
  /// call sorts them in place.
  const std::vector<double>& values() const { return values_; }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  OnlineStats summary_;
};

/// Log-bucketed histogram of non-negative integer values (latencies in
/// picoseconds, sizes in bytes). Bucket i counts values whose bit width is
/// i, i.e. [2^(i-1), 2^i). Memory is a fixed 65-slot array regardless of
/// sample count — unlike `Samples`, which retains every value — so it is
/// safe to keep one per tenant per metric in long-running simulations.
/// Percentiles interpolate within the winning bucket (log-domain error is
/// bounded by one octave; fine for order-of-magnitude observability).
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width of uint64 in 0..64

  void add(std::uint64_t v) {
    ++buckets_[std::bit_width(v)];
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }

  /// Approximate percentile, p in [0, 100]: walks buckets to the one
  /// containing the target rank, then interpolates linearly inside it,
  /// clamped to [min(), max()] so it never leaves the samples' range.
  double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(count_ - 1);
    double seen = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      const double in_bucket = static_cast<double>(buckets_[i]);
      if (seen + in_bucket > rank) {
        const double lo = i == 0 ? 0.0 : static_cast<double>(1ull << (i - 1));
        const double hi = i == 0 ? 1.0 : lo * 2.0;
        const double frac = (rank - seen) / in_bucket;
        return std::clamp(lo + (hi - lo) * frac, static_cast<double>(min()),
                          static_cast<double>(max()));
      }
      seen += in_bucket;
    }
    return static_cast<double>(max());
  }

  void clear() { *this = LogHistogram{}; }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

}  // namespace cord::sim
