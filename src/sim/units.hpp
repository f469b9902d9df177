// Time and bandwidth units for the simulator.
//
// All simulated time is integer picoseconds. Integer time keeps event
// ordering exact and reproducible; picosecond resolution expresses
// sub-nanosecond CPU costs (a 3.3 GHz cycle is ~303 ps) without rounding
// every charge to zero. int64 picoseconds cover ~106 days of virtual time.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

namespace cord::sim {

/// Virtual time in picoseconds.
using Time = std::int64_t;

inline constexpr Time kPicosecond = 1;
inline constexpr Time kNanosecond = 1'000;
inline constexpr Time kMicrosecond = 1'000'000;
inline constexpr Time kMillisecond = 1'000'000'000;
inline constexpr Time kSecond = 1'000'000'000'000;

constexpr Time ps(std::int64_t v) { return v * kPicosecond; }
constexpr Time ns(std::int64_t v) { return v * kNanosecond; }
constexpr Time us(std::int64_t v) { return v * kMicrosecond; }
constexpr Time ms(std::int64_t v) { return v * kMillisecond; }
constexpr Time sec(std::int64_t v) { return v * kSecond; }

/// Fractional helper (rounds to the nearest picosecond).
inline Time ns_d(double v) { return static_cast<Time>(std::llround(v * kNanosecond)); }

constexpr double to_ns(Time t) { return static_cast<double>(t) / kNanosecond; }
constexpr double to_us(Time t) { return static_cast<double>(t) / kMicrosecond; }
constexpr double to_ms(Time t) { return static_cast<double>(t) / kMillisecond; }
constexpr double to_sec(Time t) { return static_cast<double>(t) / kSecond; }

/// A transfer rate. Stored as picoseconds-per-byte so that computing the
/// serialization time of a payload is a single multiply.
class Bandwidth {
 public:
  constexpr Bandwidth() = default;

  static constexpr Bandwidth gbit_per_sec(double gbps) {
    // 1 Gbit/s == 0.125 bytes/ns == 8000 ps/byte at 1 Gbit/s.
    return Bandwidth{8000.0 / gbps};
  }
  static constexpr Bandwidth gbyte_per_sec(double gBps) {
    return Bandwidth{1000.0 / gBps};
  }
  static constexpr Bandwidth unlimited() { return Bandwidth{0.0}; }

  /// Time to move `bytes` at this rate.
  Time time_for(std::uint64_t bytes) const {
    return static_cast<Time>(std::llround(static_cast<double>(bytes) * ps_per_byte_));
  }

  constexpr double gbps() const {
    return ps_per_byte_ == 0.0 ? 0.0 : 8000.0 / ps_per_byte_;
  }
  constexpr bool is_unlimited() const { return ps_per_byte_ == 0.0; }

 private:
  constexpr explicit Bandwidth(double ps_per_byte) : ps_per_byte_(ps_per_byte) {}
  double ps_per_byte_ = 0.0;
};

/// Pretty-print a duration with an adaptive unit (for reports/logs).
std::string format_time(Time t);

/// Pretty-print a byte count (for reports/logs).
std::string format_bytes(std::uint64_t bytes);

}  // namespace cord::sim
