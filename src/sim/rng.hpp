// Deterministic pseudo-random numbers for the simulator (xoshiro256++).
// Every simulated component gets its own stream so adding a component
// never perturbs another component's draws.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

namespace cord::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // splitmix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound).
  std::uint64_t next_below(std::uint64_t bound) {
    return bound == 0 ? 0 : next_u64() % bound;
  }

  /// Normal(mean, stddev) via Box–Muller.
  double normal(double mean, double stddev) {
    double u1 = next_double();
    double u2 = next_double();
    if (u1 < 1e-300) u1 = 1e-300;
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

}  // namespace cord::sim
