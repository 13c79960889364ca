#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace ndpcr {

// xoshiro256** by Blackman & Vigna: fast, high-quality, and — unlike
// std::mt19937 — guaranteed to produce the same stream on every platform,
// which keeps figures bit-reproducible. Seeded through splitmix64 so that
// small consecutive seeds give independent streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // splitmix64 expansion of the seed into the 256-bit state.
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
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  // Uniform integer in [0, n). n must be > 0.
  std::uint64_t next_below(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded generation.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = -n % n;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Exponentially distributed with the given mean (i.e. rate 1/mean). Used
  // for interrupt inter-arrival times, per the paper's assumption that
  // interrupts are exponentially distributed.
  double exponential(double mean) {
    double u = next_double();
    // Guard against log(0); next_double() < 1 so 1-u > 0.
    return -mean * std::log1p(-u);
  }

  // Standard normal via Box–Muller (no cached spare; simplicity over speed).
  double normal(double mean = 0.0, double stddev = 1.0) {
    double u1 = next_double();
    double u2 = next_double();
    while (u1 <= std::numeric_limits<double>::min()) u1 = next_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * r * std::cos(6.28318530717958647692 * u2);
  }

  // UniformRandomBitGenerator interface, so Rng works with std::shuffle.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() { return next_u64(); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

// Weibull renewal gaps with a given shape and *mean* (not scale). Shape
// 1 reduces to the exponential; shape < 1 models the over-dispersed
// failure inter-arrivals Schroeder & Gibson observed on petascale
// machines. The scale is derived from the mean via Gamma(1 + 1/shape),
// once per sampler: a renewal process draws millions of gaps from one
// (shape, mean), and tgamma would otherwise dominate each draw.
class WeibullGaps {
 public:
  WeibullGaps(double shape, double mean)
      : scale_(mean / std::tgamma(1.0 + 1.0 / shape)),
        inv_shape_(1.0 / shape) {}

  double operator()(Rng& rng) const {
    double u = rng.next_double();
    while (u <= 0.0) u = rng.next_double();
    return scale_ * std::pow(-std::log(u), inv_shape_);
  }

 private:
  double scale_;
  double inv_shape_;
};

}  // namespace ndpcr
