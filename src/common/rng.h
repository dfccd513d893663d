// Deterministic pseudo-random number generation.
//
// All stochastic components in this project (workload synthesis, samplers,
// the cluster latency model) draw from this generator so that every
// experiment is reproducible from a single seed.  The core generator is
// xoshiro256** (Blackman & Vigna), seeded via splitmix64; both are tiny,
// fast, and have no global state, unlike std::mt19937 whose 5 KB of state
// makes per-application generators expensive.

#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace faas {

// Stateless seed expander: maps any 64-bit seed to a well-mixed stream.
// Used to initialise xoshiro state and to derive independent child seeds.
uint64_t SplitMix64(uint64_t& state);

// xoshiro256** 1.0.  Satisfies the C++ UniformRandomBitGenerator concept so
// it can also drive <random> distributions where convenient.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()() { return Next(); }
  // The draw hot path (Next, NextDouble, NextExponential) is defined inline
  // below: workload generation makes several draws per candidate arrival,
  // and an out-of-line call per draw cost more than the draw itself.
  uint64_t Next();

  // Derives an independent generator; calling Fork() repeatedly yields a
  // stream of generators with decorrelated sequences.
  Rng Fork();

  // Uniform double in [0, 1).
  double NextDouble();
  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);
  // Uniform integer in [0, n).  n must be > 0.
  uint64_t UniformInt(uint64_t n);
  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);
  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Standard normal via Marsaglia polar method (cached spare deviate).
  double NextGaussian();
  // Exponential with the given rate (mean 1/rate).
  double NextExponential(double rate);
  // Log-normal: exp(N(mu, sigma^2)).
  double NextLogNormal(double mu, double sigma);
  // Poisson-distributed count with the given mean (Knuth for small means,
  // normal approximation above 64).
  double NextPoisson(double mean);

  // Samples an index in [0, weights.size()) proportionally to weights.
  // Weights must be non-negative with a positive sum.
  size_t WeightedIndex(const std::vector<double>& weights);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

inline uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

inline double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

inline double Rng::NextExponential(double rate) {
  assert(rate > 0.0);
  // 1 - NextDouble() is in (0, 1], so the log is finite.
  return -std::log(1.0 - NextDouble()) / rate;
}

}  // namespace faas

#endif  // SRC_COMMON_RNG_H_
