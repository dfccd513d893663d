#include "src/common/rng.h"

#include <cassert>
#include <cmath>

namespace faas {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
}

Rng Rng::Fork() { return Rng(Next() ^ 0xD2B74407B1CE6E93ull); }

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

uint64_t Rng::UniformInt(uint64_t n) {
  assert(n > 0);
  // Lemire's nearly-divisionless bounded sampling with rejection.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t threshold = (-n) % n;
    while (l < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u, v, s;
  do {
    u = UniformDouble(-1.0, 1.0);
    v = UniformDouble(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * mul;
  has_spare_gaussian_ = true;
  return u * mul;
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(mu + sigma * NextGaussian());
}

double Rng::NextPoisson(double mean) {
  assert(mean >= 0.0);
  if (mean == 0.0) {
    return 0.0;
  }
  if (mean < 64.0) {
    // Knuth's multiplicative method.
    const double limit = std::exp(-mean);
    double product = NextDouble();
    double count = 0.0;
    while (product > limit) {
      product *= NextDouble();
      count += 1.0;
    }
    return count;
  }
  // Normal approximation with continuity correction, clamped at zero.
  const double draw = mean + std::sqrt(mean) * NextGaussian() + 0.5;
  return draw < 0.0 ? 0.0 : std::floor(draw);
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double target = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) {
      return i;
    }
  }
  return weights.size() - 1;  // Floating-point slack: fall back to the last.
}

}  // namespace faas
