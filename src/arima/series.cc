#include "src/arima/series.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <limits>

#include "src/common/logging.h"
#include "src/stats/descriptive.h"

namespace faas {

std::vector<double> Difference(std::span<const double> series, int d) {
  FAAS_CHECK(d >= 0) << "differencing order must be non-negative";
  std::vector<double> current(series.begin(), series.end());
  for (int round = 0; round < d; ++round) {
    if (current.size() <= 1) {
      return {};
    }
    std::vector<double> next(current.size() - 1);
    for (size_t i = 1; i < current.size(); ++i) {
      next[i - 1] = current[i] - current[i - 1];
    }
    current = std::move(next);
  }
  return current;
}

std::vector<double> DifferencingTails(std::span<const double> series, int d) {
  std::vector<double> tails;
  tails.reserve(static_cast<size_t>(d));
  std::vector<double> current(series.begin(), series.end());
  for (int level = 0; level < d; ++level) {
    FAAS_CHECK(!current.empty()) << "series too short for differencing order";
    tails.push_back(current.back());
    std::vector<double> next;
    next.reserve(current.size() > 0 ? current.size() - 1 : 0);
    for (size_t i = 1; i < current.size(); ++i) {
      next.push_back(current[i] - current[i - 1]);
    }
    current = std::move(next);
  }
  return tails;
}

std::vector<double> IntegrateForecast(std::span<const double> diff_forecast,
                                      std::span<const double> tails) {
  // tails[0] is the last value of the original series, tails[1] the last of
  // the once-differenced series, etc.  Invert from the deepest level up.
  std::vector<double> current(diff_forecast.begin(), diff_forecast.end());
  for (size_t level = tails.size(); level-- > 0;) {
    double previous = tails[level];
    for (double& value : current) {
      value += previous;
      previous = value;
    }
  }
  return current;
}

std::vector<double> Acf(std::span<const double> series, int max_lag) {
  const size_t n = series.size();
  FAAS_CHECK(n >= 2) << "ACF needs at least two points";
  const double mean = Mean(series);
  double denom = 0.0;
  for (double v : series) {
    const double d = v - mean;
    denom += d * d;
  }
  std::vector<double> acf(static_cast<size_t>(max_lag) + 1, 0.0);
  acf[0] = 1.0;
  if (denom == 0.0) {
    return acf;  // Constant series: define rho_k = 0 for k > 0.
  }
  for (int lag = 1; lag <= max_lag; ++lag) {
    if (static_cast<size_t>(lag) >= n) {
      break;
    }
    double num = 0.0;
    for (size_t t = static_cast<size_t>(lag); t < n; ++t) {
      num += (series[t] - mean) * (series[t - static_cast<size_t>(lag)] - mean);
    }
    acf[static_cast<size_t>(lag)] = num / denom;
  }
  return acf;
}

std::vector<double> Pacf(std::span<const double> series, int max_lag) {
  // Durbin-Levinson recursion on the sample ACF.
  const std::vector<double> rho = Acf(series, max_lag);
  std::vector<double> pacf(static_cast<size_t>(max_lag) + 1, 0.0);
  if (max_lag == 0) {
    return pacf;
  }
  std::vector<double> phi_prev(static_cast<size_t>(max_lag) + 1, 0.0);
  std::vector<double> phi_curr(static_cast<size_t>(max_lag) + 1, 0.0);
  pacf[0] = 1.0;
  phi_prev[1] = rho[1];
  pacf[1] = rho[1];
  double v = 1.0 - rho[1] * rho[1];
  for (int k = 2; k <= max_lag; ++k) {
    double num = rho[static_cast<size_t>(k)];
    for (int j = 1; j < k; ++j) {
      num -= phi_prev[static_cast<size_t>(j)] *
             rho[static_cast<size_t>(k - j)];
    }
    const double phi_kk = v > 1e-12 ? num / v : 0.0;
    for (int j = 1; j < k; ++j) {
      phi_curr[static_cast<size_t>(j)] =
          phi_prev[static_cast<size_t>(j)] -
          phi_kk * phi_prev[static_cast<size_t>(k - j)];
    }
    phi_curr[static_cast<size_t>(k)] = phi_kk;
    pacf[static_cast<size_t>(k)] = phi_kk;
    v *= (1.0 - phi_kk * phi_kk);
    std::swap(phi_prev, phi_curr);
  }
  return pacf;
}

std::vector<double> YuleWalkerAr(std::span<const double> series, int p) {
  FAAS_CHECK(p >= 0) << "AR order must be non-negative";
  if (p == 0) {
    return {};
  }
  const std::vector<double> rho = Acf(series, p);
  // Solve the Toeplitz system via Durbin-Levinson.
  std::vector<double> phi(static_cast<size_t>(p), 0.0);
  std::vector<double> prev(static_cast<size_t>(p), 0.0);
  phi[0] = rho[1];
  double v = 1.0 - rho[1] * rho[1];
  for (int k = 2; k <= p; ++k) {
    prev.assign(phi.begin(), phi.end());
    double num = rho[static_cast<size_t>(k)];
    for (int j = 1; j < k; ++j) {
      num -= prev[static_cast<size_t>(j - 1)] * rho[static_cast<size_t>(k - j)];
    }
    const double phi_kk = v > 1e-12 ? num / v : 0.0;
    for (int j = 1; j < k; ++j) {
      phi[static_cast<size_t>(j - 1)] =
          prev[static_cast<size_t>(j - 1)] -
          phi_kk * prev[static_cast<size_t>(k - j - 1)];
    }
    phi[static_cast<size_t>(k - 1)] = phi_kk;
    v *= (1.0 - phi_kk * phi_kk);
  }
  return phi;
}

double KpssStatistic(std::span<const double> series) {
  const size_t n = series.size();
  FAAS_CHECK(n >= 4) << "KPSS needs at least four points";
  const double mean = Mean(series);

  // Partial sums of demeaned residuals.
  std::vector<double> residuals(n);
  for (size_t t = 0; t < n; ++t) {
    residuals[t] = series[t] - mean;
  }
  double partial = 0.0;
  double sum_sq_partial = 0.0;
  for (size_t t = 0; t < n; ++t) {
    partial += residuals[t];
    sum_sq_partial += partial * partial;
  }

  // Long-run variance with a Bartlett kernel.
  const int lags = static_cast<int>(
      std::floor(4.0 * std::pow(static_cast<double>(n) / 100.0, 0.25)));
  double s2 = 0.0;
  for (size_t t = 0; t < n; ++t) {
    s2 += residuals[t] * residuals[t];
  }
  for (int lag = 1; lag <= lags; ++lag) {
    double gamma = 0.0;
    for (size_t t = static_cast<size_t>(lag); t < n; ++t) {
      gamma += residuals[t] * residuals[t - static_cast<size_t>(lag)];
    }
    const double weight =
        1.0 - static_cast<double>(lag) / (static_cast<double>(lags) + 1.0);
    s2 += 2.0 * weight * gamma;
  }
  s2 /= static_cast<double>(n);
  if (s2 <= 1e-300) {
    return 0.0;  // Constant series: trivially stationary.
  }
  return sum_sq_partial / (static_cast<double>(n) * static_cast<double>(n) * s2);
}

bool IsLevelStationaryKpss(std::span<const double> series) {
  // 5% critical value for the level-stationarity KPSS test.
  constexpr double kCriticalValue = 0.463;
  return KpssStatistic(series) < kCriticalValue;
}

int EstimateDifferencingOrder(std::span<const double> series, int max_d) {
  std::vector<double> current(series.begin(), series.end());
  for (int d = 0; d <= max_d; ++d) {
    if (current.size() < 4 || IsLevelStationaryKpss(current)) {
      return d;
    }
    current = Difference(current, 1);
  }
  return max_d;
}

namespace {

// std::abs(z) of a complex z is a hypot call, and the root check makes
// several per root and iteration.  This returns std::abs(z) itself, or a
// stand-in (0 or +inf) that compares with `limit` under <, <= and >= exactly
// as std::abs(z) does.  The stand-in is taken only when a part exceeds
// `limit` (hypot is at least the larger part) or when re^2 + im^2 is off
// limit^2 by more than a relative 1e-13, far above the rounding of either
// side; near the limit, and for non-finite parts, hypot decides.  Declared
// inline so that the compiler inlines it into the Durand-Kerner loop.
inline double AbsForCompare(std::complex<double> z, double limit) {
  constexpr double kSlack = 1e-13;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double re = std::fabs(z.real());
  const double im = std::fabs(z.imag());
  if (!std::isfinite(re + im)) {
    return std::abs(z);
  }
  if (re > limit || im > limit) {
    return kInf;
  }
  const double limit_sq = limit * limit;
  // A limit whose square underflows (1e-300) leaves the call to hypot.
  if (limit_sq >= std::numeric_limits<double>::min()) {
    const double norm = re * re + im * im;
    if (norm < limit_sq * (1.0 - kSlack)) {
      return 0.0;
    }
    if (norm > limit_sq * (1.0 + kSlack)) {
      return kInf;
    }
  }
  return std::abs(z);
}

}  // namespace

namespace detail {

// 1 - sum_i a_i w^i with a_i = c_i rho^i has the roots of the original
// polynomial divided by rho, so "every root outside |z| = rho" is "every
// root outside |w| = 1": every reflection coefficient of the step-down
// (reverse Levinson-Durbin) has magnitude below 1.  Durand-Kerner, whose
// answer this must reproduce, computes a simple root to about eps but an
// m-fold one only to about eps^(1/m) (6e-6 for m = 3), so its rounding can
// decide the answer only where a cluster of roots sits near the circle,
// and such a cluster pulls a reflection coefficient towards magnitude 1
// (a double or triple root d outside the circle leaves one about d^2 / 2
// or d^2 / 6 from it).  The band leaves all of those to Durand-Kerner with
// a wide margin; tests/series_test.cc checks that against the verbatim
// Durand-Kerner on near-multiple roots, where a band of 1e-6 fails.
RootVerdict SchurCohnVerdict(std::span<const double> coefficients) {
  constexpr size_t kMaxDegree = 3;
  constexpr double kMaxMagnitude = 256.0;
  constexpr double kRadius = 1.0 + 1e-8;
  const size_t degree = coefficients.size();
  if (degree > kMaxDegree) {
    return RootVerdict::kUndecided;
  }
  std::array<double, kMaxDegree> a;
  double scale = 1.0;
  for (size_t i = 0; i < degree; ++i) {
    // Also false for NaN.
    if (!(std::fabs(coefficients[i]) <= kMaxMagnitude)) {
      return RootVerdict::kUndecided;
    }
    scale *= kRadius;
    a[i] = coefficients[i] * scale;
  }
  for (size_t k = degree; k > 0; --k) {
    const double kappa = a[k - 1];
    const double magnitude = std::fabs(kappa);
    if (magnitude >= 1.0 + kSchurCohnBand) {
      return RootVerdict::kNotOutside;
    }
    if (magnitude > 1.0 - kSchurCohnBand) {
      return RootVerdict::kUndecided;
    }
    const double denom = 1.0 - kappa * kappa;
    const std::array<double, kMaxDegree> previous = a;
    for (size_t i = 0; i + 1 < k; ++i) {
      a[i] = (previous[i] + kappa * previous[k - 2 - i]) / denom;
    }
  }
  return RootVerdict::kOutside;
}

}  // namespace detail

bool RootsOutsideUnitCircle(std::span<const double> coefficients) {
  // Polynomial: 1 - c1 z - ... - cp z^p.  Strip trailing zeros.
  size_t degree = coefficients.size();
  while (degree > 0 && std::fabs(coefficients[degree - 1]) < 1e-12) {
    --degree;
  }
  if (degree == 0) {
    return true;
  }
  switch (detail::SchurCohnVerdict(coefficients.first(degree))) {
    case detail::RootVerdict::kOutside:
      return true;
    case detail::RootVerdict::kNotOutside:
      return false;
    case detail::RootVerdict::kUndecided:
      break;
  }
  constexpr size_t kMaxDegree = 8;
  FAAS_CHECK(degree <= kMaxDegree) << "root check limited to degree 8";

  // Monic form: z^p - (c1/cp... ) -- easier to run Durand-Kerner on
  // p(z) = -c_p z^p - ... - c_1 z + 1 normalised by the leading coefficient.
  std::array<std::complex<double>, kMaxDegree + 1> poly;
  poly[0] = std::complex<double>(1.0, 0.0);
  for (size_t i = 1; i <= degree; ++i) {
    poly[i] = std::complex<double>(-coefficients[i - 1], 0.0);
  }
  const std::complex<double> lead = poly[degree];
  for (size_t i = 0; i <= degree; ++i) {
    poly[i] /= lead;
  }

  const auto eval = [&poly, degree](std::complex<double> z) {
    std::complex<double> acc(0.0, 0.0);
    for (size_t i = degree + 1; i-- > 0;) {
      acc = acc * z + poly[i];
    }
    return acc;
  };

  // Durand-Kerner iteration from the standard (0.4 + 0.9i)^k seeds.
  std::array<std::complex<double>, kMaxDegree> roots;
  const std::complex<double> seed(0.4, 0.9);
  std::complex<double> power(1.0, 0.0);
  for (size_t i = 0; i < degree; ++i) {
    power *= seed;
    roots[i] = power;
  }
  for (int iter = 0; iter < 200; ++iter) {
    double max_step = 0.0;
    for (size_t i = 0; i < degree; ++i) {
      std::complex<double> denom(1.0, 0.0);
      for (size_t j = 0; j < degree; ++j) {
        if (j != i) {
          denom *= roots[i] - roots[j];
        }
      }
      if (AbsForCompare(denom, 1e-300) < 1e-300) {
        denom = std::complex<double>(1e-300, 0.0);
      }
      const std::complex<double> step = eval(roots[i]) / denom;
      roots[i] -= step;
      max_step = std::max(max_step, AbsForCompare(step, 1e-12));
    }
    if (max_step < 1e-12) {
      break;
    }
  }

  for (size_t i = 0; i < degree; ++i) {
    if (AbsForCompare(roots[i], 1.0 + 1e-8) <= 1.0 + 1e-8) {
      return false;
    }
  }
  return true;
}

}  // namespace faas
