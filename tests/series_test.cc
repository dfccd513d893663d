#include "src/arima/series.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace faas {
namespace {

// The Durand-Kerner root check as first written, with a std::abs (hypot)
// per root and iteration.  RootsOutsideUnitCircle must return exactly what
// this returns: ARIMA fits sit on the |root| = 1 + 1e-8 boundary, where any
// other algorithm's rounding changes which candidates Nelder-Mead accepts.
bool ReferenceDurandKerner(std::span<const double> coefficients) {
  // Polynomial: 1 - c1 z - ... - cp z^p.  Strip trailing zeros.
  size_t degree = coefficients.size();
  while (degree > 0 && std::fabs(coefficients[degree - 1]) < 1e-12) {
    --degree;
  }
  if (degree == 0) {
    return true;
  }
  FAAS_CHECK(degree <= 8) << "root check limited to degree 8";

  // Monic form: z^p - (c1/cp... ) -- easier to run Durand-Kerner on
  // p(z) = -c_p z^p - ... - c_1 z + 1 normalised by the leading coefficient.
  std::vector<std::complex<double>> poly(degree + 1);
  poly[0] = std::complex<double>(1.0, 0.0);
  for (size_t i = 1; i <= degree; ++i) {
    poly[i] = std::complex<double>(-coefficients[i - 1], 0.0);
  }
  const std::complex<double> lead = poly[degree];
  for (auto& c : poly) {
    c /= lead;
  }

  const auto eval = [&poly, degree](std::complex<double> z) {
    std::complex<double> acc(0.0, 0.0);
    for (size_t i = degree + 1; i-- > 0;) {
      acc = acc * z + poly[i];
    }
    return acc;
  };

  // Durand-Kerner iteration from the standard (0.4 + 0.9i)^k seeds.
  std::vector<std::complex<double>> roots(degree);
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
      if (std::abs(denom) < 1e-300) {
        denom = std::complex<double>(1e-300, 0.0);
      }
      const std::complex<double> step = eval(roots[i]) / denom;
      roots[i] -= step;
      max_step = std::max(max_step, std::abs(step));
    }
    if (max_step < 1e-12) {
      break;
    }
  }

  for (const auto& root : roots) {
    if (std::abs(root) <= 1.0 + 1e-8) {
      return false;
    }
  }
  return true;
}

TEST(DifferenceTest, FirstOrder) {
  const std::vector<double> series = {1.0, 3.0, 6.0, 10.0};
  const std::vector<double> diff = Difference(series, 1);
  EXPECT_EQ(diff, (std::vector<double>{2.0, 3.0, 4.0}));
}

TEST(DifferenceTest, SecondOrder) {
  const std::vector<double> series = {1.0, 3.0, 6.0, 10.0};
  const std::vector<double> diff = Difference(series, 2);
  EXPECT_EQ(diff, (std::vector<double>{1.0, 1.0}));
}

TEST(DifferenceTest, ZeroOrderIsIdentity) {
  const std::vector<double> series = {5.0, 7.0};
  EXPECT_EQ(Difference(series, 0), series);
}

TEST(DifferenceTest, OverDifferencingGivesEmpty) {
  const std::vector<double> series = {1.0, 2.0};
  EXPECT_TRUE(Difference(series, 3).empty());
}

TEST(IntegrateForecastTest, InvertsDifferencing) {
  const std::vector<double> series = {2.0, 5.0, 4.0, 8.0, 9.0};
  const std::vector<double> tails = DifferencingTails(series, 1);
  ASSERT_EQ(tails.size(), 1u);
  EXPECT_DOUBLE_EQ(tails[0], 9.0);
  // If the differenced series continues with {1.0, -2.0}, the original
  // continues with {10.0, 8.0}.
  const std::vector<double> restored =
      IntegrateForecast(std::vector<double>{1.0, -2.0}, tails);
  EXPECT_EQ(restored, (std::vector<double>{10.0, 8.0}));
}

TEST(IntegrateForecastTest, SecondOrderRoundTrip) {
  const std::vector<double> series = {1.0, 4.0, 9.0, 16.0, 25.0};
  const std::vector<double> tails = DifferencingTails(series, 2);
  // d=2 of squares is constant 2; forecasting {2.0, 2.0} must continue the
  // squares: 36, 49.
  const std::vector<double> restored =
      IntegrateForecast(std::vector<double>{2.0, 2.0}, tails);
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_DOUBLE_EQ(restored[0], 36.0);
  EXPECT_DOUBLE_EQ(restored[1], 49.0);
}

TEST(AcfTest, LagZeroIsOne) {
  const std::vector<double> series = {1.0, 2.0, 1.5, 3.0, 2.5};
  const std::vector<double> acf = Acf(series, 2);
  EXPECT_DOUBLE_EQ(acf[0], 1.0);
}

TEST(AcfTest, ConstantSeriesHasZeroCorrelations) {
  const std::vector<double> series(20, 4.0);
  const std::vector<double> acf = Acf(series, 5);
  for (int lag = 1; lag <= 5; ++lag) {
    EXPECT_DOUBLE_EQ(acf[static_cast<size_t>(lag)], 0.0);
  }
}

TEST(AcfTest, Ar1SeriesDecaysGeometrically) {
  Rng rng(55);
  const double phi = 0.8;
  std::vector<double> series(20'000);
  series[0] = 0.0;
  for (size_t t = 1; t < series.size(); ++t) {
    series[t] = phi * series[t - 1] + rng.NextGaussian();
  }
  const std::vector<double> acf = Acf(series, 3);
  EXPECT_NEAR(acf[1], phi, 0.03);
  EXPECT_NEAR(acf[2], phi * phi, 0.04);
  EXPECT_NEAR(acf[3], phi * phi * phi, 0.05);
}

TEST(PacfTest, Ar1CutsOffAfterLagOne) {
  Rng rng(56);
  const double phi = 0.7;
  std::vector<double> series(20'000);
  series[0] = 0.0;
  for (size_t t = 1; t < series.size(); ++t) {
    series[t] = phi * series[t - 1] + rng.NextGaussian();
  }
  const std::vector<double> pacf = Pacf(series, 4);
  EXPECT_NEAR(pacf[1], phi, 0.03);
  EXPECT_NEAR(pacf[2], 0.0, 0.03);
  EXPECT_NEAR(pacf[3], 0.0, 0.03);
}

TEST(YuleWalkerTest, RecoversAr2Coefficients) {
  Rng rng(57);
  const double phi1 = 0.5;
  const double phi2 = 0.3;
  std::vector<double> series(50'000);
  series[0] = series[1] = 0.0;
  for (size_t t = 2; t < series.size(); ++t) {
    series[t] =
        phi1 * series[t - 1] + phi2 * series[t - 2] + rng.NextGaussian();
  }
  const std::vector<double> phi = YuleWalkerAr(series, 2);
  ASSERT_EQ(phi.size(), 2u);
  EXPECT_NEAR(phi[0], phi1, 0.03);
  EXPECT_NEAR(phi[1], phi2, 0.03);
}

TEST(YuleWalkerTest, OrderZeroIsEmpty) {
  const std::vector<double> series = {1.0, 2.0, 3.0, 4.0};
  EXPECT_TRUE(YuleWalkerAr(series, 0).empty());
}

TEST(KpssTest, StationaryNoiseAccepted) {
  Rng rng(58);
  std::vector<double> series(500);
  for (double& s : series) {
    s = rng.NextGaussian();
  }
  EXPECT_TRUE(IsLevelStationaryKpss(series));
}

TEST(KpssTest, RandomWalkRejected) {
  Rng rng(59);
  std::vector<double> series(500);
  double level = 0.0;
  for (double& s : series) {
    level += rng.NextGaussian();
    s = level;
  }
  EXPECT_FALSE(IsLevelStationaryKpss(series));
}

TEST(KpssTest, ConstantSeriesIsStationary) {
  const std::vector<double> series(50, 3.0);
  EXPECT_TRUE(IsLevelStationaryKpss(series));
}

TEST(EstimateDifferencingOrderTest, StationaryNeedsNone) {
  Rng rng(60);
  std::vector<double> series(400);
  for (double& s : series) {
    s = rng.NextGaussian();
  }
  EXPECT_EQ(EstimateDifferencingOrder(series, 2), 0);
}

TEST(EstimateDifferencingOrderTest, RandomWalkNeedsOne) {
  Rng rng(61);
  std::vector<double> series(400);
  double level = 0.0;
  for (double& s : series) {
    level += rng.NextGaussian();
    s = level;
  }
  EXPECT_EQ(EstimateDifferencingOrder(series, 2), 1);
}

TEST(EstimateDifferencingOrderTest, IntegratedTwiceNeedsTwo) {
  Rng rng(62);
  std::vector<double> series(400);
  double level = 0.0;
  double slope = 0.0;
  for (double& s : series) {
    slope += rng.NextGaussian();
    level += slope;
    s = level;
  }
  EXPECT_EQ(EstimateDifferencingOrder(series, 2), 2);
}

TEST(RootsTest, EmptyAndZeroCoefficientsAreStable) {
  EXPECT_TRUE(RootsOutsideUnitCircle(std::vector<double>{}));
  EXPECT_TRUE(RootsOutsideUnitCircle(std::vector<double>{0.0, 0.0}));
}

TEST(RootsTest, StableAr1) {
  EXPECT_TRUE(RootsOutsideUnitCircle(std::vector<double>{0.5}));
  EXPECT_TRUE(RootsOutsideUnitCircle(std::vector<double>{-0.9}));
}

TEST(RootsTest, UnstableAr1) {
  EXPECT_FALSE(RootsOutsideUnitCircle(std::vector<double>{1.0}));
  EXPECT_FALSE(RootsOutsideUnitCircle(std::vector<double>{1.2}));
  EXPECT_FALSE(RootsOutsideUnitCircle(std::vector<double>{-1.05}));
}

TEST(RootsTest, Ar2StabilityTriangle) {
  // AR(2) is stationary iff phi2 + phi1 < 1, phi2 - phi1 < 1, |phi2| < 1.
  EXPECT_TRUE(RootsOutsideUnitCircle(std::vector<double>{0.5, 0.3}));
  EXPECT_TRUE(RootsOutsideUnitCircle(std::vector<double>{-0.5, 0.3}));
  EXPECT_FALSE(RootsOutsideUnitCircle(std::vector<double>{0.8, 0.3}));
  EXPECT_FALSE(RootsOutsideUnitCircle(std::vector<double>{0.0, 1.1}));
}

// Coefficients c of 1 - c1 z - ... - cp z^p = prod_k (1 - z / r_k) for
// roots that are real or come in conjugate pairs.
std::vector<double> CoefficientsFromRoots(
    const std::vector<std::complex<double>>& roots) {
  std::vector<std::complex<double>> a = {1.0};
  for (const std::complex<double>& r : roots) {
    a.push_back(0.0);
    for (size_t k = a.size() - 1; k > 0; --k) {
      a[k] -= a[k - 1] / r;
    }
  }
  std::vector<double> c(a.size() - 1);
  for (size_t k = 1; k < a.size(); ++k) {
    c[k - 1] = -a[k].real();
  }
  return c;
}

// Appends real roots or conjugate pairs with moduli from `modulus` until
// `degree` roots are placed.
template <typename Modulus>
std::vector<std::complex<double>> RandomRoots(Rng& rng, size_t degree,
                                              Modulus modulus) {
  std::vector<std::complex<double>> roots;
  while (roots.size() < degree) {
    const double m = modulus();
    if (roots.size() + 1 == degree || rng.NextDouble() < 0.3) {
      roots.emplace_back(rng.NextDouble() < 0.5 ? m : -m, 0.0);
    } else {
      const std::complex<double> r =
          std::polar(m, 3.141592653589793 * rng.NextDouble());
      roots.push_back(r);
      roots.push_back(std::conj(r));
    }
  }
  return roots;
}

// Compares RootsOutsideUnitCircle with the reference on every vector and
// reports the first few disagreements in hex.
class RootCheckDifferential {
 public:
  void Check(const std::vector<double>& c) {
    ++checked_;
    if (RootsOutsideUnitCircle(c) == ReferenceDurandKerner(c)) {
      return;
    }
    if (++disagreements_ <= 5) {
      std::string text;
      char buf[32];
      for (double v : c) {
        std::snprintf(buf, sizeof(buf), " %a", v);
        text += buf;
      }
      ADD_FAILURE() << "disagrees with the reference on {" << text << " }";
    }
  }
  size_t checked() const { return checked_; }
  size_t disagreements() const { return disagreements_; }

 private:
  size_t checked_ = 0;
  size_t disagreements_ = 0;
};

TEST(RootsTest, MatchesReferenceOnRandomPolynomials) {
  Rng rng(500);
  RootCheckDifferential check;
  for (int i = 0; i < 300000; ++i) {
    const size_t degree = 1 + rng.UniformInt(8);
    const double scale = i % 3 == 0 ? 0.5 : (i % 3 == 1 ? 1.0 : 2.0);
    std::vector<double> c(degree);
    for (double& v : c) {
      v = scale * (2.0 * rng.NextDouble() - 1.0);
    }
    check.Check(c);
  }
  for (int i = 0; i < 300000; ++i) {
    const size_t degree = 1 + rng.UniformInt(8);
    check.Check(CoefficientsFromRoots(RandomRoots(
        rng, degree, [&rng] { return 0.5 + 1.5 * rng.NextDouble(); })));
  }
  EXPECT_EQ(check.disagreements(), 0u) << "of " << check.checked();
}

TEST(RootsTest, MatchesReferenceOnTheUnitCircleBoundary) {
  // Nelder-Mead drives CSS optima onto |root| = 1 + 1e-8; place roots a few
  // ulps either side of it, alone, as double roots, and beside other roots.
  constexpr double kBoundary = 1.0 + 1e-8;
  Rng rng(501);
  RootCheckDifferential check;
  const auto near_boundary = [&rng] {
    const double ulps = static_cast<double>(rng.UniformInt(33)) - 16.0;
    return kBoundary * (1.0 + ulps * std::numeric_limits<double>::epsilon());
  };
  for (int i = 0; i < 200000; ++i) {
    const size_t degree = 1 + rng.UniformInt(8);
    std::vector<std::complex<double>> roots =
        RandomRoots(rng, degree, near_boundary);
    if (i % 2 == 1 && degree >= 2) {
      // Replace all but one root family with roots off the boundary.
      const size_t keep = roots[0].imag() != 0.0 ? 2 : 1;
      const std::vector<std::complex<double>> rest = RandomRoots(
          rng, degree - keep, [&rng] { return 0.3 + 2.0 * rng.NextDouble(); });
      roots.resize(keep);
      roots.insert(roots.end(), rest.begin(), rest.end());
    }
    if (i % 5 == 0) {
      roots.resize(std::max<size_t>(1, roots.size() / 2));
      const std::vector<std::complex<double>> twin = roots;
      roots.insert(roots.end(), twin.begin(), twin.end());  // Double roots.
    }
    check.Check(CoefficientsFromRoots(roots));
  }
  EXPECT_EQ(check.disagreements(), 0u) << "of " << check.checked();
}

TEST(RootsTest, MatchesReferenceNearMultipleRoots) {
  // Durand-Kerner finds an m-fold root only to about eps^(1/m), so near a
  // double or triple root its rounding decides the answer up to ~1e-5 from
  // the circle.  Place double and triple real roots and conjugate pairs at
  // log-uniform distances of 1e-12 to 1e-2 inside or outside
  // |z| = 1 + 1e-8; a Schur-Cohn band that decides any of them where
  // Durand-Kerner's rounding does shows up here (a band of 1e-6 does).
  // Triple roots and a double root beside a third near root cost Durand-
  // Kerner all 200 iterations, and get one vector in 20 each.
  constexpr double kBoundary = 1.0 + 1e-8;
  Rng rng(503);
  const auto near_root = [&rng](bool real) {
    const double distance =
        std::exp(std::log(1e-12) + std::log(1e10) * rng.NextDouble());
    const double m =
        kBoundary * (rng.NextDouble() < 0.5 ? 1.0 + distance : 1.0 - distance);
    if (real) {
      return std::complex<double>(rng.NextDouble() < 0.5 ? m : -m, 0.0);
    }
    return std::polar(m, 3.141592653589793 * rng.NextDouble());
  };
  RootCheckDifferential check;
  for (int i = 0; i < 1000000; ++i) {
    const int slot = i % 40;
    std::vector<std::complex<double>> roots;
    if (slot < 14) {
      const std::complex<double> r = near_root(true);
      roots = {r, r};
    } else if (slot < 25) {
      const std::complex<double> r = near_root(false);
      roots = {r, std::conj(r)};
    } else if (slot < 36) {
      const std::complex<double> r = near_root(false);
      roots = {r, std::conj(r), near_root(true)};
    } else if (slot < 38) {
      const std::complex<double> r = near_root(true);
      roots = {r, r, r};
    } else {
      const std::complex<double> r = near_root(true);
      roots = {r, r, near_root(true)};
    }
    if (roots.size() == 2 && rng.NextDouble() < 0.2) {
      // A third root off the circle.
      const double m = 0.3 + 3.0 * rng.NextDouble();
      roots.emplace_back(rng.NextDouble() < 0.5 ? m : -m, 0.0);
    }
    check.Check(CoefficientsFromRoots(roots));
  }
  EXPECT_EQ(check.checked(), 1000000u);
  EXPECT_EQ(check.disagreements(), 0u) << "of " << check.checked();
}

TEST(RootsTest, SchurCohnDecidesOnlyOutsideTheBand) {
  using detail::RootVerdict;
  using detail::SchurCohnVerdict;
  const auto verdict = [](std::vector<double> c) {
    return SchurCohnVerdict(c);
  };
  // Clearly stable and clearly unstable AR(1) and AR(2) inputs never reach
  // Durand-Kerner.
  EXPECT_EQ(verdict({0.5}), RootVerdict::kOutside);
  EXPECT_EQ(verdict({-0.9}), RootVerdict::kOutside);
  EXPECT_EQ(verdict({1.2}), RootVerdict::kNotOutside);
  EXPECT_EQ(verdict({-1.05}), RootVerdict::kNotOutside);
  EXPECT_EQ(verdict({0.5, 0.3}), RootVerdict::kOutside);
  EXPECT_EQ(verdict({-0.5, 0.3}), RootVerdict::kOutside);
  EXPECT_EQ(verdict({0.8, 0.3}), RootVerdict::kNotOutside);
  EXPECT_EQ(verdict({0.0, 1.1}), RootVerdict::kNotOutside);
  EXPECT_EQ(verdict({0.2, -0.3, 0.1}), RootVerdict::kOutside);
  // A root on the circle, or within the band of it, goes to Durand-Kerner,
  // as does a double root 1e-3 outside it (its reflection coefficient sits
  // about 1e-6 from 1) and every recorded boundary fit.
  const double band = detail::kSchurCohnBand;
  EXPECT_EQ(verdict({1.0}), RootVerdict::kUndecided);
  EXPECT_EQ(verdict({-1.0}), RootVerdict::kUndecided);
  EXPECT_EQ(verdict({1.0 - 0.5 * band}), RootVerdict::kUndecided);
  EXPECT_EQ(verdict({1.0 + 0.5 * band}), RootVerdict::kUndecided);
  EXPECT_EQ(verdict({0.0, -1.0}), RootVerdict::kUndecided);
  EXPECT_EQ(verdict(CoefficientsFromRoots({1.001, 1.001})),
            RootVerdict::kUndecided);
  EXPECT_EQ(verdict({0.14429573376544325, 0.85570424767751441}),
            RootVerdict::kUndecided);
  EXPECT_EQ(verdict({0.97227110160401065, -0.99999998000000034}),
            RootVerdict::kUndecided);
  EXPECT_EQ(verdict({0.99999998000000034}), RootVerdict::kUndecided);
  // Degree 4 and above, non-finite and large entries go to Durand-Kerner.
  EXPECT_EQ(verdict({0.1, 0.1, 0.1, 0.1}), RootVerdict::kUndecided);
  EXPECT_EQ(verdict({0.1, 0.0, 0.0, 0.0, 0.1}), RootVerdict::kUndecided);
  EXPECT_EQ(verdict({std::numeric_limits<double>::quiet_NaN()}),
            RootVerdict::kUndecided);
  EXPECT_EQ(verdict({0.1, std::numeric_limits<double>::infinity()}),
            RootVerdict::kUndecided);
  EXPECT_EQ(verdict({300.0}), RootVerdict::kUndecided);
}

// `x` and the `k` doubles on either side of it.
std::vector<double> UlpNeighbourhood(double x, int k) {
  double lo = x;
  for (int i = 0; i < k; ++i) {
    lo = std::nextafter(lo, -std::numeric_limits<double>::infinity());
  }
  std::vector<double> out = {lo};
  for (int i = 0; i < 2 * k; ++i) {
    out.push_back(
        std::nextafter(out.back(), std::numeric_limits<double>::infinity()));
  }
  return out;
}

TEST(RootsTest, MatchesReferenceOnRecordedBoundaryFits) {
  // Two candidates recorded from ARIMA fits, with a root at
  // |z| = 1 + 1e-8 +- 1e-16, two degree-1 vectors on the same boundary, and
  // every vector within 24 ulps of them per coefficient.
  const std::vector<std::vector<double>> recorded = {
      {0.14429573376544325, 0.85570424767751441},
      {0.97227110160401065, -0.99999998000000034},
      {-0.99999998000000034},
      {0.99999998000000034},
  };
  RootCheckDifferential check;
  for (const std::vector<double>& base : recorded) {
    for (double c0 : UlpNeighbourhood(base[0], 24)) {
      if (base.size() == 1) {
        check.Check({c0});
        continue;
      }
      for (double c1 : UlpNeighbourhood(base[1], 24)) {
        check.Check({c0, c1});
      }
    }
  }
  EXPECT_EQ(check.checked(), 2u * 49 * 49 + 2u * 49);
  EXPECT_EQ(check.disagreements(), 0u) << "of " << check.checked();
}

TEST(RootsTest, MatchesReferenceOnZeroNanAndInfiniteEntries) {
  Rng rng(502);
  const double specials[] = {0.0,
                             -0.0,
                             1e-13,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::denorm_min(),
                             1e-300,
                             1e300};
  RootCheckDifferential check;
  for (int i = 0; i < 200000; ++i) {
    const size_t degree = 1 + rng.UniformInt(8);
    std::vector<double> c(degree);
    for (double& v : c) {
      v = 2.0 * rng.NextDouble() - 1.0;
    }
    const int replaced = 1 + static_cast<int>(rng.UniformInt(2));
    for (int k = 0; k < replaced; ++k) {
      const size_t which = rng.UniformInt(std::size(specials));
      c[rng.UniformInt(degree)] = specials[which];
    }
    check.Check(c);
  }
  EXPECT_EQ(check.disagreements(), 0u) << "of " << check.checked();
}

}  // namespace
}  // namespace faas
