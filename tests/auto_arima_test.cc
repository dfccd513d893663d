#include "src/arima/auto_arima.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace faas {
namespace {

TEST(AutoArimaTest, TooShortSeriesReturnsNullopt) {
  const std::vector<double> series = {1.0, 2.0, 3.0};
  EXPECT_FALSE(AutoArima(series).has_value());
}

TEST(AutoArimaTest, WhiteNoisePrefersSmallOrders) {
  Rng rng(300);
  std::vector<double> series(1500);
  for (double& s : series) {
    s = rng.NextGaussian();
  }
  const auto model = AutoArima(series);
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->order().d, 0);
  EXPECT_LE(model->order().p + model->order().q, 2);
}

TEST(AutoArimaTest, SelectsDifferencingForRandomWalk) {
  Rng rng(301);
  std::vector<double> series(800);
  double level = 0.0;
  for (double& s : series) {
    level += rng.NextGaussian();
    s = level;
  }
  const auto model = AutoArima(series);
  ASSERT_TRUE(model.has_value());
  EXPECT_GE(model->order().d, 1);
}

TEST(AutoArimaTest, Ar2SignalGetsArTerms) {
  Rng rng(302);
  std::vector<double> series(4000);
  series[0] = series[1] = 0.0;
  for (size_t t = 2; t < series.size(); ++t) {
    series[t] = 0.6 * series[t - 1] + 0.25 * series[t - 2] +
                rng.NextGaussian();
  }
  const auto model = AutoArima(series);
  ASSERT_TRUE(model.has_value());
  EXPECT_GE(model->order().p, 1);
}

TEST(AutoArimaTest, StepwiseAndGridAgreeOnStrongSignal) {
  Rng rng(303);
  std::vector<double> series(3000);
  double x = 0.0;
  for (double& s : series) {
    x = 0.8 * x + rng.NextGaussian();
    s = x;
  }
  AutoArimaOptions grid_options;
  grid_options.stepwise = false;
  AutoArimaOptions stepwise_options;
  stepwise_options.stepwise = true;
  const auto grid = AutoArima(series, grid_options);
  const auto stepwise = AutoArima(series, stepwise_options);
  ASSERT_TRUE(grid.has_value());
  ASSERT_TRUE(stepwise.has_value());
  // Both should find models whose AIC is within a whisker of each other.
  EXPECT_NEAR(grid->Aic(), stepwise->Aic(),
              0.01 * std::fabs(grid->Aic()) + 10.0);
}

TEST(AutoArimaTest, ShortIdleTimeSeriesStillFits) {
  // The policy calls auto-ARIMA with as few as 8 idle times.
  const std::vector<double> its = {290.0, 310.0, 305.0, 295.0,
                                   300.0, 302.0, 297.0, 303.0};
  const auto model = AutoArima(its);
  ASSERT_TRUE(model.has_value());
  EXPECT_NEAR(model->ForecastOne(), 300.0, 30.0);
}

TEST(AutoArimaTest, ForecastTracksSlowDrift) {
  // Idle times drifting upward (an app slowly getting quieter).
  std::vector<double> its;
  for (int i = 0; i < 30; ++i) {
    its.push_back(250.0 + 4.0 * i);
  }
  const auto model = AutoArima(its);
  ASSERT_TRUE(model.has_value());
  // Next IT should be predicted near (or above) the last observed ~366.
  EXPECT_GT(model->ForecastOne(), 330.0);
}

TEST(AutoArimaTest, RespectsMaxOrderBounds) {
  Rng rng(304);
  std::vector<double> series(500);
  for (double& s : series) {
    s = rng.NextGaussian();
  }
  AutoArimaOptions options;
  options.max_p = 1;
  options.max_q = 0;
  const auto model = AutoArima(series, options);
  ASSERT_TRUE(model.has_value());
  EXPECT_LE(model->order().p, 1);
  EXPECT_EQ(model->order().q, 0);
}

// Order, coefficients, AIC and one-step forecast as hex floats, so the golden
// comparison below is byte equality, not a tolerance.
std::string Fingerprint(const ArimaModel& model) {
  std::string out = model.order().ToString();
  char buf[40];
  const auto append = [&](const char* label, double value) {
    std::snprintf(buf, sizeof(buf), " %s%a", label, value);
    out += buf;
  };
  for (double c : model.ar()) {
    append("ar=", c);
  }
  for (double c : model.ma()) {
    append("ma=", c);
  }
  append("aic=", model.Aic());
  append("f1=", model.ForecastOne());
  return out;
}

// Idle-time-like series (the policy sends 8-41 points): a level plus an
// AR(1) of sums of uniforms, built without libm so the input is exact.
std::vector<double> IdleTimes(uint64_t seed, size_t n, double phi,
                              double level, double drift) {
  Rng rng(seed);
  std::vector<double> series(n);
  double x = 0.0;
  for (size_t t = 0; t < n; ++t) {
    x = phi * x + (rng.NextDouble() + rng.NextDouble() + rng.NextDouble() -
                   1.5);
    series[t] = level + drift * static_cast<double>(t) + 40.0 * x;
  }
  return series;
}

// The selected model of each series, recorded before the root check and
// the CSS objective were rewritten for speed; every bit must still match.
TEST(AutoArimaTest, GoldenFitsAreBitIdentical) {
  struct Case {
    std::vector<double> series;
    bool stepwise;
    const char* expected;
  };
  const std::vector<Case> cases = {
      {{290.0, 310.0, 305.0, 295.0, 300.0, 302.0, 297.0, 303.0}, false,
       "ARIMA(0,0,1) ma=-0x1.ffffffa9c9904p-1 aic=0x1.99e1d1b87e5f3p+5 "
       "f1=0x1.2c3ffffe25d4ap+8"},
      {IdleTimes(401, 12, 0.3, 600.0, 0.0), false,
       "ARIMA(0,0,0) aic=0x1.a93259bf97bbap+6 f1=0x1.2bb0659b222d7p+9"},
      {IdleTimes(402, 24, 0.7, 900.0, 2.0), false,
       "ARIMA(0,1,0) aic=0x1.968fb8cf2aa6fp+7 f1=0x1.dd7e28cbe1a03p+9"},
      {IdleTimes(403, 41, -0.4, 300.0, 0.0), false,
       "ARIMA(2,0,3) ar=-0x1.f3b35f8c40acdp-1 ar=-0x1.279ac0e0d247bp-1 "
       "ma=0x1.7629db69b32f8p-1 ma=0x1.38a1b9ae80d1p-1 "
       "ma=-0x1.5d972acfcdd47p-2 aic=0x1.6bb6cc274130ap+8 "
       "f1=0x1.223344cc8334cp+8"},
      {IdleTimes(404, 41, 0.95, 1200.0, 5.0), false,
       "ARIMA(2,1,3) ar=-0x1.dedd42c96fd93p-2 ar=-0x1.ceedb4ec1b12ep-1 "
       "ma=0x1.cae5b2f438a92p-3 ma=0x1.6635ad3d651f8p-1 "
       "ma=-0x1.0c83be902be74p-1 aic=0x1.526ed24277876p+8 "
       "f1=0x1.488bc76b2ed34p+10"},
      {IdleTimes(405, 200, 0.6, 500.0, 0.0), false,
       "ARIMA(1,0,0) ar=0x1.0a2f8a3a0e9ccp-1 aic=0x1.b1473c5a3fb1dp+10 "
       "f1=0x1.003dd8667e35ap+9"},
      {IdleTimes(406, 60, 0.5, 700.0, 1.0), true,
       "ARIMA(1,1,1) ar=0x1.0068bdf68f0acp-1 ma=-0x1.d3924c4202006p-1 "
       "aic=0x1.0fdb54db5713fp+9 f1=0x1.730ea7dce299bp+9"},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    AutoArimaOptions options;
    options.stepwise = cases[i].stepwise;
    const auto model = AutoArima(cases[i].series, options);
    ASSERT_TRUE(model.has_value()) << "case " << i;
    EXPECT_EQ(Fingerprint(*model), cases[i].expected) << "case " << i;
  }
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// Every field a caller reads off a fitted model, compared bit for bit.
void ExpectSameModel(const ArimaModel& a, const ArimaModel& b) {
  EXPECT_EQ(a.order(), b.order());
  ASSERT_EQ(a.ar().size(), b.ar().size());
  for (size_t i = 0; i < a.ar().size(); ++i) {
    EXPECT_EQ(Bits(a.ar()[i]), Bits(b.ar()[i]));
  }
  ASSERT_EQ(a.ma().size(), b.ma().size());
  for (size_t i = 0; i < a.ma().size(); ++i) {
    EXPECT_EQ(Bits(a.ma()[i]), Bits(b.ma()[i]));
  }
  EXPECT_EQ(Bits(a.mean()), Bits(b.mean()));
  EXPECT_EQ(Bits(a.sigma2()), Bits(b.sigma2()));
  EXPECT_EQ(Bits(a.Aic()), Bits(b.Aic()));
  EXPECT_EQ(Bits(a.ForecastOne()), Bits(b.ForecastOne()));
  const auto a_interval = a.ForecastWithErrors(1);
  const auto b_interval = b.ForecastWithErrors(1);
  ASSERT_EQ(a_interval.size(), 1u);
  ASSERT_EQ(b_interval.size(), 1u);
  EXPECT_EQ(Bits(a_interval[0].mean), Bits(b_interval[0].mean));
  EXPECT_EQ(Bits(a_interval[0].stderr_), Bits(b_interval[0].stderr_));
}

TEST(AutoArimaMemoTest, HitMatchesFreshFitBitForBit) {
  const std::vector<double> series = IdleTimes(410, 41, 0.6, 300.0, 1.0);
  const std::optional<ArimaModel> fresh = AutoArima(series);
  ASSERT_TRUE(fresh.has_value());

  ArimaMemo memo;
  const ArimaMemoScope scope(&memo);
  const std::optional<ArimaModel> miss = AutoArima(series);
  EXPECT_EQ(memo.size(), 1u);
  const std::optional<ArimaModel> hit = AutoArima(series);
  EXPECT_EQ(memo.size(), 1u);  // Served from the memo, not fitted again.
  ASSERT_TRUE(miss.has_value());
  ASSERT_TRUE(hit.has_value());
  ExpectSameModel(*miss, *fresh);
  ExpectSameModel(*hit, *fresh);
}

TEST(AutoArimaMemoTest, OneUlpChangeInOneElementIsAMiss) {
  const std::vector<double> series = IdleTimes(411, 30, 0.4, 600.0, 0.0);
  std::vector<double> nudged = series;
  nudged[17] = std::nextafter(nudged[17], 1e9);
  ArimaMemo memo;
  const ArimaMemoScope scope(&memo);
  AutoArima(series);
  const std::optional<ArimaModel> model = AutoArima(nudged);
  EXPECT_EQ(memo.size(), 2u);
  const ArimaMemoScope unmemoized(nullptr);
  const std::optional<ArimaModel> fresh = AutoArima(nudged);
  ASSERT_TRUE(model.has_value());
  ASSERT_TRUE(fresh.has_value());
  ExpectSameModel(*model, *fresh);
}

TEST(AutoArimaMemoTest, SignedZeroIsAMiss) {
  // == treats -0.0 and +0.0 as equal; the memo compares bytes.
  std::vector<double> series = IdleTimes(412, 20, 0.3, 200.0, 0.0);
  series[5] = 0.0;
  std::vector<double> negative = series;
  negative[5] = -0.0;
  ArimaMemo memo;
  const ArimaMemoScope scope(&memo);
  AutoArima(series);
  AutoArima(negative);
  EXPECT_EQ(memo.size(), 2u);
}

TEST(AutoArimaMemoTest, EveryOptionFieldIsPartOfTheKey) {
  const std::vector<double> series = IdleTimes(413, 36, 0.5, 400.0, 0.5);
  AutoArimaOptions max_p;
  max_p.max_p = 2;
  AutoArimaOptions stepwise;
  stepwise.stepwise = true;
  AutoArimaOptions no_mean;
  no_mean.with_mean = false;
  AutoArimaOptions max_q;
  max_q.max_q = 1;
  AutoArimaOptions max_d;
  max_d.max_d = 1;

  ArimaMemo memo;
  const ArimaMemoScope scope(&memo);
  AutoArima(series, AutoArimaOptions{});
  size_t expected = 1;
  for (const AutoArimaOptions& options :
       {max_p, stepwise, no_mean, max_q, max_d}) {
    const std::optional<ArimaModel> memoized = AutoArima(series, options);
    EXPECT_EQ(memo.size(), ++expected);
    const ArimaMemoScope unmemoized(nullptr);
    const std::optional<ArimaModel> fresh = AutoArima(series, options);
    ASSERT_EQ(memoized.has_value(), fresh.has_value());
    if (fresh.has_value()) {
      ExpectSameModel(*memoized, *fresh);
    }
  }
}

TEST(AutoArimaMemoTest, NothingIsRecordedWithoutAScope) {
  ArimaMemo memo;
  const std::vector<double> series = IdleTimes(414, 24, 0.2, 500.0, 0.0);
  AutoArima(series);
  EXPECT_EQ(memo.size(), 0u);
  {
    const ArimaMemoScope scope(&memo);
    AutoArima(series);
  }
  EXPECT_EQ(memo.size(), 1u);
  // The scope has ended: a fresh series fits without touching the memo.
  AutoArima(IdleTimes(415, 24, 0.2, 500.0, 0.0));
  EXPECT_EQ(memo.size(), 1u);
  memo.Clear();
  EXPECT_EQ(memo.size(), 0u);
}

TEST(AutoArimaMemoTest, NestedScopesRestoreTheOuterMemo) {
  const std::vector<double> first = IdleTimes(416, 20, 0.3, 300.0, 0.0);
  const std::vector<double> second = IdleTimes(417, 20, 0.3, 300.0, 0.0);
  const std::vector<double> third = IdleTimes(418, 20, 0.3, 300.0, 0.0);
  ArimaMemo outer;
  ArimaMemo inner;
  const ArimaMemoScope outer_scope(&outer);
  AutoArima(first);
  {
    const ArimaMemoScope inner_scope(&inner);
    AutoArima(second);
    {
      const ArimaMemoScope none(nullptr);
      AutoArima(third);
    }
    AutoArima(first);  // A miss in the inner memo.
  }
  AutoArima(third);
  EXPECT_EQ(outer.size(), 2u);  // first, third
  EXPECT_EQ(inner.size(), 2u);  // second, first
}

}  // namespace
}  // namespace faas
