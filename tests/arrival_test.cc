#include "src/workload/arrival.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/stats/descriptive.h"
#include "src/trace/types.h"

namespace faas {
namespace {

double StreamCv(const std::vector<TimePoint>& arrivals) {
  const std::vector<Duration> iats = InterArrivalTimes(arrivals);
  std::vector<double> minutes;
  minutes.reserve(iats.size());
  for (Duration iat : iats) {
    minutes.push_back(iat.minutes());
  }
  return CoefficientOfVariation(minutes);
}

TEST(DiurnalProfileTest, MultiplierBounded) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  for (int hour = 0; hour < 24 * 14; ++hour) {
    const double m = profile.MultiplierAt(
        TimePoint(static_cast<int64_t>(hour) * 3'600'000));
    EXPECT_GT(m, 0.0);
    EXPECT_LE(m, 1.0);
    EXPECT_GE(m, config.diurnal_baseline - 1e-9);
  }
}

TEST(DiurnalProfileTest, PeakAtConfiguredHour) {
  GeneratorConfig config;
  config.peak_hour_utc = 15.0;
  const DiurnalProfile profile(config);
  const double at_peak =
      profile.MultiplierAt(TimePoint(15 * 3'600'000));
  const double at_night =
      profile.MultiplierAt(TimePoint(3 * 3'600'000));
  EXPECT_GT(at_peak, 0.99);
  EXPECT_LT(at_night, at_peak);
}

TEST(DiurnalProfileTest, WeekendDampened) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  // Day 0 is Monday; day 5 Saturday.  Compare the same peak hour.
  const double weekday = profile.MultiplierAt(
      TimePoint(int64_t{15} * 3'600'000));
  const double weekend = profile.MultiplierAt(
      TimePoint((int64_t{5} * 24 + 15) * 3'600'000));
  EXPECT_LT(weekend, weekday);
}

TEST(DiurnalProfileDeathTest, RejectsWeekendDampeningOutsideUnitInterval) {
  GeneratorConfig config;
  config.weekend_dampening = -0.1;
  EXPECT_DEATH(DiurnalProfile{config}, "weekend dampening");
  config.weekend_dampening = 1.5;
  EXPECT_DEATH(DiurnalProfile{config}, "weekend dampening");
}

TEST(DiurnalProfileDeathTest, RejectsPeakHourOutsideDay) {
  GeneratorConfig config;
  config.peak_hour_utc = -0.5;
  EXPECT_DEATH(DiurnalProfile{config}, "peak hour");
  config.peak_hour_utc = 24.0;
  EXPECT_DEATH(DiurnalProfile{config}, "peak hour");
}

constexpr int64_t kMinuteMs = 60'000;
constexpr int64_t kHourMs = 3'600'000;
constexpr int64_t kDayMs = 86'400'000;

// Profiles the envelope must stay exact under: the default, fractional peak
// hours (minute edges then fall off the hump's symmetry), a flat profile
// (a zero-slope band), and both extremes of the weekend dampening.
std::vector<GeneratorConfig> EnvelopeConfigs() {
  std::vector<GeneratorConfig> configs(1);
  for (double peak : {0.0, 15.5, 23.99}) {
    configs.emplace_back().peak_hour_utc = peak;
  }
  configs.emplace_back().diurnal_baseline = 1.0;
  for (double dampening : {0.0, 1.0}) {
    configs.emplace_back().weekend_dampening = dampening;
  }
  return configs;
}

// Checks Accepts(t, u) == (u < MultiplierAt(t)) for u at the multiplier,
// at the band's own bounds, and at the neighbours of all three.  Counts
// every mismatch in `mismatches` and describes the first few in `errors`.
void CheckAcceptsAt(const DiurnalProfile& profile, TimePoint t,
                    std::ostringstream& errors, int& mismatches) {
  const double m = profile.MultiplierAt(t);
  const DiurnalProfile::Band band = profile.BandAt(t);
  for (double at : {m, band.lower, band.upper}) {
    for (double u : {at, std::nextafter(at, -1.0), std::nextafter(at, 2.0)}) {
      if (profile.Accepts(t, u) == (u < m)) {
        continue;
      }
      if (++mismatches <= 10) {
        errors << "t=" << t.millis_since_origin() << " u=" << u
               << " m=" << m << " band=[" << band.lower << ", "
               << band.upper << "]\n";
      }
    }
  }
}

TEST(DiurnalProfileTest, EnvelopeAcceptsExactlyBelowMultiplier) {
  for (const GeneratorConfig& config : EnvelopeConfigs()) {
    const DiurnalProfile profile(config);
    std::ostringstream errors;
    errors.precision(17);
    int mismatches = 0;
    for (int64_t day = 0; day < 14; ++day) {
      for (int64_t minute = 0; minute <= 1440; ++minute) {
        const int64_t edge = day * kDayMs + minute * kMinuteMs;
        for (int64_t offset : {-1, 0, 1}) {
          if (edge + offset >= 0) {
            CheckAcceptsAt(profile, TimePoint(edge + offset), errors,
                           mismatches);
          }
        }
      }
      // The peak and trough instants and the minutes holding them.
      const auto peak_ms =
          static_cast<int64_t>(config.peak_hour_utc * kHourMs);
      for (int64_t at : {peak_ms, (peak_ms + 12 * kHourMs) % kDayMs}) {
        for (int64_t offset : {int64_t{0}, kMinuteMs / 2, kMinuteMs - 1}) {
          CheckAcceptsAt(profile,
                         TimePoint(day * kDayMs + at / kMinuteMs * kMinuteMs +
                                   offset),
                         errors, mismatches);
        }
        CheckAcceptsAt(profile, TimePoint(day * kDayMs + at), errors,
                       mismatches);
      }
    }
    EXPECT_EQ(mismatches, 0) << "peak " << config.peak_hour_utc << " baseline "
                             << config.diurnal_baseline << " dampening "
                             << config.weekend_dampening << "\n"
                             << errors.str();
  }
}

TEST(DiurnalProfileTest, EnvelopeContainsMultiplierEverywhere) {
  // Dense interior sampling (every 7 s, off the minute grid) over two weeks.
  for (const GeneratorConfig& config : EnvelopeConfigs()) {
    const DiurnalProfile profile(config);
    int outside = 0;
    for (int64_t ms = 0; ms < 14 * kDayMs; ms += 7'001) {
      const TimePoint t(ms);
      const double m = profile.MultiplierAt(t);
      const DiurnalProfile::Band band = profile.BandAt(t);
      outside += (band.lower <= m && m <= band.upper) ? 0 : 1;
    }
    EXPECT_EQ(outside, 0) << "peak " << config.peak_hour_utc;
  }
}

TEST(DiurnalProfileTest, WeekAverageMatchesHourlyGridSum) {
  for (const GeneratorConfig& config : EnvelopeConfigs()) {
    const DiurnalProfile profile(config);
    double average = 0.0;
    constexpr int kGrid = 24 * 7;
    for (int i = 0; i < kGrid; ++i) {
      average += profile.MultiplierAt(TimePoint(int64_t{i} * kHourMs));
    }
    average /= kGrid;
    EXPECT_EQ(profile.week_average(), average) << "peak "
                                               << config.peak_hour_utc;
  }
}

TEST(DiurnalProfileTest, BeforeOriginFallsBackToExactComparison) {
  const DiurnalProfile profile{GeneratorConfig{}};
  const TimePoint t(-5 * kMinuteMs);
  const double m = profile.MultiplierAt(t);
  EXPECT_TRUE(profile.Accepts(t, std::nextafter(m, -1.0)));
  EXPECT_FALSE(profile.Accepts(t, m));
}

TEST(PoissonArrivalsTest, ThinningMatchesExactMultiplierComparison) {
  // The thinning loop with every candidate compared against MultiplierAt
  // directly: the envelope must not change a single accepted instant.
  for (const GeneratorConfig& config : EnvelopeConfigs()) {
    const DiurnalProfile profile(config);
    const double rate = 5'000.0;
    const Duration horizon = Duration::Days(14);
    Rng rng(511);
    Rng reference_rng = rng;
    const std::vector<TimePoint> arrivals =
        GeneratePoissonArrivals(rate, horizon, profile, rng);

    std::vector<TimePoint> expected;
    const double peak_rate_per_ms =
        (rate / profile.week_average()) / static_cast<double>(kDayMs);
    double t_ms = 0.0;
    while (true) {
      t_ms += reference_rng.NextExponential(peak_rate_per_ms);
      if (t_ms >= static_cast<double>(horizon.millis())) {
        break;
      }
      const TimePoint candidate(static_cast<int64_t>(t_ms));
      if (reference_rng.NextDouble() < profile.MultiplierAt(candidate)) {
        expected.push_back(candidate);
      }
    }
    EXPECT_EQ(arrivals, expected) << "peak " << config.peak_hour_utc;
    EXPECT_EQ(rng.Next(), reference_rng.Next()) << "draw count differs";
  }
}

TEST(PeriodicArrivalsTest, RespectsPeriodAndHorizon) {
  Rng rng(500);
  const Duration period = Duration::Minutes(10);
  const Duration horizon = Duration::Hours(5);
  const auto arrivals = GeneratePeriodicArrivals(period, horizon, rng);
  // 5 hours / 10 minutes = 30 slots (29 or 30 events depending on phase).
  EXPECT_GE(arrivals.size(), 29u);
  EXPECT_LE(arrivals.size(), 31u);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], period);
  }
  EXPECT_LT(arrivals.back().millis_since_origin(), horizon.millis());
}

TEST(PeriodicArrivalsTest, ZeroJitterGivesCvZero) {
  Rng rng(501);
  const auto arrivals = GeneratePeriodicArrivals(
      Duration::Minutes(5), Duration::Days(1), rng, 0.0);
  EXPECT_NEAR(StreamCv(arrivals), 0.0, 1e-9);
}

TEST(PeriodicArrivalsTest, JitterRaisesCvSlightly) {
  Rng rng(502);
  const auto arrivals = GeneratePeriodicArrivals(
      Duration::Minutes(5), Duration::Days(2), rng, 0.3);
  const double cv = StreamCv(arrivals);
  EXPECT_GT(cv, 0.01);
  EXPECT_LT(cv, 0.5);
}

TEST(PeriodicArrivalsTest, JitterUpToOnePeriodIsAlreadyAscending) {
  // Only a jitter above one period is sorted; below it the stream must
  // come out ascending by itself, for any period (down to 1 ms, where the
  // truncation of the jitter matters) and horizon (the clamp at both ends).
  Rng params(511);
  for (int i = 0; i < 4000; ++i) {
    const int64_t period_ms =
        i % 2 == 0 ? 1 + static_cast<int64_t>(params.UniformInt(7))
                   : 1 + static_cast<int64_t>(params.UniformInt(3'600'000));
    const int64_t horizon_ms =
        period_ms * (1 + static_cast<int64_t>(params.UniformInt(60))) +
        static_cast<int64_t>(params.UniformInt(
            static_cast<uint64_t>(period_ms)));
    double fraction = params.NextDouble();
    if (i % 4 == 1) {
      fraction = 1.0;
    } else if (i % 4 == 3) {
      fraction = std::nextafter(1.0, 0.0);
    }
    Rng rng(static_cast<uint64_t>(i));
    const std::vector<TimePoint> arrivals =
        GeneratePeriodicArrivals(Duration::Millis(period_ms),
                                 Duration::Millis(horizon_ms), rng, fraction);
    ASSERT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()))
        << "period " << period_ms << " ms, horizon " << horizon_ms
        << " ms, jitter " << fraction;
    ASSERT_FALSE(arrivals.empty());
    EXPECT_GE(arrivals.front().millis_since_origin(), 0);
    EXPECT_LT(arrivals.back().millis_since_origin(), horizon_ms);
  }
  // Above one period neighbours can cross, and the stream is sorted.
  Rng rng(512);
  const std::vector<TimePoint> wide = GeneratePeriodicArrivals(
      Duration::Millis(10), Duration::Days(1), rng, 3.0);
  EXPECT_TRUE(std::is_sorted(wide.begin(), wide.end()));
}

TEST(PoissonArrivalsTest, MeanRateMatchesRequest) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  Rng rng(503);
  const double rate = 2000.0;  // Per day.
  const Duration horizon = Duration::Days(7);
  const auto arrivals =
      GeneratePoissonArrivals(rate, horizon, profile, rng);
  const double realised =
      static_cast<double>(arrivals.size()) / horizon.days();
  EXPECT_NEAR(realised, rate, rate * 0.05);
}

TEST(PoissonArrivalsTest, CvNearOne) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  Rng rng(504);
  const auto arrivals = GeneratePoissonArrivals(5000.0, Duration::Days(7),
                                                profile, rng);
  // Diurnal modulation inflates the CV slightly above the memoryless 1.0.
  const double cv = StreamCv(arrivals);
  EXPECT_GT(cv, 0.9);
  EXPECT_LT(cv, 1.5);
}

TEST(PoissonArrivalsTest, ArrivalsSortedWithinHorizon) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  Rng rng(505);
  const Duration horizon = Duration::Days(1);
  const auto arrivals =
      GeneratePoissonArrivals(300.0, horizon, profile, rng);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LE(arrivals[i - 1], arrivals[i]);
  }
  if (!arrivals.empty()) {
    EXPECT_GE(arrivals.front(), TimePoint::Origin());
    EXPECT_LT(arrivals.back().millis_since_origin(), horizon.millis());
  }
}

TEST(PoissonArrivalsTest, ZeroRateGivesNoArrivals) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  Rng rng(506);
  EXPECT_TRUE(
      GeneratePoissonArrivals(0.0, Duration::Days(1), profile, rng).empty());
}

TEST(PoissonArrivalsTest, FollowsDiurnalShape) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  Rng rng(507);
  const auto arrivals = GeneratePoissonArrivals(
      100'000.0, Duration::Days(7), profile, rng);
  // Count arrivals in the peak hour vs a deep-night hour across weekdays.
  int64_t peak = 0;
  int64_t night = 0;
  for (TimePoint t : arrivals) {
    const int64_t hour_of_day = (t.millis_since_origin() / 3'600'000) % 24;
    const int64_t day = t.millis_since_origin() / 86'400'000;
    if (day % 7 >= 5) {
      continue;
    }
    if (hour_of_day == 15) {
      ++peak;
    }
    if (hour_of_day == 3) {
      ++night;
    }
  }
  EXPECT_GT(static_cast<double>(peak),
            1.3 * static_cast<double>(night));
}

TEST(BurstyArrivalsTest, CvWellAboveOne) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  Rng rng(508);
  const auto arrivals = GenerateBurstyArrivals(
      500.0, Duration::Days(7), profile, rng, 10.0, Duration::Seconds(30));
  EXPECT_GT(StreamCv(arrivals), 1.5);
}

TEST(BurstyArrivalsTest, MeanRateApproximatelyPreserved) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  Rng rng(509);
  const double rate = 1000.0;
  const auto arrivals = GenerateBurstyArrivals(
      rate, Duration::Days(14), profile, rng, 8.0, Duration::Seconds(45));
  const double realised = static_cast<double>(arrivals.size()) / 14.0;
  EXPECT_NEAR(realised, rate, rate * 0.15);
}

TEST(BurstyArrivalsTest, IntraBurstSpacingIndependentOfRarity) {
  // The production insight: rare apps still see tight clumps.  Median IAT
  // should be near the intra-burst scale even at a very low mean rate.
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  Rng rng(510);
  const auto arrivals = GenerateBurstyArrivals(
      24.0, Duration::Days(14), profile, rng, 8.0, Duration::Seconds(60));
  const std::vector<Duration> iats = InterArrivalTimes(arrivals);
  ASSERT_GT(iats.size(), 10u);
  std::vector<double> minutes;
  for (Duration iat : iats) {
    minutes.push_back(iat.minutes());
  }
  EXPECT_LT(Median(minutes), 10.0);
}

TEST(BurstyArrivalsTest, OutputIsTheSortedRawStream) {
  // The generator sorts its raw stream with an insertion pass that hands
  // over to std::sort when its move budget runs out.  Tight bursts barely
  // overlap (the pass finishes); long ones overlap everywhere (the budget
  // runs out).  Either way the result is the raw stream, sorted: rebuild
  // the raw stream from the same draws and compare.
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  const Duration horizon = Duration::Days(3);
  uint64_t seed = 513;
  for (const double events_per_burst : {1.0, 3.0, 40.0}) {
    for (const Duration iat :
         {Duration::Seconds(1), Duration::Minutes(30), Duration::Hours(6)}) {
      for (const double rate : {50.0, 5000.0}) {
        Rng rng(seed);
        Rng mirror(seed);
        ++seed;
        const std::vector<TimePoint> arrivals = GenerateBurstyArrivals(
            rate, horizon, profile, rng, events_per_burst, iat);
        std::vector<TimePoint> raw;
        const double horizon_ms = static_cast<double>(horizon.millis());
        for (TimePoint epoch : GeneratePoissonArrivals(
                 rate / events_per_burst, horizon, profile, mirror)) {
          raw.push_back(epoch);
          const double extra = mirror.NextPoisson(events_per_burst - 1.0);
          double t_ms = static_cast<double>(epoch.millis_since_origin());
          for (double k = 0; k < extra; k += 1.0) {
            t_ms += mirror.NextExponential(
                1.0 / static_cast<double>(iat.millis()));
            if (t_ms >= horizon_ms) {
              break;
            }
            raw.emplace_back(static_cast<int64_t>(t_ms));
          }
        }
        std::sort(raw.begin(), raw.end());
        EXPECT_EQ(arrivals, raw)
            << events_per_burst << " per burst, " << iat.millis()
            << " ms apart, " << rate << " per day";
      }
    }
  }
}

TEST(SnapToTimerPeriodTest, PicksNearestGridEntry) {
  EXPECT_EQ(SnapToTimerPeriod(1440.0), Duration::Minutes(1));
  EXPECT_EQ(SnapToTimerPeriod(288.0), Duration::Minutes(5));
  EXPECT_EQ(SnapToTimerPeriod(24.0), Duration::Hours(1));
  EXPECT_EQ(SnapToTimerPeriod(1.0), Duration::Days(1));
  EXPECT_EQ(SnapToTimerPeriod(0.0), Duration::Days(1));
  // Rates above once-per-minute still snap to the 1-minute floor.
  EXPECT_EQ(SnapToTimerPeriod(1'000'000.0), Duration::Minutes(1));
}

}  // namespace
}  // namespace faas
