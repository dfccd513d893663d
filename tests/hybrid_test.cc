#include "src/policy/hybrid.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sim/compiled_trace.h"
#include "src/sim/simulator.h"

namespace faas {
namespace {

HybridPolicyConfig DefaultConfig() { return HybridPolicyConfig{}; }

TEST(HybridConfigTest, DefaultsMatchPaper) {
  const HybridPolicyConfig config = DefaultConfig();
  EXPECT_EQ(config.bin_width, Duration::Minutes(1));
  EXPECT_EQ(config.num_bins, 240);
  EXPECT_EQ(config.HistogramRange(), Duration::Hours(4));
  EXPECT_DOUBLE_EQ(config.head_percentile, 5.0);
  EXPECT_DOUBLE_EQ(config.tail_percentile, 99.0);
  EXPECT_DOUBLE_EQ(config.prewarm_margin, 0.10);
  EXPECT_DOUBLE_EQ(config.keepalive_margin, 0.10);
  EXPECT_DOUBLE_EQ(config.cv_threshold, 2.0);
  EXPECT_DOUBLE_EQ(config.arima_margin, 0.15);
  EXPECT_TRUE(config.enable_prewarm);
  EXPECT_TRUE(config.enable_arima);
}

TEST(HybridPolicyTest, StartsInStandardKeepAlive) {
  HybridHistogramPolicy policy(DefaultConfig());
  const PolicyDecision decision = policy.NextWindows();
  EXPECT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kStandardKeepAlive);
  EXPECT_EQ(decision.prewarm_window, Duration::Zero());
  EXPECT_EQ(decision.keepalive_window, Duration::Hours(4));
}

TEST(HybridPolicyTest, StaysConservativeBelowMinSamples) {
  HybridPolicyConfig config = DefaultConfig();
  config.min_histogram_samples = 5;
  HybridHistogramPolicy policy(config);
  for (int i = 0; i < 4; ++i) {
    policy.RecordIdleTime(Duration::Minutes(30));
    policy.NextWindows();
  }
  EXPECT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kStandardKeepAlive);
  policy.RecordIdleTime(Duration::Minutes(30));
  policy.NextWindows();
  EXPECT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kHistogram);
}

TEST(HybridPolicyTest, ConcentratedPatternUsesHistogramWindows) {
  HybridHistogramPolicy policy(DefaultConfig());
  // App idles ~30 minutes between invocations, consistently.
  for (int i = 0; i < 50; ++i) {
    policy.RecordIdleTime(Duration::Minutes(30) + Duration::Seconds(i % 40));
  }
  const PolicyDecision decision = policy.NextWindows();
  EXPECT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kHistogram);
  // Head = 30min lower edge with 10% margin -> pre-warm at 27 minutes.
  EXPECT_EQ(decision.prewarm_window, Duration::Minutes(30) * 0.9);
  // Keep-alive spans from pre-warm to tail upper edge (31min) * 1.1.
  const Duration keepalive_end =
      decision.prewarm_window + decision.keepalive_window;
  EXPECT_EQ(keepalive_end, Duration::Minutes(31) * 1.1);
}

TEST(HybridPolicyTest, HeadAtZeroDisablesUnloading) {
  HybridHistogramPolicy policy(DefaultConfig());
  // ITs under one minute land in bin 0: the head rounds down to 0 and the
  // policy must not unload after execution (Figure 12 centre column).
  for (int i = 0; i < 50; ++i) {
    policy.RecordIdleTime(Duration::Seconds(20));
  }
  const PolicyDecision decision = policy.NextWindows();
  EXPECT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kHistogram);
  EXPECT_EQ(decision.prewarm_window, Duration::Zero());
  EXPECT_EQ(decision.keepalive_window, Duration::Minutes(1) * 1.1);
}

TEST(HybridPolicyTest, PrewarmDisabledKeepsLoadedUntilTail) {
  HybridPolicyConfig config = DefaultConfig();
  config.enable_prewarm = false;
  HybridHistogramPolicy policy(config);
  for (int i = 0; i < 50; ++i) {
    policy.RecordIdleTime(Duration::Minutes(60));
  }
  const PolicyDecision decision = policy.NextWindows();
  EXPECT_EQ(decision.prewarm_window, Duration::Zero());
  EXPECT_EQ(decision.keepalive_window, Duration::Minutes(61) * 1.1);
}

TEST(HybridPolicyTest, FlatDistributionFallsBackToStandard) {
  HybridPolicyConfig config = DefaultConfig();
  config.num_bins = 60;
  HybridHistogramPolicy policy(config);
  // One IT in every bin: CV of bin counts = 0 < threshold.
  for (int minute = 0; minute < 60; ++minute) {
    policy.RecordIdleTime(Duration::Minutes(minute) + Duration::Seconds(30));
  }
  policy.NextWindows();
  EXPECT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kStandardKeepAlive);
}

TEST(HybridPolicyTest, CvThresholdZeroTrustsAnyHistogram) {
  HybridPolicyConfig config = DefaultConfig();
  config.num_bins = 60;
  config.cv_threshold = 0.0;
  HybridHistogramPolicy policy(config);
  for (int minute = 0; minute < 60; ++minute) {
    policy.RecordIdleTime(Duration::Minutes(minute) + Duration::Seconds(30));
  }
  policy.NextWindows();
  EXPECT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kHistogram);
}

TEST(HybridPolicyTest, OobHeavyPatternUsesArima) {
  HybridPolicyConfig config = DefaultConfig();
  config.arima_min_observations = 8;
  HybridHistogramPolicy policy(config);
  // App idles ~5 hours, outside the 4-hour histogram range.
  for (int i = 0; i < 12; ++i) {
    policy.RecordIdleTime(Duration::Hours(5) + Duration::Minutes(i));
  }
  const PolicyDecision decision = policy.NextWindows();
  EXPECT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kArima);
  // Forecast ~305 minutes: pre-warm at 85% of it, keep-alive 30% of it.
  EXPECT_GT(decision.prewarm_window, Duration::Minutes(200));
  EXPECT_LT(decision.prewarm_window, Duration::Minutes(320));
  EXPECT_GT(decision.keepalive_window, Duration::Minutes(40));
  EXPECT_LT(decision.keepalive_window, Duration::Minutes(140));
}

TEST(HybridPolicyTest, ArimaWindowsUseFifteenPercentMargins) {
  HybridPolicyConfig config = DefaultConfig();
  HybridHistogramPolicy policy(config);
  // Perfectly constant 300-minute idle times: the forecast is 300.
  for (int i = 0; i < 20; ++i) {
    policy.RecordIdleTime(Duration::Minutes(300));
  }
  const PolicyDecision decision = policy.NextWindows();
  ASSERT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kArima);
  // Paper's example: prediction P -> pre-warm at 0.85 * P, keep-alive
  // 0.15 * P on each side (0.30 * P total).
  EXPECT_NEAR(decision.prewarm_window.minutes(), 0.85 * 300.0, 6.0);
  EXPECT_NEAR(decision.keepalive_window.minutes(), 0.30 * 300.0, 6.0);
}

TEST(HybridPolicyTest, ConfidenceMarginsWidenWithNoisyIdleTimes) {
  // Same mean IT (~300 min), different noise: the confidence-aware variant
  // must produce a wider keep-alive for the noisy app.
  HybridPolicyConfig config = DefaultConfig();
  config.arima_use_confidence = true;

  HybridHistogramPolicy quiet(config);
  HybridHistogramPolicy noisy(config);
  Rng rng(414);
  for (int i = 0; i < 30; ++i) {
    quiet.RecordIdleTime(Duration::FromMinutesF(300.0 +
                                                rng.UniformDouble(-2.0, 2.0)));
    noisy.RecordIdleTime(Duration::FromMinutesF(
        300.0 + rng.UniformDouble(-60.0, 60.0)));
  }
  const PolicyDecision quiet_decision = quiet.NextWindows();
  const PolicyDecision noisy_decision = noisy.NextWindows();
  ASSERT_EQ(quiet.last_decision(), HybridHistogramPolicy::DecisionKind::kArima);
  ASSERT_EQ(noisy.last_decision(), HybridHistogramPolicy::DecisionKind::kArima);
  EXPECT_GT(noisy_decision.keepalive_window, quiet_decision.keepalive_window);
}

TEST(HybridPolicyTest, ConfidenceMarginNeverBelowFixedMargin) {
  // A nearly deterministic series has tiny forecast error; the window must
  // not collapse below the fixed 15% margin.
  HybridPolicyConfig config = DefaultConfig();
  config.arima_use_confidence = true;
  HybridHistogramPolicy policy(config);
  for (int i = 0; i < 25; ++i) {
    policy.RecordIdleTime(Duration::Minutes(300));
  }
  const PolicyDecision decision = policy.NextWindows();
  ASSERT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kArima);
  EXPECT_GE(decision.keepalive_window + Duration::Millis(1),
            Duration::FromMinutesF(2.0 * 0.15 * 300.0) * 0.9);
}

TEST(HybridPolicyTest, ArimaDisabledFallsBackToStandard) {
  HybridPolicyConfig config = DefaultConfig();
  config.enable_arima = false;
  HybridHistogramPolicy policy(config);
  for (int i = 0; i < 12; ++i) {
    policy.RecordIdleTime(Duration::Hours(5));
  }
  const PolicyDecision decision = policy.NextWindows();
  EXPECT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kStandardKeepAlive);
  EXPECT_EQ(decision.keepalive_window, config.HistogramRange());
}

TEST(HybridPolicyTest, RevertsToHistogramWhenPatternReturns) {
  HybridPolicyConfig config = DefaultConfig();
  config.oob_threshold = 0.5;
  HybridHistogramPolicy policy(config);
  // Phase 1: OOB-heavy -> ARIMA.
  for (int i = 0; i < 10; ++i) {
    policy.RecordIdleTime(Duration::Hours(6));
  }
  policy.NextWindows();
  EXPECT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kArima);
  // Phase 2: a long run of in-bounds ITs dilutes the OOB fraction.
  for (int i = 0; i < 30; ++i) {
    policy.RecordIdleTime(Duration::Minutes(15));
  }
  policy.NextWindows();
  EXPECT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kHistogram);
}

TEST(HybridPolicyTest, DecisionCountersTrackBranches) {
  HybridHistogramPolicy policy(DefaultConfig());
  policy.NextWindows();  // Standard (empty histogram).
  for (int i = 0; i < 20; ++i) {
    policy.RecordIdleTime(Duration::Minutes(10));
  }
  policy.NextWindows();  // Histogram.
  policy.NextWindows();  // Histogram.
  EXPECT_EQ(policy.decisions_by_standard(), 1);
  EXPECT_EQ(policy.decisions_by_histogram(), 2);
  EXPECT_EQ(policy.decisions_by_arima(), 0);
}

TEST(HybridPolicyTest, CutoffPercentilesExcludeOutliers) {
  HybridPolicyConfig config = DefaultConfig();
  config.head_percentile = 5.0;
  config.tail_percentile = 99.0;
  HybridHistogramPolicy policy(config);
  // 96 ITs at 60 minutes, 2 outliers at 2 minutes, 2 outliers at 200.
  for (int i = 0; i < 2; ++i) {
    policy.RecordIdleTime(Duration::Minutes(2));
  }
  for (int i = 0; i < 96; ++i) {
    policy.RecordIdleTime(Duration::Minutes(60));
  }
  for (int i = 0; i < 2; ++i) {
    policy.RecordIdleTime(Duration::Minutes(200));
  }
  const PolicyDecision decision = policy.NextWindows();
  // 5th percentile skips the low outliers (rank 5 lands at 60 min); the
  // 99th percentile lands on the last 200-minute outlier's bin.
  EXPECT_EQ(decision.prewarm_window, Duration::Minutes(60) * 0.9);
  const Duration keepalive_end =
      decision.prewarm_window + decision.keepalive_window;
  EXPECT_EQ(keepalive_end, Duration::Minutes(201) * 1.1);
}

TEST(HybridPolicyTest, WiderCutoffsWidenWindows) {
  // Hybrid[0,100] must produce an earlier pre-warm and a later keep-alive
  // end than Hybrid[5,99] on the same data (Figure 16's trade-off).
  HybridPolicyConfig narrow = DefaultConfig();
  HybridPolicyConfig wide = DefaultConfig();
  wide.head_percentile = 0.0;
  wide.tail_percentile = 100.0;
  HybridHistogramPolicy narrow_policy(narrow);
  HybridHistogramPolicy wide_policy(wide);
  // 101 ITs: one low outlier (2 min), 99 at 60 min, one high outlier (180).
  // [5,99] must skip both outliers; [0,100] must include both.
  std::vector<Duration> its;
  its.push_back(Duration::Minutes(2));
  for (int i = 0; i < 99; ++i) {
    its.push_back(Duration::Minutes(60));
  }
  its.push_back(Duration::Minutes(180));
  for (Duration it : its) {
    narrow_policy.RecordIdleTime(it);
    wide_policy.RecordIdleTime(it);
  }
  const PolicyDecision narrow_decision = narrow_policy.NextWindows();
  const PolicyDecision wide_decision = wide_policy.NextWindows();
  EXPECT_LT(wide_decision.prewarm_window, narrow_decision.prewarm_window);
  EXPECT_GT(wide_decision.prewarm_window + wide_decision.keepalive_window,
            narrow_decision.prewarm_window + narrow_decision.keepalive_window);
}

TEST(HybridPolicyTest, FootprintStaysSmall) {
  // Design challenge #4: per-app metadata must be compact.  The production
  // implementation budgets 960 bytes of bins; allow generous slack for the
  // bookkeeping around them, but well under the size of a loaded app image.
  HybridHistogramPolicy policy(DefaultConfig());
  for (int i = 0; i < 500; ++i) {
    policy.RecordIdleTime(Duration::Minutes(i % 300));
  }
  EXPECT_LT(policy.ApproximateSizeBytes(), 8192u);
}

TEST(HybridPolicyTest, NameReflectsConfiguration) {
  HybridPolicyConfig config = DefaultConfig();
  config.head_percentile = 1.0;
  config.tail_percentile = 95.0;
  config.enable_arima = false;
  const HybridHistogramPolicy policy(config);
  EXPECT_EQ(policy.name(), "hybrid[1,95] range=240min cv=2 no-arima");
}

TEST(HybridPolicyTest, SnapshotRestoreRoundTripsLearnedState) {
  HybridHistogramPolicy policy(DefaultConfig());
  for (int i = 0; i < 50; ++i) {
    policy.RecordIdleTime(Duration::Minutes(30) + Duration::Seconds(i % 40));
  }
  const PolicyDecision before = policy.NextWindows();
  ASSERT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kHistogram);
  EXPECT_FALSE(policy.IsLearning());

  const auto snapshot = policy.SnapshotState();
  ASSERT_NE(snapshot, nullptr);
  policy.WipeState();
  // Wiped: the histogram is gone, so the policy is learning again and falls
  // back to the conservative standard keep-alive.
  EXPECT_TRUE(policy.IsLearning());
  const PolicyDecision wiped = policy.NextWindows();
  EXPECT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kStandardKeepAlive);
  EXPECT_EQ(wiped.keepalive_window, Duration::Hours(4));

  // Restoring the snapshot brings back the exact learned windows.
  ASSERT_TRUE(policy.RestoreState(*snapshot));
  EXPECT_FALSE(policy.IsLearning());
  const PolicyDecision after = policy.NextWindows();
  EXPECT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kHistogram);
  EXPECT_EQ(after.prewarm_window, before.prewarm_window);
  EXPECT_EQ(after.keepalive_window, before.keepalive_window);
}

TEST(HybridPolicyTest, WipedPolicyRelearnsFromFreshIdleTimes) {
  HybridPolicyConfig config = DefaultConfig();
  config.min_histogram_samples = 3;
  HybridHistogramPolicy policy(config);
  for (int i = 0; i < 10; ++i) {
    policy.RecordIdleTime(Duration::Minutes(30));
  }
  policy.NextWindows();
  ASSERT_FALSE(policy.IsLearning());
  policy.WipeState();
  EXPECT_TRUE(policy.IsLearning());
  for (int i = 0; i < 3; ++i) {
    policy.RecordIdleTime(Duration::Minutes(30));
    policy.NextWindows();
  }
  EXPECT_FALSE(policy.IsLearning());
  EXPECT_EQ(policy.last_decision(),
            HybridHistogramPolicy::DecisionKind::kHistogram);
}

TEST(HybridPolicyTest, RestoreRejectsForeignSnapshot) {
  HybridHistogramPolicy policy(DefaultConfig());
  // A base snapshot that is not a hybrid snapshot must be rejected without
  // disturbing the policy's state.
  const PolicyStateSnapshot foreign;
  EXPECT_FALSE(policy.RestoreState(foreign));
}

TEST(HybridFactoryTest, InstancesAreIndependent) {
  const HybridPolicyFactory factory{DefaultConfig()};
  const auto a = factory.CreateForApp();
  const auto b = factory.CreateForApp();
  // Train only `a`; `b` must stay in standard mode.
  for (int i = 0; i < 20; ++i) {
    a->RecordIdleTime(Duration::Minutes(10));
  }
  a->NextWindows();
  const PolicyDecision decision_b = b->NextWindows();
  EXPECT_EQ(decision_b.keepalive_window, Duration::Hours(4));
}

// Parameterised sweep over histogram ranges (Figure 15's green markers):
// the learned keep-alive window must never exceed the range (plus margin),
// and the standard fallback must equal the range exactly.
class HybridRangeSweep : public ::testing::TestWithParam<int> {};

TEST_P(HybridRangeSweep, WindowsBoundedByRange) {
  const int range_minutes = GetParam();
  HybridPolicyConfig config;
  config.num_bins = range_minutes;
  HybridHistogramPolicy policy(config);

  const PolicyDecision standard = policy.NextWindows();
  EXPECT_EQ(standard.keepalive_window, Duration::Minutes(range_minutes));

  for (int i = 0; i < 100; ++i) {
    policy.RecordIdleTime(Duration::Minutes(i % range_minutes));
  }
  const PolicyDecision decision = policy.NextWindows();
  const Duration end = decision.prewarm_window + decision.keepalive_window;
  EXPECT_LE(end, Duration::Minutes(range_minutes) * 1.1 + Duration::Millis(1));
}

INSTANTIATE_TEST_SUITE_P(Ranges, HybridRangeSweep,
                         ::testing::Values(60, 120, 180, 240));

// One app idling 4.5-7 hours between invocations: nearly every idle time is
// outside the 4-hour histogram, so the policy decides by ARIMA.
Trace ArimaHeavyTrace() {
  Trace trace;
  trace.horizon = Duration::Hours(24 * 6);
  AppTrace app;
  app.owner_id = "o";
  app.app_id = "arima";
  app.memory = {100.0, 90.0, 120.0, 1};
  FunctionTrace function;
  function.function_id = "f";
  function.trigger = TriggerType::kTimer;
  function.execution = {0, 0, 0, 1};
  Rng rng(2020);
  for (int64_t minute = 0; minute < 24 * 6 * 60;
       minute += rng.UniformInt(270, 420)) {
    function.invocations.push_back(TimePoint(minute * 60'000));
  }
  app.functions.push_back(std::move(function));
  trace.apps.push_back(std::move(app));
  return trace;
}

TEST(HybridArimaMemoTest, PoliciesOfOneAppShareEveryFit) {
  // The idle-time series is a property of the trace, so a second
  // ARIMA-enabled config replayed on the same app fits nothing new.
  const CompiledTrace compiled = CompiledTrace::Compile(ArimaHeavyTrace());
  const ColdStartSimulator simulator;
  ArimaMemo memo;
  const ArimaMemoScope scope(&memo);

  HybridHistogramPolicy hybrid(DefaultConfig());
  simulator.SimulateApp(compiled, 0, hybrid);
  ASSERT_GT(hybrid.decisions_by_arima(), 8);
  EXPECT_EQ(static_cast<int64_t>(memo.size()), hybrid.decisions_by_arima());

  HybridPolicyConfig no_prewarm_config = DefaultConfig();
  no_prewarm_config.enable_prewarm = false;
  HybridHistogramPolicy no_prewarm(no_prewarm_config);
  simulator.SimulateApp(compiled, 0, no_prewarm);
  EXPECT_EQ(no_prewarm.decisions_by_arima(), hybrid.decisions_by_arima());
  EXPECT_EQ(static_cast<int64_t>(memo.size()), hybrid.decisions_by_arima());
}

}  // namespace
}  // namespace faas
