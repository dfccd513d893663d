#include "src/policy/production_policy.h"

#include <gtest/gtest.h>

#include "src/sim/sweep.h"
#include "src/workload/generator.h"

namespace faas {
namespace {

TimePoint AtDay(int day, int minute = 0) {
  return TimePoint(static_cast<int64_t>(day) * 86'400'000 +
                   static_cast<int64_t>(minute) * 60'000);
}

TEST(ProductionPolicyTest, StartsConservative) {
  ProductionHybridPolicy policy{ProductionPolicyConfig{}};
  const PolicyDecision decision = policy.NextWindows();
  EXPECT_EQ(decision.prewarm_window, Duration::Zero());
  EXPECT_EQ(decision.keepalive_window, Duration::Hours(4));
}

TEST(ProductionPolicyTest, LearnsPatternWithNinetySecondSafety) {
  ProductionHybridPolicy policy{ProductionPolicyConfig{}};
  for (int i = 0; i < 50; ++i) {
    policy.RecordIdleTimeAt(AtDay(0, i * 25), Duration::Minutes(25));
  }
  const PolicyDecision decision = policy.NextWindows();
  // Head = 25min * 0.9 = 22.5min, then shifted 90s early.
  EXPECT_EQ(decision.prewarm_window,
            Duration::Minutes(25) * 0.9 - Duration::Seconds(90));
  // The keep-alive end is unchanged by the safety shift.
  EXPECT_EQ(decision.prewarm_window + decision.keepalive_window,
            Duration::Minutes(26) * 1.1);
}

TEST(ProductionPolicyTest, SafetyShiftNeverMakesPrewarmNegative) {
  ProductionPolicyConfig config;
  config.prewarm_safety = Duration::Minutes(30);
  ProductionHybridPolicy policy{config};
  for (int i = 0; i < 50; ++i) {
    policy.RecordIdleTimeAt(AtDay(0, i * 2), Duration::Minutes(2));
  }
  const PolicyDecision decision = policy.NextWindows();
  EXPECT_GE(decision.prewarm_window, Duration::Zero());
}

TEST(ProductionPolicyTest, AggregatesAcrossDays) {
  ProductionHybridPolicy policy{ProductionPolicyConfig{}};
  // Three days of the same 40-minute pattern: the aggregate should be
  // representative even though each single day has few samples.
  for (int day = 0; day < 3; ++day) {
    for (int i = 0; i < 3; ++i) {
      policy.RecordIdleTimeAt(AtDay(day, i * 40), Duration::Minutes(40));
    }
  }
  EXPECT_EQ(policy.store().retained_days(), 3);
  const PolicyDecision decision = policy.NextWindows();
  EXPECT_GT(decision.prewarm_window, Duration::Zero());
}

TEST(ProductionPolicyTest, PatternChangeFadesWithRetention) {
  ProductionPolicyConfig config;
  config.store.retention_days = 2;
  ProductionHybridPolicy policy{config};
  // Old pattern on day 0: 10-minute idles.
  for (int i = 0; i < 30; ++i) {
    policy.RecordIdleTimeAt(AtDay(0), Duration::Minutes(10));
  }
  // New pattern on days 3-4 (day 0 falls out of the 2-day retention).
  for (int day = 3; day <= 4; ++day) {
    for (int i = 0; i < 30; ++i) {
      policy.RecordIdleTimeAt(AtDay(day), Duration::Minutes(60));
    }
  }
  const PolicyDecision decision = policy.NextWindows();
  // Windows reflect only the new 60-minute pattern.
  EXPECT_EQ(decision.prewarm_window, Duration::Minutes(60) * 0.9 -
                                         Duration::Seconds(90));
}

TEST(ProductionPolicyTest, BackupRestoreRoundTrip) {
  ProductionHybridPolicy policy{ProductionPolicyConfig{}};
  for (int i = 0; i < 40; ++i) {
    policy.RecordIdleTimeAt(AtDay(0, i * 15), Duration::Minutes(15));
  }
  const std::string backup = policy.Backup();

  ProductionHybridPolicy restored{ProductionPolicyConfig{}};
  ASSERT_TRUE(restored.Restore(backup));
  const PolicyDecision a = policy.NextWindows();
  const PolicyDecision b = restored.NextWindows();
  EXPECT_EQ(a.prewarm_window, b.prewarm_window);
  EXPECT_EQ(a.keepalive_window, b.keepalive_window);
  EXPECT_FALSE(restored.Restore("garbage"));
}

TEST(ProductionPolicyTest, WorksInsideTheSimulator) {
  GeneratorConfig config;
  config.num_apps = 150;
  config.days = 7;
  config.seed = 31;
  const Trace trace = WorkloadGenerator(config).Generate();
  const ProductionPolicyFactory production_factory;
  const FixedKeepAliveFactory fixed_factory(Duration::Minutes(10));
  const std::vector<PolicyPoint> points =
      EvaluatePolicies(trace, {&production_factory, &fixed_factory});
  const SimulationResult& production = points[0].result;
  const SimulationResult& fixed = points[1].result;
  // Same headline behaviour as the in-memory hybrid: far fewer cold starts
  // than the fixed baseline.
  EXPECT_LT(production.AppColdStartPercentile(75.0),
            fixed.AppColdStartPercentile(75.0));
}

TEST(ProductionPolicyTest, NameAndFootprint) {
  ProductionPolicyConfig config;
  config.store.day_weight_decay = 0.9;
  const ProductionHybridPolicy policy{config};
  EXPECT_EQ(policy.name(), "production-hybrid[5,99] days=14 decay=0.9");
  EXPECT_LT(policy.ApproximateSizeBytes(), 64u * 1024u);
}

}  // namespace
}  // namespace faas
