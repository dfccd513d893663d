// End-to-end integration tests: generator -> CSV round trip -> analytic
// simulator -> cluster simulator, with the paper's headline comparisons.

#include <filesystem>

#include <gtest/gtest.h>

#include "src/characterization/characterization.h"
#include "src/cluster/cluster.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/sim/sweep.h"
#include "src/trace/csv.h"
#include "src/trace/transform.h"
#include "src/workload/generator.h"

namespace faas {
namespace {

namespace fs = std::filesystem;

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorConfig config;
    config.num_apps = 600;
    config.days = 7;
    config.seed = 2024;
    config.instants_rate_cap_per_day = 3000.0;
    trace_ = new Trace(WorkloadGenerator(config).Generate());
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static const Trace& trace() { return *trace_; }

 private:
  static const Trace* trace_;
};

const Trace* IntegrationTest::trace_ = nullptr;

TEST_F(IntegrationTest, HybridBeatsFixedOnColdStarts) {
  // The headline claim (Figure 15): the hybrid policy with a 4-hour range
  // produces far fewer cold starts at the 75th percentile than the
  // 10-minute fixed keep-alive.
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const std::vector<const PolicyFactory*> factories = {&fixed10, &hybrid};
  const std::vector<PolicyPoint> points = EvaluatePolicies(trace(), factories);
  EXPECT_LT(points[1].cold_start_p75, points[0].cold_start_p75 / 2.0);
}

TEST_F(IntegrationTest, LongerFixedKeepAliveTradesMemoryForColdStarts) {
  // Figure 14 + 15: longer keep-alive -> fewer cold starts, more memory.
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const FixedKeepAliveFactory fixed60(Duration::Minutes(60));
  const FixedKeepAliveFactory fixed120(Duration::Minutes(120));
  const std::vector<const PolicyFactory*> factories = {&fixed10, &fixed60,
                                                       &fixed120};
  const std::vector<PolicyPoint> points = EvaluatePolicies(trace(), factories);
  EXPECT_GT(points[0].cold_start_p75, points[1].cold_start_p75);
  EXPECT_GT(points[1].cold_start_p75, points[2].cold_start_p75);
  EXPECT_LT(points[0].wasted_memory_minutes, points[1].wasted_memory_minutes);
  EXPECT_LT(points[1].wasted_memory_minutes, points[2].wasted_memory_minutes);
}

TEST_F(IntegrationTest, NoUnloadingIsColdStartLowerBound) {
  const NoUnloadFactory no_unload;
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const std::vector<PolicyPoint> points =
      EvaluatePolicies(trace(), {&no_unload, &fixed10});
  const SimulationResult& baseline = points[0].result;
  const SimulationResult& fixed = points[1].result;
  EXPECT_LE(baseline.TotalColdStarts(), fixed.TotalColdStarts());
  // Under no-unloading every app has exactly one cold start.
  for (const auto& app : baseline.apps) {
    EXPECT_EQ(app.cold_starts, 1);
  }
}

TEST_F(IntegrationTest, ArimaReducesAlwaysColdApps) {
  // Figure 19: the ARIMA fallback halves the fraction of always-cold apps
  // (relative to hybrid-without-ARIMA), most visibly when single-invocation
  // apps are excluded.
  HybridPolicyConfig with_arima;
  HybridPolicyConfig without_arima;
  without_arima.enable_arima = false;
  const HybridPolicyFactory hybrid{with_arima};
  const HybridPolicyFactory hybrid_no_arima{without_arima};
  const std::vector<PolicyPoint> points =
      EvaluatePolicies(trace(), {&hybrid, &hybrid_no_arima});
  const SimulationResult& with_result = points[0].result;
  const SimulationResult& without_result = points[1].result;
  EXPECT_LE(with_result.FractionAppsAlwaysCold(true),
            without_result.FractionAppsAlwaysCold(true));
}

TEST_F(IntegrationTest, CsvRoundTripPreservesSimulationResults) {
  // Policies driven by the round-tripped trace must see the same per-minute
  // structure (cold-start counts shift only via sub-minute reshuffling).
  const fs::path dir = fs::temp_directory_path() / "faas_integration_csv";
  fs::remove_all(dir);
  ASSERT_EQ(WriteTraceCsv(trace(), dir.string()), "");
  const auto restored = ReadTraceCsv(dir.string());
  ASSERT_TRUE(restored.ok) << restored.error;
  fs::remove_all(dir);

  const FixedKeepAliveFactory fixed(Duration::Minutes(10));
  const SimulationResult original =
      EvaluatePolicies(trace(), {&fixed})[0].result;
  const SimulationResult roundtrip =
      EvaluatePolicies(restored.value, {&fixed})[0].result;
  EXPECT_EQ(original.TotalInvocations(), roundtrip.TotalInvocations());
  // Cold starts at minute granularity should agree within 5%.
  EXPECT_NEAR(static_cast<double>(roundtrip.TotalColdStarts()),
              static_cast<double>(original.TotalColdStarts()),
              0.05 * static_cast<double>(original.TotalColdStarts()));
}

TEST_F(IntegrationTest, AnalyticAndClusterSimulatorsAgreeOnTrend) {
  // Figure 20's claim: the cluster ("real system") comparison shows the
  // same trend as the analytic simulation.  Replay a slice of the trace on
  // the cluster and check hybrid < fixed cold starts in both worlds.
  // Mid-range popularity, as in the paper's experiment.
  const Trace slice = ClipToHorizon(
      SampleApps(FilterApps(trace(), InvocationCountBetween(20, 4000)), 60,
                 /*seed=*/1),
      Duration::Hours(8));
  ASSERT_GT(slice.apps.size(), 20u);

  ClusterConfig config;
  config.num_invokers = 18;
  const ClusterSimulator cluster(config);
  const FixedKeepAliveFactory fixed(Duration::Minutes(10));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const ClusterResult cluster_fixed = cluster.Replay(slice, fixed);
  const ClusterResult cluster_hybrid = cluster.Replay(slice, hybrid);
  EXPECT_LT(cluster_hybrid.total_cold_starts, cluster_fixed.total_cold_starts);

  const std::vector<PolicyPoint> analytic =
      EvaluatePolicies(slice, {&fixed, &hybrid});
  EXPECT_LT(analytic[1].result.TotalColdStarts(),
            analytic[0].result.TotalColdStarts());
}

TEST_F(IntegrationTest, CharacterizationPipelineRunsOnGeneratedTrace) {
  // Smoke the full Section 3 pipeline on the shared trace.
  EXPECT_NO_FATAL_FAILURE({
    AnalyzeFunctionsPerApp(trace());
    AnalyzeTriggerShares(trace());
    AnalyzeTriggerCombos(trace());
    AnalyzeHourlyLoad(trace());
    AnalyzeInvocationRates(trace());
    AnalyzeIatCv(trace());
    AnalyzeExecutionTimes(trace());
    AnalyzeMemory(trace());
  });
}

}  // namespace
}  // namespace faas
