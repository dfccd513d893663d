#include "src/sim/cache_sim.h"

#include <gtest/gtest.h>

#include "src/policy/hybrid.h"
#include "src/sim/sweep.h"
#include "src/workload/generator.h"

namespace faas {
namespace {

AppTrace MakeApp(const std::string& id, double memory_mb,
                 std::vector<int64_t> minutes) {
  AppTrace app;
  app.owner_id = "o";
  app.app_id = id;
  app.memory = {memory_mb, memory_mb, memory_mb, 1};
  FunctionTrace function;
  function.function_id = "f";
  function.trigger = TriggerType::kHttp;
  for (int64_t m : minutes) {
    function.invocations.push_back(TimePoint(m * 60'000));
  }
  function.execution = {0, 0, 0, static_cast<int64_t>(minutes.size())};
  app.functions.push_back(std::move(function));
  return app;
}

TEST(LazyCacheTest, EverythingFitsMeansOneColdStartPerApp) {
  Trace trace;
  trace.horizon = Duration::Hours(2);
  trace.apps = {MakeApp("a", 100, {0, 30, 60}), MakeApp("b", 100, {10, 40})};
  const LazyCacheSimulator simulator({.budget_mb = 1000.0});
  const CacheSimResult result = simulator.Run(trace);
  EXPECT_EQ(result.total_invocations, 5);
  EXPECT_EQ(result.total_cold_starts, 2);
  EXPECT_EQ(result.total_evictions, 0);
  EXPECT_DOUBLE_EQ(result.peak_resident_mb, 200.0);
}

TEST(LazyCacheTest, LruEvictionUnderPressure) {
  Trace trace;
  trace.horizon = Duration::Hours(2);
  // Budget fits two of the three 100MB apps.  Access order a, b, c evicts a;
  // the later re-access of a is cold and evicts b (LRU).
  trace.apps = {MakeApp("a", 100, {0, 30}), MakeApp("b", 100, {10}),
                MakeApp("c", 100, {20})};
  const LazyCacheSimulator simulator({.budget_mb = 200.0});
  const CacheSimResult result = simulator.Run(trace);
  EXPECT_EQ(result.total_cold_starts, 4);  // a, b, c cold + a again.
  EXPECT_EQ(result.total_evictions, 2);
  EXPECT_EQ(result.apps[0].cold_starts, 2);
}

TEST(LazyCacheTest, RecencyRefreshPreventsEviction) {
  Trace trace;
  trace.horizon = Duration::Hours(2);
  // a is touched again right before c arrives, so b is the LRU victim and
  // a's third access stays warm.
  trace.apps = {MakeApp("a", 100, {0, 15, 30}), MakeApp("b", 100, {5}),
                MakeApp("c", 100, {20})};
  const LazyCacheSimulator simulator({.budget_mb = 200.0});
  const CacheSimResult result = simulator.Run(trace);
  EXPECT_EQ(result.apps[0].cold_starts, 1);
  EXPECT_EQ(result.apps[1].cold_starts, 1);
}

TEST(LazyCacheTest, LfuKeepsHotApp) {
  Trace trace;
  trace.horizon = Duration::Hours(3);
  // a is hit 5 times early; b once; then c needs space.  LFU evicts b even
  // though a is older by recency.
  trace.apps = {MakeApp("a", 100, {0, 1, 2, 3, 4, 90}),
                MakeApp("b", 100, {50}), MakeApp("c", 100, {60})};
  CacheSimOptions options;
  options.budget_mb = 200.0;
  options.eviction = CacheEvictionPolicy::kLeastFrequent;
  const LazyCacheSimulator simulator(options);
  const CacheSimResult result = simulator.Run(trace);
  EXPECT_EQ(result.apps[0].cold_starts, 1);  // Never evicted.
  EXPECT_EQ(result.apps[1].cold_starts, 1);
}

TEST(LazyCacheTest, OversizedAppNeverCached) {
  Trace trace;
  trace.horizon = Duration::Hours(1);
  trace.apps = {MakeApp("big", 500, {0, 10, 20})};
  const LazyCacheSimulator simulator({.budget_mb = 200.0});
  const CacheSimResult result = simulator.Run(trace);
  EXPECT_EQ(result.apps[0].cold_starts, 3);
  EXPECT_DOUBLE_EQ(result.peak_resident_mb, 0.0);
}

TEST(LazyCacheTest, IdleMemoryIntegralCountsResidency) {
  Trace trace;
  trace.horizon = Duration::Hours(1);
  // One 100MB app invoked at t=0: resident (idle) for the whole hour.
  trace.apps = {MakeApp("a", 100, {0})};
  const LazyCacheSimulator simulator({.budget_mb = 1000.0});
  const CacheSimResult result = simulator.Run(trace);
  EXPECT_NEAR(result.wasted_memory_mb_minutes, 100.0 * 60.0, 1e-6);
  EXPECT_NEAR(result.avg_resident_mb, 100.0, 1e-9);
}

TEST(LazyCacheTest, EqualMemoryModeCountsAppsNotMegabytes) {
  Trace trace;
  trace.horizon = Duration::Hours(1);
  trace.apps = {MakeApp("a", 500, {0}), MakeApp("b", 50, {5})};
  CacheSimOptions options;
  options.budget_mb = 1.5;  // Fits one "unit" app at a time.
  options.use_app_memory = false;
  const LazyCacheSimulator simulator(options);
  const CacheSimResult result = simulator.Run(trace);
  EXPECT_EQ(result.total_evictions, 1);
}

TEST(LazyCacheTest, EagerHybridBeatsLazyCacheAtEqualMemory) {
  // The Section 7 argument, measured: give the lazy cache the SAME average
  // resident memory the hybrid policy used, and compare cold starts.
  GeneratorConfig config;
  config.num_apps = 300;
  config.days = 3;
  config.seed = 77;
  config.instants_rate_cap_per_day = 2000.0;
  const Trace trace = WorkloadGenerator(config).Generate();

  SimulatorOptions eager_options;
  eager_options.weight_by_memory = true;
  const HybridPolicyFactory hybrid_factory{HybridPolicyConfig{}};
  const SimulationResult hybrid =
      EvaluatePolicies(trace, {&hybrid_factory}, 0, eager_options)[0].result;
  const double hybrid_avg_resident_mb =
      hybrid.TotalWastedMemoryMinutes() / trace.horizon.minutes();

  const LazyCacheSimulator lazy({.budget_mb = hybrid_avg_resident_mb});
  const CacheSimResult cache = lazy.Run(trace);

  // At matched memory, the eager policy should produce clearly fewer cold
  // starts at the 75th percentile of apps.
  EXPECT_LT(hybrid.AppColdStartPercentile(75.0),
            cache.AppColdStartPercentile(75.0));
}

}  // namespace
}  // namespace faas
