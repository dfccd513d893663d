#include "src/sim/sweep.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/sim/shard_source.h"
#include "src/workload/generator.h"

namespace faas {
namespace {

Trace MakeTrace() {
  Trace trace;
  trace.horizon = Duration::Hours(6);
  for (int a = 0; a < 10; ++a) {
    AppTrace app;
    app.owner_id = "o";
    app.app_id = "app" + std::to_string(a);
    app.memory = {100.0, 90.0, 120.0, 1};
    FunctionTrace function;
    function.function_id = "f";
    function.trigger = TriggerType::kHttp;
    // App a is invoked every (a+1)*5 minutes.
    const int64_t period = (a + 1) * 5;
    for (int64_t t = 0; t < 6 * 60; t += period) {
      function.invocations.push_back(TimePoint(t * 60'000));
    }
    function.execution = {0, 0, 0, 1};
    app.functions.push_back(std::move(function));
    trace.apps.push_back(std::move(app));
  }
  return trace;
}

TEST(SweepTest, BaselineNormalizesToHundredPercent) {
  const Trace trace = MakeTrace();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const FixedKeepAliveFactory fixed30(Duration::Minutes(30));
  const std::vector<const PolicyFactory*> factories = {&fixed10, &fixed30};
  const auto points = EvaluatePolicies(trace, factories, 0);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].normalized_wasted_memory_pct, 100.0);
  EXPECT_GT(points[1].normalized_wasted_memory_pct, 100.0);
}

TEST(SweepTest, BaselineIndexSelectsNormalizer) {
  const Trace trace = MakeTrace();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const FixedKeepAliveFactory fixed30(Duration::Minutes(30));
  const std::vector<const PolicyFactory*> factories = {&fixed10, &fixed30};
  const auto points = EvaluatePolicies(trace, factories, 1);
  EXPECT_DOUBLE_EQ(points[1].normalized_wasted_memory_pct, 100.0);
  EXPECT_LT(points[0].normalized_wasted_memory_pct, 100.0);
}

TEST(SweepTest, NamesAndMetricsPropagate) {
  const Trace trace = MakeTrace();
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const std::vector<const PolicyFactory*> factories = {&hybrid};
  const auto points = EvaluatePolicies(trace, factories, 0);
  EXPECT_EQ(points[0].name, hybrid.name());
  EXPECT_EQ(points[0].result.apps.size(), trace.apps.size());
  EXPECT_GE(points[0].cold_start_p75, 0.0);
  EXPECT_LE(points[0].cold_start_p75, 100.0);
  EXPECT_NEAR(points[0].wasted_memory_minutes,
              points[0].result.TotalWastedMemoryMinutes(), 1e-9);
}

TEST(SweepTest, OptionsForwardedToSimulator) {
  const Trace trace = MakeTrace();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const std::vector<const PolicyFactory*> factories = {&fixed10};
  SimulatorOptions weighted;
  weighted.weight_by_memory = true;
  const auto plain = EvaluatePolicies(trace, factories, 0);
  const auto scaled = EvaluatePolicies(trace, factories, 0, weighted);
  // All apps are 100MB, so weighting scales waste by exactly 100.
  EXPECT_NEAR(scaled[0].wasted_memory_minutes,
              plain[0].wasted_memory_minutes * 100.0, 1e-6);
}

TEST(SweepTest, LongerKeepAliveMonotonicInBothAxes) {
  // Property over the whole sweep: longer fixed windows never increase cold
  // starts and never decrease waste.
  const Trace trace = MakeTrace();
  std::vector<std::unique_ptr<FixedKeepAliveFactory>> owned;
  std::vector<const PolicyFactory*> factories;
  for (int minutes : {5, 10, 20, 40, 80}) {
    owned.push_back(
        std::make_unique<FixedKeepAliveFactory>(Duration::Minutes(minutes)));
    factories.push_back(owned.back().get());
  }
  const auto points = EvaluatePolicies(trace, factories, 0);
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i].result.TotalColdStarts(),
              points[i - 1].result.TotalColdStarts());
    EXPECT_GE(points[i].wasted_memory_minutes,
              points[i - 1].wasted_memory_minutes - 1e-9);
  }
}

TEST(SweepTest, ParallelSweepBitIdenticalToSequential) {
  // The engine schedules app-chunk tasks over every policy; every PolicyPoint
  // number must nevertheless match the one-thread run bit for bit.
  GeneratorConfig config;
  config.num_apps = 180;
  config.days = 2;
  config.seed = 91;
  config.instants_rate_cap_per_day = 1200.0;
  const Trace trace = WorkloadGenerator(config).Generate();

  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const FixedKeepAliveFactory fixed60(Duration::Minutes(60));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const std::vector<const PolicyFactory*> factories = {&fixed10, &fixed60,
                                                       &hybrid};

  SimulatorOptions sequential;
  sequential.num_threads = 1;
  sequential.use_execution_times = true;
  SimulatorOptions parallel = sequential;
  parallel.num_threads = 4;

  const auto a = EvaluatePolicies(trace, factories, 0, sequential);
  const auto b = EvaluatePolicies(trace, factories, 0, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].name, b[p].name);
    EXPECT_EQ(a[p].cold_start_p75, b[p].cold_start_p75);
    EXPECT_EQ(a[p].wasted_memory_minutes, b[p].wasted_memory_minutes);
    EXPECT_EQ(a[p].normalized_wasted_memory_pct,
              b[p].normalized_wasted_memory_pct);
    ASSERT_EQ(a[p].result.apps.size(), b[p].result.apps.size());
    for (size_t i = 0; i < a[p].result.apps.size(); ++i) {
      EXPECT_EQ(a[p].result.apps[i].app, b[p].result.apps[i].app);
      EXPECT_EQ(a[p].result.apps[i].cold_starts,
                b[p].result.apps[i].cold_starts);
      EXPECT_EQ(a[p].result.apps[i].prewarm_loads,
                b[p].result.apps[i].prewarm_loads);
      EXPECT_EQ(a[p].result.apps[i].wasted_memory_minutes(),
                b[p].result.apps[i].wasted_memory_minutes());
    }
  }
}

TEST(SweepTest, CompiledOverloadMatchesTraceOverload) {
  const Trace trace = MakeTrace();
  const CompiledTrace compiled = CompiledTrace::Compile(trace);
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const FixedKeepAliveFactory fixed30(Duration::Minutes(30));
  const std::vector<const PolicyFactory*> factories = {&fixed10, &fixed30};

  const auto from_trace = EvaluatePolicies(trace, factories, 0);
  const auto from_compiled = EvaluatePolicies(compiled, factories, 0);
  ASSERT_EQ(from_trace.size(), from_compiled.size());
  for (size_t p = 0; p < from_trace.size(); ++p) {
    EXPECT_EQ(from_trace[p].cold_start_p75, from_compiled[p].cold_start_p75);
    EXPECT_EQ(from_trace[p].wasted_memory_minutes,
              from_compiled[p].wasted_memory_minutes);
    EXPECT_EQ(from_trace[p].normalized_wasted_memory_pct,
              from_compiled[p].normalized_wasted_memory_pct);
  }
}

// `count` gaps drawn uniformly from [lo, hi] minutes.
std::vector<int64_t> Gaps(Rng& rng, int count, int64_t lo, int64_t hi) {
  std::vector<int64_t> gaps(static_cast<size_t>(count));
  for (int64_t& gap : gaps) {
    gap = rng.UniformInt(lo, hi);
  }
  return gaps;
}

// An app invoked at minute 0 and then after each gap.
AppTrace AppWithGaps(const std::string& name,
                     const std::vector<int64_t>& gaps_min) {
  AppTrace app;
  app.owner_id = "o";
  app.app_id = name;
  app.memory = {100.0, 90.0, 120.0, 1};
  FunctionTrace function;
  function.function_id = "f";
  function.trigger = TriggerType::kTimer;
  function.execution = {0, 0, 0, 1};
  int64_t minute = 0;
  function.invocations.push_back(TimePoint(0));
  for (const int64_t gap : gaps_min) {
    minute += gap;
    function.invocations.push_back(TimePoint(minute * 60'000));
  }
  app.functions.push_back(std::move(function));
  return app;
}

TEST(SweepTest, SharedArimaFitsBitIdenticalToSoloRuns) {
  // App-major replay tasks share one AutoArima memo across the policies of
  // an app.  The factory mix hits (hybrid twice, no-prewarm, cv 5) and
  // misses (a history cap that truncates the series, stepwise search), and
  // every point must equal its factory evaluated alone on one thread.
  // Gaps over 240 minutes fall outside the 4-hour histogram and send the
  // hybrid policy to ARIMA once they are the majority.
  Rng rng(500);
  std::vector<int64_t> late = Gaps(rng, 45, 5, 30);
  const std::vector<int64_t> late_tail = Gaps(rng, 50, 245, 300);
  late.insert(late.end(), late_tail.begin(), late_tail.end());
  Trace trace;
  trace.horizon = Duration::Hours(24 * 11);
  // ARIMA from the eighth idle time on, on short series.
  trace.apps.push_back(AppWithGaps("arima", Gaps(rng, 20, 245, 400)));
  // ARIMA only once the series is longer than the 50-entry history cap.
  trace.apps.push_back(AppWithGaps("late", late));
  trace.apps.push_back(AppWithGaps("short0", Gaps(rng, 400, 5, 30)));
  trace.apps.push_back(AppWithGaps("short1", Gaps(rng, 200, 15, 60)));

  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  HybridPolicyConfig no_prewarm;
  no_prewarm.enable_prewarm = false;
  HybridPolicyConfig cv5;
  cv5.cv_threshold = 5.0;
  HybridPolicyConfig history50;
  history50.arima_history_limit = 50;
  HybridPolicyConfig stepwise;
  stepwise.arima_options.stepwise = true;
  const HybridPolicyFactory no_prewarm_factory(no_prewarm);
  const HybridPolicyFactory cv5_factory(cv5);
  const HybridPolicyFactory history50_factory(history50);
  const HybridPolicyFactory stepwise_factory(stepwise);
  const std::vector<const PolicyFactory*> factories = {
      &fixed10,     &hybrid,           &hybrid,          &no_prewarm_factory,
      &cv5_factory, &history50_factory, &stepwise_factory};

  SimulatorOptions sequential;
  sequential.num_threads = 1;
  std::vector<PolicyPoint> solo;
  for (const PolicyFactory* factory : factories) {
    std::vector<PolicyPoint> one = EvaluatePolicies(trace, {factory}, 0,
                                                    sequential);
    solo.push_back(std::move(one.front()));
  }

  const auto expect_matches_solo = [&](const std::vector<PolicyPoint>& points) {
    ASSERT_EQ(points.size(), solo.size());
    for (size_t p = 0; p < points.size(); ++p) {
      SCOPED_TRACE("policy " + std::to_string(p) + " " + points[p].name);
      EXPECT_EQ(points[p].name, solo[p].name);
      EXPECT_EQ(points[p].cold_start_p75, solo[p].cold_start_p75);
      EXPECT_EQ(points[p].wasted_memory_minutes, solo[p].wasted_memory_minutes);
      const SimulationResult& lhs = points[p].result;
      const SimulationResult& rhs = solo[p].result;
      ASSERT_EQ(lhs.apps.size(), rhs.apps.size());
      for (size_t i = 0; i < lhs.apps.size(); ++i) {
        EXPECT_EQ(lhs.apps[i].app, rhs.apps[i].app) << "app " << i;
        EXPECT_EQ(lhs.apps[i].cold_starts, rhs.apps[i].cold_starts)
            << "app " << i;
        EXPECT_EQ(lhs.apps[i].prewarm_loads, rhs.apps[i].prewarm_loads)
            << "app " << i;
        EXPECT_EQ(lhs.apps[i].wasted_memory_minutes(),
                  rhs.apps[i].wasted_memory_minutes())
            << "app " << i;
      }
    }
  };

  // Normalisation is against factory 0 in both runs, so it matches too.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SimulatorOptions options;
    options.num_threads = threads;
    expect_matches_solo(EvaluatePolicies(trace, factories, 0, options));
  }
  SCOPED_TRACE("streamed, threads=4");
  SimulatorOptions options;
  options.num_threads = 4;
  const TraceShardSource source(trace, /*shard_apps=*/1);
  StreamingSweepOptions stream;
  stream.max_resident_shards = 2;
  expect_matches_solo(
      EvaluatePoliciesStreamed(source, factories, 0, options, stream));
}

}  // namespace
}  // namespace faas
