#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/workload/generator.h"

namespace faas {
namespace {

Trace MakePeriodicTrace(int num_apps, int invocations_per_app,
                        Duration period) {
  Trace trace;
  trace.horizon = period * static_cast<int64_t>(invocations_per_app + 1);
  for (int a = 0; a < num_apps; ++a) {
    AppTrace app;
    app.owner_id = "o";
    app.app_id = "app" + std::to_string(a);
    app.memory = {128.0, 120.0, 150.0, 10};
    FunctionTrace function;
    function.function_id = "f";
    function.trigger = TriggerType::kHttp;
    for (int i = 0; i < invocations_per_app; ++i) {
      // Stagger apps so they do not all arrive at the same instant.
      function.invocations.push_back(
          TimePoint(static_cast<int64_t>(i) * period.millis() +
                    a * 1000));
    }
    function.execution = {200.0, 150.0, 300.0, invocations_per_app};
    app.functions.push_back(std::move(function));
    trace.apps.push_back(std::move(app));
  }
  return trace;
}

TEST(ClusterTest, FixedPolicyWarmWithinKeepAlive) {
  // Invocations every 5 minutes with a 10-minute fixed keep-alive: only the
  // first invocation of each app is cold.
  const Trace trace = MakePeriodicTrace(4, 10, Duration::Minutes(5));
  ClusterConfig config;
  config.num_invokers = 2;
  const ClusterSimulator simulator(config);
  const ClusterResult result =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_EQ(result.total_invocations, 40);
  EXPECT_EQ(result.total_dropped, 0);
  EXPECT_EQ(result.total_cold_starts, 4);
  ASSERT_EQ(result.apps.size(), 4u);
  for (const auto& app : result.apps) {
    EXPECT_EQ(app.cold_starts, 1);
  }
}

TEST(ClusterTest, FixedPolicyColdBeyondKeepAlive) {
  // Invocations every 30 minutes with a 10-minute keep-alive: all cold.
  const Trace trace = MakePeriodicTrace(2, 6, Duration::Minutes(30));
  ClusterConfig config;
  config.num_invokers = 2;
  const ClusterSimulator simulator(config);
  const ClusterResult result =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_EQ(result.total_cold_starts, 12);
}

TEST(ClusterTest, HybridPrewarmsPeriodicApps) {
  // 30-minute period: the hybrid policy learns it and pre-warms, so after
  // the learning phase invocations are warm despite the long gaps.
  const Trace trace = MakePeriodicTrace(2, 20, Duration::Minutes(30));
  ClusterConfig config;
  config.num_invokers = 2;
  const ClusterSimulator simulator(config);
  const ClusterResult hybrid =
      simulator.Replay(trace, HybridPolicyFactory{HybridPolicyConfig{}});
  const ClusterResult fixed =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_LT(hybrid.total_cold_starts, fixed.total_cold_starts / 3);
  EXPECT_GT(hybrid.total_prewarm_loads, 10);
}

TEST(ClusterTest, WarmStartsReduceBilledExecution) {
  const Trace trace = MakePeriodicTrace(2, 20, Duration::Minutes(30));
  ClusterConfig config;
  config.num_invokers = 2;
  const ClusterSimulator simulator(config);
  const ClusterResult hybrid =
      simulator.Replay(trace, HybridPolicyFactory{HybridPolicyConfig{}});
  const ClusterResult fixed =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  // The paper's secondary effect: warm containers skip the runtime
  // bootstrap, shrinking measured execution time.
  EXPECT_LT(hybrid.MeanBilledExecutionMs(), fixed.MeanBilledExecutionMs());
  EXPECT_LT(hybrid.BilledExecutionPercentileMs(99.0),
            fixed.BilledExecutionPercentileMs(99.0));
}

TEST(ClusterTest, MemoryIntegralTracksPolicyCost) {
  // A no-unload policy must hold strictly more container-memory-time than a
  // short fixed keep-alive.
  const Trace trace = MakePeriodicTrace(3, 8, Duration::Minutes(20));
  ClusterConfig config;
  config.num_invokers = 2;
  const ClusterSimulator simulator(config);
  const ClusterResult no_unload = simulator.Replay(trace, NoUnloadFactory());
  const ClusterResult fixed =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(5)));
  EXPECT_GT(no_unload.memory_mb_seconds, fixed.memory_mb_seconds);
  EXPECT_EQ(no_unload.total_cold_starts, 3);
  EXPECT_GT(no_unload.avg_resident_mb_per_invoker,
            fixed.avg_resident_mb_per_invoker);
}

TEST(ClusterTest, PolicyOverheadIsMeasured) {
  const Trace trace = MakePeriodicTrace(2, 10, Duration::Minutes(5));
  ClusterConfig config;
  config.num_invokers = 1;
  const ClusterSimulator simulator(config);
  const ClusterResult result =
      simulator.Replay(trace, HybridPolicyFactory{HybridPolicyConfig{}});
  // The hybrid policy's decision path is microseconds, far below the
  // 835.7us the paper measured for its Scala implementation.
  EXPECT_GT(result.policy_overhead_mean_us, 0.0);
  EXPECT_LT(result.policy_overhead_mean_us, 835.7);
}

TEST(ClusterTest, AppAffinityKeepsContainersOnOneInvoker) {
  // With huge memory and a single app, all activations should land on the
  // home invoker: exactly one cold start.
  const Trace trace = MakePeriodicTrace(1, 10, Duration::Minutes(5));
  ClusterConfig config;
  config.num_invokers = 8;
  const ClusterSimulator simulator(config);
  const ClusterResult result =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_EQ(result.total_cold_starts, 1);
}

TEST(ClusterTest, DeterministicForSameSeed) {
  const Trace trace = MakePeriodicTrace(3, 10, Duration::Minutes(7));
  ClusterConfig config;
  config.num_invokers = 3;
  config.seed = 99;
  const ClusterSimulator simulator(config);
  const ClusterResult a =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  const ClusterResult b =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_EQ(a.total_cold_starts, b.total_cold_starts);
  EXPECT_DOUBLE_EQ(a.memory_mb_seconds, b.memory_mb_seconds);
  EXPECT_EQ(a.billed_execution_ms, b.billed_execution_ms);
}

TEST(ClusterTest, LeastLoadedBalancerSpreadsMemory) {
  // Two apps, each invoked repeatedly.  With app affinity, each app's
  // containers pile onto its home invoker; with least-loaded, activations
  // spread, trading container reuse for balance (more cold starts).
  const Trace trace = MakePeriodicTrace(2, 12, Duration::Minutes(3));
  ClusterConfig affinity_config;
  affinity_config.num_invokers = 4;
  const ClusterResult affinity = ClusterSimulator(affinity_config)
      .Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));

  ClusterConfig spread_config = affinity_config;
  spread_config.load_balancing = LoadBalancingPolicy::kLeastLoaded;
  const ClusterResult spread = ClusterSimulator(spread_config)
      .Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));

  EXPECT_EQ(affinity.total_cold_starts, 2);  // One per app.
  EXPECT_GE(spread.total_cold_starts, affinity.total_cold_starts);
  EXPECT_EQ(spread.total_dropped, 0);
}

TEST(ClusterTest, StreamingLatencyStatsMatchCollectedSamples) {
  const Trace trace = MakePeriodicTrace(3, 40, Duration::Minutes(2));
  ClusterConfig with_samples;
  with_samples.num_invokers = 2;
  const ClusterResult collected =
      ClusterSimulator(with_samples)
          .Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));

  ClusterConfig without_samples = with_samples;
  without_samples.collect_latencies = false;
  const ClusterResult streaming =
      ClusterSimulator(without_samples)
          .Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));

  EXPECT_TRUE(streaming.billed_execution_ms.empty());
  // The streaming mean is exact; the P-square median is an estimate.
  EXPECT_NEAR(streaming.MeanBilledExecutionMs(),
              collected.MeanBilledExecutionMs(),
              0.01 * collected.MeanBilledExecutionMs());
  EXPECT_NEAR(streaming.BilledExecutionPercentileMs(50.0),
              collected.BilledExecutionPercentileMs(50.0),
              0.15 * collected.BilledExecutionPercentileMs(50.0));
}

TEST(ClusterFaultTest, OutageFailsOverToHealthyInvoker) {
  // One app pinned by affinity; its home invoker goes down mid-trace.  The
  // activations during the outage must land on the survivor (extra cold
  // start there), none dropped.
  const Trace trace = MakePeriodicTrace(1, 12, Duration::Minutes(5));
  ClusterConfig config;
  config.num_invokers = 2;
  // Exactly one invoker out of rotation during the middle of the trace.
  config.outages.push_back({.invoker = 0,
                            .start = Duration::Minutes(12),
                            .end = Duration::Minutes(27)});
  const ClusterSimulator simulator(config);
  const ClusterResult result =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_EQ(result.total_dropped, 0);
  EXPECT_EQ(result.total_invocations, 12);
  // Fail-over and fail-back each cost at least one extra cold start.
  EXPECT_GE(result.total_cold_starts, 2);
  EXPECT_LE(result.total_cold_starts, 5);
}

TEST(ClusterFaultTest, FullClusterOutageRejectsActivations) {
  const Trace trace = MakePeriodicTrace(1, 12, Duration::Minutes(5));
  ClusterConfig config;
  config.num_invokers = 2;
  for (int i = 0; i < 2; ++i) {
    config.outages.push_back({.invoker = i,
                              .start = Duration::Minutes(12),
                              .end = Duration::Minutes(27)});
  }
  const ClusterSimulator simulator(config);
  const ClusterResult result =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  // Activations arriving while every worker is down are outage rejections,
  // counted apart from memory-pressure drops (of which there are none).
  EXPECT_EQ(result.total_dropped, 0);
  EXPECT_GT(result.total_rejected_outage, 0);
  EXPECT_LT(result.total_rejected_outage, 12);
  EXPECT_EQ(result.total_rejected_outage, result.faults.rejected_by_outage);
  EXPECT_EQ(result.total_cold_starts + result.total_warm_starts +
                result.total_rejected_outage,
            result.total_invocations);
}

TEST(ClusterFaultTest, RecoveryRestoresNormalOperation) {
  // After the outage window, the app settles back to warm operation.
  const Trace trace = MakePeriodicTrace(1, 30, Duration::Minutes(2));
  ClusterConfig config;
  config.num_invokers = 1;
  config.outages.push_back({.invoker = 0,
                            .start = Duration::Minutes(10),
                            .end = Duration::Minutes(13)});
  const ClusterSimulator simulator(config);
  const ClusterResult result =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  // Invocations during the 3-minute outage (minutes 10, 12) are rejected;
  // everything after recovery succeeds, with one re-warm-up cold start.
  EXPECT_EQ(result.total_dropped, 0);
  EXPECT_GT(result.total_rejected_outage, 0);
  EXPECT_LE(result.total_rejected_outage, 2);
  EXPECT_LE(result.total_cold_starts, 3);
  EXPECT_EQ(result.total_cold_starts + result.total_warm_starts +
                result.total_rejected_outage,
            result.total_invocations);
}

TEST(ClusterFaultTest, ReversedOrNegativeOutageWindowIsRejected) {
  // A window ending before it starts would schedule the recovery before
  // the drain and leave the invoker out of rotation for the whole replay.
  const Trace trace = MakePeriodicTrace(1, 4, Duration::Minutes(5));
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  ClusterConfig config;
  config.num_invokers = 2;
  config.outages.push_back({.invoker = 0,
                            .start = Duration::Minutes(12),
                            .end = Duration::Minutes(7)});
  EXPECT_DEATH(ClusterSimulator(config).Replay(trace, fixed10),
               "outage with negative time or duration");
  config.outages = {{.invoker = 0,
                     .start = Duration::Minutes(-1),
                     .end = Duration::Minutes(7)}};
  EXPECT_DEATH(ClusterSimulator(config).Replay(trace, fixed10),
               "outage with negative time or duration");
  // A zero-length window is a no-op, not an error.
  config.outages = {{.invoker = 0,
                     .start = Duration::Minutes(7),
                     .end = Duration::Minutes(7)}};
  EXPECT_EQ(ClusterSimulator(config).Replay(trace, fixed10).total_invocations,
            4);
}

TEST(ClusterTest, GeneratedTraceReplaysEndToEnd) {
  GeneratorConfig gen_config;
  gen_config.num_apps = 40;
  gen_config.days = 1;
  gen_config.seed = 17;
  gen_config.instants_rate_cap_per_day = 500.0;
  const Trace trace = WorkloadGenerator(gen_config).Generate();
  ClusterConfig config;
  config.num_invokers = 4;
  const ClusterSimulator simulator(config);
  const ClusterResult result =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_EQ(result.total_invocations, trace.TotalInvocations());
  EXPECT_EQ(result.total_cold_starts + result.total_warm_starts +
                result.total_dropped,
            result.total_invocations);
  EXPECT_GT(result.memory_mb_seconds, 0.0);
}

}  // namespace
}  // namespace faas
