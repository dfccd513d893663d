// Streaming sweep engine equivalence: EvaluatePoliciesStreamed must be
// bit-identical to the materialized EvaluatePolicies for every residency
// bound, thread count, and shard source; must fill every shard exactly once
// into at most max_resident_shards arenas; and must be robust to policies
// or fills throwing mid-region and to a chaos replay running concurrently
// (the ASan smoke the check.sh leg drives).

#include "src/sim/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/faults/fault_plan.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/trace/entity_index.h"
#include "src/workload/generator.h"

namespace faas {
namespace {

GeneratorConfig SmallConfig() {
  GeneratorConfig config;
  config.num_apps = 160;
  config.days = 2;
  config.seed = 77;
  config.instants_rate_cap_per_day = 1200;
  return config;
}

std::vector<const PolicyFactory*> Factories(
    const FixedKeepAliveFactory& fixed10, const FixedKeepAliveFactory& fixed60,
    const HybridPolicyFactory& hybrid) {
  return {&fixed10, &fixed60, &hybrid};
}

void ExpectPointsIdentical(const std::vector<PolicyPoint>& streamed,
                           const std::vector<PolicyPoint>& materialized) {
  ASSERT_EQ(streamed.size(), materialized.size());
  for (size_t p = 0; p < streamed.size(); ++p) {
    SCOPED_TRACE("policy " + materialized[p].name);
    EXPECT_EQ(streamed[p].name, materialized[p].name);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(streamed[p].cold_start_p75, materialized[p].cold_start_p75);
    EXPECT_EQ(streamed[p].wasted_memory_minutes,
              materialized[p].wasted_memory_minutes);
    EXPECT_EQ(streamed[p].normalized_wasted_memory_pct,
              materialized[p].normalized_wasted_memory_pct);
    const SimulationResult& lhs = streamed[p].result;
    const SimulationResult& rhs = materialized[p].result;
    ASSERT_EQ(lhs.apps.size(), rhs.apps.size());
    for (size_t a = 0; a < lhs.apps.size(); ++a) {
      ASSERT_EQ(lhs.apps[a].app.value, rhs.apps[a].app.value) << "app " << a;
      ASSERT_EQ(lhs.apps[a].invocations, rhs.apps[a].invocations)
          << "app " << a;
      ASSERT_EQ(lhs.apps[a].cold_starts, rhs.apps[a].cold_starts)
          << "app " << a;
      ASSERT_EQ(lhs.apps[a].prewarm_loads, rhs.apps[a].prewarm_loads)
          << "app " << a;
      ASSERT_EQ(lhs.apps[a].wasted_memory_minutes(),
                rhs.apps[a].wasted_memory_minutes())
          << "app " << a;
      ASSERT_EQ(lhs.AppName(a), rhs.AppName(a)) << "app " << a;
    }
  }
}

TEST(SweepStreamTest, StreamedMatchesMaterializedAcrossResidencyAndThreads) {
  WorkloadGenerator gen(SmallConfig());
  const Trace trace = gen.Generate();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const FixedKeepAliveFactory fixed60(Duration::Minutes(60));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const auto factories = Factories(fixed10, fixed60, hybrid);

  SimulatorOptions options;
  options.num_threads = 1;
  const auto materialized = EvaluatePolicies(trace, factories, 0, options);

  const TraceShardSource source(trace, /*shard_apps=*/32);
  for (const int residency : {1, 2, 1 << 20}) {
    for (const int threads : {1, 4, 8}) {
      SCOPED_TRACE("residency=" + std::to_string(residency) +
                   " threads=" + std::to_string(threads));
      SimulatorOptions streamed_options;
      streamed_options.num_threads = threads;
      StreamingSweepOptions stream;
      stream.max_resident_shards = residency;
      const auto streamed = EvaluatePoliciesStreamed(
          source, factories, 0, streamed_options, stream);
      ExpectPointsIdentical(streamed, materialized);
    }
  }
}

TEST(SweepStreamTest, GeneratorSourceMatchesMaterializedGeneration) {
  // End-to-end: shards materialized straight from the generator (the full
  // trace is never built on this path) reproduce the materialized sweep.
  WorkloadGenerator full_gen(SmallConfig());
  const Trace trace = full_gen.Generate();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const FixedKeepAliveFactory fixed60(Duration::Minutes(60));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const auto factories = Factories(fixed10, fixed60, hybrid);
  const auto materialized = EvaluatePolicies(trace, factories, 0);

  WorkloadGenerator streaming_gen(SmallConfig());
  const GeneratorShardSource source(streaming_gen, /*shard_apps=*/25);
  SimulatorOptions options;
  options.num_threads = 4;
  const auto streamed =
      EvaluatePoliciesStreamed(source, factories, 0, options);
  ExpectPointsIdentical(streamed, materialized);
}

TEST(SweepStreamTest, ShardSizeDoesNotChangeResults) {
  WorkloadGenerator gen(SmallConfig());
  const Trace trace = gen.Generate();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const std::vector<const PolicyFactory*> factories = {&fixed10};
  const auto materialized = EvaluatePolicies(trace, factories, 0);
  for (const int shard_apps : {1, 13, 160, 500}) {
    SCOPED_TRACE("shard_apps=" + std::to_string(shard_apps));
    const TraceShardSource source(trace, shard_apps);
    const auto streamed = EvaluatePoliciesStreamed(source, factories, 0);
    ExpectPointsIdentical(streamed, materialized);
  }
}

TEST(SweepStreamTest, StreamedGlobalIdsAreDense) {
  WorkloadGenerator gen(SmallConfig());
  const Trace trace = gen.Generate();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const std::vector<const PolicyFactory*> factories = {&fixed10};
  const TraceShardSource source(trace, 7);
  const auto points = EvaluatePoliciesStreamed(source, factories, 0);
  ASSERT_EQ(points.size(), 1u);
  const SimulationResult& result = points[0].result;
  ASSERT_EQ(result.apps.size(), trace.apps.size());
  ASSERT_NE(result.entities, nullptr);
  for (size_t a = 0; a < result.apps.size(); ++a) {
    EXPECT_EQ(result.apps[a].app.value, static_cast<uint32_t>(a));
    EXPECT_EQ(result.AppName(a), trace.apps[a].app_id);
  }
}

// Policy whose instances throw on the first decision; exercises the unwind
// path out of a replay region while fill tasks of the next window may still
// be running (ASan would flag an arena freed under a running fill).
class ThrowingPolicy final : public KeepAlivePolicy {
 public:
  void RecordIdleTime(Duration) override {}
  PolicyDecision NextWindows() override {
    throw std::runtime_error("injected policy failure");
  }
  std::string name() const override { return "throwing"; }
};

class ThrowingFactory final : public PolicyFactory {
 public:
  std::unique_ptr<KeepAlivePolicy> CreateForApp() const override {
    return std::make_unique<ThrowingPolicy>();
  }
  std::string name() const override { return "throwing"; }
};

TEST(SweepStreamTest, PolicyExceptionPropagatesAndPipelineUnwindsCleanly) {
  WorkloadGenerator gen(SmallConfig());
  const Trace trace = gen.Generate();
  const ThrowingFactory throwing;
  const std::vector<const PolicyFactory*> factories = {&throwing};
  const TraceShardSource source(trace, 16);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SimulatorOptions options;
    options.num_threads = threads;
    StreamingSweepOptions stream;
    stream.max_resident_shards = 3;
    EXPECT_THROW(
        EvaluatePoliciesStreamed(source, factories, 0, options, stream),
        std::runtime_error);
  }
}

// Forwards to another source and records, for each Fill, the shard and the
// arena it went into, plus the peak number of Fill calls in flight at once.
// Fill throws on shard `throw_on` (none when negative).
class RecordingShardSource final : public ShardSource {
 public:
  explicit RecordingShardSource(const ShardSource& inner, int throw_on = -1)
      : inner_(inner), throw_on_(throw_on) {}

  int num_shards() const override { return inner_.num_shards(); }
  int shard_begin(int k) const override { return inner_.shard_begin(k); }
  int shard_end(int k) const override { return inner_.shard_end(k); }
  void Fill(int k, CompiledTrace* arena) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      fills_.emplace_back(k, arena);
    }
    if (k == throw_on_) {
      throw std::runtime_error("injected fill failure");
    }
    const int in_flight = ++in_flight_;
    int peak = peak_in_flight_.load();
    while (in_flight > peak &&
           !peak_in_flight_.compare_exchange_weak(peak, in_flight)) {
    }
    inner_.Fill(k, arena);
    --in_flight_;
  }

  std::vector<std::pair<int, const CompiledTrace*>> fills() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fills_;
  }
  int peak_in_flight() const { return peak_in_flight_.load(); }

 private:
  const ShardSource& inner_;
  const int throw_on_;
  mutable std::mutex mu_;
  mutable std::vector<std::pair<int, const CompiledTrace*>> fills_;
  mutable std::atomic<int> in_flight_{0};
  mutable std::atomic<int> peak_in_flight_{0};
};

TEST(SweepStreamTest, EveryShardFilledOnceIntoAtMostKArenas) {
  WorkloadGenerator gen(SmallConfig());
  const Trace trace = gen.Generate();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const std::vector<const PolicyFactory*> factories = {&fixed10, &hybrid};
  const auto materialized = EvaluatePolicies(trace, factories, 0);
  const TraceShardSource inner(trace, /*shard_apps=*/16);
  const int num_shards = inner.num_shards();
  ASSERT_GE(num_shards, 8);

  for (const int threads : {1, 4}) {
    for (const int residency : {1, 2, 4, 1 << 20}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " residency=" + std::to_string(residency));
      const RecordingShardSource source(inner);
      SimulatorOptions options;
      options.num_threads = threads;
      StreamingSweepOptions stream;
      stream.max_resident_shards = residency;
      ExpectPointsIdentical(
          EvaluatePoliciesStreamed(source, factories, 0, options, stream),
          materialized);

      std::vector<int> fills_per_shard(static_cast<size_t>(num_shards), 0);
      std::set<const CompiledTrace*> arenas;
      for (const auto& [shard, arena] : source.fills()) {
        ++fills_per_shard[static_cast<size_t>(shard)];
        arenas.insert(arena);
      }
      EXPECT_EQ(fills_per_shard,
                std::vector<int>(static_cast<size_t>(num_shards), 1));
      EXPECT_LE(static_cast<int>(arenas.size()), residency);
      if (threads == 1 || residency == 1) {
        EXPECT_EQ(arenas.size(), 1u);
      }
      const int window =
          std::clamp(std::min(residency / 2, threads), 1, num_shards);
      EXPECT_LE(source.peak_in_flight(), window);
    }
  }
}

TEST(SweepStreamTest, FillExceptionPropagatesOutOfTheReplayRegion) {
  // At 4 threads and the default bound of 4, shards 0-1 replay while shards
  // 2-3 fill as tasks of the same region, so shard 3's throw comes from a
  // fill task in the middle of a replay region.
  WorkloadGenerator gen(SmallConfig());
  const Trace trace = gen.Generate();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const std::vector<const PolicyFactory*> factories = {&fixed10};
  const TraceShardSource inner(trace, 16);
  const RecordingShardSource source(inner, /*throw_on=*/3);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SimulatorOptions options;
    options.num_threads = threads;
    EXPECT_THROW(EvaluatePoliciesStreamed(source, factories, 0, options),
                 std::runtime_error);
  }
}

TEST(SweepStreamTest, StreamedSweepWithConcurrentChaosReplay) {
  // The check.sh ASan leg's smoke: a fault plan drives a cluster replay on
  // one thread while the streamed sweep rotates shard arenas on others, so
  // leaks or races in arena recycling surface under an active fault plan.
  GeneratorConfig config = SmallConfig();
  config.num_apps = 80;
  WorkloadGenerator gen(config);
  const Trace trace = gen.Generate();

  std::string error;
  const auto plan = FaultPlan::Parse(
      "crash:invoker=0,at=10m,down=5m; spike:at=30m,for=5m,x=4", &error);
  ASSERT_TRUE(plan.has_value()) << error;

  ClusterResult chaos_result;
  std::thread chaos([&] {
    ClusterConfig cluster_config;
    cluster_config.faults = *plan;
    const ClusterSimulator cluster(cluster_config);
    const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
    chaos_result = cluster.Replay(trace, fixed10);
  });

  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const std::vector<const PolicyFactory*> factories = {&fixed10, &hybrid};
  const auto materialized = EvaluatePolicies(trace, factories, 0);
  const TraceShardSource source(trace, 11);
  SimulatorOptions options;
  options.num_threads = 4;
  const auto streamed =
      EvaluatePoliciesStreamed(source, factories, 0, options);
  chaos.join();

  ExpectPointsIdentical(streamed, materialized);
  EXPECT_GT(chaos_result.total_invocations, 0);
}

TEST(SweepStreamDeathTest, TelemetryIsRejectedInStreamedMode) {
  WorkloadGenerator gen(SmallConfig());
  const Trace trace = gen.Generate();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const std::vector<const PolicyFactory*> factories = {&fixed10};
  const TraceShardSource source(trace, 32);
  Telemetry telemetry;
  SimulatorOptions options;
  options.telemetry = &telemetry;
  EXPECT_DEATH(EvaluatePoliciesStreamed(source, factories, 0, options),
               "telemetry");
}

}  // namespace
}  // namespace faas
