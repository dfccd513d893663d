#include "src/common/parallel.h"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/policy/policy.h"
#include "src/sim/sweep.h"
#include "src/workload/generator.h"

namespace faas {
namespace {

TEST(ParallelForTest, CoversEveryIndexOnce) {
  constexpr size_t kCount = 10'000;
  std::vector<std::atomic<int>> hits(kCount);
  ParallelFor(kCount, [&](size_t i) { hits[i].fetch_add(1); }, 4);
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, InlineWhenSingleThread) {
  std::vector<int> order;
  ParallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ZeroCountIsNoOp) {
  bool called = false;
  ParallelFor(0, [&](size_t) { called = true; }, 4);
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, HardwareThreadsPositive) {
  EXPECT_GE(HardwareThreads(), 1);
}

TEST(ParallelSimulationTest, MatchesSequentialExactly) {
  GeneratorConfig config;
  config.num_apps = 120;
  config.days = 2;
  config.seed = 55;
  config.instants_rate_cap_per_day = 1000.0;
  const Trace trace = WorkloadGenerator(config).Generate();
  const FixedKeepAliveFactory factory(Duration::Minutes(10));

  SimulatorOptions sequential;
  sequential.num_threads = 1;
  SimulatorOptions parallel;
  parallel.num_threads = 4;
  const SimulationResult a =
      EvaluatePolicies(trace, {&factory}, 0, sequential)[0].result;
  const SimulationResult b =
      EvaluatePolicies(trace, {&factory}, 0, parallel)[0].result;

  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].app, b.apps[i].app);
    EXPECT_EQ(a.apps[i].cold_starts, b.apps[i].cold_starts);
    EXPECT_DOUBLE_EQ(a.apps[i].wasted_memory_minutes(),
                     b.apps[i].wasted_memory_minutes());
  }
}

}  // namespace
}  // namespace faas
