#include "src/sim/compiled_trace.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/sim/simulator.h"
#include "src/trace/entity_index.h"
#include "src/workload/generator.h"

namespace faas {
namespace {

Trace MakeSeededTrace() {
  GeneratorConfig config;
  config.num_apps = 150;
  config.days = 2;
  config.seed = 77;
  config.instants_rate_cap_per_day = 1500.0;
  return WorkloadGenerator(config).Generate();
}

// An app whose streams exercise every merge case: equal instants across
// three functions with different average execution times, a duplicate
// instant inside one function, an empty function, and an unsorted stream.
AppTrace MakeTieApp() {
  AppTrace app;
  app.owner_id = "tie-owner";
  app.app_id = "tie-app";
  app.memory = {128.0, 120.0, 140.0, 1};
  const auto add = [&app](const char* id, double average_ms,
                          std::vector<int64_t> instants) {
    FunctionTrace function;
    function.function_id = id;
    for (int64_t t : instants) {
      function.invocations.emplace_back(t);
    }
    function.execution.average_ms = average_ms;
    function.execution.minimum_ms = average_ms;
    function.execution.maximum_ms = average_ms;
    function.execution.count = function.InvocationCount();
    app.functions.push_back(std::move(function));
  };
  add("f0", 250.0, {1'000, 60'000, 120'000, 4'000'000});
  add("f1", 4'000.0, {1'000, 60'000, 60'000, 3'600'000, 4'000'000});
  add("f2", 700.0, {});
  add("f3", 90'000.0, {1'000, 120'000, 3'600'000, 7'200'000});
  add("f4", 1'500.0, {5'400'000, 1'000, 60'000, 7'200'000});
  return app;
}

// The merge contract: std::stable_sort by time of the functions' (time,
// exec) pairs concatenated in function order.
std::vector<std::pair<int64_t, int64_t>> StableSortedPairs(const AppTrace& app) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (const FunctionTrace& function : app.functions) {
    for (TimePoint t : function.invocations) {
      pairs.emplace_back(t.millis_since_origin(),
                         static_cast<int64_t>(function.execution.average_ms));
    }
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const auto& lhs, const auto& rhs) {
                     return lhs.first < rhs.first;
                   });
  return pairs;
}

std::vector<std::pair<int64_t, int64_t>> SpanPairs(
    const CompiledTrace& compiled, size_t app) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  const CompiledTrace::AppSpan span = compiled.spans[app];
  for (size_t i = span.begin; i < span.end; ++i) {
    pairs.emplace_back(compiled.times_ms[i], compiled.exec_ms[i]);
  }
  return pairs;
}

// The seeded trace plus the hand-built tie app.
Trace MakeTraceWithTieApp() {
  Trace trace = MakeSeededTrace();
  trace.apps.push_back(MakeTieApp());
  trace.entities = EntityIndex::Build(trace);
  return trace;
}

// A reference arena built without Compile: each app's (time, exec) pairs
// sorted by time, with every cross-function tie group in *reverse* function
// order — the opposite of Compile's stable merge.
CompiledTrace CompileWithReversedTies(const Trace& trace,
                                      const CompiledTrace& compiled) {
  CompiledTrace reference;
  reference.entities = compiled.entities;
  reference.horizon = trace.horizon;
  for (const AppTrace& app : trace.apps) {
    struct Invocation {
      int64_t time;
      int64_t exec;
      size_t function;
    };
    std::vector<Invocation> invocations;
    for (size_t f = 0; f < app.functions.size(); ++f) {
      const FunctionTrace& function = app.functions[f];
      for (TimePoint t : function.invocations) {
        invocations.push_back(
            {t.millis_since_origin(),
             static_cast<int64_t>(function.execution.average_ms), f});
      }
    }
    std::stable_sort(invocations.begin(), invocations.end(),
                     [](const Invocation& lhs, const Invocation& rhs) {
                       if (lhs.time != rhs.time) {
                         return lhs.time < rhs.time;
                       }
                       return lhs.function > rhs.function;
                     });
    CompiledTrace::AppSpan span;
    span.begin = reference.times_ms.size();
    for (const Invocation& invocation : invocations) {
      reference.times_ms.push_back(invocation.time);
      reference.exec_ms.push_back(invocation.exec);
    }
    span.end = reference.times_ms.size();
    reference.spans.push_back(span);
    reference.memory_mb.push_back(app.memory.average_mb);
  }
  return reference;
}

void ExpectSameAppResult(const AppSimResult& expected,
                         const AppSimResult& actual) {
  EXPECT_EQ(expected.app, actual.app);
  EXPECT_EQ(expected.invocations, actual.invocations);
  EXPECT_EQ(expected.cold_starts, actual.cold_starts);
  EXPECT_EQ(expected.prewarm_loads, actual.prewarm_loads);
  EXPECT_EQ(expected.wasted_memory_minutes(), actual.wasted_memory_minutes());
  EXPECT_EQ(expected.ledger.cpu_ms, actual.ledger.cpu_ms);
  EXPECT_EQ(expected.cold_per_hour, actual.cold_per_hour);
  EXPECT_EQ(expected.invocations_per_hour, actual.invocations_per_hour);
}

TEST(CompiledTraceTest, ArenasAreContiguousAndSorted) {
  const Trace trace = MakeSeededTrace();
  const CompiledTrace compiled = CompiledTrace::Compile(trace);

  ASSERT_EQ(compiled.num_apps(), trace.apps.size());
  EXPECT_EQ(compiled.total_invocations(), trace.TotalInvocations());
  EXPECT_EQ(compiled.times_ms.size(), compiled.exec_ms.size());
  EXPECT_EQ(compiled.horizon, trace.horizon);

  size_t expected_begin = 0;
  for (size_t a = 0; a < compiled.num_apps(); ++a) {
    const CompiledTrace::AppSpan span = compiled.spans[a];
    EXPECT_EQ(span.begin, expected_begin) << "app " << a;
    EXPECT_EQ(static_cast<int64_t>(span.size()),
              trace.apps[a].TotalInvocations());
    EXPECT_TRUE(std::is_sorted(compiled.times_ms.begin() + span.begin,
                               compiled.times_ms.begin() + span.end))
        << "app " << a;
    EXPECT_EQ(compiled.AppName(a), trace.apps[a].app_id);
    EXPECT_DOUBLE_EQ(compiled.memory_mb[a], trace.apps[a].memory.average_mb);
    expected_begin = span.end;
  }
  EXPECT_EQ(expected_begin, compiled.times_ms.size());
}

TEST(CompiledTraceTest, ParallelCompileMatchesSequential) {
  const Trace trace = MakeSeededTrace();
  const CompiledTrace sequential = CompiledTrace::Compile(trace, 1);
  const CompiledTrace parallel = CompiledTrace::Compile(trace, 4);
  EXPECT_EQ(sequential.times_ms, parallel.times_ms);
  EXPECT_EQ(sequential.exec_ms, parallel.exec_ms);
  ASSERT_EQ(sequential.spans.size(), parallel.spans.size());
  for (size_t a = 0; a < sequential.spans.size(); ++a) {
    EXPECT_EQ(sequential.spans[a].begin, parallel.spans[a].begin);
    EXPECT_EQ(sequential.spans[a].end, parallel.spans[a].end);
  }
}

TEST(CompiledTraceTest, MergeIsStableSortOfFunctionStreams) {
  const Trace trace = MakeTraceWithTieApp();
  const size_t tie = trace.apps.size() - 1;
  const auto expected = StableSortedPairs(trace.apps[tie]);
  ASSERT_EQ(expected.size(), 17u);

  EXPECT_EQ(SpanPairs(CompiledTrace::Compile(trace), tie), expected);
  EXPECT_EQ(SpanPairs(CompiledTrace::Compile(trace, 4), tie), expected);
  // A recycled arena: compile the whole trace, then just the tie app.
  CompiledTrace shard;
  CompiledTrace::CompileRangeInto(trace, 0, trace.apps.size(), &shard);
  EXPECT_EQ(SpanPairs(shard, tie), expected);
  CompiledTrace::CompileRangeInto(trace, tie, tie + 1, &shard);
  ASSERT_EQ(shard.num_apps(), 1u);
  EXPECT_EQ(SpanPairs(shard, 0), expected);
  // Every generated app obeys the same contract.
  const CompiledTrace compiled = CompiledTrace::Compile(trace);
  for (size_t a = 0; a < trace.apps.size(); ++a) {
    EXPECT_EQ(SpanPairs(compiled, a), StableSortedPairs(trace.apps[a]))
        << "app " << a;
  }
}

class CompiledReplayEquivalenceTest
    : public ::testing::TestWithParam<SimulatorOptions> {};

TEST_P(CompiledReplayEquivalenceTest, MatchesLegacyPerAppMerge) {
  // Compile orders cross-function ties by function; the reference reverses
  // every tie group.  The order of equal instants is not part of the merge
  // contract that replay relies on, so replay must not notice.
  const Trace trace = MakeTraceWithTieApp();
  const CompiledTrace compiled = CompiledTrace::Compile(trace);
  const CompiledTrace reference = CompileWithReversedTies(trace, compiled);
  const size_t tie = trace.apps.size() - 1;
  ASSERT_NE(SpanPairs(reference, tie), SpanPairs(compiled, tie));
  ASSERT_EQ(reference.times_ms, compiled.times_ms);

  const ColdStartSimulator simulator(GetParam());
  const FixedKeepAliveFactory fixed(Duration::Minutes(10));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  for (const PolicyFactory* factory :
       {static_cast<const PolicyFactory*>(&fixed),
        static_cast<const PolicyFactory*>(&hybrid)}) {
    for (size_t a = 0; a < trace.apps.size(); ++a) {
      const std::unique_ptr<KeepAlivePolicy> reference_policy =
          factory->CreateForApp();
      const AppSimResult expected =
          simulator.SimulateApp(reference, a, *reference_policy);
      const std::unique_ptr<KeepAlivePolicy> compiled_policy =
          factory->CreateForApp();
      const AppSimResult actual =
          simulator.SimulateApp(compiled, a, *compiled_policy);
      ExpectSameAppResult(expected, actual);
    }
  }
}

// Names each option set.  Without names, ctest would name the cases after
// gtest's print of SimulatorOptions: its raw bytes, padding included, which
// change from run to run.
std::string OptionsName(
    const ::testing::TestParamInfo<SimulatorOptions>& info) {
  const SimulatorOptions& options = info.param;
  if (!options.count_tail_residency) {
    return options.track_hourly ? "NoTailHourly" : "NoTail";
  }
  if (options.use_execution_times) {
    return options.weight_by_memory ? "ExecTimesMemory" : "ExecTimes";
  }
  return "Default";
}

INSTANTIATE_TEST_SUITE_P(
    Options, CompiledReplayEquivalenceTest,
    ::testing::Values(SimulatorOptions{},
                      SimulatorOptions{.use_execution_times = true},
                      SimulatorOptions{.use_execution_times = true,
                                       .weight_by_memory = true},
                      SimulatorOptions{.count_tail_residency = false,
                                       .track_hourly = true}),
    OptionsName);

TEST(CompiledTraceTest, EmptyAppYieldsEmptyResult) {
  Trace trace;
  trace.horizon = Duration::Hours(1);
  AppTrace app;
  app.owner_id = "o";
  app.app_id = "empty";
  app.memory = {64.0, 60.0, 70.0, 1};
  trace.apps.push_back(app);
  const CompiledTrace compiled = CompiledTrace::Compile(trace);
  ASSERT_EQ(compiled.num_apps(), 1u);
  EXPECT_EQ(compiled.spans[0].size(), 0u);

  const ColdStartSimulator simulator;
  FixedKeepAlivePolicy policy(Duration::Minutes(10));
  const AppSimResult result = simulator.SimulateApp(compiled, 0, policy);
  EXPECT_EQ(result.invocations, 0);
  EXPECT_EQ(result.cold_starts, 0);
  EXPECT_DOUBLE_EQ(result.wasted_memory_minutes(), 0.0);
}

}  // namespace
}  // namespace faas
