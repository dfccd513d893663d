// End-to-end checks of the telemetry subsystem against the simulators: the
// collected span set and scraped metrics must be bit-identical at any
// thread count and in any fold order, live readers must see whole folds,
// telemetry must not perturb simulation results, and the counters must
// agree with the simulators' own bookkeeping.

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/sim/compiled_trace.h"
#include "src/sim/simulator.h"
#include "src/sim/sweep.h"
#include "src/telemetry/export.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/generator.h"

namespace faas {
namespace {

Trace MakeTrace(int num_apps = 12) {
  Trace trace;
  trace.horizon = Duration::Hours(6);
  for (int a = 0; a < num_apps; ++a) {
    AppTrace app;
    app.owner_id = "o";
    app.app_id = "app" + std::to_string(a);
    app.memory = {100.0, 90.0, 120.0, 1};
    FunctionTrace function;
    function.function_id = "f";
    function.trigger = TriggerType::kHttp;
    const int64_t period = (a + 1) * 5;
    for (int64_t t = 0; t < 6 * 60; t += period) {
      function.invocations.push_back(TimePoint(t * 60'000));
    }
    function.execution = {1.0, 0.5, 2.0, 1};
    app.functions.push_back(std::move(function));
    trace.apps.push_back(std::move(app));
  }
  return trace;
}

std::string Prometheus(const Telemetry& telemetry) {
  std::ostringstream out;
  WritePrometheusText(telemetry.metrics().Scrape(), out);
  return out.str();
}

// Every export a run can write: Prometheus text, series CSV, Chrome trace.
std::string AllExports(const Telemetry& telemetry) {
  std::ostringstream out;
  const RegistrySnapshot snapshot = telemetry.metrics().Scrape();
  WritePrometheusText(snapshot, out);
  WriteSeriesCsv(snapshot, out);
  WriteChromeTrace(telemetry.tracer().Collect(), out);
  return out.str();
}

TEST(TelemetryIntegration, SweepTraceBitIdenticalAcrossThreadCounts) {
  GeneratorConfig config;
  config.num_apps = 80;
  config.days = 1;
  config.seed = 17;
  const Trace trace = WorkloadGenerator(config).Generate();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const std::vector<const PolicyFactory*> factories = {&fixed10, &hybrid};

  Telemetry sequential_telemetry;
  SimulatorOptions sequential;
  sequential.num_threads = 1;
  sequential.telemetry = &sequential_telemetry;
  EvaluatePolicies(trace, factories, 0, sequential);

  Telemetry parallel_telemetry;
  SimulatorOptions parallel;
  parallel.num_threads = 4;
  parallel.telemetry = &parallel_telemetry;
  EvaluatePolicies(trace, factories, 0, parallel);

  const CollectedTrace a = sequential_telemetry.tracer().Collect();
  const CollectedTrace b = parallel_telemetry.tracer().Collect();
  ASSERT_EQ(a.spans.size(), b.spans.size());
  EXPECT_EQ(a.spans, b.spans);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.processes, b.processes);
  EXPECT_EQ(a.threads, b.threads);

  std::ostringstream chrome_a;
  std::ostringstream chrome_b;
  WriteChromeTrace(a, chrome_a);
  WriteChromeTrace(b, chrome_b);
  EXPECT_EQ(chrome_a.str(), chrome_b.str());

  EXPECT_EQ(Prometheus(sequential_telemetry), Prometheus(parallel_telemetry));
}

TEST(TelemetryIntegration, TaskFoldsAreExactInEveryOrder) {
  // Four sweep tasks replay disjoint apps into their own blocks and span
  // buffers, as ReplayShards does, and also set a gauge (two at one
  // timestamp); folding them in each of the 24 orders must give identical
  // exports.  Histograms stay out of blocks: a double sum folded in task
  // order would differ between orders.
  const CompiledTrace compiled = CompiledTrace::Compile(MakeTrace(16));
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const std::vector<const PolicyFactory*> factories = {&fixed10, &hybrid};
  const ColdStartSimulator simulator;
  const std::array<std::pair<double, int64_t>, 4> gauge_samples = {
      {{5.0, 100}, {7.0, 300}, {9.0, 300}, {1.0, 200}}};

  std::array<int, 4> order = {0, 1, 2, 3};
  std::string first;
  int orders = 0;
  do {
    Telemetry telemetry;
    std::vector<SimPolicyInstruments> instruments;
    for (size_t p = 0; p < factories.size(); ++p) {
      instruments.push_back(SimPolicyInstruments::Register(
          telemetry, factories[p]->name(), static_cast<int16_t>(p),
          static_cast<int64_t>(p * compiled.num_apps()), compiled.horizon));
    }
    const GaugeId gauge =
        telemetry.metrics().AddGauge("harness_gauge", "Harness gauge");
    std::vector<std::unique_ptr<SimTaskTelemetry>> tasks;
    for (size_t t = 0; t < 4; ++t) {
      tasks.push_back(std::make_unique<SimTaskTelemetry>(telemetry,
                                                         instruments));
      for (size_t app = t; app < compiled.num_apps(); app += 4) {
        for (size_t p = 0; p < factories.size(); ++p) {
          const auto policy = factories[p]->CreateForApp();
          simulator.SimulateApp(compiled, app, *policy,
                                &tasks[t]->policy(p));
        }
      }
      tasks[t]->policy(0).metrics->Set(
          gauge, gauge_samples[t].first, TimePoint(gauge_samples[t].second));
    }
    for (const int t : order) {
      tasks[static_cast<size_t>(t)]->Fold();
    }
    const std::string exports = AllExports(telemetry);
    if (orders == 0) {
      first = exports;
      const RegistrySnapshot snapshot = telemetry.metrics().Scrape();
      EXPECT_EQ(snapshot.Find("harness_gauge")->gauge, 9.0);
      EXPECT_GT(snapshot.Find("faas_sim_invocations_total",
                              "policy=\"" + hybrid.name() + "\"")
                    ->counter,
                0);
      EXPECT_EQ(telemetry.tracer().num_spans(),
                factories.size() * compiled.num_apps());
    } else {
      EXPECT_EQ(exports, first) << "fold order " << order[0] << order[1]
                                << order[2] << order[3];
    }
    ++orders;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orders, 24);
}

TEST(TelemetryIntegration, LiveReadersDuringSweepSeeWholeFolds) {
  // The --progress heartbeat and the SIGINT flush read the registry and
  // the tracer while a 4-thread sweep is running.  Counters they see never
  // decrease, and the final exports equal those of a quiet run.
  GeneratorConfig config;
  config.num_apps = 300;
  config.days = 1;
  config.seed = 23;
  const Trace trace = WorkloadGenerator(config).Generate();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const std::vector<const PolicyFactory*> factories = {&fixed10, &hybrid};
  SimulatorOptions options;
  options.num_threads = 4;

  Telemetry quiet;
  options.telemetry = &quiet;
  EvaluatePolicies(trace, factories, 0, options);

  Telemetry live;
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  int64_t reads = 0;
  std::thread reader([&]() {
    int64_t last_apps = 0;
    int64_t last_invocations = 0;
    size_t last_spans = 0;
    while (!done.load(std::memory_order_acquire)) {
      const RegistrySnapshot snapshot = live.metrics().Scrape();
      int64_t apps = 0;
      for (const MetricSnapshot& metric : snapshot.metrics) {
        if (metric.name == "faas_sim_apps_total") {
          apps += metric.counter;
        }
      }
      const int64_t invocations =
          live.metrics().SumCountersByBase("faas_sim_invocations_total");
      const size_t spans = live.tracer().Collect().spans.size();
      EXPECT_GE(apps, last_apps);
      EXPECT_GE(invocations, last_invocations);
      EXPECT_GE(spans, last_spans);
      last_apps = apps;
      last_invocations = invocations;
      last_spans = spans;
      ++reads;
      started.store(true, std::memory_order_release);
    }
  });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  options.telemetry = &live;
  EvaluatePolicies(trace, factories, 0, options);
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(reads, 0);
  EXPECT_EQ(AllExports(live), AllExports(quiet));
}

TEST(TelemetryIntegration, TelemetryDoesNotChangeSweepResults) {
  const Trace trace = MakeTrace();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const std::vector<const PolicyFactory*> factories = {&fixed10, &hybrid};

  const auto plain = EvaluatePolicies(trace, factories, 0);

  Telemetry telemetry;
  SimulatorOptions with_telemetry;
  with_telemetry.telemetry = &telemetry;
  const auto traced = EvaluatePolicies(trace, factories, 0, with_telemetry);

  ASSERT_EQ(plain.size(), traced.size());
  for (size_t p = 0; p < plain.size(); ++p) {
    EXPECT_EQ(plain[p].cold_start_p75, traced[p].cold_start_p75);
    EXPECT_EQ(plain[p].wasted_memory_minutes,
              traced[p].wasted_memory_minutes);
    ASSERT_EQ(plain[p].result.apps.size(), traced[p].result.apps.size());
    for (size_t i = 0; i < plain[p].result.apps.size(); ++i) {
      EXPECT_EQ(plain[p].result.apps[i].cold_starts,
                traced[p].result.apps[i].cold_starts);
    }
  }
}

TEST(TelemetryIntegration, SweepCountersMatchResults) {
  const Trace trace = MakeTrace();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const std::vector<const PolicyFactory*> factories = {&fixed10};

  Telemetry telemetry;
  SimulatorOptions options;
  options.telemetry = &telemetry;
  const auto points = EvaluatePolicies(trace, factories, 0, options);
  ASSERT_EQ(points.size(), 1u);

  int64_t invocations = 0;
  int64_t cold_starts = 0;
  for (const AppSimResult& app : points[0].result.apps) {
    invocations += app.invocations;
    cold_starts += app.cold_starts;
  }
  const RegistrySnapshot snapshot = telemetry.metrics().Scrape();
  const std::string label = "policy=\"" + points[0].name + "\"";
  const MetricSnapshot* apps = snapshot.Find("faas_sim_apps_total", label);
  ASSERT_NE(apps, nullptr);
  EXPECT_EQ(apps->counter, static_cast<int64_t>(trace.apps.size()));
  EXPECT_EQ(snapshot.Find("faas_sim_invocations_total", label)->counter,
            invocations);
  EXPECT_EQ(snapshot.Find("faas_sim_cold_starts_total", label)->counter,
            cold_starts);

  // The per-minute series covers the same invocations.
  const MetricSnapshot* series =
      snapshot.Find("faas_sim_minute_invocations", label);
  ASSERT_NE(series, nullptr);
  int64_t binned = 0;
  for (int64_t bin : series->bins) {
    binned += bin;
  }
  EXPECT_EQ(binned, invocations);

  // One kAppReplay span per app that had invocations.
  const CollectedTrace collected = telemetry.tracer().Collect();
  int64_t replay_spans = 0;
  for (const SpanRecord& span : collected.spans) {
    if (span.name == static_cast<int16_t>(SpanName::kAppReplay)) {
      ++replay_spans;
    }
  }
  EXPECT_EQ(replay_spans, static_cast<int64_t>(trace.apps.size()));
}

TEST(TelemetryIntegration, ClusterReplayCountersMatchResult) {
  const Trace trace = MakeTrace();
  Telemetry telemetry;
  ClusterConfig config;
  config.num_invokers = 4;
  config.telemetry = &telemetry;
  const ClusterSimulator simulator(config);
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const ClusterResult result = simulator.Replay(trace, fixed10);

  const RegistrySnapshot snapshot = telemetry.metrics().Scrape();
  const std::string label = "policy=\"" + result.policy_name + "\"";
  EXPECT_EQ(snapshot.Find("faas_cluster_invocations_total", label)->counter,
            result.total_invocations);
  EXPECT_EQ(snapshot.Find("faas_cluster_cold_starts_total", label)->counter,
            result.total_cold_starts);
  EXPECT_EQ(snapshot.Find("faas_cluster_warm_starts_total", label)->counter,
            result.total_warm_starts);
  EXPECT_EQ(snapshot.Find("faas_cluster_evictions_total", label)->counter,
            result.total_evictions);
  EXPECT_EQ(snapshot.Find("faas_cluster_dropped_total", label)->counter,
            result.total_dropped);

  int64_t completed = 0;
  for (const ClusterAppResult& app : result.apps) {
    completed += app.Completed();
  }
  EXPECT_EQ(snapshot.Find("faas_cluster_completions_total", label)->counter,
            completed);
  const MetricSnapshot* latency =
      snapshot.Find("faas_cluster_e2e_latency_ms", label);
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->observations, completed);

  // Every completion contributed one activation span; cold starts emitted
  // cold_load spans on the invoker lanes.
  const CollectedTrace collected = telemetry.tracer().Collect();
  int64_t activations = 0;
  int64_t cold_loads = 0;
  for (const SpanRecord& span : collected.spans) {
    if (span.name == static_cast<int16_t>(SpanName::kActivation)) {
      ++activations;
      EXPECT_GE(span.dur_ms, 0);
      EXPECT_EQ(span.tid, 0);
    } else if (span.name == static_cast<int16_t>(SpanName::kColdLoad)) {
      ++cold_loads;
      EXPECT_GE(span.tid, 1);  // Invoker lanes start at 1.
    }
  }
  EXPECT_EQ(activations, completed + result.total_dropped +
                             result.total_rejected_outage +
                             result.total_abandoned + result.total_lost);
  EXPECT_EQ(cold_loads, result.total_cold_starts);

  // The interval sampler filled the per-minute series.
  const MetricSnapshot* minute =
      snapshot.Find("faas_cluster_minute_invocations", label);
  ASSERT_NE(minute, nullptr);
  int64_t binned = 0;
  for (int64_t bin : minute->bins) {
    binned += bin;
  }
  EXPECT_GT(binned, 0);
  EXPECT_LE(binned, result.total_invocations);
}

TEST(TelemetryIntegration, TelemetryDoesNotChangeClusterResults) {
  const Trace trace = MakeTrace();
  ClusterConfig plain_config;
  plain_config.num_invokers = 4;
  const ClusterResult plain =
      ClusterSimulator(plain_config).Replay(
          trace, FixedKeepAliveFactory(Duration::Minutes(10)));

  Telemetry telemetry;
  ClusterConfig traced_config = plain_config;
  traced_config.telemetry = &telemetry;
  const ClusterResult traced =
      ClusterSimulator(traced_config).Replay(
          trace, FixedKeepAliveFactory(Duration::Minutes(10)));

  EXPECT_EQ(plain.total_invocations, traced.total_invocations);
  EXPECT_EQ(plain.total_cold_starts, traced.total_cold_starts);
  EXPECT_EQ(plain.total_warm_starts, traced.total_warm_starts);
  EXPECT_EQ(plain.total_evictions, traced.total_evictions);
  EXPECT_EQ(plain.memory_mb_seconds, traced.memory_mb_seconds);
  EXPECT_EQ(plain.billed_mean_ms_stream, traced.billed_mean_ms_stream);
  ASSERT_EQ(plain.apps.size(), traced.apps.size());
  for (size_t i = 0; i < plain.apps.size(); ++i) {
    EXPECT_EQ(plain.apps[i].cold_starts, traced.apps[i].cold_starts);
    EXPECT_EQ(plain.apps[i].invocations, traced.apps[i].invocations);
  }
}

TEST(TelemetryIntegration, DisabledHalvesLeaveNullInstrumentPointers) {
  TelemetryConfig config;
  config.trace_enabled = false;
  Telemetry telemetry(config);
  const ClusterInstruments cluster = ClusterInstruments::Register(
      telemetry, "p", 0, Duration::Hours(1), Duration::Minutes(1));
  EXPECT_EQ(cluster.tracer, nullptr);
  ASSERT_NE(cluster.registry, nullptr);

  TelemetryConfig metrics_off;
  metrics_off.metrics_enabled = false;
  Telemetry trace_only(metrics_off);
  const SimPolicyInstruments sim = SimPolicyInstruments::Register(
      trace_only, "p", 0, 0, Duration::Hours(1));
  EXPECT_EQ(sim.registry, nullptr);
  ASSERT_NE(sim.tracer, nullptr);
}

}  // namespace
}  // namespace faas
