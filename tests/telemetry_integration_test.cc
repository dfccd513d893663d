// End-to-end checks of the telemetry subsystem against the simulators: the
// collected span set and scraped metrics must be bit-identical at any
// thread count and in any fold order, live readers must see whole folds,
// telemetry must not perturb simulation results, and the counters must
// agree with the simulators' own bookkeeping.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
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
#include "src/workload/arrival.h"
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
  // Four sweep tasks replay disjoint apps into writers of their own, one
  // per policy, as ReplayShards does, and also set a gauge in a block of
  // their own (two at one timestamp); folding them in each of the 24
  // orders must give identical exports.  Histograms stay out of blocks: a double sum folded in task
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
    std::vector<std::vector<TelemetryWriter>> tasks(4);
    std::vector<MetricsBlock> gauge_blocks;
    for (size_t t = 0; t < 4; ++t) {
      for (const SimPolicyInstruments& policy : instruments) {
        tasks[t].emplace_back(telemetry, policy.lane);
      }
      for (size_t app = t; app < compiled.num_apps(); app += 4) {
        for (size_t p = 0; p < factories.size(); ++p) {
          const auto policy = factories[p]->CreateForApp();
          simulator.SimulateApp(compiled, app, *policy, &tasks[t][p],
                                &instruments[p]);
        }
      }
      gauge_blocks.emplace_back(telemetry.metrics());
      gauge_blocks[t].Set(gauge, gauge_samples[t].first,
                          TimePoint(gauge_samples[t].second));
    }
    for (const int t : order) {
      for (TelemetryWriter& writer : tasks[static_cast<size_t>(t)]) {
        writer.Fold();
      }
      telemetry.metrics().Fold(gauge_blocks[static_cast<size_t>(t)]);
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

// ---- Pinned exports --------------------------------------------------------
//
// The exact bytes every export writes for replays that reach every write
// site the simulators have, pinned by FNV-1a digests.  A change to how the
// components record (who writes what, with which label, lane or timestamp)
// that moves any of these bytes is a behaviour change, not a cleanup.

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

struct ExportDigests {
  uint64_t prometheus = 0;
  uint64_t series_csv = 0;
  uint64_t chrome_trace = 0;

  bool operator==(const ExportDigests&) const = default;
};

ExportDigests DigestExports(const Telemetry& telemetry) {
  const RegistrySnapshot snapshot = telemetry.metrics().Scrape();
  std::ostringstream prometheus;
  std::ostringstream series;
  std::ostringstream chrome;
  WritePrometheusText(snapshot, prometheus);
  WriteSeriesCsv(snapshot, series);
  WriteChromeTrace(telemetry.tracer().Collect(), chrome);
  return {Fnv1a(prometheus.str()), Fnv1a(series.str()), Fnv1a(chrome.str())};
}

std::string Hex(const ExportDigests& d) {
  char buffer[80];
  std::snprintf(buffer, sizeof(buffer), "{0x%016llxull, 0x%016llxull, 0x%016llxull}",
                static_cast<unsigned long long>(d.prometheus),
                static_cast<unsigned long long>(d.series_csv),
                static_cast<unsigned long long>(d.chrome_trace));
  return buffer;
}

// Eight regular apps (so the hybrid policy's histograms turn representative
// and it pre-warms) with mixed footprints, plus two flash crowds that
// overrun three small invokers.
Trace ChaosTrace() {
  Trace trace;
  trace.horizon = Duration::Hours(3);
  for (int a = 0; a < 8; ++a) {
    AppTrace app;
    app.owner_id = "o";
    app.app_id = "app" + std::to_string(a);
    const double memory_mb = 128.0 * (1 + a % 3);
    app.memory = {memory_mb, memory_mb, memory_mb, 10};
    FunctionTrace function;
    function.function_id = "f";
    function.trigger = TriggerType::kHttp;
    const int64_t period_ms = 60'000 * (3 + a);
    for (int64_t t = 7'000 * a; t < trace.horizon.millis(); t += period_ms) {
      function.invocations.push_back(TimePoint(t));
    }
    const double exec_ms = 400.0 + 700.0 * a;
    function.execution = {exec_ms, exec_ms * 0.5, exec_ms * 3.0,
                          static_cast<int64_t>(function.invocations.size())};
    app.functions.push_back(std::move(function));
    trace.apps.push_back(std::move(app));
  }
  FlashCrowdSpec crowd;
  crowd.count = 2;
  crowd.duration = Duration::Minutes(2);
  crowd.fraction = 1.0;
  crowd.events_per_function = 12.0;
  Rng crowd_rng(2024);
  ApplyFlashCrowd(trace, crowd, crowd_rng);
  return trace;
}

// Every plane on: network model (with a shaped, bounded uplink queue),
// overload plane, a fault plan with each fault class, an outage window,
// checkpoints and resource telemetry.
// `admission` picks the admission queue (sheds) over capacity drops.
ClusterConfig ChaosConfig(Telemetry* telemetry, bool admission) {
  ClusterConfig config;
  config.num_invokers = 3;
  config.invoker_memory_mb = 512.0;
  config.seed = 41;
  config.retry.max_retries = 1;
  config.retry.activation_timeout = Duration::Seconds(12);
  if (admission) {
    config.overload.admission.capacity = 16;
    config.overload.admission.max_wait = Duration::Seconds(5);
  }
  config.overload.invoker_concurrency_cap = 2;
  config.overload.breaker.enabled = true;
  config.overload.breaker.window = 8;
  config.overload.breaker.min_samples = 4;
  config.overload.breaker.open_duration = Duration::Seconds(15);
  config.overload.breaker.half_open_probes = 2;
  config.overload.hedge.after = Duration::Millis(300);
  config.network.enabled = true;
  config.network.uplink.queue_capacity = 4;
  config.network.uplink.rate_msgs_per_sec = 20.0;
  std::string error;
  const std::optional<FaultPlan> plan = FaultPlan::Parse(
      "crash:invoker=0,at=25m,down=2m; crash:invoker=0,at=61m,down=3m; "
      "crash:invoker=2,at=61m,down=3m; wipe:at=50m; "
      "spike:at=30m,for=10m,x=4; flaky:at=40m,for=10m,p=0.3; "
      "partition:at=90m,for=2m; netloss:at=0s,for=3h,p=0.02; "
      "netdup:at=100m,for=20m,p=0.2",
      &error);
  EXPECT_TRUE(plan.has_value()) << error;
  config.faults = plan.value_or(FaultPlan{});
  config.outages.push_back({1, Duration::Minutes(60), Duration::Minutes(65)});
  config.policy_checkpoint_interval = Duration::Minutes(20);
  config.resource_telemetry = true;
  config.cost.dollars_per_gb_second = 0.0000166667;
  config.telemetry = telemetry;
  return config;
}

TEST(TelemetryIntegration, ClusterExportsMatchPinnedDigests) {
  const Trace trace = ChaosTrace();
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const ExportDigests pins[] = {
      // Admission queue off: capacity drops.
      {0xe25d5cb2c5f662f3ull, 0xe0c101b4276c0339ull, 0x9960be49ec1620a4ull},
      // Admission queue on: queue waits and sheds.
      {0x26bfdfa4b300437aull, 0x7d7b050faa0980b9ull, 0xdf3fec7d6547cb18ull},
  };
  std::set<int16_t> emitted;
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(::testing::Message() << "admission=" << run);
    Telemetry telemetry;
    ClusterSimulator(ChaosConfig(&telemetry, run == 1)).Replay(trace, hybrid);
    const ExportDigests digests = DigestExports(telemetry);
    EXPECT_EQ(digests, pins[run]) << Hex(digests);
    for (const SpanRecord& span : telemetry.tracer().Collect().spans) {
      emitted.insert(span.name);
    }
  }
  // Together the runs reach every span the cluster can emit.
  for (int16_t name = 0;
       name < static_cast<int16_t>(SpanName::kNumSpanNames); ++name) {
    if (name != static_cast<int16_t>(SpanName::kAppReplay)) {
      EXPECT_TRUE(emitted.count(name) > 0)
          << SpanNameString(static_cast<SpanName>(name)) << " never emitted";
    }
  }
}

// Every faas_cluster_*_total counter equals the count the replay keeps for
// it, as ClusterResult exposes it, on a plain replay and on both chaos
// replays (every plane on, admission queue off and on).  The chaos replays
// sample every 19 minutes, which does not divide their horizon: events
// after the last tick reach the export only through the final publish, and
// the last tick sees an activation still pending, so the queue-depth
// gauge reads 0 only once the final publish has set it.
TEST(TelemetryIntegration, ClusterReplayCountersMatchResult) {
  const Trace plain_trace = MakeTrace();
  const Trace chaos_trace = ChaosTrace();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE(::testing::Message() << "run=" << run);
    Telemetry telemetry;
    ClusterConfig config;
    config.num_invokers = 4;
    config.telemetry = &telemetry;
    if (run > 0) {
      config = ChaosConfig(&telemetry, /*admission=*/run == 2);
      config.metrics_interval = Duration::Minutes(19);
    }
    const Trace& trace = run == 0 ? plain_trace : chaos_trace;
    const PolicyFactory& factory =
        run == 0 ? static_cast<const PolicyFactory&>(fixed10) : hybrid;
    const ClusterResult result =
        ClusterSimulator(config).Replay(trace, factory);

    int64_t completed = 0;
    for (const ClusterAppResult& app : result.apps) {
      completed += app.Completed();
    }
    const FaultLedger& faults = result.faults;
    const OverloadLedger& overload = result.overload;
    const int64_t checkpoints =
        config.policy_checkpoint_interval > Duration::Zero()
            ? trace.horizon.millis() /
                  config.policy_checkpoint_interval.millis()
            : 0;
    std::map<std::string, int64_t> twins = {
        {"invocations", result.total_invocations},
        {"completions", completed},
        {"retries", faults.retries_scheduled},
        {"timeouts", faults.timeouts},
        {"dropped", result.total_dropped - overload.TotalShed()},
        {"rejected_outage", faults.rejected_by_outage},
        {"abandoned", faults.abandoned},
        {"lost", faults.lost},
        {"policy_wipes", faults.policy_state_wipes},
        {"checkpoints", checkpoints},
        {"cold_starts", result.total_cold_starts},
        {"warm_starts", result.total_warm_starts},
        {"prewarm_loads", result.total_prewarm_loads},
        {"evictions", result.total_evictions},
        {"invoker_crashes", faults.invoker_crashes},
        {"invoker_restarts", faults.invoker_restarts},
    };
    if (config.overload.AnyEnabled()) {
      twins.insert({{"queued", overload.queued},
                    {"shed", overload.TotalShed()},
                    {"hedges", overload.hedges_launched},
                    {"hedge_wins", overload.hedge_wins},
                    {"breaker_opens", overload.breaker_opens},
                    {"breaker_rejected", overload.breaker_rejections}});
    }
    if (config.network.enabled) {
      twins.insert({{"net_dropped", faults.net_lost_to_loss +
                                        faults.net_lost_to_partition +
                                        faults.net_lost_to_queue},
                    {"net_duplicates", faults.net_duplicates_delivered},
                    {"net_retransmits", faults.rpc_retransmits},
                    {"net_dup_suppressed", faults.rpc_duplicates_suppressed},
                    {"net_give_ups", faults.rpc_give_ups},
                    {"lost_network", faults.lost_network},
                    {"lost_crash", faults.lost_crash}});
    }

    // Each registered cluster counter is checked against its twin, and every
    // twin is registered.  Transient faults have none in ClusterResult:
    // the ledger counts only those that reached a live attempt.
    const RegistrySnapshot snapshot = telemetry.metrics().Scrape();
    const std::string label = "policy=\"" + result.policy_name + "\"";
    const std::string prefix = "faas_cluster_";
    const std::string suffix = "_total";
    size_t checked = 0;
    for (const MetricSnapshot& metric : snapshot.metrics) {
      if (metric.kind != MetricKind::kCounter || metric.label != label ||
          !metric.name.starts_with(prefix) || !metric.name.ends_with(suffix)) {
        continue;
      }
      const std::string key = metric.name.substr(
          prefix.size(), metric.name.size() - prefix.size() - suffix.size());
      if (key == "transient_faults") {
        EXPECT_GE(metric.counter, faults.transient_failures);
        continue;
      }
      const auto twin = twins.find(key);
      ASSERT_NE(twin, twins.end()) << metric.name << " has no twin";
      EXPECT_EQ(metric.counter, twin->second) << metric.name;
      ++checked;
    }
    EXPECT_EQ(checked, twins.size());

    // The queue drains before the end, where the gauge is published.
    const MetricSnapshot* depth =
        snapshot.Find("faas_cluster_queue_depth", label);
    ASSERT_NE(depth, nullptr);
    EXPECT_TRUE(depth->gauge_set);
    EXPECT_EQ(depth->gauge, 0.0);

    const MetricSnapshot* latency =
        snapshot.Find("faas_cluster_e2e_latency_ms", label);
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->observations, completed);

    // Every ended activation contributed one activation span; cold starts
    // emitted cold_load spans on the invoker lanes.
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
}

TEST(TelemetryIntegration, SweepExportsMatchPinnedDigests) {
  GeneratorConfig config;
  config.num_apps = 60;
  config.days = 1;
  config.seed = 23;
  const Trace trace = WorkloadGenerator(config).Generate();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const std::vector<const PolicyFactory*> factories = {&fixed10, &hybrid};
  const ExportDigests pin = {0xa4d776c84d5293dfull, 0x552e07d043a7c93full,
                             0xdefa39513fd4e55aull};
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    Telemetry telemetry;
    SimulatorOptions options;
    options.num_threads = threads;
    options.telemetry = &telemetry;
    EvaluatePolicies(trace, factories, 0, options);
    const ExportDigests digests = DigestExports(telemetry);
    EXPECT_EQ(digests, pin) << Hex(digests);
  }
}

TEST(TelemetryIntegration, DisabledHalvesRecordNothing) {
  TelemetryConfig config;
  config.trace_enabled = false;
  Telemetry metrics_only(config);
  const ClusterInstruments cluster = ClusterInstruments::Register(
      metrics_only, "p", 0, Duration::Hours(1), Duration::Minutes(1));
  EXPECT_EQ(cluster.lane.label_id, -1);
  ASSERT_TRUE(cluster.invocations.valid());
  TelemetryWriter metrics_writer(metrics_only, cluster.lane);
  EXPECT_TRUE(metrics_writer.metrics_enabled());
  metrics_writer.Inc(cluster.invocations);
  metrics_writer.Instant(SpanName::kRetry, 0, TimePoint(5));
  metrics_writer.Fold();
  EXPECT_EQ(metrics_only.metrics().CounterValue(cluster.invocations), 1);
  EXPECT_EQ(metrics_only.tracer().num_spans(), 0u);

  TelemetryConfig metrics_off;
  metrics_off.metrics_enabled = false;
  Telemetry trace_only(metrics_off);
  const SimPolicyInstruments sim = SimPolicyInstruments::Register(
      trace_only, "p", 0, 0, Duration::Hours(1));
  EXPECT_FALSE(sim.apps.valid());
  ASSERT_GE(sim.lane.label_id, 0);
  TelemetryWriter trace_writer(trace_only, sim.lane);
  EXPECT_FALSE(trace_writer.metrics_enabled());
  trace_writer.Inc(sim.apps);
  trace_writer.Span(SpanName::kAppReplay, 0, TimePoint(5), Duration::Millis(3));
  trace_writer.Fold();
  EXPECT_TRUE(trace_only.metrics().Scrape().metrics.empty());
  EXPECT_EQ(trace_only.tracer().num_spans(), 1u);
}

}  // namespace
}  // namespace faas
