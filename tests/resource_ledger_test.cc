// ResourceLedger: the shared merge helper, the cost model, and the charge
// identities the unified cost-accounting spine promises — sim and cluster
// charge the same memory/CPU integrals on a deterministic trace, folds are
// bit-identical across thread counts, and the faas_resource_* telemetry
// families register only when asked so default exports stay byte-identical.

#include "src/common/resource_ledger.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/cluster/network.h"
#include "src/cluster/overload.h"
#include "src/policy/policy.h"
#include "src/serve/bridge.h"
#include "src/serve/timer_wheel.h"
#include "src/sim/sweep.h"
#include "src/telemetry/export.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/generator.h"

namespace faas {
namespace {

// Apps staggered by 1 s, invocations every `period`, constant 5 ms
// executions and an exactly-representable 128 MB footprint, so the sim and
// cluster charge integrals are exact (integer ms times a power of two).
Trace MakeDeterministicTrace(int num_apps, int invocations_per_app,
                             Duration period) {
  Trace trace;
  trace.horizon = period * static_cast<int64_t>(invocations_per_app + 10);
  for (int a = 0; a < num_apps; ++a) {
    AppTrace app;
    app.owner_id = "o";
    app.app_id = "app" + std::to_string(a);
    app.memory = {128.0, 128.0, 128.0, 1};
    FunctionTrace function;
    function.function_id = "f";
    function.trigger = TriggerType::kHttp;
    for (int i = 0; i < invocations_per_app; ++i) {
      function.invocations.push_back(TimePoint(
          static_cast<int64_t>(i) * period.millis() + a * 1000));
    }
    function.execution = {5.0, 5.0, 5.0, invocations_per_app};
    app.functions.push_back(std::move(function));
    trace.apps.push_back(std::move(app));
  }
  return trace;
}

// Zero-latency cluster: every log-normal latency component has median 0,
// so dispatch, container init, and runtime bootstrap all sample exactly 0
// and the cluster timeline matches the analytic simulator's.
ClusterConfig ZeroLatencyClusterConfig() {
  ClusterConfig config;
  config.num_invokers = 1;
  config.invoker_memory_mb = 1e9;
  config.latency.container_init_median_ms = 0.0;
  config.latency.runtime_bootstrap_median_ms = 0.0;
  config.latency.dispatch_median_ms = 0.0;
  config.execution_sigma = 0.0;
  config.collect_latencies = false;
  return config;
}

TEST(ResourceLedgerTest, MergeSumsEveryField) {
  ResourceLedger a;
  a.idle_mb_ms = 100.0;
  a.busy_mb_ms = 10.0;
  a.cpu_ms = 5.0;
  a.invocations = 7;
  a.warm_hits = 4;
  a.cold_loads = 3;
  a.prewarm_loads = 2;
  a.evictions = 1;
  a.expirations = 6;
  ResourceLedger b;
  b.idle_mb_ms = 50.0;
  b.busy_mb_ms = 20.0;
  b.cpu_ms = 15.0;
  b.invocations = 1;
  b.warm_hits = 1;
  b.cold_loads = 1;
  b.prewarm_loads = 1;
  b.evictions = 1;
  b.expirations = 1;

  ResourceLedger merged = a;
  merged += b;
  EXPECT_DOUBLE_EQ(merged.idle_mb_ms, 150.0);
  EXPECT_DOUBLE_EQ(merged.busy_mb_ms, 30.0);
  EXPECT_DOUBLE_EQ(merged.cpu_ms, 20.0);
  EXPECT_EQ(merged.invocations, 8);
  EXPECT_EQ(merged.warm_hits, 5);
  EXPECT_EQ(merged.cold_loads, 4);
  EXPECT_EQ(merged.prewarm_loads, 3);
  EXPECT_EQ(merged.evictions, 2);
  EXPECT_EQ(merged.expirations, 7);
  EXPECT_EQ(merged.container_loads(), 7);
  EXPECT_EQ(merged.container_unloads(), 9);

  // Order-insensitive: b + a == a + b.
  ResourceLedger other = b;
  MergeLedger(other, a);
  EXPECT_EQ(merged, other);
}

TEST(ResourceLedgerTest, DerivedViewsConvertUnits) {
  ResourceLedger ledger;
  ledger.idle_mb_ms = 1024.0 * 1000.0 * 3.0;  // 3 GB-s idle.
  ledger.busy_mb_ms = 1024.0 * 1000.0;        // 1 GB-s busy.
  ledger.cpu_ms = 2500.0;
  EXPECT_DOUBLE_EQ(ledger.idle_gb_seconds(), 3.0);
  EXPECT_DOUBLE_EQ(ledger.busy_gb_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(ledger.gb_seconds(), 4.0);
  EXPECT_DOUBLE_EQ(ledger.cpu_seconds(), 2.5);
  EXPECT_DOUBLE_EQ(ledger.wasted_memory_minutes(),
                   1024.0 * 1000.0 * 3.0 / 60'000.0);
}

TEST(ResourceLedgerTest, CostModelPricesLedger) {
  ResourceLedger ledger;
  ledger.idle_mb_ms = 1024.0 * 1000.0 * 10.0;  // 10 GB-s.
  ledger.busy_mb_ms = 1024.0 * 1000.0 * 2.0;   // 2 GB-s.
  ledger.cpu_ms = 4000.0;                      // 4 CPU-s.
  ledger.invocations = 500'000;

  const CostModel off;
  EXPECT_FALSE(off.enabled());
  EXPECT_DOUBLE_EQ(ledger.CostDollars(off), 0.0);

  CostModel model;
  model.dollars_per_gb_second = 0.01;
  model.dollars_per_cpu_second = 0.05;
  model.dollars_per_million_invocations = 0.20;
  EXPECT_TRUE(model.enabled());
  EXPECT_DOUBLE_EQ(ledger.CostDollars(model),
                   12.0 * 0.01 + 4.0 * 0.05 + 0.5 * 0.20);
}

TEST(ResourceLedgerTest, OverloadLedgerMergesWithMaxSemantics) {
  OverloadLedger a;
  a.queued = 10;
  a.max_queue_wait_ms = 7.0;
  a.max_breaker_open_ms = 100.0;
  OverloadLedger b;
  b.queued = 5;
  b.max_queue_wait_ms = 12.0;
  b.max_breaker_open_ms = 50.0;
  MergeLedger(a, b);
  EXPECT_EQ(a.queued, 15);
  EXPECT_DOUBLE_EQ(a.max_queue_wait_ms, 12.0);    // Max, not sum.
  EXPECT_DOUBLE_EQ(a.max_breaker_open_ms, 100.0); // Max, not sum.
}

TEST(ResourceLedgerTest, FaultLedgerMergesAndFoldsNetCounters) {
  FaultLedger a;
  a.invoker_crashes = 2;
  a.max_degraded_ms = 30.0;
  FaultLedger b;
  b.invoker_crashes = 1;
  b.max_degraded_ms = 90.0;
  MergeLedger(a, b);
  EXPECT_EQ(a.invoker_crashes, 3);
  EXPECT_DOUBLE_EQ(a.max_degraded_ms, 90.0);  // Max, not sum.

  NetCounters net;
  net.messages_sent = 11;
  net.delivered = 9;
  net.rpc_retransmits = 4;
  FaultLedger folded;
  folded.FoldNetCounters(net);
  EXPECT_EQ(folded.net_messages_sent, 11);
  EXPECT_EQ(folded.net_delivered, 9);
  EXPECT_EQ(folded.rpc_retransmits, 4);
}

TEST(ResourceLedgerTest, SimLedgerBacksWastedMemoryView) {
  const Trace trace =
      MakeDeterministicTrace(3, 20, Duration::Minutes(1));
  SimulatorOptions options;
  options.use_execution_times = true;
  options.weight_by_memory = true;
  const FixedKeepAliveFactory policy(Duration::Minutes(2));
  const SimulationResult result =
      EvaluatePolicies(trace, {&policy}, 0, options)[0].result;
  const ResourceLedger total = result.TotalResources();

  EXPECT_EQ(total.invocations, result.TotalInvocations());
  EXPECT_EQ(total.cold_loads, result.TotalColdStarts());
  EXPECT_EQ(total.warm_hits, total.invocations - total.cold_loads);
  // 20 invocations x 5 ms x 3 apps of billed CPU, each holding 128 MB.
  EXPECT_DOUBLE_EQ(total.cpu_ms, 3.0 * 20.0 * 5.0);
  EXPECT_DOUBLE_EQ(total.busy_mb_ms, total.cpu_ms * 128.0);
  // The legacy per-app waste metric is a view over the ledger.
  for (const AppSimResult& app : result.apps) {
    EXPECT_DOUBLE_EQ(app.wasted_memory_minutes(),
                     app.ledger.idle_mb_ms / 60'000.0);
  }
}

TEST(ResourceLedgerTest, SimAndClusterChargeIdenticalIntegrals) {
  // On a zero-latency single-invoker cluster with constant execution times,
  // the event-driven cluster replay and the analytic simulator walk the
  // same timeline, so the two layers' ledgers must agree exactly on the
  // residency split, billed CPU, and invocation outcomes.  (Cluster-only
  // fields — keep-alive expirations — are not compared: the analytic
  // simulator never materializes unload events.)
  const Trace trace =
      MakeDeterministicTrace(3, 20, Duration::Minutes(1));
  const FixedKeepAliveFactory policy(Duration::Minutes(2));

  SimulatorOptions options;
  options.use_execution_times = true;
  options.weight_by_memory = true;
  const ResourceLedger sim =
      EvaluatePolicies(trace, {&policy}, 0, options)[0]
          .result.TotalResources();

  const ClusterSimulator cluster(ZeroLatencyClusterConfig());
  const ClusterResult replay = cluster.Replay(trace, policy);
  const ResourceLedger& clu = replay.resources;

  ASSERT_EQ(replay.total_dropped, 0);
  EXPECT_EQ(clu.invocations, sim.invocations);
  EXPECT_EQ(clu.cold_loads, sim.cold_loads);
  EXPECT_EQ(clu.warm_hits, sim.warm_hits);
  EXPECT_EQ(clu.cpu_ms, sim.cpu_ms);
  EXPECT_EQ(clu.busy_mb_ms, sim.busy_mb_ms);
  EXPECT_EQ(clu.idle_mb_ms, sim.idle_mb_ms);
  // Every keep-alive window in this trace expires before the horizon.
  EXPECT_EQ(clu.expirations, clu.container_loads());
}

TEST(ResourceLedgerTest, SweepLedgerBitIdenticalAcrossThreadCounts) {
  GeneratorConfig config;
  config.num_apps = 60;
  config.days = 1;
  config.seed = 23;
  const Trace trace = WorkloadGenerator(config).Generate();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const FixedKeepAliveFactory fixed60(Duration::Minutes(60));
  const std::vector<const PolicyFactory*> factories = {&fixed10, &fixed60};

  SimulatorOptions sequential;
  sequential.num_threads = 1;
  SimulatorOptions parallel;
  parallel.num_threads = 4;
  const auto a = EvaluatePolicies(trace, factories, 0, sequential);
  const auto b = EvaluatePolicies(trace, factories, 0, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].result.TotalResources(), b[p].result.TotalResources());
  }
}

TEST(ResourceLedgerTest, ClusterLedgerBitIdenticalAcrossRuns) {
  const Trace trace =
      MakeDeterministicTrace(4, 12, Duration::Minutes(3));
  ClusterConfig config;
  config.num_invokers = 2;
  const FixedKeepAliveFactory policy(Duration::Minutes(10));
  const ClusterResult first = ClusterSimulator(config).Replay(trace, policy);
  const ClusterResult second = ClusterSimulator(config).Replay(trace, policy);
  EXPECT_EQ(first.resources, second.resources);
  EXPECT_GT(first.resources.idle_mb_ms, 0.0);
  EXPECT_GT(first.resources.cpu_ms, 0.0);
}

TEST(ResourceLedgerTest, ResourceTelemetryRegistersOnlyWhenEnabled) {
  const Trace trace =
      MakeDeterministicTrace(2, 8, Duration::Minutes(2));
  const FixedKeepAliveFactory policy(Duration::Minutes(5));

  const auto scrape = [&](bool resource_telemetry) {
    TelemetryConfig telemetry_config;
    telemetry_config.metrics_enabled = true;
    Telemetry telemetry(telemetry_config);
    ClusterConfig config;
    config.num_invokers = 1;
    config.telemetry = &telemetry;
    config.resource_telemetry = resource_telemetry;
    if (resource_telemetry) {
      config.cost.dollars_per_gb_second = 1e-5;
    }
    const ClusterResult result =
        ClusterSimulator(config).Replay(trace, policy);
    std::ostringstream out;
    WritePrometheusText(telemetry.metrics().Scrape(), out);
    return std::make_pair(out.str(), result.resources);
  };

  const auto [off_text, off_ledger] = scrape(false);
  const auto [on_text, on_ledger] = scrape(true);
  // Off: no faas_resource_* family leaks into the export (byte-identity
  // with pre-ledger telemetry exports).
  EXPECT_EQ(off_text.find("faas_resource"), std::string::npos);
  // On: the families exist and the flag itself never perturbs accounting.
  EXPECT_NE(on_text.find("faas_resource_idle_gb_seconds"),
            std::string::npos);
  EXPECT_NE(on_text.find("faas_resource_container_loads_total"),
            std::string::npos);
  EXPECT_NE(on_text.find("faas_resource_cost_dollars"), std::string::npos);
  EXPECT_EQ(off_ledger, on_ledger);
}

TEST(ResourceLedgerTest, ServeBridgeChargesLazySettledIdleTime) {
  // Drive the wall-clock bridge with hand-picked timestamps (service time
  // 0 completes inline, so no wheel advance is needed) and check the lazy
  // idle settlement: full keep-alive on expiry, partial on warm pop,
  // clamped remainder at Drain.
  AdmissionBridgeConfig config;
  config.num_executors = 1;
  config.service_time_us = 0;
  config.cold_start_us = 0;
  config.keep_alive_ms = 10;
  config.container_memory_mb = 128.0;
  TimerWheel wheel;
  const auto reply = +[](void*, uint64_t, const ReplyFrame&) {};
  AdmissionBridge bridge(config, &wheel, reply, nullptr);

  RequestFrame frame;
  frame.function_id = 1;
  frame.request_id = 1;
  bridge.OnRequest(/*conn_token=*/1, frame, /*now_ns=*/0);  // Cold.
  frame.request_id = 2;
  bridge.OnRequest(1, frame, 5'000'000);   // Warm: 5 ms idle settled.
  frame.request_id = 3;
  bridge.OnRequest(1, frame, 20'000'000);  // Pool expired at 15 ms: cold.
  bridge.Drain(25'000'000);                // 5 ms of the last window settles.

  const ResourceLedger& resources = bridge.resources();
  EXPECT_EQ(resources.invocations, 3);
  EXPECT_EQ(resources.cold_loads, 2);
  EXPECT_EQ(resources.warm_hits, 1);
  EXPECT_EQ(resources.expirations, 1);
  EXPECT_DOUBLE_EQ(resources.cpu_ms, 0.0);
  EXPECT_DOUBLE_EQ(resources.busy_mb_ms, 0.0);
  // 5 ms (warm pop) + 10 ms (expiry) + 5 ms (drain), all at 128 MB.
  EXPECT_DOUBLE_EQ(resources.idle_mb_ms, 128.0 * 20.0);
}

}  // namespace
}  // namespace faas
