// Section 5.3 policy-overhead microbenchmarks (google-benchmark).
// Paper numbers for context: their Scala controller added 835.7us per
// invocation end-to-end; the initial ARIMA fit took 26.9ms and refits 5.3ms.
// These benchmarks measure the corresponding code paths in this
// implementation: histogram update, window computation, full per-invocation
// policy step, and ARIMA fitting.
//
// The BM_*Telemetry{Off,On} pairs measure the telemetry subsystem's cost on
// the simulation hot paths: Off runs with null instrument pointers (the
// zero-cost branch), On runs with metrics and tracing fully enabled.  The
// sweep pairs run at 1 and 4 threads; at 4, the replay tasks record into
// blocks and span buffers of their own and fold them concurrently.  The
// acceptance bar is <5% overhead on the end-to-end replay loops.

#include <benchmark/benchmark.h>

#include <vector>

#include "src/arima/auto_arima.h"
#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/sim/sweep.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/generator.h"

namespace faas {
namespace {

void BM_HistogramAdd(benchmark::State& state) {
  RangeLimitedHistogram histogram(Duration::Minutes(1), 240);
  Rng rng(1);
  std::vector<Duration> its(1024);
  for (auto& it : its) {
    it = Duration::FromMinutesF(rng.UniformDouble(0.0, 300.0));
  }
  size_t i = 0;
  for (auto _ : state) {
    histogram.Add(its[i++ & 1023]);
  }
}
BENCHMARK(BM_HistogramAdd);

void BM_HistogramPercentiles(benchmark::State& state) {
  RangeLimitedHistogram histogram(Duration::Minutes(1), 240);
  Rng rng(2);
  for (int i = 0; i < 10'000; ++i) {
    histogram.Add(Duration::FromMinutesF(rng.UniformDouble(0.0, 240.0)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram.PercentileLowerEdge(5.0));
    benchmark::DoNotOptimize(histogram.PercentileUpperEdge(99.0));
  }
}
BENCHMARK(BM_HistogramPercentiles);

// The per-invocation policy step the paper charges at 835.7us in Scala:
// record the idle time, recompute the windows.
void BM_HybridPolicyStep(benchmark::State& state) {
  HybridHistogramPolicy policy{HybridPolicyConfig{}};
  Rng rng(3);
  // Pre-train with a concentrated pattern so the histogram branch runs.
  for (int i = 0; i < 100; ++i) {
    policy.RecordIdleTime(Duration::Minutes(30));
  }
  for (auto _ : state) {
    policy.RecordIdleTime(
        Duration::FromMinutesF(29.0 + rng.UniformDouble(0.0, 2.0)));
    benchmark::DoNotOptimize(policy.NextWindows());
  }
}
BENCHMARK(BM_HybridPolicyStep);

void BM_FixedPolicyStep(benchmark::State& state) {
  FixedKeepAlivePolicy policy(Duration::Minutes(10));
  for (auto _ : state) {
    policy.RecordIdleTime(Duration::Minutes(5));
    benchmark::DoNotOptimize(policy.NextWindows());
  }
}
BENCHMARK(BM_FixedPolicyStep);

// The standard-keep-alive branch (empty histogram).
void BM_HybridPolicyStepColdStartPath(benchmark::State& state) {
  HybridHistogramPolicy policy{HybridPolicyConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.NextWindows());
  }
}
BENCHMARK(BM_HybridPolicyStepColdStartPath);

// ARIMA: initial fit on an idle-time series (paper: 26.9ms in Python).
void BM_ArimaInitialFit(benchmark::State& state) {
  Rng rng(4);
  std::vector<double> its(static_cast<size_t>(state.range(0)));
  for (double& it : its) {
    it = 300.0 + rng.UniformDouble(-20.0, 20.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(AutoArima(its));
  }
}
BENCHMARK(BM_ArimaInitialFit)->Arg(16)->Arg(50)->Arg(200);

// The ARIMA branch of a full policy decision (refit per invocation, as the
// paper does for OOB-heavy apps; their refit took 5.3ms).
void BM_HybridPolicyStepArimaPath(benchmark::State& state) {
  HybridHistogramPolicy policy{HybridPolicyConfig{}};
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    policy.RecordIdleTime(
        Duration::FromMinutesF(300.0 + rng.UniformDouble(-10.0, 10.0)));
  }
  for (auto _ : state) {
    policy.RecordIdleTime(
        Duration::FromMinutesF(300.0 + rng.UniformDouble(-10.0, 10.0)));
    benchmark::DoNotOptimize(policy.NextWindows());
  }
}
BENCHMARK(BM_HybridPolicyStepArimaPath);

// Per-application metadata cost (challenge #4): report bytes as a counter.
void BM_PolicyFootprint(benchmark::State& state) {
  for (auto _ : state) {
    HybridHistogramPolicy policy{HybridPolicyConfig{}};
    benchmark::DoNotOptimize(policy.ApproximateSizeBytes());
  }
  HybridHistogramPolicy policy{HybridPolicyConfig{}};
  state.counters["bytes_per_app"] =
      static_cast<double>(policy.ApproximateSizeBytes());
}
BENCHMARK(BM_PolicyFootprint);

// --- Telemetry overhead -------------------------------------------------

const Trace& OverheadTrace() {
  // Large enough that per-run fixed costs (instrument registration, the
  // tasks' blocks and folds) amortize away and the steady-state replay loop
  // dominates, as it does in a real policy_eval run.
  static const Trace trace = [] {
    GeneratorConfig config;
    config.num_apps = 200;
    config.days = 1;
    config.seed = 99;
    return WorkloadGenerator(config).Generate();
  }();
  return trace;
}

void BM_SweepReplayTelemetryOff(benchmark::State& state) {
  const Trace& trace = OverheadTrace();
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const std::vector<const PolicyFactory*> factories = {&hybrid};
  SimulatorOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluatePolicies(trace, factories, 0, options));
  }
}
BENCHMARK(BM_SweepReplayTelemetryOff)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_SweepReplayTelemetryOn(benchmark::State& state) {
  const Trace& trace = OverheadTrace();
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const std::vector<const PolicyFactory*> factories = {&hybrid};
  for (auto _ : state) {
    // A fresh Telemetry per run mirrors one policy_eval invocation and keeps
    // span storage from accumulating across iterations.
    Telemetry telemetry;
    SimulatorOptions options;
    options.num_threads = static_cast<int>(state.range(0));
    options.telemetry = &telemetry;
    benchmark::DoNotOptimize(EvaluatePolicies(trace, factories, 0, options));
  }
}
BENCHMARK(BM_SweepReplayTelemetryOn)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_ClusterReplayTelemetryOff(benchmark::State& state) {
  const Trace& trace = OverheadTrace();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  ClusterConfig config;
  config.num_invokers = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ClusterSimulator(config).Replay(trace, fixed10));
  }
}
BENCHMARK(BM_ClusterReplayTelemetryOff)->Unit(benchmark::kMillisecond);

void BM_ClusterReplayTelemetryOn(benchmark::State& state) {
  const Trace& trace = OverheadTrace();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  for (auto _ : state) {
    Telemetry telemetry;
    ClusterConfig config;
    config.num_invokers = 4;
    config.telemetry = &telemetry;
    benchmark::DoNotOptimize(ClusterSimulator(config).Replay(trace, fixed10));
  }
}
BENCHMARK(BM_ClusterReplayTelemetryOn)->Unit(benchmark::kMillisecond);

// Raw instrument costs, for attributing any overhead seen above.  A writer
// records into its own block and span buffer (no lock) and folds them: a
// sweep task once, the cluster at each sampler tick.  Histograms, and the
// cluster's gauges, are written to the registry directly (one lock each).
void BM_BlockCounterInc(benchmark::State& state) {
  MetricsRegistry registry;
  const CounterId id = registry.AddCounter("bench_total", "bench");
  MetricsBlock block(registry);
  for (auto _ : state) {
    block.Inc(id);
  }
  registry.Fold(block);
}
BENCHMARK(BM_BlockCounterInc);

// One add per touched minute bin, as the sweep's run-length-batched series
// flush does; 1024 adds over a two-week series stay in the block's log of
// touched bins, and the fold walks only those.
void BM_BlockSeriesAdd(benchmark::State& state) {
  MetricsRegistry registry;
  const SeriesId id = registry.AddSeries("bench_minute", "bench",
                                         Duration::Minutes(1), 14 * 1440);
  int64_t minute = 0;
  for (auto _ : state) {
    MetricsBlock block(registry);
    for (int i = 0; i < 1024; ++i) {
      block.SeriesAdd(id, TimePoint(minute * 60'000), 3);
      minute = minute < 14 * 1440 ? minute + 7 : 0;
    }
    registry.Fold(block);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_BlockSeriesAdd);

void BM_SpanBufferRecordAndFold(benchmark::State& state) {
  SpanRecord span;
  span.dur_ms = 5;
  span.name = static_cast<int16_t>(SpanName::kActivation);
  for (auto _ : state) {
    Tracer tracer;
    SpanBuffer buffer;
    for (int i = 0; i < 1024; ++i) {
      buffer.push_back(span);
      ++span.start_ms;
    }
    tracer.Fold(buffer);
    benchmark::DoNotOptimize(tracer.num_spans());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SpanBufferRecordAndFold);

void BM_TelemetryCounterInc(benchmark::State& state) {
  MetricsRegistry registry;
  const CounterId id = registry.AddCounter("bench_total", "bench");
  for (auto _ : state) {
    registry.Inc(id);
  }
}
BENCHMARK(BM_TelemetryCounterInc);

void BM_TelemetryHistogramObserve(benchmark::State& state) {
  MetricsRegistry registry;
  const HistogramId id =
      registry.AddHistogram("bench_ms", "bench", {1, 10, 100, 1000});
  double value = 0.0;
  for (auto _ : state) {
    registry.Observe(id, value);
    value = value < 2000.0 ? value + 1.0 : 0.0;
  }
}
BENCHMARK(BM_TelemetryHistogramObserve);

}  // namespace
}  // namespace faas

BENCHMARK_MAIN();
