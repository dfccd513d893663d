// Telemetry facade: one object owning the metrics registry and the tracer,
// plus the pre-registered instrument bundles the simulators record into.
//
// Disabled-by-default contract: every instrumented component holds a plain
// pointer (`const ClusterInstruments*` / `const SimPolicyInstruments*`) that
// is null when telemetry is off, and each instrumentation site is a single
// `if (instruments != nullptr)` branch on that cached pointer.  No events
// are scheduled, no RNG is drawn, and no metric slot is touched when the
// pointer is null, so fault-free replays with telemetry off are
// bit-identical to a build without the subsystem.
//
// The instrument bundles are registered per policy with a pre-rendered
// Prometheus label body (`policy="hybrid"`), so one registry can hold every
// policy of a sweep side by side.
//
// Writers own what they record (metrics.h, tracer.h).  A sweep's replay
// tasks run beside each other, so each records into a SimTaskTelemetry of
// its own and folds it in when the task ends.  A cluster replay, one owner
// on one thread, folds its counter block and span buffer at each sampler
// tick and writes its gauges and histograms to the registry directly.

#ifndef SRC_TELEMETRY_TELEMETRY_H_
#define SRC_TELEMETRY_TELEMETRY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/telemetry/tracer.h"

namespace faas {

struct TelemetryConfig {
  // Record spans into the tracer (enables --trace-out).
  bool trace_enabled = true;
  // Update the metrics registry (enables --metrics-out and --progress).
  bool metrics_enabled = true;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config = {});

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  bool trace_enabled() const { return config_.trace_enabled; }
  bool metrics_enabled() const { return config_.metrics_enabled; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

 private:
  TelemetryConfig config_;
  MetricsRegistry metrics_;
  Tracer tracer_;
};

// Instruments for one policy's cluster replay (controller + invokers).
// All pointers are non-owning and null when that half of telemetry is
// disabled; call sites must check before use.  Counters and spans go to the
// replay's own `metrics` block and `spans` buffer (set by the replay, null
// in the registered bundle); histograms and gauges go to `registry`.
struct ClusterInstruments {
  MetricsRegistry* registry = nullptr;
  Tracer* tracer = nullptr;
  MetricsBlock* metrics = nullptr;
  SpanBuffer* spans = nullptr;
  int32_t label_id = -1;  // Interned `policy="<name>"` for spans.
  int16_t pid = 0;        // Chrome-trace process lane.

  // Controller-side counters.
  CounterId invocations;
  CounterId completions;
  CounterId retries;
  CounterId timeouts;
  CounterId dropped;
  CounterId rejected_outage;
  CounterId abandoned;
  CounterId lost;
  CounterId policy_wipes;
  CounterId checkpoints;
  // Invoker-side counters.
  CounterId cold_starts;
  CounterId warm_starts;
  CounterId prewarm_loads;
  CounterId evictions;
  CounterId transient_faults;
  CounterId invoker_crashes;
  CounterId invoker_restarts;
  // Distributions.
  HistogramId e2e_latency_ms;
  HistogramId cold_startup_ms;
  HistogramId billed_ms;
  // Point-in-time state.
  GaugeId queue_depth;
  GaugeId memory_in_use_mb;
  // Per-minute time series (filled by the cluster's interval sampler).
  SeriesId minute_invocations;
  SeriesId minute_cold_starts;
  SeriesId minute_queue_depth;
  SeriesId minute_memory_mb;
  // Overload control plane (registered only when the control plane is on,
  // so replays with it off export a byte-identical metric set).
  CounterId queued;
  CounterId shed;
  CounterId hedges;
  CounterId hedge_wins;
  CounterId breaker_opens;
  CounterId breaker_rejected;
  HistogramId queue_wait_ms;
  SeriesId minute_shed;
  SeriesId minute_admission_queue;
  // Network model + RPC plane (registered only when the network model is on,
  // same byte-identity rationale as the overload bundle).
  CounterId net_dropped;
  CounterId net_duplicates;
  CounterId net_retransmits;
  CounterId net_dup_suppressed;
  CounterId net_give_ups;
  CounterId lost_network;
  CounterId lost_crash;
  SeriesId minute_net_drops;
  SeriesId minute_net_retransmits;
  // Resource ledger (registered only when resource telemetry is on, same
  // byte-identity rationale as the overload/network bundles).
  CounterId resource_container_loads;
  CounterId resource_container_unloads;
  GaugeId resource_idle_gb_seconds;
  GaugeId resource_busy_gb_seconds;
  GaugeId resource_cpu_seconds;
  GaugeId resource_cost_dollars;
  SeriesId minute_idle_mb_seconds;

  // Registers the bundle under `policy="<policy_name>"` on process lane
  // `pid`, sizing the minute series for `horizon`.  `overload` additionally
  // registers the overload-control-plane instruments above; `network` the
  // transport-layer ones; `resources` the resource-ledger families.
  static ClusterInstruments Register(Telemetry& telemetry,
                                     std::string_view policy_name,
                                     int16_t pid, Duration horizon,
                                     Duration sample_interval,
                                     bool overload = false,
                                     bool network = false,
                                     bool resources = false);

  // Folds `metrics` and `spans` into the registry and tracer, emptying
  // both.
  void Fold() const;
};

// Instruments for one policy of an analytic sweep.  The hot loop
// (ColdStartSimulator::SimulateStream) records into `metrics` and `spans`,
// the writing task's own block and buffer (null in the registered bundle),
// and batches its series adds per minute bin and its counters per app.
// `app_cold_percent` is observed straight into `registry` by the sweep
// (sweep.cc) after its parallel region, in app order, so its sum is
// thread-count independent.
struct SimPolicyInstruments {
  MetricsRegistry* registry = nullptr;
  Tracer* tracer = nullptr;
  MetricsBlock* metrics = nullptr;
  SpanBuffer* spans = nullptr;
  int32_t label_id = -1;
  int16_t pid = 0;
  // kAppReplay spans use trace_id_base + app_index, so the span set of a
  // sweep is a deterministic function of (policy ordinal, app index).
  int64_t trace_id_base = 0;

  CounterId apps;
  CounterId invocations;
  CounterId cold_starts;
  CounterId prewarm_loads;
  HistogramId app_cold_percent;
  SeriesId minute_invocations;
  SeriesId minute_cold_starts;

  static SimPolicyInstruments Register(Telemetry& telemetry,
                                       std::string_view policy_name,
                                       int16_t pid, int64_t trace_id_base,
                                       Duration horizon);
};

// One sweep task's telemetry: a metrics block and a span buffer of its own,
// and a copy of every policy's bundle pointed at them.  Fold() merges both
// into the shared registry and tracer, each under its lock.
class SimTaskTelemetry {
 public:
  SimTaskTelemetry(Telemetry& telemetry,
                   const std::vector<SimPolicyInstruments>& policies);

  SimTaskTelemetry(const SimTaskTelemetry&) = delete;
  SimTaskTelemetry& operator=(const SimTaskTelemetry&) = delete;

  const SimPolicyInstruments& policy(size_t p) const { return policies_[p]; }

  void Fold();

 private:
  Telemetry& telemetry_;
  std::optional<MetricsBlock> metrics_;
  SpanBuffer spans_;
  std::vector<SimPolicyInstruments> policies_;
};

}  // namespace faas

#endif  // SRC_TELEMETRY_TELEMETRY_H_
