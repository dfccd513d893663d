// Telemetry facade: one object owning the metrics registry and the tracer,
// the pre-registered instrument bundles the simulators record with, and the
// writer they record through.
//
// Disabled-by-default contract: every instrumented component holds a plain
// `TelemetryWriter*` that is null when telemetry is off, and each
// instrumentation site is a single `if (telemetry != nullptr)` branch on
// that cached pointer.  No events are scheduled, no RNG is drawn, and no
// writer, block or buffer exists when the pointer is null, so fault-free
// replays with telemetry off are bit-identical to a build without the
// subsystem.
//
// The instrument bundles hold only metric ids and a trace lane.  They are
// registered per policy with a pre-rendered Prometheus label body
// (`policy="hybrid"`), so one registry can hold every policy of a sweep
// side by side.
//
// Writers own what they record (metrics.h, tracer.h).  A TelemetryWriter
// is one writer's telemetry: a sweep task has one per policy and folds them
// when it ends; a cluster replay has one and folds it at each sampler tick
// and at the end.

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

// Chrome-trace identity of one writer's spans: the interned
// `policy="<name>"` label and the process lane.
struct TraceLane {
  int32_t label_id = -1;
  int16_t pid = 0;
};

// Instruments for one policy's cluster replay (controller + invokers +
// network): metric ids, invalid while metrics are off, and the replay's
// trace lane.
struct ClusterInstruments {
  TraceLane lane;

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
};

// Instruments for one policy of an analytic sweep.  The hot loop
// (ColdStartSimulator::SimulateStream) batches its series adds per minute
// bin and its counters per app.  `app_cold_percent` is observed by the
// sweep (sweep.cc) after its parallel region, in app order, so its sum is
// thread-count independent.
struct SimPolicyInstruments {
  TraceLane lane;
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

// One writer's telemetry on one trace lane.  Counters, series and spans go
// to the writer's own block and buffer without a lock and reach the
// registry and tracer at Fold(); gauges and histograms go straight to the
// registry under its lock, because a histogram is observed by its single
// owner in that owner's order and a block carries no doubles (metrics.h).
// Every call is a no-op while its half of telemetry is disabled.  Not
// thread-safe: one thread at a time writes and folds it.
class TelemetryWriter {
 public:
  TelemetryWriter(Telemetry& telemetry, TraceLane lane);
  // A copy would fold the same records twice.
  TelemetryWriter(const TelemetryWriter&) = delete;
  TelemetryWriter& operator=(const TelemetryWriter&) = delete;
  TelemetryWriter(TelemetryWriter&&) = default;

  bool metrics_enabled() const { return block_.has_value(); }

  void Inc(CounterId id, int64_t delta = 1) {
    if (block_) {
      block_->Inc(id, delta);
    }
  }
  void SeriesAdd(SeriesId id, TimePoint at, int64_t delta) {
    if (block_) {
      block_->SeriesAdd(id, at, delta);
    }
  }
  void Set(GaugeId id, double value, TimePoint at) {
    if (registry_ != nullptr) {
      registry_->Set(id, value, at);
    }
  }
  void Observe(HistogramId id, double value) {
    if (registry_ != nullptr) {
      registry_->Observe(id, value);
    }
  }

  // A span of `dur` (clamped at zero) from `start`, and a point event at
  // `at`, on thread lane `tid` of the writer's trace lane.  `trace_id`
  // groups the spans of one activation or app; the args are name-specific
  // (tracer.h).
  void Span(SpanName name, int32_t tid, TimePoint start, Duration dur,
            int64_t trace_id = 0, int64_t arg0 = 0, int64_t arg1 = 0);
  void Instant(SpanName name, int32_t tid, TimePoint at,
               int64_t trace_id = 0, int64_t arg0 = 0);

  // Merges the block and the buffer into the registry and the tracer, each
  // under its lock, and empties both for reuse.
  void Fold();

 private:
  void Record(SpanName name, int32_t tid, int64_t start_ms, int64_t dur_ms,
              int64_t trace_id, int64_t arg0, int64_t arg1);

  MetricsRegistry* registry_ = nullptr;
  Tracer* tracer_ = nullptr;
  TraceLane lane_;
  std::optional<MetricsBlock> block_;
  SpanBuffer spans_;
};

}  // namespace faas

#endif  // SRC_TELEMETRY_TELEMETRY_H_
