#include "src/telemetry/telemetry.h"

#include <algorithm>

namespace faas {

namespace {

std::string PolicyLabel(std::string_view policy_name) {
  // Pre-rendered Prometheus label body; escape the few characters the text
  // exposition format reserves inside label values.
  std::string escaped;
  escaped.reserve(policy_name.size());
  for (char c : policy_name) {
    if (c == '\\' || c == '"') {
      escaped.push_back('\\');
    }
    if (c == '\n') {
      escaped += "\\n";
      continue;
    }
    escaped.push_back(c);
  }
  return "policy=\"" + escaped + "\"";
}

size_t MinuteBins(Duration horizon, Duration bin_width) {
  const int64_t width = std::max<int64_t>(1, bin_width.millis());
  const int64_t bins = (horizon.millis() + width - 1) / width;
  return static_cast<size_t>(std::max<int64_t>(1, bins));
}

// Shared latency bucket edges, milliseconds.  Wide enough for cold-start
// startup (O(100 ms)) through multi-minute executions.
std::vector<double> LatencyEdgesMs() {
  return {1,    2,     5,     10,    20,    50,     100,    200,
          500,  1000,  2000,  5000,  10000, 30000,  60000,  120000,
          300000};
}

}  // namespace

Telemetry::Telemetry(TelemetryConfig config) : config_(config) {}

ClusterInstruments ClusterInstruments::Register(Telemetry& telemetry,
                                                std::string_view policy_name,
                                                int16_t pid, Duration horizon,
                                                Duration sample_interval,
                                                bool overload, bool network,
                                                bool resources) {
  ClusterInstruments instruments;
  instruments.lane.pid = pid;
  const std::string label = PolicyLabel(policy_name);
  if (telemetry.trace_enabled()) {
    Tracer& tracer = telemetry.tracer();
    instruments.lane.label_id = tracer.InternLabel(label);
    tracer.RegisterProcess(pid, "cluster " + std::string(policy_name));
    tracer.RegisterThread(pid, 0, "controller");
  }
  if (!telemetry.metrics_enabled()) {
    return instruments;
  }
  MetricsRegistry& r = telemetry.metrics();
  instruments.invocations = r.AddCounter(
      "faas_cluster_invocations_total", "Invocations replayed", label);
  instruments.completions = r.AddCounter(
      "faas_cluster_completions_total", "Activations completed", label);
  instruments.retries = r.AddCounter("faas_cluster_retries_total",
                                     "Retry attempts scheduled", label);
  instruments.timeouts = r.AddCounter("faas_cluster_timeouts_total",
                                      "Activation timeouts fired", label);
  instruments.dropped = r.AddCounter(
      "faas_cluster_dropped_total",
      "Terminal: no memory on any healthy invoker", label);
  instruments.rejected_outage = r.AddCounter(
      "faas_cluster_rejected_outage_total",
      "Terminal: unplaceable during an outage", label);
  instruments.abandoned = r.AddCounter(
      "faas_cluster_abandoned_total",
      "Terminal: timed out past the retry budget", label);
  instruments.lost = r.AddCounter(
      "faas_cluster_lost_total",
      "Terminal: crash/transient failure with no retry left", label);
  instruments.policy_wipes = r.AddCounter("faas_cluster_policy_wipes_total",
                                          "Controller state wipes", label);
  instruments.checkpoints = r.AddCounter("faas_cluster_checkpoints_total",
                                         "Policy checkpoints taken", label);
  instruments.cold_starts = r.AddCounter("faas_cluster_cold_starts_total",
                                         "Cold container starts", label);
  instruments.warm_starts = r.AddCounter("faas_cluster_warm_starts_total",
                                         "Warm container hits", label);
  instruments.prewarm_loads = r.AddCounter("faas_cluster_prewarm_loads_total",
                                           "Pre-warm container loads", label);
  instruments.evictions = r.AddCounter("faas_cluster_evictions_total",
                                       "Idle containers evicted", label);
  instruments.transient_faults =
      r.AddCounter("faas_cluster_transient_faults_total",
                   "Transient sandbox faults", label);
  instruments.invoker_crashes = r.AddCounter(
      "faas_cluster_invoker_crashes_total", "Invoker VM crashes", label);
  instruments.invoker_restarts = r.AddCounter(
      "faas_cluster_invoker_restarts_total", "Invoker VM restarts", label);
  instruments.e2e_latency_ms = r.AddHistogram(
      "faas_cluster_e2e_latency_ms",
      "End-to-end activation latency (enqueue to completion), ms",
      LatencyEdgesMs(), label);
  instruments.cold_startup_ms = r.AddHistogram(
      "faas_cluster_cold_startup_ms",
      "Cold-start startup (container init + runtime bootstrap), ms",
      LatencyEdgesMs(), label);
  instruments.billed_ms =
      r.AddHistogram("faas_cluster_billed_ms",
                     "Billed execution time (run + init when cold), ms",
                     LatencyEdgesMs(), label);
  instruments.queue_depth = r.AddGauge(
      "faas_cluster_queue_depth",
      "Activations awaiting completion or retry", label);
  instruments.memory_in_use_mb = r.AddGauge(
      "faas_cluster_memory_in_use_mb",
      "Resident container memory across invokers, MB", label);
  const size_t bins = MinuteBins(horizon, sample_interval);
  instruments.minute_invocations = r.AddSeries(
      "faas_cluster_minute_invocations", "Invocations per sample interval",
      sample_interval, bins, label);
  instruments.minute_cold_starts = r.AddSeries(
      "faas_cluster_minute_cold_starts", "Cold starts per sample interval",
      sample_interval, bins, label);
  instruments.minute_queue_depth = r.AddSeries(
      "faas_cluster_minute_queue_depth",
      "Pending activations sampled at each interval", sample_interval, bins,
      label);
  instruments.minute_memory_mb = r.AddSeries(
      "faas_cluster_minute_memory_mb",
      "Resident container MB sampled at each interval", sample_interval,
      bins, label);
  if (overload) {
    // Overload-control-plane instruments are registered only when the plane
    // is enabled: the Prometheus writer prints every registered metric, so
    // registering them unconditionally would change the exported text of
    // replays that never touch them.
    instruments.queued =
        r.AddCounter("faas_cluster_queued_total",
                     "Activations parked in the admission queue", label);
    instruments.shed = r.AddCounter(
        "faas_cluster_shed_total",
        "Activations shed by the admission queue (all reasons)", label);
    instruments.hedges = r.AddCounter(
        "faas_cluster_hedges_total", "Hedged second attempts launched",
        label);
    instruments.hedge_wins = r.AddCounter(
        "faas_cluster_hedge_wins_total",
        "Hedged attempts that completed before their primary", label);
    instruments.breaker_opens = r.AddCounter(
        "faas_cluster_breaker_opens_total",
        "Circuit-breaker open transitions", label);
    instruments.breaker_rejected = r.AddCounter(
        "faas_cluster_breaker_rejected_total",
        "Dispatches deflected from an invoker by a non-closed breaker",
        label);
    instruments.queue_wait_ms = r.AddHistogram(
        "faas_cluster_queue_wait_ms",
        "Admission-queue wait of drained activations, ms", LatencyEdgesMs(),
        label);
    instruments.minute_shed =
        r.AddSeries("faas_cluster_minute_shed",
                    "Activations shed per sample interval", sample_interval,
                    bins, label);
    instruments.minute_admission_queue = r.AddSeries(
        "faas_cluster_minute_admission_queue",
        "Admission-queue depth sampled at each interval", sample_interval,
        bins, label);
  }
  if (network) {
    // Same contract as the overload bundle: transport metrics exist only
    // when the network model does, keeping network-off exports unchanged.
    instruments.net_dropped = r.AddCounter(
        "faas_cluster_net_dropped_total",
        "Messages dropped in flight (loss, partition, queue overflow)",
        label);
    instruments.net_duplicates = r.AddCounter(
        "faas_cluster_net_duplicates_total",
        "Duplicate message copies injected by the fault plan", label);
    instruments.net_retransmits = r.AddCounter(
        "faas_cluster_net_retransmits_total",
        "RPC retransmits fired by per-message timeouts", label);
    instruments.net_dup_suppressed = r.AddCounter(
        "faas_cluster_net_dup_suppressed_total",
        "Duplicate requests/responses/notifies suppressed by dedup windows",
        label);
    instruments.net_give_ups = r.AddCounter(
        "faas_cluster_net_give_ups_total",
        "Calls/notifies that spent their retransmit budget", label);
    instruments.lost_network = r.AddCounter(
        "faas_cluster_lost_network_total",
        "Terminal: activation lost to the network with no retry left",
        label);
    instruments.lost_crash = r.AddCounter(
        "faas_cluster_lost_crash_total",
        "Terminal: activation lost to a crash/transient with no retry left",
        label);
    instruments.minute_net_drops = r.AddSeries(
        "faas_cluster_minute_net_drops",
        "Messages dropped in flight per sample interval", sample_interval,
        bins, label);
    instruments.minute_net_retransmits = r.AddSeries(
        "faas_cluster_minute_net_retransmits",
        "RPC retransmits per sample interval", sample_interval, bins, label);
  }
  if (resources) {
    // Resource-ledger families exist only when resource telemetry is on,
    // keeping ledger-off exports byte-identical to pre-ledger builds.
    instruments.resource_container_loads = r.AddCounter(
        "faas_resource_container_loads_total",
        "Containers loaded (cold starts + pre-warms)", label);
    instruments.resource_container_unloads = r.AddCounter(
        "faas_resource_container_unloads_total",
        "Containers unloaded (keep-alive expiry + pressure eviction)",
        label);
    instruments.resource_idle_gb_seconds = r.AddGauge(
        "faas_resource_idle_gb_seconds",
        "Warm-idle memory residency integral, GB-seconds", label);
    instruments.resource_busy_gb_seconds = r.AddGauge(
        "faas_resource_busy_gb_seconds",
        "Executing memory residency integral, GB-seconds", label);
    instruments.resource_cpu_seconds = r.AddGauge(
        "faas_resource_cpu_seconds",
        "Billed execution time across containers, seconds", label);
    instruments.resource_cost_dollars = r.AddGauge(
        "faas_resource_cost_dollars",
        "Ledger cost under the configured cost model, dollars", label);
    instruments.minute_idle_mb_seconds = r.AddSeries(
        "faas_resource_minute_idle_mb_seconds",
        "Warm-idle MB-seconds accrued per sample interval", sample_interval,
        bins, label);
  }
  return instruments;
}

SimPolicyInstruments SimPolicyInstruments::Register(
    Telemetry& telemetry, std::string_view policy_name, int16_t pid,
    int64_t trace_id_base, Duration horizon) {
  SimPolicyInstruments instruments;
  instruments.lane.pid = pid;
  instruments.trace_id_base = trace_id_base;
  const std::string label = PolicyLabel(policy_name);
  if (telemetry.trace_enabled()) {
    Tracer& tracer = telemetry.tracer();
    instruments.lane.label_id = tracer.InternLabel(label);
    tracer.RegisterProcess(pid, "sweep " + std::string(policy_name));
    tracer.RegisterThread(pid, 0, "apps");
  }
  if (!telemetry.metrics_enabled()) {
    return instruments;
  }
  MetricsRegistry& r = telemetry.metrics();
  instruments.apps =
      r.AddCounter("faas_sim_apps_total", "Apps simulated", label);
  instruments.invocations = r.AddCounter("faas_sim_invocations_total",
                                         "Invocations simulated", label);
  instruments.cold_starts =
      r.AddCounter("faas_sim_cold_starts_total", "Cold starts", label);
  instruments.prewarm_loads = r.AddCounter(
      "faas_sim_prewarm_loads_total", "Pre-warm loads that happened", label);
  instruments.app_cold_percent = r.AddHistogram(
      "faas_sim_app_cold_percent",
      "Per-app cold-start percentage distribution",
      {0.5, 1, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 99.5}, label);
  const size_t bins = MinuteBins(horizon, Duration::Minutes(1));
  instruments.minute_invocations =
      r.AddSeries("faas_sim_minute_invocations", "Invocations per minute",
                  Duration::Minutes(1), bins, label);
  instruments.minute_cold_starts =
      r.AddSeries("faas_sim_minute_cold_starts", "Cold starts per minute",
                  Duration::Minutes(1), bins, label);
  return instruments;
}

TelemetryWriter::TelemetryWriter(Telemetry& telemetry, TraceLane lane)
    : lane_(lane) {
  if (telemetry.metrics_enabled()) {
    registry_ = &telemetry.metrics();
    block_.emplace(*registry_);
  }
  if (telemetry.trace_enabled()) {
    tracer_ = &telemetry.tracer();
  }
}

void TelemetryWriter::Span(SpanName name, int32_t tid, TimePoint start,
                           Duration dur, int64_t trace_id, int64_t arg0,
                           int64_t arg1) {
  Record(name, tid, start.millis_since_origin(),
         std::max<int64_t>(0, dur.millis()), trace_id, arg0, arg1);
}

void TelemetryWriter::Instant(SpanName name, int32_t tid, TimePoint at,
                              int64_t trace_id, int64_t arg0) {
  Record(name, tid, at.millis_since_origin(), SpanRecord::kInstant, trace_id,
         arg0, 0);
}

void TelemetryWriter::Record(SpanName name, int32_t tid, int64_t start_ms,
                             int64_t dur_ms, int64_t trace_id, int64_t arg0,
                             int64_t arg1) {
  if (tracer_ != nullptr) {
    spans_.push_back({start_ms, dur_ms, trace_id, arg0, arg1, lane_.label_id,
                      static_cast<int16_t>(name), lane_.pid, tid});
  }
}

void TelemetryWriter::Fold() {
  if (block_) {
    registry_->Fold(*block_);
  }
  if (tracer_ != nullptr) {
    tracer_->Fold(spans_);
  }
}

}  // namespace faas
