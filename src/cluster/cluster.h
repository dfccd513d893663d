// Cluster simulator facade: a mini-OpenWhisk deployment driven by a trace.
//
// Substitutes for the paper's 19-VM OpenWhisk testbed (Section 5.3): one
// controller, N invoker workers with a memory budget each, and a trace
// replayer standing in for FaaSProfiler.  Figure 20's comparison (cold-start
// CDF and worker memory consumption, hybrid vs 10-minute fixed keep-alive)
// is a property of the container-lifecycle policy, which this model
// reproduces with the paper's O(100 ms) container-init and O(10 ms)
// runtime-bootstrap latency constants.

#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/controller.h"
#include "src/cluster/latency_model.h"
#include "src/cluster/network.h"
#include "src/common/resource_ledger.h"
#include "src/faults/fault_plan.h"
#include "src/policy/policy.h"
#include "src/stats/ecdf.h"
#include "src/telemetry/telemetry.h"
#include "src/trace/types.h"

namespace faas {

struct ClusterConfig {
  // The paper's deployment: 18 invoker VMs (plus one controller VM).
  int num_invokers = 18;
  double invoker_memory_mb = 4096.0;
  LatencyModel latency;
  uint64_t seed = 7;
  // Record per-invocation latency samples (disable for very large replays).
  bool collect_latencies = true;
  // Per-invocation execution times are sampled log-normally around each
  // function's average with this log-space sigma, clamped to [min, max].
  double execution_sigma = 0.4;
  // How the controller routes activations (OpenWhisk-style app affinity by
  // default; least-loaded spreads memory at the cost of container reuse).
  LoadBalancingPolicy load_balancing = LoadBalancingPolicy::kAppAffinity;

  // Fault injection: invoker `invoker` is out of rotation during
  // [start, end) — it drains its containers and rejects work; the
  // controller fails activations over to the survivors.
  struct Outage {
    int invoker = 0;
    Duration start;
    Duration end;
  };
  std::vector<Outage> outages;

  // Chaos engine: crash/restart, policy-state wipes, latency spikes and
  // transient-failure windows.  An empty plan (the default) schedules no
  // events and draws no random numbers, so the replay stays bit-identical
  // to a fault-free run.
  FaultPlan faults;
  // Retry/timeout budget for activations (disabled by default).
  RetryPolicy retry;
  // Snapshot every app's policy state this often (the controller's
  // checkpoint database); WipePolicyState restores from the latest
  // snapshot.  Zero disables checkpointing.
  Duration policy_checkpoint_interval = Duration::Zero();

  // Overload control plane: bounded admission queue, per-invoker circuit
  // breakers and concurrency caps, hedged dispatch.  The default enables
  // nothing — no callbacks registered, no events scheduled, no RNG drawn —
  // so replays stay bit-identical to the pre-overload engine.
  OverloadControlConfig overload;

  // Network model between controller and invokers: per-link latency
  // distributions, bounded queues, rate limiting, and the idempotent RPC
  // plane with retransmit budgets.  Disabled by default — no NetworkModel
  // is constructed, no RNG forked, no events scheduled — so network-off
  // replays stay bit-identical to the pre-network engine.  The fault plan's
  // network classes (partitions, loss/duplicate/reorder windows) require
  // `network.enabled`.
  NetworkConfig network;

  // Telemetry sink (optional, non-owning; must outlive the replay).  When
  // set, the replay registers a per-policy instrument bundle, emits
  // activation/container spans, and samples per-interval series (queue
  // depth, memory, cold-start counts).  Null (the default) schedules no
  // sampler events and leaves every instrumentation site as one pointer
  // test, keeping the replay bit-identical to a telemetry-free build.
  Telemetry* telemetry = nullptr;
  // Chrome-trace process lane for this replay (one lane per policy when a
  // caller replays several policies into one Telemetry sink).
  int16_t telemetry_pid = 0;
  // Sampling period for the per-interval series.
  Duration metrics_interval = Duration::Minutes(1);

  // Register the `faas_resource_*` telemetry families (gauges, the churn
  // counters, and the per-minute idle-GB-s series) and emit the end-of-
  // replay cost span.  Off by default so telemetry exports stay
  // byte-identical to pre-ledger builds; the ResourceLedger itself is
  // always accounted (pure arithmetic, no events, no RNG).
  bool resource_telemetry = false;
  // Optional $/GB-s + $/CPU-s + $/1M-invocations pricing applied to the
  // replay's ledger.  All-zero (the default) reports zero cost.
  CostModel cost;
};

struct ClusterAppResult {
  std::string app_id;
  int64_t invocations = 0;
  int64_t cold_starts = 0;
  // Terminal failures, split by cause: memory pressure with every worker
  // healthy (dropped), unplaceable during an outage/crash (rejected_outage),
  // timed out past the retry budget (abandoned), killed by a crash or
  // transient fault with no retry left (lost).
  int64_t dropped = 0;
  int64_t rejected_outage = 0;
  int64_t abandoned = 0;
  int64_t lost = 0;

  int64_t Completed() const {
    return invocations - dropped - rejected_outage - abandoned - lost;
  }
  double ColdStartPercent() const {
    const int64_t completed = Completed();
    return completed > 0 ? 100.0 * static_cast<double>(cold_starts) /
                               static_cast<double>(completed)
                         : 0.0;
  }
};

struct ClusterResult {
  std::string policy_name;
  std::vector<ClusterAppResult> apps;

  int64_t total_invocations = 0;
  int64_t total_cold_starts = 0;
  int64_t total_warm_starts = 0;
  int64_t total_evictions = 0;
  int64_t total_prewarm_loads = 0;
  int64_t total_dropped = 0;
  int64_t total_rejected_outage = 0;
  int64_t total_abandoned = 0;
  int64_t total_lost = 0;

  // Everything the fault machinery observed (crashes, retries, timeouts,
  // state wipes, degraded-mode recoveries); all-zero for fault-free runs.
  FaultLedger faults;
  // Network messages sent, by NetMessageKind (all zero with the network
  // off).  Kept out of `faults`, whose fields are pinned by digests.
  std::array<int64_t, kNumNetMessageKinds> net_sent_by_kind{};

  // Everything the overload control plane observed (queueing, shedding,
  // hedging, breaker transitions, cap rejections); all-zero when disabled.
  OverloadLedger overload;
  // Per-activation admission-queue waits of drained activations, ms
  // (populated only when collect_latencies is set and the queue is on).
  std::vector<double> queue_wait_ms;

  // Integral of resident container memory over all invokers, MB*seconds,
  // and the same divided by (invokers * wall time): average resident MB.
  double memory_mb_seconds = 0.0;
  double avg_resident_mb_per_invoker = 0.0;

  // Cost-accounting spine: per-invoker ledgers folded in invoker-index
  // order (bit-identical across runs).  The residency split integrates
  // over the replay window; CPU includes executions that drained past it.
  ResourceLedger resources;
  // Price of `resources` under the replay config's cost model (0 when the
  // model is disabled).
  double cost_dollars = 0.0;

  // Billed execution time (function run + init on cold starts).  The vector
  // is populated only when collect_latencies is set; the streaming fields
  // are always available (P-square estimators, O(1) memory).
  std::vector<double> billed_execution_ms;
  double billed_mean_ms_stream = 0.0;
  double billed_p50_ms_stream = 0.0;
  double billed_p99_ms_stream = 0.0;
  // Exact when samples were collected, streaming estimates otherwise.
  double MeanBilledExecutionMs() const;
  // pct must be 50 or 99 when only streaming estimates are available.
  double BilledExecutionPercentileMs(double pct) const;

  // End-to-end latency (adds container init on cold starts).
  std::vector<double> end_to_end_latency_ms;

  // Policy wall-clock overhead per invocation, microseconds.
  double policy_overhead_mean_us = 0.0;
  double policy_overhead_max_us = 0.0;

  Ecdf AppColdStartEcdf() const;
  double AppColdStartPercentile(double pct) const;
};

class ClusterSimulator {
 public:
  explicit ClusterSimulator(ClusterConfig config = {}) : config_(config) {}

  // Replays every invocation in the trace through a fresh cluster governed
  // by the given policy.
  ClusterResult Replay(const Trace& trace, const PolicyFactory& factory) const;

 private:
  ClusterConfig config_;
};

}  // namespace faas

#endif  // SRC_CLUSTER_CLUSTER_H_
