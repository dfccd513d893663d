// Controller: the load balancer + policy brain of the cluster.
//
// All invocations pass through the controller (as in OpenWhisk), which makes
// it the place where the per-application policy state lives (Section 4.3).
// On each invocation the controller records the application's idle time,
// re-computes the keep-alive/pre-warm windows, and ships the keep-alive to
// the chosen invoker inside the activation message.  On completion it
// schedules the pre-warm event for the predicted next invocation.
//
// Every placement (first attempt, retry, hedge, admission drain) is one
// scan: walk the candidate invokers in load-balancing order, one probe at a
// time.  The channel changes only the hop and the probe.  The direct
// in-process channel samples one dispatch delay per attempt and answers each
// probe inline; with the network model on (src/cluster/network.h) each probe
// is an RPC round trip whose uplink transit is the hop.
//
// The controller also owns the failure path of the chaos engine: every
// outstanding activation is tracked in a pending table keyed by its
// per-attempt activation id.  Invoker crashes and transient sandbox faults
// surface as FailureMessages; per-activation timeouts catch activations
// whose execution (or result) vanished silently.  Failed attempts are
// retried with exponential backoff + jitter up to a bounded budget, re-using
// the placement scan so failover respects the load-balancing policy.
// Terminal outcomes are split by cause (memory drop / outage rejection /
// timeout abandonment / crash loss) and recorded in a FaultLedger.
//
// The overload control plane (src/cluster/overload.h) layers three
// mechanisms on top of that placement scan, all disabled by default:
// saturation parks activations in a bounded admission queue that drains on
// container-release callbacks (instead of dropping or blind-retrying),
// per-invoker circuit breakers deflect dispatches away from failing or slow
// invokers, and cold-start-prone activations may hedge a second attempt on
// a different invoker with first-completion-wins.  Everything the control
// plane does is tallied in an OverloadLedger.

#ifndef SRC_CLUSTER_CONTROLLER_H_
#define SRC_CLUSTER_CONTROLLER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/cluster/event_queue.h"
#include "src/cluster/invoker.h"
#include "src/cluster/latency_model.h"
#include "src/cluster/network.h"
#include "src/cluster/overload.h"
#include "src/common/intern.h"
#include "src/policy/policy.h"
#include "src/stats/p2_quantile.h"
#include "src/telemetry/telemetry.h"

namespace faas {

class EntityIndex;

// How the controller picks an invoker for an activation.
enum class LoadBalancingPolicy {
  // Hash the app to a home invoker and fail over round-robin (OpenWhisk's
  // co-primary scheme): maximises container reuse.
  kAppAffinity,
  // Send to the invoker with the most free memory: spreads load but breaks
  // container affinity (more cold starts, fewer evictions).
  kLeastLoaded,
};

// Retry/timeout budget for activations (disabled by default: zero retries
// and an infinite timeout reproduce the fire-and-forget pre-chaos
// controller bit-for-bit).
struct RetryPolicy {
  int max_retries = 0;
  Duration base_backoff = Duration::Millis(200);
  Duration max_backoff = Duration::Seconds(30);
  // Backoff is multiplied by uniform[1 - jitter, 1 + jitter] (0 disables).
  double jitter = 0.2;
  // An attempt not completed within this window is failed and retried (or
  // abandoned once the budget is spent).  Duration::Max() disables.
  Duration activation_timeout = Duration::Max();

  bool enabled() const {
    return max_retries > 0 || activation_timeout != Duration::Max();
  }
  // Backoff before retry number `retry_number` (1-based): base * 2^(n-1)
  // capped at max_backoff, then jittered.  Draws from `rng` only when
  // jitter > 0.
  Duration BackoffForRetry(int retry_number, Rng& rng) const;
};

// Tally of everything the fault machinery observed during a replay.
// Comparable so determinism tests can assert bit-identical ledgers.
struct FaultLedger {
  // Fault events.
  int64_t invoker_crashes = 0;
  int64_t invoker_restarts = 0;
  int64_t policy_state_wipes = 0;
  // Per-app outcomes of state wipes (restored from a checkpoint vs lost).
  int64_t policy_states_restored = 0;
  int64_t policy_states_lost = 0;

  // Failure events (not terminal by themselves: a retry may still succeed).
  int64_t lost_in_flight = 0;       // Executions killed by an invoker crash.
  int64_t transient_failures = 0;   // Sandbox faults reported by invokers.
  int64_t timeouts = 0;             // Activation-timeout expirations.

  // Retry machinery.
  int64_t retries_scheduled = 0;
  int64_t retry_successes = 0;      // Completions needing >= 2 attempts.
  double total_backoff_ms = 0.0;

  // Terminal failures (these activations never complete).
  int64_t abandoned = 0;            // Timed out with the budget spent.
  int64_t rejected_by_outage = 0;   // Unplaceable while workers were down.
  int64_t lost = 0;                 // All terminal losses (crash + network).
  // Split of `lost` by cause (lost == lost_crash + lost_network): an
  // activation can die to a machine fault or vanish in flight, and the two
  // need different operator responses.
  int64_t lost_crash = 0;           // Crash/transient-killed, no retry left.
  int64_t lost_network = 0;         // Network give-up, no retry left.
  // Non-terminal network failure events (an RPC scan that exhausted every
  // link on give-ups; a retry may still succeed).
  int64_t network_failures = 0;

  // Cold-start penalty attribution: cold starts on the eventual successful
  // attempt of a retried activation, by the class of its first failure.
  int64_t cold_starts_after_crash = 0;
  int64_t cold_starts_after_transient = 0;
  int64_t cold_starts_after_timeout = 0;
  int64_t cold_starts_after_outage = 0;
  int64_t cold_starts_after_network = 0;
  // Cold starts taken while the app's policy was re-learning after a wipe.
  int64_t cold_starts_in_degraded_mode = 0;

  // Degraded-mode recovery: time from a state wipe that left the policy
  // non-representative until its histogram is representative again.
  int64_t degraded_recoveries = 0;
  double total_degraded_ms = 0.0;
  double max_degraded_ms = 0.0;

  // Transport accounting, folded from the NetworkModel's NetCounters at the
  // end of a replay (all zero when the network model is off).
  int64_t net_messages_sent = 0;
  int64_t net_delivered = 0;
  int64_t net_lost_to_loss = 0;
  int64_t net_lost_to_partition = 0;
  int64_t net_lost_to_queue = 0;
  int64_t net_duplicates_delivered = 0;
  int64_t net_reordered = 0;
  int64_t rpc_retransmits = 0;
  int64_t rpc_duplicates_suppressed = 0;
  int64_t rpc_give_ups = 0;

  double MeanDegradedMs() const {
    return degraded_recoveries > 0
               ? total_degraded_ms / static_cast<double>(degraded_recoveries)
               : 0.0;
  }

  // Folds the NetworkModel's end-of-replay transport counters into the
  // net_*/rpc_* block above (one place instead of a field-by-field copy at
  // every replay exit).
  void FoldNetCounters(const NetCounters& net);

  // Merge semantics for MergeLedger (src/common/resource_ledger.h): sums
  // everywhere except the degraded-interval maximum.
  template <class V>
  static void VisitMergeFields(V& v) {
    v.Sum(&FaultLedger::invoker_crashes);
    v.Sum(&FaultLedger::invoker_restarts);
    v.Sum(&FaultLedger::policy_state_wipes);
    v.Sum(&FaultLedger::policy_states_restored);
    v.Sum(&FaultLedger::policy_states_lost);
    v.Sum(&FaultLedger::lost_in_flight);
    v.Sum(&FaultLedger::transient_failures);
    v.Sum(&FaultLedger::timeouts);
    v.Sum(&FaultLedger::retries_scheduled);
    v.Sum(&FaultLedger::retry_successes);
    v.Sum(&FaultLedger::total_backoff_ms);
    v.Sum(&FaultLedger::abandoned);
    v.Sum(&FaultLedger::rejected_by_outage);
    v.Sum(&FaultLedger::lost);
    v.Sum(&FaultLedger::lost_crash);
    v.Sum(&FaultLedger::lost_network);
    v.Sum(&FaultLedger::network_failures);
    v.Sum(&FaultLedger::cold_starts_after_crash);
    v.Sum(&FaultLedger::cold_starts_after_transient);
    v.Sum(&FaultLedger::cold_starts_after_timeout);
    v.Sum(&FaultLedger::cold_starts_after_outage);
    v.Sum(&FaultLedger::cold_starts_after_network);
    v.Sum(&FaultLedger::cold_starts_in_degraded_mode);
    v.Sum(&FaultLedger::degraded_recoveries);
    v.Sum(&FaultLedger::total_degraded_ms);
    v.Max(&FaultLedger::max_degraded_ms);
    v.Sum(&FaultLedger::net_messages_sent);
    v.Sum(&FaultLedger::net_delivered);
    v.Sum(&FaultLedger::net_lost_to_loss);
    v.Sum(&FaultLedger::net_lost_to_partition);
    v.Sum(&FaultLedger::net_lost_to_queue);
    v.Sum(&FaultLedger::net_duplicates_delivered);
    v.Sum(&FaultLedger::net_reordered);
    v.Sum(&FaultLedger::rpc_retransmits);
    v.Sum(&FaultLedger::rpc_duplicates_suppressed);
    v.Sum(&FaultLedger::rpc_give_ups);
  }

  bool operator==(const FaultLedger&) const = default;
};

class Controller : public RpcClient {
 public:
  struct AppStats {
    int64_t invocations = 0;
    int64_t cold_starts = 0;
    int64_t dropped = 0;          // No invoker had memory (all healthy).
    int64_t rejected_outage = 0;  // Unplaceable while workers were down.
    int64_t abandoned = 0;        // Timed out after the retry budget.
    int64_t lost = 0;             // Crash/transient failure, no retry left.
  };

  // `entities` (non-owning, must outlive the controller) names the apps the
  // replay will route; all per-app state is dense arrays indexed by AppId,
  // and the only string the controller ever touches is the app name hashed
  // once per app for home-invoker placement.  `telemetry` (optional,
  // non-owning; `instruments` must then name the replay's metrics) receives
  // the latency histograms and the activation-lifecycle spans and instants;
  // null (the default) leaves every telemetry site as a single pointer
  // test.  The controller publishes no counter: the cluster's sampler reads
  // its ledgers and getters instead.  `rpc` (optional, non-owning)
  // routes every controller<->invoker message through the network model's
  // RPC plane (src/cluster/network.h); null keeps the direct in-process
  // channel, byte-identical to the pre-network controller.
  Controller(EventQueue* queue, std::vector<Invoker*> invokers,
             const EntityIndex* entities,
             const PolicyFactory& policy_factory, const LatencyModel& latency,
             Rng rng, bool collect_latencies = true,
             LoadBalancingPolicy load_balancing =
                 LoadBalancingPolicy::kAppAffinity,
             RetryPolicy retry = {}, OverloadControlConfig overload = {},
             TelemetryWriter* telemetry = nullptr,
             const ClusterInstruments* instruments = nullptr,
             RpcPlane* rpc = nullptr);

  // Entry point for the trace replayer.
  void OnInvocation(AppId app_id, FunctionId function_id, Duration execution,
                    double memory_mb);

  // --- Fault hooks (driven by the cluster's fault schedule) ---
  // Snapshots every app's policy state (the periodic checkpoint a real
  // controller would write to its database).
  void CheckpointPolicies();
  // Controller failure: every app's policy state is wiped, then restored
  // from the latest checkpoint where one exists.  Apps left with a
  // non-representative policy enter degraded mode (standard keep-alive via
  // the policy's own fallback) until representative again.
  void WipePolicyState();
  // Ledger bookkeeping and telemetry for invoker crash/restart events.
  void NoteInvokerCrash(int invoker);
  void NoteInvokerRestart(int invoker);

  // --- Overload control plane ---
  // Invoker release hook: a container was destroyed or an invoker came
  // back, so queued activations may now fit.  Coalesces into one
  // zero-delay drain event per release burst.  Wired by the cluster only
  // when the admission queue is enabled.
  void OnCapacityReleased();
  // End-of-replay accounting: sheds activations still parked in the
  // admission queue and closes any breaker degraded-mode interval still
  // open, stamping both at the queue's current time.  Call after the event
  // queue has fully drained.
  void FinalizeOverload();

  // Per-app tallies, indexed by AppId; slots for apps the replay never
  // touched stay zero (filter on invocations > 0 when reporting).
  const std::vector<AppStats>& app_stats() const { return app_stats_; }
  // Stats slot for one app (zeros if the app was never routed).
  const AppStats& StatsFor(AppId app_id) const;
  const FaultLedger& ledger() const { return ledger_; }
  const OverloadLedger& overload_ledger() const { return overload_ledger_; }
  // Activations currently parked in the admission queue.
  size_t admission_queue_depth() const { return admission_.size(); }
  // Per-activation admission-queue waits, ms (drained activations only;
  // collected when per-sample latency collection is on).
  const std::vector<double>& queue_wait_ms() const { return queue_wait_ms_; }
  // Activations still awaiting completion/retry (drained replays end at 0).
  size_t pending_activations() const { return pending_.size(); }
  const std::vector<double>& billed_execution_ms() const {
    return billed_execution_ms_;
  }
  const std::vector<double>& end_to_end_latency_ms() const {
    return end_to_end_latency_ms_;
  }
  // Streaming latency statistics, maintained in O(1) memory even when
  // per-sample collection is disabled (P-square estimators).
  double billed_mean_ms_stream() const {
    return completions_ > 0
               ? billed_sum_ms_ / static_cast<double>(completions_)
               : 0.0;
  }
  double billed_p50_ms_stream() const {
    return billed_p50_.count() > 0 ? billed_p50_.Value() : 0.0;
  }
  double billed_p99_ms_stream() const {
    return billed_p99_.count() > 0 ? billed_p99_.Value() : 0.0;
  }
  // Wall-clock cost of running the policy per invocation (Section 5.3's
  // "policy overhead" measurement), microseconds.
  double policy_overhead_mean_us() const;
  double policy_overhead_max_us() const { return policy_overhead_max_us_; }
  int64_t policy_invocations() const { return policy_invocations_; }
  // Activations that completed (hedged pairs count once).
  int64_t completions() const { return completions_; }
  // Policy-state checkpoints taken (CheckpointPolicies calls).
  int64_t checkpoints() const { return checkpoints_taken_; }

 private:
  // Why an attempt failed (kNone = never failed).
  enum class FailureClass {
    kNone,
    kCrash,
    kTransient,
    kTimeout,
    kOutage,
    kNetwork,  // Every reachable invoker's RPC spent its retransmit budget.
  };

  struct AppState {
    std::unique_ptr<KeepAlivePolicy> policy;
    PolicyDecision decision;
    TimePoint last_exec_end;
    bool has_executed = false;
    int64_t inflight = 0;
    int home_invoker = 0;
    double memory_mb = 128.0;  // Last-seen container footprint for pre-warms.
    EventQueue::Handle prewarm_event;
    // Degraded mode: the policy lost its learned state in a wipe and is
    // falling back to the standard keep-alive until representative again.
    bool degraded = false;
    TimePoint wiped_at;
  };

  // One outstanding activation.  Keyed in `pending_` by the activation id
  // of its CURRENT attempt; completions/failures for superseded attempts
  // miss the table and are ignored (zombie executions).
  struct PendingActivation {
    AppId app_id;
    FunctionId function_id;
    Duration execution;
    double memory_mb = 0.0;
    int attempts = 1;  // Dispatch attempts made (1 = first attempt).
    FailureClass first_failure = FailureClass::kNone;
    EventQueue::Handle timeout_event;
    // When the activation entered the controller (for the kActivation span
    // and the end-to-end latency histogram).
    TimePoint created_at;

    // --- Overload control plane (all inert when the plane is off) ---
    // Parked in the admission queue (id present in `admission_queue_`).
    bool queued = false;
    TimePoint queued_since;
    EventQueue::Handle shed_event;  // CoDel age-bound timer.
    // Hedged dispatch.  A hedged pair is two pending entries linked by
    // `hedge_partner`; the first completion erases the partner (whose
    // execution becomes a discarded zombie — that is the cancellation).
    bool hedge_eligible = false;  // Predicted cold at admission time.
    bool hedge_launched = false;
    bool is_hedge = false;        // This entry IS the second attempt.
    int64_t hedge_partner = 0;    // Live partner's activation id (0 = none).
    EventQueue::Handle hedge_event;  // Launch timer, armed on dispatch.
    int dispatched_invoker = -1;  // Accepting invoker (hedge exclusion).

    // Windows shipped in this attempt's activation message, taken when the
    // message goes on the wire: before the direct channel's hop and at
    // drain time, or at each probe of an RPC scan.
    PolicyDecision decision;

    // --- Placement scan: one probe at a time walks the candidate list.
    std::vector<int> candidates;  // Invoker order for the current scan.
    size_t scan_pos = 0;          // Next candidate to probe.
    bool saw_unhealthy = false;   // A candidate was down at probe time.
    bool saw_giveup = false;      // A candidate's RPC spent its budget.
  };
  using PendingMap = std::unordered_map<int64_t, PendingActivation>;

  // How an entry leaves `pending_` for good: the activation ends (cold or
  // not, for its span), or one attempt of a hedged pair vanishes while its
  // partner carries the activation on.
  enum class Exit { kEnded, kCold, kAttempt };

  AppState& GetOrCreateApp(AppId app_id);
  void OnCompletion(const CompletionMessage& message) override;
  void OnFailure(const FailureMessage& message) override;
  void OnTimeout(int64_t activation_id);
  // Sends the current attempt of pending activation `id`: takes the windows
  // it ships, arms the timeout, and sends it over the hop.
  void SendAttempt(int64_t activation_id);
  // The controller -> invoker hop, then the placement scan.  The direct
  // channel samples one dispatch delay; on the RPC channel each probe's
  // uplink transit is the hop.  `exclude_invoker` as for StartScan.
  void SendOverHop(int64_t activation_id, int exclude_invoker);
  // Handles a failed attempt: schedules a backoff retry if budget remains,
  // otherwise records the terminal outcome and forgets the activation.
  void FailAttempt(int64_t activation_id, FailureClass failure);
  // Invoker indices, most free memory first (the least-loaded order).
  std::vector<size_t> InvokersByFreeMemory() const;

  // --- Placement scan (one path for both channels) ---
  // Builds the candidate order and begins probing: the least-loaded
  // snapshot, or the home invoker first (container affinity, like
  // OpenWhisk's hash-based co-primary) then the rest round-robin.  Skips
  // `exclude_invoker` (>= 0: hedges avoid their primary's invoker).
  void StartScan(int64_t activation_id, int exclude_invoker);
  // Probes the next candidate that is up and whose breaker admits, or
  // finishes the scan when the list is exhausted.  A direct-channel probe
  // is answered inline; an RPC probe continues in its response callbacks.
  void AdvanceScan(int64_t activation_id);
  // Continuations of one probe: answered (accepted continues to
  // OnProbeAccepted, a decline advances the scan), or the RPC spent its
  // budget.
  void OnProbeResponse(int64_t activation_id, int invoker,
                       bool accepted) override;
  void OnProbeAccepted(int64_t activation_id, int invoker);
  void OnProbeGiveUp(int64_t activation_id, int invoker) override;
  // Every candidate declined, gave up, or was down: routes the terminal
  // outcome (drain stall / hedge fizzle / kNetwork / kOutage / queue, or a
  // capacity drop when no healthy invoker had room and the admission queue
  // is off).
  void FinishScan(int64_t activation_id);
  // Clears the drain slot when scan `activation_id` ends; `reprobe_drain`
  // serves the next head (false when the head simply found no room and
  // must wait for the next release).
  void ScanEnded(int64_t activation_id, bool reprobe_drain);

  // --- Admission queue ---
  // Parks pending activation `id` after a scan found no room; sheds per
  // the discipline when the queue is full, arms the CoDel age bound.
  void EnqueueAdmission(int64_t activation_id);
  // Serves queued activations (per discipline) while their scans place
  // them: one head scan at a time, looping while scans end inline.
  void DrainAdmissionQueue();
  // True while `activation_id` is parked (not shed, retried or drained).
  bool IsQueued(int64_t activation_id) const;
  // A parked activation was dispatched: books its wait.
  void NoteDrained(int64_t activation_id, PendingActivation& pending);
  // Terminal: removes a QUEUED activation and records the shed.
  void ShedActivation(int64_t activation_id, ShedReason reason);

  // --- Hedged dispatch ---
  // Builds the activation message for the current attempt of `pending`
  // (it ships `pending.decision`).
  ActivationMessage BuildMessage(int64_t activation_id,
                                 const PendingActivation& pending) const;
  // Arms the hedge-launch timer on an accepted, hedge-eligible primary.
  void MaybeArmHedge(int64_t activation_id);
  // Fires the second attempt for primary `activation_id` (still pending).
  void LaunchHedge(int64_t activation_id);

  // --- Circuit breakers ---
  // Telemetry for a breaker transition; an open arms the half-open event.
  void ApplyBreakerTransition(int invoker, BreakerTransition transition);

  // The one exit from `pending_`: cancels the entry's timers and erases it.
  // An ended activation also closes its kActivation span and releases its
  // app's inflight slot (a hedged pair holds one, released by the survivor).
  void Retire(PendingMap::iterator it, Exit exit);

  EventQueue* queue_;
  std::vector<Invoker*> invokers_;
  const EntityIndex* entities_;
  const PolicyFactory& policy_factory_;
  LatencyModel latency_;
  Rng rng_;
  bool collect_latencies_;
  LoadBalancingPolicy load_balancing_;
  RetryPolicy retry_;
  OverloadControlConfig overload_;
  TelemetryWriter* telemetry_;
  const ClusterInstruments* instruments_;
  RpcPlane* rpc_;  // Null = direct in-process channel (network off).
  // Fixed-delay event lane of the activation timeout (-1 when there is no
  // timeout).
  int timeout_lane_ = -1;

  // Dense per-app state, indexed by AppId and grown on first touch.  A slot
  // whose policy is null has never been routed.  The deque keeps AppState
  // references stable while new apps grow the array.
  std::deque<AppState> apps_;
  std::vector<AppStats> app_stats_;
  PendingMap pending_;
  // Latest policy-state checkpoint per app, parallel to `apps_`
  // (WipePolicyState restores these).
  std::vector<std::unique_ptr<PolicyStateSnapshot>> checkpoints_;
  FaultLedger ledger_;
  OverloadLedger overload_ledger_;
  // Admission queue of parked activation ids.  Superseded ids (retried or
  // shed entries) are skipped lazily, so membership is authoritative only
  // jointly with PendingActivation::queued.
  AdmissionQueue<int64_t> admission_;
  bool drain_scheduled_ = false;
  // The queue head currently scanning the cluster (0 = none).
  int64_t drain_id_ = 0;
  // DrainAdmissionQueue's loop is running; a scan that ended inside it
  // sets drain_again_ instead of re-entering.
  bool draining_ = false;
  bool drain_again_ = false;
  // Per-invoker breakers (empty when the breaker is disabled).
  BreakerBank<SimClock> breakers_;
  // Fed the end-to-end completion latency while hedging is enabled.
  HedgeTrigger<SimClock> hedge_;
  std::vector<double> queue_wait_ms_;
  int64_t next_activation_id_ = 1;

  std::vector<double> billed_execution_ms_;
  std::vector<double> end_to_end_latency_ms_;
  double billed_sum_ms_ = 0.0;
  int64_t completions_ = 0;
  P2Quantile billed_p50_{0.5};
  P2Quantile billed_p99_{0.99};
  double policy_overhead_total_us_ = 0.0;
  double policy_overhead_max_us_ = 0.0;
  int64_t policy_invocations_ = 0;
  int64_t checkpoints_taken_ = 0;
};

}  // namespace faas

#endif  // SRC_CLUSTER_CONTROLLER_H_
