#include "src/cluster/controller.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <utility>

#include "src/cluster/network.h"
#include "src/common/logging.h"
#include "src/trace/entity_index.h"

namespace faas {

namespace {

// The controller's spans run on thread lane 0 (invoker i's on lane i + 1).
constexpr int32_t kLane = 0;

}  // namespace

void FaultLedger::FoldNetCounters(const NetCounters& net) {
  net_messages_sent = net.messages_sent;
  net_delivered = net.delivered;
  net_lost_to_loss = net.lost_to_loss;
  net_lost_to_partition = net.lost_to_partition;
  net_lost_to_queue = net.lost_to_queue;
  net_duplicates_delivered = net.duplicates_delivered;
  net_reordered = net.reordered;
  rpc_retransmits = net.rpc_retransmits;
  rpc_duplicates_suppressed = net.rpc_duplicates_suppressed;
  rpc_give_ups = net.rpc_give_ups;
}

Duration RetryPolicy::BackoffForRetry(int retry_number, Rng& rng) const {
  const double max_ms = max_backoff.seconds() * 1e3;
  double ms = base_backoff.seconds() * 1e3;
  for (int i = 1; i < retry_number && ms < max_ms; ++i) {
    ms *= 2.0;
  }
  ms = std::min(ms, max_ms);
  if (jitter > 0.0) {
    ms *= rng.UniformDouble(1.0 - jitter, 1.0 + jitter);
  }
  return Duration::Millis(static_cast<int64_t>(ms));
}

Controller::Controller(EventQueue* queue, std::vector<Invoker*> invokers,
                       const EntityIndex* entities,
                       const PolicyFactory& policy_factory,
                       const LatencyModel& latency, Rng rng,
                       bool collect_latencies,
                       LoadBalancingPolicy load_balancing, RetryPolicy retry,
                       OverloadControlConfig overload,
                       TelemetryWriter* telemetry,
                       const ClusterInstruments* instruments, RpcPlane* rpc)
    : queue_(queue),
      invokers_(std::move(invokers)),
      entities_(entities),
      policy_factory_(policy_factory),
      latency_(latency),
      rng_(rng),
      collect_latencies_(collect_latencies),
      load_balancing_(load_balancing),
      retry_(retry),
      overload_(overload.CheckedValid()),
      telemetry_(telemetry),
      instruments_(instruments),
      rpc_(rpc),
      admission_(overload_.admission),
      breakers_(overload_.breaker, invokers_.size(), &overload_ledger_),
      hedge_(overload_.hedge) {
  FAAS_CHECK(queue_ != nullptr) << "controller needs an event queue";
  FAAS_CHECK(entities_ != nullptr) << "controller needs an entity index";
  FAAS_CHECK(!invokers_.empty()) << "controller needs at least one invoker";
  FAAS_CHECK(retry_.max_retries >= 0) << "negative retry budget";
  if (retry_.activation_timeout != Duration::Max()) {
    timeout_lane_ = queue_->AddLane(retry_.activation_timeout);
  }
  if (rpc_ != nullptr) {
    rpc_->set_client(this);
  }
  for (Invoker* invoker : invokers_) {
    if (rpc_ != nullptr) {
      // Network mode: completions and failures ride the invoker's downlink
      // as reliable notifies — duplicated deliveries are suppressed by the
      // plane's seen-window, so a completion can never double-count.
      invoker->set_completion_callback(
          [this](const CompletionMessage& message) { rpc_->Notify(message); });
      invoker->set_failure_callback(
          [this](const FailureMessage& message) { rpc_->Notify(message); });
    } else {
      invoker->set_completion_callback(
          [this](const CompletionMessage& message) { OnCompletion(message); });
      invoker->set_failure_callback(
          [this](const FailureMessage& message) { OnFailure(message); });
    }
  }
}

void Controller::RecordActivationSpan(const PendingActivation& pending,
                                      int64_t trace_id,
                                      int64_t outcome_cold) {
  if (telemetry_ != nullptr) {
    telemetry_->Span(SpanName::kActivation, kLane, pending.created_at,
                     queue_->now() - pending.created_at, trace_id,
                     pending.attempts, outcome_cold);
  }
}

Controller::AppState& Controller::GetOrCreateApp(AppId app_id) {
  FAAS_CHECK(app_id.valid()) << "invalid app id";
  if (app_id.index() >= apps_.size()) {
    apps_.resize(app_id.index() + 1);
    app_stats_.resize(app_id.index() + 1);
    checkpoints_.resize(app_id.index() + 1);
  }
  AppState& state = apps_[app_id.index()];
  if (state.policy == nullptr) {
    state.policy = policy_factory_.CreateForApp();
    // Home placement hashes the app NAME, not the dense id: placement stays
    // byte-identical to the string-keyed controller (and independent of the
    // order apps first appear in the trace).
    state.home_invoker = static_cast<int>(
        std::hash<std::string>{}(entities_->AppName(app_id)) %
        invokers_.size());
  }
  return state;
}

const Controller::AppStats& Controller::StatsFor(AppId app_id) const {
  static const AppStats kEmpty;
  if (!app_id.valid() || app_id.index() >= app_stats_.size()) {
    return kEmpty;
  }
  return app_stats_[app_id.index()];
}

std::vector<size_t> Controller::InvokersByFreeMemory() const {
  std::vector<size_t> order(invokers_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    const double free_a =
        invokers_[a]->memory_capacity_mb() - invokers_[a]->memory_in_use_mb();
    const double free_b =
        invokers_[b]->memory_capacity_mb() - invokers_[b]->memory_in_use_mb();
    return free_a > free_b;
  });
  return order;
}

void Controller::OnInvocation(AppId app_id, FunctionId function_id,
                              Duration execution, double memory_mb) {
  AppState& state = GetOrCreateApp(app_id);
  AppStats& stats = app_stats_[app_id.index()];
  ++stats.invocations;

  // An arriving invocation supersedes any scheduled pre-warm.
  state.prewarm_event.Cancel();

  // Run the policy: record the just-completed idle period, then recompute
  // the windows that will govern the next one.  This is the code path whose
  // wall-clock cost the paper reports (835.7us in their Scala prototype).
  const auto wall_start = std::chrono::steady_clock::now();
  if (state.has_executed && state.inflight == 0) {
    const Duration idle = queue_->now() - state.last_exec_end;
    if (!idle.IsNegative()) {
      state.policy->RecordIdleTimeAt(queue_->now(), idle);
    }
  }
  state.decision = state.policy->NextWindows();
  const auto wall_end = std::chrono::steady_clock::now();
  const double overhead_us =
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end -
                                                           wall_start)
          .count() /
      1000.0;
  policy_overhead_total_us_ += overhead_us;
  policy_overhead_max_us_ = std::max(policy_overhead_max_us_, overhead_us);
  ++policy_invocations_;

  // Degraded-mode exit: the policy relearned enough since the wipe.
  if (state.degraded && !state.policy->IsLearning()) {
    state.degraded = false;
    ++ledger_.degraded_recoveries;
    const double degraded_ms = (queue_->now() - state.wiped_at).seconds() * 1e3;
    ledger_.total_degraded_ms += degraded_ms;
    ledger_.max_degraded_ms = std::max(ledger_.max_degraded_ms, degraded_ms);
  }

  // Hedge eligibility is decided at admission: an app that has never
  // executed, or whose idle gap outlived the keep-alive we last shipped
  // with nothing in flight, will almost certainly cold-start — those are
  // the activations worth a second attempt.
  bool hedge_eligible = false;
  if (overload_.hedge.enabled()) {
    hedge_eligible =
        !state.has_executed ||
        (state.inflight == 0 &&
         state.decision.keepalive_window != Duration::Max() &&
         queue_->now() - state.last_exec_end > state.decision.keepalive_window);
  }

  state.memory_mb = memory_mb;
  ++state.inflight;

  const int64_t activation_id = next_activation_id_++;
  PendingActivation pending;
  pending.app_id = app_id;
  pending.function_id = function_id;
  pending.execution = execution;
  pending.memory_mb = memory_mb;
  pending.created_at = queue_->now();
  pending.hedge_eligible = hedge_eligible;
  pending_.emplace(activation_id, std::move(pending));
  if (telemetry_ != nullptr) {
    telemetry_->Inc(instruments_->invocations);
    telemetry_->Set(instruments_->queue_depth,
                    static_cast<double>(pending_.size()), queue_->now());
  }
  SendAttempt(activation_id);
}

ActivationMessage Controller::BuildMessage(
    int64_t activation_id, const PendingActivation& pending) const {
  ActivationMessage message;
  message.activation_id = activation_id;
  message.app_id = pending.app_id;
  message.function_id = pending.function_id;
  message.memory_mb = pending.memory_mb;
  message.execution = pending.execution;
  message.keepalive = pending.decision.keepalive_window;
  message.unload_after_execution = !pending.decision.prewarm_window.IsZero();
  message.hedge = pending.is_hedge;
  return message;
}

void Controller::SendAttempt(int64_t activation_id) {
  auto it = pending_.find(activation_id);
  if (it == pending_.end()) {
    return;  // Timed out while the retry backoff was pending.
  }
  PendingActivation& pending = it->second;
  // The attempt ships the windows decided as it leaves the controller.
  pending.decision = apps_[pending.app_id.index()].decision;

  if (timeout_lane_ >= 0) {
    pending.timeout_event.Cancel();
    pending.timeout_event = queue_->ScheduleOnLane(
        timeout_lane_, [this, activation_id]() { OnTimeout(activation_id); });
  }
  SendOverHop(activation_id, /*exclude_invoker=*/-1);
}

void Controller::SendOverHop(int64_t activation_id, int exclude_invoker) {
  if (rpc_ != nullptr) {
    // RPC channel: every probe's uplink transit IS the dispatch hop.
    StartScan(activation_id, exclude_invoker);
    return;
  }
  // Direct channel: one sampled controller -> invoker hop per attempt.
  queue_->ScheduleAfter(latency_.SampleDispatch(rng_),
                        [this, activation_id, exclude_invoker]() {
                          StartScan(activation_id, exclude_invoker);
                        });
}

void Controller::DropForCapacity(int64_t activation_id) {
  auto it = pending_.find(activation_id);
  FAAS_CHECK(it != pending_.end()) << "dropping an unknown activation";
  PendingActivation& pending = it->second;
  AppState& state = apps_[pending.app_id.index()];
  AppStats& stats = app_stats_[pending.app_id.index()];
  pending.timeout_event.Cancel();
  RecordActivationSpan(pending, activation_id, 0);
  if (telemetry_ != nullptr) {
    telemetry_->Instant(SpanName::kDrop, kLane, queue_->now(), activation_id,
                        pending.attempts);
    telemetry_->Inc(instruments_->dropped);
  }
  pending_.erase(it);
  if (telemetry_ != nullptr) {
    telemetry_->Set(instruments_->queue_depth,
                    static_cast<double>(pending_.size()), queue_->now());
  }
  --state.inflight;
  ++stats.dropped;
}

// --- Placement scan --------------------------------------------------------
//
// Every placement (first attempt, retry, hedge, admission drain) walks the
// candidate invokers one probe at a time.  On the direct channel a probe is
// Invoker::HandleActivation answered inline; on the RPC channel it is an
// at-most-once round trip that can be lost, retransmitted, or partitioned
// away.  A probe whose retransmit budget is spent marks the link suspect
// (the breaker hears about it) and the scan moves on — that is the
// partition-aware failover.

void Controller::StartScan(int64_t activation_id, int exclude_invoker) {
  auto it = pending_.find(activation_id);
  if (it == pending_.end()) {
    return;  // Timed out, or the hedged primary completed, during the hop.
  }
  PendingActivation& pending = it->second;
  pending.candidates.clear();
  pending.scan_pos = 0;
  pending.saw_unhealthy = false;
  pending.saw_giveup = false;
  const size_t n = invokers_.size();
  if (load_balancing_ == LoadBalancingPolicy::kLeastLoaded) {
    // Free-memory order snapshotted at scan start (an RPC walk takes
    // simulated time, but re-sorting mid-scan could revisit invokers).
    for (size_t index : InvokersByFreeMemory()) {
      if (static_cast<int>(index) != exclude_invoker) {
        pending.candidates.push_back(static_cast<int>(index));
      }
    }
  } else {
    // Home invoker first (container affinity, like OpenWhisk's hash-based
    // co-primary), then the rest round-robin.
    const AppState& state = apps_[pending.app_id.index()];
    for (size_t attempt = 0; attempt < n; ++attempt) {
      const size_t index =
          (static_cast<size_t>(state.home_invoker) + attempt) % n;
      if (static_cast<int>(index) != exclude_invoker) {
        pending.candidates.push_back(static_cast<int>(index));
      }
    }
  }
  AdvanceScan(activation_id);
}

void Controller::AdvanceScan(int64_t activation_id) {
  auto it = pending_.find(activation_id);
  if (it == pending_.end()) {
    ScanEnded(activation_id, /*reprobe_drain=*/true);
    return;
  }
  PendingActivation& pending = it->second;
  while (pending.scan_pos < pending.candidates.size()) {
    const int invoker_id = pending.candidates[pending.scan_pos];
    ++pending.scan_pos;
    const auto index = static_cast<size_t>(invoker_id);
    if (!invokers_[index]->healthy()) {
      pending.saw_unhealthy = true;
      continue;
    }
    if (!breakers_.Admits(index)) {
      ++overload_ledger_.breaker_rejections;
      if (telemetry_ != nullptr) {
        telemetry_->Inc(instruments_->breaker_rejected);
      }
      continue;
    }
    Invoker* invoker = invokers_[index];
    if (rpc_ == nullptr) {
      // Direct channel: the probe is answered inline; a decline moves on.
      if (invoker->HandleActivation(BuildMessage(activation_id, pending))) {
        OnProbeAccepted(activation_id, invoker_id);
        return;
      }
      continue;
    }
    // RPC channel: the message goes on the wire now, so it ships the
    // windows decided by now.  The request carries the message itself: a
    // request that arrives after this scan moved on still executes (a
    // zombie the duplicate suppression and the pending-table re-key render
    // harmless).
    pending.decision = apps_[pending.app_id.index()].decision;
    rpc_->Call(invoker, BuildMessage(activation_id, pending));
    return;  // One probe outstanding; the response continues the scan.
  }
  FinishScan(activation_id);
}

void Controller::OnProbeResponse(int64_t activation_id, int invoker,
                                 bool accepted) {
  if (accepted) {
    OnProbeAccepted(activation_id, invoker);
  } else {
    AdvanceScan(activation_id);
  }
}

void Controller::OnProbeAccepted(int64_t activation_id, int invoker) {
  // Half-open probe accounting happens when the controller LEARNS of the
  // accept (the response), not when the invoker accepted.
  breakers_.NoteDispatch(static_cast<size_t>(invoker));
  auto it = pending_.find(activation_id);
  if (it == pending_.end()) {
    // Superseded mid-flight (timeout/retry/shed).  An accepted request is
    // now a zombie execution; its completion will miss the pending table.
    ScanEnded(activation_id, /*reprobe_drain=*/true);
    return;
  }
  PendingActivation& pending = it->second;
  pending.dispatched_invoker = invoker;
  if (pending.queued) {
    // Drain probe landed: the activation leaves the admission queue.  It is
    // still the head unless LIFO arrivals overtook it during a round trip.
    if (admission_.Head() == activation_id) {
      admission_.PopHead();
    } else {
      admission_.EraseIf([activation_id](int64_t id) {
        return id == activation_id;
      });
    }
    NoteDrained(activation_id, pending);
  }
  MaybeArmHedge(activation_id);
  ScanEnded(activation_id, /*reprobe_drain=*/true);
}

void Controller::OnProbeGiveUp(int64_t activation_id, int invoker) {
  // Partition-aware breaker/failover interaction: a spent retransmit budget
  // is a bad outcome for the LINK, fed to the invoker's breaker whether or
  // not the activation still exists — repeated give-ups open the breaker
  // and keep later scans off the unreachable invoker.
  ApplyBreakerTransition(
      invoker, breakers_.RecordOutcome(invoker, /*bad=*/true, queue_->now()));
  auto it = pending_.find(activation_id);
  if (it == pending_.end()) {
    ScanEnded(activation_id, /*reprobe_drain=*/true);
    return;
  }
  it->second.saw_giveup = true;
  AdvanceScan(activation_id);
}

void Controller::FinishScan(int64_t activation_id) {
  auto it = pending_.find(activation_id);
  if (it == pending_.end()) {
    ScanEnded(activation_id, /*reprobe_drain=*/true);
    return;
  }
  PendingActivation& pending = it->second;
  if (pending.queued) {
    // Drain probe found no room: the head stays parked; the next release
    // starts the next drain.
    ScanEnded(activation_id, /*reprobe_drain=*/false);
    return;
  }
  if (pending.is_hedge) {
    // No other invoker took the hedge: it fizzles quietly and the primary
    // carries the activation alone.
    ++overload_ledger_.hedges_unplaced;
    auto primary_it = pending_.find(pending.hedge_partner);
    if (primary_it != pending_.end()) {
      primary_it->second.hedge_partner = 0;
    }
    pending_.erase(it);
    if (telemetry_ != nullptr) {
      telemetry_->Set(instruments_->queue_depth,
                      static_cast<double>(pending_.size()), queue_->now());
    }
    return;
  }
  if (pending.saw_giveup) {
    ++ledger_.network_failures;
    FailAttempt(activation_id, FailureClass::kNetwork);
    return;
  }
  if (pending.saw_unhealthy) {
    FailAttempt(activation_id, FailureClass::kOutage);
    return;
  }
  if (overload_.admission.enabled()) {
    // Saturation with the control plane on: park the activation in the
    // bounded admission queue and wait for a container release.
    EnqueueAdmission(activation_id);
    return;
  }
  // Memory pressure with every worker up: drop (retrying against a full
  // cluster is not failover).
  DropForCapacity(activation_id);
}

void Controller::ScanEnded(int64_t activation_id, bool reprobe_drain) {
  if (drain_id_ != activation_id) {
    return;
  }
  drain_id_ = 0;
  if (reprobe_drain) {
    DrainAdmissionQueue();
  }
}

void Controller::FailAttempt(int64_t activation_id, FailureClass failure) {
  auto it = pending_.find(activation_id);
  FAAS_CHECK(it != pending_.end()) << "failing an unknown activation";
  PendingActivation& pending = it->second;
  pending.timeout_event.Cancel();
  pending.shed_event.Cancel();
  pending.hedge_event.Cancel();
  pending.queued = false;  // A queued id left in the deque is skipped lazily.
  if (pending.hedge_partner != 0) {
    auto partner_it = pending_.find(pending.hedge_partner);
    if (partner_it != pending_.end()) {
      // The other attempt of this hedged pair is still live: it carries the
      // activation, and the failed attempt simply disappears (the pair
      // holds a single inflight slot, released on the survivor's outcome).
      partner_it->second.hedge_partner = 0;
      pending_.erase(it);
      if (telemetry_ != nullptr) {
        telemetry_->Set(instruments_->queue_depth,
                        static_cast<double>(pending_.size()), queue_->now());
      }
      return;
    }
    pending.hedge_partner = 0;
  }
  if (pending.first_failure == FailureClass::kNone) {
    pending.first_failure = failure;
  }

  if (pending.attempts <= retry_.max_retries) {
    const int retry_number = pending.attempts;
    ++pending.attempts;
    const Duration backoff = retry_.BackoffForRetry(retry_number, rng_);
    ++ledger_.retries_scheduled;
    ledger_.total_backoff_ms += backoff.seconds() * 1e3;
    if (telemetry_ != nullptr) {
      telemetry_->Inc(instruments_->retries);
      telemetry_->Instant(SpanName::kRetry, kLane, queue_->now(),
                          activation_id, retry_number);
      telemetry_->Span(SpanName::kBackoff, kLane, queue_->now(), backoff,
                       activation_id, retry_number);
    }
    // Re-key under a fresh attempt id so any result of the failed attempt
    // (e.g. a zombie execution finishing after a timeout) misses the table.
    const int64_t new_id = next_activation_id_++;
    PendingActivation moved = std::move(pending);
    // The fresh attempt starts with a clean overload slate: it may hedge
    // again and has no accepted invoker yet.
    moved.hedge_launched = false;
    moved.dispatched_invoker = -1;
    pending_.erase(it);
    pending_.emplace(new_id, std::move(moved));
    queue_->ScheduleAfter(backoff,
                          [this, new_id]() { SendAttempt(new_id); });
    return;
  }

  // Budget spent: terminal failure.
  AppState& state = apps_[pending.app_id.index()];
  AppStats& stats = app_stats_[pending.app_id.index()];
  --state.inflight;
  RecordActivationSpan(pending, activation_id, 0);
  // The terminal outcome's counter and instant.  The crash/network split
  // counters exist only when the network model registered them.
  CounterId ClusterInstruments::*counter = &ClusterInstruments::lost;
  CounterId ClusterInstruments::*split = nullptr;
  SpanName name = SpanName::kLost;
  switch (failure) {
    case FailureClass::kTimeout:
      ++stats.abandoned;
      ++ledger_.abandoned;
      counter = &ClusterInstruments::abandoned;
      name = SpanName::kAbandon;
      break;
    case FailureClass::kOutage:
      ++stats.rejected_outage;
      ++ledger_.rejected_by_outage;
      counter = &ClusterInstruments::rejected_outage;
      name = SpanName::kRejectOutage;
      break;
    case FailureClass::kCrash:
    case FailureClass::kTransient:
      ++stats.lost;
      ++ledger_.lost;
      ++ledger_.lost_crash;
      split = &ClusterInstruments::lost_crash;
      break;
    case FailureClass::kNetwork:
      ++stats.lost;
      ++ledger_.lost;
      ++ledger_.lost_network;
      split = &ClusterInstruments::lost_network;
      break;
    case FailureClass::kNone:
      FAAS_CHECK(false) << "terminal failure without a class";
      break;
  }
  if (telemetry_ != nullptr) {
    telemetry_->Inc(instruments_->*counter);
    if (split != nullptr && rpc_ != nullptr) {
      telemetry_->Inc(instruments_->*split);
    }
    telemetry_->Instant(name, kLane, queue_->now(), activation_id,
                        pending.attempts);
  }
  pending_.erase(it);
  if (telemetry_ != nullptr) {
    telemetry_->Set(instruments_->queue_depth,
                    static_cast<double>(pending_.size()), queue_->now());
  }
}

void Controller::OnFailure(const FailureMessage& message) {
  // Breakers learn from every failure the invoker reports, including those
  // of superseded attempts: the signal is about the invoker, not the
  // activation.
  ApplyBreakerTransition(
      message.invoker_id,
      breakers_.RecordOutcome(message.invoker_id, /*bad=*/true,
                              queue_->now()));
  auto it = pending_.find(message.activation_id);
  if (it == pending_.end()) {
    return;  // A superseded (already retried / timed-out) attempt.
  }
  if (message.kind == FailureKind::kCrash) {
    ++ledger_.lost_in_flight;
    FailAttempt(message.activation_id, FailureClass::kCrash);
  } else {
    ++ledger_.transient_failures;
    FailAttempt(message.activation_id, FailureClass::kTransient);
  }
}

void Controller::OnTimeout(int64_t activation_id) {
  auto it = pending_.find(activation_id);
  if (it == pending_.end()) {
    return;  // Completed or failed just before the timer fired.
  }
  ++ledger_.timeouts;
  if (telemetry_ != nullptr) {
    telemetry_->Inc(instruments_->timeouts);
    telemetry_->Instant(SpanName::kTimeout, kLane, queue_->now(),
                        activation_id);
  }
  FailAttempt(activation_id, FailureClass::kTimeout);
}

void Controller::OnCompletion(const CompletionMessage& message) {
  // A completion slower than the latency threshold counts as a bad outcome
  // (latency-tripped breakers); otherwise it is a good one that heals the
  // window.
  ApplyBreakerTransition(
      message.invoker_id,
      breakers_.RecordCompletion(message.invoker_id, message.total_latency,
                                 queue_->now()));
  auto pending_it = pending_.find(message.activation_id);
  if (pending_it == pending_.end()) {
    return;  // Zombie execution of a timed-out attempt: result discarded.
  }
  // First-completion-wins: the losing attempt of a hedged pair is erased
  // here; its execution finishes as a zombie and is discarded above — that
  // zombie IS the cancellation.
  if (pending_it->second.hedge_partner != 0) {
    auto partner_it = pending_.find(pending_it->second.hedge_partner);
    if (partner_it != pending_.end()) {
      partner_it->second.timeout_event.Cancel();
      partner_it->second.hedge_event.Cancel();
      partner_it->second.shed_event.Cancel();
      pending_.erase(partner_it);
      if (pending_it->second.is_hedge) {
        ++overload_ledger_.hedge_wins;
        if (telemetry_ != nullptr) {
          telemetry_->Inc(instruments_->hedge_wins);
        }
      } else {
        ++overload_ledger_.hedge_primary_wins;
      }
    }
    pending_it->second.hedge_partner = 0;
  }
  pending_it->second.hedge_event.Cancel();
  hedge_.Observe(queue_->now() - pending_it->second.created_at);
  const int attempts = pending_it->second.attempts;
  const FailureClass first_failure = pending_it->second.first_failure;
  pending_it->second.timeout_event.Cancel();
  RecordActivationSpan(pending_it->second, message.activation_id,
                       message.cold_start ? 1 : 0);
  if (telemetry_ != nullptr) {
    telemetry_->Inc(instruments_->completions);
    telemetry_->Observe(
        instruments_->e2e_latency_ms,
        (queue_->now() - pending_it->second.created_at).seconds() * 1e3);
  }
  pending_.erase(pending_it);
  if (telemetry_ != nullptr) {
    telemetry_->Set(instruments_->queue_depth,
                    static_cast<double>(pending_.size()), queue_->now());
  }

  AppState& state = apps_[message.app_id.index()];
  AppStats& stats = app_stats_[message.app_id.index()];
  if (message.cold_start) {
    ++stats.cold_starts;
    if (state.degraded) {
      ++ledger_.cold_starts_in_degraded_mode;
    }
    switch (first_failure) {
      case FailureClass::kNone:
        break;
      case FailureClass::kCrash:
        ++ledger_.cold_starts_after_crash;
        break;
      case FailureClass::kTransient:
        ++ledger_.cold_starts_after_transient;
        break;
      case FailureClass::kTimeout:
        ++ledger_.cold_starts_after_timeout;
        break;
      case FailureClass::kOutage:
        ++ledger_.cold_starts_after_outage;
        break;
      case FailureClass::kNetwork:
        ++ledger_.cold_starts_after_network;
        break;
    }
  }
  if (attempts > 1) {
    ++ledger_.retry_successes;
  }
  --state.inflight;
  state.last_exec_end = message.execution_end;
  state.has_executed = true;

  const double billed_ms = message.billed_execution.seconds() * 1e3;
  if (telemetry_ != nullptr) {
    telemetry_->Observe(instruments_->billed_ms, billed_ms);
  }
  billed_sum_ms_ += billed_ms;
  ++billed_count_;
  billed_p50_.Add(billed_ms);
  billed_p99_.Add(billed_ms);
  if (collect_latencies_) {
    billed_execution_ms_.push_back(billed_ms);
    end_to_end_latency_ms_.push_back(message.total_latency.seconds() * 1e3);
  }

  // Schedule the pre-warm for the predicted next invocation.
  if (state.inflight == 0 && !state.decision.prewarm_window.IsZero() &&
      state.decision.keepalive_window > Duration::Zero()) {
    const PolicyDecision decision = state.decision;
    const AppId app_id = message.app_id;
    const double memory_mb = state.memory_mb;
    const int home = state.home_invoker;
    state.prewarm_event = queue_->ScheduleAfter(
        decision.prewarm_window, [this, app_id, decision, home, memory_mb]() {
          PrewarmMessage prewarm;
          prewarm.app_id = app_id;
          prewarm.memory_mb = memory_mb;
          prewarm.keepalive = decision.keepalive_window;
          if (rpc_ != nullptr) {
            // Pre-warms are advisory, so network mode ships one
            // fire-and-forget datagram to the home invoker only: a lost or
            // declined pre-warm costs nothing but the cold start it would
            // have hidden (no failover scan, no retransmit).
            Invoker* invoker = invokers_[static_cast<size_t>(home)];
            rpc_->network()->Send(
                NetDirection::kUp, home, NetPriority::kData,
                [invoker, prewarm]() { invoker->HandlePrewarm(prewarm); });
            return;
          }
          const size_t n = invokers_.size();
          for (size_t attempt = 0; attempt < n; ++attempt) {
            const size_t index = (static_cast<size_t>(home) + attempt) % n;
            if (invokers_[index]->HandlePrewarm(prewarm)) {
              return;
            }
          }
        });
  }
}

// --- Admission queue -------------------------------------------------------

void Controller::OnCapacityReleased() {
  if (!overload_.admission.enabled() || admission_.empty() ||
      drain_scheduled_) {
    return;
  }
  // Coalesce a burst of releases (e.g. an eviction sweep) into one drain
  // event, scheduled rather than run inline so a release fired from inside
  // a dispatch cannot re-enter the invoker.
  drain_scheduled_ = true;
  queue_->ScheduleAfter(Duration::Zero(), [this]() {
    drain_scheduled_ = false;
    DrainAdmissionQueue();
  });
}

void Controller::DrainAdmissionQueue() {
  if (drain_id_ != 0) {
    return;  // A head probe is already walking the cluster.
  }
  if (draining_) {
    // A scan answered inline ended inside the loop below: let the loop
    // serve the next head rather than recurse once per drained activation.
    drain_again_ = true;
    return;
  }
  draining_ = true;
  do {
    drain_again_ = false;
    const int64_t* head =
        admission_.LiveHead([this](int64_t id) { return IsQueued(id); });
    if (head == nullptr) {
      break;
    }
    // The head stays parked while it probes; acceptance pops it.  It paid
    // its hop before it was parked, so it scans right away and ships the
    // windows decided by now.
    drain_id_ = *head;
    PendingActivation& pending = pending_.find(drain_id_)->second;
    pending.decision = apps_[pending.app_id.index()].decision;
    StartScan(drain_id_, /*exclude_invoker=*/-1);
  } while (drain_again_);
  draining_ = false;
}

bool Controller::IsQueued(int64_t activation_id) const {
  const auto it = pending_.find(activation_id);
  return it != pending_.end() && it->second.queued;
}

void Controller::NoteDrained(int64_t activation_id,
                             PendingActivation& pending) {
  pending.queued = false;
  pending.shed_event.Cancel();
  const double wait_ms = SimClock::Ms(queue_->now() - pending.queued_since);
  overload_ledger_.BookDrained(wait_ms);
  if (collect_latencies_) {
    queue_wait_ms_.push_back(wait_ms);
  }
  if (telemetry_ != nullptr) {
    telemetry_->Observe(instruments_->queue_wait_ms, wait_ms);
    telemetry_->Span(SpanName::kAdmissionQueue, kLane, pending.queued_since,
                     queue_->now() - pending.queued_since, activation_id,
                     /*arg0=*/1);
  }
}

void Controller::EnqueueAdmission(int64_t activation_id) {
  auto it = pending_.find(activation_id);
  FAAS_CHECK(it != pending_.end()) << "queueing an unknown activation";
  if (admission_.full()) {
    // Superseded ids still occupy slots; drop them before shedding.
    admission_.EraseIf([this](int64_t id) { return !IsQueued(id); });
  }
  if (!admission_.Admit(activation_id, overload_ledger_,
                        [this](int64_t victim) {
                          ShedActivation(victim, ShedReason::kQueueFull);
                        })) {
    return;
  }
  PendingActivation& pending = it->second;
  pending.queued = true;
  pending.queued_since = queue_->now();
  if (telemetry_ != nullptr) {
    telemetry_->Inc(instruments_->queued);
  }
  if (overload_.admission.discipline == AdmissionDiscipline::kCoDel) {
    pending.shed_event = queue_->ScheduleAfter(
        overload_.admission.max_wait, [this, activation_id]() {
          auto sit = pending_.find(activation_id);
          if (sit == pending_.end() || !sit->second.queued) {
            return;  // Drained or superseded before the deadline.
          }
          ShedActivation(activation_id, ShedReason::kDeadline);
        });
  }
}

void Controller::ShedActivation(int64_t activation_id, ShedReason reason) {
  auto it = pending_.find(activation_id);
  if (it == pending_.end()) {
    return;
  }
  PendingActivation& pending = it->second;
  pending.timeout_event.Cancel();
  pending.shed_event.Cancel();
  pending.hedge_event.Cancel();
  if (telemetry_ != nullptr) {
    if (pending.queued) {
      telemetry_->Span(SpanName::kAdmissionQueue, kLane, pending.queued_since,
                       queue_->now() - pending.queued_since, activation_id,
                       /*arg0=*/0);
    }
    telemetry_->Instant(SpanName::kShed, kLane, queue_->now(), activation_id,
                        static_cast<int64_t>(reason));
    telemetry_->Inc(instruments_->shed);
  }
  AppState& state = apps_[pending.app_id.index()];
  AppStats& stats = app_stats_[pending.app_id.index()];
  RecordActivationSpan(pending, activation_id, 0);
  overload_ledger_.BookShed(reason);
  // Sheds are capacity losses, so they fold into the same per-app column
  // as pre-overload drops (Completed() stays consistent either way).
  ++stats.dropped;
  --state.inflight;
  pending_.erase(it);
  if (telemetry_ != nullptr) {
    telemetry_->Set(instruments_->queue_depth,
                    static_cast<double>(pending_.size()), queue_->now());
  }
}

// --- Hedged dispatch -------------------------------------------------------

void Controller::MaybeArmHedge(int64_t activation_id) {
  if (!hedge_.enabled()) {
    return;
  }
  auto it = pending_.find(activation_id);
  if (it == pending_.end()) {
    return;
  }
  PendingActivation& pending = it->second;
  if (pending.is_hedge || pending.hedge_launched || !pending.hedge_eligible) {
    return;
  }
  pending.hedge_event.Cancel();
  pending.hedge_event = queue_->ScheduleAfter(
      hedge_.Delay(), [this, activation_id]() { LaunchHedge(activation_id); });
}

void Controller::LaunchHedge(int64_t primary_id) {
  auto it = pending_.find(primary_id);
  if (it == pending_.end()) {
    return;  // Completed or failed before the hedge timer fired.
  }
  PendingActivation& primary = it->second;
  if (primary.hedge_launched || primary.is_hedge || primary.queued) {
    return;
  }
  const int exclude = primary.dispatched_invoker;
  const int64_t hedge_id = next_activation_id_++;
  primary.hedge_launched = true;
  primary.hedge_partner = hedge_id;

  PendingActivation hedge;
  hedge.app_id = primary.app_id;
  hedge.function_id = primary.function_id;
  hedge.execution = primary.execution;
  hedge.memory_mb = primary.memory_mb;
  hedge.attempts = primary.attempts;
  hedge.first_failure = primary.first_failure;
  hedge.created_at = primary.created_at;
  hedge.is_hedge = true;
  hedge.hedge_partner = primary_id;
  hedge.decision = apps_[hedge.app_id.index()].decision;
  pending_.emplace(hedge_id, std::move(hedge));
  ++overload_ledger_.hedges_launched;
  if (telemetry_ != nullptr) {
    telemetry_->Inc(instruments_->hedges);
    telemetry_->Instant(SpanName::kHedge, kLane, queue_->now(), primary_id);
    telemetry_->Set(instruments_->queue_depth,
                    static_cast<double>(pending_.size()), queue_->now());
  }
  // The hedge pays its own hop, then scans away from the invoker the
  // primary landed on; FinishScan fizzles it if no other invoker has room.
  SendOverHop(hedge_id, exclude);
}

// --- Circuit breakers ------------------------------------------------------

void Controller::ApplyBreakerTransition(int invoker,
                                        BreakerTransition transition) {
  switch (transition.kind) {
    case BreakerTransition::kNone:
      return;
    case BreakerTransition::kClosed:
      if (telemetry_ != nullptr) {
        telemetry_->Instant(SpanName::kBreakerTransition, kLane,
                            queue_->now(), invoker, /*arg0=*/0);
      }
      return;
    case BreakerTransition::kOpened: {
      if (telemetry_ != nullptr) {
        telemetry_->Inc(instruments_->breaker_opens);
        telemetry_->Instant(SpanName::kBreakerTransition, kLane,
                            queue_->now(), invoker, /*arg0=*/1);
      }
      const uint32_t epoch = transition.epoch;
      queue_->ScheduleAfter(breakers_.open_duration(),
                            [this, invoker, epoch]() {
                              if (breakers_.HalfOpen(
                                      static_cast<size_t>(invoker), epoch) &&
                                  telemetry_ != nullptr) {
                                telemetry_->Instant(
                                    SpanName::kBreakerTransition, kLane,
                                    queue_->now(), invoker, /*arg0=*/2);
                              }
                            });
      return;
    }
  }
}

void Controller::FinalizeOverload() {
  if (!overload_.AnyEnabled()) {
    return;
  }
  // Activations still parked when the replay ends were never served.
  for (const int64_t id : admission_.TakeAll()) {
    if (IsQueued(id)) {
      ShedActivation(id, ShedReason::kShutdown);
    }
  }
  // A breaker still away from closed has an open-ended degraded interval;
  // close it at the end of the replay so the ledger accounts for it.
  breakers_.Finish(queue_->now());
}

void Controller::NoteInvokerCrash(int invoker) {
  ++ledger_.invoker_crashes;
  if (telemetry_ != nullptr) {
    telemetry_->Inc(instruments_->invoker_crashes);
    telemetry_->Instant(SpanName::kInvokerCrash, invoker + 1, queue_->now());
  }
}

void Controller::NoteInvokerRestart(int invoker) {
  ++ledger_.invoker_restarts;
  if (telemetry_ != nullptr) {
    telemetry_->Inc(instruments_->invoker_restarts);
    telemetry_->Instant(SpanName::kInvokerRestart, invoker + 1,
                        queue_->now());
  }
}

void Controller::CheckpointPolicies() {
  if (telemetry_ != nullptr) {
    telemetry_->Inc(instruments_->checkpoints);
    telemetry_->Instant(SpanName::kCheckpoint, kLane, queue_->now());
  }
  for (size_t i = 0; i < apps_.size(); ++i) {
    AppState& state = apps_[i];
    if (state.policy == nullptr) {
      // No live state for this id: prune any snapshot left from an earlier
      // cycle instead of carrying it (and re-restoring it) forever.
      checkpoints_[i] = nullptr;
      continue;
    }
    // Assign unconditionally: a policy that currently has nothing worth
    // saving returns null, which also prunes a stale earlier snapshot.
    checkpoints_[i] = state.policy->SnapshotState();
  }
}

void Controller::WipePolicyState() {
  ++ledger_.policy_state_wipes;
  if (telemetry_ != nullptr) {
    telemetry_->Inc(instruments_->policy_wipes);
    telemetry_->Instant(SpanName::kPolicyWipe, kLane, queue_->now());
  }
  for (size_t i = 0; i < apps_.size(); ++i) {
    AppState& state = apps_[i];
    if (state.policy == nullptr) {
      continue;
    }
    state.policy->WipeState();
    bool restored = false;
    if (i < checkpoints_.size() && checkpoints_[i] != nullptr) {
      restored = state.policy->RestoreState(*checkpoints_[i]);
    }
    if (restored) {
      ++ledger_.policy_states_restored;
    } else {
      ++ledger_.policy_states_lost;
    }
    // Recompute the windows from the post-wipe state so the next activation
    // does not ship a keep-alive derived from the lost histogram.
    state.decision = state.policy->NextWindows();
    if (state.policy->IsLearning()) {
      if (!state.degraded) {
        state.degraded = true;
        state.wiped_at = queue_->now();
      }
    } else if (state.degraded) {
      // A checkpoint restore can bring a previously degraded app back.
      state.degraded = false;
      ++ledger_.degraded_recoveries;
      const double degraded_ms =
          (queue_->now() - state.wiped_at).seconds() * 1e3;
      ledger_.total_degraded_ms += degraded_ms;
      ledger_.max_degraded_ms = std::max(ledger_.max_degraded_ms, degraded_ms);
    }
  }
}

double Controller::policy_overhead_mean_us() const {
  return policy_invocations_ > 0
             ? policy_overhead_total_us_ /
                   static_cast<double>(policy_invocations_)
             : 0.0;
}

}  // namespace faas
