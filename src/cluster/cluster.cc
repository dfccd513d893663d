#include "src/cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <vector>

#include "src/cluster/controller.h"
#include "src/cluster/event_queue.h"
#include "src/cluster/invoker.h"
#include "src/common/logging.h"
#include "src/stats/descriptive.h"
#include "src/trace/entity_index.h"

namespace faas {

namespace {

// One invocation to replay, pre-sampled with its execution time.  Entities
// are dense ids (common/intern.h); names re-materialize only when the
// per-app results are written out.
struct ReplayEvent {
  TimePoint at;
  AppId app;
  FunctionId function;
  Duration execution;
  double memory_mb = 0.0;

  bool operator<(const ReplayEvent& other) const { return at < other.at; }
};

// Publishes the replay's own counts at `now`.  Every registered
// faas_cluster_*_total counter is a view of the count the replay already
// keeps for it (its twin) and moves by the twin's change since the last
// call; at a sampler tick (`window` set) the same change is credited to the
// counter's per-minute series, if it has one.  Counters of a bundle that
// was not registered (overload, network) hold invalid ids and are skipped.
// `published` carries the twins between calls.
void Publish(const Controller& controller,
             const std::vector<Invoker*>& invokers,
             const NetworkModel* network, const ClusterInstruments& in,
             TimePoint now, std::optional<TimePoint> window,
             std::vector<int64_t>& published, TelemetryWriter& telemetry) {
  const FaultLedger& faults = controller.ledger();
  const OverloadLedger& overload = controller.overload_ledger();
  // Sheds fold into the apps' dropped column; the counter is capacity drops.
  int64_t dropped = -overload.TotalShed();
  for (const Controller::AppStats& stats : controller.app_stats()) {
    dropped += stats.dropped;
  }
  ResourceLedger resources;
  int64_t transient_faults = 0;
  for (const Invoker* invoker : invokers) {
    resources += invoker->resources();
    transient_faults += invoker->transient_faults();
  }
  const NetCounters net =
      network != nullptr ? network->counters() : NetCounters{};
  struct Twin {
    Twin(CounterId c, int64_t v, SeriesId m = {})
        : counter(c), value(v), minute(m) {}
    CounterId counter;
    int64_t value;
    SeriesId minute;
  };
  const Twin twins[] = {
      {in.invocations, controller.policy_invocations(), in.minute_invocations},
      {in.completions, controller.completions()},
      {in.retries, faults.retries_scheduled},
      {in.timeouts, faults.timeouts},
      {in.dropped, dropped},
      {in.rejected_outage, faults.rejected_by_outage},
      {in.abandoned, faults.abandoned},
      {in.lost, faults.lost},
      {in.policy_wipes, faults.policy_state_wipes},
      {in.checkpoints, controller.checkpoints()},
      {in.cold_starts, resources.cold_loads, in.minute_cold_starts},
      {in.warm_starts, resources.warm_hits},
      {in.prewarm_loads, resources.prewarm_loads},
      {in.evictions, resources.evictions},
      {in.transient_faults, transient_faults},
      {in.invoker_crashes, faults.invoker_crashes},
      {in.invoker_restarts, faults.invoker_restarts},
      {in.queued, overload.queued},
      {in.shed, overload.TotalShed(), in.minute_shed},
      {in.hedges, overload.hedges_launched},
      {in.hedge_wins, overload.hedge_wins},
      {in.breaker_opens, overload.breaker_opens},
      {in.breaker_rejected, overload.breaker_rejections},
      {in.net_dropped,
       net.lost_to_loss + net.lost_to_partition + net.lost_to_queue,
       in.minute_net_drops},
      {in.net_duplicates, net.duplicates_delivered},
      {in.net_retransmits, net.rpc_retransmits, in.minute_net_retransmits},
      {in.net_dup_suppressed, net.rpc_duplicates_suppressed},
      {in.net_give_ups, net.rpc_give_ups},
      {in.lost_network, faults.lost_network},
      {in.lost_crash, faults.lost_crash},
  };
  published.resize(std::size(twins));
  for (size_t i = 0; i < std::size(twins); ++i) {
    const Twin& twin = twins[i];
    if (!twin.counter.valid()) {
      continue;
    }
    const int64_t delta = twin.value - published[i];
    published[i] = twin.value;
    telemetry.Inc(twin.counter, delta);
    if (window && twin.minute.valid()) {
      telemetry.SeriesAdd(twin.minute, *window, delta);
    }
  }
  telemetry.Set(in.queue_depth,
                static_cast<double>(controller.pending_activations()), now);
}

}  // namespace

ClusterResult ClusterSimulator::Replay(const Trace& trace,
                                       const PolicyFactory& factory) const {
  EventQueue queue;
  // Self-rescheduling events (checkpoint tick, telemetry sampler) live here,
  // and each queued tick captures only a pointer to its callable.  Owning
  // them here — rather than having the lambda capture a shared_ptr to
  // itself, which forms an unreclaimable cycle — keeps the replay leak-free.
  // Declared after the queue, they are destroyed before it; the queue's
  // destructor only destroys the pending ticks, never runs them.  Everything
  // that holds an EventQueue::Handle (invokers, RPC plane, controller) is
  // declared after the queue too, so no handle outlives it.
  std::vector<std::unique_ptr<std::function<void()>>> repeating_events;
  Rng rng(config_.seed);

  const std::string fault_error =
      config_.faults.Validate(config_.num_invokers);
  FAAS_CHECK(fault_error.empty()) << "invalid fault plan: " << fault_error;
  FAAS_CHECK(!config_.faults.HasNetworkFaults() || config_.network.enabled)
      << "fault plan has network faults but the network model is disabled";

  // Telemetry for this replay (one instrument bundle per policy label),
  // written through the replay's single writer, which folds at each sampler
  // tick and at the end.
  ClusterInstruments instruments;
  std::optional<TelemetryWriter> writer;
  if (config_.telemetry != nullptr) {
    instruments = ClusterInstruments::Register(
        *config_.telemetry, factory.name(), config_.telemetry_pid,
        trace.horizon, config_.metrics_interval,
        config_.overload.AnyEnabled(), config_.network.enabled,
        config_.resource_telemetry);
    writer.emplace(*config_.telemetry, instruments.lane);
    if (config_.telemetry->trace_enabled()) {
      for (int i = 0; i < config_.num_invokers; ++i) {
        config_.telemetry->tracer().RegisterThread(
            config_.telemetry_pid, i + 1, "invoker " + std::to_string(i));
      }
    }
  }
  TelemetryWriter* const telemetry = writer ? &*writer : nullptr;

  std::vector<std::unique_ptr<Invoker>> invokers;
  std::vector<Invoker*> invoker_ptrs;
  invokers.reserve(static_cast<size_t>(config_.num_invokers));
  for (int i = 0; i < config_.num_invokers; ++i) {
    invokers.push_back(std::make_unique<Invoker>(
        i, config_.invoker_memory_mb, &queue, config_.latency, rng.Fork(),
        &config_.faults, telemetry, &instruments));
    invoker_ptrs.push_back(invokers.back().get());
  }
  // Network model + RPC plane, constructed only when enabled: the fork
  // below happens after the invoker forks and before the controller's, and
  // is skipped entirely when the network is off — so disabled replays
  // consume an identical fork sequence (and stay byte-identical).
  std::unique_ptr<NetworkModel> network;
  std::unique_ptr<RpcPlane> rpc;
  if (config_.network.enabled) {
    network = std::make_unique<NetworkModel>(
        &queue, config_.network, &config_.faults, config_.num_invokers,
        rng.Fork(), telemetry);
    rpc = std::make_unique<RpcPlane>(network.get());
  }
  const std::shared_ptr<const EntityIndex> entities = EntityIndexFor(trace);
  Controller controller(&queue, invoker_ptrs, entities.get(), factory,
                        config_.latency, rng.Fork(), config_.collect_latencies,
                        config_.load_balancing, config_.retry,
                        config_.overload, telemetry, &instruments, rpc.get());

  // Overload control plane wiring.  Both hooks are registered only when the
  // corresponding feature is on, so a disabled control plane leaves the
  // invokers (and the event schedule they produce) untouched.
  if (config_.overload.admission.enabled()) {
    for (Invoker* invoker : invoker_ptrs) {
      invoker->set_release_callback(
          [&controller]() { controller.OnCapacityReleased(); });
    }
  }
  if (config_.overload.invoker_concurrency_cap > 0) {
    for (Invoker* invoker : invoker_ptrs) {
      invoker->set_concurrency_cap(config_.overload.invoker_concurrency_cap);
    }
  }

  // Flatten the trace into time-ordered replay events with pre-sampled
  // per-invocation execution times.
  std::vector<ReplayEvent> events;
  events.reserve(static_cast<size_t>(trace.TotalInvocations()));
  for (size_t a = 0; a < trace.apps.size(); ++a) {
    const AppTrace& app = trace.apps[a];
    const AppId app_id = AppId(a);
    for (const FunctionTrace& function : app.functions) {
      const FunctionId function_id =
          entities->FindFunction(app_id, function.function_id)
              .value_or(FunctionId());
      Rng fn_rng = rng.Fork();
      const double avg = std::max(function.execution.average_ms, 1.0);
      const double lo = std::max(function.execution.minimum_ms, 0.0);
      const double hi = std::max(function.execution.maximum_ms, avg);
      for (TimePoint t : function.invocations) {
        const double sampled = std::clamp(
            fn_rng.NextLogNormal(std::log(avg), config_.execution_sigma), lo,
            hi);
        events.push_back({t, app_id, function_id,
                          Duration::Millis(static_cast<int64_t>(sampled)),
                          app.memory.average_mb});
      }
    }
  }
  std::stable_sort(events.begin(), events.end());

  // Schedule fault-injection outages.
  for (const ClusterConfig::Outage& outage : config_.outages) {
    FAAS_CHECK(outage.invoker >= 0 && outage.invoker < config_.num_invokers)
        << "outage for unknown invoker " << outage.invoker;
    FAAS_CHECK(!outage.start.IsNegative() && outage.end >= outage.start)
        << "outage with negative time or duration";
    Invoker* target = invoker_ptrs[static_cast<size_t>(outage.invoker)];
    queue.Schedule(TimePoint::Origin() + outage.start,
                   [target]() { target->SetHealthy(false); });
    queue.Schedule(TimePoint::Origin() + outage.end,
                   [target]() { target->SetHealthy(true); });
    if (telemetry != nullptr) {
      telemetry->Span(SpanName::kOutage, outage.invoker + 1,
                      TimePoint::Origin() + outage.start,
                      outage.end - outage.start);
    }
  }

  // The fault plan's windows are known up front, so their spans are recorded
  // at setup (arg0 carries the window's scaled parameter); crash/restart
  // instants are recorded when they actually fire.
  if (telemetry != nullptr) {
    for (const LatencySpike& spike : config_.faults.spikes) {
      telemetry->Span(SpanName::kLatencySpike, 0, spike.start, spike.duration,
                      0, static_cast<int64_t>(spike.multiplier * 100.0));
    }
    for (const TransientFaultWindow& window :
         config_.faults.transient_windows) {
      telemetry->Span(
          SpanName::kFlakyWindow, 0, window.start, window.duration, 0,
          static_cast<int64_t>(window.failure_probability * 1e6));
    }
    for (const NetPartitionEvent& partition : config_.faults.partitions) {
      telemetry->Span(SpanName::kNetPartition,
                      partition.invoker >= 0 ? partition.invoker + 1 : 0,
                      partition.start, partition.duration, 0,
                      static_cast<int64_t>(partition.dir));
    }
    for (const NetLossWindow& window : config_.faults.loss_windows) {
      telemetry->Span(SpanName::kNetLossWindow,
                      window.invoker >= 0 ? window.invoker + 1 : 0,
                      window.start, window.duration, 0,
                      static_cast<int64_t>(window.probability * 1e6));
    }
  }

  const TimePoint end = TimePoint::Origin() + trace.horizon;

  // Schedule the chaos engine.  An empty FaultPlan (the default) schedules
  // nothing here, leaving event sequence numbers — and therefore FIFO
  // tie-breaks — bit-identical to a pre-chaos replay.
  for (const CrashEvent& crash : config_.faults.crashes) {
    Invoker* target = invoker_ptrs[static_cast<size_t>(crash.invoker)];
    const Duration downtime = crash.downtime;
    queue.Schedule(crash.at, [target, &controller, &queue, downtime]() {
      // Crash() reports each in-flight activation to the controller
      // synchronously, which may schedule retries.
      const int64_t epoch = target->Crash();
      controller.NoteInvokerCrash(target->id());
      queue.ScheduleAfter(downtime, [target, &controller, epoch]() {
        if (target->Restart(epoch)) {
          controller.NoteInvokerRestart(target->id());
        }
      });
    });
  }
  for (const StateWipeEvent& wipe : config_.faults.wipes) {
    queue.Schedule(wipe.at,
                   [&controller]() { controller.WipePolicyState(); });
  }
  if (config_.policy_checkpoint_interval > Duration::Zero()) {
    const Duration interval = config_.policy_checkpoint_interval;
    repeating_events.push_back(std::make_unique<std::function<void()>>());
    std::function<void()>* tick = repeating_events.back().get();
    *tick = [&controller, &queue, tick, interval, end]() {
      controller.CheckpointPolicies();
      if (queue.now() + interval <= end) {
        queue.ScheduleAfter(interval, [tick]() { (*tick)(); });
      }
    };
    queue.Schedule(TimePoint::Origin() + interval, [tick]() { (*tick)(); });
  }

  // Telemetry interval sampler: at each boundary, and at the horizon when
  // the interval does not divide it, publish the replay's counts (the
  // counters and queue depth reach the registry only here and once at the
  // end) and credit the just-elapsed window's bins with the sampled queue
  // depth / resident memory.  Read-only with respect to
  // simulation state, so the replayed behaviour is unchanged; scheduled at
  // all only when telemetry is on, so a telemetry-off replay consumes
  // identical event sequence numbers.
  std::vector<int64_t> published;
  if (telemetry != nullptr && telemetry->metrics_enabled() &&
      config_.metrics_interval > Duration::Zero()) {
    const Duration interval = config_.metrics_interval;
    const bool overload_on = config_.overload.AnyEnabled();
    const bool resources_on = config_.resource_telemetry;
    const CostModel cost_model = config_.cost;
    struct SampleState {
      TimePoint window_start = TimePoint::Origin();
      int64_t idle_mb_s = 0;
      int64_t loads = 0;
      int64_t unloads = 0;
    };
    auto last = std::make_shared<SampleState>();
    repeating_events.push_back(std::make_unique<std::function<void()>>());
    std::function<void()>* sample = repeating_events.back().get();
    *sample = [&queue, &controller, &invoker_ptrs, &network, &instruments,
               &published, sample, last, telemetry, interval, end,
               overload_on, resources_on, cost_model]() {
      const TimePoint now = queue.now();
      const TimePoint window_start = last->window_start;
      last->window_start = now;
      Publish(controller, invoker_ptrs, network.get(), instruments, now,
              window_start, published, *telemetry);
      double memory_mb = 0.0;
      for (Invoker* invoker : invoker_ptrs) {
        memory_mb += invoker->memory_in_use_mb();
      }
      telemetry->SeriesAdd(
          instruments.minute_queue_depth, window_start,
          static_cast<int64_t>(controller.pending_activations()));
      telemetry->SeriesAdd(instruments.minute_memory_mb, window_start,
                           static_cast<int64_t>(memory_mb));
      telemetry->Set(instruments.memory_in_use_mb, memory_mb, now);
      if (overload_on) {
        // This slot exists only when the control plane registered it.
        telemetry->SeriesAdd(
            instruments.minute_admission_queue, window_start,
            static_cast<int64_t>(controller.admission_queue_depth()));
      }
      if (resources_on) {
        // Resource-ledger slots exist only when resource telemetry is on.
        // ResourcesAt advances the residency split to `now` without
        // mutating the invoker (the sampler stays read-only).
        ResourceLedger sampled;
        for (Invoker* invoker : invoker_ptrs) {
          sampled += invoker->ResourcesAt(now);
        }
        const int64_t idle_mb_s =
            static_cast<int64_t>(sampled.idle_mb_ms / 1000.0);
        telemetry->SeriesAdd(instruments.minute_idle_mb_seconds, window_start,
                             idle_mb_s - last->idle_mb_s);
        last->idle_mb_s = idle_mb_s;
        telemetry->Inc(instruments.resource_container_loads,
                       sampled.container_loads() - last->loads);
        last->loads = sampled.container_loads();
        telemetry->Inc(instruments.resource_container_unloads,
                       sampled.container_unloads() - last->unloads);
        last->unloads = sampled.container_unloads();
        telemetry->Set(instruments.resource_idle_gb_seconds,
                       sampled.idle_gb_seconds(), now);
        telemetry->Set(instruments.resource_busy_gb_seconds,
                       sampled.busy_gb_seconds(), now);
        telemetry->Set(instruments.resource_cpu_seconds,
                       sampled.cpu_seconds(), now);
        telemetry->Set(instruments.resource_cost_dollars,
                       sampled.CostDollars(cost_model), now);
      }
      telemetry->Fold();
      if (now < end) {
        // The last window ends at the horizon, whole or not.
        queue.ScheduleAfter(std::min(interval, end - now),
                            [sample]() { (*sample)(); });
      }
    };
    queue.Schedule(TimePoint::Origin() + interval,
                   [sample]() { (*sample)(); });
  }

  // The sorted arrivals feed the queue's arrival cursor: they take the
  // next sequence numbers as one block, exactly as if each were scheduled
  // here in order, without occupying the event heap.
  std::vector<TimePoint> arrival_times;
  arrival_times.reserve(events.size());
  for (const ReplayEvent& event : events) {
    arrival_times.push_back(event.at);
  }
  queue.ScheduleArrivals(std::move(arrival_times),
                         [&controller, &events](size_t i) {
                           const ReplayEvent& event = events[i];
                           controller.OnInvocation(event.app, event.function,
                                                   event.execution,
                                                   event.memory_mb);
                         });
  // Run to the end of the trace horizon and measure memory there, so both
  // policies are integrated over the same wall-clock window (keep-alive
  // unload timers stretching past the horizon do not distort the integral).
  queue.RunUntil(end);
  ClusterResult result;
  result.policy_name = factory.name();
  // Snapshot the memory integral at the horizon, then drain the queue so
  // in-flight dispatches and executions straddling the horizon complete and
  // are counted.
  for (const auto& invoker : invokers) {
    invoker->FinalizeAt(end);
    result.memory_mb_seconds += invoker->memory_mb_seconds();
  }
  queue.Run();
  // Flush any still-queued admissions and close open breaker intervals now
  // that the event queue has fully drained.
  controller.FinalizeOverload();
  for (const auto& invoker : invokers) {
    result.total_cold_starts += invoker->cold_starts();
    result.total_warm_starts += invoker->warm_starts();
    result.total_evictions += invoker->evictions();
    result.total_prewarm_loads += invoker->prewarm_loads();
    // Fold the per-invoker resource ledgers in invoker-index order, so the
    // replay's ledger is bit-identical run to run.  Happens after the
    // queue drain: executions straddling the horizon have charged their
    // CPU, while the residency split froze at FinalizeAt's horizon.
    result.resources += invoker->resources();
  }
  result.cost_dollars = result.resources.CostDollars(config_.cost);
  const double wall_seconds =
      static_cast<double>(end.millis_since_origin()) / 1e3;
  result.avg_resident_mb_per_invoker =
      wall_seconds > 0.0
          ? result.memory_mb_seconds /
                (wall_seconds * static_cast<double>(config_.num_invokers))
          : 0.0;

  // Re-materialize names at the output boundary.  Dense slots with zero
  // invocations are apps the replay never routed (the string-keyed
  // controller never created map entries for them).
  const std::vector<Controller::AppStats>& app_stats = controller.app_stats();
  for (size_t i = 0; i < app_stats.size(); ++i) {
    const Controller::AppStats& stats = app_stats[i];
    if (stats.invocations == 0) {
      continue;
    }
    ClusterAppResult app_result;
    app_result.app_id = entities->AppName(AppId(i));
    app_result.invocations = stats.invocations;
    app_result.cold_starts = stats.cold_starts;
    app_result.dropped = stats.dropped;
    app_result.rejected_outage = stats.rejected_outage;
    app_result.abandoned = stats.abandoned;
    app_result.lost = stats.lost;
    result.apps.push_back(std::move(app_result));
    result.total_invocations += stats.invocations;
    result.total_dropped += stats.dropped;
    result.total_rejected_outage += stats.rejected_outage;
    result.total_abandoned += stats.abandoned;
    result.total_lost += stats.lost;
  }
  result.faults = controller.ledger();
  if (network != nullptr) {
    // Fold the transport's counters into the replay's ledger so determinism
    // tests (operator== over FaultLedger) cover every drop/retransmit.
    result.faults.FoldNetCounters(network->counters());
    result.net_sent_by_kind = network->counters().sent_by_kind;
  }
  result.overload = controller.overload_ledger();
  for (const auto& invoker : invokers) {
    result.overload.cap_rejections += invoker->cap_rejections();
  }
  result.queue_wait_ms = controller.queue_wait_ms();
  std::sort(result.apps.begin(), result.apps.end(),
            [](const ClusterAppResult& a, const ClusterAppResult& b) {
              return a.app_id < b.app_id;
            });

  result.billed_execution_ms = controller.billed_execution_ms();
  result.billed_mean_ms_stream = controller.billed_mean_ms_stream();
  result.billed_p50_ms_stream = controller.billed_p50_ms_stream();
  result.billed_p99_ms_stream = controller.billed_p99_ms_stream();
  result.end_to_end_latency_ms = controller.end_to_end_latency_ms();
  result.policy_overhead_mean_us = controller.policy_overhead_mean_us();
  result.policy_overhead_max_us = controller.policy_overhead_max_us();

  if (telemetry != nullptr) {
    if (config_.resource_telemetry) {
      // End-of-replay ledger export: final gauge values at the horizon and
      // one summary span over the whole replay window.
      telemetry->Set(instruments.resource_idle_gb_seconds,
                     result.resources.idle_gb_seconds(), end);
      telemetry->Set(instruments.resource_busy_gb_seconds,
                     result.resources.busy_gb_seconds(), end);
      telemetry->Set(instruments.resource_cpu_seconds,
                     result.resources.cpu_seconds(), end);
      telemetry->Set(instruments.resource_cost_dollars, result.cost_dollars,
                     end);
      telemetry->Span(SpanName::kResourceCost, 0, TimePoint::Origin(),
                      trace.horizon, 0,
                      static_cast<int64_t>(result.resources.gb_seconds()),
                      static_cast<int64_t>(result.cost_dollars * 1e6));
    }
    Publish(controller, invoker_ptrs, network.get(), instruments, queue.now(),
            std::nullopt, published, *telemetry);
    telemetry->Fold();
  }
  return result;
}

double ClusterResult::MeanBilledExecutionMs() const {
  return billed_execution_ms.empty() ? billed_mean_ms_stream
                                     : Mean(billed_execution_ms);
}

double ClusterResult::BilledExecutionPercentileMs(double pct) const {
  if (!billed_execution_ms.empty()) {
    return Percentile(billed_execution_ms, pct);
  }
  if (pct == 50.0) {
    return billed_p50_ms_stream;
  }
  FAAS_CHECK(pct == 99.0)
      << "only p50/p99 streaming estimates exist without sample collection";
  return billed_p99_ms_stream;
}

Ecdf ClusterResult::AppColdStartEcdf() const {
  std::vector<double> percentages;
  percentages.reserve(apps.size());
  for (const auto& app : apps) {
    percentages.push_back(app.ColdStartPercent());
  }
  return Ecdf(std::move(percentages));
}

double ClusterResult::AppColdStartPercentile(double pct) const {
  FAAS_CHECK(!apps.empty()) << "no apps in cluster result";
  std::vector<double> percentages;
  percentages.reserve(apps.size());
  for (const auto& app : apps) {
    percentages.push_back(app.ColdStartPercent());
  }
  return Percentile(percentages, pct);
}

}  // namespace faas
