#include "src/cluster/invoker.h"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace faas {

Invoker::Invoker(int id, double memory_capacity_mb, EventQueue* queue,
                 const LatencyModel& latency, Rng rng, const FaultPlan* faults,
                 TelemetryWriter* telemetry,
                 const ClusterInstruments* instruments)
    : id_(id),
      memory_capacity_mb_(memory_capacity_mb),
      queue_(queue),
      latency_(latency),
      rng_(rng),
      faults_(faults),
      telemetry_(telemetry),
      instruments_(instruments),
      last_memory_change_(queue->now()),
      last_split_change_(queue->now()) {
  FAAS_CHECK(queue != nullptr) << "invoker needs an event queue";
  FAAS_CHECK(memory_capacity_mb > 0.0) << "invoker memory must be positive";
}

void Invoker::AccrueMemoryTime() {
  const TimePoint now = queue_->now();
  const Duration elapsed = now - last_memory_change_;
  if (!elapsed.IsNegative()) {
    memory_mb_seconds_ += memory_in_use_mb_ * elapsed.seconds();
  }
  last_memory_change_ = now;
}

void Invoker::AccrueSplitTime() {
  const TimePoint now = queue_->now();
  const Duration elapsed = now - last_split_change_;
  if (!elapsed.IsNegative() && !residency_frozen_) {
    const double ms = static_cast<double>(elapsed.millis());
    resources_.busy_mb_ms += busy_memory_mb_ * ms;
    resources_.idle_mb_ms += (memory_in_use_mb_ - busy_memory_mb_) * ms;
  }
  last_split_change_ = now;
}

ResourceLedger Invoker::ResourcesAt(TimePoint now) const {
  ResourceLedger snapshot = resources_;
  const Duration elapsed = now - last_split_change_;
  if (!elapsed.IsNegative() && !residency_frozen_) {
    const double ms = static_cast<double>(elapsed.millis());
    snapshot.busy_mb_ms += busy_memory_mb_ * ms;
    snapshot.idle_mb_ms += (memory_in_use_mb_ - busy_memory_mb_) * ms;
  }
  return snapshot;
}

void Invoker::FinalizeAt(TimePoint end) {
  const Duration elapsed = end - last_memory_change_;
  if (!elapsed.IsNegative()) {
    memory_mb_seconds_ += memory_in_use_mb_ * elapsed.seconds();
    last_memory_change_ = end;
  }
  // Close the ledger's split residency integral at the same horizon and
  // freeze it: executions straddling the horizon still charge CPU while
  // the queue drains, but residency — like memory_mb_seconds_ — is
  // integrated over the replay window only.
  const Duration split_elapsed = end - last_split_change_;
  if (!split_elapsed.IsNegative() && !residency_frozen_) {
    const double ms = static_cast<double>(split_elapsed.millis());
    resources_.busy_mb_ms += busy_memory_mb_ * ms;
    resources_.idle_mb_ms += (memory_in_use_mb_ - busy_memory_mb_) * ms;
    last_split_change_ = end;
  }
  residency_frozen_ = true;
}

Invoker::ContainerList::iterator Invoker::FindIdleContainer(AppId app_id) {
  return std::find_if(containers_.begin(), containers_.end(),
                      [app_id](const Container& container) {
                        return !container.busy && container.app_id == app_id;
                      });
}

bool Invoker::EvictIdleContainers(double needed_mb) {
  // Evict idle containers with the earliest keep-alive deadline first: they
  // are the ones the policy was most ready to give up.
  while (memory_in_use_mb_ + needed_mb > memory_capacity_mb_) {
    auto victim = containers_.end();
    for (auto it = containers_.begin(); it != containers_.end(); ++it) {
      if (it->busy) {
        continue;
      }
      if (victim == containers_.end() ||
          it->keepalive_deadline < victim->keepalive_deadline) {
        victim = it;
      }
    }
    if (victim == containers_.end()) {
      return false;  // Everything resident is busy.
    }
    ++resources_.evictions;
    if (telemetry_ != nullptr) {
      telemetry_->Inc(instruments_->evictions);
      telemetry_->Instant(SpanName::kEviction, lane(), queue_->now());
    }
    DestroyContainer(victim);
  }
  return true;
}

Invoker::ContainerList::iterator Invoker::CreateContainer(AppId app_id,
                                                         double memory_mb) {
  if (memory_in_use_mb_ + memory_mb > memory_capacity_mb_ &&
      !EvictIdleContainers(memory_mb)) {
    return containers_.end();
  }
  AccrueMemoryTime();
  AccrueSplitTime();
  containers_.push_back(Container{});
  const auto it = std::prev(containers_.end());
  it->app_id = app_id;
  it->memory_mb = memory_mb;
  memory_in_use_mb_ += memory_mb;
  return it;
}

void Invoker::DestroyContainer(ContainerList::iterator it) {
  FAAS_CHECK(!it->busy) << "destroying a busy container";
  AccrueMemoryTime();
  AccrueSplitTime();
  it->unload_timer.Cancel();
  it->exec_end_event.Cancel();
  memory_in_use_mb_ -= it->memory_mb;
  containers_.erase(it);
  // Memory just freed: let the controller drain its admission queue.
  NotifyRelease();
}

void Invoker::ArmKeepAlive(ContainerList::iterator it, Duration keepalive) {
  it->unload_timer.Cancel();
  if (keepalive == Duration::Max()) {
    it->keepalive_deadline = TimePoint::Max();
    return;  // Never unload.
  }
  it->keepalive_deadline = queue_->now() + keepalive;
  it->unload_timer =
      queue_->Schedule(it->keepalive_deadline, [this, it]() {
        if (!it->busy) {
          // Keep-alive expiry (vs. pressure eviction) for the ledger's
          // unload-cause split.
          ++resources_.expirations;
          DestroyContainer(it);
        }
      });
}

void Invoker::SetHealthy(bool healthy) {
  healthy_ = healthy;
  if (healthy) {
    return;
  }
  // Drop everything idle now; busy containers drain via their exec-end
  // handlers (which see healthy_ == false and destroy instead of re-arming).
  for (auto it = containers_.begin(); it != containers_.end();) {
    if (it->busy) {
      ++it;
    } else {
      const auto victim = it++;
      DestroyContainer(victim);
    }
  }
}

int64_t Invoker::Crash() {
  ++crash_epoch_;
  healthy_ = false;
  AccrueMemoryTime();
  AccrueSplitTime();
  // Collect in-flight losses first, then clear all container state, then
  // notify: the callback may re-dispatch, and must observe a dead invoker.
  std::vector<FailureMessage> lost;
  for (Container& container : containers_) {
    container.unload_timer.Cancel();
    container.exec_end_event.Cancel();
    if (container.busy && container.activation_id != 0) {
      FailureMessage failure;
      failure.activation_id = container.activation_id;
      failure.app_id = container.app_id;
      failure.invoker_id = id_;
      failure.kind = FailureKind::kCrash;
      lost.push_back(std::move(failure));
    }
  }
  containers_.clear();
  memory_in_use_mb_ = 0.0;
  busy_containers_ = 0;
  busy_memory_mb_ = 0.0;
  if (on_failure_) {
    for (const FailureMessage& failure : lost) {
      on_failure_(failure);
    }
  }
  return crash_epoch_;
}

bool Invoker::Restart(int64_t epoch) {
  if (epoch != crash_epoch_ || healthy_) {
    return false;  // A newer crash superseded this restart, or already up.
  }
  healthy_ = true;
  AccrueMemoryTime();  // Re-anchor the (empty-pool) memory integral.
  AccrueSplitTime();
  // A restarted invoker is fresh capacity back in rotation.
  NotifyRelease();
  return true;
}

bool Invoker::HandleActivation(const ActivationMessage& message) {
  if (!healthy_) {
    return false;
  }
  // Concurrency cap: a capped-out invoker refuses the activation just like
  // memory pressure would (the controller fails over or queues it).
  if (concurrency_cap_ > 0 && busy_containers_ >= concurrency_cap_) {
    ++cap_rejections_;
    return false;
  }
  if (faults_ != nullptr) {
    // Transient sandbox fault: the activation is accepted but fails before
    // the function runs; the controller hears about it after a messaging
    // hop.  The Bernoulli draw only happens inside an active fault window,
    // so fault-free replays consume an identical rng stream.
    const double p = faults_->TransientFailureProbabilityAt(queue_->now());
    if (p > 0.0 && rng_.Bernoulli(p)) {
      if (telemetry_ != nullptr) {
        telemetry_->Inc(instruments_->transient_faults);
        telemetry_->Instant(SpanName::kTransientFault, lane(), queue_->now(),
                            message.activation_id);
      }
      FailureMessage failure;
      failure.activation_id = message.activation_id;
      failure.app_id = message.app_id;
      failure.invoker_id = id_;
      failure.kind = FailureKind::kTransient;
      queue_->ScheduleAfter(latency_.SampleDispatch(rng_),
                            [this, failure]() {
                              if (on_failure_) {
                                on_failure_(failure);
                              }
                            });
      return true;
    }
  }
  auto it = FindIdleContainer(message.app_id);
  bool cold = false;
  Duration startup = Duration::Zero();
  Duration bootstrap = Duration::Zero();

  if (it != containers_.end()) {
    ++resources_.warm_hits;
    if (telemetry_ != nullptr) {
      telemetry_->Inc(instruments_->warm_starts);
      telemetry_->Instant(SpanName::kWarmHit, lane(), queue_->now(),
                          message.activation_id);
    }
    it->unload_timer.Cancel();
  } else {
    it = CreateContainer(message.app_id, message.memory_mb);
    if (it == containers_.end()) {
      return false;
    }
    cold = true;
    ++resources_.cold_loads;
    const double scale = faults_ == nullptr
                             ? 1.0
                             : faults_->LatencyMultiplierAt(queue_->now());
    bootstrap = latency_.SampleRuntimeBootstrap(rng_, scale);
    startup = latency_.SampleContainerInit(rng_, scale) + bootstrap;
    if (telemetry_ != nullptr) {
      telemetry_->Inc(instruments_->cold_starts);
      telemetry_->Observe(instruments_->cold_startup_ms,
                          startup.seconds() * 1e3);
      telemetry_->Span(SpanName::kColdLoad, lane(), queue_->now(), startup,
                       message.activation_id);
    }
  }
  // The container is committed to this activation: advance the residency
  // split with the old busy footprint, then move it into the busy bucket.
  AccrueSplitTime();
  ++resources_.invocations;
  busy_memory_mb_ += it->memory_mb;
  it->busy = true;
  it->activation_id = message.activation_id;
  ++busy_containers_;

  const TimePoint exec_end = queue_->now() + startup + message.execution;
  if (telemetry_ != nullptr) {
    telemetry_->Span(SpanName::kExecute, lane(), queue_->now() + startup,
                     message.execution, message.activation_id);
  }
  const Duration total_latency = startup + message.execution;
  // OpenWhisk activation records charge the full initialisation (container
  // init + runtime bootstrap) to a cold activation's duration; warm
  // activations record the bare run time.  This is the "secondary effect"
  // behind the paper's 32.5%/82.4% execution-time reductions.
  const Duration billed = startup + message.execution;
  (void)bootstrap;
  const ActivationMessage msg = message;  // Copy for the closure.
  it->exec_end_event = queue_->Schedule(
      exec_end, [this, it, msg, cold, total_latency, billed]() {
        AccrueSplitTime();
        resources_.cpu_ms += static_cast<double>(billed.millis());
        busy_memory_mb_ -= it->memory_mb;
        it->busy = false;
        it->activation_id = 0;
        it->exec_end_event = EventQueue::Handle();
        --busy_containers_;
        if (msg.unload_after_execution || !healthy_) {
          DestroyContainer(it);
        } else {
          ArmKeepAlive(it, msg.keepalive);
        }
        if (on_completion_) {
          CompletionMessage completion;
          completion.activation_id = msg.activation_id;
          completion.app_id = msg.app_id;
          completion.invoker_id = id_;
          completion.cold_start = cold;
          completion.execution_end = queue_->now();
          completion.total_latency = total_latency;
          completion.billed_execution = billed;
          on_completion_(completion);
        }
        // Even without a destroy, a finished execution frees a concurrency
        // slot (and possibly the controller's queue head fits now).
        NotifyRelease();
      });
  return true;
}

bool Invoker::HandlePrewarm(const PrewarmMessage& message) {
  if (!healthy_) {
    return false;
  }
  // If the app already has a resident container, just refresh its timer.
  for (auto it = containers_.begin(); it != containers_.end(); ++it) {
    if (it->app_id == message.app_id) {
      if (!it->busy) {
        ArmKeepAlive(it, message.keepalive);
      }
      return true;
    }
  }
  const auto it = CreateContainer(message.app_id, message.memory_mb);
  if (it == containers_.end()) {
    return false;
  }
  ++resources_.prewarm_loads;
  if (telemetry_ != nullptr) {
    telemetry_->Inc(instruments_->prewarm_loads);
    telemetry_->Instant(SpanName::kPrewarmLoad, lane(), queue_->now());
  }
  ArmKeepAlive(it, message.keepalive);
  return true;
}

}  // namespace faas
