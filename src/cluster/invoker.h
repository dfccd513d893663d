// Invoker: a worker VM that runs function containers.
//
// Each invoker owns a pool of per-application containers with a memory
// budget.  It executes activations (creating containers on the cold path),
// enforces the keep-alive parameter received with each activation, services
// pre-warm requests, and evicts idle containers under memory pressure.
// Container-seconds of resident memory are integrated over time for the
// Figure 20 memory-consumption comparison.
//
// Fault injection distinguishes two ways a worker leaves rotation:
//   - drain (SetHealthy(false)): the polite path — idle containers drop
//     immediately, busy ones finish their executions and are then destroyed;
//   - crash (Crash()): the VM dies — every container including busy ones is
//     gone instantly, and each in-flight activation is reported to the
//     controller through the failure callback so it can be retried.

#ifndef SRC_CLUSTER_INVOKER_H_
#define SRC_CLUSTER_INVOKER_H_

#include <cstdint>
#include <functional>
#include <list>

#include "src/cluster/event_queue.h"
#include "src/cluster/latency_model.h"
#include "src/cluster/messages.h"
#include "src/common/resource_ledger.h"
#include "src/common/rng.h"
#include "src/faults/fault_plan.h"
#include "src/telemetry/telemetry.h"

namespace faas {

class Invoker {
 public:
  using CompletionCallback = std::function<void(const CompletionMessage&)>;
  using FailureCallback = std::function<void(const FailureMessage&)>;

  // `faults` (optional) supplies latency-spike multipliers and transient
  // failure windows; it must outlive the invoker.  `telemetry` (optional,
  // non-owning; `instruments` must then name the replay's metrics) receives
  // the cold-startup histogram and container-lifecycle spans on thread lane
  // id + 1; the container counts live in resources() and transient_faults(),
  // where the cluster's sampler reads them.
  Invoker(int id, double memory_capacity_mb, EventQueue* queue,
          const LatencyModel& latency, Rng rng,
          const FaultPlan* faults = nullptr,
          TelemetryWriter* telemetry = nullptr,
          const ClusterInstruments* instruments = nullptr);

  int id() const { return id_; }

  void set_completion_callback(CompletionCallback callback) {
    on_completion_ = std::move(callback);
  }
  void set_failure_callback(FailureCallback callback) {
    on_failure_ = std::move(callback);
  }
  // Overload control plane: invoked whenever capacity frees up (a container
  // was destroyed, an execution finished, or the invoker restarted) so the
  // controller can drain its admission queue.  Left unset (the default)
  // when the admission queue is disabled — no callback, no extra events.
  void set_release_callback(std::function<void()> callback) {
    on_release_ = std::move(callback);
  }
  // Overload control plane: cap on concurrently-executing activations
  // (0 = unlimited).  A capped-out invoker rejects the activation exactly
  // like memory pressure, so the controller's queue absorbs the excess.
  void set_concurrency_cap(int cap) { concurrency_cap_ = cap; }

  // Handles one activation.  Returns false when the invoker cannot host the
  // app even after evicting every idle container (the controller then tries
  // another invoker).
  bool HandleActivation(const ActivationMessage& message);

  // Pre-warm request: load a container for the app (no-op if one is already
  // resident) and arm its keep-alive.
  bool HandlePrewarm(const PrewarmMessage& message);

  // Fault injection: an unhealthy invoker rejects new activations and
  // pre-warms, drops its idle containers immediately, and destroys busy ones
  // as their executions finish (drain semantics — a VM being pulled from
  // rotation).  Setting healthy again restores normal operation with an
  // empty (cold) container pool.
  void SetHealthy(bool healthy);
  bool healthy() const { return healthy_; }

  // Crash fault: the VM dies right now.  All containers (busy included) are
  // destroyed, pending exec-end and unload events are cancelled, and one
  // FailureMessage per in-flight activation is delivered synchronously to
  // the failure callback.  Returns a crash epoch to pair with Restart so an
  // overlapping older restart cannot revive a newer crash.
  int64_t Crash();
  // Brings the invoker back (cold) if `epoch` matches the latest crash;
  // returns whether it actually restarted.
  bool Restart(int64_t epoch);

  // --- Introspection / metrics ---
  double memory_in_use_mb() const { return memory_in_use_mb_; }
  double memory_capacity_mb() const { return memory_capacity_mb_; }
  int resident_containers() const {
    return static_cast<int>(containers_.size());
  }
  int64_t cold_starts() const { return resources_.cold_loads; }
  int64_t warm_starts() const { return resources_.warm_hits; }
  int64_t evictions() const { return resources_.evictions; }
  int64_t prewarm_loads() const { return resources_.prewarm_loads; }
  // Activations refused because the concurrency cap was reached.
  int64_t cap_rejections() const { return cap_rejections_; }
  // Accepted activations failed by a transient sandbox fault.
  int64_t transient_faults() const { return transient_faults_; }
  // Integral of resident container memory over time, MB*seconds.  Call
  // FinalizeAt once at the end of the run to close the integral.
  double memory_mb_seconds() const { return memory_mb_seconds_; }
  void FinalizeAt(TimePoint end);
  // Resource ledger for this invoker: the residency integral split into
  // executing vs. warm-idle MB·ms, billed CPU ms, and container churn.
  // The residency split freezes at FinalizeAt's horizon (matching
  // memory_mb_seconds_); CPU keeps accruing while the queue drains.
  const ResourceLedger& resources() const { return resources_; }
  // Ledger snapshot with the residency split advanced to `now` (read-only;
  // lets the telemetry sampler observe the integral mid-replay).
  ResourceLedger ResourcesAt(TimePoint now) const;

 private:
  struct Container {
    AppId app_id;
    double memory_mb = 0.0;
    bool busy = false;
    // Activation currently executing in this container (0 when idle), used
    // to report in-flight losses on a crash.
    int64_t activation_id = 0;
    TimePoint keepalive_deadline;
    EventQueue::Handle unload_timer;
    EventQueue::Handle exec_end_event;
  };
  using ContainerList = std::list<Container>;

  // List iterators stay valid until their container is erased, so event
  // closures hold them directly.
  // Finds an idle resident container for the app, or returns end().
  ContainerList::iterator FindIdleContainer(AppId app_id);
  // Creates a container, evicting idle ones if needed; end() on failure.
  ContainerList::iterator CreateContainer(AppId app_id, double memory_mb);
  void DestroyContainer(ContainerList::iterator it);
  bool EvictIdleContainers(double needed_mb);
  void ArmKeepAlive(ContainerList::iterator it, Duration keepalive);
  void AccrueMemoryTime();
  // Advances the ledger's busy/idle residency split to now.  Must run
  // before any change to memory_in_use_mb_ or the busy footprint (i.e.
  // alongside every AccrueMemoryTime call and at busy-flag transitions).
  void AccrueSplitTime();
  // Fires the release callback if one is registered (admission draining).
  void NotifyRelease() {
    if (on_release_) {
      on_release_();
    }
  }

  // Trace thread lane of this invoker's spans (lane 0 is the controller).
  int32_t lane() const { return id_ + 1; }

  int id_;
  bool healthy_ = true;
  int64_t crash_epoch_ = 0;
  double memory_capacity_mb_;
  EventQueue* queue_;
  LatencyModel latency_;
  Rng rng_;
  const FaultPlan* faults_;
  TelemetryWriter* telemetry_;
  const ClusterInstruments* instruments_;
  CompletionCallback on_completion_;
  FailureCallback on_failure_;
  std::function<void()> on_release_;
  int concurrency_cap_ = 0;
  int busy_containers_ = 0;
  int64_t cap_rejections_ = 0;
  int64_t transient_faults_ = 0;

  ContainerList containers_;

  double memory_in_use_mb_ = 0.0;
  double memory_mb_seconds_ = 0.0;
  TimePoint last_memory_change_;

  // Cost-accounting spine (src/common/resource_ledger.h).  busy_memory_mb_
  // tracks the footprint of currently-executing containers so the split
  // integral needs no container scan; frozen after FinalizeAt so drain-time
  // teardowns do not stretch the residency window past the horizon.
  ResourceLedger resources_;
  double busy_memory_mb_ = 0.0;
  TimePoint last_split_change_;
  bool residency_frozen_ = false;
};

}  // namespace faas

#endif  // SRC_CLUSTER_INVOKER_H_
