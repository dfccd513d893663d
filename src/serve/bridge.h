// AdmissionBridge: the cluster controller's admission path on a wall clock.
//
// The serving front-end (src/serve/server.h) terminates TCP and hands every
// decoded request to one of these.  The bridge is the second driver of the
// controller's overload core (src/cluster/overload.h) — bounded admission
// queue with FIFO/LIFO/CoDel shedding, per-executor concurrency caps and
// circuit breakers, hedged dispatch with first-completion-wins — run against
// CLOCK_MONOTONIC instead of the simulator's virtual EventQueue.  The queue
// discipline, breaker state machine and hedge trigger are the controller's
// own code, as are the configuration and the ledger, so a discipline swept
// in the simulator and a discipline served over sockets are the same knobs,
// the same rules and the same ledger fields; what changes is only the
// substrate: timers go through a TimerWheel (each callback runs on the time
// the wheel was advanced to), and "executors" are concurrency shards
// standing in for invokers (execution itself is simulated as a timer at
// service_time + cold-start penalty, with a per-function warm-container
// pool under a fixed keep-alive deciding cold vs warm).
//
// One bridge per event loop, single-threaded, no locks: a request is
// admitted, queued, or shed on the loop that read it, and per-loop ledgers
// and stats merge at scrape time.  Everything here is hot path — the
// direct-dispatch case (free slot, warm container, zero service time) is a
// few array reads, one pool pop/push, and one reply callback.

#ifndef SRC_SERVE_BRIDGE_H_
#define SRC_SERVE_BRIDGE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/cluster/overload.h"
#include "src/cluster/recovery.h"
#include "src/common/resource_ledger.h"
#include "src/serve/chaos.h"
#include "src/serve/idempotency.h"
#include "src/serve/timer_wheel.h"
#include "src/serve/wire.h"
#include "src/telemetry/latency_recorder.h"

namespace faas {

struct AdmissionBridgeConfig {
  // The cluster's overload knobs, reused verbatim:
  //   overload.admission                 bounded queue + discipline
  //   overload.breaker                   per-executor circuit breakers
  //   overload.hedge                     hedged dispatch for cold requests
  //   overload.invoker_concurrency_cap   slots per executor (0 = unlimited)
  // Duration fields are interpreted as wall-clock milliseconds.
  OverloadControlConfig overload;
  // Concurrency shards standing in for invokers (>= 1; hedging needs >= 2).
  int num_executors = 2;
  // Simulated execution time per request and extra cold-start penalty.
  // 0/0 completes admitted requests inline with no timer (the pure-ingest
  // configuration for throughput benches).
  uint32_t service_time_us = 0;
  uint32_t cold_start_us = 0;
  // Fixed keep-alive for idle containers in the warm pool; 0 = every
  // request is a cold start.
  int64_t keep_alive_ms = 10'000;
  // Memory footprint charged to the resource ledger per warm container and
  // per executing request (the serve path has no per-function sizes).
  double container_memory_mb = 128.0;
  // Pre-sized per-function state (grows on demand past the hint).
  uint32_t num_functions_hint = 1024;

  // --- Chaos / self-healing (all off by default; when every knob below is
  // off the bridge arms no extra timers, draws no randomness, and serves
  // byte-identically to a build without them) ---
  // Executor crash/stall schedule plus service-time spikes, offsets from
  // StartClock().  Connection-reset windows are enforced by the server.
  serve::ServeChaosPlan chaos;
  // Seed for server-side probabilistic injections (connection resets).
  uint64_t chaos_seed = 42;
  // Stalled-shard watchdog and tiered graceful degradation.
  serve::ServeWatchdogConfig watchdog;
  serve::ServeDegradeConfig degrade;
  // Idempotent request-id dedupe, shared across every loop's bridge
  // (non-owning; nullptr = disabled).  With it on, a retried id whose
  // original succeeded is answered from cache instead of re-executed.
  serve::IdempotencyIndex* dedupe = nullptr;
};

// Per-bridge serving tallies beyond what OverloadLedger covers.
struct BridgeStats {
  int64_t requests = 0;
  int64_t served_warm = 0;
  int64_t served_cold = 0;
  int64_t rejected = 0;   // No queue configured and no executor admitted.
  int64_t evictions = 0;  // Idle containers expired by the keep-alive.
  int64_t hedge_zombies = 0;  // Cancelled-side executions run to completion.

  int64_t served() const { return served_warm + served_cold; }

  BridgeStats& operator+=(const BridgeStats& other) {
    requests += other.requests;
    served_warm += other.served_warm;
    served_cold += other.served_cold;
    rejected += other.rejected;
    evictions += other.evictions;
    hedge_zombies += other.hedge_zombies;
    return *this;
  }
};

class AdmissionBridge {
 public:
  // Emits one reply toward connection `conn_token` (a server-side handle
  // the bridge never interprets).  Called inline from OnRequest for direct
  // dispatches and sheds, and from timer context for completions.
  using ReplyFn = void (*)(void* ctx, uint64_t conn_token,
                           const ReplyFrame& reply);

  // `wheel` and `latency` are non-owning and must outlive the bridge;
  // `latency` (optional) records server-side latency of served requests in
  // nanoseconds.
  AdmissionBridge(const AdmissionBridgeConfig& config, TimerWheel* wheel,
                  ReplyFn reply_fn, void* reply_ctx,
                  LatencyRecorder* latency = nullptr);
  // The breaker bank books into ledger_ and timers carry `this`.
  AdmissionBridge(const AdmissionBridge&) = delete;
  AdmissionBridge& operator=(const AdmissionBridge&) = delete;

  // Admission entry point for one decoded request at wall time `now_ns`.
  void OnRequest(uint64_t conn_token, const RequestFrame& frame,
                 int64_t now_ns);

  // Shutdown: sheds everything still queued (ShedShutdown), fails in-flight
  // executions stranded on crashed/stalled shards (kFailed), and stamps open
  // breaker intervals.  In-flight simulated executions on healthy shards
  // still complete; callers keep advancing the wheel until inflight()
  // reaches zero.
  void Drain(int64_t now_ns);

  // Anchors chaos-plan offsets and arms the chaos/watchdog timers.  Called
  // once by the owning event loop at startup; with an empty plan and the
  // watchdog off this only records the epoch (no timers, no allocation).
  void StartClock(int64_t now_ns);

  int64_t inflight() const { return inflight_; }
  size_t queue_depth() const { return admission_.size(); }
  const OverloadLedger& ledger() const { return ledger_; }
  const BridgeStats& stats() const { return stats_; }
  const RecoveryLedger& recovery() const { return recovery_; }
  int degrade_tier() const { return degrade_tier_; }
  // Cost-accounting spine (src/common/resource_ledger.h).  Warm-pool idle
  // time settles lazily — charged when a container expires off the pool, is
  // popped for a warm hit, or at Drain — so a mid-run snapshot under-reports
  // idle residency still parked in the pools; completions after Drain charge
  // no further idle time.
  const ResourceLedger& resources() const { return resources_; }

 private:
  enum class ExecHealth : uint8_t { kUp, kCrashed, kStalled };

  struct Executor {
    int32_t inflight = 0;
    // Chaos / self-healing shard state.  health_epoch validates the chaos
    // heal/unstall timers: a watchdog restart bumps it, so a stale heal
    // cannot resurrect a shard the watchdog already rebuilt.
    ExecHealth health = ExecHealth::kUp;
    uint32_t health_epoch = 0;
    int64_t down_since_ns = 0;
    // Completion keys frozen by an active stall, released on unstall.
    std::vector<uint64_t> frozen;
  };

  // Warm-container pool for one (executor, function) pair: idle-container
  // keep-alive expiry times in completion order (ascending), so expired
  // containers trim off the front and the most recently used pops off the
  // back.
  struct FunctionPool {
    std::deque<int64_t> idle_expiry_ns;
  };

  // One simulated in-flight execution.
  struct Pending {
    uint64_t conn_token = 0;
    uint64_t request_id = 0;
    uint32_t function_id = 0;
    int64_t arrival_ns = 0;
    int32_t executor = -1;
    uint32_t generation = 0;
    bool cold = false;
    bool dead = false;      // Lost the hedge race; completes as a zombie.
    bool is_hedge = false;
    uint64_t partner = 0;   // Packed key of the live hedge partner (0=none).
    uint32_t deadline_us = 0;
    // Scheduled completion instant; the watchdog flags executions overdue
    // past this by more than the stall threshold.
    int64_t complete_ns = 0;
  };

  struct QueuedRequest {
    uint64_t conn_token = 0;
    uint64_t request_id = 0;
    uint32_t function_id = 0;
    uint32_t deadline_us = 0;
    int64_t arrival_ns = 0;
  };

  // --- dispatch ---
  // Picks an executor for `function_id` (home-first round-robin, skipping
  // caps/breakers; `exclude` >= 0 for hedges).  Returns -1 if none admits.
  int PickExecutor(uint32_t function_id, int exclude);
  // Starts execution on `executor`; classifies warm/cold, schedules the
  // completion timer (or completes inline), arms the hedge timer.
  void Execute(int executor, uint64_t conn_token, const RequestFrame& frame,
               int64_t arrival_ns, int64_t now_ns, bool is_hedge,
               uint64_t primary_key);
  void Complete(uint64_t key, int64_t now_ns);
  void LaunchHedge(uint64_t key, int64_t now_ns);
  // Feeds one completion on `executor` to its breaker (every completion
  // counts, hedge zombies included) and arms the half-open timer on a trip.
  void RecordBreakerOutcome(int executor, int64_t latency_ns, int64_t now_ns);

  // --- admission queue ---
  void Enqueue(uint64_t conn_token, const RequestFrame& frame,
               int64_t now_ns);
  void DrainQueue(int64_t now_ns);
  // DrainQueue unless the queue is empty or a drain is already walking it.
  void MaybeDrain(int64_t now_ns);
  void ArmQueueSweep(int64_t now_ns);

  // --- chaos / self-healing ---
  // Kills shard `executor`: fails live executions (kFailed; hedged requests
  // with a live partner elsewhere continue silently), quarantines its warm
  // pools, and resets its breaker.  The shard rejoins via RestartExecutor.
  void CrashExecutor(int executor, int64_t now_ns);
  void StallExecutor(int executor, int64_t now_ns);
  void UnstallExecutor(int executor, int64_t now_ns);
  // Brings a shard back up (chaos heal or watchdog rescue) and books one
  // recovery (MTTR = now - down_since_ns).  `by_watchdog` restarts also
  // fail/quarantine first, since the shard is being rebuilt mid-outage.
  void RestartExecutor(int executor, int64_t now_ns, bool by_watchdog);
  void FailInflightOn(int executor, int64_t now_ns);
  void QuarantinePools(int executor, int64_t now_ns);
  void WatchdogScan(int64_t now_ns);
  // Re-evaluates the degradation tier from the queue/breaker/health
  // pressure signal and books tier dwell on changes.
  void UpdateDegrade(int64_t now_ns);
  double DegradePressure() const;

  // --- plumbing ---
  FunctionPool& PoolFor(int executor, uint32_t function_id);
  uint64_t AllocPending(const Pending& pending);
  Pending* LookupPending(uint64_t key);
  void FreePending(uint64_t key);
  void EmitReply(uint64_t conn_token, uint64_t request_id, ReplyStatus status,
                 LatencyClass latency_class, int64_t arrival_ns,
                 int64_t now_ns);

  static void CompletionTimer(void* ctx, uint64_t data, int64_t now_ns);
  static void HedgeTimer(void* ctx, uint64_t data, int64_t now_ns);
  static void BreakerTimer(void* ctx, uint64_t data, int64_t now_ns);
  static void QueueSweepTimer(void* ctx, uint64_t data, int64_t now_ns);
  static void ChaosCrashTimer(void* ctx, uint64_t data, int64_t now_ns);
  static void ChaosHealTimer(void* ctx, uint64_t data, int64_t now_ns);
  static void ChaosStallTimer(void* ctx, uint64_t data, int64_t now_ns);
  static void ChaosUnstallTimer(void* ctx, uint64_t data, int64_t now_ns);
  static void WatchdogTimer(void* ctx, uint64_t data, int64_t now_ns);

  AdmissionBridgeConfig config_;
  TimerWheel* wheel_;
  ReplyFn reply_fn_;
  void* reply_ctx_;
  LatencyRecorder* latency_;

  std::vector<Executor> executors_;
  // pools_[executor * stride + function]; grown when a function id exceeds
  // the current stride.
  std::vector<FunctionPool> pools_;
  uint32_t pool_stride_ = 0;
  AdmissionQueue<QueuedRequest> admission_;
  BreakerBank<NsClock> breakers_;
  HedgeTrigger<NsClock> hedge_;
  bool queue_sweep_armed_ = false;
  // Re-entrancy guard: Execute()'s inline-completion path may free a slot
  // while DrainQueue is already walking the queue.
  bool in_drain_ = false;

  std::vector<Pending> pending_;
  std::vector<uint32_t> free_pending_;
  int64_t inflight_ = 0;
  int64_t last_now_ns_ = 0;

  int64_t service_ns_ = 0;
  int64_t cold_ns_ = 0;
  int64_t keep_alive_ns_ = 0;
  double memory_mb_ = 0.0;
  bool draining_ = false;

  // --- chaos / self-healing state (all zero when the knobs are off) ---
  int64_t chaos_start_ns_ = 0;  // StartClock() epoch for plan offsets.
  int64_t stall_threshold_ns_ = 0;
  int64_t watchdog_interval_ns_ = 0;
  int unhealthy_ = 0;  // Executors with health != kUp.
  int degrade_tier_ = 0;
  int64_t tier_since_ns_ = 0;
  int64_t degrade_min_dwell_ns_ = 0;
  bool degrade_engaged_ = false;  // Any escalation yet (gates tier-0 dwell).

  OverloadLedger ledger_;
  BridgeStats stats_;
  ResourceLedger resources_;
  RecoveryLedger recovery_;
};

}  // namespace faas

#endif  // SRC_SERVE_BRIDGE_H_
