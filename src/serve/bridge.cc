#include "src/serve/bridge.h"

#include <algorithm>

namespace faas {
namespace {

// Queue sweep cadence while requests are parked: bounds how stale a CoDel
// age shed or a per-request deadline shed can be when no completion drains
// the queue (1 ms against sojourn bounds that are tens of ms and up).
constexpr int64_t kQueueSweepIntervalNs = 1'000'000;

// Packs a pending-table key: slot index in the low 32 bits, generation in
// the high 32 (generation 0 never issued, so key 0 means "none").
uint64_t PackKey(uint32_t index, uint32_t generation) {
  return (static_cast<uint64_t>(generation) << 32) | index;
}

}  // namespace

AdmissionBridge::AdmissionBridge(const AdmissionBridgeConfig& config,
                                 TimerWheel* wheel, ReplyFn reply_fn,
                                 void* reply_ctx, LatencyRecorder* latency)
    : config_(config),
      wheel_(wheel),
      reply_fn_(reply_fn),
      reply_ctx_(reply_ctx),
      latency_(latency),
      executors_(std::max(config.num_executors, 1)),
      pool_stride_(std::max<uint32_t>(config.num_functions_hint, 1)),
      // Validated before the first core is built from it.
      admission_(config_.overload.CheckedValid().admission),
      breakers_(config_.overload.breaker, executors_.size(), &ledger_),
      hedge_(config_.overload.hedge),
      service_ns_(static_cast<int64_t>(config.service_time_us) * 1'000),
      cold_ns_(static_cast<int64_t>(config.cold_start_us) * 1'000),
      keep_alive_ns_(config.keep_alive_ms * 1'000'000),
      memory_mb_(config.container_memory_mb),
      stall_threshold_ns_(config.watchdog.stall_threshold.millis() *
                          1'000'000),
      watchdog_interval_ns_(config.watchdog.interval.millis() * 1'000'000),
      degrade_min_dwell_ns_(config.degrade.min_dwell.millis() * 1'000'000) {
  pools_.resize(executors_.size() * pool_stride_);
}

void AdmissionBridge::StartClock(int64_t now_ns) {
  chaos_start_ns_ = now_ns;
  tier_since_ns_ = now_ns;
  for (size_t i = 0; i < config_.chaos.crashes.size(); ++i) {
    wheel_->Schedule(now_ns + config_.chaos.crashes[i].at.millis() * 1'000'000,
                     &AdmissionBridge::ChaosCrashTimer, this, i);
  }
  for (size_t i = 0; i < config_.chaos.stalls.size(); ++i) {
    wheel_->Schedule(now_ns + config_.chaos.stalls[i].at.millis() * 1'000'000,
                     &AdmissionBridge::ChaosStallTimer, this, i);
  }
  if (config_.watchdog.enabled) {
    wheel_->Schedule(now_ns + watchdog_interval_ns_,
                     &AdmissionBridge::WatchdogTimer, this, 0);
  }
}

AdmissionBridge::FunctionPool& AdmissionBridge::PoolFor(int executor,
                                                        uint32_t function_id) {
  if (function_id >= pool_stride_) {
    // Rare resize: re-stride the pool matrix for the larger function space.
    uint32_t stride = pool_stride_;
    while (function_id >= stride) {
      stride *= 2;
    }
    std::vector<FunctionPool> grown(executors_.size() * stride);
    for (size_t e = 0; e < executors_.size(); ++e) {
      for (uint32_t f = 0; f < pool_stride_; ++f) {
        grown[e * stride + f] = std::move(pools_[e * pool_stride_ + f]);
      }
    }
    pools_ = std::move(grown);
    pool_stride_ = stride;
  }
  return pools_[static_cast<size_t>(executor) * pool_stride_ + function_id];
}

uint64_t AdmissionBridge::AllocPending(const Pending& pending) {
  uint32_t index;
  if (!free_pending_.empty()) {
    index = free_pending_.back();
    free_pending_.pop_back();
  } else {
    index = static_cast<uint32_t>(pending_.size());
    pending_.emplace_back();
  }
  const uint32_t generation = pending_[index].generation + 1;
  pending_[index] = pending;
  pending_[index].generation = generation == 0 ? 1 : generation;
  return PackKey(index, pending_[index].generation);
}

AdmissionBridge::Pending* AdmissionBridge::LookupPending(uint64_t key) {
  const uint32_t index = static_cast<uint32_t>(key);
  const uint32_t generation = static_cast<uint32_t>(key >> 32);
  if (index >= pending_.size() || pending_[index].generation != generation ||
      pending_[index].executor < 0) {
    return nullptr;
  }
  return &pending_[index];
}

void AdmissionBridge::FreePending(uint64_t key) {
  const uint32_t index = static_cast<uint32_t>(key);
  pending_[index].executor = -1;  // Marks the slot dead for LookupPending.
  free_pending_.push_back(index);
}

void AdmissionBridge::EmitReply(uint64_t conn_token, uint64_t request_id,
                                ReplyStatus status, LatencyClass latency_class,
                                int64_t arrival_ns, int64_t now_ns) {
  ReplyFrame reply;
  reply.request_id = request_id;
  reply.status = status;
  reply.latency_class = latency_class;
  const int64_t us = (now_ns - arrival_ns) / 1'000;
  reply.latency_us = us > 0 ? static_cast<uint32_t>(us) : 0;
  if (config_.dedupe != nullptr) {
    if (status == ReplyStatus::kOk) {
      // Cache the success so a retry of this id re-emits instead of
      // re-executing.
      config_.dedupe->Done(request_id, reply, now_ns);
    } else {
      // Retriable outcome: release the claim so the retry re-attempts.
      config_.dedupe->Forget(request_id);
    }
  }
  reply_fn_(reply_ctx_, conn_token, reply);
}

void AdmissionBridge::OnRequest(uint64_t conn_token, const RequestFrame& frame,
                                int64_t now_ns) {
  ++stats_.requests;
  last_now_ns_ = now_ns;
  if (config_.dedupe != nullptr) {
    ReplyFrame cached;
    switch (config_.dedupe->Begin(frame.request_id, now_ns, &cached)) {
      case serve::IdempotencyIndex::Claim::kDone:
        // The original already succeeded: re-emit its reply, never
        // re-execute.
        ++recovery_.retries_deduped;
        reply_fn_(reply_ctx_, conn_token, cached);
        return;
      case serve::IdempotencyIndex::Claim::kInflight:
        // Original still running (likely replying toward a dead conn).  No
        // reply; the client's next retry lands after Done() caches it.
        ++recovery_.dupes_inflight;
        return;
      case serve::IdempotencyIndex::Claim::kFresh:
        break;
    }
    ++recovery_.executions;
  }
  if (config_.degrade.enabled) {
    UpdateDegrade(now_ns);
    if (degrade_tier_ >= 2 && !frame.retry) {
      bool shed = degrade_tier_ >= 3;
      if (!shed) {
        // Tier 2 sheds fresh traffic that would cold-start.  Cheap probe:
        // the home shard's pool; a live entry there means a warm path
        // plausibly exists.
        const int home = static_cast<int>(
            frame.function_id % static_cast<uint32_t>(executors_.size()));
        FunctionPool& pool = PoolFor(home, frame.function_id);
        shed = pool.idle_expiry_ns.empty() ||
               pool.idle_expiry_ns.back() <= now_ns;
      }
      if (shed) {
        ++recovery_.shed_degraded;
        EmitReply(conn_token, frame.request_id, ReplyStatus::kShedDegraded,
                  LatencyClass::kUnknown, now_ns, now_ns);
        return;
      }
    }
  }
  const int executor = PickExecutor(frame.function_id, -1);
  if (executor >= 0) {
    Execute(executor, conn_token, frame, now_ns, now_ns, false, 0);
    return;
  }
  if (config_.overload.admission.enabled()) {
    Enqueue(conn_token, frame, now_ns);
    return;
  }
  ++stats_.rejected;
  EmitReply(conn_token, frame.request_id, ReplyStatus::kRejected,
            LatencyClass::kUnknown, now_ns, now_ns);
}

int AdmissionBridge::PickExecutor(uint32_t function_id, int exclude) {
  const int n = static_cast<int>(executors_.size());
  const int cap = config_.overload.invoker_concurrency_cap;
  const bool breakers = config_.overload.breaker.enabled;
  const int home = static_cast<int>(function_id % static_cast<uint32_t>(n));
  for (int k = 0; k < n; ++k) {
    const int ex = home + k < n ? home + k : home + k - n;
    if (ex == exclude) {
      continue;
    }
    Executor& e = executors_[ex];
    if (e.health != ExecHealth::kUp) {
      // Crashed shards have no slots; stalled shards would strand the
      // execution until the watchdog notices.
      ++recovery_.unhealthy_skips;
      continue;
    }
    if (breakers && !breakers_.Admits(static_cast<size_t>(ex))) {
      ++ledger_.breaker_rejections;
      continue;
    }
    if (cap > 0 && e.inflight >= cap) {
      ++ledger_.cap_rejections;
      continue;
    }
    return ex;
  }
  return -1;
}

void AdmissionBridge::Execute(int executor, uint64_t conn_token,
                              const RequestFrame& frame, int64_t arrival_ns,
                              int64_t now_ns, bool is_hedge,
                              uint64_t primary_key) {
  Executor& e = executors_[executor];
  ++e.inflight;
  ++inflight_;
  breakers_.NoteDispatch(static_cast<size_t>(executor));

  // Warm-pool lookup.  Idle expiries are pushed in completion order, so the
  // deque is ascending: trim expired containers off the cold end, then any
  // survivor is warm.
  FunctionPool& pool = PoolFor(executor, frame.function_id);
  while (!pool.idle_expiry_ns.empty() &&
         pool.idle_expiry_ns.front() <= now_ns) {
    pool.idle_expiry_ns.pop_front();
    ++stats_.evictions;
    // An expired entry sat idle for its whole keep-alive window.
    resources_.idle_mb_ms +=
        memory_mb_ * static_cast<double>(keep_alive_ns_) / 1e6;
    ++resources_.expirations;
  }
  bool cold = true;
  if (!pool.idle_expiry_ns.empty()) {
    const int64_t expiry_ns = pool.idle_expiry_ns.back();
    pool.idle_expiry_ns.pop_back();
    cold = false;
    // Lazy settle: the idle stretch began when the expiry was armed.
    resources_.idle_mb_ms +=
        memory_mb_ *
        static_cast<double>(now_ns - (expiry_ns - keep_alive_ns_)) / 1e6;
    ++resources_.warm_hits;
  } else {
    ++resources_.cold_loads;
  }

  int64_t total_ns = service_ns_ + (cold ? cold_ns_ : 0);
  if (!config_.chaos.spikes.empty()) {
    const double multiplier =
        config_.chaos.LatencyMultiplierAtNs(now_ns - chaos_start_ns_);
    if (multiplier != 1.0) {
      total_ns =
          static_cast<int64_t>(static_cast<double>(total_ns) * multiplier);
    }
  }
  ++resources_.invocations;
  const double exec_ms = static_cast<double>(total_ns) / 1e6;
  resources_.cpu_ms += exec_ms;
  resources_.busy_mb_ms += memory_mb_ * exec_ms;
  if (total_ns == 0) {
    // Inline completion: the request never outlives this call.
    --e.inflight;
    --inflight_;
    if (keep_alive_ns_ > 0) {
      pool.idle_expiry_ns.push_back(now_ns + keep_alive_ns_);
    }
    if (cold) {
      ++stats_.served_cold;
    } else {
      ++stats_.served_warm;
    }
    RecordBreakerOutcome(executor, now_ns - arrival_ns, now_ns);
    hedge_.Observe(now_ns - arrival_ns);
    if (latency_ != nullptr) {
      latency_->Record(now_ns - arrival_ns);
    }
    EmitReply(conn_token, frame.request_id, ReplyStatus::kOk,
              cold ? LatencyClass::kCold : LatencyClass::kWarm, arrival_ns,
              now_ns);
    MaybeDrain(now_ns);
    return;
  }

  Pending pending;
  pending.conn_token = conn_token;
  pending.request_id = frame.request_id;
  pending.function_id = frame.function_id;
  pending.arrival_ns = arrival_ns;
  pending.executor = executor;
  pending.cold = cold;
  pending.is_hedge = is_hedge;
  pending.deadline_us = frame.deadline_us;
  pending.complete_ns = now_ns + total_ns;
  const uint64_t key = AllocPending(pending);
  if (is_hedge && primary_key != 0) {
    pending_[static_cast<uint32_t>(key)].partner = primary_key;
    if (Pending* primary = LookupPending(primary_key)) {
      primary->partner = key;
    }
  }
  wheel_->Schedule(now_ns + total_ns, &AdmissionBridge::CompletionTimer, this,
                   key);
  if (!is_hedge && cold && hedge_.enabled() && executors_.size() > 1) {
    if (config_.degrade.enabled && degrade_tier_ >= 1) {
      // Tier 1: hedging is the first load we shed.
      ++recovery_.hedges_suppressed;
    } else {
      wheel_->Schedule(now_ns + hedge_.Delay(), &AdmissionBridge::HedgeTimer,
                       this, key);
    }
  }
}

void AdmissionBridge::CompletionTimer(void* ctx, uint64_t data,
                                      int64_t now_ns) {
  static_cast<AdmissionBridge*>(ctx)->Complete(data, now_ns);
}

void AdmissionBridge::Complete(uint64_t key, int64_t now_ns) {
  Pending* p = LookupPending(key);
  if (p == nullptr) {
    return;
  }
  last_now_ns_ = now_ns;
  Executor& e = executors_[p->executor];
  if (e.health == ExecHealth::kStalled && !draining_) {
    // The shard is wedged: the execution hangs (still holding its slot)
    // until an unstall releases it or a watchdog restart fails it.
    e.frozen.push_back(key);
    return;
  }
  --e.inflight;
  --inflight_;
  if (keep_alive_ns_ > 0) {
    PoolFor(p->executor, p->function_id)
        .idle_expiry_ns.push_back(now_ns + keep_alive_ns_);
  }

  if (p->dead) {
    // Lost the hedge race: the execution ran to completion as a zombie and
    // only now returns its slot and container (controller semantics).
    ++stats_.hedge_zombies;
    RecordBreakerOutcome(p->executor, now_ns - p->arrival_ns, now_ns);
    FreePending(key);
    MaybeDrain(now_ns);
    return;
  }

  if (p->partner != 0) {
    if (Pending* partner = LookupPending(p->partner)) {
      partner->dead = true;
      partner->partner = 0;
    }
    if (p->is_hedge) {
      ++ledger_.hedge_wins;
    } else {
      ++ledger_.hedge_primary_wins;
    }
  }

  if (p->cold) {
    ++stats_.served_cold;
  } else {
    ++stats_.served_warm;
  }
  RecordBreakerOutcome(p->executor, now_ns - p->arrival_ns, now_ns);
  hedge_.Observe(now_ns - p->arrival_ns);
  if (latency_ != nullptr) {
    latency_->Record(now_ns - p->arrival_ns);
  }
  EmitReply(p->conn_token, p->request_id, ReplyStatus::kOk,
            p->cold ? LatencyClass::kCold : LatencyClass::kWarm,
            p->arrival_ns, now_ns);
  FreePending(key);
  MaybeDrain(now_ns);
}

void AdmissionBridge::RecordBreakerOutcome(int executor, int64_t latency_ns,
                                           int64_t now_ns) {
  if (!breakers_.enabled()) {
    return;
  }
  const BreakerTransition transition =
      breakers_.RecordCompletion(executor, latency_ns, now_ns);
  if (transition.kind == BreakerTransition::kOpened) {
    wheel_->Schedule(now_ns + breakers_.open_duration(),
                     &AdmissionBridge::BreakerTimer, this,
                     PackKey(static_cast<uint32_t>(executor),
                             transition.epoch));
  }
}

void AdmissionBridge::BreakerTimer(void* ctx, uint64_t data,
                                   int64_t now_ns) {
  auto* bridge = static_cast<AdmissionBridge*>(ctx);
  // A re-open or reset since this timer was armed mints a new epoch; stale
  // timers must not half-open the newer open interval early.
  if (!bridge->breakers_.HalfOpen(static_cast<uint32_t>(data),
                                  static_cast<uint32_t>(data >> 32))) {
    return;
  }
  bridge->last_now_ns_ = now_ns;
  // Probes arrive via normal dispatch; the queue may hold candidates.
  bridge->MaybeDrain(now_ns);
}

void AdmissionBridge::HedgeTimer(void* ctx, uint64_t data, int64_t now_ns) {
  static_cast<AdmissionBridge*>(ctx)->LaunchHedge(data, now_ns);
}

void AdmissionBridge::LaunchHedge(uint64_t key, int64_t now_ns) {
  Pending* p = LookupPending(key);
  if (p == nullptr || p->dead || p->partner != 0 || draining_) {
    return;
  }
  if (config_.degrade.enabled && degrade_tier_ >= 1) {
    // Escalated after this hedge was armed.
    ++recovery_.hedges_suppressed;
    return;
  }
  // Launched counts every hedge, placed or not (controller semantics), so
  // wins + primary wins + unplaced == launched.
  ++ledger_.hedges_launched;
  const int executor = PickExecutor(p->function_id, p->executor);
  if (executor < 0) {
    ++ledger_.hedges_unplaced;
    return;
  }
  RequestFrame frame;
  frame.request_id = p->request_id;
  frame.function_id = p->function_id;
  frame.deadline_us = p->deadline_us;
  const int64_t arrival_ns = p->arrival_ns;
  const uint64_t conn_token = p->conn_token;
  // Execute() may grow pending_, invalidating `p` — copied what we need.
  Execute(executor, conn_token, frame, arrival_ns, now_ns, true, key);
}

void AdmissionBridge::Enqueue(uint64_t conn_token, const RequestFrame& frame,
                              int64_t now_ns) {
  const QueuedRequest arrival{conn_token, frame.request_id, frame.function_id,
                              frame.deadline_us, now_ns};
  const bool queued = admission_.Admit(
      arrival, ledger_, [this, now_ns](const QueuedRequest& victim) {
        ledger_.BookShed(ShedReason::kQueueFull);
        EmitReply(victim.conn_token, victim.request_id,
                  ReplyStatus::kShedQueueFull, LatencyClass::kUnknown,
                  victim.arrival_ns, now_ns);
      });
  if (queued) {
    ArmQueueSweep(now_ns);
  }
}

void AdmissionBridge::DrainQueue(int64_t now_ns) {
  const AdmissionQueueConfig& adm = config_.overload.admission;
  const bool codel = adm.discipline == AdmissionDiscipline::kCoDel;
  const int64_t max_wait_ns = NsClock::From(adm.max_wait);
  in_drain_ = true;
  while (!admission_.empty()) {
    const QueuedRequest head = admission_.Head();
    const int64_t age_ns = now_ns - head.arrival_ns;
    if ((codel && age_ns > max_wait_ns) ||
        (head.deadline_us > 0 &&
         age_ns > static_cast<int64_t>(head.deadline_us) * 1'000)) {
      admission_.PopHead();
      ledger_.BookShed(ShedReason::kDeadline);
      EmitReply(head.conn_token, head.request_id, ReplyStatus::kShedDeadline,
                LatencyClass::kUnknown, head.arrival_ns, now_ns);
      continue;
    }
    const int executor = PickExecutor(head.function_id, -1);
    if (executor < 0) {
      break;
    }
    admission_.PopHead();
    ledger_.BookDrained(NsClock::Ms(age_ns));
    RequestFrame frame;
    frame.request_id = head.request_id;
    frame.function_id = head.function_id;
    frame.deadline_us = head.deadline_us;
    Execute(executor, head.conn_token, frame, head.arrival_ns, now_ns, false,
            0);
  }
  in_drain_ = false;
}

void AdmissionBridge::MaybeDrain(int64_t now_ns) {
  if (!admission_.empty() && !in_drain_) {
    DrainQueue(now_ns);
  }
}

void AdmissionBridge::ArmQueueSweep(int64_t now_ns) {
  if (queue_sweep_armed_ || admission_.empty() || draining_) {
    return;
  }
  queue_sweep_armed_ = true;
  wheel_->Schedule(now_ns + kQueueSweepIntervalNs,
                   &AdmissionBridge::QueueSweepTimer, this, 0);
}

void AdmissionBridge::QueueSweepTimer(void* ctx, uint64_t /*data*/,
                                      int64_t now_ns) {
  auto* bridge = static_cast<AdmissionBridge*>(ctx);
  bridge->queue_sweep_armed_ = false;
  if (bridge->draining_) {
    return;
  }
  bridge->last_now_ns_ = now_ns;
  bridge->MaybeDrain(now_ns);
  bridge->ArmQueueSweep(now_ns);
}

void AdmissionBridge::ChaosCrashTimer(void* ctx, uint64_t data,
                                      int64_t now_ns) {
  auto* bridge = static_cast<AdmissionBridge*>(ctx);
  if (bridge->draining_) {
    return;
  }
  const serve::ExecCrashEvent& event = bridge->config_.chaos.crashes[data];
  bridge->CrashExecutor(event.executor, now_ns);
  // Heal keyed by the post-crash epoch: a watchdog rebuild in between
  // bumps it and this heal becomes a no-op.
  bridge->wheel_->Schedule(
      now_ns + event.downtime.millis() * 1'000'000,
      &AdmissionBridge::ChaosHealTimer, bridge,
      PackKey(static_cast<uint32_t>(event.executor),
              bridge->executors_[event.executor].health_epoch));
}

void AdmissionBridge::ChaosHealTimer(void* ctx, uint64_t data,
                                     int64_t now_ns) {
  auto* bridge = static_cast<AdmissionBridge*>(ctx);
  if (bridge->draining_) {
    return;
  }
  const auto executor = static_cast<int>(static_cast<uint32_t>(data));
  const auto epoch = static_cast<uint32_t>(data >> 32);
  Executor& e = bridge->executors_[executor];
  if (e.health != ExecHealth::kCrashed || e.health_epoch != epoch) {
    return;
  }
  bridge->RestartExecutor(executor, now_ns, false);
}

void AdmissionBridge::ChaosStallTimer(void* ctx, uint64_t data,
                                      int64_t now_ns) {
  auto* bridge = static_cast<AdmissionBridge*>(ctx);
  if (bridge->draining_) {
    return;
  }
  const serve::ExecStallEvent& event = bridge->config_.chaos.stalls[data];
  bridge->StallExecutor(event.executor, now_ns);
  bridge->wheel_->Schedule(
      now_ns + event.duration.millis() * 1'000'000,
      &AdmissionBridge::ChaosUnstallTimer, bridge,
      PackKey(static_cast<uint32_t>(event.executor),
              bridge->executors_[event.executor].health_epoch));
}

void AdmissionBridge::ChaosUnstallTimer(void* ctx, uint64_t data,
                                        int64_t now_ns) {
  auto* bridge = static_cast<AdmissionBridge*>(ctx);
  if (bridge->draining_) {
    return;
  }
  const auto executor = static_cast<int>(static_cast<uint32_t>(data));
  const auto epoch = static_cast<uint32_t>(data >> 32);
  Executor& e = bridge->executors_[executor];
  if (e.health != ExecHealth::kStalled || e.health_epoch != epoch) {
    return;  // The watchdog already rebuilt the shard.
  }
  bridge->UnstallExecutor(executor, now_ns);
}

void AdmissionBridge::WatchdogTimer(void* ctx, uint64_t /*data*/,
                                    int64_t now_ns) {
  auto* bridge = static_cast<AdmissionBridge*>(ctx);
  if (bridge->draining_) {
    return;
  }
  bridge->WatchdogScan(now_ns);
}

void AdmissionBridge::CrashExecutor(int executor, int64_t now_ns) {
  Executor& e = executors_[executor];
  if (e.health == ExecHealth::kCrashed) {
    return;
  }
  if (e.health == ExecHealth::kUp) {
    ++unhealthy_;
    e.down_since_ns = now_ns;  // A stalled shard keeps its earlier stamp.
  }
  e.health = ExecHealth::kCrashed;
  ++e.health_epoch;
  FailInflightOn(executor, now_ns);
  QuarantinePools(executor, now_ns);
  // The shard rejoins with a fresh breaker.
  breakers_.Reset(static_cast<size_t>(executor), now_ns);
  if (config_.degrade.enabled) {
    UpdateDegrade(now_ns);
  }
}

void AdmissionBridge::StallExecutor(int executor, int64_t now_ns) {
  Executor& e = executors_[executor];
  if (e.health != ExecHealth::kUp) {
    return;
  }
  ++unhealthy_;
  e.health = ExecHealth::kStalled;
  ++e.health_epoch;
  e.down_since_ns = now_ns;
  if (config_.degrade.enabled) {
    UpdateDegrade(now_ns);
  }
}

void AdmissionBridge::UnstallExecutor(int executor, int64_t now_ns) {
  Executor& e = executors_[executor];
  e.health = ExecHealth::kUp;
  ++e.health_epoch;
  --unhealthy_;
  ++recovery_.recoveries;
  const double mttr_ms = static_cast<double>(now_ns - e.down_since_ns) / 1e6;
  recovery_.total_mttr_ms += mttr_ms;
  recovery_.max_mttr_ms = std::max(recovery_.max_mttr_ms, mttr_ms);
  // Frozen executions thaw and complete late.
  std::vector<uint64_t> frozen = std::move(e.frozen);
  e.frozen.clear();
  for (const uint64_t key : frozen) {
    Complete(key, now_ns);
  }
  MaybeDrain(now_ns);
}

void AdmissionBridge::RestartExecutor(int executor, int64_t now_ns,
                                      bool by_watchdog) {
  Executor& e = executors_[executor];
  if (by_watchdog) {
    // Rebuilding mid-outage: stranded executions fail, warm state is
    // suspect and quarantined, the breaker window restarts.
    FailInflightOn(executor, now_ns);
    QuarantinePools(executor, now_ns);
    breakers_.Reset(static_cast<size_t>(executor), now_ns);
    ++recovery_.watchdog_restarts;
  } else {
    ++recovery_.crash_restarts;
  }
  if (e.health != ExecHealth::kUp) {
    --unhealthy_;
  }
  e.health = ExecHealth::kUp;
  ++e.health_epoch;
  ++recovery_.recoveries;
  const double mttr_ms = static_cast<double>(now_ns - e.down_since_ns) / 1e6;
  recovery_.total_mttr_ms += mttr_ms;
  recovery_.max_mttr_ms = std::max(recovery_.max_mttr_ms, mttr_ms);
  if (config_.degrade.enabled) {
    UpdateDegrade(now_ns);
  }
  // Fresh slots: rescue parked work instead of waiting for the sweep.
  if (!by_watchdog || config_.watchdog.rescue_queued) {
    const int64_t drained_before = ledger_.drained;
    MaybeDrain(now_ns);
    recovery_.requests_rescued += ledger_.drained - drained_before;
  }
}

void AdmissionBridge::FailInflightOn(int executor, int64_t now_ns) {
  Executor& e = executors_[executor];
  for (uint32_t index = 0; index < pending_.size(); ++index) {
    Pending& p = pending_[index];
    if (p.executor != executor) {
      continue;  // Free slots carry executor = -1.
    }
    const uint64_t key = PackKey(index, p.generation);
    --e.inflight;
    --inflight_;
    if (p.dead) {
      // Zombie: its request was already answered by the hedge winner.
      FreePending(key);
      continue;
    }
    if (p.partner != 0) {
      if (Pending* partner = LookupPending(p.partner)) {
        // The hedge partner runs on another shard and is now the sole
        // owner; it will deliver the reply.
        partner->partner = 0;
        FreePending(key);
        continue;
      }
    }
    ++recovery_.inflight_failed;
    EmitReply(p.conn_token, p.request_id, ReplyStatus::kFailed,
              LatencyClass::kUnknown, p.arrival_ns, now_ns);
    FreePending(key);
  }
  e.frozen.clear();
}

void AdmissionBridge::QuarantinePools(int executor, int64_t now_ns) {
  for (uint32_t f = 0; f < pool_stride_; ++f) {
    FunctionPool& pool =
        pools_[static_cast<size_t>(executor) * pool_stride_ + f];
    for (const int64_t expiry_ns : pool.idle_expiry_ns) {
      const int64_t idle_ns = std::clamp<int64_t>(
          now_ns - (expiry_ns - keep_alive_ns_), 0, keep_alive_ns_);
      resources_.idle_mb_ms += memory_mb_ * static_cast<double>(idle_ns) / 1e6;
      ++resources_.evictions;
      ++recovery_.warm_quarantined;
    }
    pool.idle_expiry_ns.clear();
  }
}

void AdmissionBridge::WatchdogScan(int64_t now_ns) {
  last_now_ns_ = now_ns;
  // An execution overdue past its scheduled completion by more than the
  // stall threshold means its shard stopped completing work (the wheel
  // fires never-early / at-most-one-tick-late, so a healthy shard cannot
  // trip this).
  std::vector<int64_t> oldest_due(executors_.size(), 0);
  for (const Pending& p : pending_) {
    if (p.executor < 0) {
      continue;
    }
    if (now_ns - p.complete_ns > stall_threshold_ns_) {
      int64_t& due = oldest_due[p.executor];
      due = due == 0 ? p.complete_ns : std::min(due, p.complete_ns);
    }
  }
  for (size_t ex = 0; ex < executors_.size(); ++ex) {
    if (oldest_due[ex] == 0) {
      continue;
    }
    Executor& e = executors_[ex];
    if (e.health == ExecHealth::kCrashed) {
      continue;  // The crash heal timer owns this outage.
    }
    if (e.health == ExecHealth::kUp) {
      // A stall the chaos plan never announced (or real lost work): the
      // outage began when the oldest stuck execution came due.
      ++unhealthy_;
      e.health = ExecHealth::kStalled;
      ++e.health_epoch;
      e.down_since_ns = oldest_due[ex];
    }
    RestartExecutor(static_cast<int>(ex), now_ns, true);
  }
  if (config_.dedupe != nullptr) {
    config_.dedupe->Sweep(now_ns);
  }
  if (config_.degrade.enabled) {
    UpdateDegrade(now_ns);
  }
  wheel_->Schedule(now_ns + watchdog_interval_ns_,
                   &AdmissionBridge::WatchdogTimer, this, 0);
}

double AdmissionBridge::DegradePressure() const {
  double pressure = 0.0;
  const AdmissionQueueConfig& adm = config_.overload.admission;
  if (adm.enabled() && adm.capacity > 0) {
    pressure = static_cast<double>(admission_.size()) /
               static_cast<double>(adm.capacity);
  }
  const int bad = breakers_.open_count() + unhealthy_;
  if (bad > 0) {
    pressure = std::max(pressure, static_cast<double>(bad) /
                                      static_cast<double>(executors_.size()));
  }
  return pressure;
}

void AdmissionBridge::UpdateDegrade(int64_t now_ns) {
  const double pressure = DegradePressure();
  int tier = degrade_tier_;
  const bool dwelt = now_ns - tier_since_ns_ >= degrade_min_dwell_ns_;
  if (pressure >= config_.degrade.enter_pressure) {
    // First escalation is immediate; further tiers require the dwell so a
    // single burst cannot slam straight to retry-only.
    if (tier < kDegradeTiers - 1 && (tier == 0 || dwelt)) {
      ++tier;
    }
  } else if (pressure <= config_.degrade.exit_pressure) {
    if (tier > 0 && dwelt) {
      --tier;
    }
  }
  if (tier == degrade_tier_) {
    return;
  }
  if (degrade_engaged_) {
    recovery_.tier_dwell_ms[degrade_tier_] +=
        static_cast<double>(now_ns - tier_since_ns_) / 1e6;
  }
  if (tier > degrade_tier_) {
    ++recovery_.degrade_escalations;
    degrade_engaged_ = true;
  } else {
    ++recovery_.degrade_recoveries;
  }
  recovery_.degrade_max_tier =
      std::max(recovery_.degrade_max_tier, static_cast<int64_t>(tier));
  degrade_tier_ = tier;
  tier_since_ns_ = now_ns;
}

void AdmissionBridge::Drain(int64_t now_ns) {
  draining_ = true;
  // Executions stranded on crashed/stalled shards cannot complete before
  // the drain deadline; fail them now so every accepted request still gets
  // exactly one reply.
  for (size_t ex = 0; ex < executors_.size(); ++ex) {
    if (executors_[ex].health != ExecHealth::kUp) {
      FailInflightOn(static_cast<int>(ex), now_ns);
    }
  }
  if (config_.degrade.enabled && degrade_engaged_) {
    recovery_.tier_dwell_ms[degrade_tier_] +=
        static_cast<double>(now_ns - tier_since_ns_) / 1e6;
    tier_since_ns_ = now_ns;
  }
  for (const QueuedRequest& req : admission_.TakeAll()) {
    ledger_.BookShed(ShedReason::kShutdown);
    EmitReply(req.conn_token, req.request_id, ReplyStatus::kShedShutdown,
              LatencyClass::kUnknown, req.arrival_ns, now_ns);
  }
  // Settle warm-pool idle time not yet observed by a trim or a warm hit.
  // Entries pushed by completions after this point charge nothing.
  for (FunctionPool& pool : pools_) {
    for (const int64_t expiry_ns : pool.idle_expiry_ns) {
      const int64_t idle_ns = std::clamp<int64_t>(
          now_ns - (expiry_ns - keep_alive_ns_), 0, keep_alive_ns_);
      resources_.idle_mb_ms += memory_mb_ * static_cast<double>(idle_ns) / 1e6;
      if (expiry_ns <= now_ns) {
        ++resources_.expirations;
      }
    }
    pool.idle_expiry_ns.clear();
  }
  // Close the books on breakers still degraded at shutdown.
  breakers_.Finish(now_ns);
}

}  // namespace faas
