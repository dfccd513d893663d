// Span-based activation tracing.
//
// Every span is stamped with *simulation* time (milliseconds since the trace
// origin, never wall clock), so the recorded span set depends only on the
// simulated schedule: running the same replay with --threads=1 and
// --threads=N collects bit-identical traces.
//
// Spans are owned by their writer, like metrics (metrics.h): a writer
// appends to a SpanBuffer of its own and folds it in with Fold() — a sweep
// task when it ends, the cluster replayer at each sampler tick.  The
// simulators record through TelemetryWriter (telemetry.h), which stamps
// each record's label, process and thread lane.
// Collect() runs under the same lock, so it may run beside the writers and
// sees each fold whole; it resolves interned label strings and sorts the
// spans into a canonical order that is independent of fold order.
//
// SpanRecord is deliberately a small POD of integers: the only strings in
// the system are interned labels (e.g. `policy="hybrid"`) and registered
// process/thread names, both created at setup time on one thread.

#ifndef SRC_TELEMETRY_TRACER_H_
#define SRC_TELEMETRY_TRACER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/intern.h"
#include "src/common/time.h"

namespace faas {

// Every span/instant name the instrumentation can emit.  A closed enum keeps
// SpanRecord free of strings; the exporter resolves display names from
// SpanNameString().
enum class SpanName : int16_t {
  // Controller-side activation lifecycle.
  kActivation,      // Full activation: enqueue -> terminal outcome.
  kBackoff,         // Retry backoff window (dur = backoff).
  kRetry,           // Instant: a retry attempt was scheduled.
  kTimeout,         // Instant: an activation timeout fired.
  kAbandon,         // Instant: terminal — timed out past the retry budget.
  kDrop,            // Instant: terminal — no memory on any healthy invoker.
  kRejectOutage,    // Instant: terminal — unplaceable during an outage.
  kLost,            // Instant: terminal — crash/transient, no retry left.
  kPolicyWipe,      // Instant: controller state wipe.
  kCheckpoint,      // Instant: periodic policy checkpoint.
  // Invoker-side container lifecycle.
  kColdLoad,        // Container init + runtime bootstrap (dur = startup).
  kWarmHit,         // Instant: activation reused a warm container.
  kPrewarmLoad,     // Instant: a pre-warm request loaded a container.
  kExecute,         // Function execution (dur = execution).
  kEviction,        // Instant: idle container evicted under pressure.
  kTransientFault,  // Instant: sandbox fault killed an accepted activation.
  // Fault-plan windows (emitted once at setup from the plan itself).
  kInvokerCrash,    // Instant: invoker VM crash.
  kInvokerRestart,  // Instant: invoker VM restart.
  kOutage,          // Drain window of one invoker (dur = outage length).
  kLatencySpike,    // Cold-start latency multiplier window.
  kFlakyWindow,     // Transient-failure probability window.
  // Overload control plane.
  kAdmissionQueue,  // Queue residence of one activation (arg0: 1 = drained,
                    // 0 = shed).
  kShed,            // Instant: terminal — shed by the admission queue
                    // (arg0: 0 = queue full, 1 = deadline, 2 = shutdown).
  kHedge,           // Instant: a hedged second attempt was launched.
  kBreakerTransition,  // Instant: breaker state change on invoker trace_id
                       // (arg0: 0 = closed, 1 = open, 2 = half-open).
  // Network model + RPC plane (trace_id = invoker, -1 = every link).
  kNetPartition,    // Partition/blackhole window of one link (dur = window).
  kNetLossWindow,   // Flaky-loss probability window (dur = window).
  kNetDrop,         // Instant: message dropped in flight (arg0: 0 = loss,
                    // 1 = partition, 2 = queue overflow).
  kNetRetransmit,   // Instant: RPC timeout fired a retransmit.
  kNetDuplicate,    // Instant: duplicate request/response/notify suppressed.
  kRpcGiveUp,       // Instant: call/notify spent its retransmit budget.
  // Analytic sweep.
  kAppReplay,       // One app under one policy (dur = active span of app).
  // Resource ledger.
  kResourceCost,    // End-of-replay cost summary (dur = horizon, arg0 =
                    // total GB-seconds, arg1 = cost in micro-dollars).
  kNumSpanNames,    // Sentinel; keep last.
};

const char* SpanNameString(SpanName name);

// One recorded span (dur_ms >= 0) or instant event (dur_ms == kInstant).
struct SpanRecord {
  static constexpr int64_t kInstant = -1;

  int64_t start_ms = 0;       // Simulation time of the span start.
  int64_t dur_ms = kInstant;  // Span length, or kInstant for point events.
  int64_t trace_id = 0;       // Groups spans of one activation/app replay.
  int64_t arg0 = 0;           // Name-specific payload (attempts, counts...).
  int64_t arg1 = 0;
  int32_t label_id = -1;      // InternLabel() id, -1 = unlabelled.
  int16_t name = 0;           // SpanName.
  int16_t pid = 0;            // Process lane (policy ordinal in a sweep).
  int32_t tid = 0;            // Thread lane (0 = controller, i+1 = invoker i).

  bool operator==(const SpanRecord&) const = default;
};

// One writer's spans, folded into a Tracer when the writer is done.
using SpanBuffer = std::vector<SpanRecord>;

// Canonicalised view of everything the tracer recorded.  Label ids
// in `spans` are remapped to indices into `labels`, which is sorted, so the
// whole structure is independent of interning order and thread count.
struct CollectedTrace {
  std::vector<SpanRecord> spans;
  std::vector<std::string> labels;
  // (pid, name) and (pid, tid, name), sorted.
  std::vector<std::pair<int16_t, std::string>> processes;
  std::vector<std::pair<std::pair<int16_t, int32_t>, std::string>> threads;
};

class Tracer {
 public:
  Tracer() = default;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Interns a label string (idempotent), returning its id for SpanRecord.
  // Heterogeneous: a string_view interns without building a temporary
  // std::string on lookup.  Call at setup time; takes the lock.
  int32_t InternLabel(std::string_view label);

  // Names a process / thread lane for the Chrome trace metadata.
  void RegisterProcess(int16_t pid, std::string name);
  void RegisterThread(int16_t pid, int32_t tid, std::string name);

  // Appends a writer's buffered spans under the lock and empties the
  // buffer for reuse.
  void Fold(SpanBuffer& spans);

  // Every span folded so far, in canonical order.
  CollectedTrace Collect() const;

  size_t num_spans() const;

 private:
  mutable std::mutex mu_;
  InternTable labels_;  // Dense label ids; O(1) idempotent interning.
  std::vector<std::pair<int16_t, std::string>> processes_;
  std::vector<std::pair<std::pair<int16_t, int32_t>, std::string>> threads_;
  std::vector<SpanRecord> spans_;
};

}  // namespace faas

#endif  // SRC_TELEMETRY_TRACER_H_
