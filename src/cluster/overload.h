// Overload control plane: the knobs and the ledger.
//
// The pre-overload controller had exactly two answers when every healthy
// invoker was out of memory: drop the activation on the floor (kNoCapacity)
// or burn retry budget spinning against a saturated fleet.  Real FaaS
// front-ends survive flash crowds with *bounded* queues, shedding, and
// circuit breakers instead.  This header holds the configuration for the
// three mechanisms the controller adds —
//
//   1. a bounded per-controller admission queue (FIFO / LIFO / CoDel-style
//      age shedding) that activations enter when no invoker has capacity and
//      that drains on container-release events rather than blind backoff;
//   2. per-invoker concurrency caps and circuit breakers
//      (closed -> open -> half-open, driven by a rolling failure + latency
//      window, so chaos-engine crashes and latency spikes trip them);
//   3. hedged dispatch for cold-start-prone activations (a second attempt on
//      a different invoker after a latency threshold, first completion wins)
//
// — plus the OverloadLedger that tallies what they did (mirroring
// FaultLedger, comparable so determinism tests can assert bit-identity),
// and, at the bottom, the clock-free core of all three that both drivers
// call: the simulator's Controller and the serve plane's AdmissionBridge.
//
// Disabled-by-default contract: a default OverloadControlConfig enables
// nothing, schedules no events, draws no random numbers and registers no
// callbacks, so a replay with the control plane off is bit-identical to the
// pre-overload engine.

#ifndef SRC_CLUSTER_OVERLOAD_H_
#define SRC_CLUSTER_OVERLOAD_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/stats/p2_quantile.h"

namespace faas {

// How the admission queue picks victims when space or patience runs out.
enum class AdmissionDiscipline {
  // Serve oldest first; a full queue tail-drops the arriving activation.
  kFifo,
  // Serve newest first; a full queue sheds the OLDEST queued activation to
  // admit the newcomer (fresh requests are the ones a caller still wants).
  kLifo,
  // FIFO service order plus CoDel-style age shedding: every queued
  // activation carries a deadline of `max_wait` past its enqueue time and is
  // shed when it expires (sojourn-bounded, so the queue cannot hide
  // unbounded latency behind "eventually served").
  kCoDel,
};

// "fifo" / "lifo" / "codel" (case-sensitive), nullopt otherwise.
std::optional<AdmissionDiscipline> ParseAdmissionDiscipline(
    std::string_view name);
const char* AdmissionDisciplineName(AdmissionDiscipline discipline);

struct AdmissionQueueConfig {
  // Maximum queued activations; 0 (the default) disables the queue entirely
  // and restores the pre-overload drop-on-saturation behaviour.
  int capacity = 0;
  AdmissionDiscipline discipline = AdmissionDiscipline::kFifo;
  // CoDel age bound: a queued activation older than this is shed.  Ignored
  // by the FIFO/LIFO disciplines (they bound space, not sojourn).
  Duration max_wait = Duration::Seconds(30);

  bool enabled() const { return capacity > 0; }
};

struct CircuitBreakerConfig {
  bool enabled = false;
  // Rolling per-invoker outcome window evaluated while the breaker is
  // closed: with at least `min_samples` outcomes recorded, a bad fraction of
  // `failure_threshold` or more opens the breaker.
  int window = 20;
  int min_samples = 10;
  double failure_threshold = 0.5;
  // A completion slower end-to-end than this also counts as a bad outcome
  // (latency-tripped breakers, e.g. under a chaos-engine cold-start spike).
  // 0 disables the latency signal; failures alone feed the window.
  double latency_threshold_ms = 0.0;
  // Open -> half-open after this cool-down.
  Duration open_duration = Duration::Seconds(30);
  // Half-open admits at most this many concurrent probe activations; this
  // many consecutive good outcomes close the breaker, any bad one re-opens.
  int half_open_probes = 3;
};

struct HedgeConfig {
  // Launch a second attempt on a different invoker when the first has not
  // completed after this fixed delay.  Zero = no fixed trigger.
  Duration after = Duration::Zero();
  // Alternative percentile trigger: hedge once the attempt outlives this
  // percentile of observed end-to-end completion latency (P-square estimate,
  // e.g. 99 for p99 hedging).  0 = use the fixed `after` delay only.
  double latency_percentile = 0.0;
  // Floor under the percentile trigger (and the fallback before enough
  // latency samples exist): never hedge earlier than this.
  Duration min_after = Duration::Millis(100);

  bool enabled() const {
    return after > Duration::Zero() || latency_percentile > 0.0;
  }
};

struct OverloadControlConfig {
  AdmissionQueueConfig admission;
  CircuitBreakerConfig breaker;
  HedgeConfig hedge;
  // Per-invoker cap on concurrently-executing activations (0 = unlimited).
  // Enforced by the invoker itself; a cap rejection surfaces to the
  // controller as "no capacity", which feeds the admission queue.
  int invoker_concurrency_cap = 0;

  bool AnyEnabled() const {
    return admission.enabled() || breaker.enabled || hedge.enabled() ||
           invoker_concurrency_cap > 0;
  }

  // Empty when the config is usable, otherwise a one-line reason.  The
  // tools' flag parser reports it and exits 2.
  std::string Validate() const;
  // Validate(), fatal on failure (both drivers' constructors); returns
  // *this for member initializers.
  const OverloadControlConfig& CheckedValid() const;
};

// Why a queued activation or request was shed.
enum class ShedReason { kQueueFull, kDeadline, kShutdown };

// Tally of everything the overload control plane observed during a replay.
// Comparable so determinism tests can assert bit-identical ledgers; all-zero
// when the control plane is disabled.
struct OverloadLedger {
  // Admission queue.
  int64_t queued = 0;            // Activations that entered the queue.
  int64_t drained = 0;           // Left the queue via a successful dispatch.
  int64_t shed_queue_full = 0;   // Shed because the queue was at capacity.
  int64_t shed_deadline = 0;     // Shed by the CoDel age bound.
  int64_t shed_at_shutdown = 0;  // Still queued when the replay ended.
  double total_queue_wait_ms = 0.0;  // Over drained activations.
  double max_queue_wait_ms = 0.0;

  // Hedged dispatch.
  int64_t hedges_launched = 0;
  int64_t hedges_unplaced = 0;     // No second invoker had room; fizzled.
  int64_t hedge_wins = 0;          // The hedge completed first.
  int64_t hedge_primary_wins = 0;  // The primary beat its hedge.

  // Circuit breakers.
  int64_t breaker_opens = 0;
  int64_t breaker_half_opens = 0;
  int64_t breaker_closes = 0;
  // Dispatch attempts deflected from an invoker by a non-closed breaker
  // (counted per invoker-level skip, so one activation can deflect several
  // times while failing over).
  int64_t breaker_rejections = 0;
  // Per-invoker concurrency-cap refusals (summed from the invokers).
  int64_t cap_rejections = 0;
  // Degraded-mode intervals: spans from a breaker first leaving closed to
  // its next close (or the end of the replay).
  int64_t breaker_open_intervals = 0;
  double total_breaker_open_ms = 0.0;
  double max_breaker_open_ms = 0.0;

  int64_t TotalShed() const {
    return shed_queue_full + shed_deadline + shed_at_shutdown;
  }
  double MeanQueueWaitMs() const {
    return drained > 0 ? total_queue_wait_ms / static_cast<double>(drained)
                       : 0.0;
  }

  void BookShed(ShedReason reason) {
    switch (reason) {
      case ShedReason::kQueueFull:
        ++shed_queue_full;
        break;
      case ShedReason::kDeadline:
        ++shed_deadline;
        break;
      case ShedReason::kShutdown:
        ++shed_at_shutdown;
        break;
    }
  }
  // One activation left the queue for a dispatch after `wait_ms`.
  void BookDrained(double wait_ms) {
    ++drained;
    total_queue_wait_ms += wait_ms;
    max_queue_wait_ms = std::max(max_queue_wait_ms, wait_ms);
  }
  // One degraded-mode interval of `open_ms` ended.
  void BookBreakerInterval(double open_ms) {
    ++breaker_open_intervals;
    total_breaker_open_ms += open_ms;
    max_breaker_open_ms = std::max(max_breaker_open_ms, open_ms);
  }

  // Merge semantics for MergeLedger (src/common/resource_ledger.h): sums
  // everywhere except the two per-shard maxima.
  template <class V>
  static void VisitMergeFields(V& v) {
    v.Sum(&OverloadLedger::queued);
    v.Sum(&OverloadLedger::drained);
    v.Sum(&OverloadLedger::shed_queue_full);
    v.Sum(&OverloadLedger::shed_deadline);
    v.Sum(&OverloadLedger::shed_at_shutdown);
    v.Sum(&OverloadLedger::total_queue_wait_ms);
    v.Max(&OverloadLedger::max_queue_wait_ms);
    v.Sum(&OverloadLedger::hedges_launched);
    v.Sum(&OverloadLedger::hedges_unplaced);
    v.Sum(&OverloadLedger::hedge_wins);
    v.Sum(&OverloadLedger::hedge_primary_wins);
    v.Sum(&OverloadLedger::breaker_opens);
    v.Sum(&OverloadLedger::breaker_half_opens);
    v.Sum(&OverloadLedger::breaker_closes);
    v.Sum(&OverloadLedger::breaker_rejections);
    v.Sum(&OverloadLedger::cap_rejections);
    v.Sum(&OverloadLedger::breaker_open_intervals);
    v.Sum(&OverloadLedger::total_breaker_open_ms);
    v.Max(&OverloadLedger::max_breaker_open_ms);
  }

  bool operator==(const OverloadLedger&) const = default;
};

// ---- The shared core -------------------------------------------------------
//
// The core never schedules anything: a call that starts a timed phase
// returns what the driver must arm.  Elapsed time crosses it only through a
// clock-traits type, so each driver keeps its own rounding: the simulator's
// Duration::seconds() * 1e3 is not the identity on integer ms and is pinned
// by the committed cluster results; the serve plane divides ns by 1e6.

struct SimClock {
  using Time = TimePoint;
  using Span = Duration;
  static double Ms(Duration span) { return span.seconds() * 1e3; }
  static Duration FromMs(double ms) {
    return Duration::Millis(static_cast<int64_t>(ms));
  }
  static Duration From(Duration d) { return d; }
};

struct NsClock {
  using Time = int64_t;
  using Span = int64_t;
  static double Ms(int64_t span_ns) {
    return static_cast<double>(span_ns) / 1e6;
  }
  static int64_t FromMs(double ms) { return static_cast<int64_t>(ms * 1e6); }
  static int64_t From(Duration d) { return d.millis() * 1'000'000; }
};

// The admission discipline over the driver's entries (activation ids,
// parked requests).  Sojourn deadlines stay with the drivers.
template <class Entry>
class AdmissionQueue {
 public:
  explicit AdmissionQueue(const AdmissionQueueConfig& config)
      : capacity_(static_cast<size_t>(std::max(config.capacity, 0))),
        lifo_(config.discipline == AdmissionDiscipline::kLifo) {}

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  bool full() const { return entries_.size() >= capacity_; }

  // The entry served next: the newest under LIFO, the oldest otherwise.
  Entry& Head() { return lifo_ ? entries_.back() : entries_.front(); }
  void PopHead() {
    if (lifo_) {
      entries_.pop_back();
    } else {
      entries_.pop_front();
    }
  }
  // Pops superseded entries off the serving end; null once empty.
  template <class IsLive>
  Entry* LiveHead(IsLive&& is_live) {
    while (!entries_.empty()) {
      Entry& head = Head();
      if (is_live(head)) {
        return &head;
      }
      PopHead();
    }
    return nullptr;
  }

  // Queues `entry` and books it.  A full queue sheds first: LIFO evicts its
  // OLDEST entry, FIFO and CoDel tail-drop the arrival.  `shed(victim)` runs
  // for the loser and books the shed; false when that was the arrival.
  template <class ShedFn>
  bool Admit(Entry entry, OverloadLedger& ledger, ShedFn&& shed) {
    if (full()) {
      if (!lifo_) {
        shed(entry);
        return false;
      }
      Entry oldest = std::move(entries_.front());
      entries_.pop_front();
      shed(oldest);
    }
    entries_.push_back(std::move(entry));
    ++ledger.queued;
    return true;
  }

  template <class Pred>
  void EraseIf(Pred&& pred) {
    std::erase_if(entries_, pred);
  }
  // Empties the queue, oldest first (shutdown shedding).
  std::deque<Entry> TakeAll() { return std::exchange(entries_, {}); }

 private:
  size_t capacity_;
  bool lifo_;
  std::deque<Entry> entries_;
};

// On kOpened the driver arms a timer for the open duration and passes
// `epoch` back to HalfOpen when it fires.
struct BreakerTransition {
  enum Kind : uint8_t { kNone, kOpened, kClosed };
  Kind kind = kNone;
  uint32_t epoch = 0;
};

// One circuit breaker per dispatch target (invoker or executor).  Every
// outcome a target reports counts, zombies included: the signal is about
// the target.  Books into the driver's ledger, which must outlive the bank.
template <class Clock>
class BreakerBank {
 public:
  using Time = typename Clock::Time;
  using Span = typename Clock::Span;

  // Empty (admits everything, ignores outcomes) unless enabled.
  BreakerBank(const CircuitBreakerConfig& config, size_t targets,
              OverloadLedger* ledger)
      : config_(config), ledger_(ledger) {
    if (config_.enabled) {
      breakers_.resize(targets);
      for (Breaker& breaker : breakers_) {
        breaker.outcomes.assign(static_cast<size_t>(config_.window), 0);
      }
    }
  }

  bool enabled() const { return !breakers_.empty(); }
  // Targets whose breaker is open (half-open ones excluded).
  int open_count() const { return open_count_; }
  Span open_duration() const { return Clock::From(config_.open_duration); }

  // Closed, or half-open with probe budget left.
  bool Admits(size_t target) const {
    if (breakers_.empty()) {
      return true;
    }
    const Breaker& breaker = breakers_[target];
    return breaker.mode == Mode::kClosed ||
           (breaker.mode == Mode::kHalfOpen &&
            breaker.half_open_inflight < config_.half_open_probes);
  }

  // Half-open probe accounting for a dispatch `target` accepted.
  void NoteDispatch(size_t target) {
    if (!breakers_.empty() && breakers_[target].mode == Mode::kHalfOpen) {
      ++breakers_[target].half_open_inflight;
    }
  }

  // A completion: bad when slower end to end than the latency threshold.
  BreakerTransition RecordCompletion(int target, Span latency, Time now) {
    const bool bad = config_.latency_threshold_ms > 0.0 &&
                     Clock::Ms(latency) > config_.latency_threshold_ms;
    return RecordOutcome(target, bad, now);
  }

  BreakerTransition RecordOutcome(int target, bool bad, Time now) {
    if (target < 0 || static_cast<size_t>(target) >= breakers_.size()) {
      return {};
    }
    Breaker& breaker = breakers_[static_cast<size_t>(target)];
    switch (breaker.mode) {
      case Mode::kClosed: {
        const int window = config_.window;
        if (breaker.window_count < window) {
          ++breaker.window_count;
        } else {
          breaker.bad_count -= breaker.outcomes[breaker.window_pos];
        }
        breaker.outcomes[breaker.window_pos] = bad ? 1 : 0;
        breaker.bad_count += bad ? 1 : 0;
        breaker.window_pos = (breaker.window_pos + 1) % window;
        if (breaker.window_count >= config_.min_samples &&
            static_cast<double>(breaker.bad_count) >=
                config_.failure_threshold *
                    static_cast<double>(breaker.window_count)) {
          return Open(breaker, now);
        }
        return {};
      }
      case Mode::kHalfOpen:
        // Any outcome in half-open releases a probe slot.
        if (breaker.half_open_inflight > 0) {
          --breaker.half_open_inflight;
        }
        if (bad) {
          return Open(breaker, now);
        }
        if (++breaker.half_open_good >= config_.half_open_probes) {
          breaker.mode = Mode::kClosed;
          ++ledger_->breaker_closes;
          EndInterval(breaker, now);
          return {BreakerTransition::kClosed, breaker.epoch};
        }
        return {};
      case Mode::kOpen:
        return {};  // Straggler outcome from before the trip.
    }
    return {};
  }

  // The open-duration timer fired; false when the epoch is stale.
  bool HalfOpen(size_t target, uint32_t epoch) {
    Breaker& breaker = breakers_[target];
    if (breaker.mode != Mode::kOpen || breaker.epoch != epoch) {
      return false;
    }
    breaker.mode = Mode::kHalfOpen;
    --open_count_;
    breaker.half_open_inflight = 0;
    breaker.half_open_good = 0;
    ++ledger_->breaker_half_opens;
    return true;
  }

  // The target was rebuilt: closed, fresh window, interval booked, timers
  // invalidated.
  void Reset(size_t target, Time now) {
    if (breakers_.empty()) {
      return;
    }
    Breaker& breaker = breakers_[target];
    if (breaker.mode == Mode::kOpen) {
      --open_count_;
    }
    breaker.mode = Mode::kClosed;
    ClearWindow(breaker);
    ++breaker.epoch;
    EndInterval(breaker, now);
  }

  // End of run: books every degraded interval still open.
  void Finish(Time now) {
    for (Breaker& breaker : breakers_) {
      EndInterval(breaker, now);
    }
  }

 private:
  enum class Mode : uint8_t { kClosed, kOpen, kHalfOpen };

  struct Breaker {
    Mode mode = Mode::kClosed;
    // Rolling outcome ring (1 = bad), evaluated while closed.
    std::vector<int8_t> outcomes;
    int window_pos = 0;
    int window_count = 0;
    int bad_count = 0;
    // Half-open probes admitted vs good outcomes seen.
    int half_open_inflight = 0;
    int half_open_good = 0;
    // Bumped by every open and reset; validates the driver's timers.
    uint32_t epoch = 0;
    // Degraded-mode interval: from the first departure from closed to the
    // next close (re-opens extend it).
    bool degraded = false;
    Time degraded_since{};
  };

  BreakerTransition Open(Breaker& breaker, Time now) {
    breaker.mode = Mode::kOpen;
    ++open_count_;
    if (!breaker.degraded) {
      breaker.degraded = true;
      breaker.degraded_since = now;
    }
    ++ledger_->breaker_opens;
    // The next closed phase starts with a fresh window.
    ClearWindow(breaker);
    ++breaker.epoch;
    return {BreakerTransition::kOpened, breaker.epoch};
  }

  static void ClearWindow(Breaker& breaker) {
    std::fill(breaker.outcomes.begin(), breaker.outcomes.end(), 0);
    breaker.window_pos = 0;
    breaker.window_count = 0;
    breaker.bad_count = 0;
    breaker.half_open_inflight = 0;
    breaker.half_open_good = 0;
  }

  void EndInterval(Breaker& breaker, Time now) {
    if (breaker.degraded) {
      breaker.degraded = false;
      ledger_->BookBreakerInterval(Clock::Ms(now - breaker.degraded_since));
    }
  }

  CircuitBreakerConfig config_;
  OverloadLedger* ledger_;
  std::vector<Breaker> breakers_;
  int open_count_ = 0;
};

// How long a cold-start-prone attempt runs before a second one launches.
template <class Clock>
class HedgeTrigger {
 public:
  using Span = typename Clock::Span;

  explicit HedgeTrigger(const HedgeConfig& config)
      : config_(config),
        latency_ms_(config.latency_percentile > 0.0
                        ? config.latency_percentile / 100.0
                        : 0.99) {}

  bool enabled() const { return config_.enabled(); }

  // One end-to-end completion latency (ignored while hedging is off).
  void Observe(Span latency) {
    if (enabled()) {
      latency_ms_.Add(Clock::Ms(latency));
    }
  }

  // The observed percentile floored at `min_after` once it has 32 samples,
  // else the fixed `after` delay, else the floor.
  Span Delay() const {
    if (config_.latency_percentile > 0.0 && latency_ms_.count() >= 32) {
      return std::max(Clock::From(config_.min_after),
                      Clock::FromMs(latency_ms_.Value()));
    }
    if (config_.after > Duration::Zero()) {
      return Clock::From(config_.after);
    }
    return Clock::From(config_.min_after);
  }

 private:
  HedgeConfig config_;
  P2Quantile latency_ms_;
};

}  // namespace faas

#endif  // SRC_CLUSTER_OVERLOAD_H_
