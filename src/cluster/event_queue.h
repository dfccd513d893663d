// Discrete-event engine for the cluster simulator.
//
// Ordering invariant: events run in (time, sequence) order, where the
// sequence is a counter stamped when an event is scheduled, so equal times
// run FIFO by scheduling order.  Every ledger, CSV and digest of a cluster
// replay depends on this order and nothing else.
//
// Events come from three sources, merged at each pop by (time, sequence):
//
//   - a 4-ary min-heap of 24-byte (time, sequence, slot) entries for events
//     at arbitrary times;
//   - fixed-delay lanes: a timer always armed `delay` after now() lands in
//     its lane's FIFO.  now() never decreases and sequences only grow, so
//     each lane is already sorted and pushing or popping it is O(1).  The
//     RPC timeouts and the activation timeout ride lanes, and a built-in
//     zero-delay lane takes every event scheduled for the current time;
//   - an arrival cursor over a pre-sorted batch (the trace replay's
//     invocations), whose sequence numbers are reserved as one contiguous
//     block when the batch is handed over.
//
// An event's action is an inline callable constructed in place in a slot of
// a chunked slab (stable addresses, recycled through a free list), so a warm
// queue schedules and pops without touching the heap allocator.  Scheduling
// returns a Handle naming (slot, generation); cancelling bumps the slot's
// generation and recycles the slot at once, and the entry left behind in
// the heap or lane is skipped when popped.  Popping an event bumps the
// generation too, so cancelling a fired, running or recycled event is a
// no-op.

#ifndef SRC_CLUSTER_EVENT_QUEUE_H_
#define SRC_CLUSTER_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/ring.h"
#include "src/common/time.h"

namespace faas {

// Move-only callable with `kBytes` of inline storage and no heap fallback:
// a callable that does not fit fails to compile.
template <typename Signature, size_t kBytes>
class InlineFunction;

template <typename R, typename... Args, size_t kBytes>
class InlineFunction<R(Args...), kBytes> {
 public:
  InlineFunction() = default;
  template <typename F, typename = std::enable_if_t<!std::is_same_v<
                            std::decay_t<F>, InlineFunction>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(f));
  }
  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { Reset(); }

  // Constructs `f` in place; the function must be empty.
  template <typename F>
  void Emplace(F&& f) {
    using D = std::decay_t<F>;
    static_assert(sizeof(D) <= kBytes,
                  "callable exceeds the inline buffer: capture less, or "
                  "capture a pointer to state owned elsewhere");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "over-aligned callable");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }
  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* from, void* to);
    void (*destroy)(void*);
  };
  template <typename D>
  static R Invoke(void* self, Args&&... args) {
    return (*static_cast<D*>(self))(std::forward<Args>(args)...);
  }
  template <typename D>
  static void Relocate(void* from, void* to) {
    D* source = static_cast<D*>(from);
    ::new (to) D(std::move(*source));
    source->~D();
  }
  template <typename D>
  static void Destroy(void* self) {
    static_cast<D*>(self)->~D();
  }
  template <typename D>
  static constexpr Ops kOps{&Invoke<D>, &Relocate<D>, &Destroy<D>};

  void MoveFrom(InlineFunction& other) {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kBytes];
  const Ops* ops_ = nullptr;
};

class EventQueue {
 public:
  // Inline capacity of one event's action.  Sized for the largest closure
  // the cluster schedules (an RPC request carrying its ActivationMessage,
  // wrapped by the network's delivery bookkeeping), and chosen so that a
  // slot (action plus generation) is 128 bytes.
  static constexpr size_t kActionBytes = 104;
  using Action = InlineFunction<void(), kActionBytes>;
  // Runs arrival i of a batch handed to ScheduleArrivals.
  using ArrivalAction = InlineFunction<void(size_t), 32>;

  // Names one scheduled event.  Cancel() and IsValid() consult the queue,
  // so a Handle must not outlive its queue (destroying one never touches
  // the queue).  Cancelling a fired, running or already-cancelled event is
  // a no-op.
  class Handle {
   public:
    Handle() = default;
    void Cancel() {
      if (queue_ != nullptr) {
        queue_->Cancel(slot_, generation_);
      }
    }
    // True while the event is scheduled: not yet popped and not cancelled.
    bool IsValid() const {
      return queue_ != nullptr && queue_->IsPending(slot_, generation_);
    }

   private:
    friend class EventQueue;
    Handle(EventQueue* queue, uint32_t slot, uint32_t generation)
        : queue_(queue), slot_(slot), generation_(generation) {}
    EventQueue* queue_ = nullptr;
    uint32_t slot_ = 0;
    uint32_t generation_ = 0;
  };

  EventQueue();
  // Handles point at the queue: it neither copies nor moves.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  TimePoint now() const { return now_; }

  // Schedules `action` at absolute time `at` (must not be in the past).
  template <typename F>
  Handle Schedule(TimePoint at, F&& action) {
    CheckNotPast(at);
    const uint32_t slot = Emplace(std::forward<F>(action));
    // An event due now is the newest of its time: the zero-delay lane.
    return at == now_ ? PushLane(kNowLane, slot) : PushHeap(at, slot);
  }
  // Schedules `action` `delay` after the current time.
  template <typename F>
  Handle ScheduleAfter(Duration delay, F&& action) {
    return Schedule(now_ + delay, std::forward<F>(action));
  }

  // Registers a fixed-delay lane and returns its id.  Scheduling on a lane
  // is ScheduleAfter(delay, action) with O(1) push and pop.
  int AddLane(Duration delay);
  template <typename F>
  Handle ScheduleOnLane(int lane, F&& action) {
    const uint32_t slot = Emplace(std::forward<F>(action));
    return PushLane(lane, slot);
  }

  // Hands over a batch of arrivals: arrival i runs `run(i)` at `times[i]`.
  // `times` must be non-decreasing and not in the past.  The batch takes
  // the next times.size() sequence numbers, so it orders exactly as if each
  // arrival had been Schedule()d here in index order.  Arrivals cannot be
  // cancelled, and a new batch may start only once the previous one ran.
  void ScheduleArrivals(std::vector<TimePoint> times, ArrivalAction run);

  // Runs events until the queue is empty or the next event is after `until`.
  void RunUntil(TimePoint until);
  // Runs until the queue drains.
  void Run();

  // Entries not yet popped, cancelled ones included.
  size_t pending_events() const;
  int64_t executed_events() const { return executed_; }

 private:
  struct Entry {
    TimePoint at;
    int64_t sequence;
    uint32_t slot;
    uint32_t generation;  // The slot's generation when the entry was pushed.
  };
  struct Slot {
    Action action;
    uint32_t generation = 0;
  };
  struct Lane {
    Duration delay;
    Ring<Entry> entries;
  };
  // Lane 0 takes every event scheduled for the current time (network
  // deliveries are mostly sub-millisecond, so most events land here).
  static constexpr int kNowLane = 0;
  static constexpr uint32_t kChunkShift = 8;
  static constexpr uint32_t kChunkSlots = 1u << kChunkShift;

  static bool Before(TimePoint a_at, int64_t a_seq, TimePoint b_at,
                     int64_t b_seq) {
    return a_at != b_at ? a_at < b_at : a_seq < b_seq;
  }
  static bool Before(const Entry& a, const Entry& b) {
    return Before(a.at, a.sequence, b.at, b.sequence);
  }

  Slot& SlotAt(uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSlots - 1)];
  }
  const Slot& SlotAt(uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & (kChunkSlots - 1)];
  }
  template <typename F>
  uint32_t Emplace(F&& action) {
    const uint32_t slot = AllocateSlot();
    SlotAt(slot).action.Emplace(std::forward<F>(action));
    return slot;
  }
  uint32_t AllocateSlot();
  void CheckNotPast(TimePoint at) const;
  Handle PushHeap(TimePoint at, uint32_t slot);
  Handle PushLane(int lane, uint32_t slot);
  void Cancel(uint32_t slot, uint32_t generation);
  bool IsPending(uint32_t slot, uint32_t generation) const;
  // Pops and runs the earliest entry if it is due by `until`.
  bool Step(TimePoint until);
  void PopHeap();
  void Fire(const Entry& entry);

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint32_t> free_slots_;
  std::vector<Entry> heap_;
  std::vector<Lane> lanes_;
  std::vector<TimePoint> arrival_times_;
  size_t arrival_next_ = 0;
  int64_t arrival_first_sequence_ = 0;
  ArrivalAction arrival_run_;
  TimePoint now_ = TimePoint::Origin();
  int64_t next_sequence_ = 0;
  int64_t executed_ = 0;
};

}  // namespace faas

#endif  // SRC_CLUSTER_EVENT_QUEUE_H_
