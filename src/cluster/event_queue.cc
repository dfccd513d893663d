#include "src/cluster/event_queue.h"

#include <cstdint>

#include "src/common/logging.h"

namespace faas {

namespace {

// Heap arity: a 4-ary heap halves the depth of a binary one, and the four
// children of a node share one or two cache lines.
constexpr size_t kArity = 4;

}  // namespace

EventQueue::EventQueue() { lanes_.push_back(Lane{Duration::Zero(), {}}); }

void EventQueue::CheckNotPast(TimePoint at) const {
  FAAS_CHECK(at >= now_) << "scheduling into the past: " << at.ToString()
                         << " < " << now_.ToString();
}

uint32_t EventQueue::AllocateSlot() {
  if (free_slots_.empty()) {
    const auto base = static_cast<uint32_t>(chunks_.size() * kChunkSlots);
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    // Highest index first on the stack, so the chunk fills from its start.
    for (uint32_t i = kChunkSlots; i > 0; --i) {
      free_slots_.push_back(base + i - 1);
    }
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

EventQueue::Handle EventQueue::PushHeap(TimePoint at, uint32_t slot) {
  const Entry entry{at, next_sequence_++, slot, SlotAt(slot).generation};
  // Sift up: move parents down until the entry's position is found.
  size_t i = heap_.size();
  heap_.push_back(entry);
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Before(entry, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
  return Handle(this, slot, entry.generation);
}

void EventQueue::PopHeap() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  // Sift the former last entry down from the root.
  size_t i = 0;
  for (;;) {
    const size_t first = i * kArity + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    const size_t end = first + kArity < n ? first + kArity : n;
    for (size_t c = first + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], last)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

int EventQueue::AddLane(Duration delay) {
  FAAS_CHECK(!delay.IsNegative()) << "lane delay must not be negative";
  lanes_.push_back(Lane{delay, {}});
  return static_cast<int>(lanes_.size()) - 1;
}

EventQueue::Handle EventQueue::PushLane(int lane, uint32_t slot) {
  FAAS_CHECK(lane >= 0 && static_cast<size_t>(lane) < lanes_.size())
      << "unknown lane " << lane;
  Lane& target = lanes_[static_cast<size_t>(lane)];
  const Entry entry{now_ + target.delay, next_sequence_++, slot,
                    SlotAt(slot).generation};
  target.entries.push_back(entry);
  return Handle(this, slot, entry.generation);
}

void EventQueue::ScheduleArrivals(std::vector<TimePoint> times,
                                  ArrivalAction run) {
  FAAS_CHECK(arrival_next_ == arrival_times_.size())
      << "an arrival batch is still running";
  for (size_t i = 0; i < times.size(); ++i) {
    FAAS_CHECK(times[i] >= (i == 0 ? now_ : times[i - 1]))
        << "arrivals must be sorted and not in the past";
  }
  arrival_times_ = std::move(times);
  arrival_next_ = 0;
  arrival_first_sequence_ = next_sequence_;
  next_sequence_ += static_cast<int64_t>(arrival_times_.size());
  arrival_run_ = std::move(run);
}

void EventQueue::Cancel(uint32_t slot, uint32_t generation) {
  Slot& target = SlotAt(slot);
  if (target.generation != generation) {
    return;  // Already fired, running, cancelled, or recycled.
  }
  ++target.generation;
  target.action.Reset();
  free_slots_.push_back(slot);
}

bool EventQueue::IsPending(uint32_t slot, uint32_t generation) const {
  return SlotAt(slot).generation == generation;
}

void EventQueue::Fire(const Entry& entry) {
  Slot& slot = SlotAt(entry.slot);
  if (slot.generation != entry.generation) {
    return;  // Cancelled; the slot was recycled at the cancel.
  }
  // Bump first: the running event's own handle is now stale, so a cancel
  // from inside the action cannot destroy the action mid-call.  Chunks never
  // move, so the action runs in place while it schedules more events.
  ++slot.generation;
  ++executed_;
  slot.action();
  slot.action.Reset();
  free_slots_.push_back(entry.slot);
}

bool EventQueue::Step(TimePoint until) {
  // The earliest of the heap top, every lane head and the arrival cursor.
  constexpr size_t kHeap = SIZE_MAX;
  const Entry* best = heap_.empty() ? nullptr : &heap_.front();
  size_t source = kHeap;
  for (size_t i = 0; i < lanes_.size(); ++i) {
    const Ring<Entry>& entries = lanes_[i].entries;
    if (!entries.empty() &&
        (best == nullptr || Before(entries.front(), *best))) {
      best = &entries.front();
      source = i;
    }
  }
  if (arrival_next_ < arrival_times_.size()) {
    const TimePoint at = arrival_times_[arrival_next_];
    const int64_t sequence =
        arrival_first_sequence_ + static_cast<int64_t>(arrival_next_);
    if (best == nullptr || Before(at, sequence, best->at, best->sequence)) {
      if (at > until) {
        return false;
      }
      // Advance the cursor first: the arrival may schedule more events.
      const size_t index = arrival_next_++;
      now_ = at;
      ++executed_;
      arrival_run_(index);
      return true;
    }
  }
  if (best == nullptr || best->at > until) {
    return false;
  }
  // Copy out: Fire may push onto the heap or the lane being popped.
  const Entry entry = *best;
  if (source == kHeap) {
    PopHeap();
  } else {
    lanes_[source].entries.pop_front();
  }
  // The clock moves for cancelled entries too, as it always has: Run()
  // leaves now() at the last popped entry, live or not.
  now_ = entry.at;
  Fire(entry);
  return true;
}

void EventQueue::RunUntil(TimePoint until) {
  while (Step(until)) {
  }
  if (now_ < until) {
    now_ = until;
  }
}

void EventQueue::Run() {
  // Drain the queue; the clock stops at the last popped event rather than
  // jumping to infinity.
  while (Step(TimePoint::Max())) {
  }
}

size_t EventQueue::pending_events() const {
  size_t pending = heap_.size() + (arrival_times_.size() - arrival_next_);
  for (const Lane& lane : lanes_) {
    pending += lane.entries.size();
  }
  return pending;
}

}  // namespace faas
