#include "src/serve/timer_wheel.h"

namespace faas {
namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

TimerWheel::TimerWheel(int64_t tick_ns, size_t num_slots)
    : tick_ns_(tick_ns > 0 ? tick_ns : 1),
      slot_mask_(RoundUpPow2(num_slots < 2 ? 2 : num_slots) - 1),
      slots_(slot_mask_ + 1) {}

void TimerWheel::Schedule(int64_t deadline_ns, Callback fn, void* ctx,
                          uint64_t data) {
  int64_t tick = deadline_ns / tick_ns_;
  // A deadline at or before the tick currently processed would only be seen
  // again after a full rotation; park it in the next tick instead (the due
  // check compares deadlines, not slots, so it still fires "late" exactly
  // once the cursor reaches that tick).
  if (tick <= current_tick_) {
    tick = current_tick_ + 1;
  }
  slots_[static_cast<size_t>(tick) & slot_mask_].push_back(
      Timer{deadline_ns, data, fn, ctx});
  ++pending_;
}

void TimerWheel::Advance(int64_t now_ns) {
  // Only fully elapsed ticks are processed: tick t covers
  // [t*tick, (t+1)*tick), so every timer in a tick below now/tick has
  // deadline <= now and nothing ever fires early.  Timers in the current
  // partial tick wait for it to complete (late by < one tick, the wheel's
  // granularity).
  const int64_t target_tick = now_ns / tick_ns_ - 1;
  if (target_tick <= current_tick_) {
    return;
  }
  // A jump of a full rotation or more (including the very first Advance on
  // a monotonic clock) visits every slot exactly once instead of stepping
  // tick by tick.
  if (target_tick - current_tick_ >= static_cast<int64_t>(slots_.size())) {
    current_tick_ = target_tick;
    for (std::vector<Timer>& slot : slots_) {
      if (slot.empty()) {
        continue;
      }
      firing_.clear();
      size_t keep = 0;
      for (const Timer& timer : slot) {
        if (timer.deadline_ns <= now_ns) {
          firing_.push_back(timer);
        } else {
          slot[keep++] = timer;
        }
      }
      slot.resize(keep);
      pending_ -= firing_.size();
      for (const Timer& timer : firing_) {
        timer.fn(timer.ctx, timer.data, now_ns);
      }
    }
    return;
  }
  while (current_tick_ < target_tick) {
    ++current_tick_;
    std::vector<Timer>& slot =
        slots_[static_cast<size_t>(current_tick_) & slot_mask_];
    if (slot.empty()) {
      continue;
    }
    firing_.clear();
    size_t keep = 0;
    for (const Timer& timer : slot) {
      if (timer.deadline_ns / tick_ns_ <= current_tick_) {
        firing_.push_back(timer);
      } else {
        slot[keep++] = timer;
      }
    }
    slot.resize(keep);
    pending_ -= firing_.size();
    for (const Timer& timer : firing_) {
      timer.fn(timer.ctx, timer.data, now_ns);
    }
  }
}

int64_t TimerWheel::NextDeadlineNs() const {
  if (pending_ == 0) {
    return -1;
  }
  // Global minimum over every slot: with rounds, the slot nearest the
  // cursor may hold a later deadline than a slot further away.  Only called
  // when the event loop is about to sleep, so O(slots + pending) is fine.
  int64_t best = -1;
  for (const std::vector<Timer>& slot : slots_) {
    for (const Timer& timer : slot) {
      if (best < 0 || timer.deadline_ns < best) {
        best = timer.deadline_ns;
      }
    }
  }
  // Report when the timer will actually fire — the end of its tick — so a
  // caller sleeping until this instant wakes into an Advance that fires it.
  return (best / tick_ns_ + 1) * tick_ns_;
}

}  // namespace faas
