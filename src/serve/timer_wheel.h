// Wall-clock timer wheel for the serving event loops.
//
// The simulator orders future work through a slab-backed 4-ary-heap
// EventQueue in virtual time; a serving event loop cannot, because wall
// time advances on its own and the loop must find "everything due by now"
// in O(due), not O(log pending).  This is the classic hashed timer wheel: a
// power-of-two ring of slots, each holding the timers whose deadline hashes
// onto it, a cursor that advances tick by tick, and timers past the current
// rotation simply staying in their slot until the cursor comes around again.
// Schedule and fire are O(1) amortised; a full rotation of empty slots
// costs one vector-emptiness check per tick.
//
// Single-threaded by design: each epoll loop owns one wheel, so there are
// no locks anywhere.  Callbacks are a bare function pointer plus a context
// pointer and a 64-bit datum — no std::function, no allocation per timer —
// because the bridge schedules one completion timer per simulated
// execution and the wheel must keep up with the admission path.
//
// Cancellation is by validation, not by handle: callbacks fire
// unconditionally and the callee checks whether the work is still relevant
// (the pattern the controller uses for superseded activation ids).  This
// keeps the wheel free of id tables on the hot path.

#ifndef SRC_SERVE_TIMER_WHEEL_H_
#define SRC_SERVE_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace faas {

class TimerWheel {
 public:
  // `now_ns` is the time passed to the Advance that fires the timer (never
  // below its deadline), so callees run on the wheel's clock, synthetic or
  // real, instead of reading one of their own.
  using Callback = void (*)(void* ctx, uint64_t data, int64_t now_ns);

  // `tick_ns` is the firing granularity; `num_slots` (rounded up to a power
  // of two) times the tick is one rotation.  Timers beyond one rotation are
  // revisited once per rotation until due, so keep rotations comfortably
  // longer than the common deadline (the serving default — 64 us ticks,
  // 4096 slots — gives a 268 ms rotation against O(100 us) service times
  // and O(10 s) keep-alives: a keep-alive timer is touched ~37 times before
  // firing, which is noise).
  explicit TimerWheel(int64_t tick_ns = 64 * 1024, size_t num_slots = 4096);

  // Registers `fn(ctx, data, now)` to fire once `deadline_ns` is reached.
  // Deadlines in the past fire on the next Advance.
  void Schedule(int64_t deadline_ns, Callback fn, void* ctx, uint64_t data);

  // Fires every timer whose tick has fully elapsed by now_ns, in tick order
  // (timers within one tick fire in insertion order).  Nothing ever fires
  // before its deadline; a timer fires at most one tick late (the wheel's
  // granularity).  Callbacks may schedule new timers; a new timer landing in
  // the tick currently being processed fires on a later Advance, never
  // recursively within this one.
  void Advance(int64_t now_ns);

  // Instant at which the earliest pending timer will fire (the end of its
  // tick), or -1 when no timer is pending: sleep until exactly this time
  // and the wake-up Advance fires it.  O(slots + pending), called only when
  // the event loop is about to sleep.
  int64_t NextDeadlineNs() const;

  size_t pending() const { return pending_; }
  int64_t tick_ns() const { return tick_ns_; }

 private:
  struct Timer {
    int64_t deadline_ns;
    uint64_t data;
    Callback fn;
    void* ctx;
  };

  size_t SlotOf(int64_t deadline_ns) const {
    return static_cast<size_t>(deadline_ns / tick_ns_) & slot_mask_;
  }

  int64_t tick_ns_;
  size_t slot_mask_;
  int64_t current_tick_ = 0;  // Ticks fully processed so far.
  size_t pending_ = 0;
  std::vector<std::vector<Timer>> slots_;
  // Scratch for the in-processing slot, so callbacks can Schedule into the
  // same slot without invalidating the iteration.
  std::vector<Timer> firing_;
};

}  // namespace faas

#endif  // SRC_SERVE_TIMER_WHEEL_H_
