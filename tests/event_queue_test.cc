#include "src/cluster/event_queue.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <queue>
#include <random>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/network.h"
#include "src/common/logging.h"

// Counts global operator new calls, for the steady-state allocation test.
// Every non-aligned form is replaced with malloc/free, so the pairs stay
// matched under sanitizers whatever form a library call picks.
namespace {
int64_t g_operator_new_calls = 0;

void* CountedAlloc(std::size_t size) noexcept {
  ++g_operator_new_calls;
  return std::malloc(size == 0 ? 1 : size);
}
void* CountedAllocOrThrow(std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace faas {
namespace {

// The binary-heap queue the slab core replaced, kept verbatim as the
// oracle of the differential tests: std::priority_queue of (time,
// sequence) events, std::function actions, shared_ptr<bool> cancellation.
class ReferenceEventQueue {
 public:
  // Handle used to cancel a scheduled event.  Cancellation is lazy: the
  // event stays in the queue but is skipped when popped.
  class Handle {
   public:
    Handle() = default;
    void Cancel() {
      if (alive_) {
        *alive_ = false;
      }
    }
    bool IsValid() const { return alive_ != nullptr && *alive_; }

   private:
    friend class ReferenceEventQueue;
    explicit Handle(std::shared_ptr<bool> alive) : alive_(std::move(alive)) {}
    std::shared_ptr<bool> alive_;
  };

  TimePoint now() const { return now_; }

  Handle Schedule(TimePoint at, std::function<void()> action) {
    FAAS_CHECK(at >= now_) << "scheduling into the past";
    auto alive = std::make_shared<bool>(true);
    queue_.push(Event{at, next_sequence_++, alive, std::move(action)});
    return Handle(std::move(alive));
  }
  Handle ScheduleAfter(Duration delay, std::function<void()> action) {
    return Schedule(now_ + delay, std::move(action));
  }

  void RunUntil(TimePoint until) {
    while (!queue_.empty() && queue_.top().at <= until) {
      Event event = queue_.top();
      queue_.pop();
      now_ = event.at;
      if (*event.alive) {
        ++executed_;
        event.action();
      }
    }
    if (now_ < until) {
      now_ = until;
    }
  }
  void Run() {
    while (!queue_.empty()) {
      Event event = queue_.top();
      queue_.pop();
      now_ = event.at;
      if (*event.alive) {
        ++executed_;
        event.action();
      }
    }
  }

  size_t pending_events() const { return queue_.size(); }
  int64_t executed_events() const { return executed_; }

 private:
  struct Event {
    TimePoint at;
    int64_t sequence;
    std::shared_ptr<bool> alive;
    std::function<void()> action;

    bool operator>(const Event& other) const {
      if (at != other.at) {
        return at > other.at;
      }
      return sequence > other.sequence;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  TimePoint now_ = TimePoint::Origin();
  int64_t next_sequence_ = 0;
  int64_t executed_ = 0;
};

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(TimePoint(300), [&order]() { order.push_back(3); });
  queue.Schedule(TimePoint(100), [&order]() { order.push_back(1); });
  queue.Schedule(TimePoint(200), [&order]() { order.push_back(2); });
  queue.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.executed_events(), 3);
}

TEST(EventQueueTest, FifoAmongEqualTimes) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(TimePoint(100), [&order]() { order.push_back(1); });
  queue.Schedule(TimePoint(100), [&order]() { order.push_back(2); });
  queue.Schedule(TimePoint(100), [&order]() { order.push_back(3); });
  queue.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, NowAdvancesWithEvents) {
  EventQueue queue;
  TimePoint seen;
  queue.Schedule(TimePoint(5000), [&]() { seen = queue.now(); });
  queue.Run();
  EXPECT_EQ(seen, TimePoint(5000));
  EXPECT_EQ(queue.now(), TimePoint(5000));
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue queue;
  TimePoint seen;
  queue.Schedule(TimePoint(1000), [&]() {
    queue.ScheduleAfter(Duration::Millis(500), [&]() { seen = queue.now(); });
  });
  queue.Run();
  EXPECT_EQ(seen, TimePoint(1500));
}

TEST(EventQueueTest, CancelledEventsDoNotRun) {
  EventQueue queue;
  bool ran = false;
  EventQueue::Handle handle =
      queue.Schedule(TimePoint(100), [&ran]() { ran = true; });
  handle.Cancel();
  queue.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(queue.executed_events(), 0);
}

TEST(EventQueueTest, CancelFromInsideEarlierEvent) {
  EventQueue queue;
  bool ran = false;
  EventQueue::Handle later =
      queue.Schedule(TimePoint(200), [&ran]() { ran = true; });
  queue.Schedule(TimePoint(100), [&later]() { later.Cancel(); });
  queue.Run();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(TimePoint(100), [&order]() { order.push_back(1); });
  queue.Schedule(TimePoint(300), [&order]() { order.push_back(2); });
  queue.RunUntil(TimePoint(200));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(queue.now(), TimePoint(200));
  EXPECT_EQ(queue.pending_events(), 1u);
  queue.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue queue;
  int count = 0;
  std::function<void()> reschedule = [&]() {
    ++count;
    if (count < 5) {
      queue.ScheduleAfter(Duration::Millis(10), reschedule);
    }
  };
  queue.Schedule(TimePoint(0), reschedule);
  queue.Run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(queue.now(), TimePoint(40));
}

// Tie-break regression tests: the telemetry span streams (and the cluster
// replay's byte-identical results) depend on FIFO-by-insertion ordering
// among events with equal timestamps, even when ties are created from
// inside a running event or thinned by cancellation.

TEST(EventQueueTest, NestedSameTimeSchedulingRunsAfterExistingTies) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(TimePoint(100), [&]() {
    order.push_back(1);
    // Scheduled mid-tie at the same timestamp: must run after every event
    // that was already queued for t=100, not jump ahead of them.
    queue.Schedule(TimePoint(100), [&order]() { order.push_back(4); });
  });
  queue.Schedule(TimePoint(100), [&order]() { order.push_back(2); });
  queue.Schedule(TimePoint(100), [&order]() { order.push_back(3); });
  queue.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(queue.now(), TimePoint(100));
}

TEST(EventQueueTest, CancelMidTiePreservesSurvivorOrder) {
  EventQueue queue;
  std::vector<int> order;
  std::vector<EventQueue::Handle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(
        queue.Schedule(TimePoint(100), [&order, i]() { order.push_back(i); }));
  }
  // The first tied event cancels two of its peers; the survivors must still
  // run in their original insertion order.
  queue.Schedule(TimePoint(50), [&handles]() {
    handles[1].Cancel();
    handles[4].Cancel();
  });
  queue.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5}));
  EXPECT_EQ(queue.executed_events(), 5);  // 4 survivors + the canceller.
}

TEST(EventQueueTest, RandomizedStressMatchesStableSortReference) {
  // Fuzz the queue against the specification: execution order equals a
  // stable sort of the uncancelled events by timestamp (stability = FIFO
  // among equal times).  Timestamps are drawn from a tiny range so ties are
  // plentiful.
  std::mt19937 rng(20260806);
  std::uniform_int_distribution<int64_t> time_dist(0, 9);
  std::bernoulli_distribution cancel_dist(0.25);
  for (int round = 0; round < 20; ++round) {
    EventQueue queue;
    std::vector<int> executed;
    std::vector<std::pair<int64_t, int>> reference;  // (time, id), queue order.
    std::vector<EventQueue::Handle> handles;
    for (int id = 0; id < 200; ++id) {
      const int64_t at = time_dist(rng);
      handles.push_back(queue.Schedule(
          TimePoint(at), [&executed, id]() { executed.push_back(id); }));
      reference.emplace_back(at, id);
    }
    std::vector<std::pair<int64_t, int>> expected;
    for (int id = 0; id < 200; ++id) {
      if (cancel_dist(rng)) {
        handles[static_cast<size_t>(id)].Cancel();
      } else {
        expected.push_back(reference[static_cast<size_t>(id)]);
      }
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    queue.Run();
    ASSERT_EQ(executed.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(executed[i], expected[i].second) << "round " << round
                                                 << " position " << i;
    }
  }
}

TEST(EventQueueTest, HandleValidityReflectsLifecycle) {
  EventQueue queue;
  EventQueue::Handle handle = queue.Schedule(TimePoint(10), []() {});
  EXPECT_TRUE(handle.IsValid());
  handle.Cancel();
  EXPECT_FALSE(handle.IsValid());
  EXPECT_FALSE(EventQueue::Handle().IsValid());
}

TEST(EventQueueTest, HandleIsStaleOnceFiredOrRecycled) {
  EventQueue queue;
  int runs = 0;
  EventQueue::Handle first =
      queue.Schedule(TimePoint(10), [&runs]() { ++runs; });
  queue.Run();
  EXPECT_FALSE(first.IsValid());
  // The next event recycles the fired event's slot: the stale handle must
  // neither see it as its own nor cancel it.
  EventQueue::Handle second =
      queue.Schedule(TimePoint(20), [&runs]() { ++runs; });
  first.Cancel();
  EXPECT_TRUE(second.IsValid());
  queue.Run();
  EXPECT_EQ(runs, 2);
}

TEST(EventQueueTest, CancelOwnHandleWhileRunningIsNoOp) {
  EventQueue queue;
  EventQueue::Handle self;
  bool finished = false;
  self = queue.Schedule(TimePoint(5), [&]() {
    EXPECT_FALSE(self.IsValid());
    self.Cancel();  // Must not destroy the running action.
    finished = true;
  });
  queue.Run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(queue.executed_events(), 1);
}

TEST(EventQueueTest, LanesAndArrivalsMergeBySequence) {
  EventQueue queue;
  std::vector<int> order;
  const int lane = queue.AddLane(Duration::Millis(10));
  queue.Schedule(TimePoint(10), [&order]() { order.push_back(0); });
  queue.ScheduleOnLane(lane, [&order]() { order.push_back(1); });
  // Arrivals 2..4 take sequences 2..4, so the one at t=10 runs after the
  // lane timer and before the heap event scheduled below.
  queue.ScheduleArrivals({TimePoint(5), TimePoint(10), TimePoint(10)},
                         [&order](size_t i) {
                           order.push_back(2 + static_cast<int>(i));
                         });
  queue.Schedule(TimePoint(10), [&order]() { order.push_back(5); });
  EXPECT_EQ(queue.pending_events(), 6u);
  queue.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1, 3, 4, 5}));
  EXPECT_EQ(queue.now(), TimePoint(10));
}

// One randomized script, played against either queue.  Every decision is
// drawn from the run's own generator as events execute, so two queues that
// pop in the same order consume identical draws — any divergence in order
// shows up as a diverging log.
template <typename Queue>
class ScriptRun {
 public:
  struct Step {
    int id;
    int64_t now_ms;
    size_t pending;
    bool operator==(const Step&) const = default;
  };

  explicit ScriptRun(uint32_t seed) : rng_(seed) {}

  std::vector<Step> Play() {
    for (const int64_t delay : {0, 7, 25}) {
      lane_delays_.push_back(Duration::Millis(delay));
      if constexpr (std::is_same_v<Queue, EventQueue>) {
        lanes_.push_back(queue_.AddLane(Duration::Millis(delay)));
      }
    }
    for (int i = 0; i < 40; ++i) {
      SpawnHeap(Draw(0, 60));
    }
    for (int i = 0; i < 10; ++i) {
      SpawnLane(static_cast<size_t>(Draw(0, 2)));
    }
    // The arrival batch: sorted times with plenty of ties.
    std::vector<TimePoint> times;
    for (int i = 0; i < 60; ++i) {
      times.push_back(TimePoint(Draw(0, 80)));
    }
    std::sort(times.begin(), times.end());
    const int first_arrival = next_id_;
    next_id_ += static_cast<int>(times.size());
    if constexpr (std::is_same_v<Queue, EventQueue>) {
      queue_.ScheduleArrivals(times, [this, first_arrival](size_t i) {
        Body(first_arrival + static_cast<int>(i), nullptr);
      });
    } else {
      for (size_t i = 0; i < times.size(); ++i) {
        queue_.Schedule(times[i], [this, first_arrival, i]() {
          Body(first_arrival + static_cast<int>(i), nullptr);
        });
      }
    }
    for (int i = 0; i < 20; ++i) {
      SpawnHeap(Draw(0, 60));
    }
    // Run in stretches, then drain; the clock is logged at every boundary.
    for (const int64_t until : {0, 13, 40, 41, 90}) {
      queue_.RunUntil(TimePoint(until));
      log_.push_back({-1, queue_.now().millis_since_origin(),
                      queue_.pending_events()});
    }
    // A cancelled entry last in line: Run() still stops the clock on it.
    queue_.ScheduleAfter(Duration::Millis(500), []() {}).Cancel();
    queue_.Run();
    log_.push_back({-2, queue_.now().millis_since_origin(),
                    queue_.pending_events()});
    log_.push_back({-3, queue_.executed_events(), 0});
    return log_;
  }

 private:
  int64_t Draw(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng_);
  }

  void SpawnHeap(int64_t delay_ms) {
    const int id = next_id_++;
    const size_t index = handles_.size();
    handles_.emplace_back();
    handles_[index] = queue_.ScheduleAfter(
        Duration::Millis(delay_ms),
        [this, id, index]() { Body(id, &handles_[index]); });
  }

  void SpawnLane(size_t lane) {
    const int id = next_id_++;
    const size_t index = handles_.size();
    handles_.emplace_back();
    if constexpr (std::is_same_v<Queue, EventQueue>) {
      handles_[index] = queue_.ScheduleOnLane(
          lanes_[lane], [this, id, index]() { Body(id, &handles_[index]); });
    } else {
      handles_[index] = queue_.ScheduleAfter(
          lane_delays_[lane],
          [this, id, index]() { Body(id, &handles_[index]); });
    }
  }

  void Body(int id, typename Queue::Handle* self) {
    log_.push_back({id, queue_.now().millis_since_origin(),
                    queue_.pending_events()});
    const int64_t budget = 2500;
    if (next_id_ < budget) {
      // Nested scheduling, often at the current millisecond.
      for (int64_t n = Draw(0, 2); n > 0; --n) {
        SpawnHeap(Draw(0, 3) == 0 ? 0 : Draw(1, 30));
      }
      if (Draw(0, 2) == 0) {
        SpawnLane(static_cast<size_t>(Draw(0, 2)));
      }
    }
    // Cancels of any handle ever issued: pending ones, fired ones, and
    // handles whose slot a later event has reused.
    for (int64_t n = Draw(0, 2); n > 0 && !handles_.empty(); --n) {
      handles_[static_cast<size_t>(
                   Draw(0, static_cast<int64_t>(handles_.size()) - 1))]
          .Cancel();
    }
    if (self != nullptr && Draw(0, 9) == 0) {
      self->Cancel();  // From inside the running event: a no-op.
    }
  }

  Queue queue_;
  std::mt19937 rng_;
  // A deque: Body holds a pointer to its own handle while it spawns more.
  std::deque<typename Queue::Handle> handles_;
  std::vector<Duration> lane_delays_;
  std::vector<int> lanes_;
  int next_id_ = 0;
  std::vector<Step> log_;
};

TEST(EventQueueTest, DifferentialAgainstReferenceQueue) {
  for (uint32_t seed = 1; seed <= 30; ++seed) {
    ScriptRun<ReferenceEventQueue> reference(seed);
    ScriptRun<EventQueue> slab(seed);
    const auto expected = reference.Play();
    const auto actual = slab.Play();
    ASSERT_GT(expected.size(), 200u) << "seed " << seed;
    ASSERT_EQ(actual.size(), expected.size()) << "seed " << seed;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].id, expected[i].id)
          << "seed " << seed << " step " << i;
      ASSERT_EQ(actual[i].now_ms, expected[i].now_ms)
          << "seed " << seed << " step " << i;
      ASSERT_EQ(actual[i].pending, expected[i].pending)
          << "seed " << seed << " step " << i;
    }
  }
}

TEST(EventQueueTest, SteadyStateSchedulesWithoutAllocating) {
  EventQueue queue;
  const int lane = queue.AddLane(Duration::Millis(50));
  int64_t sink = 0;
  const auto round = [&]() {
    for (int i = 0; i < 2000; ++i) {
      const int64_t payload = i;
      EventQueue::Handle handle = queue.ScheduleAfter(
          Duration::Millis(i % 37),
          [&sink, payload]() { sink += payload; });
      EventQueue::Handle timer =
          queue.ScheduleOnLane(lane, [&sink]() { ++sink; });
      if (i % 3 == 0) {
        handle.Cancel();
      }
      if (i % 2 == 0) {
        timer.Cancel();
      }
    }
    queue.Run();
  };
  round();  // Warms the slab, the heap and the lane.
  const int64_t before = g_operator_new_calls;
  round();
  round();
  const int64_t allocations = g_operator_new_calls - before;
  EXPECT_EQ(allocations, 0);
  EXPECT_GT(sink, 0);
}

// The FIFO window the ring + open-addressing DedupWindow replaced, kept
// verbatim as its oracle.
struct ReferenceDedupWindow {
  std::unordered_map<int64_t, bool> entries;  // id -> cached reply.
  std::deque<int64_t> order;

  bool Contains(int64_t id) const { return entries.count(id) > 0; }
  void Insert(int64_t id, bool value, size_t capacity) {
    entries.emplace(id, value);
    order.push_back(id);
    while (order.size() > capacity) {
      entries.erase(order.front());
      order.pop_front();
    }
  }
};

void ExpectSameWindow(const DedupWindow& window,
                      const ReferenceDedupWindow& reference, int64_t max_id) {
  ASSERT_EQ(window.size(), reference.entries.size());
  for (int64_t id = -2; id <= max_id; ++id) {
    const std::optional<bool> found = window.Find(id);
    const auto it = reference.entries.find(id);
    ASSERT_EQ(found.has_value(), it != reference.entries.end()) << "id " << id;
    if (found.has_value()) {
      ASSERT_EQ(*found, it->second) << "id " << id;
    }
  }
}

TEST(DedupWindowTest, EvictsAtTheCapacityBoundary) {
  DedupWindow window(3);
  for (int64_t id = 1; id <= 3; ++id) {
    window.Insert(id, id % 2 == 0);
  }
  EXPECT_TRUE(window.Contains(1));
  EXPECT_EQ(window.size(), 3u);
  window.Insert(4, true);  // One past the boundary: the oldest leaves.
  EXPECT_FALSE(window.Contains(1));
  EXPECT_TRUE(window.Contains(2));
  EXPECT_TRUE(window.Contains(4));
  // Re-inserted after its eviction: back, with the new value.
  window.Insert(1, true);
  EXPECT_EQ(window.Find(1), std::optional<bool>(true));
  EXPECT_FALSE(window.Contains(2));
}

TEST(DedupWindowTest, CapacityOneHoldsOnlyTheNewest) {
  DedupWindow window(1);
  window.Insert(7, false);
  EXPECT_TRUE(window.Contains(7));
  window.Insert(8, true);
  EXPECT_FALSE(window.Contains(7));
  EXPECT_EQ(window.Find(8), std::optional<bool>(true));
  EXPECT_EQ(window.size(), 1u);
}

TEST(DedupWindowTest, MatchesReferenceWindow) {
  std::mt19937 rng(424242);
  for (const size_t capacity : {1u, 2u, 3u, 7u, 64u, 300u}) {
    for (const int64_t id_range : {4, 40, 2000}) {
      DedupWindow window(capacity);
      ReferenceDedupWindow reference;
      std::uniform_int_distribution<int64_t> id_dist(-2, id_range);
      std::bernoulli_distribution coin(0.5);
      for (int op = 0; op < 3000; ++op) {
        const int64_t id = id_dist(rng);
        const bool value = coin(rng);
        // The plane inserts only unseen ids; the oracle also defines
        // inserting a held id (first value kept, a second FIFO copy).
        if (coin(rng) || !reference.Contains(id)) {
          window.Insert(id, value);
          reference.Insert(id, value, capacity);
        }
        if (op % 97 == 0 || capacity <= 3) {
          ExpectSameWindow(window, reference, id_range);
        }
      }
      ExpectSameWindow(window, reference, id_range);
    }
  }
}

}  // namespace
}  // namespace faas
