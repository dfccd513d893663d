// Overload-control-plane tests: bounded admission queues (FIFO/LIFO/CoDel),
// load shedding, per-invoker circuit breakers and concurrency caps, hedged
// dispatch, flash-crowd injection, and determinism of the overload ledger.

#include "src/cluster/overload.h"

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/policy/policy.h"
#include "src/workload/arrival.h"

namespace faas {
namespace {

// One app, one function, invocations every `period`, fixed execution time
// (minimum == maximum pins the log-normal sample exactly).
Trace MakeTrace(int invocations, Duration period, Duration execution,
                double memory_mb = 128.0) {
  Trace trace;
  trace.horizon = period * static_cast<double>(invocations + 1);
  AppTrace app;
  app.owner_id = "o";
  app.app_id = "app";
  app.memory = {memory_mb, memory_mb, memory_mb, 10};
  FunctionTrace function;
  function.function_id = "f";
  function.trigger = TriggerType::kHttp;
  for (int i = 0; i < invocations; ++i) {
    function.invocations.push_back(
        TimePoint(static_cast<int64_t>(i) * period.millis()));
  }
  const double exec_ms = static_cast<double>(execution.millis());
  function.execution = {exec_ms, exec_ms, exec_ms, invocations};
  app.functions.push_back(std::move(function));
  trace.apps.push_back(std::move(app));
  return trace;
}

// A burst of `count` invocations all at `at` (saturates a small cluster).
Trace MakeBurstTrace(int count, TimePoint at, Duration execution,
                     Duration horizon, double memory_mb = 128.0) {
  Trace trace;
  trace.horizon = horizon;
  AppTrace app;
  app.owner_id = "o";
  app.app_id = "app";
  app.memory = {memory_mb, memory_mb, memory_mb, 10};
  FunctionTrace function;
  function.function_id = "f";
  function.trigger = TriggerType::kHttp;
  for (int i = 0; i < count; ++i) {
    function.invocations.push_back(at);
  }
  const double exec_ms = static_cast<double>(execution.millis());
  function.execution = {exec_ms, exec_ms, exec_ms, count};
  app.functions.push_back(std::move(function));
  trace.apps.push_back(std::move(app));
  return trace;
}

int64_t TerminalFailures(const ClusterResult& result) {
  return result.total_dropped + result.total_rejected_outage +
         result.total_abandoned + result.total_lost;
}

// ---- Config plumbing ------------------------------------------------------

TEST(OverloadConfigTest, ParseAdmissionDiscipline) {
  EXPECT_EQ(ParseAdmissionDiscipline("fifo"), AdmissionDiscipline::kFifo);
  EXPECT_EQ(ParseAdmissionDiscipline("lifo"), AdmissionDiscipline::kLifo);
  EXPECT_EQ(ParseAdmissionDiscipline("codel"), AdmissionDiscipline::kCoDel);
  EXPECT_FALSE(ParseAdmissionDiscipline("").has_value());
  EXPECT_FALSE(ParseAdmissionDiscipline("FIFO").has_value());
  EXPECT_STREQ(AdmissionDisciplineName(AdmissionDiscipline::kCoDel), "codel");
}

TEST(OverloadConfigTest, DefaultEnablesNothing) {
  const OverloadControlConfig config;
  EXPECT_FALSE(config.AnyEnabled());
  EXPECT_FALSE(config.admission.enabled());
  EXPECT_FALSE(config.breaker.enabled);
  EXPECT_FALSE(config.hedge.enabled());
}

TEST(OverloadClusterTest, DisabledPlaneLeavesLedgerEmpty) {
  const Trace trace =
      MakeTrace(10, Duration::Minutes(1), Duration::Seconds(1));
  ClusterConfig config;
  config.num_invokers = 2;
  const ClusterSimulator simulator(config);
  const ClusterResult result =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_EQ(result.overload, OverloadLedger{});
  EXPECT_TRUE(result.queue_wait_ms.empty());
}

// ---- Admission queue ------------------------------------------------------

TEST(AdmissionQueueTest, DrainsOnContainerRelease) {
  // One invoker with room for exactly one 128MB container; two simultaneous
  // 10-second executions.  Without the queue the second is dropped; with it,
  // the second parks and drains when the first execution releases the slot.
  const Trace trace = MakeBurstTrace(2, TimePoint::Origin(),
                                     Duration::Seconds(10), Duration::Minutes(2));
  ClusterConfig config;
  config.num_invokers = 1;
  config.invoker_memory_mb = 128.0;

  const ClusterResult baseline =
      ClusterSimulator(config).Replay(trace,
                                      FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_EQ(baseline.total_dropped, 1);
  EXPECT_EQ(baseline.overload, OverloadLedger{});

  config.overload.admission.capacity = 4;
  const ClusterResult queued =
      ClusterSimulator(config).Replay(trace,
                                      FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_EQ(queued.total_dropped, 0);
  EXPECT_EQ(queued.overload.queued, 1);
  EXPECT_EQ(queued.overload.drained, 1);
  EXPECT_EQ(queued.overload.TotalShed(), 0);
  // The queued activation waited roughly one execution's worth of time.
  EXPECT_GE(queued.overload.max_queue_wait_ms, 9'000.0);
  ASSERT_EQ(queued.queue_wait_ms.size(), 1u);
  ASSERT_EQ(queued.apps.size(), 1u);
  EXPECT_EQ(queued.apps[0].Completed(), 2);
}

TEST(AdmissionQueueTest, FifoTailDropsArrivalsWhenFull) {
  // 8 simultaneous invocations against one single-slot invoker with a
  // 2-entry FIFO queue: one runs, two park, five are tail-dropped on
  // arrival (they never enter the queue, so queued == drained).
  const Trace trace = MakeBurstTrace(8, TimePoint::Origin(),
                                     Duration::Seconds(5), Duration::Minutes(2));
  ClusterConfig config;
  config.num_invokers = 1;
  config.invoker_memory_mb = 128.0;
  config.overload.admission.capacity = 2;
  config.overload.admission.discipline = AdmissionDiscipline::kFifo;
  const ClusterResult result =
      ClusterSimulator(config).Replay(trace,
                                      FixedKeepAliveFactory(Duration::Minutes(10)));

  EXPECT_EQ(result.overload.shed_queue_full, 5);
  EXPECT_EQ(result.overload.queued, 2);
  EXPECT_EQ(result.overload.drained, 2);
  ASSERT_EQ(result.apps.size(), 1u);
  EXPECT_EQ(result.apps[0].Completed(), 3);
  // Sheds fold into the same per-app column as pre-overload capacity drops.
  EXPECT_EQ(result.apps[0].dropped, 5);
}

TEST(AdmissionQueueTest, LifoShedsOldestToAdmitNewcomer) {
  // Same burst under LIFO: the full queue evicts its OLDEST entry for each
  // newcomer, so every shed victim had been queued first (queued counts
  // both the drained and the shed).
  const Trace trace = MakeBurstTrace(8, TimePoint::Origin(),
                                     Duration::Seconds(5), Duration::Minutes(2));
  ClusterConfig config;
  config.num_invokers = 1;
  config.invoker_memory_mb = 128.0;
  config.overload.admission.capacity = 2;
  config.overload.admission.discipline = AdmissionDiscipline::kLifo;
  const ClusterResult result =
      ClusterSimulator(config).Replay(trace,
                                      FixedKeepAliveFactory(Duration::Minutes(10)));

  EXPECT_EQ(result.overload.shed_queue_full, 5);
  EXPECT_EQ(result.overload.drained, 2);
  EXPECT_EQ(result.overload.queued,
            result.overload.drained + result.overload.shed_queue_full);
  ASSERT_EQ(result.apps.size(), 1u);
  EXPECT_EQ(result.apps[0].Completed(), 3);
}

TEST(AdmissionQueueTest, CoDelShedsOnAgeDeadline) {
  // A deep queue but a 2-second sojourn bound against 60-second executions:
  // queued activations age out instead of waiting forever.
  const Trace trace = MakeBurstTrace(4, TimePoint::Origin(),
                                     Duration::Seconds(60), Duration::Minutes(10));
  ClusterConfig config;
  config.num_invokers = 1;
  config.invoker_memory_mb = 128.0;
  config.overload.admission.capacity = 16;
  config.overload.admission.discipline = AdmissionDiscipline::kCoDel;
  config.overload.admission.max_wait = Duration::Seconds(2);
  const ClusterResult result =
      ClusterSimulator(config).Replay(trace,
                                      FixedKeepAliveFactory(Duration::Minutes(10)));

  EXPECT_EQ(result.overload.queued, 3);
  EXPECT_EQ(result.overload.shed_deadline, 3);
  EXPECT_EQ(result.overload.drained, 0);
  ASSERT_EQ(result.apps.size(), 1u);
  EXPECT_EQ(result.apps[0].Completed(), 1);
}

TEST(AdmissionQueueTest, SaturationIsNotMisclassifiedAsOutage) {
  // Regression: sustained saturation of a HEALTHY cluster must surface as
  // capacity drops/sheds, never as outage rejections — with and without a
  // retry budget configured (retrying against a full cluster is not
  // failover, so the budget must not convert drops into abandons either).
  const Trace trace = MakeBurstTrace(12, TimePoint::Origin(),
                                     Duration::Seconds(30), Duration::Minutes(5));
  ClusterConfig config;
  config.num_invokers = 1;
  config.invoker_memory_mb = 128.0;

  for (const int retries : {0, 3}) {
    config.retry.max_retries = retries;
    config.retry.base_backoff = Duration::Millis(200);
    const ClusterResult plain =
        ClusterSimulator(config).Replay(trace,
                                        FixedKeepAliveFactory(Duration::Minutes(10)));
    EXPECT_GT(plain.total_dropped, 0) << "retries=" << retries;
    EXPECT_EQ(plain.total_rejected_outage, 0) << "retries=" << retries;
    EXPECT_EQ(plain.total_abandoned, 0) << "retries=" << retries;
    EXPECT_EQ(plain.total_lost, 0) << "retries=" << retries;
  }

  // The same burst arriving during an outage is the other failure class.
  ClusterConfig outage_config = config;
  outage_config.retry.max_retries = 0;
  outage_config.outages.push_back(
      {0, Duration::Zero(), Duration::Minutes(4)});
  const ClusterResult outage =
      ClusterSimulator(outage_config)
          .Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_EQ(outage.total_rejected_outage, 12);
  EXPECT_EQ(outage.total_dropped, 0);
}

// ---- Circuit breakers -----------------------------------------------------

TEST(CircuitBreakerTest, OpensOnFailureBurstThenRecovers) {
  // A transient-fault window with p=1 feeds the breaker nothing but bad
  // outcomes; it opens, cools down, half-opens, and closes once probes
  // succeed after the window ends.
  const Trace trace =
      MakeTrace(40, Duration::Seconds(10), Duration::Millis(200));
  ClusterConfig config;
  config.num_invokers = 1;
  config.faults.transient_windows.push_back(
      {TimePoint::Origin(), Duration::Seconds(60), 1.0});
  config.overload.breaker.enabled = true;
  config.overload.breaker.window = 8;
  config.overload.breaker.min_samples = 4;
  config.overload.breaker.failure_threshold = 0.5;
  config.overload.breaker.open_duration = Duration::Seconds(15);
  config.overload.breaker.half_open_probes = 2;
  const ClusterSimulator simulator(config);
  const ClusterResult result =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));

  EXPECT_GE(result.overload.breaker_opens, 1);
  EXPECT_GE(result.overload.breaker_half_opens, 1);
  EXPECT_GE(result.overload.breaker_closes, 1);
  EXPECT_GT(result.overload.breaker_rejections, 0);
  EXPECT_EQ(result.overload.breaker_open_intervals,
            result.overload.breaker_closes);
  EXPECT_GT(result.overload.total_breaker_open_ms, 0.0);
  EXPECT_GE(result.overload.max_breaker_open_ms, 15'000.0);
  // Invocations after the window completes normally again.
  ASSERT_EQ(result.apps.size(), 1u);
  EXPECT_GT(result.apps[0].Completed(), 0);
}

TEST(CircuitBreakerTest, LatencyThresholdCountsSlowCompletionsAsBad) {
  // Healthy invoker, but every 5-second execution blows the 1-second
  // latency budget: the latency signal alone must trip the breaker.
  const Trace trace =
      MakeTrace(20, Duration::Seconds(30), Duration::Seconds(5));
  ClusterConfig config;
  config.num_invokers = 1;
  config.overload.breaker.enabled = true;
  config.overload.breaker.window = 8;
  config.overload.breaker.min_samples = 4;
  config.overload.breaker.latency_threshold_ms = 1'000.0;
  const ClusterSimulator simulator(config);
  const ClusterResult result =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_GE(result.overload.breaker_opens, 1);

  // Without the latency signal the same replay never trips.
  config.overload.breaker.latency_threshold_ms = 0.0;
  const ClusterResult quiet =
      ClusterSimulator(config).Replay(trace,
                                      FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_EQ(quiet.overload.breaker_opens, 0);
}

TEST(CircuitBreakerTest, OpenBreakerBackpressuresIntoAdmissionQueue) {
  // With the queue on, a breaker-rejected dispatch classifies as
  // no-capacity and parks instead of dropping: saturation backpressure,
  // not failover.
  const Trace trace =
      MakeTrace(40, Duration::Seconds(10), Duration::Millis(200));
  ClusterConfig config;
  config.num_invokers = 1;
  config.faults.transient_windows.push_back(
      {TimePoint::Origin(), Duration::Seconds(60), 1.0});
  config.overload.breaker.enabled = true;
  config.overload.breaker.window = 8;
  config.overload.breaker.min_samples = 4;
  config.overload.breaker.open_duration = Duration::Seconds(15);
  config.overload.admission.capacity = 64;
  config.overload.admission.discipline = AdmissionDiscipline::kCoDel;
  config.overload.admission.max_wait = Duration::Minutes(2);
  const ClusterSimulator simulator(config);
  const ClusterResult result =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_GT(result.overload.breaker_rejections, 0);
  EXPECT_GT(result.overload.queued, 0);
}

// ---- Concurrency caps -----------------------------------------------------

TEST(OverloadClusterTest, ConcurrencyCapRejectsExcessExecutions) {
  // Plenty of memory but a cap of one concurrent execution: the second of
  // two simultaneous invocations is refused by the invoker.
  const Trace trace = MakeBurstTrace(2, TimePoint::Origin(),
                                     Duration::Seconds(10), Duration::Minutes(2));
  ClusterConfig config;
  config.num_invokers = 1;
  config.invoker_memory_mb = 4096.0;
  config.overload.invoker_concurrency_cap = 1;
  const ClusterResult result =
      ClusterSimulator(config).Replay(trace,
                                      FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_GE(result.overload.cap_rejections, 1);
  EXPECT_EQ(result.total_dropped, 1);

  // The admission queue absorbs the cap rejection instead.
  config.overload.admission.capacity = 4;
  const ClusterResult queued =
      ClusterSimulator(config).Replay(trace,
                                      FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_EQ(queued.total_dropped, 0);
  EXPECT_EQ(queued.overload.drained, 1);
  ASSERT_EQ(queued.apps.size(), 1u);
  EXPECT_EQ(queued.apps[0].Completed(), 2);
}

// ---- Hedged dispatch ------------------------------------------------------

TEST(HedgeTest, PrimaryUsuallyWinsAndNothingDoubleCounts) {
  // Widely-spaced invocations under a short fixed keep-alive are all
  // cold-start-prone, so each one arms a hedge; whichever attempt finishes
  // first carries the activation and the loser vanishes without a second
  // completion.
  const Trace trace =
      MakeTrace(50, Duration::Minutes(10), Duration::Millis(50));
  ClusterConfig config;
  config.num_invokers = 2;
  config.overload.hedge.after = Duration::Millis(10);
  const ClusterSimulator simulator(config);
  const ClusterResult result =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(1)));

  EXPECT_GT(result.overload.hedges_launched, 0);
  EXPECT_EQ(result.overload.hedge_wins + result.overload.hedge_primary_wins +
                result.overload.hedges_unplaced,
            result.overload.hedges_launched);
  ASSERT_EQ(result.apps.size(), 1u);
  EXPECT_EQ(result.apps[0].invocations, 50);
  EXPECT_EQ(result.apps[0].Completed(), 50);
  EXPECT_EQ(result.total_invocations, 50);
}

TEST(HedgeTest, WarmSteadyTrafficNeverHedges) {
  // Tight 10-second spacing under a 10-minute keep-alive keeps the
  // container warm, so nothing is cold-start-prone and no hedge launches.
  const Trace trace =
      MakeTrace(30, Duration::Seconds(10), Duration::Millis(50));
  ClusterConfig config;
  config.num_invokers = 2;
  config.overload.hedge.after = Duration::Millis(10);
  const ClusterResult result =
      ClusterSimulator(config).Replay(trace,
                                      FixedKeepAliveFactory(Duration::Minutes(10)));
  // Only the very first invocation (never executed before) may hedge.
  EXPECT_LE(result.overload.hedges_launched, 1);
}

TEST(HedgeTest, HedgeSavesActivationFromCrash) {
  // The primary's invoker crashes mid-execution; the hedge, placed on the
  // other invoker, completes and the activation survives without a retry
  // budget.
  const Trace trace = MakeBurstTrace(1, TimePoint::Origin(),
                                     Duration::Seconds(10), Duration::Minutes(2));
  ClusterConfig config;
  config.num_invokers = 2;
  config.overload.hedge.after = Duration::Millis(10);
  // App affinity pins the primary to the app's home invoker; crash it.
  const int home = static_cast<int>(std::hash<std::string>{}("app") % 2);
  config.faults.crashes.push_back(
      {home, TimePoint::Origin() + Duration::Seconds(5),
       Duration::Minutes(1)});
  const ClusterSimulator simulator(config);
  const ClusterResult result =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));

  EXPECT_EQ(result.overload.hedges_launched, 1);
  EXPECT_EQ(result.total_lost, 0);
  ASSERT_EQ(result.apps.size(), 1u);
  EXPECT_EQ(result.apps[0].Completed(), 1);
}

// ---- Flash crowds ---------------------------------------------------------

TEST(FlashCrowdTest, DisabledSpecIsANoOp) {
  Trace trace = MakeTrace(10, Duration::Minutes(1), Duration::Seconds(1));
  const int64_t before = trace.TotalInvocations();
  Rng rng(99);
  ApplyFlashCrowd(trace, FlashCrowdSpec{}, rng);
  EXPECT_EQ(trace.TotalInvocations(), before);
}

TEST(FlashCrowdTest, InjectsDeterministicBursts) {
  FlashCrowdSpec spec;
  spec.count = 3;
  spec.duration = Duration::Minutes(5);
  spec.fraction = 1.0;
  spec.events_per_function = 20.0;

  Trace a = MakeTrace(10, Duration::Hours(1), Duration::Seconds(1));
  const int64_t before = a.TotalInvocations();
  Rng rng_a(1234);
  ApplyFlashCrowd(a, spec, rng_a);
  EXPECT_GT(a.TotalInvocations(), before + 20);
  // Invocation streams stay sorted and inside the horizon, and the per-
  // function stats were refreshed.
  for (const AppTrace& app : a.apps) {
    for (const FunctionTrace& function : app.functions) {
      EXPECT_TRUE(std::is_sorted(function.invocations.begin(),
                                 function.invocations.end()));
      for (TimePoint t : function.invocations) {
        EXPECT_LT(t, TimePoint::Origin() + a.horizon);
      }
      EXPECT_EQ(function.execution.count, function.InvocationCount());
    }
  }

  Trace b = MakeTrace(10, Duration::Hours(1), Duration::Seconds(1));
  Rng rng_b(1234);
  ApplyFlashCrowd(b, spec, rng_b);
  EXPECT_EQ(a.TotalInvocations(), b.TotalInvocations());
  EXPECT_EQ(a.apps[0].functions[0].invocations,
            b.apps[0].functions[0].invocations);

  Trace c = MakeTrace(10, Duration::Hours(1), Duration::Seconds(1));
  Rng rng_c(5678);
  ApplyFlashCrowd(c, spec, rng_c);
  EXPECT_NE(a.apps[0].functions[0].invocations,
            c.apps[0].functions[0].invocations);
}

TEST(OverloadClusterTest, AdmissionQueueReducesFlashCrowdLoss) {
  // A flash crowd against a small cluster: the bounded queue + breaker
  // control plane must terminally fail fewer activations than the
  // retry-only baseline.
  Trace trace = MakeTrace(30, Duration::Minutes(2), Duration::Seconds(5));
  FlashCrowdSpec spec;
  spec.count = 2;
  spec.duration = Duration::Minutes(2);
  spec.fraction = 1.0;
  spec.events_per_function = 40.0;
  Rng crowd_rng(7);
  ApplyFlashCrowd(trace, spec, crowd_rng);

  ClusterConfig config;
  config.num_invokers = 2;
  config.invoker_memory_mb = 256.0;  // Two containers per invoker.
  config.retry.max_retries = 2;
  config.retry.base_backoff = Duration::Millis(200);
  const ClusterResult baseline =
      ClusterSimulator(config).Replay(trace,
                                      FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_GT(TerminalFailures(baseline), 0);

  config.overload.admission.capacity = 256;
  config.overload.admission.discipline = AdmissionDiscipline::kCoDel;
  config.overload.admission.max_wait = Duration::Minutes(1);
  config.overload.breaker.enabled = true;
  const ClusterResult controlled =
      ClusterSimulator(config).Replay(trace,
                                      FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_LT(TerminalFailures(controlled), TerminalFailures(baseline));
  EXPECT_GT(controlled.overload.drained, 0);
}

// ---- Determinism ----------------------------------------------------------

TEST(OverloadClusterTest, LedgerIsDeterministicAcrossThreadCounts) {
  // The full control plane (queue + breaker + hedge + cap) on a flash-crowd
  // trace must produce a bit-identical overload ledger whether replays run
  // sequentially or concurrently on a thread pool.
  Trace trace = MakeTrace(30, Duration::Minutes(1), Duration::Seconds(10));
  FlashCrowdSpec spec;
  spec.count = 2;
  spec.duration = Duration::Minutes(1);
  spec.fraction = 1.0;
  spec.events_per_function = 25.0;
  Rng crowd_rng(11);
  ApplyFlashCrowd(trace, spec, crowd_rng);

  ClusterConfig config;
  config.num_invokers = 2;
  config.invoker_memory_mb = 256.0;
  config.overload.admission.capacity = 32;
  config.overload.admission.discipline = AdmissionDiscipline::kCoDel;
  config.overload.admission.max_wait = Duration::Seconds(20);
  config.overload.breaker.enabled = true;
  config.overload.breaker.window = 8;
  config.overload.breaker.min_samples = 4;
  config.overload.hedge.after = Duration::Millis(500);
  config.overload.invoker_concurrency_cap = 2;
  config.faults.transient_windows.push_back(
      {TimePoint::Origin() + Duration::Minutes(5), Duration::Minutes(2), 0.6});
  const ClusterSimulator simulator(config);

  const ClusterResult reference =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  // The control plane actually engaged in this scenario.
  EXPECT_GT(reference.overload.queued, 0);
  EXPECT_GT(reference.overload.hedges_launched, 0);

  for (int num_threads : {1, 4, 8}) {
    std::vector<ClusterResult> results(4);
    ParallelFor(
        results.size(),
        [&](size_t i) {
          results[i] = simulator.Replay(
              trace, FixedKeepAliveFactory(Duration::Minutes(10)));
        },
        num_threads);
    for (const ClusterResult& result : results) {
      EXPECT_EQ(result.overload, reference.overload);
      EXPECT_EQ(result.faults, reference.faults);
      EXPECT_EQ(result.queue_wait_ms, reference.queue_wait_ms);
      EXPECT_EQ(result.total_cold_starts, reference.total_cold_starts);
      EXPECT_EQ(result.total_dropped, reference.total_dropped);
      EXPECT_EQ(result.memory_mb_seconds, reference.memory_mb_seconds);
    }
  }
}

// ---- Shared core (driven by both the Controller and AdmissionBridge) ------

TEST(OverloadCoreTest, ValidateRejectsOutOfRangeKnobs) {
  EXPECT_EQ(OverloadControlConfig{}.Validate(), "");
  OverloadControlConfig config;
  config.hedge.latency_percentile = 150.0;
  EXPECT_NE(config.Validate(), "");
  config = {};
  config.admission.capacity = -5;
  EXPECT_NE(config.Validate(), "");
  config = {};
  config.breaker.enabled = true;
  config.breaker.window = 0;
  EXPECT_NE(config.Validate(), "");
  // A disabled breaker's knobs are never used, so never checked.
  config.breaker.enabled = false;
  EXPECT_EQ(config.Validate(), "");
}

CircuitBreakerConfig SmallBreaker() {
  CircuitBreakerConfig config;
  config.enabled = true;
  config.window = 4;
  config.min_samples = 2;
  config.failure_threshold = 0.5;
  config.half_open_probes = 2;
  return config;
}

TEST(OverloadCoreTest, BreakerOpensHalfOpensAndCloses) {
  OverloadLedger ledger;
  BreakerBank<SimClock> bank(SmallBreaker(), 2, &ledger);
  const TimePoint t0 = TimePoint::Origin();
  EXPECT_EQ(bank.RecordOutcome(0, /*bad=*/true, t0).kind,
            BreakerTransition::kNone);  // Below min_samples.
  const BreakerTransition opened = bank.RecordOutcome(0, true, t0);
  ASSERT_EQ(opened.kind, BreakerTransition::kOpened);
  EXPECT_FALSE(bank.Admits(0));
  EXPECT_TRUE(bank.Admits(1));  // Breakers are per target.
  EXPECT_EQ(bank.open_count(), 1);
  EXPECT_EQ(bank.RecordOutcome(0, false, t0).kind, BreakerTransition::kNone)
      << "stragglers while open are ignored";

  ASSERT_TRUE(bank.HalfOpen(0, opened.epoch));
  EXPECT_EQ(bank.open_count(), 0);
  EXPECT_TRUE(bank.Admits(0));
  const TimePoint t1 = t0 + Duration::Millis(1'500);
  EXPECT_EQ(bank.RecordOutcome(0, false, t1).kind, BreakerTransition::kNone);
  EXPECT_EQ(bank.RecordOutcome(0, false, t1).kind, BreakerTransition::kClosed);
  EXPECT_TRUE(bank.Admits(0));

  EXPECT_EQ(ledger.breaker_opens, 1);
  EXPECT_EQ(ledger.breaker_half_opens, 1);
  EXPECT_EQ(ledger.breaker_closes, 1);
  EXPECT_EQ(ledger.breaker_open_intervals, 1);
  EXPECT_DOUBLE_EQ(ledger.total_breaker_open_ms, 1'500.0);
}

TEST(OverloadCoreTest, HalfOpenAdmitsAtMostProbeLimit) {
  OverloadLedger ledger;
  BreakerBank<NsClock> bank(SmallBreaker(), 1, &ledger);
  bank.RecordOutcome(0, true, 0);
  const BreakerTransition opened = bank.RecordOutcome(0, true, 0);
  ASSERT_TRUE(bank.HalfOpen(0, opened.epoch));
  bank.NoteDispatch(0);
  EXPECT_TRUE(bank.Admits(0));
  bank.NoteDispatch(0);
  EXPECT_FALSE(bank.Admits(0)) << "both probe slots are taken";
  // Any outcome in half-open releases a slot, probe or not.
  EXPECT_EQ(bank.RecordOutcome(0, false, 0).kind, BreakerTransition::kNone);
  EXPECT_TRUE(bank.Admits(0));
  // A bad probe re-opens; the degraded interval keeps running.
  EXPECT_EQ(bank.RecordOutcome(0, true, 5'000'000).kind,
            BreakerTransition::kOpened);
  EXPECT_EQ(ledger.breaker_open_intervals, 0);
  bank.Finish(/*now=*/7'000'000);
  EXPECT_EQ(ledger.breaker_open_intervals, 1);
  EXPECT_DOUBLE_EQ(ledger.total_breaker_open_ms, 7.0);
}

TEST(OverloadCoreTest, StaleEpochDoesNotHalfOpen) {
  OverloadLedger ledger;
  BreakerBank<NsClock> bank(SmallBreaker(), 1, &ledger);
  bank.RecordOutcome(0, true, 0);
  const BreakerTransition first = bank.RecordOutcome(0, true, 0);
  ASSERT_TRUE(bank.HalfOpen(0, first.epoch));
  const BreakerTransition second = bank.RecordOutcome(0, true, 0);
  ASSERT_EQ(second.kind, BreakerTransition::kOpened);
  EXPECT_NE(second.epoch, first.epoch);
  EXPECT_FALSE(bank.HalfOpen(0, first.epoch)) << "a stale timer fired";
  EXPECT_FALSE(bank.Admits(0));
  EXPECT_TRUE(bank.HalfOpen(0, second.epoch));

  // A reset (the target was rebuilt) closes, books the interval, and
  // invalidates every timer armed before it.
  const BreakerTransition third = bank.RecordOutcome(0, true, 0);
  ASSERT_EQ(third.kind, BreakerTransition::kOpened);
  bank.Reset(0, 2'000'000);
  EXPECT_TRUE(bank.Admits(0));
  EXPECT_EQ(bank.open_count(), 0);
  EXPECT_FALSE(bank.HalfOpen(0, third.epoch));
  EXPECT_EQ(ledger.breaker_open_intervals, 1);
  EXPECT_EQ(ledger.breaker_closes, 0) << "a reset is not a close";
}

TEST(OverloadCoreTest, LifoShedsOldestToAdmitNewcomer) {
  AdmissionQueueConfig config;
  config.capacity = 2;
  config.discipline = AdmissionDiscipline::kLifo;
  AdmissionQueue<int> queue(config);
  OverloadLedger ledger;
  std::vector<int> shed;
  const auto record = [&shed](int victim) { shed.push_back(victim); };
  EXPECT_TRUE(queue.Admit(1, ledger, record));
  EXPECT_TRUE(queue.Admit(2, ledger, record));
  EXPECT_TRUE(queue.Admit(3, ledger, record));
  EXPECT_EQ(shed, (std::vector<int>{1}));
  EXPECT_EQ(ledger.queued, 3);
  EXPECT_EQ(queue.Head(), 3);  // Newest served first.
  queue.PopHead();
  EXPECT_EQ(queue.Head(), 2);
}

TEST(OverloadCoreTest, FifoAndCoDelTailDropTheArrival) {
  for (const AdmissionDiscipline discipline :
       {AdmissionDiscipline::kFifo, AdmissionDiscipline::kCoDel}) {
    AdmissionQueueConfig config;
    config.capacity = 2;
    config.discipline = discipline;
    AdmissionQueue<int> queue(config);
    OverloadLedger ledger;
    std::vector<int> shed;
    const auto record = [&shed](int victim) { shed.push_back(victim); };
    EXPECT_TRUE(queue.Admit(1, ledger, record));
    EXPECT_TRUE(queue.Admit(2, ledger, record));
    EXPECT_FALSE(queue.Admit(3, ledger, record));
    EXPECT_EQ(shed, (std::vector<int>{3}));
    EXPECT_EQ(ledger.queued, 2);
    EXPECT_EQ(queue.Head(), 1);  // Oldest served first.
    // Superseded entries are skipped off the serving end.
    EXPECT_EQ(*queue.LiveHead([](int entry) { return entry != 1; }), 2);
    EXPECT_EQ(queue.size(), 1u);
  }
}

TEST(OverloadCoreTest, HedgeDelayKeepsEachClocksRounding) {
  HedgeConfig config;
  config.after = Duration::Millis(40);
  EXPECT_EQ(HedgeTrigger<SimClock>(config).Delay(), Duration::Millis(40));
  EXPECT_EQ(HedgeTrigger<NsClock>(config).Delay(), 40'000'000);

  // The percentile trigger waits for 32 samples, then floors the estimate
  // at min_after; each clock truncates it at its own resolution.
  config.after = Duration::Zero();
  config.latency_percentile = 50.0;
  config.min_after = Duration::Millis(1);
  HedgeTrigger<SimClock> sim(config);
  HedgeTrigger<NsClock> wall(config);
  for (int i = 0; i < 31; ++i) {
    sim.Observe(Duration::Millis(7));
    wall.Observe(7'500'000);
  }
  EXPECT_EQ(sim.Delay(), Duration::Millis(1));
  EXPECT_EQ(wall.Delay(), 1'000'000);
  sim.Observe(Duration::Millis(7));
  wall.Observe(7'500'000);
  EXPECT_EQ(sim.Delay(), Duration::Millis(7));
  EXPECT_EQ(wall.Delay(), 7'500'000);
}

}  // namespace
}  // namespace faas
