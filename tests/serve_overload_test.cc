// The overload core driven by the serve plane's AdmissionBridge on a
// synthetic clock: requests enter through OnRequest at chosen nanosecond
// instants and the TimerWheel is advanced by hand, so every completion,
// hedge and breaker timer runs on that clock.  The scenarios mirror
// overload_test's cluster ones (latency-tripped breakers, a failure burst
// that opens then heals, hedges that never double count) so both drivers
// are held to the same rules.

#include <cstdint>

#include <gtest/gtest.h>

#include "src/serve/bridge.h"

namespace faas {
namespace {

constexpr int64_t kMs = 1'000'000;

// Drives one bridge: a request every `period_ns` from 0 to `end_ns`, the
// wheel advanced every `step_ns` in between, then a drain until nothing is
// in flight.  Counts replies per status.
class Harness {
 public:
  explicit Harness(const AdmissionBridgeConfig& config)
      : wheel_(/*tick_ns=*/100'000, /*num_slots=*/4096),
        bridge_(config, &wheel_, &Harness::OnReply, this) {
    bridge_.StartClock(0);
  }

  // `burst` requests arrive together at each instant.
  void Run(int64_t period_ns, int64_t end_ns, int burst = 1,
           int64_t step_ns = 100'000) {
    uint32_t function_id = 0;
    for (int64_t t = 0; t < end_ns; t += step_ns) {
      wheel_.Advance(t);
      if (t % period_ns != 0) {
        continue;
      }
      for (int i = 0; i < burst; ++i) {
        RequestFrame frame;
        frame.request_id = ++requests_;
        frame.function_id = function_id++;
        bridge_.OnRequest(/*conn_token=*/0, frame, t);
      }
    }
    // Timers left after the drain (a breaker's cool-down, a suppressed
    // hedge) fire harmlessly; only executions must finish.
    bridge_.Drain(end_ns);
    for (int64_t t = end_ns; bridge_.inflight() > 0; t += step_ns) {
      wheel_.Advance(t);
      ASSERT_LT(t, end_ns + 10'000 * kMs) << "bridge never went idle";
    }
  }

  const AdmissionBridge& bridge() const { return bridge_; }
  int64_t requests() const { return requests_; }
  int64_t replies() const { return replies_; }
  int64_t ok() const { return ok_; }

 private:
  static void OnReply(void* ctx, uint64_t /*conn_token*/,
                      const ReplyFrame& reply) {
    auto* harness = static_cast<Harness*>(ctx);
    ++harness->replies_;
    if (reply.status == ReplyStatus::kOk) {
      ++harness->ok_;
    }
  }

  TimerWheel wheel_;
  AdmissionBridge bridge_;
  int64_t requests_ = 0;
  int64_t replies_ = 0;
  int64_t ok_ = 0;
};

TEST(ServeCircuitBreakerTest, LatencyThresholdCountsSlowCompletionsAsBad) {
  // Healthy executor, but every 10 ms execution blows the 1 ms latency
  // budget: the latency signal alone must trip the breaker.
  AdmissionBridgeConfig config;
  config.num_executors = 1;
  config.service_time_us = 10'000;
  config.overload.breaker.enabled = true;
  config.overload.breaker.window = 8;
  config.overload.breaker.min_samples = 4;
  config.overload.breaker.latency_threshold_ms = 1.0;
  Harness slow(config);
  slow.Run(/*period_ns=*/30 * kMs, /*end_ns=*/600 * kMs);
  EXPECT_GE(slow.bridge().ledger().breaker_opens, 1);
  EXPECT_EQ(slow.replies(), slow.requests());

  // Without the latency signal the same run never trips.
  config.overload.breaker.latency_threshold_ms = 0.0;
  Harness quiet(config);
  quiet.Run(30 * kMs, 600 * kMs);
  EXPECT_EQ(quiet.bridge().ledger().breaker_opens, 0);
  EXPECT_EQ(quiet.ok(), quiet.requests());
}

TEST(ServeCircuitBreakerTest, OpensOnFailureBurstThenRecovers) {
  // A 20x service-time spike over the first 600 ms makes every completion
  // blow the 5 ms budget; the breaker opens, cools down, half-opens into
  // bad probes while the spike lasts, and closes once probes are fast.
  AdmissionBridgeConfig config;
  config.num_executors = 1;
  config.service_time_us = 1'000;
  config.chaos.spikes.push_back(
      {Duration::Zero(), Duration::Millis(600), 20.0});
  CircuitBreakerConfig& breaker = config.overload.breaker;
  breaker.enabled = true;
  breaker.window = 8;
  breaker.min_samples = 4;
  breaker.failure_threshold = 0.5;
  breaker.latency_threshold_ms = 5.0;
  breaker.open_duration = Duration::Millis(150);
  breaker.half_open_probes = 2;
  Harness harness(config);
  harness.Run(/*period_ns=*/10 * kMs, /*end_ns=*/2'000 * kMs);

  const OverloadLedger& ledger = harness.bridge().ledger();
  EXPECT_GE(ledger.breaker_opens, 1);
  EXPECT_GE(ledger.breaker_half_opens, 1);
  EXPECT_GE(ledger.breaker_closes, 1);
  EXPECT_GT(ledger.breaker_rejections, 0);
  EXPECT_EQ(ledger.breaker_open_intervals, ledger.breaker_closes);
  EXPECT_GT(ledger.total_breaker_open_ms, 0.0);
  EXPECT_GE(ledger.max_breaker_open_ms, 150.0);
  // Rejected while open, served again after the spike; one reply each.
  EXPECT_GT(harness.bridge().stats().rejected, 0);
  EXPECT_GT(harness.ok(), 0);
  EXPECT_EQ(harness.replies(), harness.requests());
}

TEST(ServeCircuitBreakerTest, HedgeZombiesAreOutcomes) {
  // Every cold request hedges onto the other executor after 5 ms; the
  // primary answers in ~20 ms (under the 22 ms budget) and the losing hedge
  // finishes as a zombie ~25 ms after arrival (over it).  Each executor
  // sees as many zombie outcomes as good ones, so the breaker trips only
  // because zombies count.
  AdmissionBridgeConfig config;
  config.num_executors = 2;
  config.service_time_us = 20'000;
  config.keep_alive_ms = 1;
  config.overload.hedge.after = Duration::Millis(5);
  config.overload.breaker.enabled = true;
  config.overload.breaker.window = 8;
  config.overload.breaker.min_samples = 4;
  config.overload.breaker.latency_threshold_ms = 22.0;
  Harness harness(config);
  harness.Run(/*period_ns=*/100 * kMs, /*end_ns=*/1'000 * kMs);
  EXPECT_GT(harness.bridge().stats().hedge_zombies, 0);
  EXPECT_GE(harness.bridge().ledger().breaker_opens, 1);
}

TEST(ServeHedgeTest, PrimaryUsuallyWinsAndNothingDoubleCounts) {
  // Widely spaced requests under a 1 ms keep-alive are all cold, so each
  // arms a hedge on the other executor; the primary finishes first and the
  // hedge completes as a zombie.  Pairs arriving together under a cap of
  // one fill both executors, so their hedges find no room (unplaced).
  AdmissionBridgeConfig config;
  config.num_executors = 2;
  config.service_time_us = 20'000;
  config.keep_alive_ms = 1;
  config.overload.hedge.after = Duration::Millis(5);
  config.overload.invoker_concurrency_cap = 1;
  Harness spaced(config);
  spaced.Run(/*period_ns=*/100 * kMs, /*end_ns=*/3'000 * kMs);
  Harness pairs(config);
  pairs.Run(/*period_ns=*/100 * kMs, /*end_ns=*/1'000 * kMs, /*burst=*/2);

  for (const Harness* harness : {&spaced, &pairs}) {
    const OverloadLedger& ledger = harness->bridge().ledger();
    EXPECT_GT(ledger.hedges_launched, 0);
    EXPECT_EQ(ledger.hedge_wins + ledger.hedge_primary_wins +
                  ledger.hedges_unplaced,
              ledger.hedges_launched);
    // Every placed hedge pair leaves exactly one zombie execution.
    EXPECT_EQ(harness->bridge().stats().hedge_zombies,
              ledger.hedge_wins + ledger.hedge_primary_wins);
    EXPECT_EQ(harness->ok(), harness->requests());
    EXPECT_EQ(harness->replies(), harness->requests());
    EXPECT_EQ(harness->bridge().stats().served(), harness->requests());
  }
  EXPECT_GT(spaced.bridge().ledger().hedge_primary_wins, 0);
  EXPECT_EQ(spaced.bridge().ledger().hedges_unplaced, 0);
  EXPECT_GT(pairs.bridge().ledger().hedges_unplaced, 0);
}

}  // namespace
}  // namespace faas
