#include "src/cluster/controller.h"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/trace/entity_index.h"
#include "src/workload/arrival.h"

namespace faas {
namespace {

// Ships a different keep-alive on every decision: 1, 2, 3, ... minutes.
class CountingKeepAlivePolicy final : public KeepAlivePolicy {
 public:
  void RecordIdleTime(Duration /*idle_time*/) override {}
  PolicyDecision NextWindows() override {
    PolicyDecision decision;
    decision.keepalive_window = Duration::Minutes(++decisions_);
    return decision;
  }
  std::string name() const override { return "counting"; }

 private:
  int64_t decisions_ = 0;
};

class CountingKeepAliveFactory final : public PolicyFactory {
 public:
  std::unique_ptr<KeepAlivePolicy> CreateForApp() const override {
    return std::make_unique<CountingKeepAlivePolicy>();
  }
  std::string name() const override { return "counting"; }
};

// Every latency sample pinned to its median.
LatencyModel FixedLatency() {
  LatencyModel latency;
  latency.container_init_sigma = 0.0;
  latency.runtime_bootstrap_sigma = 0.0;
  latency.dispatch_sigma = 0.0;
  return latency;
}

class ControllerTest : public ::testing::Test {
 protected:
  // Wires the overload hooks the way the cluster replay does.
  void Build(int num_invokers, double memory_mb, const PolicyFactory& factory,
             const OverloadControlConfig& overload = {},
             const LatencyModel& latency = {}) {
    invokers_.clear();
    invoker_ptrs_.clear();
    Rng rng(11);
    for (int i = 0; i < num_invokers; ++i) {
      invokers_.push_back(std::make_unique<Invoker>(i, memory_mb, &queue_,
                                                    latency, rng.Fork()));
      invoker_ptrs_.push_back(invokers_.back().get());
    }
    controller_ = std::make_unique<Controller>(
        &queue_, invoker_ptrs_, &entities_, factory, latency, rng.Fork(),
        /*collect_latencies=*/true, LoadBalancingPolicy::kAppAffinity,
        RetryPolicy{}, overload);
    for (Invoker* invoker : invoker_ptrs_) {
      if (overload.admission.enabled()) {
        invoker->set_release_callback(
            [this]() { controller_->OnCapacityReleased(); });
      }
      invoker->set_concurrency_cap(overload.invoker_concurrency_cap);
    }
  }

  // Interns (idempotently) and invokes; tests keep addressing apps by name.
  void Invoke(const std::string& app, Duration execution,
              double memory_mb = 128.0) {
    const AppId app_id = entities_.AddApp("o", app);
    const FunctionId function_id = entities_.AddFunction(app_id, "f");
    controller_->OnInvocation(app_id, function_id, execution, memory_mb);
  }

  const Controller::AppStats& Stats(const std::string& app) {
    return controller_->StatsFor(entities_.AddApp("o", app));
  }

  EventQueue queue_;
  EntityIndex entities_;
  std::vector<std::unique_ptr<Invoker>> invokers_;
  std::vector<Invoker*> invoker_ptrs_;
  std::unique_ptr<Controller> controller_;
};

TEST_F(ControllerTest, CountsInvocationsAndColdStarts) {
  const FixedKeepAliveFactory factory(Duration::Minutes(10));
  Build(2, 4096.0, factory);
  Invoke("app", Duration::Seconds(1));
  // Advance only 30 seconds (draining the whole queue would also fire the
  // 10-minute keep-alive unload timer).
  queue_.RunUntil(TimePoint(30'000));
  Invoke("app", Duration::Seconds(1));
  queue_.RunUntil(TimePoint(60'000));
  const auto& stats = Stats("app");
  EXPECT_EQ(stats.invocations, 2);
  EXPECT_EQ(stats.cold_starts, 1);  // Second hit is warm.
  EXPECT_EQ(stats.dropped, 0);
}

TEST_F(ControllerTest, FailsOverToAnotherInvoker) {
  const FixedKeepAliveFactory factory(Duration::Minutes(10));
  // Each invoker fits exactly one 128MB container.
  Build(2, 128.0, factory);
  // Two different apps with long executions: the second cannot share the
  // first's invoker (its only slot is busy) and must fail over.
  Invoke("a", Duration::Minutes(5));
  Invoke("b", Duration::Minutes(5));
  queue_.Run();
  EXPECT_EQ(Stats("a").dropped + Stats("b").dropped, 0);
  EXPECT_EQ(invokers_[0]->cold_starts() + invokers_[1]->cold_starts(), 2);
  EXPECT_EQ(invokers_[0]->cold_starts(), 1);
  EXPECT_EQ(invokers_[1]->cold_starts(), 1);
}

TEST_F(ControllerTest, DropsWhenClusterIsFull) {
  const FixedKeepAliveFactory factory(Duration::Minutes(10));
  Build(1, 128.0, factory);
  Invoke("a", Duration::Minutes(5));
  Invoke("b", Duration::Minutes(5));  // No room anywhere: dropped.
  queue_.Run();
  EXPECT_EQ(Stats("a").dropped, 0);
  EXPECT_EQ(Stats("b").dropped, 1);
}

TEST_F(ControllerTest, HybridSchedulesPrewarmAfterLearning) {
  HybridPolicyConfig config;
  config.min_histogram_samples = 3;
  const HybridPolicyFactory factory{config};
  Build(1, 4096.0, factory);
  // Train with a steady 30-minute pattern.
  for (int i = 0; i < 8; ++i) {
    queue_.RunUntil(TimePoint(static_cast<int64_t>(i) * 30 * 60'000));
    Invoke("app", Duration::Seconds(1));
  }
  queue_.Run();
  // After the histogram became representative the container is unloaded
  // after execution and re-created by pre-warm messages.
  EXPECT_GT(invokers_[0]->prewarm_loads(), 0);
  const auto& stats = Stats("app");
  // Early invocations may be cold; the trained tail must be warm.
  EXPECT_LT(stats.cold_starts, 4);
}

TEST_F(ControllerTest, NoPrewarmWhileTrafficIsContinuous) {
  // Sub-minute idle times keep the histogram head at bin 0, so the policy
  // never unloads and no pre-warm messages are ever published; any scheduled
  // pre-warm from a transient decision is cancelled by the next invocation.
  HybridPolicyConfig config;
  config.min_histogram_samples = 2;
  const HybridPolicyFactory factory{config};
  Build(1, 4096.0, factory);
  for (int i = 0; i < 30; ++i) {
    queue_.RunUntil(TimePoint(static_cast<int64_t>(i) * 20'000));
    Invoke("app", Duration::Seconds(1));
  }
  queue_.Run();
  EXPECT_EQ(invokers_[0]->prewarm_loads(), 0);
  EXPECT_EQ(Stats("app").cold_starts, 1);
}

TEST_F(ControllerTest, AffinityFailsOverDuringOutageAndReturnsHome) {
  const FixedKeepAliveFactory factory(Duration::Minutes(10));
  Build(3, 4096.0, factory);
  // The default load balancer is kAppAffinity: "app" hashes to a home
  // invoker and fails over round-robin from there.
  const int home = static_cast<int>(std::hash<std::string>{}("app") % 3);
  const int next = (home + 1) % 3;

  Invoke("app", Duration::Seconds(1));
  queue_.RunUntil(TimePoint(60'000));
  EXPECT_EQ(invokers_[static_cast<size_t>(home)]->cold_starts(), 1);

  // Home goes down (drained, containers kept): the next invocation must
  // fail over to the round-robin successor and cold-start there.
  invokers_[static_cast<size_t>(home)]->SetHealthy(false);
  Invoke("app", Duration::Seconds(1));
  queue_.RunUntil(TimePoint(120'000));
  EXPECT_EQ(invokers_[static_cast<size_t>(next)]->cold_starts(), 1);
  EXPECT_EQ(invokers_[static_cast<size_t>(home)]->cold_starts(), 1);

  // Home recovers: affinity routes back there (draining destroyed its idle
  // container, so the homecoming is a cold start), and the failover target
  // sees no further traffic.
  invokers_[static_cast<size_t>(home)]->SetHealthy(true);
  Invoke("app", Duration::Seconds(1));
  queue_.RunUntil(TimePoint(180'000));
  EXPECT_EQ(invokers_[static_cast<size_t>(home)]->cold_starts(), 2);
  EXPECT_EQ(invokers_[static_cast<size_t>(next)]->cold_starts(), 1);
  EXPECT_EQ(invokers_[static_cast<size_t>(next)]->warm_starts(), 0);
  EXPECT_EQ(Stats("app").dropped, 0);
  EXPECT_EQ(Stats("app").rejected_outage, 0);
}

TEST_F(ControllerTest, MeasuresPolicyOverhead) {
  const HybridPolicyFactory factory{HybridPolicyConfig{}};
  Build(1, 4096.0, factory);
  for (int i = 0; i < 20; ++i) {
    queue_.RunUntil(TimePoint(static_cast<int64_t>(i) * 60'000));
    Invoke("app", Duration::Seconds(1));
  }
  queue_.Run();
  EXPECT_EQ(controller_->policy_invocations(), 20);
  EXPECT_GT(controller_->policy_overhead_mean_us(), 0.0);
  EXPECT_GE(controller_->policy_overhead_max_us(),
            controller_->policy_overhead_mean_us());
}

TEST_F(ControllerTest, CollectsLatencySamples) {
  const FixedKeepAliveFactory factory(Duration::Minutes(10));
  Build(1, 4096.0, factory);
  Invoke("app", Duration::Millis(500));
  queue_.Run();
  ASSERT_EQ(controller_->billed_execution_ms().size(), 1u);
  // Cold start: billed includes container init + bootstrap + execution.
  EXPECT_GT(controller_->billed_execution_ms()[0], 500.0);
  ASSERT_EQ(controller_->end_to_end_latency_ms().size(), 1u);
  EXPECT_GE(controller_->end_to_end_latency_ms()[0],
            controller_->billed_execution_ms()[0] - 1e-9);
}

TEST_F(ControllerTest, ShipsTheDecisionTakenBeforeTheDispatchHop) {
  // Two invocations of one app inside one dispatch hop.  The first is
  // admitted with a 1-minute keep-alive, the second with 2 minutes, and each
  // activation message must carry the decision of its own admission: a
  // message built after the hop would ship the newer 2 minutes twice.
  const CountingKeepAliveFactory factory;
  Build(1, 4096.0, factory, {}, FixedLatency());
  Invoke("app", Duration::Seconds(1), 128.0);
  Invoke("app", Duration::Seconds(1), 256.0);
  // Both execute cold in their own container and finish near t = 1.2 s.
  queue_.RunUntil(TimePoint(30'000));
  EXPECT_EQ(invokers_[0]->cold_starts(), 2);
  EXPECT_EQ(invokers_[0]->memory_in_use_mb(), 384.0);
  // The 128 MB container got the 1-minute keep-alive and is gone by 90 s;
  // the 256 MB one got 2 minutes.
  queue_.RunUntil(TimePoint(90'000));
  EXPECT_EQ(invokers_[0]->memory_in_use_mb(), 256.0);
  queue_.RunUntil(TimePoint(150'000));
  EXPECT_EQ(invokers_[0]->memory_in_use_mb(), 0.0);
}

TEST_F(ControllerTest, DeepDrainServesEveryParkedActivationInOneRelease) {
  // A capped invoker parks a whole second wave.  The first wave's executions
  // all end at one instant, and the single drain their releases coalesce
  // into must serve every parked activation.  The second wave is app "b",
  // then app "a" into the first wave's warm containers, then "b" again: the
  // two "b" activations each evict an idle container, and the release
  // callback that eviction fires samples the drain's stack depth at the
  // first and the last drained item.  An iterative drain serves both from
  // the same frame; one that recursed per item would sit ~kWave frames
  // deeper for the last.
  constexpr int kWave = 10'000;
  const FixedKeepAliveFactory factory(Duration::Minutes(10));
  OverloadControlConfig overload;
  overload.admission.capacity = kWave;
  overload.invoker_concurrency_cap = kWave;
  Build(1, 128.0 * kWave, factory, overload, FixedLatency());
  std::vector<uintptr_t> eviction_frames;
  invokers_[0]->set_release_callback([this, &eviction_frames]() {
    if (invokers_[0]->evictions() >
        static_cast<int64_t>(eviction_frames.size())) {
      eviction_frames.push_back(
          reinterpret_cast<uintptr_t>(__builtin_frame_address(0)));
    }
    controller_->OnCapacityReleased();
  });
  for (int i = 0; i < kWave; ++i) {
    Invoke("a", Duration::Seconds(1));
  }
  Invoke("b", Duration::Seconds(1));
  for (int i = 0; i < kWave - 2; ++i) {
    Invoke("a", Duration::Seconds(1));
  }
  Invoke("b", Duration::Seconds(1));
  queue_.RunUntil(TimePoint(500));
  EXPECT_EQ(controller_->admission_queue_depth(), static_cast<size_t>(kWave));

  queue_.RunUntil(TimePoint(60'000));
  const OverloadLedger& ledger = controller_->overload_ledger();
  EXPECT_EQ(ledger.queued, kWave);
  EXPECT_EQ(ledger.drained, kWave);
  EXPECT_EQ(ledger.TotalShed(), 0);
  EXPECT_EQ(controller_->admission_queue_depth(), 0u);
  EXPECT_EQ(invokers_[0]->cold_starts(), kWave + 2);
  EXPECT_EQ(invokers_[0]->warm_starts(), kWave - 2);
  // Parked together and drained together: every wait is the same.
  ASSERT_EQ(controller_->queue_wait_ms().size(), static_cast<size_t>(kWave));
  for (const double wait_ms : controller_->queue_wait_ms()) {
    ASSERT_EQ(wait_ms, ledger.max_queue_wait_ms);
  }
  EXPECT_GT(ledger.max_queue_wait_ms, 1'000.0);
  ASSERT_EQ(eviction_frames.size(), 2u);
  const uintptr_t spread = eviction_frames[0] > eviction_frames[1]
                               ? eviction_frames[0] - eviction_frames[1]
                               : eviction_frames[1] - eviction_frames[0];
  EXPECT_LT(spread, 4096u);
}

// ---- Golden pins ------------------------------------------------------
//
// Every placement path of the controller (first attempt, retry, admission
// drain, hedge; direct channel and RPC scan) feeds these replays.  Each
// scenario's ledgers are rendered field by field (doubles as hex floats, so
// the rendering is exact) and pinned by an FNV-1a digest of that rendering,
// alongside two readable anchors.  A refactor of the controller that moves
// any of these bits is a behaviour change, not a cleanup.

// Appends `value` and a space; doubles as hex floats, so the text is exact.
template <class T>
void AppendValue(T value, std::string* out) {
  char buffer[48];
  if constexpr (std::is_floating_point_v<T>) {
    std::snprintf(buffer, sizeof(buffer), "%a ", value);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%lld ",
                  static_cast<long long>(value));
  }
  *out += buffer;
}

// Appends every field a ledger declares through VisitMergeFields.
template <class L>
struct LedgerRenderer {
  const L* ledger;
  std::string* out;

  template <class T>
  void Sum(T L::*field) {
    AppendValue(ledger->*field, out);
  }
  template <class T>
  void Max(T L::*field) {
    AppendValue(ledger->*field, out);
  }
  template <class T, unsigned long N>
  void SumArray(T (L::*field)[N]) {
    for (unsigned long i = 0; i < N; ++i) {
      AppendValue((ledger->*field)[i], out);
    }
  }
};

template <class L>
void RenderLedger(const L& ledger, std::string* out) {
  LedgerRenderer<L> renderer{&ledger, out};
  L::VisitMergeFields(renderer);
  *out += '\n';
}

std::string RenderResult(const ClusterResult& result) {
  std::string out;
  RenderLedger(result.faults, &out);
  RenderLedger(result.overload, &out);
  RenderLedger(result.resources, &out);
  AppendValue(result.memory_mb_seconds, &out);
  out += '\n';
  for (const ClusterAppResult& app : result.apps) {
    out += app.app_id + " ";
    for (int64_t count : {app.invocations, app.cold_starts, app.dropped,
                          app.rejected_outage, app.abandoned, app.lost}) {
      AppendValue(count, &out);
    }
    out += '\n';
  }
  return out;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// Six apps with distinct periods, footprints and execution times, plus two
// flash crowds: enough pressure on three small invokers to queue, shed,
// hedge and fail over.
Trace GoldenTrace() {
  Trace trace;
  trace.horizon = Duration::Minutes(30);
  for (int a = 0; a < 6; ++a) {
    AppTrace app;
    app.owner_id = "o";
    app.app_id = "app" + std::to_string(a);
    const double memory_mb = 128.0 * (1 + a % 3);
    app.memory = {memory_mb, memory_mb, memory_mb, 10};
    FunctionTrace function;
    function.function_id = "f";
    function.trigger = TriggerType::kHttp;
    const int64_t period_ms = 20'000 + 37'000 * a;
    for (int64_t t = 1'000 * a; t < trace.horizon.millis(); t += period_ms) {
      function.invocations.push_back(TimePoint(t));
    }
    const double exec_ms = 400.0 + 900.0 * a;
    function.execution = {exec_ms, exec_ms * 0.5, exec_ms * 3.0,
                          static_cast<int64_t>(function.invocations.size())};
    app.functions.push_back(std::move(function));
    trace.apps.push_back(std::move(app));
  }
  FlashCrowdSpec crowd;
  crowd.count = 2;
  crowd.duration = Duration::Minutes(2);
  crowd.fraction = 1.0;
  crowd.events_per_function = 12.0;
  Rng crowd_rng(2024);
  ApplyFlashCrowd(trace, crowd, crowd_rng);
  return trace;
}

struct GoldenScenario {
  bool network;
  LoadBalancingPolicy load_balancing;
  bool hybrid;
  AdmissionDiscipline discipline;
};

ClusterResult ReplayGolden(const Trace& trace, const GoldenScenario& s) {
  ClusterConfig config;
  config.num_invokers = 3;
  config.invoker_memory_mb = 512.0;
  config.seed = 41;
  config.load_balancing = s.load_balancing;
  config.retry.max_retries = 2;
  config.retry.activation_timeout = Duration::Seconds(12);
  config.overload.admission.capacity = 24;
  config.overload.admission.discipline = s.discipline;
  config.overload.admission.max_wait = Duration::Seconds(5);
  config.overload.invoker_concurrency_cap = 2;
  config.overload.breaker.enabled = true;
  config.overload.breaker.window = 8;
  config.overload.breaker.min_samples = 4;
  config.overload.breaker.open_duration = Duration::Seconds(15);
  config.overload.breaker.half_open_probes = 2;
  config.overload.hedge.after = Duration::Millis(300);
  // Short crashes on every invoker in turn, some mid-execution.
  for (int i = 0; i < 9; ++i) {
    config.faults.crashes.push_back(
        {i % 3, TimePoint(90'000 + 190'000 * static_cast<int64_t>(i)),
         Duration::Seconds(15)});
  }
  config.faults.transient_windows.push_back(
      {TimePoint::Origin() + Duration::Minutes(12), Duration::Minutes(3), 0.3});
  if (s.network) {
    config.network.enabled = true;
    config.faults.loss_windows.push_back(
        {-1, TimePoint::Origin(), Duration::Minutes(30), 0.02});
    config.faults.partitions.push_back(
        {2, TimePoint::Origin() + Duration::Minutes(15), Duration::Minutes(1),
         NetDirection::kBoth});
  }
  const ClusterSimulator simulator(config);
  if (s.hybrid) {
    return simulator.Replay(trace, HybridPolicyFactory{HybridPolicyConfig{}});
  }
  return simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
}

struct GoldenPin {
  GoldenScenario scenario;
  uint64_t digest;
  double memory_mb_seconds;
  int64_t cold_starts;
};

TEST(ControllerGoldenTest, LedgersMatchPinnedReplays) {
  using LB = LoadBalancingPolicy;
  using Q = AdmissionDiscipline;
  const GoldenPin pins[] = {
      {{false, LB::kAppAffinity, false, Q::kFifo}, 0x3cb1bfb40561a4f6ull, 0x1.e3296872b020dp+20, 179},
      {{false, LB::kAppAffinity, false, Q::kLifo}, 0x8f76943ee312c037ull, 0x1.e647b020c49bbp+20, 187},
      {{false, LB::kAppAffinity, false, Q::kCoDel}, 0x01da17c00e7e696cull, 0x1.e917560418938p+20, 168},
      {{false, LB::kAppAffinity, true, Q::kFifo}, 0xac67af9faeb8948bull, 0x1.d2c5333333335p+20, 192},
      {{false, LB::kAppAffinity, true, Q::kLifo}, 0x67c434c11958c45eull, 0x1.d07dc083126eap+20, 198},
      {{false, LB::kAppAffinity, true, Q::kCoDel}, 0x40213d673236eb75ull, 0x1.ce008b4395814p+20, 187},
      {{false, LB::kLeastLoaded, false, Q::kFifo}, 0xb057ce92f1d4ec86ull, 0x1.26d415810624dp+21, 241},
      {{false, LB::kLeastLoaded, false, Q::kLifo}, 0x8301644249933c7full, 0x1.29a09ba5e354p+21, 237},
      {{false, LB::kLeastLoaded, false, Q::kCoDel}, 0xf146d7eca43ce462ull, 0x1.2a3f126e978d6p+21, 230},
      {{false, LB::kLeastLoaded, true, Q::kFifo}, 0x59212c3943c6f4b8ull, 0x1.10a6a4dd2f1a9p+21, 248},
      {{false, LB::kLeastLoaded, true, Q::kLifo}, 0xafa9d2828d75dc35ull, 0x1.13fc74bc6a7f2p+21, 249},
      {{false, LB::kLeastLoaded, true, Q::kCoDel}, 0xdd1f2b392ded8cb3ull, 0x1.0f6bc9ba5e355p+21, 246},
      {{true, LB::kAppAffinity, false, Q::kFifo}, 0x548038d97651e7b9ull, 0x1.de253126e978cp+20, 200},
      {{true, LB::kAppAffinity, false, Q::kLifo}, 0xc3dc174e96323bc5ull, 0x1.dd8aa7ef9db23p+20, 193},
      {{true, LB::kAppAffinity, false, Q::kCoDel}, 0xa02509e2823e173aull, 0x1.e09d916872b02p+20, 180},
      {{true, LB::kAppAffinity, true, Q::kFifo}, 0xd2dbf2bcf07afe6bull, 0x1.d2663d70a3d6ep+20, 207},
      {{true, LB::kAppAffinity, true, Q::kLifo}, 0xfbd29d94bcf9f91aull, 0x1.cff2cac083126p+20, 204},
      {{true, LB::kAppAffinity, true, Q::kCoDel}, 0x477b440971c647faull, 0x1.d47e28f5c28f4p+20, 193},
      {{true, LB::kLeastLoaded, false, Q::kFifo}, 0x25ca54c34a66f839ull, 0x1.1f8e051eb851ep+21, 246},
      {{true, LB::kLeastLoaded, false, Q::kLifo}, 0xec88443b826b5acaull, 0x1.1d81883126e98p+21, 232},
      {{true, LB::kLeastLoaded, false, Q::kCoDel}, 0x28179214756b13a2ull, 0x1.1f701a9fbe76cp+21, 238},
      {{true, LB::kLeastLoaded, true, Q::kFifo}, 0xe4d866d0c3328e61ull, 0x1.0cd2e353f7cedp+21, 257},
      {{true, LB::kLeastLoaded, true, Q::kLifo}, 0xd2130b730f39dabbull, 0x1.07e3d60418937p+21, 259},
      {{true, LB::kLeastLoaded, true, Q::kCoDel}, 0xf69ea74f862a5461ull, 0x1.09259ba5e353ep+21, 255},
  };
  const Trace trace = GoldenTrace();
  for (const GoldenPin& pin : pins) {
    const GoldenScenario& s = pin.scenario;
    SCOPED_TRACE(::testing::Message()
                 << "network=" << s.network << " least_loaded="
                 << (s.load_balancing == LB::kLeastLoaded)
                 << " hybrid=" << s.hybrid << " queue="
                 << AdmissionDisciplineName(s.discipline));
    const ClusterResult result = ReplayGolden(trace, s);
    const std::string rendering = RenderResult(result);
    EXPECT_EQ(Fnv1a(rendering), pin.digest) << rendering;
    EXPECT_EQ(result.memory_mb_seconds, pin.memory_mb_seconds);
    EXPECT_EQ(result.total_cold_starts, pin.cold_starts);
  }
}

}  // namespace
}  // namespace faas
