// The three replay workloads: streamed sweep, hybrid sweep, cluster replay.
//
// Every workload follows the same shape: set up (repeated, median reported
// as setup_s), then time whole passes until the run's seconds are spent,
// then verify outside the timed region.  A pass is the unit a user waits
// for: one full policy sweep, or one cluster replay under each policy.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"
#include "src/cluster/cluster.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/sim/compiled_trace.h"
#include "src/sim/shard_source.h"
#include "src/sim/simulator.h"
#include "src/sim/sweep.h"
#include "src/trace/entity_index.h"
#include "src/trace/transform.h"
#include "src/workload/arrival.h"
#include "src/workload/generator.h"
#include "workloads.h"

namespace perfbench {

using namespace faas;

namespace {

// Passes per run never fall below this, however long a pass takes, so the
// pass-time median always has company.
constexpr int kMinPasses = 3;
// Set-ups per run; setup_s is their median.  sweep-stream's set-up (plans
// only, under a millisecond) is repeated before every timed pass instead.
constexpr int kSetups = 3;
constexpr int kStreamSetupsPerPass = 3;
// Apps per streamed shard, as in bench_sweep_throughput.
constexpr int kShardApps = 128;

// Owns a policy set and the plain-pointer view the sweep API takes.
struct PolicySet {
  std::vector<std::unique_ptr<PolicyFactory>> owned;
  std::vector<const PolicyFactory*> view;

  void Add(std::unique_ptr<PolicyFactory> factory) {
    view.push_back(factory.get());
    owned.push_back(std::move(factory));
  }
  size_t size() const { return view.size(); }
};

// Wraps every factory of `set` in a TimingPolicyFactory.
PolicySet Timed(const PolicySet& set, PolicyCounters* counters) {
  PolicySet timed;
  for (const PolicyFactory* factory : set.view) {
    timed.Add(std::make_unique<TimingPolicyFactory>(*factory, counters));
  }
  return timed;
}

// The paper's fixed keep-alive grid (Figs. 14/15); fixed-10 is index 1.
PolicySet FixedGrid() {
  PolicySet set;
  for (int minutes : {5, 10, 30, 60, 120}) {
    set.Add(
        std::make_unique<FixedKeepAliveFactory>(Duration::Minutes(minutes)));
  }
  return set;
}

// The Figs. 17/19 ablation set; fixed-10 (the baseline) is index 0.
PolicySet HybridAblation() {
  PolicySet set;
  set.Add(std::make_unique<FixedKeepAliveFactory>(Duration::Minutes(10)));
  set.Add(std::make_unique<HybridPolicyFactory>(HybridPolicyConfig{}));
  HybridPolicyConfig no_arima;
  no_arima.enable_arima = false;
  set.Add(std::make_unique<HybridPolicyFactory>(no_arima));
  HybridPolicyConfig no_prewarm;
  no_prewarm.enable_prewarm = false;
  set.Add(std::make_unique<HybridPolicyFactory>(no_prewarm));
  return set;
}

// Paper-calibrated one-week policy trace, as MakePolicyTrace in bench/.
GeneratorConfig PolicyTraceConfig(uint64_t seed, int apps, int days) {
  GeneratorConfig config;
  config.num_apps = apps;
  config.days = days;
  config.seed = seed;
  config.instants_rate_cap_per_day = 4000.0;
  return config;
}

// Hashes the outputs a policy sweep reports: per-policy p75 and waste,
// per-app cold counts, and the folded ResourceLedger.
std::string SweepDigest(const std::vector<PolicyPoint>& points) {
  Digest digest;
  for (const PolicyPoint& point : points) {
    digest.Add(point.name);
    digest.Add(point.cold_start_p75);
    digest.Add(point.wasted_memory_minutes);
    digest.Add(point.normalized_wasted_memory_pct);
    for (const AppSimResult& app : point.result.apps) {
      digest.Add(app.invocations);
      digest.Add(app.cold_starts);
      digest.Add(app.prewarm_loads);
    }
    digest.AddLedger(point.result.TotalResources());
  }
  return digest.Hex();
}

// Hashes ClusterResult totals and its fault, overload and resource
// ledgers.  The wall-clock policy-overhead fields are left out.
void AddClusterDigest(const ClusterResult& result, Digest& digest) {
  digest.Add(result.policy_name);
  for (int64_t total :
       {result.total_invocations, result.total_cold_starts,
        result.total_warm_starts, result.total_evictions,
        result.total_prewarm_loads, result.total_dropped,
        result.total_rejected_outage, result.total_abandoned,
        result.total_lost}) {
    digest.Add(total);
  }
  for (const ClusterAppResult& app : result.apps) {
    digest.Add(app.invocations);
    digest.Add(app.cold_starts);
  }
  digest.AddLedger(result.faults);
  digest.AddLedger(result.overload);
  digest.AddLedger(result.resources);
  digest.Add(result.memory_mb_seconds);
}

// Wall times of timed passes and the digest check every pass goes through.
struct PassBook {
  std::vector<double> wall_s;

  std::string first_digest;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Record(double wall, const std::string& digest) {
    wall_s.push_back(wall);

    ++attempted;
    if (first_digest.empty()) {
      first_digest = digest;
    } else if (digest != first_digest) {
      ++failed;
    }
  }
};

bool Due(const PassBook& book, int64_t deadline_ns) {
  return static_cast<int>(book.wall_s.size()) < kMinPasses ||
         NowNs() < deadline_ns;
}

int64_t DeadlineNs(const RunOptions& options) {
  return NowNs() + static_cast<int64_t>(options.seconds * 1e9);
}

// End-to-end metrics shared by the replay workloads.  `work_per_pass` is
// simulated invocations x policies of one pass.  Throughput is the work
// completed per second over all timed passes; pass times, per million
// replayed invocations x policies so the inputs of different seeds (which
// differ a little in size) stay comparable, give the latency figures.  On
// the VM the benchmark was tuned on, pass times switch between a fast and a
// slow group (about 1.5x apart) for tens of seconds at a time; the mean
// rate over the run moved less between runs than the median pass did.
void ReportReplay(RunResult& result, const std::vector<double>& setups,
                  const PassBook& book, double work_per_pass,
                  double peak_rss_mb) {
  std::vector<double> ms_per_million;
  double total_s = 0.0;
  for (double wall : book.wall_s) {
    ms_per_million.push_back(wall * 1e3 * 1e6 / work_per_pass);
    total_s += wall;
  }
  const double rate =
      work_per_pass * static_cast<double>(book.wall_s.size()) / total_s;
  result.Set("setup_s", Median(setups), "s");
  result.Set("peak_rss_mb", peak_rss_mb, "MB");
  result.Set("throughput_per_s", rate, "1/s");
  result.Set("latency_p50_ms", Median(ms_per_million), "ms");
  // With fewer than 100 passes this is the slowest pass.
  result.Set("latency_p99_ms", PercentileOf(ms_per_million, 99.0), "ms");
  result.Detail("replay_inv_per_s", rate, "1/s");
  result.Detail("fail_pct",
                100.0 * static_cast<double>(book.failed) /
                    static_cast<double>(std::max<int64_t>(1, book.attempted)),
                "%");
  result.notes["passes"] = std::to_string(book.wall_s.size());
  std::string walls;
  for (double wall : book.wall_s) {
    walls += (walls.empty() ? "" : " ") + std::to_string(wall);
  }
  result.notes["pass_s"] = walls;
  result.notes["setups"] = std::to_string(setups.size());
}

void CheckReference(RunResult& result, const RunOptions& options,
                    const PassBook& book) {
  result.attempted = book.attempted;
  result.failed = book.failed;
  result.digest = book.first_digest;
  result.Check(book.failed == 0, "a pass's digest differs from the first pass");
  if (!options.reference_digest.empty()) {
    result.Check(book.first_digest == options.reference_digest,
                 "digest " + book.first_digest + " != kept reference " +
                     options.reference_digest);
  }
}

// Per-layer pool metrics for one traced pass: process CPU over the region,
// idle thread-time, and T1 / (N * TN).
void ReportPool(RunResult& result, double cpu_s, double wall_s, int threads,
                double efficiency) {
  result.Set("pool.cpu_s", cpu_s, "s");
  result.Set("pool.idle_s",
             std::max(0.0, static_cast<double>(threads) * wall_s - cpu_s), "s");
  result.Set("pool.parallel_efficiency", efficiency, "ratio");
}

// Busy seconds inside policy calls, over every traced pass.
double PolicySeconds(const PolicyCounters& counters) {
  return static_cast<double>(counters.decide_ns.load() +
                             counters.record_ns.load()) /
         1e9;
}

double OverheadPct(const std::vector<double>& traced,
                   const std::vector<double>& untraced) {
  const double base = Median(untraced);
  return base > 0.0 ? 100.0 * (Median(traced) - base) / base : 0.0;
}

}  // namespace

// ---------------------------------------------------------------------------
// sweep-stream

RunResult RunSweepStream(const RunOptions& options) {
  RunResult result;
  const GeneratorConfig config = PolicyTraceConfig(
      options.seed, options.smoke ? 200 : 1200, options.smoke ? 2 : 7);
  const PolicySet grid = FixedGrid();
  constexpr size_t kBaseline = 1;  // fixed-10
  SimulatorOptions sim;
  sim.num_threads = 1;
  StreamingSweepOptions stream;
  stream.max_resident_shards = 2;

  // Set-up: the generator, its pass-1 plans and the shard source.  It takes
  // under a millisecond, so a few readings in a row catch one moment of the
  // host; spare set-ups (on throwaway objects) therefore run before every
  // timed pass, and setup_s is the median over the whole run.
  std::vector<double> setups;
  std::vector<double> plan_s;
  auto set_up = [&](std::unique_ptr<WorkloadGenerator>& generator,
                    std::unique_ptr<GeneratorShardSource>& source) {
    source.reset();
    generator.reset();
    const int64_t start = NowNs();
    generator = std::make_unique<WorkloadGenerator>(config);
    const int64_t plan_start = NowNs();
    generator->PreparePlans();
    plan_s.push_back(SecondsSince(plan_start));
    source = std::make_unique<GeneratorShardSource>(*generator, kShardApps);
    setups.push_back(SecondsSince(start));
  };
  auto spare_set_ups = [&] {
    std::unique_ptr<WorkloadGenerator> generator;
    std::unique_ptr<GeneratorShardSource> source;
    for (int i = 0; i < kStreamSetupsPerPass; ++i) set_up(generator, source);
  };
  std::unique_ptr<WorkloadGenerator> generator;
  std::unique_ptr<GeneratorShardSource> source;
  set_up(generator, source);
  // One warm-up pass outside both set-up and the timed region: the first
  // pass in a process pays page faults for the arenas and result vectors.
  EvaluatePoliciesStreamed(*source, grid.view, kBaseline, sim, stream);

  auto plain_pass = [&](PassBook& book) {
    const int64_t start = NowNs();
    const std::vector<PolicyPoint> points = EvaluatePoliciesStreamed(
        *source, grid.view, kBaseline, sim, stream);
    book.Record(SecondsSince(start), SweepDigest(points));
    return points[0].result.TotalInvocations();
  };

  PassBook book;
  if (!options.trace) {
    int64_t invocations = 0;
    const int64_t deadline = DeadlineNs(options);
    for (int turn = 0; Due(book, deadline); ++turn) {
      const ScopedCpuPin pin(turn);
      spare_set_ups();
      invocations = plain_pass(book);
    }
    const double peak = PeakRssMb();
    ReportReplay(result, setups, book,
                 static_cast<double>(invocations * grid.size()), peak);
    // Verify outside the timed region (and after the RSS reading): the
    // materialized engine on the same config must agree bit for bit.
    const Trace trace = WorkloadGenerator(config).Generate();
    const std::string materialized =
        SweepDigest(EvaluatePolicies(trace, grid.view, kBaseline, sim));
    result.Check(materialized == book.first_digest,
                 "streamed digest != materialized EvaluatePolicies digest");
    result.notes["materialized_digest"] = materialized;
    CheckReference(result, options, book);
    result.notes["invocations_per_policy"] = std::to_string(invocations);
    return result;
  }

  // Traced run: each round runs a plain pass, a traced pass and a direct
  // replay, so all three see the same machine state; per-layer numbers are
  // medians over rounds.
  SpanLog spans;
  ShardCounters shard_counters;
  PolicyCounters policy_counters;
  TimingShardSource timed_source(*generator, kShardApps, &shard_counters,
                                 &spans);
  const PolicySet timed_grid = Timed(grid, &policy_counters);
  const ColdStartSimulator simulator(sim);
  PassBook traced;
  double traced_cpu = 0.0;
  std::vector<double> generate_s, compile_s, direct_s;
  const int64_t deadline = DeadlineNs(options);
  for (int turn = 0; Due(traced, deadline); ++turn) {
    const ScopedCpuPin pin(turn);
    spare_set_ups();
    plain_pass(book);
    {
      const ScopedSpan pass(&spans, "sweep-stream.pass");
      timed_source.set_parent_span(pass.id());
      const int64_t generate0 = shard_counters.generate_ns.load();
      const int64_t compile0 = shard_counters.compile_ns.load();
      const double cpu0 = ProcessCpuSeconds();
      const int64_t start = NowNs();
      const std::vector<PolicyPoint> points = EvaluatePoliciesStreamed(
          timed_source, timed_grid.view, kBaseline, sim, stream);
      traced.Record(SecondsSince(start), SweepDigest(points));
      traced_cpu += ProcessCpuSeconds() - cpu0;
      generate_s.push_back(
          static_cast<double>(shard_counters.generate_ns.load() - generate0) /
          1e9);
      compile_s.push_back(
          static_cast<double>(shard_counters.compile_ns.load() - compile0) /
          1e9);
    }
    // Direct replay: the same shards replayed through the public
    // ColdStartSimulator::SimulateApp, timed per (shard, policy), gives the
    // simulate stage independently of the engine's own bookkeeping.
    const ScopedSpan span(&spans, "sim.direct_replay");
    CompiledTrace arena;
    double direct = 0.0;
    for (int k = 0; k < source->num_shards(); ++k) {
      source->Fill(k, &arena);
      for (const PolicyFactory* factory : grid.view) {
        const int64_t start = NowNs();
        for (size_t i = 0; i < arena.num_apps(); ++i) {
          const std::unique_ptr<KeepAlivePolicy> policy =
              factory->CreateForApp();
          simulator.SimulateApp(arena, i, *policy);
        }
        direct += SecondsSince(start);
      }
    }
    direct_s.push_back(direct);
  }
  const double passes = static_cast<double>(traced.wall_s.size());
  double traced_total = 0.0;
  for (double wall : traced.wall_s) traced_total += wall;
  // Stage sum against the plain pass of the same round (same CPU, seconds
  // apart): medians of the stages and of the walls taken separately could
  // come from rounds on CPUs of different speed.
  std::vector<double> stage_ratios;
  for (size_t r = 0; r < direct_s.size(); ++r) {
    stage_ratios.push_back((generate_s[r] + compile_s[r] + direct_s[r]) /
                           book.wall_s[r]);
  }
  const double stage_error_pct = 100.0 * std::fabs(Median(stage_ratios) - 1.0);
  result.Check(stage_error_pct <= 5.0,
               "sweep-stream stage sum (generate + compile + replay) is " +
                   std::to_string(stage_error_pct) + "% off wall time");
  result.Check(traced.first_digest == book.first_digest,
               "traced pass digest != plain pass digest");

  result.Set("trace_overhead_pct", OverheadPct(traced.wall_s, book.wall_s),
             "pct");
  result.Set("workload.plan_s", Median(plan_s), "s");
  result.Set("workload.generate_s", Median(generate_s), "s");
  result.Set("workload.generated_inv",
             static_cast<double>(shard_counters.generated_inv.load()) / passes,
             "count");
  result.Set("sim.compile_s", Median(compile_s), "s");
  result.Set("sim.replay_s",
             Median(traced.wall_s) - Median(generate_s) - Median(compile_s),
             "s");
  result.Set("sim.replay_direct_s", Median(direct_s), "s");
  result.Set("sim.stage_sum_error_pct", stage_error_pct, "pct");
  policy_counters.Report(result, passes);
  ReportPool(result, traced_cpu / passes, traced_total / passes, 1, 1.0);

  book.attempted += traced.attempted;
  book.failed += traced.failed;
  CheckReference(result, options, book);
  if (!options.trace_path.empty()) spans.WriteChromeTrace(options.trace_path);
  result.notes["spans"] = std::to_string(spans.size());
  return result;
}

// ---------------------------------------------------------------------------
// sweep-hybrid

namespace {

// Seed of the app population the hybrid sweep replays.  The ARIMA fallback
// engages for a handful of apps whose fits dominate the cost, so drawing a
// fresh population per --seed would swing the cost by +-20%; instead every
// run replays the same apps and the seed permutes their order, which moves
// the heavy apps between shards and threads.
constexpr uint64_t kHybridPopulationSeed = 20190715;

void ShuffleApps(Trace& trace, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = trace.apps.size(); i > 1; --i) {
    std::swap(trace.apps[i - 1], trace.apps[rng.UniformInt(i)]);
  }
  trace.entities = EntityIndex::Build(trace);
}

}  // namespace

RunResult RunSweepHybrid(const RunOptions& options) {
  RunResult result;
  const GeneratorConfig config = PolicyTraceConfig(
      kHybridPopulationSeed, options.smoke ? 100 : 400, 7);
  const PolicySet ablation = HybridAblation();
  constexpr size_t kBaseline = 0;  // fixed-10
  const int threads = std::min(4, HardwareThreads());
  SimulatorOptions sim;
  sim.num_threads = threads;

  // Set-up: materialize and compile the trace.
  std::unique_ptr<CompiledTrace> compiled;
  std::vector<double> setups;
  std::vector<double> plan_s;
  std::vector<double> generate_s;
  std::vector<double> compile_s;
  int64_t generated = 0;
  for (int i = 0; i < kSetups; ++i) {
    compiled.reset();
    const int64_t start = NowNs();
    WorkloadGenerator generator(config);
    generator.PreparePlans();
    const int64_t planned = NowNs();
    Trace trace = generator.Generate();
    ShuffleApps(trace, options.seed);
    const int64_t generated_at = NowNs();
    compiled = std::make_unique<CompiledTrace>(
        CompiledTrace::Compile(trace, threads));
    const int64_t end = NowNs();
    setups.push_back(static_cast<double>(end - start) / 1e9);
    plan_s.push_back(static_cast<double>(planned - start) / 1e9);
    generate_s.push_back(static_cast<double>(generated_at - planned) / 1e9);
    compile_s.push_back(static_cast<double>(end - generated_at) / 1e9);
    generated = trace.TotalInvocations();
  }

  auto pass = [&](PassBook& book, const PolicySet& set, int num_threads) {
    SimulatorOptions pass_options = sim;
    pass_options.num_threads = num_threads;
    const int64_t start = NowNs();
    const std::vector<PolicyPoint> points =
        EvaluatePolicies(*compiled, set.view, kBaseline, pass_options);
    book.Record(SecondsSince(start), SweepDigest(points));
  };
  const double work = static_cast<double>(compiled->total_invocations()) *
                      static_cast<double>(ablation.size());

  PassBook book;
  PolicyCounters policy_counters;
  const PolicySet timed = Timed(ablation, &policy_counters);
  if (!options.trace) {
    const int64_t deadline = DeadlineNs(options);
    while (Due(book, deadline)) pass(book, ablation, threads);
    ReportReplay(result, setups, book, work, PeakRssMb());
    // Verify: a decorated pass must reproduce the digest, and the hybrid
    // mechanisms this workload exists for must have run.
    PassBook verify;
    pass(verify, timed, threads);
    result.Check(verify.first_digest == book.first_digest,
                 "timing decorators changed the sweep digest");
    result.Check(policy_counters.arima_calls.load() > 0,
                 "no ARIMA decisions on sweep-hybrid");
    result.Check(policy_counters.histogram_calls.load() > 0,
                 "no histogram decisions on sweep-hybrid");
    result.notes["arima_decisions"] =
        std::to_string(policy_counters.arima_calls.load());
    result.notes["histogram_decisions"] =
        std::to_string(policy_counters.histogram_calls.load());
    result.notes["threads"] = std::to_string(threads);
    CheckReference(result, options, book);
    return result;
  }

  SpanLog spans;
  {
    // Set-up stages as spans (last set-up).
    const int64_t now = NowNs();
    spans.Add("setup.plan+generate+compile", 0,
              now - static_cast<int64_t>(setups.back() * 1e9), now);
  }
  PassBook traced;
  double traced_cpu = 0.0;
  const int64_t deadline = DeadlineNs(options);
  while (Due(traced, deadline)) {
    pass(book, ablation, threads);
    const ScopedSpan span(&spans, "sweep-hybrid.pass");
    const double cpu0 = ProcessCpuSeconds();
    pass(traced, timed, threads);
    traced_cpu += ProcessCpuSeconds() - cpu0;
  }
  // 1-thread rerun for parallel efficiency; must match bit for bit.
  PassBook single;
  {
    const ScopedSpan span(&spans, "sweep-hybrid.pass.1thread");
    pass(single, ablation, 1);
  }
  result.Check(single.first_digest == book.first_digest,
               "1-thread digest != " + std::to_string(threads) +
                   "-thread digest");
  result.Check(traced.first_digest == book.first_digest,
               "traced pass digest != plain pass digest");
  result.Check(policy_counters.arima_calls.load() > 0,
               "no ARIMA decisions on sweep-hybrid");
  result.Check(policy_counters.histogram_calls.load() > 0,
               "no histogram decisions on sweep-hybrid");

  const double passes = static_cast<double>(traced.wall_s.size());
  double traced_total = 0.0;
  for (double wall : traced.wall_s) traced_total += wall;
  const double cpu = traced_cpu / passes;
  const double policy_s = PolicySeconds(policy_counters) / passes;
  result.Set("trace_overhead_pct", OverheadPct(traced.wall_s, book.wall_s),
             "pct");
  result.Set("workload.plan_s", Median(plan_s), "s");
  result.Set("workload.generate_s", Median(generate_s), "s");
  result.Set("workload.generated_inv", static_cast<double>(generated), "count");
  result.Set("sim.compile_s", Median(compile_s), "s");
  // Thread-seconds in the simulator outside policy calls.
  result.Set("sim.replay_s", std::max(0.0, cpu - policy_s), "s");
  policy_counters.Report(result, passes);
  const double efficiency =
      single.wall_s[0] / (static_cast<double>(threads) * Median(book.wall_s));
  ReportPool(result, cpu, traced_total / passes, threads, efficiency);

  book.attempted += traced.attempted + single.attempted;
  book.failed += traced.failed + single.failed;
  CheckReference(result, options, book);
  if (!options.trace_path.empty()) spans.WriteChromeTrace(options.trace_path);
  result.notes["spans"] = std::to_string(spans.size());
  return result;
}

// ---------------------------------------------------------------------------
// cluster-replay

namespace {

struct ClusterInput {
  Trace slice;
  double generate_s = 0.0;
  double plan_s = 0.0;
  int64_t generated_inv = 0;
};

// Seed of the app population the cluster slice is drawn from, of its
// execution times and of the crowd placement.  All are fixed so that runs
// on different --seed values replay equally heavy inputs: the queue path
// dominates the cost and its share follows the crowds, and with execution
// times drawn per seed the pass time differed by up to 12 % between seeds
// (longer executions keep more activations and events in flight).  The
// seed drives the cluster's own randomness (latency draws, network).
constexpr uint64_t kClusterPopulationSeed = 20190715;

// A mid-popularity slice (the bench_overload_cluster family) over half a
// day, with synchronized flash crowds that recruit every app so the
// admission queue fills in each crowd.
ClusterInput MakeClusterInput(const RunOptions& options) {
  ClusterInput input;
  const GeneratorConfig config = PolicyTraceConfig(
      kClusterPopulationSeed, 1200, 2);
  WorkloadGenerator generator(config);
  const int64_t start = NowNs();
  generator.PreparePlans();
  const int64_t planned = NowNs();
  const Trace full = generator.Generate();
  input.plan_s = static_cast<double>(planned - start) / 1e9;
  input.generate_s = SecondsSince(planned);
  input.generated_inv = full.TotalInvocations();

  const Trace candidates = FilterApps(full, [](const AppTrace& app) {
    return InvocationCountBetween(40, 5'000)(app) &&
           MedianIatBetween(Duration::Minutes(5), Duration::Minutes(60))(app);
  });
  input.slice = ClipToHorizon(
      SampleApps(candidates, 100, kClusterPopulationSeed),
      Duration::Hours(options.smoke ? 3 : 12));
  Rng rng(kClusterPopulationSeed);
  for (AppTrace& app : input.slice.apps) {
    for (FunctionTrace& function : app.functions) {
      const double avg_ms = 500.0 + 2'000.0 * rng.NextDouble();
      function.execution.average_ms = avg_ms;
      function.execution.minimum_ms = 0.7 * avg_ms;
      function.execution.maximum_ms = 2.0 * avg_ms;
    }
  }
  FlashCrowdSpec crowd;
  crowd.count = 6;
  crowd.duration = Duration::Minutes(3);
  crowd.fraction = 1.0;
  crowd.events_per_function = 10.0;
  Rng crowd_rng(kClusterPopulationSeed ^ 0x5EEDC0DEull);
  ApplyFlashCrowd(input.slice, crowd, crowd_rng);
  return input;
}

ClusterConfig ReplayClusterConfig(uint64_t seed) {
  ClusterConfig config;
  config.seed = seed;
  config.num_invokers = 18;
  config.collect_latencies = false;
  config.network.enabled = true;
  config.retry.max_retries = 2;
  config.retry.activation_timeout = Duration::Minutes(2);
  config.overload.admission.capacity = 32;
  config.overload.admission.discipline = AdmissionDiscipline::kFifo;
  config.overload.admission.max_wait = Duration::Seconds(15);
  config.overload.breaker.enabled = true;
  config.overload.invoker_concurrency_cap = 2;
  return config;
}

}  // namespace

RunResult RunClusterReplay(const RunOptions& options) {
  RunResult result;
  PolicySet policies;
  policies.Add(std::make_unique<FixedKeepAliveFactory>(Duration::Minutes(10)));
  policies.Add(std::make_unique<HybridPolicyFactory>(HybridPolicyConfig{}));
  const ClusterSimulator simulator(ReplayClusterConfig(options.seed));

  std::vector<double> setups;
  ClusterInput input;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t start = NowNs();
    input = MakeClusterInput(options);
    setups.push_back(SecondsSince(start));
  }
  const Trace& slice = input.slice;

  // One pass replays the slice under every policy.
  std::vector<ClusterResult> last;
  auto pass = [&](PassBook& book, const PolicySet& set, SpanLog* spans) {
    const ScopedSpan pass_span(spans, "cluster-replay.pass");
    std::vector<ClusterResult> results;
    Digest digest;
    const int64_t start = NowNs();
    for (const PolicyFactory* factory : set.view) {
      const ScopedSpan span(spans, "cluster.replay." + factory->name(),
                            pass_span.id());
      results.push_back(simulator.Replay(slice, *factory));
    }
    const double wall = SecondsSince(start);
    for (const ClusterResult& r : results) AddClusterDigest(r, digest);
    book.Record(wall, digest.Hex());
    last = std::move(results);
  };
  auto work = [&] {
    double total = 0.0;
    for (const ClusterResult& r : last) {
      total += static_cast<double>(r.total_invocations);
    }
    return total;
  };
  auto check_engaged = [&] {
    int64_t queued = 0;
    for (const ClusterResult& r : last) {
      queued += r.overload.queued;
      result.Check(r.faults.net_messages_sent > 0,
                   "no network messages in the " + r.policy_name + " replay");
    }
    result.Check(queued > 0, "the admission queue never queued an activation");
    result.notes["admission_queued"] = std::to_string(queued);
  };

  PassBook book;
  if (!options.trace) {
    const int64_t deadline = DeadlineNs(options);
    for (int turn = 0; Due(book, deadline); ++turn) {
      const ScopedCpuPin pin(turn);
      pass(book, policies, nullptr);
    }
    ReportReplay(result, setups, book, work(), PeakRssMb());
    check_engaged();
    result.notes["apps"] = std::to_string(slice.apps.size());
    result.notes["invocations"] = std::to_string(slice.TotalInvocations());
    CheckReference(result, options, book);
    return result;
  }

  SpanLog spans;
  PolicyCounters policy_counters;
  const PolicySet timed = Timed(policies, &policy_counters);
  PassBook traced;
  double traced_cpu = 0.0;
  const int64_t deadline = DeadlineNs(options);
  for (int turn = 0; Due(traced, deadline); ++turn) {
    const ScopedCpuPin pin(turn);
    pass(book, policies, nullptr);
    const double cpu0 = ProcessCpuSeconds();
    pass(traced, timed, &spans);
    traced_cpu += ProcessCpuSeconds() - cpu0;
  }
  check_engaged();
  result.Check(traced.first_digest == book.first_digest,
               "traced pass digest != plain pass digest");

  const double passes = static_cast<double>(traced.wall_s.size());
  double traced_total = 0.0;
  for (double wall : traced.wall_s) traced_total += wall;
  const double wall = traced_total / passes;
  const double policy_s = PolicySeconds(policy_counters) / passes;
  int64_t invocations = 0, messages = 0, retransmits = 0, queued = 0, shed = 0,
          evictions = 0, prewarms = 0;
  double overhead_us = 0.0;
  for (const ClusterResult& r : last) {
    invocations += r.total_invocations;
    messages += r.faults.net_messages_sent;
    retransmits += r.faults.rpc_retransmits;
    queued += r.overload.queued;
    shed += r.overload.TotalShed();
    evictions += r.total_evictions;
    prewarms += r.total_prewarm_loads;
    overhead_us += r.policy_overhead_mean_us / static_cast<double>(last.size());
  }
  result.Set("trace_overhead_pct", OverheadPct(traced.wall_s, book.wall_s),
             "pct");
  result.Set("workload.plan_s", input.plan_s, "s");
  result.Set("workload.generate_s", input.generate_s, "s");
  result.Set("workload.generated_inv", static_cast<double>(input.generated_inv),
             "count");
  policy_counters.Report(result, passes);
  ReportPool(result, traced_cpu / passes, wall, 1, 1.0);
  result.Set("cluster.self_s", wall - policy_s, "s");
  result.Set("cluster.policy_overhead_us_mean", overhead_us, "us");
  result.Set("cluster.net_messages", static_cast<double>(messages), "count");
  result.Set("cluster.messages_per_inv",
             static_cast<double>(messages) /
                 static_cast<double>(std::max<int64_t>(1, invocations)),
             "ratio");
  result.Set("cluster.rpc_retransmits", static_cast<double>(retransmits),
             "count");
  result.Set("cluster.admission_queued", static_cast<double>(queued), "count");
  result.Set("cluster.admission_shed", static_cast<double>(shed), "count");
  result.Set("cluster.evictions", static_cast<double>(evictions), "count");
  result.Set("cluster.prewarm_loads", static_cast<double>(prewarms), "count");

  book.attempted += traced.attempted;
  book.failed += traced.failed;
  CheckReference(result, options, book);
  if (!options.trace_path.empty()) spans.WriteChromeTrace(options.trace_path);
  result.notes["spans"] = std::to_string(spans.size());
  return result;
}

}  // namespace perfbench
