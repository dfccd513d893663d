// pareto_sweep: walk the keep-alive / pre-warm policy parameter space and
// emit the goodput x cold-start x cost Pareto frontier.
//
// The grid covers the paper's Figure 15 families — fixed keep-alives of
// 5..120 minutes and hybrid histogram policies with 1..4 hour ranges (with
// and without pre-warming) — and scores every point on three axes from the
// unified ResourceLedger (src/common/resource_ledger.h):
//
//   goodput_pct       100 * (1 - cold starts / invocations): the share of
//                     invocations served warm;
//   cold_start_p75    the paper's headline 3rd-quartile per-app cold-start
//                     percentage;
//   cost_dollars      the ledger's GB-seconds, CPU-seconds and invocation
//                     count priced through the CostModel flags.
//
// A point is on the frontier when no other point is at least as good on all
// three axes and strictly better on one; dominated points are kept in the
// CSV with on_frontier=0 so the full cloud of points can be plotted.
//
// The sweep reuses the streamed sharded engine (EvaluatePoliciesStreamed):
// with --gen-apps the full trace is never materialized — shards come
// straight from the workload generator — so an Azure-scale walk runs in
// bounded memory.  Results are bit-identical at any --threads/--shard-apps.
//
// Usage:
//   pareto_sweep --gen-apps N [--gen-days D=7] [--gen-seed S=42]
//                [--gen-rate-cap R=4000]
//   pareto_sweep --trace DIR [--skip-malformed]
// common flags:
//   [--threads N=0] [--shard-apps N=128] [--max-resident-shards K=4]
//   [--use-exec-times] [--weight-by-memory]
//   [--cost-gb-s X=1.66667e-5]   dollars per GB-second of residency
//   [--cost-cpu-s X=0]           dollars per CPU-second executed
//   [--cost-invoke X=0.20]       dollars per million invocations
//   [--out FILE=results/pareto_frontier.csv]

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/resource_ledger.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/sim/shard_source.h"
#include "src/sim/sweep.h"
#include "src/trace/csv.h"
#include "src/workload/generator.h"
#include "tools/flags.h"

namespace {

using namespace faas;

struct ParetoPoint {
  std::string name;
  double goodput_pct = 0.0;    // Maximize.
  double cold_start_p75 = 0.0; // Minimize.
  double cost_dollars = 0.0;   // Minimize.
  ResourceLedger resources;
  bool on_frontier = true;
};

// `a` dominates `b`: at least as good on every axis, strictly better on one.
bool Dominates(const ParetoPoint& a, const ParetoPoint& b) {
  if (a.goodput_pct < b.goodput_pct || a.cold_start_p75 > b.cold_start_p75 ||
      a.cost_dollars > b.cost_dollars) {
    return false;
  }
  return a.goodput_pct > b.goodput_pct || a.cold_start_p75 < b.cold_start_p75 ||
         a.cost_dollars < b.cost_dollars;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv) || flags.Has("help") ||
      (flags.Has("gen-apps") == flags.Has("trace"))) {
    std::fprintf(
        stderr,
        "usage: pareto_sweep --gen-apps N [--gen-days D] [--gen-seed S]\n"
        "                    [--gen-rate-cap R]\n"
        "       pareto_sweep --trace DIR [--skip-malformed]\n"
        "common:             [--threads N] [--shard-apps N]\n"
        "                    [--max-resident-shards K=4]\n"
        "                    [--use-exec-times] [--weight-by-memory]\n"
        "                    [--cost-gb-s X] [--cost-cpu-s X]\n"
        "                    [--cost-invoke X] [--out FILE]\n");
    return flags.Has("help") ? 0 : 2;
  }

  CostModel cost;
  cost.dollars_per_gb_second = flags.GetDouble("cost-gb-s", 1.66667e-5);
  cost.dollars_per_cpu_second = flags.GetDouble("cost-cpu-s", 0.0);
  cost.dollars_per_million_invocations = flags.GetDouble("cost-invoke", 0.20);

  SimulatorOptions options;
  options.use_execution_times = flags.GetBool("use-exec-times", false);
  options.weight_by_memory = flags.GetBool("weight-by-memory", false);
  options.num_threads = static_cast<int>(flags.GetInt("threads", 0));
  const int shard_apps = static_cast<int>(flags.GetInt("shard-apps", 128));
  StreamingSweepOptions stream;
  stream.max_resident_shards = static_cast<int>(
      flags.GetInt("max-resident-shards", stream.max_resident_shards));
  if (options.num_threads < 0 || shard_apps <= 0 ||
      stream.max_resident_shards <= 0) {
    std::fprintf(stderr, "--threads must be >= 0; --shard-apps and "
                         "--max-resident-shards must be positive\n");
    return 2;
  }
  const std::string out_path =
      flags.GetString("out", "results/pareto_frontier.csv");

  // Policy grid: fixed keep-alives (10-minute baseline first — it defines
  // 100% normalized waste), then hybrid ranges with and without pre-warm.
  std::vector<std::unique_ptr<PolicyFactory>> owned;
  owned.push_back(
      std::make_unique<FixedKeepAliveFactory>(Duration::Minutes(10)));
  for (int minutes : {5, 20, 30, 45, 60, 90, 120}) {
    owned.push_back(
        std::make_unique<FixedKeepAliveFactory>(Duration::Minutes(minutes)));
  }
  for (int hours : {1, 2, 3, 4}) {
    HybridPolicyConfig config;
    config.num_bins = hours * 60;
    owned.push_back(std::make_unique<HybridPolicyFactory>(config));
    config.enable_prewarm = false;
    owned.push_back(std::make_unique<HybridPolicyFactory>(config));
  }
  std::vector<const PolicyFactory*> factories;
  for (const auto& factory : owned) {
    factories.push_back(factory.get());
  }

  // Trace input: streamed straight off the generator, or a sharded view of
  // a materialized CSV trace.
  std::unique_ptr<WorkloadGenerator> generator;
  Trace trace;
  std::unique_ptr<ShardSource> source;
  if (flags.Has("gen-apps")) {
    GeneratorConfig config;
    config.num_apps = static_cast<int>(flags.GetInt("gen-apps", 0));
    if (config.num_apps <= 0) {
      std::fprintf(stderr, "--gen-apps must be positive\n");
      return 2;
    }
    config.days = static_cast<int>(flags.GetInt("gen-days", 7));
    config.seed = static_cast<uint64_t>(flags.GetInt("gen-seed", 42));
    config.instants_rate_cap_per_day = flags.GetDouble("gen-rate-cap", 4000.0);
    config.flash_crowd_count = 0;  // GeneratorShardSource requirement.
    if (!flags.CheckAllRead()) {
      return 2;
    }
    generator = std::make_unique<WorkloadGenerator>(config);
    source = std::make_unique<GeneratorShardSource>(*generator, shard_apps);
    std::printf("generator: %d sampled apps, %d days, seed %llu "
                "(streamed; full trace never materialized)\n",
                config.num_apps, config.days,
                static_cast<unsigned long long>(config.seed));
  } else {
    CsvReadOptions read_options;
    read_options.skip_malformed = flags.GetBool("skip-malformed", false);
    if (!flags.CheckAllRead()) {
      return 2;
    }
    auto read = ReadTraceCsv(flags.GetString("trace", ""), read_options);
    if (!read.ok) {
      std::fprintf(stderr, "failed to read trace: %s\n", read.error.c_str());
      return 1;
    }
    trace = std::move(read.value);
    std::printf("trace: %zu apps, %lld invocations, %d days\n",
                trace.apps.size(),
                static_cast<long long>(trace.TotalInvocations()),
                static_cast<int>(trace.horizon.days()));
    source = std::make_unique<TraceShardSource>(trace, shard_apps);
  }

  std::printf("sweep: %zu policy points, %d shards of %d apps, <=%d "
              "resident\n",
              factories.size(), source->num_shards(), shard_apps,
              stream.max_resident_shards);
  const std::vector<PolicyPoint> points = EvaluatePoliciesStreamed(
      *source, factories, /*baseline_index=*/0, options, stream);

  std::vector<ParetoPoint> pareto;
  pareto.reserve(points.size());
  for (const PolicyPoint& point : points) {
    ParetoPoint p;
    p.name = point.name;
    p.cold_start_p75 = point.cold_start_p75;
    p.resources = point.result.TotalResources();
    const int64_t invocations = p.resources.invocations;
    p.goodput_pct =
        invocations > 0
            ? 100.0 * (1.0 - static_cast<double>(p.resources.cold_loads) /
                                 static_cast<double>(invocations))
            : 0.0;
    p.cost_dollars = p.resources.CostDollars(cost);
    pareto.push_back(std::move(p));
  }
  for (size_t i = 0; i < pareto.size(); ++i) {
    for (size_t j = 0; j < pareto.size(); ++j) {
      if (i != j && Dominates(pareto[j], pareto[i])) {
        pareto[i].on_frontier = false;
        break;
      }
    }
  }

  {
    const std::filesystem::path parent =
        std::filesystem::path(out_path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
    }
    std::ofstream out(out_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << "policy,goodput_pct,cold_start_p75,idle_gb_seconds,"
           "busy_gb_seconds,cpu_seconds,cost_dollars,on_frontier\n";
    char line[512];
    for (const ParetoPoint& p : pareto) {
      std::snprintf(line, sizeof(line), "%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%d\n",
                    p.name.c_str(), p.goodput_pct, p.cold_start_p75,
                    p.resources.idle_gb_seconds(),
                    p.resources.busy_gb_seconds(), p.resources.cpu_seconds(),
                    p.cost_dollars, p.on_frontier ? 1 : 0);
      out << line;
    }
  }

  std::printf("\n%-44s %10s %10s %14s %12s %9s\n", "policy", "goodput",
              "cold p75", "idle GB-s", "cost $", "frontier");
  int frontier = 0;
  for (const ParetoPoint& p : pareto) {
    std::printf("%-44s %9.2f%% %9.2f%% %14.1f %12.4f %9s\n", p.name.c_str(),
                p.goodput_pct, p.cold_start_p75,
                p.resources.idle_gb_seconds(), p.cost_dollars,
                p.on_frontier ? "yes" : "-");
    frontier += p.on_frontier ? 1 : 0;
  }
  std::printf("\n%d of %zu points on the Pareto frontier; wrote %s\n",
              frontier, pareto.size(), out_path.c_str());
  return 0;
}
