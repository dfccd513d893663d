// Ablation (Section 7): eager keep-alive vs lazy capacity-based caching.
// The paper argues FaaS cold-start management should proactively unload
// rather than behave like a demand-evicted cache.  This bench measures the
// argument: the hybrid policy's time-average resident memory defines a
// budget, and a lazy LRU/LFU cache with that exact budget is replayed on
// the same trace.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/sim/cache_sim.h"
#include "src/sim/sweep.h"

int main() {
  using namespace faas;
  PrintBenchHeader("Ablation: eager vs lazy",
                   "hybrid keep-alive vs LRU/LFU cache at matched memory");
  const Trace trace = MakePolicyTrace();

  SimulatorOptions eager_options;
  eager_options.weight_by_memory = true;
  const HybridPolicyFactory hybrid_factory{HybridPolicyConfig{}};
  const FixedKeepAliveFactory fixed10_factory(Duration::Minutes(10));
  const std::vector<PolicyPoint> points =
      EvaluatePolicies(trace, {&hybrid_factory, &fixed10_factory},
                       /*baseline_index=*/0, eager_options);
  const SimulationResult& hybrid = points[0].result;
  const SimulationResult& fixed10 = points[1].result;

  const double hybrid_budget_mb =
      hybrid.TotalWastedMemoryMinutes() / trace.horizon.minutes();
  const double fixed_budget_mb =
      fixed10.TotalWastedMemoryMinutes() / trace.horizon.minutes();
  std::printf("hybrid avg resident: %.0f MB; fixed-10min: %.0f MB\n\n",
              hybrid_budget_mb, fixed_budget_mb);

  const CacheSimResult lru =
      LazyCacheSimulator({.budget_mb = hybrid_budget_mb}).Run(trace);
  CacheSimOptions lfu_options;
  lfu_options.budget_mb = hybrid_budget_mb;
  lfu_options.eviction = CacheEvictionPolicy::kLeastFrequent;
  const CacheSimResult lfu = LazyCacheSimulator(lfu_options).Run(trace);
  // A generous lazy cache with 4x the memory, for scale.
  const CacheSimResult lru4x =
      LazyCacheSimulator({.budget_mb = 4.0 * hybrid_budget_mb}).Run(trace);

  std::printf("%-34s %14s %14s %16s\n", "policy", "p50 cold", "p75 cold",
              "avg resident MB");
  std::printf("%-34s %13.1f%% %13.1f%% %16.0f\n", "hybrid (eager, 4h range)",
              hybrid.AppColdStartPercentile(50.0),
              hybrid.AppColdStartPercentile(75.0), hybrid_budget_mb);
  std::printf("%-34s %13.1f%% %13.1f%% %16.0f\n", "fixed-10min (eager)",
              fixed10.AppColdStartPercentile(50.0),
              fixed10.AppColdStartPercentile(75.0), fixed_budget_mb);
  std::printf("%-34s %13.1f%% %13.1f%% %16.0f\n", "lazy LRU @ hybrid budget",
              lru.AppColdStartPercentile(50.0),
              lru.AppColdStartPercentile(75.0), lru.avg_resident_mb);
  std::printf("%-34s %13.1f%% %13.1f%% %16.0f\n", "lazy LFU @ hybrid budget",
              lfu.AppColdStartPercentile(50.0),
              lfu.AppColdStartPercentile(75.0), lfu.avg_resident_mb);
  std::printf("%-34s %13.1f%% %13.1f%% %16.0f\n", "lazy LRU @ 4x budget",
              lru4x.AppColdStartPercentile(50.0),
              lru4x.AppColdStartPercentile(75.0), lru4x.avg_resident_mb);

  std::printf("\nShape check (paper's Section 7 argument): at matched memory "
              "the eager\nhybrid policy yields fewer cold starts than lazy "
              "caching, because it can\npre-warm ahead of predicted "
              "invocations instead of waiting for demand.\n");
  const bool holds = hybrid.AppColdStartPercentile(75.0) <
                     lru.AppColdStartPercentile(75.0);
  std::printf("measured: %s\n", holds ? "HOLDS" : "VIOLATED");
  return holds ? 0 : 1;
}
