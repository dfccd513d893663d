// Figure 20 + Section 5.3: the "real system" experiment on the
// mini-OpenWhisk cluster simulator.  68 randomly selected mid-popularity
// applications, 18 invokers, 8 hours of trace, hybrid (4-hour range) vs the
// 10-minute fixed keep-alive default.
// Paper: hybrid cuts cold starts sharply (same trend as simulation), reduces
// worker container memory consumption by ~15.6%, and reduces average /
// 99th-percentile function execution time by 32.5% / 82.4% (warm containers
// skip the language-runtime bootstrap).  Policy overhead averaged 835.7us
// in their Scala controller; ARIMA model fits took 26.9ms first / 5.3ms
// refit.

#include <algorithm>
#include <vector>

#include "bench/bench_common.h"
#include "bench/series_writer.h"
#include "src/cluster/cluster.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"

int main() {
  using namespace faas;
  PrintBenchHeader("Figure 20 / Section 5.3",
                   "mini-OpenWhisk cluster replay: hybrid vs fixed");
  const Trace full = MakePolicyTrace();
  const Trace slice =
      SelectMidPopularitySlice(full, 68, Duration::Hours(8), 42, 20.0, 100.0);
  int64_t invocations = slice.TotalInvocations();
  std::printf("replaying %zu mid-popularity apps, %lld invocations, 8 hours, "
              "18 invokers\n(paper: 68 apps, 12383 invocations)\n",
              slice.apps.size(), static_cast<long long>(invocations));

  ClusterConfig config;
  config.num_invokers = 18;
  config.invoker_memory_mb = 4096.0;
  const ClusterSimulator cluster(config);

  const ClusterResult fixed =
      cluster.Replay(slice, FixedKeepAliveFactory(Duration::Minutes(10)));
  const ClusterResult hybrid =
      cluster.Replay(slice, HybridPolicyFactory{HybridPolicyConfig{}});

  SeriesWriter series("fig20_cluster",
                      {"cold_start_pct", "fixed_cdf", "hybrid_cdf"});
  std::printf("\ncold-start CDF over apps (fraction of apps at or below):\n");
  std::printf("%16s %12s %12s\n", "cold-start %", "fixed", "hybrid");
  const Ecdf fixed_cdf = fixed.AppColdStartEcdf();
  const Ecdf hybrid_cdf = hybrid.AppColdStartEcdf();
  for (double pct : {0.0, 5.0, 10.0, 25.0, 50.0, 75.0, 100.0}) {
    std::printf("%15.0f%% %12.3f %12.3f\n", pct,
                fixed_cdf.FractionAtOrBelow(pct),
                hybrid_cdf.FractionAtOrBelow(pct));
    series.Row(pct, fixed_cdf.FractionAtOrBelow(pct),
               hybrid_cdf.FractionAtOrBelow(pct));
  }

  std::printf("\n%-36s %14s %14s\n", "metric", "fixed", "hybrid");
  std::printf("%-36s %14lld %14lld\n", "total cold starts",
              static_cast<long long>(fixed.total_cold_starts),
              static_cast<long long>(hybrid.total_cold_starts));
  std::printf("%-36s %14lld %14lld\n", "pre-warm loads",
              static_cast<long long>(fixed.total_prewarm_loads),
              static_cast<long long>(hybrid.total_prewarm_loads));
  std::printf("%-36s %14.1f %14.1f\n", "avg resident MB per invoker",
              fixed.avg_resident_mb_per_invoker,
              hybrid.avg_resident_mb_per_invoker);
  std::printf("%-36s %14.1f %14.1f\n", "mean billed execution (ms)",
              fixed.MeanBilledExecutionMs(), hybrid.MeanBilledExecutionMs());
  std::printf("%-36s %14.1f %14.1f\n", "p99 billed execution (ms)",
              fixed.BilledExecutionPercentileMs(99.0),
              hybrid.BilledExecutionPercentileMs(99.0));

  std::printf("\nAnchors (paper vs measured):\n");
  PrintPaperVsMeasured(
      "worker memory reduction by hybrid (%)", 15.6,
      100.0 * (1.0 - hybrid.memory_mb_seconds /
                         std::max(fixed.memory_mb_seconds, 1e-9)),
      "%");
  PrintPaperVsMeasured(
      "mean execution-time reduction (%)", 32.5,
      100.0 * (1.0 - hybrid.MeanBilledExecutionMs() /
                         std::max(fixed.MeanBilledExecutionMs(), 1e-9)),
      "%");
  PrintPaperVsMeasured(
      "p99 execution-time reduction (%)", 82.4,
      100.0 * (1.0 - hybrid.BilledExecutionPercentileMs(99.0) /
                         std::max(fixed.BilledExecutionPercentileMs(99.0),
                                  1e-9)),
      "%");
  PrintPaperVsMeasured("policy overhead per invocation (us)", 835.7,
                       hybrid.policy_overhead_mean_us, "");
  std::printf("  (our C++ policy path should be far below the paper's "
              "Scala 835.7us)\n");
  return 0;
}
