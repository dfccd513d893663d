// Chaos experiment on the mini-OpenWhisk cluster: the Figure 20 deployment
// (68 mid-popularity apps, 18 invokers, 8 hours) replayed under a canonical
// fault plan — two invoker crashes, one controller policy-state wipe, a
// transient-failure window and a cold-path latency spike — with a bounded
// retry/timeout budget.
//
// The question the paper's Section 5.3 leaves open: does the hybrid policy's
// cold-start advantage survive infrastructure faults, and what does a
// policy-state wipe cost it?  The wipe sends every app back to the standard
// keep-alive (Section 4.3's non-representative fallback) until its histogram
// is representative again, so the hybrid degrades to — never below — the
// fixed baseline's behaviour, and checkpointing removes even that gap.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "bench/series_writer.h"
#include "src/cluster/cluster.h"
#include "src/faults/fault_plan.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"

namespace {

using namespace faas;

// The canonical 8-hour chaos schedule used by EXPERIMENTS.md.
FaultPlan CanonicalPlan() {
  std::string error;
  const auto plan = FaultPlan::Parse(
      "crash:invoker=3,at=2h,down=15m; crash:invoker=11,at=5h,down=10m; "
      "wipe:at=4h; flaky:at=6h,for=10m,p=0.25; spike:at=3h,for=30m,x=4",
      &error);
  if (!plan.has_value()) {
    std::fprintf(stderr, "bad canonical plan: %s\n", error.c_str());
    std::exit(1);
  }
  return *plan;
}

struct Row {
  const char* label;
  ClusterResult result;
};

}  // namespace

int main() {
  PrintBenchHeader("Chaos / Section 5.3 extension",
                   "hybrid vs fixed keep-alive under a canonical fault plan");
  const Trace full = MakePolicyTrace();
  const Trace slice =
      SelectMidPopularitySlice(full, 68, Duration::Hours(8), 42, 20.0, 100.0);
  std::printf("replaying %zu mid-popularity apps, %lld invocations, 8 hours, "
              "18 invokers\nplan: 2 crashes, 1 policy-state wipe, 1 flaky "
              "window (p=0.25), 1 latency spike (x4)\n",
              slice.apps.size(),
              static_cast<long long>(slice.TotalInvocations()));

  ClusterConfig healthy;
  healthy.num_invokers = 18;
  healthy.invoker_memory_mb = 4096.0;

  ClusterConfig chaos = healthy;
  chaos.faults = CanonicalPlan();
  chaos.retry.max_retries = 3;
  chaos.retry.activation_timeout = Duration::Minutes(2);

  ClusterConfig chaos_ckpt = chaos;
  chaos_ckpt.policy_checkpoint_interval = Duration::Minutes(30);

  const FixedKeepAliveFactory fixed(Duration::Minutes(10));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};

  std::vector<Row> rows;
  rows.push_back({"fixed-10 healthy",
                  ClusterSimulator(healthy).Replay(slice, fixed)});
  rows.push_back({"hybrid healthy",
                  ClusterSimulator(healthy).Replay(slice, hybrid)});
  rows.push_back({"fixed-10 chaos",
                  ClusterSimulator(chaos).Replay(slice, fixed)});
  rows.push_back({"hybrid chaos",
                  ClusterSimulator(chaos).Replay(slice, hybrid)});
  rows.push_back({"hybrid chaos+ckpt",
                  ClusterSimulator(chaos_ckpt).Replay(slice, hybrid)});

  SeriesWriter series(
      "chaos_cluster",
      {"config", "cold_p50_pct", "rejected_outage", "abandoned", "lost",
       "retries", "retry_successes", "degraded_recoveries",
       "degraded_seconds", "mean_billed_ms"});
  std::printf("\n%-20s %9s %9s %8s %6s %8s %9s %10s %10s\n", "config",
              "cold p50", "rejected", "abandon", "lost", "retries",
              "retry-ok", "degr-recov", "billed ms");
  for (const Row& row : rows) {
    const ClusterResult& r = row.result;
    std::printf("%-20s %8.1f%% %9lld %8lld %6lld %8lld %9lld %10lld %10.1f\n",
                row.label, r.AppColdStartPercentile(50.0),
                static_cast<long long>(r.total_rejected_outage),
                static_cast<long long>(r.total_abandoned),
                static_cast<long long>(r.total_lost),
                static_cast<long long>(r.faults.retries_scheduled),
                static_cast<long long>(r.faults.retry_successes),
                static_cast<long long>(r.faults.degraded_recoveries),
                r.MeanBilledExecutionMs());
    series.Row(row.label, r.AppColdStartPercentile(50.0),
               r.total_rejected_outage, r.total_abandoned, r.total_lost,
               r.faults.retries_scheduled, r.faults.retry_successes,
               r.faults.degraded_recoveries, r.faults.total_degraded_ms / 1e3,
               r.MeanBilledExecutionMs());
  }

  const double hybrid_healthy_p50 = rows[1].result.AppColdStartPercentile(50.0);
  const double fixed_chaos_p50 = rows[2].result.AppColdStartPercentile(50.0);
  const double hybrid_chaos_p50 = rows[3].result.AppColdStartPercentile(50.0);
  const double hybrid_ckpt_p50 = rows[4].result.AppColdStartPercentile(50.0);
  std::printf("\nheadlines:\n");
  std::printf("  hybrid keeps its cold-start lead under chaos: "
              "%.1f%% vs fixed %.1f%% (healthy hybrid %.1f%%)\n",
              hybrid_chaos_p50, fixed_chaos_p50, hybrid_healthy_p50);
  std::printf("  checkpointing recovers %.1f of the %.1f pp wipe penalty\n",
              hybrid_chaos_p50 - hybrid_ckpt_p50,
              hybrid_chaos_p50 - hybrid_healthy_p50);
  return 0;
}
