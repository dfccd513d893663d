// Overload experiment on the mini-OpenWhisk cluster: a flash-crowd trace —
// mid-popularity apps plus synchronized burst trains — replayed against a
// deliberately small invoker fleet, comparing the retry-only baseline with
// the overload control plane at each admission discipline (FIFO, LIFO,
// CoDel) plus hedged dispatch.
//
// The paper provisions its testbed for the diurnal average (Section 5.3);
// this bench asks what happens in the minutes the workload does not
// cooperate.  The headline numbers: terminal failures (shed/dropped work),
// goodput, and the queue-wait price paid for the saved activations.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "bench/series_writer.h"
#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/policy/policy.h"
#include "src/stats/descriptive.h"
#include "src/workload/arrival.h"

namespace {

using namespace faas;

struct Row {
  const char* label;
  ClusterResult result;
};

double PercentileOrZero(const std::vector<double>& samples, double pct) {
  return samples.empty() ? 0.0 : Percentile(samples, pct);
}

}  // namespace

int main() {
  PrintBenchHeader("Overload / flash crowds",
                   "admission queues + breakers vs retry-only under bursts");
  const Trace full = MakePolicyTrace();
  Trace slice = SelectMidPopularitySlice(full, 68, Duration::Hours(8), 42,
                                         500.0, 2'000.0);

  // Three synchronized 10-minute crowds, each recruiting half the apps for
  // ~60 extra invocations per function, stacked on the diurnal curve.
  FlashCrowdSpec crowd;
  crowd.count = 3;
  crowd.duration = Duration::Minutes(10);
  crowd.fraction = 0.5;
  crowd.events_per_function = 60.0;
  Rng crowd_rng(20190715);
  const int64_t organic = slice.TotalInvocations();
  ApplyFlashCrowd(slice, crowd, crowd_rng);
  std::printf("replaying %zu mid-popularity apps over 8 hours on 4 small "
              "invokers\nflash crowds: 3 bursts x 10 min, 50%% of apps, "
              "+%lld invocations on %lld organic\n",
              slice.apps.size(),
              static_cast<long long>(slice.TotalInvocations() - organic),
              static_cast<long long>(organic));

  // A fleet provisioned for the organic load, not the crowds.
  ClusterConfig base;
  base.num_invokers = 4;
  base.invoker_memory_mb = 1024.0;
  base.retry.max_retries = 2;
  base.retry.activation_timeout = Duration::Minutes(2);

  auto with_queue = [&](AdmissionDiscipline discipline) {
    ClusterConfig config = base;
    config.overload.admission.capacity = 128;
    config.overload.admission.discipline = discipline;
    config.overload.admission.max_wait = Duration::Seconds(15);
    config.overload.breaker.enabled = true;
    return config;
  };
  ClusterConfig hedged = with_queue(AdmissionDiscipline::kCoDel);
  hedged.overload.hedge.after = Duration::Millis(750);

  const FixedKeepAliveFactory fixed(Duration::Minutes(10));
  std::vector<Row> rows;
  rows.push_back({"retry-only", ClusterSimulator(base).Replay(slice, fixed)});
  rows.push_back({"queue-fifo",
                  ClusterSimulator(with_queue(AdmissionDiscipline::kFifo))
                      .Replay(slice, fixed)});
  rows.push_back({"queue-lifo",
                  ClusterSimulator(with_queue(AdmissionDiscipline::kLifo))
                      .Replay(slice, fixed)});
  rows.push_back({"queue-codel",
                  ClusterSimulator(with_queue(AdmissionDiscipline::kCoDel))
                      .Replay(slice, fixed)});
  rows.push_back({"codel+hedge",
                  ClusterSimulator(hedged).Replay(slice, fixed)});

  SeriesWriter series(
      "overload_cluster",
      {"config", "goodput_pct", "failed", "shed", "queued", "drained",
       "queue_wait_p50_ms", "queue_wait_p99_ms", "breaker_opens", "hedges",
       "cold_p50_pct"});
  std::printf("\n%-12s %8s %7s %6s %7s %8s %9s %9s %7s %7s %8s\n", "config",
              "goodput", "failed", "shed", "queued", "qw p50", "qw p99",
              "breakers", "hedges", "cold50", "");
  for (const Row& row : rows) {
    const ClusterResult& r = row.result;
    int64_t completed = 0;
    for (const ClusterAppResult& app : r.apps) {
      completed += app.Completed();
    }
    const int64_t failed = r.total_invocations - completed;
    const double goodput =
        100.0 * static_cast<double>(completed) /
        static_cast<double>(r.total_invocations);
    const double p50 = PercentileOrZero(r.queue_wait_ms, 50.0);
    const double p99 = PercentileOrZero(r.queue_wait_ms, 99.0);
    std::printf("%-12s %7.1f%% %7lld %6lld %7lld %7.0fms %8.0fms %9lld "
                "%7lld %7.1f%%\n",
                row.label, goodput, static_cast<long long>(failed),
                static_cast<long long>(r.overload.TotalShed()),
                static_cast<long long>(r.overload.queued), p50, p99,
                static_cast<long long>(r.overload.breaker_opens),
                static_cast<long long>(r.overload.hedges_launched),
                r.AppColdStartPercentile(50.0));
    series.Row(row.label, goodput, failed, r.overload.TotalShed(),
               r.overload.queued, r.overload.drained, p50, p99,
               r.overload.breaker_opens, r.overload.hedges_launched,
               r.AppColdStartPercentile(50.0));
  }

  const auto failures = [](const ClusterResult& r) {
    return r.total_dropped + r.total_rejected_outage + r.total_abandoned +
           r.total_lost;
  };
  std::printf("\nheadlines:\n");
  std::printf("  retry-only loses %lld activations to the crowds; the CoDel "
              "queue loses %lld\n",
              static_cast<long long>(failures(rows[0].result)),
              static_cast<long long>(failures(rows[3].result)));
  std::printf("  queue-wait price at codel: p50 %.0fms / p99 %.0fms over "
              "%lld drained activations\n",
              PercentileOrZero(rows[3].result.queue_wait_ms, 50.0),
              PercentileOrZero(rows[3].result.queue_wait_ms, 99.0),
              static_cast<long long>(rows[3].result.overload.drained));
  return 0;
}
