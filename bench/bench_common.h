// Shared setup for the per-figure benchmark binaries.
//
// Every bench regenerates one table/figure from the paper: it builds the
// calibrated synthetic trace, runs the relevant pipeline, and prints the
// same rows/series the paper plots, alongside the paper's anchor numbers
// ("paper vs measured").  Absolute match is not expected — the substrate is
// a simulator, not Azure — but the shape (who wins, by what factor, where
// crossovers fall) must hold.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/common/rng.h"
#include "src/trace/transform.h"
#include "src/trace/types.h"
#include "src/workload/config.h"
#include "src/workload/generator.h"

namespace faas {

// Two-week trace for the Section 3 characterization figures (1-8).
inline Trace MakeCharacterizationTrace() {
  GeneratorConfig config;
  config.num_apps = 1500;
  config.days = 14;
  config.seed = 20190715;  // The trace collection start date.
  return WorkloadGenerator(config).Generate();
}

// One-week trace for the Section 5 policy experiments (the paper uses the
// first week of its trace as simulator input).
inline Trace MakePolicyTrace() {
  GeneratorConfig config;
  config.num_apps = 1200;
  config.days = 7;
  config.seed = 20190715;
  config.instants_rate_cap_per_day = 4000.0;
  return WorkloadGenerator(config).Generate();
}

// The cluster benches' replay slice.  "Mid-range popularity" selects the
// population the fixed keep-alive handles worst and pre-warming handles
// best: apps whose typical inter-arrival time sits between several minutes
// and an hour (the paper's Figure 12 left column), with enough weekly
// invocations to exercise the policy.  FaaSProfiler replays the trace with
// short benchmark functions rather than the original code, so each
// function's average execution time is redrawn uniformly from
// [exec_lo_ms, exec_lo_ms + exec_span_ms), in app then function order.
inline Trace SelectMidPopularitySlice(const Trace& full, size_t count,
                                      Duration horizon, uint64_t seed,
                                      double exec_lo_ms,
                                      double exec_span_ms) {
  const Trace candidates = FilterApps(full, [](const AppTrace& app) {
    return InvocationCountBetween(40, 5'000)(app) &&
           MedianIatBetween(Duration::Minutes(5), Duration::Minutes(60))(app);
  });
  Trace slice = ClipToHorizon(SampleApps(candidates, count, seed), horizon);
  Rng rng(seed);
  for (AppTrace& app : slice.apps) {
    for (FunctionTrace& function : app.functions) {
      const double avg_ms = exec_lo_ms + exec_span_ms * rng.NextDouble();
      function.execution.average_ms = avg_ms;
      function.execution.minimum_ms = 0.7 * avg_ms;
      function.execution.maximum_ms = 2.0 * avg_ms;
    }
  }
  return slice;
}

inline void PrintBenchHeader(const std::string& figure,
                             const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("==============================================================\n");
}

inline void PrintPaperVsMeasured(const std::string& metric, double paper,
                                 double measured, const std::string& unit) {
  std::printf("  %-52s paper=%8.2f%s  measured=%8.2f%s\n", metric.c_str(),
              paper, unit.c_str(), measured, unit.c_str());
}

}  // namespace faas

#endif  // BENCH_BENCH_COMMON_H_
