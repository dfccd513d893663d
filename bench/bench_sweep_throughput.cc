// Sweep-engine throughput and memory: end-to-end wall time of a 5-policy
// keep-alive sweep over the one-week policy trace, comparing
//
//   streamed sweep      generator-sourced shards, a window at a time, at
//                       the default residency bound (the full trace is
//                       never materialized)
//   serial-recompile    the seed execution model: one policy after another,
//                       re-merging the trace for every policy point
//   compiled sweep      the shared-CompiledTrace engine at 1/4/8/16 threads
//
// Every row is timed kRepeats times back to back and reports the median wall
// time with its min and max; throughput and speedup derive from the
// medians.  Every row carries the process peak RSS (getrusage high-water
// mark) at the time the row finished; the streamed rows run FIRST so their
// peaks bound streamed memory honestly — once the materialized trace
// exists, ru_maxrss can never go back down.
//
// Writes BENCH_sweep.json ({mode, threads, wall_ms (the median),
// wall_ms_min, wall_ms_max, invocations_per_sec, speedup_vs_seed,
// rss_peak_mb} rows, the 8-thread parallel efficiency, and a host block
// with the core count, CPU model and build type) so successive changes can
// track the perf trajectory; rows are comparable only between files with
// the same host block.  Override the output path with
// FAAS_BENCH_SWEEP_JSON; set it to "off" to skip the file.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench/bench_common.h"
#include "src/common/parallel.h"
#include "src/policy/policy.h"
#include "src/sim/shard_source.h"
#include "src/sim/sweep.h"

namespace {

using namespace faas;

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Timings per row.  A single timing is not enough on a shared host: five
// back-to-back runs of one build read the streamed 4-thread row anywhere
// from 184 to 387 ms.
constexpr int kRepeats = 5;

struct Timing {
  double median_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
};

// Runs `body` kRepeats times and summarizes its wall times.
template <typename F>
Timing TimeRepeated(F&& body) {
  std::vector<double> ms;
  for (int i = 0; i < kRepeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    body();
    ms.push_back(MillisSince(start));
  }
  std::sort(ms.begin(), ms.end());
  return {ms[kRepeats / 2], ms.front(), ms.back()};
}

double PeakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
#else
  return 0.0;
#endif
}

#ifndef FAAS_BUILD_TYPE
#define FAAS_BUILD_TYPE "unknown"
#endif

// The first "model name" of /proc/cpuinfo, or "unknown".
std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) {
      continue;
    }
    const size_t colon = line.find(':');
    const size_t start = colon == std::string::npos
                             ? colon
                             : line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

// `text` as a JSON string literal.
std::string JsonString(const std::string& text) {
  std::string quoted = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      quoted += '\\';
    }
    quoted += c;
  }
  return quoted + "\"";
}

struct Row {
  std::string mode;
  int threads = 1;
  Timing wall;
  double invocations_per_sec = 0.0;
  double speedup_vs_seed = 1.0;
  double rss_peak_mb = 0.0;
};

const std::vector<int>& ThreadCounts() {
  static const std::vector<int> counts = {1, 4, 8, 16};
  return counts;
}

}  // namespace

int main() {
  PrintBenchHeader("Sweep throughput",
                   "streamed + compiled-trace + thread-pool sweep engine");
  GeneratorConfig config;
  config.num_apps = 1200;
  config.days = 7;
  config.seed = 20190715;
  config.instants_rate_cap_per_day = 4000.0;  // As MakePolicyTrace().

  std::vector<std::unique_ptr<PolicyFactory>> owned;
  for (int minutes : {5, 10, 30, 60, 120}) {
    owned.push_back(
        std::make_unique<FixedKeepAliveFactory>(Duration::Minutes(minutes)));
  }
  std::vector<const PolicyFactory*> factories;
  for (const auto& factory : owned) {
    factories.push_back(factory.get());
  }

  std::vector<Row> rows;

  // Phase 1 — streamed sweeps, before anything materializes the full trace,
  // so the rows' RSS peaks genuinely bound the streaming engine.  One
  // generator serves every row: pass 1 (plans) is paid once, and each row
  // re-materializes all shards, a window at a time.
  int64_t invocations = 0;
  double streamed_p75 = 0.0;
  {
    WorkloadGenerator generator(config);
    const GeneratorShardSource source(generator, /*shard_apps=*/128);
    for (int threads : ThreadCounts()) {
      SimulatorOptions options;
      options.num_threads = threads;
      std::vector<PolicyPoint> points;
      const Timing wall = TimeRepeated([&]() {
        points = EvaluatePoliciesStreamed(source, factories,
                                          /*baseline_index=*/1, options);
      });
      invocations = points[0].result.TotalInvocations();
      streamed_p75 = points.back().cold_start_p75;
      const double replayed = static_cast<double>(invocations) *
                              static_cast<double>(factories.size());
      rows.push_back({"streamed sweep", threads, wall,
                      replayed / (wall.median_ms / 1000.0), 0.0,
                      PeakRssMb()});
    }
  }
  std::printf("trace: %d sampled apps, %lld invocations over %d days\n",
              config.num_apps, static_cast<long long>(invocations),
              config.days);
  const double replayed =
      static_cast<double>(invocations) * static_cast<double>(factories.size());

  // Phase 2 — materialize the trace; RSS is tainted from here on.
  const Trace trace = WorkloadGenerator(config).Generate();

  // Seed-equivalent baseline: one policy after another, each call
  // compiling (merging + sorting) the trace from scratch, all on one
  // thread — the execution model EvaluatePolicies had before the sweep
  // engine.
  double seed_wall_ms = 0.0;
  double seed_p75 = 0.0;
  {
    SimulatorOptions options;
    options.num_threads = 1;
    const Timing wall = TimeRepeated([&]() {
      for (const PolicyFactory* factory : factories) {
        seed_p75 = EvaluatePolicies(trace, {factory}, /*baseline_index=*/0,
                                    options)[0]
                       .cold_start_p75;
      }
    });
    seed_wall_ms = wall.median_ms;
    rows.push_back({"serial-recompile (seed)", 1, wall,
                    replayed / (seed_wall_ms / 1000.0), 1.0, PeakRssMb()});
  }

  double compiled_wall_1t = 0.0;
  double compiled_wall_8t = 0.0;
  double last_p75 = 0.0;
  for (int threads : ThreadCounts()) {
    SimulatorOptions options;
    options.num_threads = threads;
    std::vector<PolicyPoint> points;
    const Timing wall = TimeRepeated([&]() {
      points =
          EvaluatePolicies(trace, factories, /*baseline_index=*/1, options);
    });
    const double wall_ms = wall.median_ms;
    last_p75 = points.back().cold_start_p75;
    if (threads == 1) {
      compiled_wall_1t = wall_ms;
    }
    if (threads == 8) {
      compiled_wall_8t = wall_ms;
    }
    rows.push_back({"compiled sweep", threads, wall,
                    replayed / (wall_ms / 1000.0), seed_wall_ms / wall_ms,
                    PeakRssMb()});
  }
  // Streamed speedups are only known now that the seed wall time exists.
  for (Row& row : rows) {
    if (row.mode == "streamed sweep") {
      row.speedup_vs_seed = seed_wall_ms / row.wall.median_ms;
    }
  }
  if (seed_p75 != last_p75 || seed_p75 != streamed_p75) {
    std::printf("WARNING: p75 mismatch: seed %.6f compiled %.6f streamed "
                "%.6f\n",
                seed_p75, last_p75, streamed_p75);
  }

  const int cores = HardwareThreads();
  // With fewer cores than the row's thread count the pool clamps
  // participants to the hardware, so over-subscribed rows measure the clamp,
  // not scaling; efficiency is reported against what the host can express.
  const double efficiency_8t =
      (compiled_wall_8t > 0.0 && compiled_wall_1t > 0.0)
          ? (compiled_wall_1t / compiled_wall_8t) / 8.0
          : 0.0;

  std::printf("\n%-26s %8s %12s %19s %16s %10s %12s\n", "mode", "threads",
              "median ms", "min-max ms", "invocations/s", "speedup",
              "peak rss MB");
  for (const Row& row : rows) {
    std::printf("%-26s %8d %12.1f %9.1f-%-9.1f %16.0f %9.2fx %12.1f\n",
                row.mode.c_str(), row.threads, row.wall.median_ms,
                row.wall.min_ms, row.wall.max_ms, row.invocations_per_sec,
                row.speedup_vs_seed, row.rss_peak_mb);
  }
  std::printf("(wall times: median of %d back-to-back runs)\n", kRepeats);
  std::printf("\n(host has %d hardware threads; rows above that clamp to the "
              "hardware.  RSS is the monotone process high-water mark — the "
              "streamed rows run first so their peaks bound streamed "
              "memory.)\n",
              cores);
  std::printf("8-thread parallel efficiency: %.2f (speedup/8; needs >= 8 "
              "cores to be meaningful)\n",
              efficiency_8t);
  const std::string cpu_model = CpuModel();
  std::printf("host: %d cores, %s, %s build\n", cores, cpu_model.c_str(),
              FAAS_BUILD_TYPE);

  const char* env = std::getenv("FAAS_BENCH_SWEEP_JSON");
  const std::string path = env != nullptr ? env : "BENCH_sweep.json";
  if (path != "off") {
    std::ofstream out(path);
    out << "{\n  \"bench\": \"sweep_throughput\",\n";
    out << "  \"policies\": " << factories.size() << ",\n";
    out << "  \"invocations_per_policy\": " << invocations << ",\n";
    out << "  \"repeats\": " << kRepeats << ",\n";
    out << "  \"host\": {\"cores\": " << cores
        << ", \"cpu_model\": " << JsonString(cpu_model)
        << ", \"build_type\": " << JsonString(FAAS_BUILD_TYPE) << "},\n";
    out << "  \"parallel_efficiency_8t\": " << efficiency_8t << ",\n";
    out << "  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      out << "    {\"mode\": \"" << row.mode << "\", \"threads\": "
          << row.threads << ", \"wall_ms\": " << row.wall.median_ms
          << ", \"wall_ms_min\": " << row.wall.min_ms
          << ", \"wall_ms_max\": " << row.wall.max_ms
          << ", \"invocations_per_sec\": " << row.invocations_per_sec
          << ", \"speedup_vs_seed\": " << row.speedup_vs_seed
          << ", \"rss_peak_mb\": " << row.rss_peak_mb << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
