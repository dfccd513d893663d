// trace_gen: generate a calibrated synthetic FaaS trace and write it in the
// Azure public dataset CSV schema.
//
// Usage:
//   trace_gen --out DIR [--apps N] [--days D] [--seed S] [--rate-cap R]
//             [--flash-crowds N] [--flash-minutes M] [--flash-fraction F]
//             [--flash-events E]
//
// The flash-crowd knobs stack synchronized burst trains on the diurnal
// curve (for overload-control experiments); the default of zero crowds
// leaves the trace identical to earlier generator versions.
//
// The output directory will contain invocations_per_function.dNN.csv (one
// per day), function_durations.csv, and app_memory.csv.

#include <cstdio>

#include "src/trace/csv.h"
#include "src/workload/generator.h"
#include "tools/flags.h"

int main(int argc, char** argv) {
  using namespace faas;
  FlagParser flags;
  if (!flags.Parse(argc, argv) || !flags.Has("out") || flags.Has("help")) {
    std::fprintf(stderr,
                 "usage: trace_gen --out DIR [--apps N=1000] [--days D=7]\n"
                 "                 [--seed S=42] [--rate-cap R=8000]\n"
                 "                 [--flash-crowds N=0] [--flash-minutes M=10]\n"
                 "                 [--flash-fraction F=0.3] [--flash-events E=80]\n");
    return flags.Has("help") ? 0 : 2;
  }

  GeneratorConfig config;
  config.num_apps = static_cast<int>(flags.GetInt("apps", 1000));
  config.days = static_cast<int>(flags.GetInt("days", 7));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.instants_rate_cap_per_day = flags.GetDouble("rate-cap", 8000.0);
  config.flash_crowd_count = static_cast<int>(flags.GetInt("flash-crowds", 0));
  config.flash_crowd_duration =
      Duration::Minutes(flags.GetInt("flash-minutes", 10));
  config.flash_crowd_fraction = flags.GetDouble("flash-fraction", 0.3);
  config.flash_crowd_events_per_function = flags.GetDouble("flash-events", 80.0);
  const std::string out = flags.GetString("out", "");
  if (!flags.CheckAllRead()) {
    return 2;
  }

  std::printf("generating %d apps over %d days (seed %llu)...\n",
              config.num_apps, config.days,
              static_cast<unsigned long long>(config.seed));
  const Trace trace = WorkloadGenerator(config).Generate();
  if (const auto error = trace.Validate(); error.has_value()) {
    std::fprintf(stderr, "internal error: generated invalid trace: %s\n",
                 error->c_str());
    return 1;
  }

  const std::string error = WriteTraceCsv(trace, out);
  if (!error.empty()) {
    std::fprintf(stderr, "write failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %zu apps, %lld functions, %lld invocations to %s\n",
              trace.apps.size(),
              static_cast<long long>(trace.TotalFunctions()),
              static_cast<long long>(trace.TotalInvocations()), out.c_str());
  return 0;
}
