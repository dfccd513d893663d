// The overload-control flags shared by policy_eval and serve: one spelling
// per knob, durations with ms/s/m/h/d suffixes (bare numbers are seconds).
//
//   --admission-queue N       bounded admission queue of N entries
//   --admission-discipline P  fifo | lifo | codel (default fifo)
//   --queue-max-wait D        shed queued work older than D (default 30s)
//   --hedge D                 hedge cold-start-prone work after a fixed D
//   --hedge-percentile P      hedge after the live latency percentile P
//   --concurrency-cap N       per-invoker/executor concurrent-execution cap
//   --breaker                 circuit breakers with the default knobs
//   --breaker-window N --breaker-threshold F --breaker-open D
//   --breaker-latency-ms X    completions slower than X ms count as bad
//
// Any breaker-* flag also turns the breakers on.

#ifndef TOOLS_OVERLOAD_FLAGS_H_
#define TOOLS_OVERLOAD_FLAGS_H_

#include <cstdio>
#include <optional>
#include <string>

#include "src/cluster/overload.h"
#include "src/faults/fault_plan.h"
#include "tools/flags.h"

namespace faas {

inline constexpr const char* kOverloadFlagNames[] = {
    "admission-queue",   "admission-discipline", "queue-max-wait",
    "hedge",             "hedge-percentile",     "concurrency-cap",
    "breaker",           "breaker-window",       "breaker-threshold",
    "breaker-open",      "breaker-latency-ms",
};

// Reads a duration flag with ms/s/m/h/d suffixes (bare numbers = seconds);
// nullopt when absent or malformed (malformed also prints a diagnostic).
inline std::optional<Duration> GetDurationFlag(const FlagParser& flags,
                                               const std::string& name) {
  if (!flags.Has(name)) {
    return std::nullopt;
  }
  const auto parsed = ParseDuration(flags.GetString(name, ""));
  if (!parsed.has_value()) {
    std::fprintf(stderr, "--%s: bad duration '%s'\n", name.c_str(),
                 flags.GetString(name, "").c_str());
  }
  return parsed;
}

// Overrides the knobs given on the command line in `overload`, then
// validates the result.  Returns false (after printing a diagnostic) on a
// malformed flag or an invalid config.
inline bool ParseOverloadFlags(const FlagParser& flags,
                               OverloadControlConfig* overload) {
  if (flags.Has("admission-queue")) {
    overload->admission.capacity =
        static_cast<int>(flags.GetInt("admission-queue", -1));
  }
  if (flags.Has("admission-discipline")) {
    const auto discipline = ParseAdmissionDiscipline(
        flags.GetString("admission-discipline", ""));
    if (!discipline.has_value()) {
      std::fprintf(stderr,
                   "--admission-discipline: want fifo, lifo or codel\n");
      return false;
    }
    overload->admission.discipline = *discipline;
  }
  const struct {
    const char* name;
    Duration* field;
  } durations[] = {
      {"queue-max-wait", &overload->admission.max_wait},
      {"hedge", &overload->hedge.after},
      {"breaker-open", &overload->breaker.open_duration},
  };
  for (const auto& duration : durations) {
    if (const auto value = GetDurationFlag(flags, duration.name)) {
      *duration.field = *value;
    } else if (flags.Has(duration.name)) {
      return false;
    }
  }
  if (flags.Has("hedge-percentile")) {
    overload->hedge.latency_percentile =
        flags.GetDouble("hedge-percentile", -1.0);
  }
  if (flags.Has("concurrency-cap")) {
    overload->invoker_concurrency_cap =
        static_cast<int>(flags.GetInt("concurrency-cap", -1));
  }
  CircuitBreakerConfig& breaker = overload->breaker;
  if (flags.GetBool("breaker", false) || flags.Has("breaker-window") ||
      flags.Has("breaker-threshold") || flags.Has("breaker-open") ||
      flags.Has("breaker-latency-ms")) {
    breaker.enabled = true;
  }
  breaker.window =
      static_cast<int>(flags.GetInt("breaker-window", breaker.window));
  breaker.failure_threshold =
      flags.GetDouble("breaker-threshold", breaker.failure_threshold);
  breaker.latency_threshold_ms =
      flags.GetDouble("breaker-latency-ms", breaker.latency_threshold_ms);
  const std::string invalid = overload->Validate();
  if (!invalid.empty()) {
    std::fprintf(stderr, "invalid overload flags: %s\n", invalid.c_str());
    return false;
  }
  return true;
}

}  // namespace faas

#endif  // TOOLS_OVERLOAD_FLAGS_H_
