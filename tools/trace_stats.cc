// trace_stats: the full Section 3 characterization report for a trace in
// the Azure public dataset CSV schema (this library's files or the real
// AzurePublicDataset files).
//
// Usage: trace_stats --trace DIR [--summary-metrics]
//
// --summary-metrics replaces the human-readable report with the same
// Prometheus text exposition format the telemetry subsystem emits
// (policy_eval --metrics-out), so a static trace characterization can be
// scraped or diffed alongside simulation metrics.

#include <cstdio>
#include <iostream>
#include <string>

#include "src/characterization/characterization.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "src/trace/csv.h"
#include "tools/flags.h"

namespace {

using namespace faas;

// Renders the Section 3 characterization into a metrics registry and prints
// it as Prometheus text.  Counters carry the raw totals; gauges carry the
// derived ratios, quantiles, and fitted-distribution parameters.
void EmitSummaryMetrics(const Trace& trace) {
  MetricsRegistry registry;
  const TimePoint at;  // All values describe the trace, not a point in time.
  const auto counter = [&](const char* name, const char* help,
                           int64_t value) {
    registry.Inc(registry.AddCounter(name, help), value);
  };
  const auto gauge = [&](const char* name, const char* help, double value,
                         const std::string& label = "") {
    registry.Set(registry.AddGauge(name, help, label), value, at);
  };

  counter("faas_trace_apps_total", "Applications in the trace",
          static_cast<int64_t>(trace.apps.size()));
  counter("faas_trace_functions_total", "Functions in the trace",
          trace.TotalFunctions());
  counter("faas_trace_invocations_total", "Invocations in the trace",
          trace.TotalInvocations());
  gauge("faas_trace_horizon_days", "Trace horizon, days",
        static_cast<double>(trace.horizon.days()));

  const auto per_app = AnalyzeFunctionsPerApp(trace);
  for (int n : {1, 3, 10, 100}) {
    const std::string label =
        "max_functions=\"" + std::to_string(n) + "\"";
    gauge("faas_trace_apps_with_at_most_functions_ratio",
          "Fraction of apps with at most this many functions (Figure 1)",
          per_app.FractionAppsWithAtMost(n), label);
    gauge("faas_trace_invocation_share_apps_at_most_functions_ratio",
          "Invocation share of apps with at most this many functions",
          per_app.FractionInvocationsFromAppsWithAtMost(n), label);
  }

  const auto shares = AnalyzeTriggerShares(trace);
  for (TriggerType trigger : AllTriggerTypes()) {
    const auto i = static_cast<size_t>(trigger);
    const std::string label =
        "trigger=\"" + std::string(TriggerTypeName(trigger)) + "\"";
    gauge("faas_trace_trigger_functions_percent",
          "Share of functions with this trigger type, percent (Figure 2)",
          shares.percent_functions[i], label);
    gauge("faas_trace_trigger_invocations_percent",
          "Share of invocations from this trigger type, percent",
          shares.percent_invocations[i], label);
  }

  const auto rates = AnalyzeInvocationRates(trace);
  gauge("faas_trace_apps_at_most_hourly_ratio",
        "Fraction of apps invoked at most once per hour (Figure 5)",
        rates.fraction_apps_at_most_hourly);
  gauge("faas_trace_apps_at_most_minutely_ratio",
        "Fraction of apps invoked at most once per minute",
        rates.fraction_apps_at_most_minutely);
  gauge("faas_trace_apps_minutely_ratio",
        "Fraction of apps invoked at least once per minute",
        rates.fraction_apps_minutely);
  gauge("faas_trace_invocation_share_minutely_apps_ratio",
        "Invocation share of apps invoked at least once per minute",
        rates.invocation_share_of_minutely_apps);

  const auto cv = AnalyzeIatCv(trace);
  if (!cv.all_apps.empty()) {
    for (double q : {0.5, 0.9}) {
      gauge("faas_trace_iat_cv",
            "Coefficient of variation of per-app inter-arrival times "
            "(Figure 6)",
            cv.all_apps.Quantile(q),
            "quantile=\"" + FormatMetricValue(q) + "\"");
    }
    gauge("faas_trace_apps_cv_near_zero_ratio",
          "Fraction of apps with IAT CV at or below 0.05",
          cv.all_apps.FractionAtOrBelow(0.05));
  }

  const auto exec = AnalyzeExecutionTimes(trace);
  for (double q : {0.5, 0.9}) {
    gauge("faas_trace_avg_exec_seconds",
          "Per-function average execution time, seconds (Figure 7)",
          exec.average_seconds.Quantile(q),
          "quantile=\"" + FormatMetricValue(q) + "\"");
  }
  gauge("faas_trace_exec_lognormal_mu",
        "Log-normal fit of average execution times: mu",
        exec.average_fit.mu);
  gauge("faas_trace_exec_lognormal_sigma",
        "Log-normal fit of average execution times: sigma",
        exec.average_fit.sigma);

  const auto memory = AnalyzeMemory(trace);
  for (double q : {0.5, 0.9}) {
    const std::string label = "quantile=\"" + FormatMetricValue(q) + "\"";
    gauge("faas_trace_avg_memory_mb",
          "Per-app average allocated memory, MB (Figure 8)",
          memory.average_mb.Quantile(q), label);
    gauge("faas_trace_max_memory_mb", "Per-app maximum allocated memory, MB",
          memory.maximum_mb.Quantile(q), label);
  }
  gauge("faas_trace_memory_burr_c", "Burr fit of average memory: c",
        memory.average_fit.c);
  gauge("faas_trace_memory_burr_k", "Burr fit of average memory: k",
        memory.average_fit.k);
  gauge("faas_trace_memory_burr_lambda", "Burr fit of average memory: lambda",
        memory.average_fit.lambda);

  const auto idle = AnalyzeIdleVsIat(trace);
  if (!idle.ks_distance_cdf.empty()) {
    gauge("faas_trace_idle_vs_iat_ks_distance",
          "KS distance between idle-time and IAT CDFs (Section 3.4)",
          idle.ks_distance_cdf.Quantile(0.5), "quantile=\"0.5\"");
    gauge("faas_trace_median_exec_to_iat_ratio",
          "Median ratio of execution time to inter-arrival time",
          idle.median_exec_to_iat_ratio);
  }

  WritePrometheusText(registry.Scrape(), std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace faas;
  FlagParser flags;
  if (!flags.Parse(argc, argv) || !flags.Has("trace") || flags.Has("help")) {
    std::fprintf(stderr,
                 "usage: trace_stats --trace DIR [--summary-metrics]\n");
    return flags.Has("help") ? 0 : 2;
  }

  const bool summary_metrics = flags.GetBool("summary-metrics", false);
  if (!flags.CheckAllRead()) {
    return 2;
  }
  const auto read = ReadTraceCsv(flags.GetString("trace", ""));
  if (!read.ok) {
    std::fprintf(stderr, "failed to read trace: %s\n", read.error.c_str());
    return 1;
  }
  const Trace& trace = read.value;
  if (summary_metrics) {
    EmitSummaryMetrics(trace);
    return 0;
  }
  std::printf("=== trace overview ===\n");
  std::printf("apps %zu, functions %lld, invocations %lld, days %d\n",
              trace.apps.size(),
              static_cast<long long>(trace.TotalFunctions()),
              static_cast<long long>(trace.TotalInvocations()),
              static_cast<int>(trace.horizon.days()));

  std::printf("\n=== functions per app (Figure 1) ===\n");
  const auto per_app = AnalyzeFunctionsPerApp(trace);
  for (int n : {1, 3, 10, 100}) {
    std::printf("apps with <= %3d functions: %5.1f%%  (invocation share "
                "%5.1f%%)\n",
                n, 100.0 * per_app.FractionAppsWithAtMost(n),
                100.0 * per_app.FractionInvocationsFromAppsWithAtMost(n));
  }

  std::printf("\n=== trigger shares (Figure 2) ===\n");
  const auto shares = AnalyzeTriggerShares(trace);
  for (TriggerType trigger : AllTriggerTypes()) {
    const auto i = static_cast<size_t>(trigger);
    std::printf("%-14s functions %5.1f%%, invocations %5.1f%%\n",
                std::string(TriggerTypeName(trigger)).c_str(),
                shares.percent_functions[i], shares.percent_invocations[i]);
  }

  std::printf("\n=== trigger combinations (Figure 3) ===\n");
  const auto combos = AnalyzeTriggerCombos(trace);
  int shown = 0;
  for (const auto& row : combos.combos) {
    std::printf("%-8s %6.2f%% (cum %6.2f%%)\n", row.combo.c_str(),
                row.percent_apps, row.cumulative_percent);
    if (++shown >= 10) {
      break;
    }
  }

  std::printf("\n=== invocation rates (Figure 5) ===\n");
  const auto rates = AnalyzeInvocationRates(trace);
  std::printf("apps <= 1/hour: %5.1f%%, <= 1/minute: %5.1f%%\n",
              100.0 * rates.fraction_apps_at_most_hourly,
              100.0 * rates.fraction_apps_at_most_minutely);
  std::printf("apps >= 1/minute: %5.1f%% carrying %5.1f%% of invocations\n",
              100.0 * rates.fraction_apps_minutely,
              100.0 * rates.invocation_share_of_minutely_apps);

  std::printf("\n=== IAT variability (Figure 6) ===\n");
  const auto cv = AnalyzeIatCv(trace);
  if (!cv.all_apps.empty()) {
    std::printf("apps with CV ~ 0: %5.1f%%; CV > 1: %5.1f%%  (n=%zu)\n",
                100.0 * cv.all_apps.FractionAtOrBelow(0.05),
                100.0 * (1.0 - cv.all_apps.FractionAtOrBelow(1.0)),
                cv.all_apps.size());
  }

  std::printf("\n=== execution times (Figure 7) ===\n");
  const auto exec = AnalyzeExecutionTimes(trace);
  std::printf("average exec: p50 %.2fs, p90 %.2fs; log-normal fit mu=%.2f "
              "sigma=%.2f\n",
              exec.average_seconds.Quantile(0.5),
              exec.average_seconds.Quantile(0.9), exec.average_fit.mu,
              exec.average_fit.sigma);

  std::printf("\n=== memory (Figure 8) ===\n");
  const auto memory = AnalyzeMemory(trace);
  std::printf("average MB: p50 %.0f, p90 %.0f; max MB: p50 %.0f, p90 %.0f\n",
              memory.average_mb.Quantile(0.5), memory.average_mb.Quantile(0.9),
              memory.maximum_mb.Quantile(0.5),
              memory.maximum_mb.Quantile(0.9));
  std::printf("Burr fit: c=%.2f k=%.3f lambda=%.1f\n", memory.average_fit.c,
              memory.average_fit.k, memory.average_fit.lambda);

  std::printf("\n=== idle time vs IAT (Section 3.4) ===\n");
  const auto idle = AnalyzeIdleVsIat(trace);
  if (!idle.ks_distance_cdf.empty()) {
    std::printf("median KS(IT, IAT) = %.4f over %zu apps; median exec/IAT "
                "ratio %.2e\n",
                idle.ks_distance_cdf.Quantile(0.5),
                idle.ks_distance_cdf.size(), idle.median_exec_to_iat_ratio);
  }
  return 0;
}
