#include "src/sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/stats/descriptive.h"
#include "src/trace/entity_index.h"

namespace faas {

namespace {

// Charges one app's replay into its ledger.  The idle integral keeps the
// weighted association (`wasted_ms * weight`, exact for the unweighted
// weight of 1.0, so ledger-off outputs stay byte-identical); CPU is the sum
// of execution times (the billed integral — equal to the busy residency
// wall time whenever executions do not overlap, which is how the
// sim-vs-cluster charge-identity test pins the two layers together).
void ChargeLedger(AppSimResult& result, double wasted_ms, double memory_mb,
                  bool weight_by_memory, const int64_t* exec_ms,
                  size_t count) {
  const double weight = weight_by_memory ? memory_mb : 1.0;
  ResourceLedger& ledger = result.ledger;
  ledger.idle_mb_ms = wasted_ms * weight;
  int64_t busy_ms = 0;
  if (exec_ms != nullptr) {
    for (size_t i = 0; i < count; ++i) {
      busy_ms += exec_ms[i];
    }
  }
  ledger.cpu_ms = static_cast<double>(busy_ms);
  ledger.busy_mb_ms = static_cast<double>(busy_ms) * weight;
  ledger.invocations = result.invocations;
  ledger.cold_loads = result.cold_starts;
  ledger.prewarm_loads = result.prewarm_loads;
  ledger.warm_hits = result.invocations - result.cold_starts;
}

}  // namespace

AppSimResult ColdStartSimulator::SimulateApp(
    const CompiledTrace& compiled, size_t app_index, KeepAlivePolicy& policy,
    const SimPolicyInstruments* instruments) const {
  FAAS_CHECK(app_index < compiled.num_apps()) << "app index out of range";
  const CompiledTrace::AppSpan span = compiled.spans[app_index];
  // The arenas store real execution durations unconditionally; substitute
  // the all-zero stream by passing a null pointer when they are disabled.
  const int64_t* exec = options_.use_execution_times
                            ? compiled.exec_ms.data() + span.begin
                            : nullptr;
  AppSimResult result = SimulateStream(
      compiled.times_ms.data() + span.begin, exec, span.size(),
      compiled.memory_mb[app_index], compiled.horizon, policy, instruments);
  result.app = AppId(app_index);
  if (instruments != nullptr && instruments->spans != nullptr &&
      span.size() > 0) {
    // One span per (policy, app): start at the first invocation, run to the
    // last, keyed so the span set is a pure function of the sweep shape.
    SpanRecord record;
    record.start_ms = compiled.times_ms[span.begin];
    record.dur_ms = compiled.times_ms[span.end - 1] - record.start_ms;
    record.trace_id =
        instruments->trace_id_base + static_cast<int64_t>(app_index);
    record.arg0 = result.invocations;
    record.arg1 = result.cold_starts;
    record.label_id = instruments->label_id;
    record.name = static_cast<int16_t>(SpanName::kAppReplay);
    record.pid = instruments->pid;
    record.tid = 0;
    instruments->spans->push_back(record);
  }
  return result;
}

AppSimResult ColdStartSimulator::SimulateStaticStream(
    const int64_t* times_ms, const int64_t* exec_ms, size_t count,
    double memory_mb, Duration horizon, PolicyDecision decision) const {
  AppSimResult result;
  result.invocations = static_cast<int64_t>(count);
  // The first invocation is always a cold start (Section 5.1).
  int64_t cold_starts = 1;
  const int64_t ka_ms = decision.keepalive_window.millis();
  double wasted_ms = 0.0;
  int64_t exec_end = times_ms[0] + (exec_ms != nullptr ? exec_ms[0] : 0);
  if (exec_ms == nullptr) {
    // Zero execution times: exec_end is just the previous distinct instant,
    // so the busy-warm branch only fires on duplicate timestamps.
    for (size_t i = 1; i < count; ++i) {
      const int64_t t = times_ms[i];
      if (t <= exec_end) {
        continue;
      }
      const int64_t idle = t - exec_end;
      if (idle <= ka_ms) {
        wasted_ms += static_cast<double>(idle);
      } else {
        ++cold_starts;
        wasted_ms += static_cast<double>(ka_ms);
      }
      exec_end = t;
    }
  } else {
    for (size_t i = 1; i < count; ++i) {
      const int64_t t = times_ms[i];
      if (t <= exec_end) {
        const int64_t e = t + exec_ms[i];
        if (e > exec_end) {
          exec_end = e;
        }
        continue;
      }
      const int64_t idle = t - exec_end;
      if (idle <= ka_ms) {
        wasted_ms += static_cast<double>(idle);
      } else {
        ++cold_starts;
        wasted_ms += static_cast<double>(ka_ms);
      }
      exec_end = t + exec_ms[i];
    }
  }
  result.cold_starts = cold_starts;
  if (options_.count_tail_residency) {
    const int64_t horizon_end =
        (TimePoint::Origin() + horizon).millis_since_origin();
    if (horizon_end > exec_end) {
      const int64_t remaining = horizon_end - exec_end;
      wasted_ms += static_cast<double>(std::min(ka_ms, remaining));
    }
  }
  ChargeLedger(result, wasted_ms, memory_mb, options_.weight_by_memory,
               exec_ms, count);
  return result;
}

AppSimResult ColdStartSimulator::SimulateStream(
    const int64_t* times_ms, const int64_t* exec_ms, size_t count,
    double memory_mb, Duration horizon, KeepAlivePolicy& policy,
    const SimPolicyInstruments* instruments) const {
  AppSimResult result;
  result.invocations = static_cast<int64_t>(count);
  if (count == 0) {
    return result;
  }

  // A policy whose decision never changes needs neither of its virtual calls
  // in the loop; with no per-invocation telemetry attached the whole replay
  // collapses to the tight integer loop above.  (Prewarm and keep-forever
  // decisions take the general path: they are rare and branch-heavier.)
  const bool static_decision = policy.HasStaticDecision();
  const bool plain_replay =
      instruments == nullptr || instruments->metrics == nullptr;
  if (static_decision && plain_replay && !options_.track_hourly) {
    const PolicyDecision fixed = policy.NextWindows();
    if (!fixed.KeepsLoadedForever() && fixed.prewarm_window.IsZero()) {
      AppSimResult fast = SimulateStaticStream(times_ms, exec_ms, count,
                                               memory_mb, horizon, fixed);
      return fast;
    }
  }

  const auto time_at = [&](size_t i) { return TimePoint(times_ms[i]); };
  const auto exec_at = [&](size_t i) {
    return Duration::Millis(exec_ms != nullptr ? exec_ms[i] : 0);
  };

  double wasted_ms = 0.0;

  // Per-invocation telemetry rides the classification the loop already
  // makes.  Invocation times are ordered, so the per-minute series updates
  // are run-length batched: counts accumulate in two locals and flush to the
  // task's metrics block only when the minute bin changes.  The counters flush once per
  // app below, keeping the per-invocation cost at a couple of arithmetic ops
  // when enabled and one pointer test when not.  The per-app histogram is
  // left to the sweep, which observes it in app order after the parallel
  // region.
  MetricsBlock* metrics =
      instruments != nullptr ? instruments->metrics : nullptr;
  int64_t series_bin = -1;
  int64_t bin_invocations = 0;
  int64_t bin_cold = 0;
  const auto flush_series = [&]() {
    if (series_bin < 0) {
      return;
    }
    const TimePoint at(series_bin * 60'000);
    metrics->SeriesAdd(instruments->minute_invocations, at, bin_invocations);
    if (bin_cold > 0) {
      metrics->SeriesAdd(instruments->minute_cold_starts, at, bin_cold);
    }
    bin_invocations = 0;
    bin_cold = 0;
  };

  const auto track = [&](TimePoint t, bool is_cold) {
    if (metrics != nullptr) {
      // Clamp below at zero so a (theoretical) negative timestamp cannot
      // collide with the -1 "no bin yet" sentinel; SeriesAdd clamps the top.
      const int64_t bin = std::max<int64_t>(t.millis_since_origin(), 0) / 60'000;
      if (bin != series_bin) {
        flush_series();
        series_bin = bin;
      }
      ++bin_invocations;
      bin_cold += is_cold ? 1 : 0;
    }
    if (!options_.track_hourly) {
      return;
    }
    const auto hour = static_cast<size_t>(t.millis_since_origin() / 3'600'000);
    if (hour >= result.invocations_per_hour.size()) {
      result.invocations_per_hour.resize(hour + 1, 0);
      result.cold_per_hour.resize(hour + 1, 0);
    }
    ++result.invocations_per_hour[hour];
    if (is_cold) {
      ++result.cold_per_hour[hour];
    }
  };

  // The first invocation is always a cold start (Section 5.1).
  result.cold_starts = 1;
  track(time_at(0), true);
  TimePoint exec_end = time_at(0) + exec_at(0);
  PolicyDecision decision = policy.NextWindows();

  for (size_t i = 1; i < count; ++i) {
    const TimePoint t = time_at(i);
    if (t <= exec_end) {
      // Arrived while the app was still executing: trivially warm; the image
      // is busy, not idle, so no waste accrues and no idle time is recorded.
      track(t, false);
      exec_end = std::max(exec_end, t + exec_at(i));
      continue;
    }
    const Duration idle = t - exec_end;
    const Duration pw = decision.prewarm_window;
    const Duration ka = decision.keepalive_window;

    bool cold = false;
    if (decision.KeepsLoadedForever()) {
      wasted_ms += static_cast<double>(idle.millis());
    } else if (pw.IsZero()) {
      if (idle <= ka) {
        wasted_ms += static_cast<double>(idle.millis());
      } else {
        cold = true;
        wasted_ms += static_cast<double>(ka.millis());
      }
    } else {
      if (idle < pw) {
        // The invocation beat the scheduled pre-warm: cold, but nothing was
        // loaded in the meantime, so no waste.  The pre-warm is cancelled.
        cold = true;
      } else if (idle <= pw + ka) {
        ++result.prewarm_loads;
        wasted_ms += static_cast<double>((idle - pw).millis());
      } else {
        cold = true;
        ++result.prewarm_loads;
        wasted_ms += static_cast<double>(ka.millis());
      }
    }
    if (cold) {
      ++result.cold_starts;
    }
    track(t, cold);

    if (!static_decision) {
      policy.RecordIdleTimeAt(t, idle);
    }
    exec_end = t + exec_at(i);
    if (!static_decision) {
      decision = policy.NextWindows();
    }
  }

  if (options_.count_tail_residency) {
    // Charge residency between the last execution and the end of the trace.
    const TimePoint horizon_end = TimePoint::Origin() + horizon;
    if (horizon_end > exec_end) {
      const Duration remaining = horizon_end - exec_end;
      const Duration pw = decision.prewarm_window;
      const Duration ka = decision.keepalive_window;
      if (decision.KeepsLoadedForever()) {
        wasted_ms += static_cast<double>(remaining.millis());
      } else if (pw.IsZero()) {
        wasted_ms +=
            static_cast<double>(std::min(ka, remaining).millis());
      } else if (remaining > pw) {
        ++result.prewarm_loads;
        wasted_ms +=
            static_cast<double>(std::min(ka, remaining - pw).millis());
      }
    }
  }

  ChargeLedger(result, wasted_ms, memory_mb, options_.weight_by_memory,
               exec_ms, count);
  if (metrics != nullptr) {
    flush_series();
    metrics->Inc(instruments->apps);
    metrics->Inc(instruments->invocations, result.invocations);
    metrics->Inc(instruments->cold_starts, result.cold_starts);
    metrics->Inc(instruments->prewarm_loads, result.prewarm_loads);
  }
  return result;
}

const std::string& SimulationResult::AppName(size_t i) const {
  FAAS_CHECK(entities != nullptr) << "simulation result has no entity index";
  return entities->AppName(apps[i].app);
}

int64_t SimulationResult::TotalInvocations() const {
  int64_t total = 0;
  for (const auto& app : apps) {
    total += app.invocations;
  }
  return total;
}

int64_t SimulationResult::TotalColdStarts() const {
  int64_t total = 0;
  for (const auto& app : apps) {
    total += app.cold_starts;
  }
  return total;
}

double SimulationResult::TotalWastedMemoryMinutes() const {
  double total = 0.0;
  for (const auto& app : apps) {
    total += app.wasted_memory_minutes();
  }
  return total;
}

ResourceLedger SimulationResult::TotalResources() const {
  ResourceLedger total;
  for (const auto& app : apps) {
    total += app.ledger;
  }
  return total;
}

double SimulationResult::AppColdStartPercentile(double pct) const {
  FAAS_CHECK(!apps.empty()) << "no apps simulated";
  std::vector<double> percentages;
  percentages.reserve(apps.size());
  for (const auto& app : apps) {
    percentages.push_back(app.ColdStartPercent());
  }
  return Percentile(percentages, pct);
}

Ecdf SimulationResult::AppColdStartEcdf() const {
  std::vector<double> percentages;
  percentages.reserve(apps.size());
  for (const auto& app : apps) {
    percentages.push_back(app.ColdStartPercent());
  }
  return Ecdf(std::move(percentages));
}

std::vector<double> SimulationResult::HourlyColdFraction() const {
  size_t hours = 0;
  for (const auto& app : apps) {
    hours = std::max(hours, app.invocations_per_hour.size());
  }
  std::vector<int64_t> cold(hours, 0);
  std::vector<int64_t> total(hours, 0);
  for (const auto& app : apps) {
    for (size_t h = 0; h < app.invocations_per_hour.size(); ++h) {
      total[h] += app.invocations_per_hour[h];
      cold[h] += app.cold_per_hour[h];
    }
  }
  std::vector<double> fraction(hours, 0.0);
  for (size_t h = 0; h < hours; ++h) {
    fraction[h] = total[h] > 0 ? static_cast<double>(cold[h]) /
                                     static_cast<double>(total[h])
                               : 0.0;
  }
  return fraction;
}

double SimulationResult::FractionAppsAlwaysCold(
    bool exclude_single_invocation) const {
  int64_t eligible = 0;
  int64_t always_cold = 0;
  for (const auto& app : apps) {
    if (app.invocations == 0) {
      continue;
    }
    if (exclude_single_invocation && app.invocations == 1) {
      continue;
    }
    ++eligible;
    if (app.cold_starts == app.invocations) {
      ++always_cold;
    }
  }
  if (eligible == 0) {
    return 0.0;
  }
  return static_cast<double>(always_cold) / static_cast<double>(eligible);
}

}  // namespace faas
