#include "src/workload/arrival.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"

namespace faas {

namespace {

constexpr double kMillisPerDay = 86'400'000.0;

// Sorts `arrivals` ascending.  Most bursty streams are already sorted or
// close to it, and an insertion pass sorts those in one read of the
// vector.  Once the pass has moved as many elements as the vector holds it
// hands the whole vector to std::sort, so it never costs more than that
// linear pass on top of the std::sort it replaces.
void SortMostlyAscending(std::vector<TimePoint>& arrivals) {
  size_t budget = arrivals.size();
  for (size_t i = 1; i < arrivals.size(); ++i) {
    if (!(arrivals[i] < arrivals[i - 1])) {
      continue;
    }
    const TimePoint value = arrivals[i];
    size_t j = i;
    while (j > 0 && value < arrivals[j - 1]) {
      if (budget == 0) {
        // Filling the hole at j leaves a permutation of the input.
        arrivals[j] = value;
        std::sort(arrivals.begin(), arrivals.end());
        return;
      }
      --budget;
      arrivals[j] = arrivals[j - 1];
      --j;
    }
    arrivals[j] = value;
  }
}

}  // namespace

DiurnalProfile::DiurnalProfile(const GeneratorConfig& config)
    : baseline_(config.diurnal_baseline),
      weekend_dampening_(config.weekend_dampening),
      peak_hour_(config.peak_hour_utc) {
  FAAS_CHECK(baseline_ > 0.0 && baseline_ <= 1.0) << "baseline in (0,1]";
  FAAS_CHECK(weekend_dampening_ >= 0.0 && weekend_dampening_ <= 1.0)
      << "weekend dampening in [0,1]";
  FAAS_CHECK(peak_hour_ >= 0.0 && peak_hour_ < 24.0) << "peak hour in [0,24)";

  // The average over the hourly grid of one week.  Hour-of-day values
  // repeat every day, so 24 evaluations give every term of the 168-term sum
  // exactly (MultiplierAt(i h) is hourly[i % 24], dampened on weekend days).
  double hourly[24];
  for (int hour = 0; hour < 24; ++hour) {
    hourly[hour] = MultiplierAt(TimePoint(int64_t{hour} * 3'600'000));
  }
  constexpr int kGrid = 24 * 7;
  double sum = 0.0;
  for (int i = 0; i < kGrid; ++i) {
    const double multiplier = hourly[i % 24];
    sum += i / 24 >= 5 ? Dampen(multiplier) : multiplier;
  }
  week_average_ = sum / kGrid;

  // Minute-edge values of the weekday profile (days 0 and 1 are weekdays;
  // edge kMinutesPerDay, midnight, closes the last minute).  The band only
  // has to bound MultiplierAt, not reproduce it, so the edges skip its
  // fmod/cos/pow: cos(phase) advances by one fixed rotation per minute and
  // hump^1.5 is hump * sqrt(hump).  That is ~15x cheaper than 1441 exact
  // calls (this runs in every generator's constructor) and stays within
  // ~1e-12 of them; the 1e-9 slack covers it, and the rounding of the
  // exact evaluation inside the band, many times over.
  const double slope_per_minute =
      (1.0 - baseline_) * 1.5 * 0.5 * (2.0 * M_PI / 24.0) / 60.0;
  const double half_width = 0.5 * slope_per_minute + 1e-9;
  const double step = 2.0 * M_PI / static_cast<double>(kMinutesPerDay);
  const double cos_step = std::cos(step);
  const double sin_step = std::sin(step);
  double cos_phase = std::cos(-2.0 * M_PI * peak_hour_ / 24.0);
  double sin_phase = std::sin(-2.0 * M_PI * peak_hour_ / 24.0);
  const auto edge_value = [&] {
    const double hump = std::max(0.0, 0.5 * (1.0 + cos_phase));
    const double next_cos = cos_phase * cos_step - sin_phase * sin_step;
    sin_phase = sin_phase * cos_step + cos_phase * sin_step;
    cos_phase = next_cos;
    return baseline_ + (1.0 - baseline_) * hump * std::sqrt(hump);
  };
  bands_.resize(static_cast<size_t>(2 * kMinutesPerDay));
  double left = edge_value();
  for (int64_t minute = 0; minute < kMinutesPerDay; ++minute) {
    const double right = edge_value();
    const double mid = 0.5 * (left + right);
    const Band weekday{mid - half_width, mid + half_width};
    bands_[static_cast<size_t>(minute)] = weekday;
    bands_[static_cast<size_t>(kMinutesPerDay + minute)] = {
        Dampen(weekday.lower), Dampen(weekday.upper)};
    left = right;
  }
}

double DiurnalProfile::MultiplierAt(TimePoint t) const {
  const double ms = static_cast<double>(t.millis_since_origin());
  const double day_fraction = std::fmod(ms, kMillisPerDay) / kMillisPerDay;
  const double hour = day_fraction * 24.0;
  const int day_index = static_cast<int>(ms / kMillisPerDay);
  // Day 0 is a Monday (the trace starts Monday, July 15th 2019); days 5 and
  // 6 of each week are the weekend.
  const bool weekend = (day_index % 7) >= 5;

  // Raised-cosine hump centred on the peak hour, on top of the baseline.
  const double phase = 2.0 * M_PI * (hour - peak_hour_) / 24.0;
  double hump = 0.5 * (1.0 + std::cos(phase));  // In [0, 1], peak at peak_hour.
  // Sharpen the hump slightly so the peak is pronounced, as in Figure 4.
  hump = std::pow(hump, 1.5);
  const double multiplier = baseline_ + (1.0 - baseline_) * hump;
  return weekend ? Dampen(multiplier) : multiplier;
}

std::vector<TimePoint> GeneratePeriodicArrivals(Duration period,
                                                Duration horizon, Rng& rng,
                                                double jitter_fraction) {
  FAAS_CHECK(period.millis() > 0) << "period must be positive";
  std::vector<TimePoint> arrivals;
  const int64_t phase =
      static_cast<int64_t>(rng.NextDouble() * static_cast<double>(period.millis()));
  const double jitter_ms =
      jitter_fraction * static_cast<double>(period.millis());
  for (int64_t t = phase; t < horizon.millis(); t += period.millis()) {
    int64_t instant = t;
    if (jitter_ms > 0.0) {
      instant += static_cast<int64_t>((rng.NextDouble() - 0.5) * jitter_ms);
      instant = std::clamp<int64_t>(instant, 0, horizon.millis() - 1);
    }
    arrivals.emplace_back(instant);
  }
  if (jitter_fraction > 1.0) {
    // Up to a jitter of one period the loop already emitted ascending
    // instants: neighbours start a period apart, each moves by at most
    // half of it, and truncation toward zero and the clamp keep order.
    std::sort(arrivals.begin(), arrivals.end());
  }
  return arrivals;
}

std::vector<TimePoint> GeneratePoissonArrivals(double mean_rate_per_day,
                                               Duration horizon,
                                               const DiurnalProfile& profile,
                                               Rng& rng) {
  std::vector<TimePoint> arrivals;
  if (mean_rate_per_day <= 0.0) {
    return arrivals;
  }
  // Lewis-Shedler thinning with majorant rate = peak (multiplier 1), scaled
  // by the week average so the realised mean rate matches the request.
  const double peak_rate_per_ms =
      (mean_rate_per_day / profile.week_average()) / kMillisPerDay;
  arrivals.reserve(static_cast<size_t>(
      mean_rate_per_day * horizon.millis() / kMillisPerDay * 1.1) + 4);
  double t_ms = 0.0;
  const double horizon_ms = static_cast<double>(horizon.millis());
  while (true) {
    t_ms += rng.NextExponential(peak_rate_per_ms);
    if (t_ms >= horizon_ms) {
      break;
    }
    const TimePoint candidate(static_cast<int64_t>(t_ms));
    if (profile.Accepts(candidate, rng.NextDouble())) {
      arrivals.push_back(candidate);
    }
  }
  return arrivals;
}

std::vector<TimePoint> GenerateBurstyArrivals(double mean_rate_per_day,
                                              Duration horizon,
                                              const DiurnalProfile& profile,
                                              Rng& rng,
                                              double events_per_burst,
                                              Duration intra_burst_iat) {
  std::vector<TimePoint> arrivals;
  if (mean_rate_per_day <= 0.0) {
    return arrivals;
  }
  FAAS_CHECK(events_per_burst >= 1.0) << "need at least one event per burst";
  FAAS_CHECK(intra_burst_iat.millis() > 0) << "intra-burst IAT must be positive";

  // Burst epochs: diurnal-modulated Poisson at rate / events_per_burst.
  const std::vector<TimePoint> epochs = GeneratePoissonArrivals(
      mean_rate_per_day / events_per_burst, horizon, profile, rng);

  const double intra_rate_per_ms =
      1.0 / static_cast<double>(intra_burst_iat.millis());
  const double horizon_ms = static_cast<double>(horizon.millis());
  for (TimePoint epoch : epochs) {
    arrivals.push_back(epoch);
    const double extra = rng.NextPoisson(events_per_burst - 1.0);
    double t_ms = static_cast<double>(epoch.millis_since_origin());
    for (double k = 0; k < extra; k += 1.0) {
      t_ms += rng.NextExponential(intra_rate_per_ms);
      if (t_ms >= horizon_ms) {
        break;
      }
      arrivals.emplace_back(static_cast<int64_t>(t_ms));
    }
  }
  SortMostlyAscending(arrivals);
  return arrivals;
}

void ApplyFlashCrowd(Trace& trace, const FlashCrowdSpec& spec, Rng& rng) {
  if (!spec.enabled()) {
    return;
  }
  FAAS_CHECK(spec.duration.millis() > 0) << "burst duration must be positive";
  FAAS_CHECK(spec.fraction > 0.0 && spec.fraction <= 1.0)
      << "participation fraction in (0,1]";
  FAAS_CHECK(spec.events_per_function > 0.0)
      << "events per function must be positive";

  const double horizon_ms = static_cast<double>(trace.horizon.millis());
  std::vector<double> epochs(static_cast<size_t>(spec.count));
  for (double& epoch : epochs) {
    epoch = rng.UniformDouble(0.15, 0.85) * horizon_ms;
  }
  std::sort(epochs.begin(), epochs.end());

  const double duration_ms = static_cast<double>(spec.duration.millis());
  const double offset_rate_per_ms = 4.0 / duration_ms;  // Mean duration/4.
  for (AppTrace& app : trace.apps) {
    // Independent stream per app: the draws an app consumes do not shift
    // when another app's burst sizes change.
    Rng app_rng = rng.Fork();
    bool touched = false;
    for (double epoch : epochs) {
      if (!app_rng.Bernoulli(spec.fraction)) {
        continue;
      }
      for (FunctionTrace& function : app.functions) {
        const double extra = app_rng.NextPoisson(spec.events_per_function);
        for (double k = 0; k < extra; k += 1.0) {
          const double offset = std::min(
              app_rng.NextExponential(offset_rate_per_ms), duration_ms - 1.0);
          const double t = std::min(epoch + offset, horizon_ms - 1.0);
          function.invocations.emplace_back(static_cast<int64_t>(t));
          touched = true;
        }
      }
    }
    if (!touched) {
      continue;
    }
    for (FunctionTrace& function : app.functions) {
      std::sort(function.invocations.begin(), function.invocations.end());
      function.execution.count = function.InvocationCount();
    }
    app.memory.sample_count = std::max<int64_t>(app.TotalInvocations(), 1);
  }
}

Duration SnapToTimerPeriod(double desired_rate_per_day) {
  // Cron-style grid: 1, 2, 5, 10, 15, 30 minutes; 1, 2, 4, 6, 12 hours; 1 day.
  static const Duration kGrid[] = {
      Duration::Minutes(1),  Duration::Minutes(2),  Duration::Minutes(5),
      Duration::Minutes(10), Duration::Minutes(15), Duration::Minutes(30),
      Duration::Hours(1),    Duration::Hours(2),    Duration::Hours(4),
      Duration::Hours(6),    Duration::Hours(12),   Duration::Days(1),
  };
  if (desired_rate_per_day <= 0.0) {
    return Duration::Days(1);
  }
  const double desired_period_ms = kMillisPerDay / desired_rate_per_day;
  Duration best = kGrid[0];
  double best_error = std::numeric_limits<double>::infinity();
  for (Duration candidate : kGrid) {
    const double error = std::fabs(
        std::log(static_cast<double>(candidate.millis()) / desired_period_ms));
    if (error < best_error) {
      best_error = error;
      best = candidate;
    }
  }
  return best;
}

}  // namespace faas
