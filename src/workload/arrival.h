// Arrival-process generators for synthetic invocation streams.
//
// Three behaviours cover the IAT-variability spectrum the paper measures
// (Figure 6): periodic streams (timers and IoT-style callers, CV ~ 0),
// diurnal-modulated Poisson streams (human traffic, CV ~ 1), and bursty
// on/off-modulated Poisson streams (queue drains and event batches, CV > 1).
// The diurnal profile reproduces the platform-wide hourly shape of Figure 4:
// a constant baseline around 50% of peak plus daily and weekly swings.

#ifndef SRC_WORKLOAD_ARRIVAL_H_
#define SRC_WORKLOAD_ARRIVAL_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/workload/config.h"

namespace faas {

// Platform load multiplier over time, normalised so the PEAK is 1.0.
//
// Thinning asks `u < MultiplierAt(t)` once per candidate arrival, and each
// exact evaluation is an fmod, a cos and a pow.  The profile therefore also
// keeps a per-minute-of-day envelope: a [lower, upper] band that provably
// contains every MultiplierAt value inside the minute.  The band is centred
// on the mean of the profile at the two minute edges and is one minute's
// worth of the profile's Lipschitz bound wide (|d hump^1.5 / dt| <= 1.5 *
// 0.5 * 2*pi/24 per hour, scaled by the swing 1 - baseline), plus a
// rounding slack.  Weekend minutes map the weekday band through the same
// monotone dampening MultiplierAt applies, so the bound carries over.
// Accepts() decides outside the band from the envelope and evaluates the
// exact multiplier only inside it (about 0.2 % of candidates at the default
// baseline), so its answer is always exactly `u < MultiplierAt(t)`.
class DiurnalProfile {
 public:
  // Bounds on MultiplierAt over one minute: lower <= m <= upper.
  struct Band {
    double lower = 0.0;
    double upper = 0.0;
  };

  explicit DiurnalProfile(const GeneratorConfig& config);

  // Multiplier in (0, 1] at an instant (day 0 = Monday by convention; the
  // paper's trace starts Monday July 15th, 2019).
  double MultiplierAt(TimePoint t) const;

  // The envelope band of the minute holding `t`.  Before the origin (never
  // a thinning candidate) the band is unbounded, so Accepts falls through
  // to the exact comparison.
  Band BandAt(TimePoint t) const {
    const int64_t ms = t.millis_since_origin();
    if (ms < 0) {
      return {-kInfinity, kInfinity};
    }
    const bool weekend = (ms / kDayMs) % 7 >= 5;
    const int64_t minute = (ms % kDayMs) / kMinuteMs;
    return bands_[static_cast<size_t>((weekend ? kMinutesPerDay : 0) +
                                      minute)];
  }

  // Thinning test: exactly `u < MultiplierAt(t)`, decided from the envelope
  // unless `u` falls inside the minute's band.
  bool Accepts(TimePoint t, double u) const {
    const Band band = BandAt(t);
    if (u < band.lower) {
      return true;
    }
    if (u >= band.upper) {
      return false;
    }
    return u < MultiplierAt(t);
  }

  // Mean multiplier over one week on an hourly grid (exact enough for a
  // smooth profile); thinning divides by it so the realised mean rate
  // matches the request.
  double week_average() const { return week_average_; }
  double baseline() const { return baseline_; }

 private:
  static constexpr int64_t kDayMs = 86'400'000;
  static constexpr int64_t kMinuteMs = 60'000;
  static constexpr int64_t kMinutesPerDay = 1'440;
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  // Weekends keep the baseline but shrink the diurnal swing.  Monotone
  // non-decreasing in `multiplier` (weekend_dampening_ >= 0), which is what
  // lets the envelope reuse the weekday bands.
  double Dampen(double multiplier) const {
    return baseline_ + (multiplier - baseline_) * weekend_dampening_;
  }

  double baseline_;
  double weekend_dampening_;
  double peak_hour_;
  double week_average_ = 0.0;
  // kMinutesPerDay weekday bands, then the same minutes' weekend bands.
  std::vector<Band> bands_;
};

// Periodic arrivals: period `period`, phase uniform in [0, period), plus an
// optional per-event jitter (fraction of the period; 0 = strictly periodic).
std::vector<TimePoint> GeneratePeriodicArrivals(Duration period,
                                                Duration horizon, Rng& rng,
                                                double jitter_fraction = 0.0);

// Non-homogeneous Poisson arrivals via Lewis-Shedler thinning against the
// diurnal profile.  `mean_rate_per_day` is the time-averaged rate; the
// instantaneous rate is scaled so the average over the horizon matches.
std::vector<TimePoint> GeneratePoissonArrivals(double mean_rate_per_day,
                                               Duration horizon,
                                               const DiurnalProfile& profile,
                                               Rng& rng);

// Bursty arrivals: a Poisson cluster (Neyman-Scott) process.  Burst epochs
// arrive as a diurnal-modulated Poisson stream with rate
// `mean_rate_per_day / events_per_burst`; each burst carries
// 1 + Poisson(events_per_burst - 1) events whose intra-burst inter-arrival
// times are exponential with mean `intra_burst_iat`.  Crucially the
// intra-burst spacing is independent of how rare the app is — matching the
// production observation that even infrequently-invoked applications see
// tight clumps of invocations — and IAT CVs land well above 1.
std::vector<TimePoint> GenerateBurstyArrivals(
    double mean_rate_per_day, Duration horizon, const DiurnalProfile& profile,
    Rng& rng, double events_per_burst = 8.0,
    Duration intra_burst_iat = Duration::Seconds(45));

// Picks the timer period (a "cron-like" round value) whose firing rate best
// matches the requested daily rate.  95% of timer functions fire at most
// once per minute, so the grid starts at one minute.
Duration SnapToTimerPeriod(double desired_rate_per_day);

// Flash-crowd overlay: synchronized bursts stacked on top of an existing
// trace's arrival streams.  Each burst is an epoch at which a Bernoulli
// `fraction` of apps simultaneously receive a clump of extra invocations,
// front-loaded inside [epoch, epoch + duration) — the coordinated spike
// (marketing push, incident storm, thundering-herd retry) that saturates a
// cluster provisioned for the diurnal average and that the overload control
// plane exists to absorb.  A default spec (count == 0) leaves the trace
// untouched and draws no random numbers.
struct FlashCrowdSpec {
  // Number of burst epochs, placed uniformly in the middle 70% of the
  // horizon so warm-up and drain-out do not mask the spike.
  int count = 0;
  // Width of each burst window; extra arrivals decay exponentially with
  // mean duration/4, so most of the clump lands in the window's first half.
  Duration duration = Duration::Minutes(10);
  // Probability that a given app participates in a given burst.
  double fraction = 0.3;
  // Mean extra invocations per participating function per burst (Poisson).
  double events_per_function = 80.0;

  bool enabled() const { return count > 0; }
};

// Injects the spec's bursts into `trace` in place: participating functions
// gain sorted extra invocation instants and their execution/memory sample
// counts are refreshed.  Deterministic given (`trace`, `spec`, `rng` state);
// apps consume independent forked streams, so per-app draws do not depend
// on how many events earlier apps received.
void ApplyFlashCrowd(Trace& trace, const FlashCrowdSpec& spec, Rng& rng);

}  // namespace faas

#endif  // SRC_WORKLOAD_ARRIVAL_H_
