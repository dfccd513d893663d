#include "src/workload/generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/common/logging.h"
#include "src/stats/distributions.h"
#include "src/trace/entity_index.h"
#include "src/workload/arrival.h"

namespace faas {

namespace {

TriggerType TriggerFromShortCode(char code) {
  switch (code) {
    case 'H':
      return TriggerType::kHttp;
    case 'Q':
      return TriggerType::kQueue;
    case 'E':
      return TriggerType::kEvent;
    case 'O':
      return TriggerType::kOrchestration;
    case 'T':
      return TriggerType::kTimer;
    case 'S':
      return TriggerType::kStorage;
    case 'o':
      return TriggerType::kOthers;
    default:
      FAAS_CHECK(false) << "unknown trigger code '" << code << "'";
  }
  return TriggerType::kOthers;
}

std::string MakeId(const char* prefix, int index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%06d", prefix, index);
  return buf;
}

}  // namespace

WorkloadGenerator::WorkloadGenerator(GeneratorConfig config)
    : config_(std::move(config)),
      profile_(config_),
      rate_model_(config_),
      root_rng_(config_.seed) {
  BuildComboTables();
}

void WorkloadGenerator::BuildComboTables() {
  // Single-function apps can only hold single-trigger combos.  To keep the
  // aggregate Figure 3(b) marginals, size-1 apps draw from the single-trigger
  // combos renormalised to 1, and larger apps draw from a compensated table:
  //   q_c        = p_c / S                      (size-1 table; S = sum of
  //                                              single-trigger mass)
  //   p'_c       = (p_c - f1 * q_c) / (1 - f1)  (single-trigger combos in
  //                                              the multi table)
  //   p'_c       = p_c / (1 - f1)               (multi-trigger combos)
  // where f1 is the single-function app fraction.  Then
  // f1 * q_c + (1 - f1) * p'_c = p_c for every combo.
  const double f1 = config_.frac_single_function;
  double named_mass = 0.0;
  double single_mass = 0.0;
  for (const auto& combo : config_.trigger_combos) {
    named_mass += combo.percent / 100.0;
    if (std::strlen(combo.key) == 1) {
      single_mass += combo.percent / 100.0;
    }
  }
  FAAS_CHECK(single_mass >= f1)
      << "single-trigger combo mass must cover the single-function fraction";

  for (const auto& combo : config_.trigger_combos) {
    std::vector<TriggerType> triggers;
    for (const char* c = combo.key; *c != '\0'; ++c) {
      triggers.push_back(TriggerFromShortCode(*c));
    }
    const double p = combo.percent / 100.0;
    if (triggers.size() == 1) {
      const double q = p / single_mass;
      single_function_combos_.push_back({triggers, q});
      const double adjusted = (p - f1 * q) / (1.0 - f1);
      multi_function_combos_.push_back(
          {std::move(triggers), std::max(adjusted, 0.0)});
    } else {
      multi_function_combos_.push_back({std::move(triggers), p / (1.0 - f1)});
    }
  }
  // The residual (unnamed) mass is random multi-trigger combos.
  multi_residual_weight_ = (1.0 - named_mass) / (1.0 - f1);
}

std::vector<double> WorkloadGenerator::SampleDailyRates(int n) {
  Rng rng = root_rng_.Fork();
  std::vector<double> rates(static_cast<size_t>(n));
  for (double& rate : rates) {
    rate = rate_model_.SampleDailyRate(rng);
  }
  return rates;
}

int WorkloadGenerator::SampleFunctionsPerApp(Rng& rng) const {
  const double u = rng.NextDouble();
  if (u < config_.frac_single_function) {
    return 1;
  }
  // Remaining mass: [2,10] takes the CDF up to frac_upto_10; (10,100] the
  // rest except frac_over_100; a log-uniform tail above 100.
  const double mass_2_to_10 =
      config_.frac_upto_10_functions - config_.frac_single_function;
  const double mass_over_100 = config_.frac_over_100_functions;
  const double mass_11_to_100 =
      1.0 - config_.frac_upto_10_functions - mass_over_100;
  const double v = u - config_.frac_single_function;
  if (v < mass_2_to_10) {
    // Within [2,10], weight smaller apps more (roughly 1/n), matching the
    // smooth knee of Figure 1.
    static const int kLow = 2;
    static const int kHigh = 10;
    double weights_total = 0.0;
    for (int n = kLow; n <= kHigh; ++n) {
      weights_total += 1.0 / static_cast<double>(n);
    }
    double target = (v / mass_2_to_10) * weights_total;
    for (int n = kLow; n <= kHigh; ++n) {
      target -= 1.0 / static_cast<double>(n);
      if (target <= 0.0) {
        return n;
      }
    }
    return kHigh;
  }
  if (v < mass_2_to_10 + mass_11_to_100) {
    // Log-uniform over (10, 100].
    const double t = (v - mass_2_to_10) / mass_11_to_100;
    return static_cast<int>(std::round(10.0 * std::pow(10.0, t)));
  }
  // Log-uniform over (100, max].
  const double t = (v - mass_2_to_10 - mass_11_to_100) / mass_over_100;
  const double max_f = static_cast<double>(config_.max_functions_per_app);
  return static_cast<int>(
      std::round(100.0 * std::pow(max_f / 100.0, std::min(t, 1.0))));
}

std::vector<TriggerType> WorkloadGenerator::SampleTriggerCombo(
    int num_functions, Rng& rng) const {
  if (num_functions <= 1) {
    std::vector<double> weights;
    weights.reserve(single_function_combos_.size());
    for (const auto& combo : single_function_combos_) {
      weights.push_back(combo.weight);
    }
    return single_function_combos_[rng.WeightedIndex(weights)].triggers;
  }

  // Multi-function app: draw from the compensated table (plus the residual
  // random-combo bucket), rejecting combos larger than the app.
  std::vector<double> weights;
  weights.reserve(multi_function_combos_.size() + 1);
  for (const auto& combo : multi_function_combos_) {
    weights.push_back(
        static_cast<int>(combo.triggers.size()) <= num_functions
            ? combo.weight
            : 0.0);
  }
  weights.push_back(multi_residual_weight_);
  const size_t pick = rng.WeightedIndex(weights);
  if (pick < multi_function_combos_.size()) {
    return multi_function_combos_[pick].triggers;
  }
  // Residual mass: a random 2-3 trigger combination weighted by the
  // function-level marginals.
  std::vector<double> trigger_weights(
      config_.function_share_by_trigger.begin(),
      config_.function_share_by_trigger.end());
  const int combo_size =
      std::min(num_functions, rng.Bernoulli(0.6) ? 2 : 3);
  std::vector<TriggerType> triggers;
  while (static_cast<int>(triggers.size()) < combo_size) {
    const TriggerType candidate =
        static_cast<TriggerType>(rng.WeightedIndex(trigger_weights));
    if (std::find(triggers.begin(), triggers.end(), candidate) ==
        triggers.end()) {
      triggers.push_back(candidate);
    }
  }
  return triggers;
}

std::vector<TriggerType> WorkloadGenerator::AssignFunctionTriggers(
    const std::vector<TriggerType>& combo, int count, Rng& rng) const {
  std::vector<TriggerType> assignment;
  assignment.reserve(static_cast<size_t>(count));
  // Every trigger in the combo appears at least once (apps in Figure 3b are
  // partitioned by their exact trigger set).
  for (size_t i = 0; i < combo.size() && static_cast<int>(i) < count; ++i) {
    assignment.push_back(combo[i]);
  }
  // Remaining functions sample within the combo by function-share weight,
  // with a survival-bias correction for timers (which always fire and are
  // therefore never dropped from the trace, unlike low-rate functions).
  std::vector<double> weights;
  weights.reserve(combo.size());
  for (TriggerType trigger : combo) {
    double weight =
        config_.function_share_by_trigger[static_cast<size_t>(trigger)];
    if (trigger == TriggerType::kTimer) {
      weight *= config_.timer_extra_weight_factor;
    }
    weights.push_back(weight);
  }
  while (static_cast<int>(assignment.size()) < count) {
    assignment.push_back(combo[rng.WeightedIndex(weights)]);
  }
  return assignment;
}

std::vector<TimePoint> WorkloadGenerator::GenerateInvocationsWithPatternChange(
    TriggerType trigger, double rate_per_day, Rng& rng) const {
  // Split the horizon at a random point in the middle half; the pattern
  // after the switch has a rescaled rate and an independently sampled
  // arrival process.
  const Duration horizon = config_.Horizon();
  const Duration switch_at = horizon * rng.UniformDouble(0.25, 0.75);
  const double rate_factor =
      rng.Bernoulli(0.5) ? rng.UniformDouble(2.0, 8.0)      // Speeds up.
                         : rng.UniformDouble(0.125, 0.5);   // Quiets down.

  std::vector<TimePoint> first =
      GenerateInvocations(trigger, rate_per_day, switch_at, rng);
  const std::vector<TimePoint> second = GenerateInvocations(
      trigger, rate_per_day * rate_factor, horizon - switch_at, rng);
  first.reserve(first.size() + second.size());
  for (TimePoint t : second) {
    first.push_back(t + switch_at);
  }
  return first;
}

std::vector<TimePoint> WorkloadGenerator::GenerateInvocations(
    TriggerType trigger, double rate_per_day, Duration horizon,
    Rng& rng) const {
  GeneratorConfig::BehaviorMix mix =
      config_.behavior_by_trigger[static_cast<size_t>(trigger)];
  // Behaviour is rate-dependent: the burst-with-long-gap pattern belongs to
  // RARE applications (that is what keeps them warm under keep-alive, Figure
  // 14), while mid/high-rate traffic is steadier — queue drains, polling
  // loops, IoT reporters — producing the single-mode IT histograms of the
  // paper's Figure 12 that let the policy unload + pre-warm.
  if (trigger != TriggerType::kTimer && rate_per_day >= 144.0) {
    // High-rate traffic (average IAT <= 10 minutes) is steady: queue drains,
    // polling loops, IoT reporters.  The paper's Figure 12 shows the
    // single-mode IT histograms this produces.
    const double steadiness =
        std::min(1.0, std::log10(rate_per_day / 144.0));
    const double bursty_cut = mix.bursty * (0.72 + 0.23 * steadiness);
    mix.bursty -= bursty_cut;
    mix.periodic += 0.75 * bursty_cut;
    mix.poisson += 0.25 * bursty_cut;
  } else if (trigger != TriggerType::kTimer && rate_per_day >= 24.0) {
    // The 10-60 minute IAT band holds a moderate population of regular
    // callers (Figure 12 left column: IT modes at 20-30 minutes) — always
    // cold under short fixed keep-alives, ideal for pre-warming.
    const double bursty_cut = mix.bursty * 0.18;
    mix.bursty -= bursty_cut;
    mix.periodic += 0.8 * bursty_cut;
    mix.poisson += 0.2 * bursty_cut;
  }
  const double u = rng.NextDouble();
  if (u < mix.periodic) {
    // Timers snap their allocated rate to the nearest cron-like round period
    // (so the app's total rate still follows the Figure 5a distribution);
    // IoT-style periodic callers use their rate directly.
    const Duration period =
        trigger == TriggerType::kTimer
            ? SnapToTimerPeriod(rate_per_day)
            : Duration::FromMinutesF(
                  std::max(1.0, 1440.0 / std::max(rate_per_day, 1e-3)));
    // Timers fire exactly on schedule; external periodic callers drift a
    // little, spreading their IAT CVs over (0, ~0.3] as in Figure 6.
    // The power bias concentrates mass near zero jitter, so a visible
    // fraction of external periodic callers is indistinguishable from a
    // timer (CV ~ 0) while the rest spread over CV in (0, ~0.35).
    const double jitter =
        trigger == TriggerType::kTimer
            ? 0.0
            : config_.periodic_jitter_max *
                  std::pow(rng.NextDouble(), 1.5);
    return GeneratePeriodicArrivals(period, horizon, rng, jitter);
  }
  if (u < mix.periodic + mix.poisson) {
    return GeneratePoissonArrivals(rate_per_day, horizon, profile_, rng);
  }
  // Bursty: vary the burst size and intra-burst spacing per function so the
  // CV spectrum is a spread rather than a spike.
  const double events_per_burst = rng.UniformDouble(3.0, 16.0);
  const Duration intra_iat =
      Duration::FromSecondsF(rng.UniformDouble(5.0, 120.0));
  return GenerateBurstyArrivals(rate_per_day, horizon, profile_, rng,
                                events_per_burst, intra_iat);
}

ExecutionStats WorkloadGenerator::SampleExecutionStats(TriggerType trigger,
                                                       int64_t invocations,
                                                       Rng& rng) const {
  // Average execution time: log-normal in seconds, scaled per trigger.
  const double multiplier =
      config_.exec_median_multiplier[static_cast<size_t>(trigger)];
  const double avg_seconds =
      rng.NextLogNormal(config_.exec_lognormal_mu + std::log(multiplier),
                        config_.exec_lognormal_sigma);
  double avg_ms = std::clamp(avg_seconds * 1000.0, config_.exec_min_ms,
                             config_.exec_max_ms);
  // Per-invocation spread: minimum a uniform fraction below the average,
  // maximum a log-normal factor above it (50% of functions have max < ~3s
  // when the median average is ~0.7s).
  const double min_ms = avg_ms * rng.UniformDouble(0.2, 0.9);
  const double max_factor = 1.0 + rng.NextLogNormal(0.3, 0.8);
  const double max_ms =
      std::min(avg_ms * max_factor, config_.exec_max_ms * 4.0);
  ExecutionStats stats;
  stats.average_ms = avg_ms;
  stats.minimum_ms = min_ms;
  stats.maximum_ms = std::max(max_ms, avg_ms);
  stats.count = invocations;
  return stats;
}

MemoryStats WorkloadGenerator::SampleMemoryStats(Rng& rng) const {
  const BurrXiiDistribution burr(config_.memory_burr_c, config_.memory_burr_k,
                                 config_.memory_burr_lambda);
  const double average = std::clamp(burr.Sample(rng), config_.memory_min_mb,
                                    config_.memory_max_mb);
  MemoryStats stats;
  stats.average_mb = average;
  stats.percentile1_mb = average * rng.UniformDouble(0.70, 0.95);
  stats.maximum_mb =
      std::min(average * rng.UniformDouble(1.05, 1.6), config_.memory_max_mb * 2.0);
  stats.sample_count = 0;  // Filled by the caller from invocation volume.
  return stats;
}

void WorkloadGenerator::PreparePlans() {
  std::call_once(plans_once_, [this] {
    // Pass 1: sample each app's structure, then assign the sampled rates so
    // that apps whose trigger combos have high invocation intensity (Event,
    // Queue) preferentially receive the high rates.  The weighted-ranking-key
    // trick (rank by u^(1/w)) preserves the marginal rate distribution
    // exactly while inducing the correlation Figure 2 requires: 2.2% of
    // functions (Event) carry 24.7% of invocations only if Event apps sit in
    // the popularity tail.  Rates are sorted *globally*, which is why pass 1
    // always covers the whole population even when only one shard will be
    // materialised.
    plans_.reserve(static_cast<size_t>(config_.num_apps));
    std::vector<double> ranking_keys(static_cast<size_t>(config_.num_apps));
    std::vector<double> rates(static_cast<size_t>(config_.num_apps));
    for (int app_index = 0; app_index < config_.num_apps; ++app_index) {
      AppPlan plan{root_rng_.Fork(), {}, 0.0, false};
      plan.one_shot = plan.rng.Bernoulli(config_.frac_one_shot_apps);
      const int num_functions = SampleFunctionsPerApp(plan.rng);
      const std::vector<TriggerType> combo =
          SampleTriggerCombo(num_functions, plan.rng);
      plan.triggers = AssignFunctionTriggers(combo, num_functions, plan.rng);

      double intensity = 0.0;
      for (TriggerType trigger : combo) {
        intensity = std::max(
            intensity,
            config_.invocation_intensity_by_trigger[static_cast<size_t>(
                trigger)]);
      }
      // Clamp from below at neutral: the correlation only PULLS Event/Queue
      // apps into the popularity tail; it must not shove timer-/HTTP-only
      // apps to the rate floor.  Timer apps get a mild boost of their own —
      // real cron schedules cluster in the 1-60 minute band (95% of timer
      // functions fire at most once per minute, Section 3.2, i.e. the mode
      // sits just below that bound), so timer apps should concentrate
      // mid-range rather than follow the extreme low tail.
      intensity = std::max(intensity, 1.0);
      for (TriggerType trigger : combo) {
        if (trigger == TriggerType::kTimer) {
          intensity = std::max(intensity, 1.3);
          break;
        }
      }
      // Blend toward weight 1 (no correlation) per the config knob.
      const double weight =
          1.0 + config_.rate_intensity_correlation * (intensity - 1.0);
      const double u = plan.rng.NextDouble();
      ranking_keys[static_cast<size_t>(app_index)] =
          std::pow(std::max(u, 1e-300), 1.0 / std::max(weight, 1e-3));
      rates[static_cast<size_t>(app_index)] =
          rate_model_.SampleCappedDailyRate(plan.rng);
      plans_.push_back(std::move(plan));
    }
    // Highest keys get the highest rates.
    std::vector<size_t> order(plans_.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::sort(order.begin(), order.end(),
              [&ranking_keys](size_t a, size_t b) {
                return ranking_keys[a] > ranking_keys[b];
              });
    std::sort(rates.begin(), rates.end(), std::greater<>());
    for (size_t rank = 0; rank < order.size(); ++rank) {
      plans_[order[rank]].rate = rates[rank];
    }
  });
}

std::optional<AppTrace> WorkloadGenerator::MaterializeApp(
    int app_index) const {
  const AppPlan& plan = plans_[static_cast<size_t>(app_index)];
  // Pass 2 continues the app's pass-1 RNG stream from a *copy*, so the same
  // app materialises identically no matter how many times, in what order, or
  // on which thread shards are generated.
  Rng app_rng = plan.rng;
  AppTrace app;
  app.owner_id = MakeId("owner", app_index / 4);  // ~4 apps per owner.
  app.app_id = MakeId("app", app_index);

  if (plan.one_shot) {
    // A single invocation at a uniformly random instant.
    FunctionTrace function;
    function.function_id = MakeId("fn", 0);
    function.trigger = plan.triggers[0];
    function.invocations.emplace_back(static_cast<int64_t>(
        app_rng.NextDouble() *
        static_cast<double>(config_.Horizon().millis())));
    function.execution = SampleExecutionStats(function.trigger, 1, app_rng);
    app.functions.push_back(std::move(function));
    app.memory = SampleMemoryStats(app_rng);
    app.memory.sample_count = 1;
    return app;
  }

  const int num_functions = static_cast<int>(plan.triggers.size());
  const std::vector<TriggerType>& triggers = plan.triggers;
  const double app_rate = plan.rate;

  // Split the app's rate across functions: Zipf-ish rank weight times the
  // trigger intensity factor (Event/Queue functions carry more traffic).
  std::vector<double> weights(static_cast<size_t>(num_functions));
  for (int f = 0; f < num_functions; ++f) {
    const double rank_weight = 1.0 / static_cast<double>(f + 1);
    const double intensity =
        config_.invocation_intensity_by_trigger[static_cast<size_t>(
            triggers[static_cast<size_t>(f)])];
    weights[static_cast<size_t>(f)] = rank_weight * intensity;
  }
  double weight_total = 0.0;
  for (double w : weights) {
    weight_total += w;
  }

  const bool pattern_change =
      app_rng.Bernoulli(config_.pattern_change_fraction);
  for (int f = 0; f < num_functions; ++f) {
    FunctionTrace function;
    function.function_id = MakeId("fn", f);
    function.trigger = triggers[static_cast<size_t>(f)];
    const double function_rate =
        app_rate * weights[static_cast<size_t>(f)] / weight_total;
    function.invocations =
        pattern_change
            ? GenerateInvocationsWithPatternChange(function.trigger,
                                                   function_rate, app_rng)
            : GenerateInvocations(function.trigger, function_rate,
                                  config_.Horizon(), app_rng);
    if (function.invocations.empty()) {
      continue;  // Functions that never fired are absent from the dataset.
    }
    function.execution = SampleExecutionStats(
        function.trigger, function.InvocationCount(), app_rng);
    app.functions.push_back(std::move(function));
  }
  if (app.functions.empty()) {
    return std::nullopt;  // App never invoked during the horizon.
  }
  app.memory = SampleMemoryStats(app_rng);
  // Memory is sampled every 5 seconds while the app is resident; use the
  // invocation count as a cheap proxy for the sample volume.
  app.memory.sample_count = std::max<int64_t>(app.TotalInvocations(), 1);
  return app;
}

Trace WorkloadGenerator::Generate() {
  PreparePlans();
  Trace trace;
  trace.horizon = config_.Horizon();
  trace.apps.reserve(static_cast<size_t>(config_.num_apps));
  for (int app_index = 0; app_index < config_.num_apps; ++app_index) {
    if (std::optional<AppTrace> app = MaterializeApp(app_index)) {
      trace.apps.push_back(std::move(*app));
    }
  }
  // Flash-crowd overlay, after every app's own stream is materialised so
  // the per-app forks above are untouched.  Gated on the knob: a zero count
  // forks no RNG stream and leaves the trace bit-identical.  The fork comes
  // from a copy of the post-pass-1 root state so Generate() stays idempotent.
  if (config_.flash_crowd_count > 0) {
    FlashCrowdSpec spec;
    spec.count = config_.flash_crowd_count;
    spec.duration = config_.flash_crowd_duration;
    spec.fraction = config_.flash_crowd_fraction;
    spec.events_per_function = config_.flash_crowd_events_per_function;
    Rng root_copy = root_rng_;
    Rng crowd_rng = root_copy.Fork();
    ApplyFlashCrowd(trace, spec, crowd_rng);
  }

  trace.entities = EntityIndex::Build(trace);
  return trace;
}

Trace WorkloadGenerator::GenerateShard(int begin, int end) {
  FAAS_CHECK(begin >= 0 && begin <= end && end <= config_.num_apps)
      << "shard range [" << begin << ", " << end << ") out of [0, "
      << config_.num_apps << ")";
  FAAS_CHECK(config_.flash_crowd_count == 0)
      << "flash crowds are a global overlay; shard-addressable generation "
         "requires flash_crowd_count == 0";
  PreparePlans();
  Trace trace;
  trace.horizon = config_.Horizon();
  trace.apps.reserve(static_cast<size_t>(end - begin));
  for (int app_index = begin; app_index < end; ++app_index) {
    if (std::optional<AppTrace> app = MaterializeApp(app_index)) {
      trace.apps.push_back(std::move(*app));
    }
  }
  trace.entities = EntityIndex::Build(trace);
  return trace;
}

}  // namespace faas
