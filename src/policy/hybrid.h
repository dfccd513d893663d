// The hybrid histogram policy (Section 4.2) — the paper's core contribution.
//
// Per application, the policy:
//   1. tracks idle times (ITs) in a compact range-limited histogram
//      (1-minute bins, default 4-hour range);
//   2. when the histogram is representative (enough samples and a bin-count
//      CV above a threshold), pre-warms at the head percentile of the IT
//      distribution (5th by default, with a 10% safety margin) and keeps the
//      image alive until the tail percentile (99th, plus 10%);
//   3. when the histogram is NOT representative, reverts to a conservative
//      standard keep-alive: no unload after execution, keep-alive equal to
//      the whole histogram range;
//   4. when too many ITs fall outside the histogram range, fits an ARIMA
//      model to the IT series and schedules the pre-warm around the one-step
//      forecast with a 15% margin.

#ifndef SRC_POLICY_HYBRID_H_
#define SRC_POLICY_HYBRID_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "src/arima/auto_arima.h"
#include "src/policy/policy.h"
#include "src/stats/histogram.h"

namespace faas {

struct HybridPolicyConfig {
  // Histogram geometry: 1-minute bins over a 4-hour range by default (240
  // integers = the 960-byte budget quoted for the production rollout).
  Duration bin_width = Duration::Minutes(1);
  int num_bins = 240;

  // IT-distribution cutoffs ("Hybrid[head,tail]" in Figure 16).
  double head_percentile = 5.0;
  double tail_percentile = 99.0;

  // Safety margins: the pre-warm window shrinks by `prewarm_margin` and the
  // keep-alive window grows by `keepalive_margin`.
  double prewarm_margin = 0.10;
  double keepalive_margin = 0.10;

  // Representativeness: histogram is used only with at least
  // `min_histogram_samples` in-bounds ITs and a bin-count CV of at least
  // `cv_threshold` (Figure 18 sweeps this).
  int64_t min_histogram_samples = 5;
  double cv_threshold = 2.0;

  // Pre-warming on/off (Figure 17's "No PW" ablation keeps the image loaded
  // from execution end to the tail percentile).  Known quirk, kept because
  // fixing it moves recorded results: only the histogram branch honours
  // this flag.  The ARIMA branch (DecideFromArima) still unloads and
  // pre-warms around its forecast, so "No PW" pre-warms ARIMA apps.
  bool enable_prewarm = true;

  // ARIMA fallback: engaged when the out-of-bounds share of ITs exceeds
  // `oob_threshold` and at least `arima_min_observations` ITs were seen.
  bool enable_arima = true;
  double oob_threshold = 0.50;
  int arima_min_observations = 8;
  // Forecast margin: pre-warm at (1 - margin) * forecast, keep alive for
  // 2 * margin * forecast (15% on each side of the prediction).
  double arima_margin = 0.15;
  // Extension: derive the margin from the model's own forecast uncertainty
  // instead of a fixed fraction — the window spans +-z standard errors
  // around the prediction (never narrower than the fixed margin).  The
  // paper uses the fixed 15%; this knob quantifies what a confidence-aware
  // variant would do.
  bool arima_use_confidence = false;
  double arima_confidence_z = 1.96;
  // Cap on the retained IT history for model fitting (memory bound).
  size_t arima_history_limit = 200;
  AutoArimaOptions arima_options = {};

  Duration HistogramRange() const {
    return bin_width * static_cast<int64_t>(num_bins);
  }
};

// Computes the pre-warm/keep-alive windows from an IT histogram using the
// head/tail percentile cutoffs and margins in `config`.  Shared by the
// in-memory policy below and the production-style daily-store policy.
// Requires histogram.in_bounds_count() > 0.
PolicyDecision ComputeWindowsFromHistogram(
    const RangeLimitedHistogram& histogram, const HybridPolicyConfig& config);

class HybridHistogramPolicy final : public KeepAlivePolicy {
 public:
  // Which component produced the most recent decision (Figure 10's three
  // branches), exposed for the Figure 19 accounting.
  enum class DecisionKind {
    kNone,
    kHistogram,       // Representative histogram: head/tail windows.
    kStandardKeepAlive,  // Not representative: conservative keep-alive.
    kArima,           // Too many OOB ITs: time-series forecast.
  };

  explicit HybridHistogramPolicy(HybridPolicyConfig config);

  void RecordIdleTime(Duration idle_time) override;
  PolicyDecision NextWindows() override;
  std::string name() const override;
  size_t ApproximateSizeBytes() const override;

  // Failover support: snapshots carry the histogram and the bounded IT
  // history; a wiped policy reverts to the standard keep-alive until the
  // histogram is representative again.
  std::unique_ptr<PolicyStateSnapshot> SnapshotState() const override;
  bool RestoreState(const PolicyStateSnapshot& snapshot) override;
  void WipeState() override;
  bool IsLearning() const override;

  const HybridPolicyConfig& config() const { return config_; }
  DecisionKind last_decision() const { return last_decision_; }
  int64_t decisions_by_histogram() const { return decisions_by_histogram_; }
  int64_t decisions_by_standard() const { return decisions_by_standard_; }
  int64_t decisions_by_arima() const { return decisions_by_arima_; }
  const RangeLimitedHistogram& histogram() const { return histogram_; }

 private:
  bool HistogramIsRepresentative() const;
  bool ShouldUseArima() const;
  PolicyDecision DecideFromHistogram();
  PolicyDecision DecideStandardKeepAlive();
  PolicyDecision DecideFromArima();

  HybridPolicyConfig config_;
  RangeLimitedHistogram histogram_;
  // IT history in minutes, bounded, for the ARIMA fallback.
  std::deque<double> it_history_minutes_;

  DecisionKind last_decision_ = DecisionKind::kNone;
  int64_t decisions_by_histogram_ = 0;
  int64_t decisions_by_standard_ = 0;
  int64_t decisions_by_arima_ = 0;
};

class HybridPolicyFactory final : public PolicyFactory {
 public:
  explicit HybridPolicyFactory(HybridPolicyConfig config)
      : config_(std::move(config)) {}

  std::unique_ptr<KeepAlivePolicy> CreateForApp() const override {
    return std::make_unique<HybridHistogramPolicy>(config_);
  }
  std::string name() const override;

  const HybridPolicyConfig& config() const { return config_; }

 private:
  HybridPolicyConfig config_;
};

}  // namespace faas

#endif  // SRC_POLICY_HYBRID_H_
