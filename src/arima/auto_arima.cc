#include "src/arima/auto_arima.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "src/arima/series.h"
#include "src/common/logging.h"

namespace faas {

namespace {

// The memo AutoArima consults on this thread; set only by ArimaMemoScope.
thread_local ArimaMemo* t_arima_memo = nullptr;

// Fits ARIMA(p, d, q) for the search's fixed d; nullopt when the series is
// too short for that order.
using CandidateFit = std::function<std::optional<ArimaModel>(int p, int q)>;

// The model, or nullopt when its AIC is not finite.
std::optional<ArimaModel> IfFiniteAic(ArimaModel model) {
  if (!std::isfinite(model.Aic())) {
    return std::nullopt;
  }
  return model;
}

std::optional<ArimaModel> GridSearch(const CandidateFit& fit,
                                     const AutoArimaOptions& options) {
  std::optional<ArimaModel> best;
  for (int p = 0; p <= options.max_p; ++p) {
    for (int q = 0; q <= options.max_q; ++q) {
      auto candidate = fit(p, q);
      if (candidate.has_value() &&
          (!best.has_value() || candidate->Aic() < best->Aic())) {
        best = std::move(candidate);
      }
    }
  }
  return best;
}

std::optional<ArimaModel> StepwiseSearch(const CandidateFit& fit,
                                         const AutoArimaOptions& options) {
  // Hyndman-Khandakar-style neighbourhood walk from standard starting points.
  std::set<std::pair<int, int>> visited;
  std::optional<ArimaModel> best;

  const auto consider = [&](int p, int q) {
    if (p < 0 || q < 0 || p > options.max_p || q > options.max_q) {
      return;
    }
    if (!visited.insert({p, q}).second) {
      return;
    }
    auto candidate = fit(p, q);
    if (candidate.has_value() &&
        (!best.has_value() || candidate->Aic() < best->Aic())) {
      best = std::move(candidate);
    }
  };

  consider(0, 0);
  consider(1, 0);
  consider(0, 1);
  consider(2, 2);

  for (int round = 0; round < 16 && best.has_value(); ++round) {
    const int p = best->order().p;
    const int q = best->order().q;
    const double before = best->Aic();
    consider(p + 1, q);
    consider(p - 1, q);
    consider(p, q + 1);
    consider(p, q - 1);
    consider(p + 1, q + 1);
    consider(p - 1, q - 1);
    if (best->Aic() >= before) {
      break;  // No neighbour improved.
    }
  }
  return best;
}

}  // namespace

const std::optional<ArimaModel>* ArimaMemo::Find(
    std::span<const double> series, const AutoArimaOptions& options) const {
  for (const Entry& entry : entries_) {
    if (entry.options == options && entry.series.size() == series.size() &&
        std::memcmp(entry.series.data(), series.data(),
                    series.size_bytes()) == 0) {
      return &entry.model;
    }
  }
  return nullptr;
}

ArimaMemoScope::ArimaMemoScope(ArimaMemo* memo) : previous_(t_arima_memo) {
  t_arima_memo = memo;
}

ArimaMemoScope::~ArimaMemoScope() { t_arima_memo = previous_; }

std::optional<ArimaModel> AutoArima(std::span<const double> series,
                                    const AutoArimaOptions& options) {
  if (series.size() < 4) {
    return std::nullopt;
  }
  ArimaMemo* const memo = t_arima_memo;
  if (memo != nullptr) {
    if (const std::optional<ArimaModel>* hit = memo->Find(series, options)) {
      return *hit;
    }
  }
  int d = EstimateDifferencingOrder(series, options.max_d);
  // Ensure the differenced series leaves room to fit something.
  while (d > 0 && series.size() <= static_cast<size_t>(d) + 4) {
    --d;
  }

  // Every candidate order shares the differenced series and the
  // Hannan-Rissanen long-AR residuals, so they are computed once.
  const ArimaModel::FitInput input =
      ArimaModel::PrepareFit(series, d, options.with_mean);
  const CandidateFit fit = [&](int p, int q) -> std::optional<ArimaModel> {
    const ArimaOrder order{p, d, q};
    if (!ArimaModel::CanFit(series.size(), order)) {
      return std::nullopt;
    }
    return IfFiniteAic(ArimaModel::FitPrepared(input, order));
  };
  std::optional<ArimaModel> best = options.stepwise
                                       ? StepwiseSearch(fit, options)
                                       : GridSearch(fit, options);
  if (!best.has_value() && ArimaModel::CanFit(series.size(), {0, 0, 0})) {
    // Last resort: random-walk-style mean model.
    best = IfFiniteAic(ArimaModel::Fit(series, {0, 0, 0}, /*with_mean=*/true));
  }
  if (memo != nullptr) {
    memo->entries_.push_back(
        {options, std::vector<double>(series.begin(), series.end()), best});
  }
  return best;
}

}  // namespace faas
