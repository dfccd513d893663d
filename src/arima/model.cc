#include "src/arima/model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/arima/series.h"
#include "src/common/logging.h"
#include "src/stats/descriptive.h"
#include "src/stats/nelder_mead.h"

namespace faas {

namespace {

// Computes CSS residuals for a zero-mean ARMA(p, q) on `w` (already
// mean-adjusted) into `residuals`, reusing its storage.  Pre-sample values
// and residuals are treated as zero.
void ComputeResiduals(std::span<const double> w, std::span<const double> ar,
                      std::span<const double> ma,
                      std::vector<double>& residuals) {
  const size_t n = w.size();
  residuals.resize(n);
  const size_t p = ar.size();
  const size_t q = ma.size();
  // Warm-up rows reach before the sample; each lag is checked.
  const size_t warm_up = std::min(n, std::max(p, q));
  for (size_t t = 0; t < warm_up; ++t) {
    double prediction = 0.0;
    for (size_t i = 0; i < p; ++i) {
      if (t > i) {
        prediction += ar[i] * w[t - i - 1];
      }
    }
    for (size_t j = 0; j < q; ++j) {
      if (t > j) {
        prediction += ma[j] * residuals[t - j - 1];
      }
    }
    residuals[t] = w[t] - prediction;
  }
  // Steady-state rows: every lag is in the sample.  Same additions in the
  // same order as the warm-up rows, so the sums are bit-identical.
  for (size_t t = warm_up; t < n; ++t) {
    double prediction = 0.0;
    for (size_t i = 0; i < p; ++i) {
      prediction += ar[i] * w[t - i - 1];
    }
    for (size_t j = 0; j < q; ++j) {
      prediction += ma[j] * residuals[t - j - 1];
    }
    residuals[t] = w[t] - prediction;
  }
}

double SumOfSquares(std::span<const double> values) {
  double total = 0.0;
  for (double v : values) {
    total += v * v;
  }
  return total;
}

// Hannan-Rissanen step: long-AR residuals, then OLS of w_t on
// (w_{t-1}..w_{t-p}, e_{t-1}..e_{t-q}).  Solves the normal equations by
// Gaussian elimination with partial pivoting (the system is tiny: p+q <= 10).
struct HannanRissanenEstimate {
  std::vector<double> ar;
  std::vector<double> ma;
  bool ok = false;
};

bool SolveLinearSystem(std::vector<std::vector<double>>& a,
                       std::vector<double>& b) {
  const size_t n = b.size();
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t row = col + 1; row < n; ++row) {
      if (std::fabs(a[row][col]) > std::fabs(a[pivot][col])) {
        pivot = row;
      }
    }
    if (std::fabs(a[pivot][col]) < 1e-12) {
      return false;
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (size_t row = col + 1; row < n; ++row) {
      const double factor = a[row][col] / a[col][col];
      for (size_t k = col; k < n; ++k) {
        a[row][k] -= factor * a[col][k];
      }
      b[row] -= factor * b[col];
    }
  }
  for (size_t row = n; row-- > 0;) {
    double acc = b[row];
    for (size_t k = row + 1; k < n; ++k) {
      acc -= a[row][k] * b[k];
    }
    b[row] = acc / a[row][row];
  }
  return true;
}

// Order of the long AR whose residuals proxy the innovations.
int LongArOrder(size_t n, int p, int q) {
  return std::min<int>(static_cast<int>(n) / 4,
                       std::max(8, 2 * std::max(p, q)));
}

// Stage 1: residuals of a long AR(long_order) Yule-Walker fit, or zeros
// when the series is too short for it.
std::vector<double> LongArResiduals(std::span<const double> w,
                                    int long_order) {
  const size_t n = w.size();
  std::vector<double> proxy_residuals(n, 0.0);
  if (long_order >= 1 && n > static_cast<size_t>(long_order) + 1) {
    const std::vector<double> long_ar = YuleWalkerAr(w, long_order);
    for (size_t t = 0; t < n; ++t) {
      double prediction = 0.0;
      for (size_t i = 0; i < long_ar.size(); ++i) {
        if (t > i) {
          prediction += long_ar[i] * w[t - i - 1];
        }
      }
      proxy_residuals[t] = w[t] - prediction;
    }
  }
  return proxy_residuals;
}

// `proxy_residuals` come from LongArResiduals(w, LongArOrder(n, p, q)); they
// are read only when q > 0.
HannanRissanenEstimate HannanRissanen(std::span<const double> w,
                                      std::span<const double> proxy_residuals,
                                      int p, int q) {
  HannanRissanenEstimate est;
  est.ar.assign(static_cast<size_t>(p), 0.0);
  est.ma.assign(static_cast<size_t>(q), 0.0);
  const size_t n = w.size();
  if (p == 0 && q == 0) {
    est.ok = true;
    return est;
  }

  // Stage 2: OLS of w_t on lagged w and lagged proxy residuals.
  const size_t start = static_cast<size_t>(std::max(p, q));
  const size_t dim = static_cast<size_t>(p + q);
  if (n <= start + dim) {
    // Not enough data for the regression; fall back to Yule-Walker AR only.
    if (p > 0 && n > static_cast<size_t>(p) + 1) {
      est.ar = YuleWalkerAr(w, p);
    }
    est.ok = true;
    return est;
  }
  std::vector<std::vector<double>> xtx(dim, std::vector<double>(dim, 0.0));
  std::vector<double> xty(dim, 0.0);
  std::vector<double> row(dim, 0.0);
  for (size_t t = start; t < n; ++t) {
    for (int i = 0; i < p; ++i) {
      row[static_cast<size_t>(i)] = w[t - static_cast<size_t>(i) - 1];
    }
    for (int j = 0; j < q; ++j) {
      row[static_cast<size_t>(p + j)] =
          proxy_residuals[t - static_cast<size_t>(j) - 1];
    }
    for (size_t a = 0; a < dim; ++a) {
      xty[a] += row[a] * w[t];
      for (size_t b = 0; b < dim; ++b) {
        xtx[a][b] += row[a] * row[b];
      }
    }
  }
  // Ridge-regularise slightly for numerical safety.
  for (size_t a = 0; a < dim; ++a) {
    xtx[a][a] += 1e-8;
  }
  if (!SolveLinearSystem(xtx, xty)) {
    if (p > 0 && n > static_cast<size_t>(p) + 1) {
      est.ar = YuleWalkerAr(w, p);
    }
    est.ok = true;
    return est;
  }
  for (int i = 0; i < p; ++i) {
    est.ar[static_cast<size_t>(i)] = xty[static_cast<size_t>(i)];
  }
  for (int j = 0; j < q; ++j) {
    est.ma[static_cast<size_t>(j)] = xty[static_cast<size_t>(p + j)];
  }
  est.ok = true;
  return est;
}

// Shrinks a coefficient vector toward zero until the implied polynomial has
// all roots outside the unit circle.
void ForceToStableRegion(std::vector<double>& coefficients) {
  double scale = 1.0;
  for (int attempt = 0; attempt < 32; ++attempt) {
    std::vector<double> scaled(coefficients.size());
    for (size_t i = 0; i < coefficients.size(); ++i) {
      scaled[i] = coefficients[i] * scale;
    }
    if (RootsOutsideUnitCircle(scaled)) {
      coefficients = std::move(scaled);
      return;
    }
    scale *= 0.85;
  }
  std::fill(coefficients.begin(), coefficients.end(), 0.0);
}

}  // namespace

std::string ArimaOrder::ToString() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "ARIMA(%d,%d,%d)", p, d, q);
  return buf;
}

bool ArimaModel::CanFit(size_t series_length, const ArimaOrder& order) {
  const size_t needed = static_cast<size_t>(order.d) +
                        static_cast<size_t>(std::max(order.p, order.q)) + 2;
  return series_length >= std::max<size_t>(needed, 4);
}

ArimaModel ArimaModel::Fit(std::span<const double> series,
                           const ArimaOrder& order, bool with_mean) {
  FAAS_CHECK(order.d >= 0) << "negative ARIMA order";
  FAAS_CHECK(CanFit(series.size(), order))
      << "series of length " << series.size() << " too short for "
      << order.ToString();
  return FitPrepared(PrepareFit(series, order.d, with_mean), order);
}

ArimaModel::FitInput ArimaModel::PrepareFit(std::span<const double> series,
                                            int d, bool with_mean) {
  FitInput input;
  input.d = d;
  input.with_mean = with_mean && d == 0;
  input.differencing_tails = DifferencingTails(series, d);
  input.differenced = Difference(series, d);

  const size_t n = input.differenced.size();
  input.mean = input.with_mean ? Mean(input.differenced) : 0.0;

  // Mean-adjusted working series.
  input.w.resize(n);
  for (size_t t = 0; t < n; ++t) {
    input.w[t] = input.differenced[t] - input.mean;
  }
  // The long-AR order is the same for every p, q <= 4.
  input.proxy_order = LongArOrder(n, 0, 0);
  input.proxy_residuals = LongArResiduals(input.w, input.proxy_order);
  return input;
}

ArimaModel ArimaModel::FitPrepared(const FitInput& input,
                                   const ArimaOrder& order) {
  FAAS_CHECK(order.p >= 0 && order.q >= 0) << "negative ARIMA order";
  FAAS_CHECK(order.p <= 8 && order.q <= 8) << "ARIMA order too large";
  FAAS_CHECK(order.d == input.d) << "fit input prepared for another d";
  ArimaModel model;
  model.order_ = order;
  model.with_mean_ = input.with_mean;
  model.differencing_tails_ = input.differencing_tails;
  model.differenced_ = input.differenced;
  model.mean_ = input.mean;

  const std::span<const double> w = input.w;
  const size_t n = w.size();
  const size_t p = static_cast<size_t>(order.p);

  // Initial estimates.
  std::vector<double> own_proxy;
  std::span<const double> proxy = input.proxy_residuals;
  const int long_order = LongArOrder(n, order.p, order.q);
  if (order.q > 0 && long_order != input.proxy_order) {
    own_proxy = LongArResiduals(w, long_order);
    proxy = own_proxy;
  }
  HannanRissanenEstimate init = HannanRissanen(w, proxy, order.p, order.q);
  ForceToStableRegion(init.ar);
  ForceToStableRegion(init.ma);

  std::vector<double> ar = init.ar;
  std::vector<double> ma = init.ma;

  const size_t dim = static_cast<size_t>(order.p + order.q);
  // One residual buffer for every objective call and the final fit.
  std::vector<double> residuals;
  if (dim > 0) {
    // CSS refinement.  The objective rejects non-stationary/non-invertible
    // parameter vectors outright.
    const auto objective = [&](const std::vector<double>& params) {
      const std::span<const double> all(params);
      const std::span<const double> cand_ar = all.first(p);
      const std::span<const double> cand_ma = all.subspan(p);
      if (!RootsOutsideUnitCircle(cand_ar) ||
          !RootsOutsideUnitCircle(cand_ma)) {
        return std::numeric_limits<double>::infinity();
      }
      ComputeResiduals(w, cand_ar, cand_ma, residuals);
      const double css = SumOfSquares(residuals);
      return std::isfinite(css) ? css
                                : std::numeric_limits<double>::infinity();
    };

    std::vector<double> start;
    start.insert(start.end(), ar.begin(), ar.end());
    start.insert(start.end(), ma.begin(), ma.end());

    NelderMeadOptions options;
    options.max_iterations = 800;
    options.relative_step = 0.1;
    options.initial_step = 0.05;
    options.f_tolerance = 1e-9;
    const NelderMeadResult opt = NelderMeadMinimize(objective, start, options);
    if (std::isfinite(opt.f)) {
      ar.assign(opt.x.begin(), opt.x.begin() + order.p);
      ma.assign(opt.x.begin() + order.p, opt.x.end());
    }
  }

  ComputeResiduals(w, ar, ma, residuals);
  const double css = SumOfSquares(residuals);
  const double dn = static_cast<double>(n);
  model.sigma2_ = n > 0 ? css / dn : 0.0;
  if (model.sigma2_ < 1e-300) {
    model.sigma2_ = 1e-300;
  }
  // Gaussian log-likelihood implied by the CSS variance.
  model.log_likelihood_ =
      -0.5 * dn * (std::log(2.0 * M_PI * model.sigma2_) + 1.0);
  model.ar_ = std::move(ar);
  model.ma_ = std::move(ma);
  model.residuals_ = std::move(residuals);
  return model;
}

int ArimaModel::NumParameters() const {
  return order_.p + order_.q + (with_mean_ ? 1 : 0) + 1;  // +1 for sigma^2.
}

double ArimaModel::Aic() const {
  return -2.0 * log_likelihood_ + 2.0 * static_cast<double>(NumParameters());
}

std::vector<double> ArimaModel::Forecast(int steps) const {
  FAAS_CHECK(steps >= 1) << "forecast horizon must be >= 1";
  const size_t n = differenced_.size();
  const size_t p = ar_.size();
  const size_t q = ma_.size();

  // Extend the mean-adjusted series and residuals with forecasts; future
  // residuals are zero in expectation.
  std::vector<double> w(n);
  for (size_t t = 0; t < n; ++t) {
    w[t] = differenced_[t] - mean_;
  }
  std::vector<double> extended_res = residuals_;
  std::vector<double> diff_forecast;
  diff_forecast.reserve(static_cast<size_t>(steps));
  for (int h = 0; h < steps; ++h) {
    const size_t t = n + static_cast<size_t>(h);
    double prediction = 0.0;
    for (size_t i = 0; i < p; ++i) {
      if (t > i) {
        prediction += ar_[i] * w[t - i - 1];
      }
    }
    for (size_t j = 0; j < q; ++j) {
      if (t > j && t - j - 1 < extended_res.size()) {
        prediction += ma_[j] * extended_res[t - j - 1];
      }
    }
    w.push_back(prediction);
    diff_forecast.push_back(prediction + mean_);
  }
  return IntegrateForecast(diff_forecast, differencing_tails_);
}

double ArimaModel::ForecastOne() const { return Forecast(1)[0]; }

std::vector<ArimaModel::ForecastInterval> ArimaModel::ForecastWithErrors(
    int steps) const {
  const std::vector<double> means = Forecast(steps);

  // psi-weight recursion for the INTEGRATED process: the AR polynomial of
  // the original series is phi(B) * (1-B)^d.  Expand that product into
  // "big phi" coefficients, then psi_j = theta_j + sum_i bigphi_i psi_{j-i}
  // (theta_0 = psi_0 = 1).
  std::vector<double> big_phi(ar_.begin(), ar_.end());
  for (int round = 0; round < order_.d; ++round) {
    // Multiply (1 - sum big_phi_i B^i) by (1 - B):
    // new_0 = old_0 + 1, new_i = old_i - old_{i-1}, new_last = -old_last.
    std::vector<double> next(big_phi.size() + 1, 0.0);
    for (size_t i = 0; i < big_phi.size(); ++i) {
      next[i] += big_phi[i];
      next[i + 1] -= big_phi[i];
    }
    next[0] += 1.0;
    big_phi = std::move(next);
  }

  std::vector<double> psi(static_cast<size_t>(steps), 0.0);
  psi[0] = 1.0;
  for (int j = 1; j < steps; ++j) {
    double value = static_cast<size_t>(j) <= ma_.size()
                       ? ma_[static_cast<size_t>(j - 1)]
                       : 0.0;
    for (size_t i = 1; i <= big_phi.size() && static_cast<int>(i) <= j; ++i) {
      value += big_phi[i - 1] * psi[static_cast<size_t>(j) - i];
    }
    psi[static_cast<size_t>(j)] = value;
  }

  std::vector<ForecastInterval> intervals(static_cast<size_t>(steps));
  double cumulative_psi_sq = 0.0;
  for (int h = 0; h < steps; ++h) {
    cumulative_psi_sq += psi[static_cast<size_t>(h)] * psi[static_cast<size_t>(h)];
    intervals[static_cast<size_t>(h)].mean = means[static_cast<size_t>(h)];
    intervals[static_cast<size_t>(h)].stderr_ =
        std::sqrt(sigma2_ * cumulative_psi_sq);
  }
  return intervals;
}

}  // namespace faas
