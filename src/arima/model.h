// ARIMA(p, d, q) model: fitting by conditional sum of squares and
// multi-step forecasting.
//
// Fitting pipeline (mirroring what pmdarima does at a high level):
//   1. difference the series d times;
//   2. Hannan-Rissanen initial estimates: long-AR residual proxy, then OLS
//      of the series on its own lags and lagged residuals;
//   3. Nelder-Mead refinement of the conditional sum of squares, with
//      stationarity/invertibility enforced through root checks;
//   4. Gaussian log-likelihood / AIC from the CSS residual variance.

#ifndef SRC_ARIMA_MODEL_H_
#define SRC_ARIMA_MODEL_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

namespace faas {

struct AutoArimaOptions;

struct ArimaOrder {
  int p = 0;
  int d = 0;
  int q = 0;

  bool operator==(const ArimaOrder&) const = default;
  std::string ToString() const;
};

class ArimaModel {
 public:
  // Fits an ARIMA(order) model to `series` by CSS.  Requires
  // series.size() > order.d + max(order.p, order.q) + 1.
  // `with_mean` fits an intercept on the differenced series (forced off when
  // d > 0, matching common practice).
  static ArimaModel Fit(std::span<const double> series, const ArimaOrder& order,
                        bool with_mean = true);

  // True when the series is long enough for Fit() to succeed.
  static bool CanFit(size_t series_length, const ArimaOrder& order);

  const ArimaOrder& order() const { return order_; }
  const std::vector<double>& ar() const { return ar_; }
  const std::vector<double>& ma() const { return ma_; }
  double mean() const { return mean_; }
  double sigma2() const { return sigma2_; }
  double log_likelihood() const { return log_likelihood_; }
  double Aic() const;
  // Number of estimated parameters (AR + MA + intercept + sigma^2).
  int NumParameters() const;

  // In-sample one-step-ahead residuals of the differenced series.
  const std::vector<double>& residuals() const { return residuals_; }

  // Forecasts `steps` future values of the ORIGINAL (undifferenced) series.
  std::vector<double> Forecast(int steps) const;
  // Convenience: one-step-ahead point forecast.
  double ForecastOne() const;

  // Point forecasts with standard errors.  Errors follow the psi-weight
  // (MA-infinity) expansion of the ARIMA process: the h-step variance is
  // sigma^2 * sum_{j<h} psi_j^2, with the psi recursion run on the
  // integrated (ARIMA, not just ARMA) polynomial so differencing's error
  // accumulation is included.
  struct ForecastInterval {
    double mean = 0.0;
    double stderr_ = 0.0;  // Standard error of the h-step forecast.

    double Lower(double z = 1.96) const { return mean - z * stderr_; }
    double Upper(double z = 1.96) const { return mean + z * stderr_; }
  };
  std::vector<ForecastInterval> ForecastWithErrors(int steps) const;

 private:
  // Everything the fits of one series at one differencing order share:
  // AutoArima prepares it once per d and reuses it for every (p, q).
  struct FitInput {
    int d = 0;
    bool with_mean = false;
    std::vector<double> differenced;
    std::vector<double> differencing_tails;
    double mean = 0.0;
    std::vector<double> w;  // differenced - mean.
    // Hannan-Rissanen innovation proxy: residuals of a long AR of order
    // `proxy_order` (zeros when the series is too short for it).
    int proxy_order = 0;
    std::vector<double> proxy_residuals;
  };
  friend std::optional<ArimaModel> AutoArima(std::span<const double> series,
                                             const AutoArimaOptions& options);

  static FitInput PrepareFit(std::span<const double> series, int d,
                             bool with_mean);
  // Fit() on a prepared series; order.d must equal input.d.
  static ArimaModel FitPrepared(const FitInput& input, const ArimaOrder& order);

  ArimaModel() = default;

  ArimaOrder order_;
  std::vector<double> ar_;
  std::vector<double> ma_;
  double mean_ = 0.0;
  double sigma2_ = 0.0;
  double log_likelihood_ = 0.0;
  bool with_mean_ = false;

  // State captured at fit time, needed for forecasting.
  std::vector<double> differenced_;        // The d-times differenced series.
  std::vector<double> residuals_;          // CSS residuals, same length.
  std::vector<double> differencing_tails_; // For re-integration.
};

}  // namespace faas

#endif  // SRC_ARIMA_MODEL_H_
