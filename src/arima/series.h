// Time-series primitives: differencing, autocorrelation, partial
// autocorrelation, stationarity testing, and polynomial root checks.
//
// These are the building blocks of the ARIMA fitter that replaces the
// paper's use of pmdarima.auto_arima for applications whose idle times
// exceed the histogram range (Section 4.2, "Time-series analysis when
// histogram is not large enough").

#ifndef SRC_ARIMA_SERIES_H_
#define SRC_ARIMA_SERIES_H_

#include <span>
#include <vector>

namespace faas {

// d-th order differencing: returns x[t] - x[t-1] applied `d` times.
// The result has size max(0, n - d).
std::vector<double> Difference(std::span<const double> series, int d);

// Inverts one differencing step given the last observation of the original
// series at each level; `tails[i]` is the final value of the i-times
// differenced series.  Used to turn forecasts of the differenced series back
// into forecasts of the original.
std::vector<double> IntegrateForecast(std::span<const double> diff_forecast,
                                      std::span<const double> tails);

// Returns the last observation of each differencing level 0..d-1, i.e. the
// state needed by IntegrateForecast.
std::vector<double> DifferencingTails(std::span<const double> series, int d);

// Sample autocorrelation function for lags 0..max_lag (acf[0] == 1).
std::vector<double> Acf(std::span<const double> series, int max_lag);

// Partial autocorrelation via Durbin-Levinson for lags 1..max_lag.
std::vector<double> Pacf(std::span<const double> series, int max_lag);

// Yule-Walker AR(p) coefficient estimates.
std::vector<double> YuleWalkerAr(std::span<const double> series, int p);

// KPSS level-stationarity statistic with a Bartlett-window long-run variance
// (lag truncation = floor(4 * (n/100)^0.25), the standard choice).
double KpssStatistic(std::span<const double> series);

// True if the series passes the KPSS test at the 5% level (statistic below
// the 0.463 critical value), i.e. we fail to reject stationarity.
bool IsLevelStationaryKpss(std::span<const double> series);

// Smallest d in [0, max_d] whose d-times differenced series passes KPSS;
// returns max_d if none does.  Mirrors pmdarima's ndiffs(test="kpss").
int EstimateDifferencingOrder(std::span<const double> series, int max_d);

// True if all roots of 1 - c1*z - c2*z^2 - ... - cp*z^p lie strictly outside
// the unit circle (stationarity for AR coefficients, invertibility for
// negated MA coefficients); a root within 1e-8 of it counts as on it.
// The answer is always the one Durand-Kerner iteration gives: a Schur-Cohn
// step-down decides degree <= 3 polynomials whose roots are clearly off the
// circle, and Durand-Kerner decides the rest; degree <= 8.
bool RootsOutsideUnitCircle(std::span<const double> coefficients);

namespace detail {

// Half-width of the guard band around |reflection coefficient| = 1 inside
// which the Schur-Cohn step-down leaves the root check to Durand-Kerner.
inline constexpr double kSchurCohnBand = 1e-3;

enum class RootVerdict { kOutside, kNotOutside, kUndecided };

// The fast path of RootsOutsideUnitCircle, on coefficients whose trailing
// zeros are already stripped: a Schur-Cohn step-down of
// 1 - sum_i c_i (rho z)^i, rho = 1 + 1e-8.  kUndecided when the degree is
// above 3, an entry is non-finite or above 256 in magnitude, or a
// reflection coefficient lies within kSchurCohnBand of magnitude 1.
RootVerdict SchurCohnVerdict(std::span<const double> coefficients);

}  // namespace detail

}  // namespace faas

#endif  // SRC_ARIMA_SERIES_H_
