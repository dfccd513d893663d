// auto_arima: order selection by AIC grid search.
//
// Replaces the paper's use of pmdarima.auto_arima.  The differencing order d
// comes from repeated KPSS tests (pmdarima's default "ndiffs"); p and q are
// then selected by fitting every combination up to (max_p, max_q) and
// keeping the lowest-AIC model.  The grid is small (default 4x4 = 16 fits)
// because the policy's IT series are short.
//
// AutoArima is a pure function of (series, options), so a caller that fits
// the same series more than once can install an ArimaMemo on its thread
// (ArimaMemoScope) and pay for each distinct fit once.  The sweep engine
// does this per replay task: every ARIMA-enabled hybrid config replayed on
// one app fits the same idle-time series at the same invocation.

#ifndef SRC_ARIMA_AUTO_ARIMA_H_
#define SRC_ARIMA_AUTO_ARIMA_H_

#include <optional>
#include <span>
#include <vector>

#include "src/arima/model.h"

namespace faas {

struct AutoArimaOptions {
  int max_p = 3;
  int max_q = 3;
  int max_d = 2;
  bool with_mean = true;
  // Stepwise search (Hyndman-Khandakar neighbourhood walk) instead of the
  // full grid; ~3x fewer fits with nearly identical selections.
  bool stepwise = false;

  // Every field takes part, so a memo keyed on the options cannot miss a
  // field added later.
  bool operator==(const AutoArimaOptions&) const = default;
};

// Returns nullopt when the series is too short to fit even ARIMA(0, d, 0).
// With an ArimaMemo installed on the calling thread, a call whose series
// bytes and options match an earlier call returns a copy of that result
// instead of fitting again; without one it always fits.
std::optional<ArimaModel> AutoArima(std::span<const double> series,
                                    const AutoArimaOptions& options = {});

// Exact memo of AutoArima results.  The key is the series' bytes (compared
// with memcmp, which tells -0.0 from +0.0 and NaN payloads apart, so a hit
// never merges inputs that == would) plus every AutoArimaOptions field.
// A linear scan: the owner clears it when its series can no longer recur,
// so it stays small (one app's ARIMA decisions in the sweep).
class ArimaMemo {
 public:
  size_t size() const { return entries_.size(); }
  void Clear() { entries_.clear(); }

 private:
  friend std::optional<ArimaModel> AutoArima(std::span<const double> series,
                                             const AutoArimaOptions& options);

  struct Entry {
    AutoArimaOptions options;
    std::vector<double> series;
    std::optional<ArimaModel> model;
  };

  // The stored result for (series, options), or nullptr.
  const std::optional<ArimaModel>* Find(std::span<const double> series,
                                        const AutoArimaOptions& options) const;

  std::vector<Entry> entries_;
};

// Installs `memo` as the calling thread's AutoArima memo for the scope's
// lifetime and restores the previous one (usually none) on exit, so scopes
// nest.  A memo is only ever reached from the thread that installed it.
class ArimaMemoScope {
 public:
  explicit ArimaMemoScope(ArimaMemo* memo);
  ~ArimaMemoScope();
  ArimaMemoScope(const ArimaMemoScope&) = delete;
  ArimaMemoScope& operator=(const ArimaMemoScope&) = delete;

 private:
  ArimaMemo* previous_;
};

}  // namespace faas

#endif  // SRC_ARIMA_AUTO_ARIMA_H_
