#include "src/cluster/overload.h"

#include "src/common/logging.h"

namespace faas {

std::optional<AdmissionDiscipline> ParseAdmissionDiscipline(
    std::string_view name) {
  if (name == "fifo") {
    return AdmissionDiscipline::kFifo;
  }
  if (name == "lifo") {
    return AdmissionDiscipline::kLifo;
  }
  if (name == "codel") {
    return AdmissionDiscipline::kCoDel;
  }
  return std::nullopt;
}

const char* AdmissionDisciplineName(AdmissionDiscipline discipline) {
  switch (discipline) {
    case AdmissionDiscipline::kFifo:
      return "fifo";
    case AdmissionDiscipline::kLifo:
      return "lifo";
    case AdmissionDiscipline::kCoDel:
      return "codel";
  }
  return "unknown";
}

std::string OverloadControlConfig::Validate() const {
  if (admission.capacity < 0 || invoker_concurrency_cap < 0) {
    return "admission queue capacity and concurrency cap must be >= 0";
  }
  if (!(hedge.latency_percentile >= 0.0 && hedge.latency_percentile < 100.0)) {
    return "hedge percentile must be in [0, 100)";
  }
  if (admission.max_wait.IsNegative() || hedge.after.IsNegative() ||
      hedge.min_after.IsNegative() || breaker.open_duration.IsNegative()) {
    return "durations must be >= 0";
  }
  if (breaker.enabled && (breaker.window <= 0 || breaker.min_samples <= 0 ||
                          breaker.half_open_probes <= 0)) {
    return "breaker window, min samples and probes must be positive";
  }
  if (breaker.enabled && !(breaker.failure_threshold > 0.0 &&
                           breaker.failure_threshold <= 1.0 &&
                           breaker.latency_threshold_ms >= 0.0)) {
    return "breaker failure threshold must be in (0, 1], latency >= 0";
  }
  return "";
}

const OverloadControlConfig& OverloadControlConfig::CheckedValid() const {
  const std::string invalid = Validate();
  FAAS_CHECK(invalid.empty()) << "invalid overload config: " << invalid;
  return *this;
}

}  // namespace faas
