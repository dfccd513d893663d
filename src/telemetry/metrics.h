// Metrics registry and the per-writer blocks folded into it.
//
// Every metric is a *definition* (name, label, kind, shape) plus one merged
// cell, all behind the registry's mutex.  Data is owned by its writer:
//
//   - A writer records into a MetricsBlock of its own: plain int64 counter
//     and series cells and timestamped gauges, no lock.  It folds the block
//     in with Fold(), under the lock: a sweep task when it ends, the
//     cluster replayer at each sampler tick.
//   - A single owner may also write the registry directly (the cluster's
//     gauges and sampler series, a tool exporting its final stats):
//     Inc / Set / Observe / SeriesAdd each take the lock once.
//   - A histogram has exactly one owner, which observes it straight into the
//     registry in its own order.  Blocks carry no histograms: a double
//     `_sum` added in fold order would depend on scheduling, while every
//     cell a block does carry merges exactly in any order.
//
// Scrape(), CounterValue() and SumCountersByBase() read under the same lock,
// so a live reader (the --progress heartbeat, a SIGINT flush) may run
// beside the writers and sees each fold whole.
//
// Merge semantics are order-independent, so a sweep's snapshot is
// bit-identical at any thread count: counters and series bins add; a
// folded gauge replaces the merged one when its simulation timestamp is
// later, or equal with a larger value.  A direct Set() is its owner's
// latest sample and simply overwrites.
//
// Metric kinds:
//   Counter    monotonically increasing int64.
//   Gauge      last-set double, stamped with simulation time.
//   Histogram  fixed explicit bucket edges with distinct underflow and
//              overflow buckets; values on an edge land in the bucket whose
//              lower edge they equal (left-closed intervals).
//   Series     per-simulation-minute (or any fixed bin) int64 time series,
//              preallocated for a known horizon.

#ifndef SRC_TELEMETRY_METRICS_H_
#define SRC_TELEMETRY_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/time.h"

namespace faas {

// Typed metric handles; cheap to copy, invalid until assigned from Add*.
struct CounterId {
  int32_t index = -1;
  bool valid() const { return index >= 0; }
};
struct GaugeId {
  int32_t index = -1;
  bool valid() const { return index >= 0; }
};
struct HistogramId {
  int32_t index = -1;
  bool valid() const { return index >= 0; }
};
struct SeriesId {
  int32_t index = -1;
  bool valid() const { return index >= 0; }
};

enum class MetricKind { kCounter, kGauge, kHistogram, kSeries };

// One merged metric in a scrape, identified by base name + optional label
// (a pre-rendered Prometheus label body such as `policy="hybrid"`).
struct MetricSnapshot {
  std::string name;   // Base name, e.g. "faas_sim_cold_starts_total".
  std::string label;  // Label body without braces; empty = unlabelled.
  std::string help;
  MetricKind kind = MetricKind::kCounter;

  // kCounter
  int64_t counter = 0;

  // kGauge
  double gauge = 0.0;
  TimePoint gauge_at;
  bool gauge_set = false;

  // kHistogram: counts has edges.size() + 1 entries:
  //   counts[0]                underflow (value < edges.front())
  //   counts[i] for 0 < i < n  edges[i-1] <= value < edges[i]
  //   counts[n]                overflow (value >= edges.back())
  std::vector<double> edges;
  std::vector<int64_t> counts;
  int64_t observations = 0;
  double sum = 0.0;

  // kSeries
  int64_t bin_width_ms = 0;
  std::vector<int64_t> bins;

  // Linear-interpolated quantile (q in [0, 1]) from the bucket counts.
  // Underflow clamps to the first edge, overflow to the last; an empty
  // histogram returns 0.0.
  double Quantile(double q) const;
};

struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;  // In registration order.

  // First metric matching base name + label, or nullptr.
  const MetricSnapshot* Find(std::string_view name,
                             std::string_view label = "") const;
};

class MetricsRegistry;

// One writer's private counters, gauges and series, sized from the
// definitions registered when the block is made.  Not thread-safe: exactly
// one thread writes it and folds it with MetricsRegistry::Fold, once when
// its task ends or repeatedly (the cluster folds at each sampler tick).
class MetricsBlock {
 public:
  explicit MetricsBlock(const MetricsRegistry& registry);

  void Inc(CounterId id, int64_t delta = 1);
  void Set(GaugeId id, double value, TimePoint at);
  // Same binning and clamping as MetricsRegistry::SeriesAdd.
  void SeriesAdd(SeriesId id, TimePoint at, int64_t delta = 1);

 private:
  friend class MetricsRegistry;

  struct Gauge {
    double value = 0.0;
    int64_t at_ms = 0;
    bool set = false;
  };
  struct BinDelta {
    int64_t bin = 0;
    int64_t delta = 0;
  };
  // Only the bins this block touched: a sweep task replays a few apps, so a
  // dense copy of every series would dwarf what it writes.  Adds append to
  // `deltas` (consecutive adds to one bin merge in place); once the log
  // holds as many entries as the series has bins, it turns into the dense
  // `bins`, whose size the adds have by then paid for.
  struct SeriesLog {
    int64_t bin_width_ms = 0;
    int64_t num_bins = 0;
    std::vector<BinDelta> deltas;
    std::vector<int64_t> bins;  // Empty until the log turns dense.
  };

  std::vector<int64_t> counters_;
  std::vector<Gauge> gauges_;
  std::vector<SeriesLog> series_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration is idempotent on (name, label): re-registering returns the
  // existing id (kind and shape must match).  A block sees only the
  // definitions registered before it was made.
  CounterId AddCounter(std::string name, std::string help,
                       std::string label = "");
  GaugeId AddGauge(std::string name, std::string help, std::string label = "");
  // `edges` must be strictly ascending with at least one entry.
  HistogramId AddHistogram(std::string name, std::string help,
                           std::vector<double> edges, std::string label = "");
  // Fixed `num_bins` bins of `bin_width`; samples past the end clamp into
  // the last bin (and before the origin into the first).
  SeriesId AddSeries(std::string name, std::string help, Duration bin_width,
                     size_t num_bins, std::string label = "");

  // --- Single-owner updates, each under the lock ---
  void Inc(CounterId id, int64_t delta = 1);
  void Set(GaugeId id, double value, TimePoint at);
  void Observe(HistogramId id, double value);
  void SeriesAdd(SeriesId id, TimePoint at, int64_t delta = 1);

  // Merges a block's counters, gauges and touched series bins, and empties
  // the block for reuse.  Exact in any fold order.
  void Fold(MetricsBlock& block);

  // Merged value of a counter, or the sum of every counter whose base name
  // equals `name` (across labels).
  int64_t CounterValue(CounterId id) const;
  int64_t SumCountersByBase(std::string_view name) const;

  RegistrySnapshot Scrape() const;

 private:
  friend class MetricsBlock;

  struct Histogram {
    std::vector<double> edges;
    std::vector<int64_t> counts;  // edges.size() + 1
    int64_t observations = 0;
    double sum = 0.0;
  };
  struct Series {
    int64_t bin_width_ms = 0;
    std::vector<int64_t> bins;
  };
  struct Definition {
    std::string name;
    std::string label;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    int32_t slot = 0;  // Index within the kind's cell vector.
  };

  // Slot of (name, label), and whether it was just added (the caller then
  // appends the kind's cell).  Requires mu_.
  std::pair<int32_t, bool> FindOrAdd(MetricKind kind, std::string name,
                                     std::string help, std::string label);

  mutable std::mutex mu_;
  std::vector<Definition> definitions_;  // In registration order.
  std::map<std::pair<std::string, std::string>, size_t> definition_index_;
  std::array<int32_t, 4> num_slots_{};  // Per MetricKind.
  // Merged cells, one per definition of each kind, indexed by slot.
  std::vector<int64_t> counters_;
  std::vector<MetricsBlock::Gauge> gauges_;
  std::vector<Histogram> histograms_;
  std::vector<Series> series_;
};

}  // namespace faas

#endif  // SRC_TELEMETRY_METRICS_H_
