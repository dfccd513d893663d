#include "src/telemetry/metrics.h"

#include <algorithm>

#include "src/common/logging.h"

namespace faas {

namespace {

int64_t SeriesBin(TimePoint at, int64_t bin_width_ms, int64_t num_bins) {
  return std::clamp<int64_t>(at.millis_since_origin() / bin_width_ms, 0,
                             num_bins - 1);
}

}  // namespace

double MetricSnapshot::Quantile(double q) const {
  if (kind != MetricKind::kHistogram || observations <= 0 || edges.empty()) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(observations);
  int64_t cumulative = 0;
  for (size_t bucket = 0; bucket < counts.size(); ++bucket) {
    const int64_t in_bucket = counts[bucket];
    cumulative += in_bucket;
    if (in_bucket <= 0 || static_cast<double>(cumulative) < rank) {
      continue;
    }
    if (bucket == 0) {
      return edges.front();  // Underflow clamps to the lowest edge.
    }
    if (bucket == counts.size() - 1) {
      return edges.back();  // Overflow clamps to the highest edge.
    }
    const double lower = edges[bucket - 1];
    const double upper = edges[bucket];
    const double before = static_cast<double>(cumulative - in_bucket);
    const double fraction =
        std::clamp((rank - before) / static_cast<double>(in_bucket), 0.0, 1.0);
    return lower + fraction * (upper - lower);
  }
  return edges.back();
}

const MetricSnapshot* RegistrySnapshot::Find(std::string_view name,
                                             std::string_view label) const {
  for (const MetricSnapshot& metric : metrics) {
    if (metric.name == name && metric.label == label) {
      return &metric;
    }
  }
  return nullptr;
}

MetricsBlock::MetricsBlock(const MetricsRegistry& registry) {
  std::lock_guard<std::mutex> lock(registry.mu_);
  counters_.assign(registry.counters_.size(), 0);
  gauges_.resize(registry.gauges_.size());
  series_.resize(registry.series_.size());
  for (size_t i = 0; i < series_.size(); ++i) {
    series_[i].bin_width_ms = registry.series_[i].bin_width_ms;
    series_[i].num_bins =
        static_cast<int64_t>(registry.series_[i].bins.size());
  }
}

void MetricsBlock::Inc(CounterId id, int64_t delta) {
  FAAS_CHECK(id.valid() && static_cast<size_t>(id.index) < counters_.size())
      << "counter registered after the block was made";
  counters_[static_cast<size_t>(id.index)] += delta;
}

void MetricsBlock::Set(GaugeId id, double value, TimePoint at) {
  FAAS_CHECK(id.valid() && static_cast<size_t>(id.index) < gauges_.size())
      << "gauge registered after the block was made";
  gauges_[static_cast<size_t>(id.index)] = {value, at.millis_since_origin(),
                                            true};
}

void MetricsBlock::SeriesAdd(SeriesId id, TimePoint at, int64_t delta) {
  FAAS_CHECK(id.valid() && static_cast<size_t>(id.index) < series_.size())
      << "series registered after the block was made";
  SeriesLog& log = series_[static_cast<size_t>(id.index)];
  const int64_t bin = SeriesBin(at, log.bin_width_ms, log.num_bins);
  if (!log.bins.empty()) {
    log.bins[static_cast<size_t>(bin)] += delta;
    return;
  }
  std::vector<BinDelta>& deltas = log.deltas;
  if (!deltas.empty() && deltas.back().bin == bin) {
    deltas.back().delta += delta;
    return;
  }
  deltas.push_back({bin, delta});
  if (static_cast<int64_t>(deltas.size()) >= log.num_bins) {
    log.bins.assign(static_cast<size_t>(log.num_bins), 0);
    for (const BinDelta& entry : deltas) {
      log.bins[static_cast<size_t>(entry.bin)] += entry.delta;
    }
    deltas = {};
  }
}

std::pair<int32_t, bool> MetricsRegistry::FindOrAdd(MetricKind kind,
                                                    std::string name,
                                                    std::string help,
                                                    std::string label) {
  const auto [it, added] =
      definition_index_.try_emplace({name, label}, definitions_.size());
  if (!added) {
    const Definition& existing = definitions_[it->second];
    FAAS_CHECK(existing.kind == kind)
        << "metric '" << name << "' re-registered with a different kind";
    return {existing.slot, false};
  }
  const int32_t slot = num_slots_[static_cast<size_t>(kind)]++;
  definitions_.push_back(
      {std::move(name), std::move(label), std::move(help), kind, slot});
  return {slot, true};
}

CounterId MetricsRegistry::AddCounter(std::string name, std::string help,
                                      std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [slot, added] = FindOrAdd(MetricKind::kCounter, std::move(name),
                                       std::move(help), std::move(label));
  if (added) {
    counters_.push_back(0);
  }
  return CounterId{slot};
}

GaugeId MetricsRegistry::AddGauge(std::string name, std::string help,
                                  std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [slot, added] = FindOrAdd(MetricKind::kGauge, std::move(name),
                                       std::move(help), std::move(label));
  if (added) {
    gauges_.emplace_back();
  }
  return GaugeId{slot};
}

HistogramId MetricsRegistry::AddHistogram(std::string name, std::string help,
                                          std::vector<double> edges,
                                          std::string label) {
  FAAS_CHECK(!edges.empty()) << "histogram '" << name << "' needs edges";
  for (size_t i = 1; i < edges.size(); ++i) {
    FAAS_CHECK(edges[i - 1] < edges[i])
        << "histogram '" << name << "' edges must be strictly ascending";
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto [slot, added] = FindOrAdd(MetricKind::kHistogram, name,
                                       std::move(help), std::move(label));
  if (added) {
    histograms_.push_back({edges, std::vector<int64_t>(edges.size() + 1, 0)});
  }
  FAAS_CHECK(histograms_[static_cast<size_t>(slot)].edges == edges)
      << "histogram '" << name << "' re-registered with new edges";
  return HistogramId{slot};
}

SeriesId MetricsRegistry::AddSeries(std::string name, std::string help,
                                    Duration bin_width, size_t num_bins,
                                    std::string label) {
  FAAS_CHECK(bin_width > Duration::Zero())
      << "series '" << name << "' needs a positive bin width";
  FAAS_CHECK(num_bins > 0) << "series '" << name << "' needs bins";
  std::lock_guard<std::mutex> lock(mu_);
  const auto [slot, added] = FindOrAdd(MetricKind::kSeries, std::move(name),
                                       std::move(help), std::move(label));
  if (added) {
    series_.push_back({bin_width.millis(), std::vector<int64_t>(num_bins, 0)});
  }
  return SeriesId{slot};
}

void MetricsRegistry::Inc(CounterId id, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  FAAS_CHECK(id.valid() && static_cast<size_t>(id.index) < counters_.size())
      << "counter used before registration";
  counters_[static_cast<size_t>(id.index)] += delta;
}

void MetricsRegistry::Set(GaugeId id, double value, TimePoint at) {
  std::lock_guard<std::mutex> lock(mu_);
  FAAS_CHECK(id.valid() && static_cast<size_t>(id.index) < gauges_.size())
      << "gauge used before registration";
  gauges_[static_cast<size_t>(id.index)] = {value, at.millis_since_origin(),
                                            true};
}

void MetricsRegistry::Observe(HistogramId id, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  FAAS_CHECK(id.valid() &&
             static_cast<size_t>(id.index) < histograms_.size())
      << "histogram used before registration";
  Histogram& cell = histograms_[static_cast<size_t>(id.index)];
  // counts[0] is underflow, counts[i] covers [edges[i-1], edges[i]), and
  // counts[edges.size()] is overflow; upper_bound yields exactly that index
  // (values on an edge land in the bucket whose lower edge they equal).
  const size_t bucket = static_cast<size_t>(
      std::upper_bound(cell.edges.begin(), cell.edges.end(), value) -
      cell.edges.begin());
  ++cell.counts[bucket];
  ++cell.observations;
  cell.sum += value;
}

void MetricsRegistry::SeriesAdd(SeriesId id, TimePoint at, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  FAAS_CHECK(id.valid() && static_cast<size_t>(id.index) < series_.size())
      << "series used before registration";
  Series& cell = series_[static_cast<size_t>(id.index)];
  const int64_t bin = SeriesBin(at, cell.bin_width_ms,
                                static_cast<int64_t>(cell.bins.size()));
  cell.bins[static_cast<size_t>(bin)] += delta;
}

void MetricsRegistry::Fold(MetricsBlock& block) {
  std::lock_guard<std::mutex> lock(mu_);
  // A block never has more slots than the registry: it is sized from it,
  // and definitions are never removed.
  for (size_t i = 0; i < block.counters_.size(); ++i) {
    counters_[i] += block.counters_[i];
  }
  for (size_t i = 0; i < block.gauges_.size(); ++i) {
    const MetricsBlock::Gauge& sample = block.gauges_[i];
    MetricsBlock::Gauge& merged = gauges_[i];
    // Latest simulation timestamp wins; ties resolve to the larger value,
    // so the merge does not depend on fold order.
    if (sample.set &&
        (!merged.set || sample.at_ms > merged.at_ms ||
         (sample.at_ms == merged.at_ms && sample.value > merged.value))) {
      merged = sample;
    }
  }
  for (size_t i = 0; i < block.series_.size(); ++i) {
    const MetricsBlock::SeriesLog& log = block.series_[i];
    std::vector<int64_t>& bins = series_[i].bins;
    for (const MetricsBlock::BinDelta& entry : log.deltas) {
      bins[static_cast<size_t>(entry.bin)] += entry.delta;
    }
    for (size_t bin = 0; bin < log.bins.size(); ++bin) {
      bins[bin] += log.bins[bin];
    }
  }
  std::fill(block.counters_.begin(), block.counters_.end(), 0);
  std::fill(block.gauges_.begin(), block.gauges_.end(), MetricsBlock::Gauge{});
  for (MetricsBlock::SeriesLog& log : block.series_) {
    log.deltas.clear();
    log.bins.clear();
  }
}

int64_t MetricsRegistry::CounterValue(CounterId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  FAAS_CHECK(id.valid() && static_cast<size_t>(id.index) < counters_.size())
      << "invalid counter id";
  return counters_[static_cast<size_t>(id.index)];
}

int64_t MetricsRegistry::SumCountersByBase(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const Definition& definition : definitions_) {
    if (definition.kind == MetricKind::kCounter && definition.name == name) {
      total += counters_[static_cast<size_t>(definition.slot)];
    }
  }
  return total;
}

RegistrySnapshot MetricsRegistry::Scrape() const {
  RegistrySnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  snapshot.metrics.reserve(definitions_.size());
  for (const Definition& definition : definitions_) {
    MetricSnapshot metric;
    metric.name = definition.name;
    metric.label = definition.label;
    metric.help = definition.help;
    metric.kind = definition.kind;
    const size_t slot = static_cast<size_t>(definition.slot);
    switch (definition.kind) {
      case MetricKind::kCounter:
        metric.counter = counters_[slot];
        break;
      case MetricKind::kGauge:
        metric.gauge = gauges_[slot].value;
        metric.gauge_at = TimePoint(gauges_[slot].at_ms);
        metric.gauge_set = gauges_[slot].set;
        break;
      case MetricKind::kHistogram:
        metric.edges = histograms_[slot].edges;
        metric.counts = histograms_[slot].counts;
        metric.observations = histograms_[slot].observations;
        metric.sum = histograms_[slot].sum;
        break;
      case MetricKind::kSeries:
        metric.bin_width_ms = series_[slot].bin_width_ms;
        metric.bins = series_[slot].bins;
        break;
    }
    snapshot.metrics.push_back(std::move(metric));
  }
  return snapshot;
}

}  // namespace faas
