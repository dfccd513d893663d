#include "src/telemetry/metrics.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace faas {
namespace {

TEST(TelemetryMetrics, CounterAccumulatesAndScrapes) {
  MetricsRegistry registry;
  const CounterId id = registry.AddCounter("hits_total", "hits");
  registry.Inc(id);
  registry.Inc(id, 4);
  EXPECT_EQ(registry.CounterValue(id), 5);
  const RegistrySnapshot snapshot = registry.Scrape();
  const MetricSnapshot* metric = snapshot.Find("hits_total");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->kind, MetricKind::kCounter);
  EXPECT_EQ(metric->counter, 5);
}

TEST(TelemetryMetrics, CounterMergesAcrossThreadShards) {
  // Four writer threads, each with its own block, fold into one registry;
  // a fifth writes it directly.
  MetricsRegistry registry;
  const CounterId id = registry.AddCounter("hits_total", "hits");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, id]() {
      MetricsBlock block(registry);
      for (int i = 0; i < 1000; ++i) {
        block.Inc(id);
      }
      registry.Fold(block);
    });
  }
  threads.emplace_back([&registry, id]() {
    for (int i = 0; i < 500; ++i) {
      registry.Inc(id);
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.CounterValue(id), 4500);
  EXPECT_EQ(registry.Scrape().Find("hits_total")->counter, 4500);
}

TEST(TelemetryMetrics, ConcurrentCounterReadsDuringUpdates) {
  // The --progress heartbeat reads counters while workers fold their
  // blocks; reads must be safe, monotone and end at the true total.
  MetricsRegistry registry;
  const CounterId id = registry.AddCounter("hits_total", "hits");
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    int64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const int64_t seen = registry.CounterValue(id);
      EXPECT_GE(seen, last);
      EXPECT_EQ(seen % 100, 0);  // Every fold is seen whole.
      last = seen;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&registry, id]() {
      for (int fold = 0; fold < 200; ++fold) {
        MetricsBlock block(registry);
        for (int i = 0; i < 100; ++i) {
          block.Inc(id);
        }
        registry.Fold(block);
      }
    });
  }
  for (std::thread& thread : writers) {
    thread.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(registry.CounterValue(id), 60000);
}

TEST(TelemetryMetrics, GaugeLatestSimTimestampWins) {
  // Folded blocks merge by simulation timestamp, whatever the fold order.
  for (const bool late_first : {false, true}) {
    MetricsRegistry registry;
    const GaugeId id = registry.AddGauge("depth", "queue depth");
    MetricsBlock early(registry);
    MetricsBlock late(registry);
    MetricsBlock unset(registry);
    early.Set(id, 10.0, TimePoint(100));
    late.Set(id, 3.0, TimePoint(200));
    registry.Fold(late_first ? late : early);
    registry.Fold(unset);
    registry.Fold(late_first ? early : late);
    const RegistrySnapshot snapshot = registry.Scrape();
    const MetricSnapshot* metric = snapshot.Find("depth");
    ASSERT_NE(metric, nullptr);
    EXPECT_TRUE(metric->gauge_set);
    EXPECT_EQ(metric->gauge, 3.0);
    EXPECT_EQ(metric->gauge_at, TimePoint(200));
  }
}

TEST(TelemetryMetrics, GaugeTimestampTieResolvesToLargerValue) {
  for (const bool larger_first : {false, true}) {
    MetricsRegistry registry;
    const GaugeId id = registry.AddGauge("depth", "queue depth");
    MetricsBlock smaller(registry);
    MetricsBlock larger(registry);
    smaller.Set(id, 4.0, TimePoint(100));
    larger.Set(id, 9.0, TimePoint(100));
    // Same timestamp in two blocks: the merge must not depend on fold order.
    registry.Fold(larger_first ? larger : smaller);
    registry.Fold(larger_first ? smaller : larger);
    EXPECT_EQ(registry.Scrape().Find("depth")->gauge, 9.0);
  }
}

TEST(TelemetryMetrics, DirectGaugeSetIsLastWriteWins) {
  // A single owner's samples arrive in its own order; the last one stands
  // even at an equal or earlier timestamp.
  MetricsRegistry registry;
  const GaugeId id = registry.AddGauge("depth", "queue depth");
  registry.Set(id, 9.0, TimePoint(100));
  registry.Set(id, 4.0, TimePoint(100));
  EXPECT_EQ(registry.Scrape().Find("depth")->gauge, 4.0);
}

TEST(TelemetryMetrics, UnsetGaugeScrapesAsUnset) {
  MetricsRegistry registry;
  registry.AddGauge("depth", "queue depth");
  const RegistrySnapshot snapshot = registry.Scrape();
  const MetricSnapshot* metric = snapshot.Find("depth");
  ASSERT_NE(metric, nullptr);
  EXPECT_FALSE(metric->gauge_set);
}

TEST(TelemetryMetrics, HistogramBoundaryValuesLandLeftClosed) {
  MetricsRegistry registry;
  const HistogramId id =
      registry.AddHistogram("lat_ms", "latency", {10.0, 20.0, 50.0});
  // A value exactly on an edge belongs to the bucket whose *lower* edge it
  // equals: [10,20), [20,50), [50,inf).
  registry.Observe(id, 10.0);
  registry.Observe(id, 20.0);
  registry.Observe(id, 50.0);
  const RegistrySnapshot snapshot = registry.Scrape();
  const MetricSnapshot* metric = snapshot.Find("lat_ms");
  ASSERT_NE(metric, nullptr);
  ASSERT_EQ(metric->counts.size(), 4u);
  EXPECT_EQ(metric->counts[0], 0);  // underflow (< 10)
  EXPECT_EQ(metric->counts[1], 1);  // [10, 20)
  EXPECT_EQ(metric->counts[2], 1);  // [20, 50)
  EXPECT_EQ(metric->counts[3], 1);  // [50, inf)
  EXPECT_EQ(metric->observations, 3);
  EXPECT_DOUBLE_EQ(metric->sum, 80.0);
}

TEST(TelemetryMetrics, HistogramUnderflowAndOverflowBuckets) {
  MetricsRegistry registry;
  const HistogramId id =
      registry.AddHistogram("lat_ms", "latency", {10.0, 20.0});
  registry.Observe(id, -5.0);
  registry.Observe(id, 9.999);
  registry.Observe(id, 1e9);
  const RegistrySnapshot snapshot = registry.Scrape();
  const MetricSnapshot* metric = snapshot.Find("lat_ms");
  ASSERT_EQ(metric->counts.size(), 3u);
  EXPECT_EQ(metric->counts[0], 2);
  EXPECT_EQ(metric->counts[1], 0);
  EXPECT_EQ(metric->counts[2], 1);
}

TEST(TelemetryMetrics, EmptyHistogramQuantileIsZero) {
  MetricsRegistry registry;
  registry.AddHistogram("lat_ms", "latency", {10.0, 20.0});
  const RegistrySnapshot snapshot = registry.Scrape();
  const MetricSnapshot* metric = snapshot.Find("lat_ms");
  EXPECT_EQ(metric->Quantile(0.0), 0.0);
  EXPECT_EQ(metric->Quantile(0.5), 0.0);
  EXPECT_EQ(metric->Quantile(1.0), 0.0);
}

TEST(TelemetryMetrics, QuantileClampsUnderflowAndOverflow) {
  MetricsRegistry registry;
  const HistogramId id =
      registry.AddHistogram("lat_ms", "latency", {10.0, 20.0});
  registry.Observe(id, 1.0);  // Underflow only.
  EXPECT_DOUBLE_EQ(registry.Scrape().Find("lat_ms")->Quantile(0.5), 10.0);

  MetricsRegistry high;
  const HistogramId hid = high.AddHistogram("lat_ms", "latency", {10.0, 20.0});
  high.Observe(hid, 100.0);  // Overflow only.
  EXPECT_DOUBLE_EQ(high.Scrape().Find("lat_ms")->Quantile(0.5), 20.0);
}

TEST(TelemetryMetrics, QuantileInterpolatesWithinBucket) {
  MetricsRegistry registry;
  const HistogramId id =
      registry.AddHistogram("lat_ms", "latency", {0.0, 100.0});
  for (int i = 0; i < 100; ++i) {
    registry.Observe(id, 50.0);  // All land in [0, 100).
  }
  const RegistrySnapshot snapshot = registry.Scrape();
  const MetricSnapshot* metric = snapshot.Find("lat_ms");
  EXPECT_DOUBLE_EQ(metric->Quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(metric->Quantile(1.0), 100.0);
}

TEST(TelemetryMetrics, HistogramMergesDisjointShards) {
  MetricsRegistry registry;
  const HistogramId id =
      registry.AddHistogram("lat_ms", "latency", {10.0, 20.0});
  registry.Observe(id, 5.0);
  std::thread other([&registry, id]() {
    registry.Observe(id, 15.0);
    registry.Observe(id, 25.0);
  });
  other.join();
  const RegistrySnapshot snapshot = registry.Scrape();
  const MetricSnapshot* metric = snapshot.Find("lat_ms");
  EXPECT_EQ(metric->counts[0], 1);
  EXPECT_EQ(metric->counts[1], 1);
  EXPECT_EQ(metric->counts[2], 1);
  EXPECT_EQ(metric->observations, 3);
  EXPECT_DOUBLE_EQ(metric->sum, 45.0);
}

TEST(TelemetryMetrics, ReRegistrationIsIdempotent) {
  MetricsRegistry registry;
  const CounterId a = registry.AddCounter("hits_total", "hits");
  const CounterId b = registry.AddCounter("hits_total", "hits");
  EXPECT_EQ(a.index, b.index);
  // A different label is a different metric.
  const CounterId c =
      registry.AddCounter("hits_total", "hits", "policy=\"p\"");
  EXPECT_NE(a.index, c.index);
  registry.Inc(a);
  registry.Inc(b);
  registry.Inc(c, 7);
  EXPECT_EQ(registry.CounterValue(a), 2);
  EXPECT_EQ(registry.CounterValue(c), 7);
  EXPECT_EQ(registry.SumCountersByBase("hits_total"), 9);
}

TEST(TelemetryMetrics, LateRegistrationKeepsEarlierValues) {
  // Chaos mode registers one instrument bundle per policy, each just before
  // its replay: earlier values survive later registrations, and a block
  // made before a registration still folds.
  MetricsRegistry registry;
  const CounterId first = registry.AddCounter("first_total", "first");
  const GaugeId gauge = registry.AddGauge("depth", "depth");
  registry.Inc(first, 3);
  registry.Set(gauge, 8.0, TimePoint(50));
  MetricsBlock early_block(registry);
  early_block.Inc(first, 10);

  const CounterId second = registry.AddCounter("second_total", "second");
  registry.Inc(second, 2);
  registry.Inc(first);
  registry.Fold(early_block);

  EXPECT_EQ(registry.CounterValue(first), 14);
  EXPECT_EQ(registry.CounterValue(second), 2);
  const RegistrySnapshot snapshot = registry.Scrape();
  EXPECT_EQ(snapshot.Find("first_total")->counter, 14);
  EXPECT_EQ(snapshot.Find("second_total")->counter, 2);
  EXPECT_TRUE(snapshot.Find("depth")->gauge_set);
  EXPECT_EQ(snapshot.Find("depth")->gauge, 8.0);
}

TEST(TelemetryMetricsDeathTest, BlockRejectsLaterDefinitions) {
  MetricsRegistry registry;
  MetricsBlock block(registry);
  const CounterId late = registry.AddCounter("late_total", "late");
  EXPECT_DEATH(block.Inc(late), "registered after the block");
}

TEST(TelemetryMetrics, SeriesBinsByTimestampAndClamps) {
  MetricsRegistry registry;
  const SeriesId id = registry.AddSeries("per_min", "per minute",
                                         Duration::Minutes(1), 3);
  registry.SeriesAdd(id, TimePoint(0));
  registry.SeriesAdd(id, TimePoint(59'999));       // Still bin 0.
  registry.SeriesAdd(id, TimePoint(60'000));       // Bin 1.
  registry.SeriesAdd(id, TimePoint(10'000'000));   // Past the end: last bin.
  registry.SeriesAdd(id, TimePoint(-5), 2);        // Before origin: bin 0.
  const RegistrySnapshot snapshot = registry.Scrape();
  const MetricSnapshot* metric = snapshot.Find("per_min");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->bin_width_ms, 60'000);
  ASSERT_EQ(metric->bins.size(), 3u);
  EXPECT_EQ(metric->bins[0], 4);
  EXPECT_EQ(metric->bins[1], 1);
  EXPECT_EQ(metric->bins[2], 1);
}

TEST(TelemetryMetrics, SeriesMergesAcrossShards) {
  MetricsRegistry registry;
  const SeriesId id = registry.AddSeries("per_min", "per minute",
                                         Duration::Minutes(1), 2);
  registry.SeriesAdd(id, TimePoint(0));
  std::thread other([&registry, id]() {
    MetricsBlock block(registry);
    block.SeriesAdd(id, TimePoint(0), 2);
    block.SeriesAdd(id, TimePoint(60'000), 5);
    registry.Fold(block);
  });
  other.join();
  const RegistrySnapshot snapshot = registry.Scrape();
  const MetricSnapshot* metric = snapshot.Find("per_min");
  EXPECT_EQ(metric->bins[0], 3);
  EXPECT_EQ(metric->bins[1], 5);
}

TEST(TelemetryMetrics, BlockSeriesBinsLikeTheRegistry) {
  // Same binning and clamping as SeriesBinsByTimestampAndClamps, through a
  // block: first while its log is sparse, then, refilled after a fold,
  // across enough revisits to turn it dense.
  MetricsRegistry registry;
  const SeriesId id = registry.AddSeries("per_min", "per minute",
                                         Duration::Minutes(1), 8);
  MetricsBlock block(registry);
  block.SeriesAdd(id, TimePoint(0));
  block.SeriesAdd(id, TimePoint(59'999));
  block.SeriesAdd(id, TimePoint(10'000'000));
  registry.Fold(block);
  int64_t expected[8] = {2, 0, 0, 0, 0, 0, 0, 1};
  for (int round = 0; round < 50; ++round) {
    block.SeriesAdd(id, TimePoint(0));
    block.SeriesAdd(id, TimePoint(60'000), 3);
    block.SeriesAdd(id, TimePoint(10'000'000));
    block.SeriesAdd(id, TimePoint(-5), 2);
    expected[0] += 3;
    expected[1] += 3;
    expected[7] += 1;
  }
  registry.Fold(block);
  registry.Fold(block);  // Emptied by the first fold: adds nothing.
  const RegistrySnapshot snapshot = registry.Scrape();
  const MetricSnapshot* metric = snapshot.Find("per_min");
  ASSERT_EQ(metric->bins.size(), 8u);
  for (size_t bin = 0; bin < 8; ++bin) {
    EXPECT_EQ(metric->bins[bin], expected[bin]) << "bin " << bin;
  }
}

TEST(TelemetryMetrics, ScrapePreservesRegistrationOrder) {
  MetricsRegistry registry;
  registry.AddCounter("z_total", "z");
  registry.AddCounter("a_total", "a");
  registry.AddGauge("m", "m");
  const RegistrySnapshot snapshot = registry.Scrape();
  ASSERT_EQ(snapshot.metrics.size(), 3u);
  EXPECT_EQ(snapshot.metrics[0].name, "z_total");
  EXPECT_EQ(snapshot.metrics[1].name, "a_total");
  EXPECT_EQ(snapshot.metrics[2].name, "m");
}

TEST(TelemetryMetrics, TwoRegistriesDoNotShareShards) {
  // Two live registries touched from one thread stay independent.
  MetricsRegistry a;
  MetricsRegistry b;
  const CounterId ca = a.AddCounter("hits_total", "hits");
  const CounterId cb = b.AddCounter("hits_total", "hits");
  a.Inc(ca, 2);
  b.Inc(cb, 5);
  EXPECT_EQ(a.CounterValue(ca), 2);
  EXPECT_EQ(b.CounterValue(cb), 5);
}

}  // namespace
}  // namespace faas
