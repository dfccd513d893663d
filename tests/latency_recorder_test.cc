// LatencyRecorder: bucket math, percentile error bounds, exact merges, and
// the exporter hooks (WriteLatencyPrometheus / WriteLatencyCsv).

#include "src/telemetry/latency_recorder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <vector>

#include "gtest/gtest.h"
#include "src/telemetry/export.h"

namespace faas {
namespace {

TEST(LatencyRecorderTest, SmallValuesAreExact) {
  // The first 32 buckets are width 1: values below kSubCount record and
  // read back exactly.
  LatencyRecorder recorder;
  for (int64_t v = 0; v < LatencyRecorder::kSubCount; ++v) {
    EXPECT_EQ(LatencyRecorder::BucketIndex(static_cast<uint64_t>(v)),
              static_cast<size_t>(v));
  }
  recorder.Record(7);
  EXPECT_EQ(recorder.count(), 1);
  EXPECT_EQ(recorder.max_ns(), 7);
}

TEST(LatencyRecorderTest, BucketBoundsContainTheirValues) {
  std::mt19937_64 rng(99);
  for (int i = 0; i < 10'000; ++i) {
    // Spread across magnitudes, within Record's domain [0, 2^63).
    const uint64_t v = (rng() >> 1) >> (rng() % 50);
    const size_t index = LatencyRecorder::BucketIndex(v);
    int64_t lo = 0;
    int64_t hi = 0;
    LatencyRecorder::BucketBounds(index, &lo, &hi);
    EXPECT_GE(static_cast<int64_t>(v), lo) << "v=" << v << " index=" << index;
    EXPECT_LT(static_cast<int64_t>(v), hi) << "v=" << v << " index=" << index;
  }
}

TEST(LatencyRecorderTest, PercentileWithinRelativeErrorBound) {
  // Log-uniform samples; the recorder's percentile must land within the
  // bucket width (2^-5 relative) of the true order statistic.
  std::mt19937_64 rng(7);
  std::vector<int64_t> samples;
  LatencyRecorder recorder;
  for (int i = 0; i < 200'000; ++i) {
    const double exponent = 10.0 + 20.0 * std::uniform_real_distribution<
                                              double>(0.0, 1.0)(rng);
    const auto v = static_cast<int64_t>(std::pow(2.0, exponent));
    samples.push_back(v);
    recorder.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    const size_t rank = static_cast<size_t>(
        p / 100.0 * static_cast<double>(samples.size() - 1));
    const double truth = static_cast<double>(samples[rank]);
    const double estimate = recorder.PercentileNs(p);
    EXPECT_NEAR(estimate / truth, 1.0, 0.05) << "p" << p;
  }
}

TEST(LatencyRecorderTest, NegativeClampsToZero) {
  LatencyRecorder recorder;
  recorder.Record(-5);
  EXPECT_EQ(recorder.count(), 1);
  // Lands in bucket [0, 1); the percentile reports its midpoint.
  EXPECT_LT(recorder.PercentileNs(50.0), 1.0);
  EXPECT_EQ(recorder.max_ns(), 0);
}

TEST(LatencyRecorderTest, MergeIsExact) {
  std::mt19937_64 rng(3);
  LatencyRecorder shard_a;
  LatencyRecorder shard_b;
  LatencyRecorder reference;
  for (int i = 0; i < 50'000; ++i) {
    const auto v = static_cast<int64_t>(rng() % 10'000'000);
    reference.Record(v);
    if (i % 2 == 0) {
      shard_a.Record(v);
    } else {
      shard_b.Record(v);
    }
  }
  shard_a.Merge(shard_b);
  EXPECT_EQ(shard_a.count(), reference.count());
  EXPECT_EQ(shard_a.max_ns(), reference.max_ns());
  EXPECT_DOUBLE_EQ(shard_a.sum_ms(), reference.sum_ms());
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(shard_a.PercentileNs(p), reference.PercentileNs(p));
  }
  const auto merged_buckets = shard_a.NonZeroBuckets();
  const auto reference_buckets = reference.NonZeroBuckets();
  ASSERT_EQ(merged_buckets.size(), reference_buckets.size());
  for (size_t i = 0; i < merged_buckets.size(); ++i) {
    EXPECT_EQ(merged_buckets[i].lo_ns, reference_buckets[i].lo_ns);
    EXPECT_EQ(merged_buckets[i].count, reference_buckets[i].count);
  }
}

TEST(LatencyRecorderTest, ResetClears) {
  LatencyRecorder recorder;
  recorder.Record(1'000);
  recorder.Reset();
  EXPECT_EQ(recorder.count(), 0);
  EXPECT_EQ(recorder.max_ns(), 0);
  EXPECT_TRUE(recorder.NonZeroBuckets().empty());
  EXPECT_EQ(recorder.PercentileNs(99.0), 0.0);
}

TEST(LatencyRecorderTest, NonZeroBucketsAscendAndSumToCount) {
  std::mt19937_64 rng(11);
  LatencyRecorder recorder;
  for (int i = 0; i < 10'000; ++i) {
    recorder.Record(static_cast<int64_t>(rng() % 1'000'000));
  }
  int64_t total = 0;
  int64_t last_lo = -1;
  for (const LatencyRecorder::Bucket& bucket : recorder.NonZeroBuckets()) {
    EXPECT_GT(bucket.count, 0);
    EXPECT_GT(bucket.lo_ns, last_lo);
    EXPECT_GT(bucket.hi_ns, bucket.lo_ns);
    last_lo = bucket.lo_ns;
    total += bucket.count;
  }
  EXPECT_EQ(total, recorder.count());
}

TEST(LatencyRecorderTest, PrometheusExportShape) {
  LatencyRecorder recorder;
  recorder.Record(1'000'000);   // 1 ms.
  recorder.Record(2'000'000);   // 2 ms.
  std::ostringstream out;
  WriteLatencyPrometheus("faas_serve_latency_ms", "mode=\"open\"", recorder,
                         out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE faas_serve_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("faas_serve_latency_ms_bucket{mode=\"open\","
                      "le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("faas_serve_latency_ms_count{mode=\"open\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("_quantile_ms{mode=\"open\",q=\"0.99\"}"),
            std::string::npos);
}

TEST(LatencyRecorderTest, CsvExportShape) {
  LatencyRecorder recorder;
  recorder.Record(5'000);
  std::ostringstream out;
  WriteLatencyCsv("e2e", recorder, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("name,row,lo_ns,hi_ns,count,value_ms"),
            std::string::npos);
  EXPECT_NE(text.find("e2e,count,,,1,"), std::string::npos);
  EXPECT_NE(text.find("e2e,p99_ms"), std::string::npos);
  EXPECT_NE(text.find("e2e,bucket,"), std::string::npos);
  // Deterministic: a second export is byte-identical.
  std::ostringstream again;
  WriteLatencyCsv("e2e", recorder, again);
  EXPECT_EQ(text, again.str());
}

}  // namespace
}  // namespace faas
