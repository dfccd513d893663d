// Wall-clock latency histogram for the serving front-end.
//
// The simulator's latency accounting (P-square estimators, per-sample
// vectors) assumes either O(1)-memory approximations or post-hoc sorting;
// a serving event loop measuring millions of requests per second needs a
// recorder whose Record() is a handful of instructions, whose memory is
// fixed, and whose per-thread instances merge losslessly at scrape time.
// This is the standard log-bucketed design (HdrHistogram's bucketing): 32
// sub-buckets per power of two gives <= ~3.2% relative error across the
// full range [0, 2^63) ns in 1888 fixed counters (~15 KB).
//
// Lock-free by ownership, not by atomics: each event loop owns one
// recorder and updates it single-threaded; Merge() folds per-loop
// recorders into one after the loops quiesce (or on a snapshot copy), the
// same own-then-fold contract as a MetricsBlock.  Merging is exact —
// buckets, counts and the integer nanosecond sum add — so percentiles over
// the merged recorder equal percentiles over the union of samples up to
// bucket resolution, and its sum and mean do not depend on merge order.

#ifndef SRC_TELEMETRY_LATENCY_RECORDER_H_
#define SRC_TELEMETRY_LATENCY_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace faas {

class LatencyRecorder {
 public:
  static constexpr int kSubBits = 5;  // 32 sub-buckets per power of two.
  static constexpr int kSubCount = 1 << kSubBits;
  // Group 0 holds [0, 32) exactly; group g >= 1 holds the values whose most
  // significant bit is g + 4.  Groups 0..58 cover [0, 2^63), every value
  // Record can see.
  static constexpr int kNumBuckets = (64 - kSubBits) << kSubBits;  // 1888

  LatencyRecorder() : counts_(kNumBuckets, 0) {}

  // Records one sample in nanoseconds (negative clamps to zero).  A few
  // loads, a bit-scan, and an increment — safe on the reply hot path.
  void Record(int64_t value_ns) {
    const uint64_t v = value_ns > 0 ? static_cast<uint64_t>(value_ns) : 0;
    ++counts_[BucketIndex(v)];
    ++count_;
    sum_ns_ += v;
    if (value_ns > max_ns_) {
      max_ns_ = value_ns;
    }
  }

  // Exact fold of another recorder into this one.
  void Merge(const LatencyRecorder& other);
  void Reset();

  int64_t count() const { return count_; }
  double sum_ms() const { return static_cast<double>(sum_ns_) / 1e6; }
  double mean_ms() const {
    return count_ > 0 ? static_cast<double>(sum_ns_) /
                            static_cast<double>(count_) / 1e6
                      : 0.0;
  }
  int64_t max_ns() const { return max_ns_; }

  // Percentile (p in [0, 100]) as the midpoint of the bucket holding the
  // rank-p sample; 0 when empty.  Bucket width bounds the error at ~3.2%.
  double PercentileNs(double p) const;
  double PercentileMs(double p) const { return PercentileNs(p) / 1e6; }

  // Non-empty buckets in ascending order, for exporters.
  struct Bucket {
    int64_t lo_ns = 0;  // Inclusive.
    int64_t hi_ns = 0;  // Exclusive.
    int64_t count = 0;
  };
  std::vector<Bucket> NonZeroBuckets() const;

  // Bucket of `v`, for v < 2^63 (the non-negative int64 range).
  static size_t BucketIndex(uint64_t v) {
    if (v < kSubCount) {
      return static_cast<size_t>(v);
    }
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    return (static_cast<size_t>(msb - kSubBits + 1) << kSubBits) +
           ((v >> shift) & (kSubCount - 1));
  }
  // [lo, hi) value range covered by bucket `index` < kNumBuckets.
  static void BucketBounds(size_t index, int64_t* lo_ns, int64_t* hi_ns);

 private:
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
  // Every sample is below 2^63 and there are fewer than 2^63 of them, so
  // the 128-bit sum never wraps.
  unsigned __int128 sum_ns_ = 0;
  int64_t max_ns_ = 0;
};

}  // namespace faas

#endif  // SRC_TELEMETRY_LATENCY_RECORDER_H_
