#include "src/telemetry/latency_recorder.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"

namespace faas {

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
  max_ns_ = std::max(max_ns_, other.max_ns_);
}

void LatencyRecorder::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ns_ = 0;
  max_ns_ = 0;
}

void LatencyRecorder::BucketBounds(size_t index, int64_t* lo_ns,
                                   int64_t* hi_ns) {
  FAAS_CHECK(index < static_cast<size_t>(kNumBuckets))
      << "latency bucket " << index << " out of range";
  const size_t group = index >> kSubBits;
  const size_t sub = index & (kSubCount - 1);
  if (group == 0) {
    *lo_ns = static_cast<int64_t>(sub);
    *hi_ns = static_cast<int64_t>(sub) + 1;
    return;
  }
  // Group g >= 1 covers values whose most significant bit is
  // (g + kSubBits - 1); each sub-bucket spans 2^(msb - kSubBits) values.
  const int msb = static_cast<int>(group) + kSubBits - 1;
  const int64_t width = int64_t{1} << (msb - kSubBits);
  *lo_ns = (int64_t{kSubCount} + static_cast<int64_t>(sub)) * width;
  // The very last sub-bucket's upper edge is 2^63, one past int64; clamp.
  *hi_ns = *lo_ns <= std::numeric_limits<int64_t>::max() - width
               ? *lo_ns + width
               : std::numeric_limits<int64_t>::max();
}

double LatencyRecorder::PercentileNs(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  // Rank of the percentile sample, 1-based (p50 of 2 samples = sample 1).
  int64_t target = static_cast<int64_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(count_)));
  target = std::max<int64_t>(target, 1);
  int64_t cumulative = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= target) {
      int64_t lo = 0;
      int64_t hi = 0;
      BucketBounds(i, &lo, &hi);
      return 0.5 * (static_cast<double>(lo) + static_cast<double>(hi));
    }
  }
  return static_cast<double>(max_ns_);
}

std::vector<LatencyRecorder::Bucket> LatencyRecorder::NonZeroBuckets() const {
  std::vector<Bucket> out;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) {
      continue;
    }
    Bucket bucket;
    BucketBounds(i, &bucket.lo_ns, &bucket.hi_ns);
    bucket.count = counts_[i];
    out.push_back(bucket);
  }
  return out;
}

}  // namespace faas
