#include "layers.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/sim/compiled_trace.h"
#include "src/trace/types.h"

namespace perfbench {

using faas::CompiledTrace;
using faas::Duration;
using faas::HybridHistogramPolicy;
using faas::KeepAlivePolicy;
using faas::PolicyDecision;
using faas::PolicyStateSnapshot;
using faas::TimePoint;
using faas::Trace;

double ClockReadCostNs() {
  static const double cost = [] {
    constexpr int kReads = 400'000;
    const int64_t start = NowNs();
    for (int i = 0; i < kReads; ++i) NowNs();
    return static_cast<double>(NowNs() - start) / kReads;
  }();
  return cost;
}

namespace {

int ShardCount(int num_apps, int shard_apps) {
  FAAS_CHECK(shard_apps > 0) << "shard_apps must be positive";
  return num_apps == 0 ? 0 : (num_apps + shard_apps - 1) / shard_apps;
}

// Busy time of one timed call with the stopwatch's own cost removed.
int64_t NetNs(int64_t start_ns, int64_t end_ns) {
  const int64_t raw =
      end_ns - start_ns - static_cast<int64_t>(ClockReadCostNs());
  return raw > 0 ? raw : 0;
}

class TimingPolicy final : public KeepAlivePolicy {
 public:
  TimingPolicy(std::unique_ptr<KeepAlivePolicy> inner, PolicyCounters* counters)
      : inner_(std::move(inner)),
        hybrid_(dynamic_cast<const HybridHistogramPolicy*>(inner_.get())),
        counters_(counters) {}

  ~TimingPolicy() override {
    counters_->record_calls += record_calls_;
    counters_->record_ns += record_ns_;
    counters_->decide_calls += decide_calls_;
    counters_->decide_ns += decide_ns_;
    counters_->histogram_calls += branch_calls_[0];
    counters_->histogram_ns += branch_ns_[0];
    counters_->standard_calls += branch_calls_[1];
    counters_->standard_ns += branch_ns_[1];
    counters_->arima_calls += branch_calls_[2];
    counters_->arima_ns += branch_ns_[2];
  }
  TimingPolicy(const TimingPolicy&) = delete;
  TimingPolicy& operator=(const TimingPolicy&) = delete;

  void RecordIdleTime(Duration idle_time) override {
    const int64_t start = NowNs();
    inner_->RecordIdleTime(idle_time);
    record_ns_ += NetNs(start, NowNs());
    ++record_calls_;
  }
  void RecordIdleTimeAt(TimePoint now, Duration idle_time) override {
    const int64_t start = NowNs();
    inner_->RecordIdleTimeAt(now, idle_time);
    record_ns_ += NetNs(start, NowNs());
    ++record_calls_;
  }
  PolicyDecision NextWindows() override {
    const int64_t start = NowNs();
    const PolicyDecision decision = inner_->NextWindows();
    const int64_t ns = NetNs(start, NowNs());
    decide_ns_ += ns;
    ++decide_calls_;
    if (hybrid_ != nullptr) {
      int branch = -1;
      switch (hybrid_->last_decision()) {
        case HybridHistogramPolicy::DecisionKind::kHistogram:
          branch = 0;
          break;
        case HybridHistogramPolicy::DecisionKind::kStandardKeepAlive:
          branch = 1;
          break;
        case HybridHistogramPolicy::DecisionKind::kArima:
          branch = 2;
          break;
        case HybridHistogramPolicy::DecisionKind::kNone:
          break;
      }
      if (branch >= 0) {
        ++branch_calls_[branch];
        branch_ns_[branch] += ns;
      }
    }
    return decision;
  }
  bool HasStaticDecision() const override {
    return inner_->HasStaticDecision();
  }
  std::string name() const override { return inner_->name(); }
  size_t ApproximateSizeBytes() const override {
    return inner_->ApproximateSizeBytes();
  }
  std::unique_ptr<PolicyStateSnapshot> SnapshotState() const override {
    return inner_->SnapshotState();
  }
  bool RestoreState(const PolicyStateSnapshot& snapshot) override {
    return inner_->RestoreState(snapshot);
  }
  void WipeState() override { inner_->WipeState(); }
  bool IsLearning() const override { return inner_->IsLearning(); }

 private:
  std::unique_ptr<KeepAlivePolicy> inner_;
  const HybridHistogramPolicy* hybrid_;
  PolicyCounters* counters_;
  int64_t record_calls_ = 0;
  int64_t record_ns_ = 0;
  int64_t decide_calls_ = 0;
  int64_t decide_ns_ = 0;
  int64_t branch_calls_[3] = {0, 0, 0};
  int64_t branch_ns_[3] = {0, 0, 0};
};

}  // namespace

TimingShardSource::TimingShardSource(faas::WorkloadGenerator& generator,
                                     int shard_apps, ShardCounters* counters,
                                     SpanLog* spans)
    : generator_(generator),
      shard_apps_(shard_apps),
      num_apps_(generator.num_sampled_apps()),
      num_shards_(ShardCount(num_apps_, shard_apps)),
      counters_(counters),
      spans_(spans) {
  FAAS_CHECK(generator.config().flash_crowd_count == 0)
      << "streamed generation requires flash_crowd_count == 0";
}

int TimingShardSource::shard_begin(int k) const {
  FAAS_CHECK(k >= 0 && k < num_shards_) << "shard " << k << " out of range";
  return k * shard_apps_;
}

int TimingShardSource::shard_end(int k) const {
  return std::min(shard_begin(k) + shard_apps_, num_apps_);
}

void TimingShardSource::Fill(int k, CompiledTrace* arena) const {
  const int64_t t0 = NowNs();
  const Trace shard = generator_.GenerateShard(shard_begin(k), shard_end(k));
  const int64_t t1 = NowNs();
  CompiledTrace::CompileRangeInto(shard, 0, shard.apps.size(), arena);
  const int64_t t2 = NowNs();
  counters_->generate_ns += t1 - t0;
  counters_->compile_ns += t2 - t1;
  counters_->generated_inv += shard.TotalInvocations();
  if (spans_ != nullptr) {
    const int64_t parent = parent_span_.load();
    spans_->Add("workload.generate_shard", parent, t0, t1);
    spans_->Add("sim.compile_shard", parent, t1, t2);
  }
}

void PolicyCounters::Report(RunResult& result, double passes) const {
  const double n = passes > 0.0 ? passes : 1.0;
  auto count = [&](const char* name, const std::atomic<int64_t>& value) {
    result.Set(name, static_cast<double>(value.load()) / n, "count");
  };
  auto seconds = [&](const char* name, const std::atomic<int64_t>& value) {
    result.Set(name, static_cast<double>(value.load()) / 1e9 / n, "s");
  };
  count("policy.record_calls", record_calls);
  seconds("policy.record_s", record_ns);
  count("policy.decide_calls", decide_calls);
  seconds("policy.decide_s", decide_ns);
  count("policy.decide_histogram_calls", histogram_calls);
  seconds("policy.decide_histogram_s", histogram_ns);
  count("policy.decide_standard_calls", standard_calls);
  seconds("policy.decide_standard_s", standard_ns);
  count("policy.decide_arima_calls", arima_calls);
  seconds("policy.decide_arima_s", arima_ns);
}

std::unique_ptr<KeepAlivePolicy> TimingPolicyFactory::CreateForApp() const {
  return std::make_unique<TimingPolicy>(inner_.CreateForApp(), counters_);
}

}  // namespace perfbench
