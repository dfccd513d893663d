// Timing decorators for the traced run.  Each one makes exactly the public
// calls the code it stands in for makes, and adds only clock reads and
// counters around them:
//
//   TimingShardSource    the same WorkloadGenerator::GenerateShard +
//                        CompiledTrace::CompileRangeInto calls as
//                        GeneratorShardSource::Fill, timed per shard.
//   TimingPolicyFactory  wraps any PolicyFactory; its per-app policies
//                        forward every KeepAlivePolicy virtual (including
//                        HasStaticDecision and RecordIdleTimeAt) and count
//                        calls and busy time, with hybrid decisions split by
//                        HybridHistogramPolicy::last_decision().
//
// Per-call costs are aggregated (counts and busy nanoseconds), never logged
// one span per call; per-shard work gets a span.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/sim/shard_source.h"
#include "src/workload/generator.h"

namespace perfbench {

// Cost of one steady_clock read, ns.  An interval bracketed by two reads
// includes about one read's cost; per-call busy times subtract it so they
// report the callee, not the stopwatch.
double ClockReadCostNs();

struct ShardCounters {
  std::atomic<int64_t> generate_ns{0};
  std::atomic<int64_t> compile_ns{0};
  std::atomic<int64_t> generated_inv{0};
};

class TimingShardSource final : public faas::ShardSource {
 public:
  // The generator's plans must already be prepared (PreparePlans), so Fill
  // is pure per-shard work exactly as in GeneratorShardSource.
  TimingShardSource(faas::WorkloadGenerator& generator, int shard_apps,
                    ShardCounters* counters, SpanLog* spans);

  int num_shards() const override { return num_shards_; }
  int shard_begin(int k) const override;
  int shard_end(int k) const override;
  void Fill(int k, faas::CompiledTrace* arena) const override;

  // Parent span for the shard spans of the next pass.
  void set_parent_span(int64_t id) { parent_span_ = id; }

 private:
  faas::WorkloadGenerator& generator_;
  int shard_apps_;
  int num_apps_;
  int num_shards_;
  ShardCounters* counters_;
  SpanLog* spans_;
  std::atomic<int64_t> parent_span_{0};
};

struct PolicyCounters {
  std::atomic<int64_t> record_calls{0};
  std::atomic<int64_t> record_ns{0};
  std::atomic<int64_t> decide_calls{0};
  std::atomic<int64_t> decide_ns{0};
  // Hybrid decisions by the branch that produced them.
  std::atomic<int64_t> histogram_calls{0};
  std::atomic<int64_t> histogram_ns{0};
  std::atomic<int64_t> standard_calls{0};
  std::atomic<int64_t> standard_ns{0};
  std::atomic<int64_t> arima_calls{0};
  std::atomic<int64_t> arima_ns{0};

  // Adds the per-layer policy.* metrics, divided by `passes`.
  void Report(RunResult& result, double passes) const;
};

class TimingPolicyFactory final : public faas::PolicyFactory {
 public:
  TimingPolicyFactory(const faas::PolicyFactory& inner,
                      PolicyCounters* counters)
      : inner_(inner), counters_(counters) {}

  std::unique_ptr<faas::KeepAlivePolicy> CreateForApp() const override;
  std::string name() const override { return inner_.name(); }

 private:
  const faas::PolicyFactory& inner_;
  PolicyCounters* counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
