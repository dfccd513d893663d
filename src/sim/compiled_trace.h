// Policy-invariant compiled form of a Trace for sweep replay.
//
// Every policy point of a sweep (Figures 14-18) replays the same trace; the
// only per-policy work is the warm/cold classification.  The seed simulator
// nevertheless re-merged and re-sorted each app's per-function invocation
// streams on every SimulateApp call, so an N-policy sweep paid the merge N
// times.  CompiledTrace does that merge exactly once, into two contiguous
// structure-of-arrays arenas:
//
//   times_ms[begin..end)  invocation instants, ascending per app
//   exec_ms[begin..end)   the invocation's execution duration (the function
//                         average), stored unconditionally; the simulator
//                         substitutes zero when execution times are disabled
//
// with one [begin, end) span per app plus the per-app metadata the simulator
// needs (id, average memory).  The arenas are self-contained: the source
// Trace may be destroyed after Compile returns.
//
// Each app's span is the std::stable_sort by time of its functions' (time,
// exec) pairs concatenated in function order: one linear merge of the
// per-function runs, which the generator already emits sorted.  Equal
// instants from different functions therefore come out in function order.
// Any other order of such ties replays identically: a tie group is
// classified at its first member, sets exec_end to t + max(exec) whatever
// the order, gives the policy one idle gap, and the ledger sums integer
// exec_ms.  CompiledReplayEquivalenceTest (compiled_trace_test) pins this
// against a hand-built arena with every tie group in reverse function
// order.

#ifndef SRC_SIM_COMPILED_TRACE_H_
#define SRC_SIM_COMPILED_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/intern.h"
#include "src/common/time.h"

namespace faas {

class EntityIndex;
struct Trace;

struct CompiledTrace {
  struct AppSpan {
    size_t begin = 0;
    size_t end = 0;
    size_t size() const { return end - begin; }
  };

  // Invocation arenas; all apps' merged streams back to back.
  std::vector<int64_t> times_ms;
  std::vector<int64_t> exec_ms;
  // Per-app slices of the arenas, in trace order; the app at position a is
  // AppId(a) in `entities` (the canonical index, see entity_index.h).
  std::vector<AppSpan> spans;
  // Per-app metadata, parallel to `spans`.
  std::vector<double> memory_mb;
  // Entity names for the spans; ids are positional, strings re-materialize
  // only at the output boundary.
  std::shared_ptr<const EntityIndex> entities;
  Duration horizon;

  size_t num_apps() const { return spans.size(); }
  // The app's name, for writers.
  const std::string& AppName(size_t app) const;
  int64_t total_invocations() const {
    return static_cast<int64_t>(times_ms.size());
  }

  // Merges and sorts every app's invocation streams.  num_threads as in
  // SimulatorOptions: 0 = hardware concurrency, <= 1 = inline.
  static CompiledTrace Compile(const Trace& trace, int num_threads = 1);

  // Compiles apps [begin_app, end_app) of `trace` into `out`, reusing the
  // arenas' existing capacity (the streaming sweep engine recycles a bounded
  // set of arenas across thousands of shards).  Single-threaded — shard
  // pipelining provides the parallelism.  `out->entities` is a fresh
  // app-only index over the range (apps interned in trace order, functions
  // not interned), so span i is AppId(i) exactly as in Compile.  The merged
  // (time, exec) sequences are bit-identical to the corresponding spans of
  // Compile(trace): both run the same stable merge.
  static void CompileRangeInto(const Trace& trace, size_t begin_app,
                               size_t end_app, CompiledTrace* out);
};

}  // namespace faas

#endif  // SRC_SIM_COMPILED_TRACE_H_
