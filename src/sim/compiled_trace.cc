#include "src/sim/compiled_trace.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/trace/entity_index.h"
#include "src/trace/types.h"

namespace faas {

namespace {

// Scratch of the multi-function merge, reusable across apps.  A
// single-function app never touches it, so it stays unallocated there.
struct MergeScratch {
  std::vector<int64_t> times;
  std::vector<int64_t> exec;
  std::vector<size_t> run_ends;
};

// Merges runs [begin, mid) and [mid, end) of (times, exec) into the same
// positions of (out_times, out_exec).  The left run wins ties, so merging
// adjacent runs left to right is stable.
void MergeRuns(const int64_t* times, const int64_t* exec, size_t begin,
               size_t mid, size_t end, int64_t* out_times,
               int64_t* out_exec) {
  size_t left = begin;
  size_t right = mid;
  size_t out = begin;
  while (left < mid && right < end) {
    const size_t from = times[right] < times[left] ? right++ : left++;
    out_times[out] = times[from];
    out_exec[out] = exec[from];
    ++out;
  }
  for (; left < mid; ++left, ++out) {
    out_times[out] = times[left];
    out_exec[out] = exec[left];
  }
  for (; right < end; ++right, ++out) {
    out_times[out] = times[right];
    out_exec[out] = exec[right];
  }
}

// Writes the app's invocations, ordered by time, to times[0..n) and
// exec[0..n), n = the app's invocation count.  The result is the
// std::stable_sort by time of the functions' (time, exec) pairs
// concatenated in function order.  Each function's stream is copied as one
// run, sorted first if it is not already (CSV input does not promise
// order); the runs are then merged pairwise, bottom-up.
void MergeAppInvocations(const AppTrace& app, int64_t* times, int64_t* exec,
                         MergeScratch& scratch) {
  size_t n = 0;
  size_t runs = 0;
  for (const FunctionTrace& function : app.functions) {
    const size_t size = function.invocations.size();
    if (size == 0) {
      continue;
    }
    int64_t* run = times + n;
    for (size_t i = 0; i < size; ++i) {
      run[i] = function.invocations[i].millis_since_origin();
    }
    if (!std::is_sorted(run, run + size)) {
      std::sort(run, run + size);  // One function: one exec value, no ties.
    }
    std::fill_n(exec + n, size,
                static_cast<int64_t>(function.execution.average_ms));
    n += size;
    ++runs;
  }
  if (runs <= 1) {
    return;
  }

  std::vector<size_t>& ends = scratch.run_ends;
  ends.clear();
  size_t end = 0;
  for (const FunctionTrace& function : app.functions) {
    if (!function.invocations.empty()) {
      end += function.invocations.size();
      ends.push_back(end);
    }
  }
  scratch.times.resize(n);
  scratch.exec.resize(n);
  int64_t* src_times = times;
  int64_t* src_exec = exec;
  int64_t* dst_times = scratch.times.data();
  int64_t* dst_exec = scratch.exec.data();
  while (ends.size() > 1) {
    size_t begin = 0;
    size_t merged = 0;
    for (size_t r = 0; r < ends.size(); r += 2) {
      const size_t mid = ends[r];
      const size_t stop = r + 1 < ends.size() ? ends[r + 1] : mid;
      MergeRuns(src_times, src_exec, begin, mid, stop, dst_times, dst_exec);
      ends[merged++] = stop;
      begin = stop;
    }
    ends.resize(merged);
    std::swap(src_times, dst_times);
    std::swap(src_exec, dst_exec);
  }
  if (src_times != times) {
    std::copy_n(src_times, n, times);
    std::copy_n(src_exec, n, exec);
  }
}

}  // namespace

const std::string& CompiledTrace::AppName(size_t app) const {
  return entities->AppName(AppId(app));
}

CompiledTrace CompiledTrace::Compile(const Trace& trace, int num_threads) {
  CompiledTrace compiled;
  compiled.horizon = trace.horizon;
  compiled.entities = EntityIndexFor(trace);

  const size_t num_apps = trace.apps.size();
  compiled.spans.resize(num_apps);
  compiled.memory_mb.resize(num_apps);

  size_t total = 0;
  for (size_t a = 0; a < num_apps; ++a) {
    const AppTrace& app = trace.apps[a];
    compiled.spans[a].begin = total;
    for (const auto& function : app.functions) {
      total += function.invocations.size();
    }
    compiled.spans[a].end = total;
    compiled.memory_mb[a] = app.memory.average_mb;
  }
  compiled.times_ms.resize(total);
  compiled.exec_ms.resize(total);

  ParallelFor(
      num_apps,
      [&](size_t a) {
        const AppSpan span = compiled.spans[a];
        // Per app, so single-function apps (most of them) allocate nothing.
        MergeScratch scratch;
        MergeAppInvocations(trace.apps[a], compiled.times_ms.data() + span.begin,
                            compiled.exec_ms.data() + span.begin, scratch);
      },
      num_threads);
  return compiled;
}

void CompiledTrace::CompileRangeInto(const Trace& trace, size_t begin_app,
                                     size_t end_app, CompiledTrace* out) {
  FAAS_CHECK(begin_app <= end_app && end_app <= trace.apps.size())
      << "app range [" << begin_app << ", " << end_app << ") out of [0, "
      << trace.apps.size() << ")";
  out->horizon = trace.horizon;

  auto entities = std::make_shared<EntityIndex>();
  const size_t num_apps = end_app - begin_app;
  out->spans.resize(num_apps);
  out->memory_mb.resize(num_apps);

  size_t total = 0;
  for (size_t a = 0; a < num_apps; ++a) {
    const AppTrace& app = trace.apps[begin_app + a];
    entities->AddApp(app.owner_id, app.app_id);
    out->spans[a].begin = total;
    for (const auto& function : app.functions) {
      total += function.invocations.size();
    }
    out->spans[a].end = total;
    out->memory_mb[a] = app.memory.average_mb;
  }
  out->entities = std::move(entities);
  out->times_ms.resize(total);
  out->exec_ms.resize(total);

  // One scratch for the whole shard: per-app scratch allocation would defeat
  // the arena recycling this path exists for.
  MergeScratch scratch;
  for (size_t a = 0; a < num_apps; ++a) {
    const AppSpan span = out->spans[a];
    MergeAppInvocations(trace.apps[begin_app + a],
                        out->times_ms.data() + span.begin,
                        out->exec_ms.data() + span.begin, scratch);
  }
}

}  // namespace faas
