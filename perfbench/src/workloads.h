// The benchmark's four workloads.  Each builds its inputs from
// options.seed, times `options.seconds` of work, checks its outputs, and
// fills a RunResult with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).  README.md explains why each exists.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

// EvaluatePoliciesStreamed over generator shards, 1 thread, fixed grid.
RunResult RunSweepStream(const RunOptions& options);
// EvaluatePolicies on a compiled trace, min(4, nproc) threads, hybrid set.
RunResult RunSweepHybrid(const RunOptions& options);
// ClusterSimulator::Replay of a flash-crowd slice, network + overload on.
RunResult RunClusterReplay(const RunOptions& options);
// In-process ServeServer driven by an open-loop Poisson client.
RunResult RunServeOpen(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
