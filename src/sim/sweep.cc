#include "src/sim/sweep.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "src/arima/auto_arima.h"
#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/trace/entity_index.h"

namespace faas {

namespace {

// Shared head of both sweeps: one named, empty point per factory.
std::vector<PolicyPoint> MakePoints(
    const std::vector<const PolicyFactory*>& factories,
    size_t baseline_index) {
  FAAS_CHECK(baseline_index < factories.size()) << "baseline out of range";
  std::vector<PolicyPoint> points(factories.size());
  for (size_t p = 0; p < factories.size(); ++p) {
    points[p].name = factories[p]->name();
    points[p].result.policy_name = points[p].name;
  }
  return points;
}

// Shared tail of both sweeps: entity names, percentile + waste roll-ups
// and the baseline normalisation.
void FinalizePoints(std::vector<PolicyPoint>& points, size_t baseline_index,
                    const std::shared_ptr<const EntityIndex>& entities) {
  for (PolicyPoint& point : points) {
    point.result.entities = entities;
    point.cold_start_p75 = point.result.AppColdStartPercentile(75.0);
    point.wasted_memory_minutes = point.result.TotalWastedMemoryMinutes();
  }
  const double baseline_waste = points[baseline_index].wasted_memory_minutes;
  for (PolicyPoint& point : points) {
    point.normalized_wasted_memory_pct =
        baseline_waste > 0.0
            ? 100.0 * point.wasted_memory_minutes / baseline_waste
            : 0.0;
  }
}

// The one replay scheduler of both sweeps.  Replays every (policy, app)
// cell of `shards` against a fresh policy instance.  The shards hold
// consecutive apps: app i of the window (counting across its shards) is
// global AppId app_offset + i, and its result goes to
// points[p].result.apps[app_offset + i]; every cell owns its slot, so
// scheduling order cannot change the output.  One task is one chunk of one
// shard's apps under every policy, app-major: each app is replayed under all
// policies back to back.  The chunk size divides the window's apps by
// threads * 4 * policies: about 4 * policies tasks per thread, enough to
// balance the threads without one dispatch per app.  The rate distribution
// is heavy-tailed, so a giant chunk claimed last would serialise the region
// behind one thread; tasks run largest chunk first (stable, so ties keep
// app order), claimed one at a time.
//
// `fill(0) ... fill(num_fills - 1)` are the streamed sweep's fills of the
// next window.  They run as the region's first top-level tasks, so their
// generation overlaps this window's replay, and an exception from a fill
// unwinds through ParallelFor like one from a replay task.
//
// App-major order lets the policies of one app share ARIMA fits: the
// idle-time series a hybrid policy fits depends on the trace alone, so every
// ARIMA-enabled config fits the same series at the same invocation.  Each
// task installs its own ArimaMemo on its thread and clears it after each
// app.  AutoArima is a pure function of (series, options) and a hit returns
// a copy of the stored result, so the output is bit-identical with or
// without the memo, for any thread count and task order.
//
// `instruments` is empty or one bundle per policy.  An instrumented task
// replays into writers of its own, one per policy, and folds them into the
// shared registry and tracer when it ends; counters, series and spans merge
// exactly in any fold order.  The per-app cold-start histogram is observed
// after the region on this thread, in policy-major then app order, so its
// floating-point sum does not depend on which worker ran which app.
// Uninstrumented, no writer is made.
void ReplayShards(const std::vector<const CompiledTrace*>& shards,
                  size_t app_offset,
                  const std::vector<const PolicyFactory*>& factories,
                  const std::vector<SimPolicyInstruments>& instruments,
                  const SimulatorOptions& options,
                  std::vector<PolicyPoint>& points, size_t num_fills = 0,
                  const std::function<void(size_t)>& fill = nullptr) {
  const ColdStartSimulator simulator(options);
  const size_t num_policies = factories.size();
  size_t num_apps = 0;
  for (const CompiledTrace* shard : shards) {
    num_apps += shard->num_apps();
  }
  for (PolicyPoint& point : points) {
    point.result.apps.resize(app_offset + num_apps);
  }

  const int threads =
      options.num_threads == 0 ? HardwareThreads() : options.num_threads;
  const size_t chunk_size = std::clamp<size_t>(
      num_apps / std::max<size_t>(
                     1, static_cast<size_t>(threads) * 4 * num_policies),
      1, std::max<size_t>(1, 256 / num_policies));
  // Apps [begin, end) of `shard`; shard-local app i is global app_id + i.
  struct Chunk {
    const CompiledTrace* shard;
    size_t app_id;
    size_t begin;
    size_t end;
    int64_t cost;
  };
  std::vector<Chunk> chunks;
  size_t shard_app_id = app_offset;
  for (const CompiledTrace* shard : shards) {
    for (size_t begin = 0; begin < shard->num_apps(); begin += chunk_size) {
      Chunk chunk{shard, shard_app_id, begin,
                  std::min(begin + chunk_size, shard->num_apps()), 0};
      for (size_t i = chunk.begin; i < chunk.end; ++i) {
        chunk.cost += static_cast<int64_t>(shard->spans[i].size());
      }
      chunks.push_back(chunk);
    }
    shard_app_id += shard->num_apps();
  }
  std::stable_sort(chunks.begin(), chunks.end(),
                   [](const Chunk& a, const Chunk& b) {
                     return a.cost > b.cost;
                   });

  ParallelFor(
      num_fills + chunks.size(),
      [&](size_t task) {
        if (task < num_fills) {
          fill(task);
          return;
        }
        const Chunk& chunk = chunks[task - num_fills];
        ArimaMemo memo;
        const ArimaMemoScope memo_scope(&memo);
        std::vector<TelemetryWriter> telemetry;
        telemetry.reserve(instruments.size());
        for (const SimPolicyInstruments& policy : instruments) {
          telemetry.emplace_back(*options.telemetry, policy.lane);
        }
        for (size_t i = chunk.begin; i < chunk.end; ++i) {
          const size_t app = chunk.app_id + i;
          for (size_t p = 0; p < num_policies; ++p) {
            const std::unique_ptr<KeepAlivePolicy> policy =
                factories[p]->CreateForApp();
            AppSimResult result = simulator.SimulateApp(
                *chunk.shard, i, *policy,
                telemetry.empty() ? nullptr : &telemetry[p],
                telemetry.empty() ? nullptr : &instruments[p]);
            // SimulateApp stamps the shard-local id; lift it to the global
            // dense range.
            result.app = AppId(static_cast<int64_t>(app));
            points[p].result.apps[app] = std::move(result);
          }
          // Hits come from the policies of one app; clearing bounds the
          // memo to one app's fits.
          memo.Clear();
        }
        for (TelemetryWriter& writer : telemetry) {
          writer.Fold();
        }
      },
      options.num_threads, /*chunk=*/1);

  for (size_t p = 0; p < instruments.size(); ++p) {
    TelemetryWriter owner(*options.telemetry, instruments[p].lane);
    for (size_t i = 0; i < num_apps; ++i) {
      const AppSimResult& result = points[p].result.apps[app_offset + i];
      if (result.invocations > 0) {
        owner.Observe(instruments[p].app_cold_percent,
                      result.ColdStartPercent());
      }
    }
  }
}

}  // namespace

std::vector<PolicyPoint> EvaluatePolicies(
    const Trace& trace, const std::vector<const PolicyFactory*>& factories,
    size_t baseline_index, const SimulatorOptions& options) {
  return EvaluatePolicies(CompiledTrace::Compile(trace, options.num_threads),
                          factories, baseline_index, options);
}

std::vector<PolicyPoint> EvaluatePolicies(
    const CompiledTrace& compiled,
    const std::vector<const PolicyFactory*>& factories, size_t baseline_index,
    const SimulatorOptions& options) {
  std::vector<PolicyPoint> points = MakePoints(factories, baseline_index);
  const size_t num_apps = compiled.num_apps();
  const size_t num_policies = factories.size();

  // Telemetry: one instrument bundle per policy, registered on this thread
  // before the parallel region so the tasks' blocks are sized from it.  The
  // Chrome-trace process lane is the policy ordinal and kAppReplay trace ids
  // are p * num_apps + app, so the collected span set is a deterministic
  // function of the sweep shape, independent of --threads.
  std::vector<SimPolicyInstruments> instruments;
  if (options.telemetry != nullptr) {
    instruments.reserve(num_policies);
    for (size_t p = 0; p < num_policies; ++p) {
      instruments.push_back(SimPolicyInstruments::Register(
          *options.telemetry, factories[p]->name(), static_cast<int16_t>(p),
          static_cast<int64_t>(p * num_apps), compiled.horizon));
    }
  }

  ReplayShards({&compiled}, /*app_offset=*/0, factories, instruments, options,
               points);
  FinalizePoints(points, baseline_index, compiled.entities);
  return points;
}

std::vector<PolicyPoint> EvaluatePoliciesStreamed(
    const ShardSource& source,
    const std::vector<const PolicyFactory*>& factories, size_t baseline_index,
    const SimulatorOptions& options, const StreamingSweepOptions& stream) {
  std::vector<PolicyPoint> points = MakePoints(factories, baseline_index);
  FAAS_CHECK(options.telemetry == nullptr)
      << "telemetry is not supported in streamed sweeps (instrument "
         "registration needs the app population up front); run materialized";
  const int num_shards = source.num_shards();
  const int threads =
      options.num_threads == 0 ? HardwareThreads() : options.num_threads;
  const int max_resident = std::max(1, stream.max_resident_shards);

  // Shards replay in windows of `window` consecutive shards, one replay
  // region per window.  With more than one thread and room for two windows,
  // the region of window j also fills window j + 1 into the other half of
  // 2 * window arenas (window <= max_resident / 2, so at most max_resident
  // arenas exist); otherwise one arena is refilled inline before each
  // shard's region.  A shard is filled exactly once, by whichever
  // participant claims its fill task, and Fill is a pure function of the
  // shard index.
  const bool overlap = threads > 1 && max_resident > 1;
  const int window =
      overlap ? std::clamp(std::min(max_resident / 2, threads), 1,
                           std::max(1, num_shards))
              : 1;
  std::vector<CompiledTrace> arenas(overlap ? 2 * window : 1);
  auto arena = [&arenas](int k) -> CompiledTrace& {
    return arenas[static_cast<size_t>(k) % arenas.size()];
  };
  auto fill = [&source, &arena](int k) { source.Fill(k, &arena(k)); };

  auto entities = std::make_shared<EntityIndex>();
  size_t app_offset = 0;  // global dense id of the next surviving app
  int filled = 0;         // shards [0, filled) are filled
  std::vector<const CompiledTrace*> shards;
  for (int begin = 0; begin < num_shards; begin += window) {
    const int end = std::min(begin + window, num_shards);
    if (filled < end) {  // window 0, or every window without overlap
      ParallelFor(
          static_cast<size_t>(end - filled),
          [&](size_t i) { fill(filled + static_cast<int>(i)); },
          options.num_threads, /*chunk=*/1);
      filled = end;
    }
    shards.clear();
    size_t window_apps = 0;
    for (int k = begin; k < end; ++k) {
      const CompiledTrace& compiled = arena(k);
      // Fold the shard's surviving apps into the global identity space: ids
      // are positional, so interning in shard order reproduces the
      // canonical ids of the materialized path exactly.
      for (size_t i = 0; i < compiled.num_apps(); ++i) {
        const AppId local(static_cast<int64_t>(i));
        entities->AddApp(compiled.entities->OwnerName(local),
                         compiled.entities->AppName(local));
      }
      shards.push_back(&compiled);
      window_apps += compiled.num_apps();
    }
    const int next_end = overlap ? std::min(end + window, num_shards) : end;
    ReplayShards(shards, app_offset, factories, /*instruments=*/{}, options,
                 points, static_cast<size_t>(next_end - end),
                 [&](size_t i) { fill(end + static_cast<int>(i)); });
    filled = next_end;
    app_offset += window_apps;
  }

  FinalizePoints(points, baseline_index, std::move(entities));
  return points;
}

}  // namespace faas
