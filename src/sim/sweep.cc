#include "src/sim/sweep.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <utility>

#include "src/arima/auto_arima.h"
#include "src/common/arena_pool.h"
#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/thread_pool.h"
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
// cell of `compiled` against a fresh policy instance and writes the result
// to points[p].result.apps[app_offset + i], stamped with its global AppId;
// every cell owns its slot, so scheduling order cannot change the output.
// One task is one chunk of apps under every policy, app-major: each app is
// replayed under all policies back to back.  The chunk size divides the
// apps by threads * 4 * policies: about 4 * policies tasks per thread,
// enough to balance the threads without one dispatch per app.  The rate
// distribution is heavy-tailed, so a giant chunk claimed last would
// serialise the region behind one thread; tasks run largest chunk first
// (stable, so ties keep app order), claimed one at a time.
//
// App-major order lets the policies of one app share ARIMA fits: the
// idle-time series a hybrid policy fits depends on the trace alone, so every
// ARIMA-enabled config fits the same series at the same invocation.  Each
// task installs its own ArimaMemo on its thread and clears it after each
// app.  AutoArima is a pure function of (series, options) and a hit returns
// a copy of the stored result, so the output is bit-identical with or
// without the memo, for any thread count and task order.
//
// `instruments` is empty or one bundle per policy.  Counters and series
// flush from the workers; the per-app cold-start histogram is observed
// after the region on this thread, in policy-major then app order, so its
// floating-point sum does not depend on which worker ran which app.
void ReplayShard(const CompiledTrace& compiled, size_t app_offset,
                 const std::vector<const PolicyFactory*>& factories,
                 const std::vector<SimPolicyInstruments>& instruments,
                 const SimulatorOptions& options,
                 std::vector<PolicyPoint>& points) {
  const ColdStartSimulator simulator(options);
  const size_t num_apps = compiled.num_apps();
  const size_t num_policies = factories.size();
  for (PolicyPoint& point : points) {
    point.result.apps.resize(app_offset + num_apps);
  }

  const int threads =
      options.num_threads == 0 ? HardwareThreads() : options.num_threads;
  const size_t chunk_size = std::clamp<size_t>(
      num_apps / std::max<size_t>(
                     1, static_cast<size_t>(threads) * 4 * num_policies),
      1, std::max<size_t>(1, 256 / num_policies));
  const size_t num_chunks =
      num_apps == 0 ? 0 : (num_apps + chunk_size - 1) / chunk_size;
  std::vector<int64_t> chunk_cost(num_chunks, 0);
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    const size_t begin = chunk * chunk_size;
    const size_t end = std::min(begin + chunk_size, num_apps);
    for (size_t i = begin; i < end; ++i) {
      chunk_cost[chunk] += static_cast<int64_t>(compiled.spans[i].size());
    }
  }
  std::vector<size_t> task_order(num_chunks);
  std::iota(task_order.begin(), task_order.end(), size_t{0});
  std::stable_sort(task_order.begin(), task_order.end(),
                   [&](size_t a, size_t b) {
                     return chunk_cost[a] > chunk_cost[b];
                   });

  ParallelFor(
      task_order.size(),
      [&](size_t slot) {
        const size_t chunk = task_order[slot];
        const size_t begin = chunk * chunk_size;
        const size_t end = std::min(begin + chunk_size, num_apps);
        ArimaMemo memo;
        const ArimaMemoScope memo_scope(&memo);
        for (size_t i = begin; i < end; ++i) {
          for (size_t p = 0; p < num_policies; ++p) {
            const std::unique_ptr<KeepAlivePolicy> policy =
                factories[p]->CreateForApp();
            AppSimResult result = simulator.SimulateApp(
                compiled, i, *policy,
                instruments.empty() ? nullptr : &instruments[p]);
            // SimulateApp stamps the shard-local id; lift it to the global
            // dense range.
            result.app = AppId(static_cast<int64_t>(app_offset + i));
            points[p].result.apps[app_offset + i] = std::move(result);
          }
          // Hits come from the policies of one app; clearing bounds the
          // memo to one app's fits.
          memo.Clear();
        }
      },
      options.num_threads, /*chunk=*/1);

  for (size_t p = 0; p < instruments.size(); ++p) {
    MetricsRegistry* metrics = instruments[p].registry;
    if (metrics == nullptr) {
      continue;
    }
    for (size_t i = 0; i < num_apps; ++i) {
      const AppSimResult& result = points[p].result.apps[app_offset + i];
      if (result.invocations > 0) {
        metrics->Observe(instruments[p].app_cold_percent,
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
  // before the parallel region so worker shards are sized correctly.  The
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

  ReplayShard(compiled, /*app_offset=*/0, factories, instruments, options,
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

  // Bounded-depth pipeline over reusable slots: shard k lives in slot
  // k % depth.  Generation of a shard is claimed exactly once through a CAS
  // (either by a pool worker running the prefetch task, or inline by the
  // consumer when it arrives first — which is also what keeps a zero-worker
  // pool deadlock-free), so at most `depth` arenas exist at any moment.
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    std::unique_ptr<CompiledTrace> arena;  // set under mu when ready
    bool ready = false;                    // guarded by mu
    std::atomic<int> claim{0};             // 0 = unclaimed, 1 = claimed
    int shard = -1;                        // target shard for this cycle
  };
  const int depth =
      std::max(1, std::min(stream.max_resident_shards,
                           num_shards == 0 ? 1 : num_shards));
  // Slots are shared with the queued prefetch tasks: a task whose shard the
  // consumer claimed inline may still sit in the pool queue when this frame
  // unwinds, and must find valid memory for its (failing) claim check.
  std::vector<std::shared_ptr<Slot>> slots;
  slots.reserve(static_cast<size_t>(depth));
  for (int s = 0; s < depth; ++s) {
    slots.push_back(std::make_shared<Slot>());
  }

  ThreadPool& pool = ThreadPool::Shared();
  // Prefetch only helps when a worker can overlap generation with the
  // consumer's simulation; with zero workers or a sequential run the
  // consumer generates every shard inline.
  const bool prefetch = threads > 1 && pool.num_workers() > 0 && depth > 1;
  ArenaPool<CompiledTrace> arena_pool;

  auto generate = [&](Slot& slot) {
    std::unique_ptr<CompiledTrace> arena = arena_pool.Acquire();
    source.Fill(slot.shard, arena.get());
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.arena = std::move(arena);
    slot.ready = true;
    slot.cv.notify_all();
  };

  // Arms slot (shard % depth) for `shard` and, when prefetching, offers the
  // generation to the pool.  The shard/ready writes happen before the claim
  // reset (release), and every generator CAS-acquires the claim, so whoever
  // wins sees the new target.  A stale task from the slot's previous cycle
  // can also win the CAS — it generates the *current* target, which is
  // exactly as correct.
  auto arm = [&](int shard) {
    const std::shared_ptr<Slot>& slot_ptr =
        slots[static_cast<size_t>(shard) % static_cast<size_t>(depth)];
    Slot& slot = *slot_ptr;
    {
      std::lock_guard<std::mutex> lock(slot.mu);
      slot.ready = false;
      slot.shard = shard;
    }
    slot.claim.store(0, std::memory_order_release);
    if (prefetch) {
      // `generate` is captured by reference; it is only invoked after a
      // successful claim, and the drain guard below forecloses every claim
      // before this frame unwinds, so the reference never dangles in use.
      std::shared_ptr<Slot> armed = slot_ptr;
      pool.Submit([armed, &generate] {
        int expected = 0;
        if (armed->claim.compare_exchange_strong(expected, 1,
                                                 std::memory_order_acq_rel)) {
          generate(*armed);
        }
      });
    }
  };

  // On every exit path (including a policy exception rethrown out of the
  // simulation region) claim all slots, so a still-queued prefetch task can
  // never start generating against destroyed locals, and wait out any
  // generation already in flight on a worker.
  struct DrainGuard {
    std::vector<std::shared_ptr<Slot>>& slots;
    ~DrainGuard() {
      for (const std::shared_ptr<Slot>& slot_ptr : slots) {
        Slot& slot = *slot_ptr;
        int expected = 0;
        if (slot.claim.compare_exchange_strong(expected, 1,
                                               std::memory_order_acq_rel)) {
          continue;  // We own the claim; no generation will ever start.
        }
        // Claimed by a generator (possibly long finished): wait until the
        // arena handoff is published so no worker still touches the slot.
        std::unique_lock<std::mutex> lock(slot.mu);
        slot.cv.wait(lock, [&slot] { return slot.ready; });
      }
    }
  } drain_guard{slots};

  for (int k = 0; k < std::min(depth, num_shards); ++k) {
    arm(k);
  }

  auto entities = std::make_shared<EntityIndex>();
  size_t app_offset = 0;  // global dense id of the next surviving app
  for (int k = 0; k < num_shards; ++k) {
    Slot& slot =
        *slots[static_cast<size_t>(k) % static_cast<size_t>(depth)];
    int expected = 0;
    if (slot.claim.compare_exchange_strong(expected, 1,
                                           std::memory_order_acq_rel)) {
      generate(slot);
    }
    std::unique_ptr<CompiledTrace> arena;
    {
      std::unique_lock<std::mutex> lock(slot.mu);
      slot.cv.wait(lock, [&slot] { return slot.ready; });
      arena = std::move(slot.arena);
    }
    // The slot is free again: arm it for the shard `depth` ahead so its
    // generation overlaps this shard's simulation.
    if (k + depth < num_shards) {
      arm(k + depth);
    }

    const CompiledTrace& compiled = *arena;
    const size_t local_apps = compiled.num_apps();
    // Fold the shard's surviving apps into the global identity space: ids
    // are positional, so interning in shard-consumption order reproduces
    // the canonical ids of the materialized path exactly.
    for (size_t i = 0; i < local_apps; ++i) {
      const AppId local(static_cast<int64_t>(i));
      entities->AddApp(compiled.entities->OwnerName(local),
                       compiled.entities->AppName(local));
    }
    ReplayShard(compiled, app_offset, factories, /*instruments=*/{}, options,
                points);
    app_offset += local_apps;
    arena_pool.Release(std::move(arena));
  }

  FinalizePoints(points, baseline_index, std::move(entities));
  return points;
}

}  // namespace faas
