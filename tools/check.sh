#!/usr/bin/env bash
# Repo verification: tier-1 build + full test suite, then the concurrency
# tests (thread pool, parallel-for, sweep engine, streamed sweep windows,
# shard generation, compiled trace) plus the chaos-engine, network,
# overload-control, and telemetry tests rebuilt and re-run under
# ThreadSanitizer, the chaos/overload/controller/telemetry/streaming tests
# once more under UndefinedBehaviorSanitizer, and the interning/trace/
# cluster/streaming tests under AddressSanitizer (the intern tables hand out
# string_views into deque storage, and the streamed sweep refills shard
# arenas from fill tasks inside its replay regions while a chaos replay runs
# concurrently — ASan is the pass that would catch a dangling view or an
# arena freed under a running fill; the
# SweepStreamTest.StreamedSweepWithConcurrentChaosReplay smoke drives both
# at once, and the fill- and policy-exception cases of SweepStream unwind a
# region mid-fill under TSan and ASan).  The serving leg (wire codec, timer wheel, latency recorder, and
# the live loopback suite with its multi-loop epoll threads and graceful
# shutdown) runs under both TSan and ASan: TSan watches the Snapshot/Stop
# cross-thread paths, ASan the decoder stash and per-connection buffers.
# The resource-ledger suite (cost-accounting merges, sim-vs-cluster charge
# identity, thread-count determinism) rides in every sanitizer leg.  The
# serve-chaos suite (chaos-plan grammar, idempotency index, recovery-ledger
# merges, plus the loopback watchdog/degrade/drain-under-stall tests) rides
# the TSan and ASan serving legs: TSan crosses the watchdog timers with
# Snapshot/Stop, ASan watches the frozen-key and dedupe-shard storage.
# The overload core runs in all three legs from both drivers (overload_test,
# serve_overload_test; matched by Overload|CircuitBreaker|Hedge).  The
# workload generator (arrival_test, generator_test) runs under UBSan and
# ASan, since thinning indexes the diurnal envelope by a computed
# minute-of-day bucket; UBSan also takes compiled_trace_test for the
# pointer arithmetic of the shard-compile run merge.  The ARIMA fitter
# (series_test, arima_model_test, auto_arima_test, nelder_mead_test) runs
# under UBSan and ASan: the root check indexes fixed-size arrays by degree,
# the CSS recursion splits into warm-up and steady-state rows, and
# Nelder-Mead swaps its reused trial buffers into the simplex.  The sweep's
# replay tasks each install their own AutoArima memo through a thread-local
# pointer, and the memo must never be reached from another thread, so
# SweepTest.SharedArimaFitsBitIdenticalToSoloRuns (several hybrid configs
# sharing fits at 4 threads and on the streamed path) rides the TSan leg's
# Sweep filter; the memo suite (AutoArimaMemoTest, matched by AutoArima)
# rides the UBSan and ASan legs, since a hit copies a stored model whose
# vectors a dangling or cleared entry would corrupt.  The invoker
# suite (invoker_test) runs under UBSan and ASan: its event closures hold
# std::list iterators to containers, and ASan is the leg that would catch a
# closure firing after its container was erased.  The event-queue suite
# (event_queue_test: EventQueueTest, DedupWindowTest) runs under UBSan and
# ASan: the queue recycles slab slots by generation and constructs each
# event's callable with placement new in a slot's inline buffer, so a
# stale handle or a callable destroyed twice or run after its slot was
# reused is a use-after-free ASan would catch; the dedup window's
# open-addressing index shifts cells on delete.
# --quick adds a pareto_sweep smoke over a small generated trace and a
# 2-second serve_chaos hostile-client battery (garbage, truncation,
# half-frame RST, slowloris, oversize) against an in-process loopback
# server.
#
# Usage: tools/check.sh [--quick] [--skip-tsan] [--skip-ubsan] [--skip-asan]
#   --quick   tier-1 build + ctest + pareto_sweep smoke; skips sanitizers
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
SKIP_TSAN=0
SKIP_UBSAN=0
SKIP_ASAN=0
for arg in "$@"; do
  case "${arg}" in
    --quick) SKIP_TSAN=1; SKIP_UBSAN=1; SKIP_ASAN=1 ;;
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-ubsan) SKIP_UBSAN=1 ;;
    --skip-asan) SKIP_ASAN=1 ;;
    *) echo "unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

if [[ "${SKIP_TSAN}" == "1" && "${SKIP_UBSAN}" == "1" && "${SKIP_ASAN}" == "1" ]]; then
  echo "== quick: pareto_sweep smoke (streamed 120-app frontier) =="
  ./build/tools/pareto_sweep --gen-apps 120 --gen-days 1 --threads 2 \
      --shard-apps 32 --out build/pareto_smoke.csv >/dev/null
  head -1 build/pareto_smoke.csv | grep -q \
      'policy,goodput_pct,cold_start_p75' || {
    echo "pareto_sweep smoke: unexpected CSV header" >&2; exit 1; }
  echo "== quick: serve_chaos smoke (hostile clients vs loopback server) =="
  ./build/tools/serve_chaos --self --duration-ms 2000
fi

if [[ "${SKIP_TSAN}" == "1" ]]; then
  echo "== skipping TSan pass =="
else
  echo "== TSan: concurrency + streaming + chaos + overload + telemetry tests =="
  cmake -B build-tsan -S . -DFAAS_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target \
      thread_pool_test parallel_test sweep_test sweep_stream_test \
      generator_shard_test cpu_topology_test \
      compiled_trace_test faults_test network_test overload_test \
      controller_test telemetry_metrics_test telemetry_tracer_test telemetry_export_test \
      telemetry_integration_test \
      serve_codec_test serve_loopback_test serve_chaos_test timer_wheel_test \
      serve_overload_test latency_recorder_test resource_ledger_test
  # gtest_discover_tests registers suite names (not target names), so match
  # the suites those binaries contain.
  (cd build-tsan && ctest --output-on-failure -j "${JOBS}" --no-tests=error \
      -R 'ThreadPool|ParallelFor|ParallelSimulation|Sweep|SweepStream|GeneratorShard|CpuTopology|CompiledTrace|CompiledReplay|FaultPlan|NetFaultPlan|NetworkModel|NetworkCluster|ChaosCluster|Overload|AdmissionQueue|CircuitBreaker|Hedge|FlashCrowd|Controller|TelemetryMetrics|TelemetryTracer|TelemetryExport|TelemetryIntegration|ServeCodec|ServeLoopback|ServeChaosPlan|IdempotencyIndex|RecoveryLedger|TimerWheel|LatencyRecorder|ResourceLedger')
fi

if [[ "${SKIP_UBSAN}" == "1" ]]; then
  echo "== skipping UBSan pass =="
else
  echo "== UBSan: chaos + overload + controller + telemetry + streaming + generator + ARIMA tests =="
  cmake -B build-ubsan -S . -DFAAS_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "${JOBS}" --target \
      faults_test network_test overload_test controller_test cluster_test \
      invoker_test sweep_stream_test generator_shard_test \
      telemetry_metrics_test telemetry_tracer_test telemetry_export_test \
      telemetry_integration_test resource_ledger_test serve_overload_test \
      arrival_test generator_test compiled_trace_test \
      series_test arima_model_test auto_arima_test nelder_mead_test \
      event_queue_test
  (cd build-ubsan && ctest --output-on-failure -j "${JOBS}" --no-tests=error \
      -R 'EventQueue|DedupWindow|FaultPlan|NetFaultPlan|NetworkModel|NetworkCluster|ChaosCluster|Overload|AdmissionQueue|CircuitBreaker|Hedge|FlashCrowd|Controller|Cluster|InvokerTest|SweepStream|GeneratorShard|TelemetryMetrics|TelemetryTracer|TelemetryExport|TelemetryIntegration|ResourceLedger|DiurnalProfile|PeriodicArrivals|PoissonArrivals|BurstyArrivals|SnapToTimerPeriod|GeneratorCalibration|GeneratorEdgeCase|CompiledTrace|CompiledReplay|AcfTest|PacfTest|DifferenceTest|IntegrateForecast|KpssTest|EstimateDifferencingOrder|YuleWalker|RootsTest|ArimaModel|ArimaForecastError|ArimaOrderSweep|AutoArima|NelderMead')
fi

if [[ "${SKIP_ASAN}" == "1" ]]; then
  echo "== skipping ASan pass =="
else
  echo "== ASan: interning + trace + cluster + overload + streaming + generator + ARIMA tests =="
  cmake -B build-asan -S . -DFAAS_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target \
      intern_test trace_csv_test transform_test compiled_trace_test \
      sweep_test sweep_stream_test generator_shard_test \
      faults_test network_test controller_test cluster_test overload_test \
      invoker_test telemetry_metrics_test telemetry_tracer_test \
      serve_codec_test serve_loopback_test serve_chaos_test timer_wheel_test \
      serve_overload_test latency_recorder_test resource_ledger_test \
      arrival_test generator_test \
      series_test arima_model_test auto_arima_test nelder_mead_test \
      event_queue_test
  # SweepStream covers the faults + streaming smoke
  # (StreamedSweepWithConcurrentChaosReplay): a chaos replay with an active
  # fault plan runs while the streamed sweep refills shard arenas.
  (cd build-asan && ctest --output-on-failure -j "${JOBS}" --no-tests=error \
      -R 'EventQueue|DedupWindow|Intern|EntityIndex|Csv|Transform|CompiledTrace|CompiledReplay|Sweep|SweepStream|GeneratorShard|FaultPlan|NetFaultPlan|NetworkModel|NetworkCluster|ChaosCluster|Controller|Cluster|InvokerTest|Overload|AdmissionQueue|CircuitBreaker|Hedge|FlashCrowd|TelemetryMetrics|TelemetryTracer|ServeCodec|ServeLoopback|ServeChaosPlan|IdempotencyIndex|RecoveryLedger|TimerWheel|LatencyRecorder|ResourceLedger|DiurnalProfile|PeriodicArrivals|PoissonArrivals|BurstyArrivals|SnapToTimerPeriod|GeneratorCalibration|GeneratorEdgeCase|AcfTest|PacfTest|DifferenceTest|IntegrateForecast|KpssTest|EstimateDifferencingOrder|YuleWalker|RootsTest|ArimaModel|ArimaForecastError|ArimaOrderSweep|AutoArima|NelderMead')
fi

echo "== all checks passed =="
