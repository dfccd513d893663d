#!/usr/bin/env bash
# Repo verification: tier-1 build + full test suite, then the full suite
# again under ThreadSanitizer (build-tsan/) and under AddressSanitizer +
# UndefinedBehaviorSanitizer (build-asan/).  Every test runs in every leg,
# so a new test is checked by each sanitizer without list edits.
# --quick skips both sanitizer legs and instead runs a pareto_sweep smoke
# over a small generated trace and a 2-second serve_chaos hostile-client
# battery against an in-process loopback server.
# --results builds the tier-1 tree and only regenerates the deterministic
# results/*.csv (fig14, fig15, fig20, the chaos/network/overload cluster
# tables and the pareto frontier) into build/results-check/, then compares
# each byte for byte with the committed file; any difference fails.
# resilience.csv and serving.csv are left out: they hold wall-clock
# measurements that differ from run to run.  The same leg then runs the
# repository benchmark (perfbench/run.py, 1 s, untraced) on the three replay
# workloads at seeds 7 and 90210; each run must exit 0, which includes
# matching perfbench/reference_digests.json.
#
# Usage: tools/check.sh [--quick] [--skip-tsan] [--skip-asan] [--results]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
SKIP_TSAN=0
SKIP_ASAN=0
RESULTS=0
for arg in "$@"; do
  case "${arg}" in
    --quick) SKIP_TSAN=1; SKIP_ASAN=1 ;;
    --results) RESULTS=1 ;;
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-asan) SKIP_ASAN=1 ;;
    *) echo "unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

# Regenerates the deterministic results/*.csv and compares them with the
# committed files.
results_leg() {
  local out=build/results-check
  rm -rf "${out}"
  mkdir -p "${out}"
  echo "== results: regenerate into ${out} =="
  local bench
  for bench in fig14_fixed_keepalive fig15_pareto fig20_cluster \
      chaos_cluster network_cluster overload_cluster; do
    FAAS_BENCH_RESULTS_DIR="${out}" FAAS_BENCH_PARETO_JSON=off \
        FAAS_BENCH_NETWORK_JSON=off "./build/bench/bench_${bench}" >/dev/null
  done
  # The canonical frontier run (EXPERIMENTS.md, "Cost Pareto frontier").
  ./build/tools/pareto_sweep --gen-apps 1200 --gen-days 7 --threads 8 \
      --cost-gb-s 1.66667e-5 --cost-invoke 0.20 \
      --out "${out}/pareto_frontier.csv" >/dev/null
  local name status=0
  for name in fig14_fixed_keepalive fig15_pareto fig20_cluster \
      chaos_cluster network_cluster overload_cluster pareto_frontier; do
    if cmp "results/${name}.csv" "${out}/${name}.csv"; then
      echo "  identical: results/${name}.csv"
    else
      echo "  DIFFERS: results/${name}.csv" >&2
      status=1
    fi
  done
  return "${status}"
}

# Runs the replay workloads of the repository benchmark; each run checks its
# output against the reference digests and exits non-zero on a mismatch.
perfbench_leg() {
  echo "== results: perfbench replay workloads =="
  local workload seed output status=0
  for workload in sweep-stream sweep-hybrid cluster-replay; do
    for seed in 7 90210; do
      if output="$(python3 perfbench/run.py --workload "${workload}" \
          --seed "${seed}" --seconds 1 --trace 0 2>&1)"; then
        echo "  passed: ${workload} seed ${seed}"
      else
        echo "  FAILED: ${workload} seed ${seed}" >&2
        tail -n 5 <<<"${output}" >&2
        status=1
      fi
    done
  done
  return "${status}"
}

if [[ "${RESULTS}" == "1" ]]; then
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}"
  results_leg
  perfbench_leg
  echo "== results match =="
  exit 0
fi

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

if [[ "${SKIP_TSAN}" == "1" && "${SKIP_ASAN}" == "1" ]]; then
  echo "== quick: pareto_sweep smoke (streamed 120-app frontier) =="
  ./build/tools/pareto_sweep --gen-apps 120 --gen-days 1 --threads 2 \
      --shard-apps 32 --out build/pareto_smoke.csv >/dev/null
  head -1 build/pareto_smoke.csv | grep -q \
      'policy,goodput_pct,cold_start_p75' || {
    echo "pareto_sweep smoke: unexpected CSV header" >&2; exit 1; }
  echo "== quick: serve_chaos smoke (hostile clients vs loopback server) =="
  ./build/tools/serve_chaos --self --duration-ms 2000
fi

# Builds every test binary under one sanitizer and runs every test.
sanitizer_leg() {
  local sanitizer="$1" dir="$2"
  echo "== ${sanitizer}: full test suite =="
  cmake -B "${dir}" -S . -DFAAS_SANITIZE="${sanitizer}" >/dev/null
  cmake --build "${dir}" -j "${JOBS}" --target faas_tests
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" --no-tests=error)
}

if [[ "${SKIP_TSAN}" == "1" ]]; then
  echo "== skipping TSan leg =="
else
  sanitizer_leg thread build-tsan
fi

if [[ "${SKIP_ASAN}" == "1" ]]; then
  echo "== skipping ASan+UBSan leg =="
else
  sanitizer_leg address,undefined build-asan
fi

echo "== all checks passed =="
