#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]

Runs perfbench/run.py once per (workload, seed) with BENCHMARK.json's
run_seconds, then prints, per metric, the median and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median, next to the metric's bound.  A spread above its bound
(setup_s included) makes the exit status 1; one above a third of its bound
is flagged as not yet steady.  Every run's result line is kept in
$CARGO_TARGET_DIR/spread.json (default .bench_build).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            runs.setdefault(workload, []).append({"seed": seed, "result": result})
            if proc.returncode != 0 or not result.get("correct"):
                print("%s seed %d FAILED (exit %d)" % (workload, seed,
                                                       proc.returncode))
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, series in sorted(values.items()):
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "above bound/3"
            print("%-15s %-18s n=%2d median=%-14.6g spread=%.4f bound=%s %s" %
                  (workload, name, len(series), median, spread, bound, flag))
        sys.stdout.flush()
    out_dir = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "spread.json"), "w") as f:
        json.dump(runs, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
