#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py

1. Every metric name in BENCHMARK.json, and every name a run reports,
   matches [A-Za-z0-9_.-]+.
2. A short smoke run of every workload passes, untraced and traced.
3. Two smoke runs of a replay workload with the same seed print the same
   output digest.

Smoke runs reuse the build in $CARGO_TARGET_DIR (default .bench_build).
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
REPLAY = ("sweep-stream", "sweep-hybrid", "cluster-replay")
SMOKE_SECONDS = "2"
# serve-open needs a container to sit idle past its 1 s keep-alive before
# its engagement check (an eviction) can pass.
SERVE_SMOKE_SECONDS = "5"


def run(workload, seed, trace):
    """Runs one smoke run; returns (exit code, provenance, result line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds",
         SERVE_SMOKE_SECONDS if workload == "serve-open" else SMOKE_SECONDS,
         "--trace",
         str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    provenance, result = None, None
    for line in proc.stdout.splitlines():
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, provenance, result


def main():
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    check(all(NAME.match(n) for n in names),
          "BENCHMARK.json names match [A-Za-z0-9_.-]+")
    check(len(names) == len(set(names)), "BENCHMARK.json names are unique")

    digests = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, provenance, result = run(workload, 11, trace)
            check(code == 0 and result is not None and result["correct"],
                  "%s trace=%d smoke run passes" % (workload, trace))
            if result is None:
                continue
            reported = list(result["metrics"]) + list(provenance["notes"])
            check(all(NAME.match(n) for n in reported),
                  "%s trace=%d reported names match the pattern" %
                  (workload, trace))
            if trace == 0 and workload in REPLAY:
                digests[workload] = provenance["digest"]

    for workload in REPLAY:
        _, provenance, _ = run(workload, 11, 0)
        again = provenance["digest"] if provenance else None
        check(bool(digests.get(workload)) and again == digests.get(workload),
              "%s digest repeats across same-seed runs (%s)" %
              (workload, digests.get(workload)))

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
