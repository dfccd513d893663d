#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload sweep-stream --seed 7 --seconds 10 --trace 0

Run from the root of a checkout.  The first run configures and builds the
repo libraries plus the benchmark into $CARGO_TARGET_DIR (default
.bench_build); later runs reuse the build.  Build output goes to stderr.

Standard output ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1).  The lines before it carry the provenance
block (host, build, source digest, seeds) and the workload's detail
figures.  Exit status is 0 only when every correctness and engagement
check passed.

Other modes:
    --smoke             shrink the workload to a seconds-long smoke run
    --write-reference   record this run's digest as the kept reference
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-stream", "sweep-hybrid", "cluster-replay", "serve-open")
# A run must finish within 180 s; the binary gets the rest after the build
# check.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, path))


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def source_digest():
    """sha256 over the files the benchmark builds from (src/ and perfbench/)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    # Only the checkout's own repository: git would otherwise walk up into
    # whatever directory holds the checkout.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout; see source_digest)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout; see source_digest)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "config.json"))
    references_path = os.path.join(HERE, "reference_digests.json")
    references = load_json(references_path)
    out_dir = build_dir()
    binary = build(out_dir)

    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                    "-smoke" if args.smoke else "")
    os.makedirs(os.path.join(out_dir, "runs"), exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.trace:
        command += ["--trace-out",
                    os.path.join(out_dir, "runs", tag + ".trace.json")]
    reference = references.get(args.workload, {}).get(str(args.seed))
    if reference and not args.smoke and not args.write_reference:
        command += ["--reference", reference]
    if args.workload == "serve-open":
        command += ["--lo-rps", repr(config["serve_lo_rps"]),
                    "--hi-rps", repr(config["serve_hi_rps"])]

    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=out_dir)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (tag, RUN_TIMEOUT_S), 1)
    record = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            record = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if record is None:
        fail("%s printed no result (exit %d)" % (tag, proc.returncode), 1)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in record["metrics"]:
            fail("%s did not report metric %s" % (tag, name), 1)
        metric = record["metrics"][name]
        if metric["unit"] != entry["unit"]:
            fail("%s reported %s in %s, expected %s" %
                 (tag, name, metric["unit"], entry["unit"]), 1)
        metrics[name] = metric

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": config["held_out_seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "build_type": record["build_type"],
        "compiler": record["compiler"],
        "commit": commit(),
        "source_digest": source_digest(),
        "digest": record["digest"],
        "reference_digest": reference or None,
        "notes": record["notes"],
        "errors": record["errors"],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if record["detail"]:
        print("detail " + json.dumps(record["detail"], sort_keys=True))
    with open(os.path.join(out_dir, "runs", tag + ".json"), "w") as f:
        json.dump({"provenance": provenance, "record": record}, f, indent=1)

    if args.write_reference:
        if not record["correct"] or not record["digest"]:
            fail("not writing a reference from a failed or digest-less run", 1)
        references.setdefault(args.workload, {})[str(args.seed)] = record["digest"]
        with open(references_path, "w") as f:
            json.dump(references, f, indent=1, sort_keys=True)
            f.write("\n")

    result = {
        "correct": bool(record["correct"]) and proc.returncode == 0,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
