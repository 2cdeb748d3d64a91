#!/usr/bin/env python3
"""Builds mclbench from source and runs one workload for BENCHMARK.json.

Run from the repository root:

    python3 mclbench/run.py --workload serve_open --seed 7 --seconds 36 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build); run documents
land in its runs/ directory. Build and run output goes to stderr. The last
line of stdout is one JSON object with correct, attempted, failed and the
metrics BENCHMARK.json lists: its end_to_end metrics with --trace 0, its
per_layer metrics (from a traced `mclbench --layers` run) with --trace 1.
Exits nonzero when the build or the run fails; a failed output check still
prints the result line, with correct false.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "mclbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("run.py: unknown workload " + args.workload)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(build_dir)

    cmd = [os.path.join(build_dir, "mclbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--duration", str(args.seconds),
           "--out", os.path.join(build_dir, "runs")]
    if args.trace:
        cmd.append("--layers")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: mclbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("run.py: mclbench exited %d without a result" % proc.returncode)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measured = doc["layers" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        sys.exit("run.py: mclbench did not report " + ", ".join(missing))
    result = {
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {m["name"]: {"value": measured[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
