#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the harness (perfbench/harness.cc plus the sdr library from src/)
with CMake, runs one workload, and prints one JSON result object as the
last line of standard output:

    python3 perfbench/run.py --workload fleet_read --seed 1 --seconds 20 --trace 0

With --trace 0 the metrics are the end-to-end ones (host cost per read,
read latency, detection latency, set-up time); with --trace 1 they are the
per-layer ledger. The build goes to $CARGO_TARGET_DIR (default
.bench_build), relative to the repository root; build logs go to stderr.
Exits non-zero, printing no result, if the build or the harness fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_read", "audit_e4", "real_loopback")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=1500)
        if r.returncode != 0:
            sys.exit("build failed: " + " ".join(cmd))
    return os.path.join(out, "sdr_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    harness = build(build_dir())
    cmd = [harness, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=args.seconds + 120)
    if r.returncode != 0:
        sys.exit("harness exited with %d" % r.returncode)
    raw = json.loads(r.stdout.decode().strip().splitlines()[-1])
    print("instances=%d lies=%d detections=%d%s" % (
        raw["instances"], raw["lies"], raw["detections"],
        "" if raw["correct"] else "  INCORRECT: " + raw["why"]),
          file=sys.stderr)
    result = {k: raw[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
