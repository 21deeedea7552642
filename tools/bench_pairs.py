#!/usr/bin/env python3
"""Paired A/B runs of the repo benchmark across two source trees.

Builds each tree's perfbench (perfbench/run.py in that tree, into its own
build directory) and runs N pairs per workload. Within a pair the two
trees run back to back on the same seed; the order alternates from pair to
pair so a drift in machine load does not favour either side. Prints, for
every end-to-end metric of BENCHMARK.json, each side's median and
quartiles, the change's median ratio, and in how many pairs the change was
better:

    python3 tools/bench_pairs.py --base ../parent --change . \\
        --pairs 10 --seconds 30 --json pairs.json

Runs are sequential: one benchmark process at a time.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def run_once(tree, build_dir, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "%g" % seconds, "--trace", "0"]
    r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=seconds + 1800)
    if r.returncode != 0:
        sys.exit("run failed in %s:\n%s" % (tree, r.stderr.decode()[-2000:]))
    result = json.loads(r.stdout.decode().strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def host_fingerprint():
    model = ""
    flags = []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and not model:
                    model = line.split(":", 1)[1].strip()
                elif line.startswith("flags") and not flags:
                    flags = line.split(":", 1)[1].split()
    except OSError:
        pass
    try:
        cxx = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                             text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        cxx = ""
    # SHA-1 and SHA-256 run on SHA-NI only where the CPU has it, so host
    # costs from CPUs with and without it do not compare.
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "sha_ni": "sha_ni" in flags, "compiler": cxx,
            "build_type": "Release", "kernel": platform.release()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="source tree A (before)")
    ap.add_argument("--change", required=True, help="source tree B (after)")
    ap.add_argument("--workloads", default="fleet_read,audit_e4,real_loopback")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--first_seed", type=int, default=1)
    ap.add_argument("--build_root", default=None,
                    help="where the two perfbench builds go "
                         "(default: .bench_build in each tree)")
    ap.add_argument("--json", default=None, help="write every run here")
    args = ap.parse_args()

    trees = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    builds = {}
    for side, tree in trees.items():
        builds[side] = (os.path.join(os.path.abspath(args.build_root),
                                     side + "_perfbench")
                        if args.build_root else
                        os.path.join(tree, ".bench_build"))
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]

    report = {"host": host_fingerprint(), "seconds": args.seconds,
              "workloads": {}}
    for workload in args.workloads.split(","):
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            pair = {"seed": seed}
            for side in order:
                pair[side] = run_once(trees[side], builds[side], workload,
                                      seed, args.seconds)
            pairs.append(pair)
            print("%s seed %d done" % (workload, seed), file=sys.stderr)
        summary = {}
        print("\n%s: %d pairs of %g s" % (workload, len(pairs), args.seconds))
        print("  %-16s %28s %28s %7s %5s" % ("metric", "base q1/med/q3",
                                             "change q1/med/q3", "ratio",
                                             "wins"))
        for m in end_to_end:
            name, lower = m["name"], m["better"] == "lower"
            a = [p["base"]["metrics"].get(name) for p in pairs]
            b = [p["change"]["metrics"].get(name) for p in pairs]
            if any(x is None for x in a + b):
                continue
            qa, qb = quartiles(a), quartiles(b)
            wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            summary[name] = {"base": qa, "change": qb, "ratio": ratio,
                             "change_wins": wins, "pairs": len(pairs)}
            print("  %-16s %28s %28s %7.3f %2d/%d" % (
                name, "%.4g/%.4g/%.4g" % qa, "%.4g/%.4g/%.4g" % qb, ratio,
                wins, len(pairs)))
        bad = [p[s] for p in pairs for s in ("base", "change")
               if not p[s]["correct"] or p[s]["failed"]]
        print("  runs not correct or with failures: %d" % len(bad))
        report["workloads"][workload] = {"summary": summary, "pairs": pairs}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
