#!/usr/bin/env python3
"""Reads benchmark results against the bounds in BENCHMARK.json.

    compare.py compare BENCHMARK.json A.json B.json
        A and B are results files written by `run.sh` (benchmark/out/results.json).
        For every workload x end-to-end metric: both values, how much worse B
        is than A, and the bound. Exits 1 on a breach, on a non-zero
        `failed`, or when a count-type per-layer metric differs on a
        single-client workload (those must repeat exactly).

    compare.py spread BENCHMARK.json BINARY OUT_DIR RUNS [WORKLOAD...]
        Runs every workload (or the named ones) RUNS times, each with another seed, untraced,
        and prints for every end-to-end metric the distance between the first
        and third quartile as a share of the median, next to its bound. This
        is the check the driver makes; the aim is a spread below a third of
        the bound.
"""

import json
import statistics
import subprocess
import sys
import time

MULTI_CLIENT = {"durable_multi_session"}


def worse_by(better, a, b):
    """How much worse `b` is than `a`, as a share of `a` (negative: better)."""
    if a == 0:
        return 0.0
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def compare(manifest, path_a, path_b):
    a, b = (json.load(open(p)) for p in (path_a, path_b))
    bad = 0
    for workload in (w["name"] for w in manifest["workloads"]):
        ra, rb = a[workload], b[workload]
        print(f"== {workload}")
        for side, result in (("A", ra), ("B", rb)):
            for run in ("end_to_end", "per_layer"):
                r = result[run]
                if r is None or r["failed"] != 0 or not r["correct"]:
                    print(f"   {side} {run}: FAILED ({r and r['failed']} of {r and r['attempted']})")
                    bad += 1
        if ra["end_to_end"] is None or rb["end_to_end"] is None:
            continue
        for m in manifest["end_to_end"]:
            va = ra["end_to_end"]["metrics"][m["name"]]["value"]
            vb = rb["end_to_end"]["metrics"][m["name"]]["value"]
            worse = worse_by(m["better"], va, vb)
            breach = worse > m["bound"]
            bad += breach
            print(
                f"   {m['name']:<16} {va:>14.4f} {vb:>14.4f} {m['unit']:<4}"
                f" worse by {worse:+7.1%} (bound {m['bound']:.0%}){'  BREACH' if breach else ''}"
            )
        if workload in MULTI_CLIENT or ra["per_layer"] is None or rb["per_layer"] is None:
            continue
        for m in manifest["per_layer"]:
            if m["unit"] != "count":
                continue
            va = ra["per_layer"]["metrics"][m["name"]]["value"]
            vb = rb["per_layer"]["metrics"][m["name"]]["value"]
            if va != vb:
                print(f"   COUNT DRIFT {m['name']}: {va} != {vb}")
                bad += 1
    print("compare:", "ok" if bad == 0 else f"{bad} problem(s)")
    return 1 if bad else 0


def spread(manifest, binary, out_dir, runs, only):
    worst = 0.0
    for workload in (w["name"] for w in manifest["workloads"]):
        if only and workload not in only:
            continue
        values = {m["name"]: [] for m in manifest["end_to_end"]}
        walls = []
        for i in range(runs):
            start = time.time()
            done = subprocess.run(
                [binary, "--out", out_dir, "--workload", workload, "--seed", str(1000 + i),
                 "--seconds", str(manifest["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            walls.append(time.time() - start)
            if done.returncode != 0:
                print(done.stdout, done.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {1000 + i}: incorrect\n{done.stdout}")
                return 1
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
        print(f"== {workload}: {runs} runs, {statistics.median(walls):.1f} s each (max {max(walls):.1f})")
        for m in manifest["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / statistics.median(v)
            ratio = share / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, ratio)
            flag = "" if ratio < 1 / 3 else ("  over a third" if ratio < 1 else "  OVER BOUND")
            print(
                f"   {m['name']:<16} median {statistics.median(v):>14.4f} {m['unit']:<4}"
                f" spread {share:6.2%} of bound {m['bound']:.0%} = {ratio:4.2f}{flag}"
            )
            if len(only) > 0:
                print("      " + " ".join(f"{x:.4g}" for x in v))
    print(f"spread: worst spread/bound {worst:.2f}")
    return 0 if worst < 1 else 1


def main(argv):
    if len(argv) == 5 and argv[1] == "compare":
        return compare(json.load(open(argv[2])), argv[3], argv[4])
    if len(argv) >= 6 and argv[1] == "spread":
        return spread(json.load(open(argv[2])), argv[3], argv[4], int(argv[5]), argv[6:])
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
