#!/usr/bin/env python3
"""Paired parent-vs-change comparison of the repo benchmark.

  python3 perf/compare.py PARENT_DIR CHANGE_DIR [--seed N]
  python3 perf/compare.py --self-test

PARENT_DIR and CHANGE_DIR are two checkouts, each with its own perf/.  Each
of the 10 pairs runs
`python3 perf/run.py --workload W --seed N --seconds S --trace 0` once in
each checkout, with the same seed and the parent's run_seconds, alternating
which side goes first.  Every workload runs in every pair, so
drift on the host hits both sides and all workloads alike.

One row per workload and end-to-end metric: each side's median and
quartiles, the change's pair wins, and a verdict against the metric's bound
in the parent's BENCHMARK.json:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and its median beats the parent's by more than the
              parent's IQR
  unresolved  the parent's IQR exceeds the bound (as a share of its median)
              and not every change run beats every parent run
  worse       the change's median is worse than the parent's by more than
              the bound
  no-worse    otherwise

A gain does not count when the change fails more operations than the
parent.  The exit status is non-zero on any `worse` row or failed operation.
"""

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import median, quartiles  # noqa: E402

PAIRS = 10
SIDE_TIMEOUT_S = 900  # the first run in a checkout builds it


def verdict(parent, change, better, bound):
    """(verdict, wins) for per-pair values of one metric on both sides."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    med_p = median(parent)
    q1, q3 = quartiles(parent)
    gain = sign * (median(change) - med_p)
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return "improved", wins
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (q3 - q1) / med_p > bound and not every_run_better:
        return "unresolved", wins
    if -gain / med_p > bound:
        return "worse", wins
    return "no-worse", wins


def run_side(checkout, workload, seed, seconds):
    """One benchmark run in `checkout`: its result object, or None on failure.
    The run's stderr (build output, per-metric summaries) is shown only when
    it fails."""
    try:
        proc = subprocess.run(
            [sys.executable, "perf/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, capture_output=True, timeout=SIDE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{checkout}: {workload} ran past {SIDE_TIMEOUT_S} s", file=sys.stderr)
        return None
    try:
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        result = None
    if result is None or proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode())
    return result


def compare(parent_dir, change_dir, seed):
    with open(Path(parent_dir) / "BENCHMARK.json") as f:
        bench = json.load(f)
    if seed is None:
        with open(Path(parent_dir) / "perf" / "pins.json") as f:
            seed = json.load(f)["seed_a"]
    names = [w["name"] for w in bench["workloads"]]
    sides = {"parent": parent_dir, "change": change_dir}
    values = {(side, w): [] for side in sides for w in names}
    failed = {side: 0 for side in sides}
    for i in range(PAIRS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in names:
            results = {side: run_side(sides[side], w, seed, bench["run_seconds"])
                       for side in order}
            bad = {side for side, r in results.items() if r is None or not r["correct"]}
            if bad:
                for side in bad:
                    failed[side] += max(1, results[side]["failed"]) if results[side] else 1
                print(f"pair {i + 1} {w}: failed operations, pair dropped", file=sys.stderr)
                continue
            for side, r in results.items():
                values[(side, w)].append(r["metrics"])
        print(f"pair {i + 1}/{PAIRS} done", file=sys.stderr)

    print(f"{'workload':<16} {'metric':<16} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'delta':>8} {'wins':>6}  verdict")
    worse = False
    for w in names:
        n = len(values[("parent", w)])
        if n == 0:
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [m[name]["value"] for m in values[("parent", w)]]
            c = [m[name]["value"] for m in values[("change", w)]]
            result, wins = verdict(p, c, metric["better"], metric["bound"])
            if result == "improved" and failed["change"] > failed["parent"]:
                result = "unresolved"
            worse = worse or result == "worse"
            cols = []
            for side_values in (p, c):
                q1, q3 = quartiles(side_values)
                cols.append(f"{median(side_values):.6g} [{q1:.6g}, {q3:.6g}]")
            delta = median(c) / median(p) - 1.0
            print(f"{w:<16} {name:<16} {cols[0]:<34} {cols[1]:<34} {delta:>+8.2%} "
                  f"{wins:>3}/{n:<2}  {result}")
    print(f"failed operations: parent {failed['parent']}, change {failed['change']}")
    return 1 if worse or failed["change"] or failed["parent"] else 0


def self_test():
    rng = random.Random(7)
    parent = [10.0 + rng.gauss(0.0, 0.1) for _ in range(10)]
    # A +15% wall_s regression against a 10% bound.
    assert verdict(parent, [v * 1.15 for v in parent], "lower", 0.10)[0] == "worse"
    # A 20% gain in every pair.
    assert verdict(parent, [v * 0.80 for v in parent], "lower", 0.10) == ("improved", 10)
    # A "gain" that wins only 5 of 10 pairs is refused, however large.
    half = [v * (0.70 if i % 2 else 1.01) for i, v in enumerate(parent)]
    result, wins = verdict(parent, half, "lower", 0.10)
    assert wins == 5 and result != "improved", (result, wins)
    # Same code on both sides.
    assert verdict(parent, list(parent), "lower", 0.10)[0] == "no-worse"
    # A parent spread wider than the bound leaves a small change unresolved.
    noisy = [10.0 * (1.0 + 0.3 * (i % 3 - 1)) for i in range(10)]
    assert verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.10)[0] == "unresolved"
    # Throughput: higher is better.
    rate = [1000.0 + rng.gauss(0.0, 5.0) for _ in range(10)]
    assert verdict(rate, [v * 0.85 for v in rate], "higher", 0.10)[0] == "worse"
    print("self-test ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", nargs="?")
    parser.add_argument("change_dir", nargs="?")
    parser.add_argument("--seed", type=int, help="input seed of every pair (default: seed A)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.parent_dir is None or args.change_dir is None:
        parser.error("PARENT_DIR and CHANGE_DIR are required")
    return compare(args.parent_dir, args.change_dir, args.seed)


if __name__ == "__main__":
    sys.exit(main())
