#!/usr/bin/env python3
"""The repo benchmark: builds the perf/ driver and runs the load-engine workloads.

Run from the repo root:

  python3 perf/run.py                  every workload, REPS processes each run
                                       round-robin, then one traced process each;
                                       prints every metric, with medians and
                                       quartiles beside the timings
  python3 perf/run.py --smoke          every workload once at 1/20 size
  python3 perf/run.py --self-test      checks the statistics helpers
  python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
                                       one workload for about S seconds; the
                                       last stdout line is the JSON result

Every mode first builds build-perf/ (Release) from perf/CMakeLists.txt.  A
process is one operation; it fails when it exits non-zero, runs past
RUN_TIMEOUT_S, breaks the request ledger, or prints a latency checksum that
differs from the other processes of its seed or from perf/pins.json.  Any
failure makes the exit status non-zero.

The driver reports its times corrected for the host's speed while it ran
(perf/README.md, "Host-speed correction"); each end-to-end metric is the
median of those over the processes of a run.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERF = ROOT / "perf"
BUILD = ROOT / "build-perf"
BINARY = BUILD / "spacecdn_perf"

RUN_TIMEOUT_S = 60
# Processes per workload in the full run (round-robin across workloads).
REPS = 10
# Fewest processes one --workload run measures, whatever --seconds says.
MIN_REPS = 3
# Nearest-rank percentiles a timing may be reported at, as fractions.
PERCENTILES = ((50, 100), (90, 100), (99, 100), (999, 1000))


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def highest_percentile(n):
    """The highest of p50/p90/p99/p99.9 that has at least ten of n samples
    beyond its nearest rank, or None when even the median has fewer."""
    best = None
    for num, den in PERCENTILES:
        rank = -(-n * num // den)
        if n - rank >= 10:
            best = 100 * num / den
    return best


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; exits on any failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perf/run.py: no src/ beside perf/; run it from a full checkout")
    steps = []
    if not (BUILD / "Makefile").is_file():
        steps.append(["cmake", "-S", str(PERF), "-B", str(BUILD), "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "spacecdn_perf",
                  "-j", str(os.cpu_count() or 1)])
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        try:
            status = subprocess.run(step, stdout=sys.stderr.fileno(),
                                    stderr=sys.stderr.fileno(), env=env).returncode
        except OSError as e:
            sys.exit(f"perf/run.py: cannot run {step[0]}: {e}")
        if status != 0:
            sys.exit(f"perf/run.py: build step failed: {' '.join(step)}")


def run_driver(workload, seed, scale, trace):
    """One driver process: (record or None, error or None, peak RSS in MB)."""
    args = [str(BINARY), f"--workload={workload}", f"--seed={seed}", f"--scale={scale}"]
    if trace:
        args.append("--trace")
    proc = subprocess.Popen(args, stdout=subprocess.PIPE)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
    reader.start()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            timed_out = True
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    # wait4 reaped the child; tell Popen so it never waits on the pid again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    proc.stdout.close()
    rss_mb = usage.ru_maxrss / 1024.0
    if timed_out:
        return None, f"killed after {RUN_TIMEOUT_S} s", rss_mb
    if proc.returncode != 0:
        return None, f"exit status {proc.returncode}", rss_mb
    try:
        record = json.loads(chunks[0].decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "no JSON result line", rss_mb
    return record, None, rss_mb


class Session:
    """Runs and checks driver processes; counts operations and failures."""

    def __init__(self, bench, pins, scale=1.0):
        self.bench = bench
        self.pins = pins
        self.scale = scale
        self.attempted = 0
        self.failed = 0
        self.checksums = {}  # (workload, seed) -> checksum of its first process

    def pinned(self, workload, seed):
        if self.scale == 1.0:
            return self.pins["checksums"][workload].get(str(seed))
        if self.scale == self.pins["smoke_scale"] and seed == self.pins["seed_a"]:
            return self.pins["smoke_checksums"][workload]
        return None

    def check(self, record, workload, seed, trace):
        ledger = (record["completed"] + record["rejected"] + record["no_coverage"]
                  + record["failed"])
        if not record["ledger_ok"] or ledger != record["offered"]:
            return f"ledger broken: {ledger} outcomes for {record['offered']} offered"
        if record["completed"] == 0:
            return "no request completed"
        pinned = self.pinned(workload, seed)
        if pinned is not None and record["checksum"] != pinned:
            return f"checksum {record['checksum']} differs from the pinned {pinned}"
        first = self.checksums.setdefault((workload, seed), record["checksum"])
        if record["checksum"] != first:
            return f"checksum {record['checksum']} differs from this seed's first run {first}"
        if trace:
            layers = record.get("layers", {})
            for metric in self.bench["per_layer"]:
                name = metric["name"]
                if name != "obs.trace_overhead" and not isinstance(layers.get(name), (int, float)):
                    return f"traced run lacks per-layer metric {name}"
            if (highest_percentile(layers["replay.requests"]) or 0) < 99:
                return f"{layers['replay.requests']} replayed requests cannot back a p99"
        return None

    def run(self, workload, seed, trace=False):
        """One operation; its record with peak_rss_mb added, or None on failure."""
        self.attempted += 1
        record, error, rss_mb = run_driver(workload, seed, self.scale, trace)
        if record is not None:
            error = self.check(record, workload, seed, trace)
        if error is not None:
            self.failed += 1
            print(f"FAIL {workload} seed {seed}{' traced' if trace else ''}: {error}",
                  file=sys.stderr)
            return None
        record["peak_rss_mb"] = rss_mb
        return record


def e2e_metrics(bench, records):
    """Each end-to-end metric as (name, median, q1, q3, unit) over the
    records."""
    rows = []
    for metric in bench["end_to_end"]:
        values = [r[metric["name"]] for r in records]
        q1, q3 = quartiles(values)
        rows.append((metric["name"], median(values), q1, q3, metric["unit"]))
    return rows


def host_line(records):
    """The clock's own reading beside the corrected one, for the log."""
    raw = [r["raw_wall_s"] for r in records]
    q1, q3 = quartiles(raw)
    return (f"  host: slowdown median {median([r['slowdown'] for r in records]):.3f}; "
            f"raw wall_s median {median(raw):.6g}, quartiles {q1:.6g}..{q3:.6g}")


def layer_metrics(bench, traced, records):
    """Each per-layer metric as (name, value, unit) from the traced record.
    The trace overhead compares host-speed-corrected event loops: the same
    seed offers the same requests, so the throughput ratio is the inverse
    ratio of the loop times."""
    layers = dict(traced["layers"])
    layers["obs.trace_overhead"] = (
        median([r["requests_per_s"] for r in records]) / traced["requests_per_s"] - 1.0)
    return [(m["name"], layers[m["name"]], m["unit"]) for m in bench["per_layer"]]


def result_line(session, metrics):
    return json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in metrics},
    })


def bench_one(bench, pins, workload, seed, seconds, trace):
    """One workload for about `seconds`, each end-to-end metric as the median
    over every process of the run; traced runs report the per-layer metrics
    instead."""
    session = Session(bench, pins)
    start = time.monotonic()
    records = []
    while True:
        record = session.run(workload, seed)
        if record is not None:
            records.append(record)
        elapsed = time.monotonic() - start
        per_process = elapsed / session.attempted
        if session.failed or (session.attempted >= MIN_REPS
                              and elapsed + per_process > seconds):
            break
    traced = session.run(workload, seed, trace=True) if trace and not session.failed else None

    metrics = []
    if not session.failed:
        if trace:
            metrics = layer_metrics(bench, traced, records)
        else:
            rows = e2e_metrics(bench, records)
            for name, mid, q1, q3, unit in rows:
                print(f"  {name}: median {mid:.6g} {unit}, quartiles {q1:.6g}..{q3:.6g}, "
                      f"n={len(records)}", file=sys.stderr)
            print(host_line(records), file=sys.stderr)
            metrics = [(name, mid, unit) for name, mid, _, _, unit in rows]
    print(f"run wall time {time.monotonic() - start:.1f} s ({session.attempted} processes, "
          f"{session.failed} failed)", file=sys.stderr)
    for name, value, unit in metrics:
        print(f"{workload} {name} {value!r} {unit}")
    print(result_line(session, metrics))
    return 0 if session.failed == 0 else 1


def bench_all(bench, pins, seed):
    """Every workload: REPS processes each, round-robin so host drift hits
    every workload alike, then one traced process each."""
    session = Session(bench, pins)
    start = time.monotonic()
    names = [w["name"] for w in bench["workloads"]]
    records = {name: [] for name in names}
    for rep in range(REPS):
        for name in names:
            record = session.run(name, seed)
            if record is not None:
                records[name].append(record)
        print(f"rep {rep + 1}/{REPS} done at {time.monotonic() - start:.1f} s", file=sys.stderr)
    traced = {name: session.run(name, seed, trace=True) for name in names}

    summary = {}
    for name in names:
        if not records[name]:
            continue
        print(f"\n{name}: {len(records[name])} processes, seed {seed}")
        summary[name] = {}
        for metric, mid, q1, q3, unit in e2e_metrics(bench, records[name]):
            print(f"{name} {metric} {mid:.6g} {unit}  (median; quartiles "
                  f"{q1:.6g}..{q3:.6g}, n={len(records[name])})")
            summary[name][metric] = {"value": mid, "q1": q1, "q3": q3,
                                     "unit": unit, "n": len(records[name])}
        print(host_line(records[name]))
        if traced[name] is not None:
            for metric, value, unit in layer_metrics(bench, traced[name], records[name]):
                print(f"{name} {metric} {value:.6g} {unit}")
                summary[name][metric] = {"value": value, "unit": unit}
    print(f"\nbenchmark wall time {time.monotonic() - start:.1f} s "
          f"({session.attempted} processes, {session.failed} failed)")
    print(json.dumps({"correct": session.failed == 0, "attempted": session.attempted,
                      "failed": session.failed, "metrics": summary}))
    return 0 if session.failed == 0 else 1


def smoke(bench, pins):
    """Every workload once at smoke size against the pinned smoke checksums."""
    session = Session(bench, pins, scale=pins["smoke_scale"])
    start = time.monotonic()
    for workload in bench["workloads"]:
        record = session.run(workload["name"], pins["seed_a"])
        if record is not None:
            print(f"{workload['name']} ok: checksum {record['checksum']}, "
                  f"wall {record['wall_s']:.3f} s")
    print(f"smoke wall time {time.monotonic() - start:.1f} s "
          f"({session.attempted} processes, {session.failed} failed)")
    return 0 if session.failed == 0 else 1


def self_test():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    assert quartiles([7.0]) == (7.0, 7.0)
    assert quartiles(list(range(1, 11))) == (2.75, 8.25)
    assert highest_percentile(19) is None
    assert highest_percentile(20) == 50
    assert highest_percentile(100) == 90
    assert highest_percentile(999) == 90
    assert highest_percentile(1000) == 99
    assert highest_percentile(200_000) == 99.9
    assert math.isclose(layer_metrics(
        {"per_layer": [{"name": "obs.trace_overhead", "unit": "ratio"}]},
        {"layers": {}, "requests_per_s": 100.0},
        [{"requests_per_s": 110.0}, {"requests_per_s": 90.0}, {"requests_per_s": 120.0}])[0][1],
        0.1)
    print("self-test ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload for --seconds")
    parser.add_argument("--seed", type=int, help="input seed (default: seed A)")
    parser.add_argument("--seconds", type=float, help="measuring time of one --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced process")
    parser.add_argument("--smoke", action="store_true", help="every workload at 1/20 size")
    parser.add_argument("--self-test", action="store_true", help="check the statistics helpers")
    args = parser.parse_args()
    if args.self_test:
        return self_test()

    bench = load_json(ROOT / "BENCHMARK.json")
    pins = load_json(PERF / "pins.json")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(names)}")
    build()
    seed = pins["seed_a"] if args.seed is None else args.seed
    if args.smoke:
        return smoke(bench, pins)
    if args.workload is None:
        return bench_all(bench, pins, seed)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    return bench_one(bench, pins, args.workload, seed, seconds, args.trace == 1)


if __name__ == "__main__":
    sys.exit(main())
