#!/usr/bin/env python3
"""The simulator benchmark: host time per simulated access, set-up and memory.

    python3 perfbench/run.py --workload kv-zipf|dense-scan|fleet-ha
                             [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench_sim from the sources beside this directory (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build), then runs the workload in fresh
single-threaded processes, one repetition each, until --seconds have passed.
Host-time metrics are medians over the repetitions; simulated metrics must
repeat exactly. Prints every metric with its unit, checks the outputs, and
ends with one JSON line {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 also runs one traced
repetition of the same seed, writes its spans as Chrome trace_event JSON
next to the build, prints the per-layer table and reports the per-layer
metrics. Exits non-zero when a check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # Write nothing beside the sources.
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
REP_TIMEOUT_S = 150
# Every run must end within three minutes: stop starting repetitions well
# before that even if --seconds asks for more.
BUDGET_S = 150


def build():
    """Configures (once) and builds perfbench_sim; returns its path."""
    if not (ROOT / "src" / "harness" / "machine.h").is_file():
        raise SystemExit(f"perfbench: simulator sources not found under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench_sim", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir


def rep(binary, workload, seed, spans=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def reps_for(binary, workload, seed, seconds, started):
    records = []
    while len(records) < MIN_REPS or (time.monotonic() - started < seconds and
                                      time.monotonic() - started < BUDGET_S):
        records.append(rep(binary, workload, seed))
    return records


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_metrics(title, metrics, units, bases=None):
    print(title)
    for name, unit in units:
        base = ""
        if bases and name in bases:
            base = f"  (base: {bases[name][0]} = {bases[name][1]})"
        print(f"  {name:<36} {fmt(metrics[name]):>14} {unit}{base}")


def print_layer_table(spans):
    print("per-layer host time (self = duration minus children):")
    print(f"  {'root':<5} {'span':<24} {'calls':>7} {'total_ms':>11} {'self_ms':>11} "
          f"{'of_root':>9}")
    for root, name, calls, total, own, share in benchlib.layer_table(spans):
        print(f"  {root:<5} {name:<24} {calls:>7} {total / 1e3:>11.3f} {own / 1e3:>11.3f} "
              f"{100 * share:>8.2f}%")
    r = benchlib.roots(spans)
    for name, idx in r.items():
        coverage = benchlib.children_coverage(spans, idx)
        print(f"  children of '{name}' cover {100 * coverage:.2f}% of it")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, default=benchlib.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    build_dir = build()
    binary = build_dir / "perfbench_sim"
    started = time.monotonic()
    # Traced runs spend about half their time on untraced repetitions (the
    # overhead baseline and the equality check) and the rest on the trace.
    budget = args.seconds / 2 if args.trace else args.seconds
    records = reps_for(binary, args.workload, args.seed, budget, started)

    traced = spans = None
    if args.trace:
        spans_path = build_dir / f"spans-{args.workload}-{args.seed}.json"
        traced = rep(binary, args.workload, args.seed, spans=spans_path)
        spans = json.loads(spans_path.read_text())

    failures = benchlib.check_run(records, traced)
    attempted, failed = benchlib.vm_counts(records, failures)
    stamp = records[0]["stamp"]
    stamp["nproc"] = os.cpu_count()
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(records)}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"cpu_per_wall {benchlib.cpu_per_wall(records):.4f}")
    print(f"sim_txn_samples {records[0]['sim']['txn_samples']}")
    e2e = benchlib.end_to_end(records, attempted, failed)
    print_metrics("end-to-end (host times: median over repetitions):", e2e, benchlib.END_TO_END)

    if args.trace:
        layers = benchlib.per_layer(traced, spans, records)
        print_metrics("per-layer:", layers, benchlib.PER_LAYER, benchlib.ratio_bases(traced))
        print_layer_table(spans)
        run_id = f"{args.workload}-seed{args.seed}"
        trace_path = build_dir / f"trace-{run_id}.json"
        trace_path.write_text(json.dumps(benchlib.chrome_trace(spans, run_id)))
        print(f"chrome trace: {trace_path}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in benchlib.PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in benchlib.END_TO_END}

    for failure in failures:
        print("CHECK FAILED: " + failure)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
