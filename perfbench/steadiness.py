#!/usr/bin/env python3
"""Steadiness check: runs the benchmark once per seed and reports, for every
end-to-end metric, the median, the quartiles and the spread (interquartile
range over median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                    [--seconds S] [--write DIR]

Each run is exactly the benchmark command (run.py --trace 0) from the
repository root. --write stores the raw runs (JSON) and the summary table
(Markdown) in DIR, named after the first stamp's date and workloads.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # Write nothing beside the sources.
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    out = {"seed": seed, "exit": done.returncode, "elapsed_s": time.monotonic() - started,
           "result": json.loads(lines[-1]) if lines else None}
    for line in lines:
        if line.startswith("stamp "):
            out["stamp"] = json.loads(line[len("stamp "):])
        elif line.startswith("cpu_per_wall "):
            out["cpu_per_wall"] = float(line.split()[1])
        elif line.startswith("workload "):
            out["repetitions"] = int(line.split()[-1])
    return out


def summarize(workload, runs, bounds):
    rows = []
    for name, unit in benchlib.END_TO_END:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = benchlib.quartiles(values)
        spread = benchlib.spread(values)
        rows.append({"workload": workload, "metric": name, "unit": unit, "median": q2,
                     "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name],
                     "spread_over_bound": benchlib.ratio(spread, bounds[name])})
    return rows


def markdown(rows, runs_by_workload):
    out = ["| workload | metric | unit | median | Q1 | Q3 | spread | bound | spread/bound |",
           "|---|---|---|---|---|---|---|---|---|"]
    for r in rows:
        out.append(f"| {r['workload']} | {r['metric']} | {r['unit']} | {r['median']:.6g} | "
                   f"{r['q1']:.6g} | {r['q3']:.6g} | {r['spread']:.4f} | {r['bound']} | "
                   f"{r['spread_over_bound']:.2f} |")
    out += ["",
            "| workload | runs | repetitions per run | CPU / wall in the main loop (min..max) |",
            "|---|---|---|---|"]
    for workload, runs in runs_by_workload.items():
        cpu = [r["cpu_per_wall"] for r in runs]
        reps = [r["repetitions"] for r in runs]
        out.append(f"| {workload} | {len(runs)} | {min(reps)}..{max(reps)} | "
                   f"{min(cpu):.4f}..{max(cpu):.4f} |")
    return "\n".join(out) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(benchlib.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    rows, runs_by_workload = [], {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, seconds)
            ok = run["exit"] == 0 and run["result"] and run["result"]["correct"]
            print(f"{workload} seed {seed}: {'ok' if ok else 'FAILED'} in {run['elapsed_s']:.1f} s",
                  file=sys.stderr, flush=True)
            if not ok:
                raise SystemExit(f"{workload} seed {seed} failed: {run}")
            runs.append(run)
        runs_by_workload[workload] = runs
        rows += summarize(workload, runs, bounds)

    table = markdown(rows, runs_by_workload)
    print(table)
    if args.write:
        args.write.mkdir(parents=True, exist_ok=True)
        stamp = next(iter(runs_by_workload.values()))[0]["stamp"]
        tag = time.strftime("%Y%m%d") + "-" + "-".join(runs_by_workload)
        header = (f"Steadiness runs {time.strftime('%Y-%m-%d')}: seeds {args.seeds}, "
                  f"{seconds:g} s per run, stamp {json.dumps(stamp, sort_keys=True)}\n\n")
        (args.write / f"steadiness-{tag}.md").write_text(header + table)
        (args.write / f"steadiness-{tag}.json").write_text(
            json.dumps({"seconds": seconds, "runs": runs_by_workload, "summary": rows},
                       indent=1) + "\n")


if __name__ == "__main__":
    main()
