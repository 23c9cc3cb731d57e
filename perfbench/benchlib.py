"""Metric arithmetic, output checks and span handling for the simulator benchmark.

Pure functions over the JSON records `perfbench_sim` prints (one per run of
one workload) and the spans it writes in traced runs; run.py does the I/O.
"""

import re
import statistics

WORKLOADS = ("kv-zipf", "dense-scan", "fleet-ha")
DEFAULT_SEED = 1

# (name, unit). Host-time metrics are medians over a run's repetitions;
# sim_* metrics are simulated and repeat exactly for a seed.
END_TO_END = (
    ("ns_per_access", "ns"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_txn_per_s", "1/s"),
    ("sim_p50_txn_us", "us"),
    ("sim_p99_txn_us", "us"),
    ("sim_mgmt_cores", "cores"),
    ("vm_ok_share", "share"),
)

TMM_STAGES = ("tracking", "classification", "migration", "pmi", "other")

# Per-layer metrics of the traced run. Times are host time; "sim_ms" is
# simulated CPU time; counts and shares come from the run's metric snapshot.
PER_LAYER = (
    ("harness.build_ms", "ms"),
    ("harness.start_run_ms", "ms"),
    ("harness.boot_ms", "ms"),
    ("harness.step_ns", "ns"),
    ("harness.loop_ns", "ns"),
    ("workloads.next_batch_ns", "ns"),
    ("base.rng_zipf_ns", "ns"),
    ("hyper.execute_batch_ns", "ns"),
    ("telemetry.snapshot_ms", "ms"),
    ("telemetry.json_ms", "ms"),
    ("cluster.run_ns", "ns"),
    ("harness.migrate_ms", "ms"),
    ("harness.kill_ms", "ms"),
    ("bench.cpu_per_wall", "share"),
    ("bench.trace_overhead_share", "share"),
    ("hyper.accesses", "count"),
    ("mmu.tlb_hit_ratio", "share"),
    ("mmu.misses_per_kaccess", "count"),
    ("mmu.full_flushes", "count"),
    ("mmu.single_flushes", "count"),
    ("guest.faults", "count"),
    ("hyper.ept_faults", "count"),
    ("mem.fmem_share", "share"),
    ("pebs.records_per_kaccess", "count"),
    ("pebs.dropped_share", "share"),
    ("tmm.pages_promoted", "count"),
    ("tmm.pages_demoted", "count"),
) + tuple(("tmm.mgmt_ms." + stage, "sim_ms") for stage in TMM_STAGES) + (
    ("balloon.completion_share", "share"),
    ("balloon.retries", "count"),
    ("harness.context_switches", "count"),
    ("cluster.migrations_started", "count"),
    ("cluster.migration_completion_share", "share"),
    ("cluster.pages_copied", "count"),
    ("cluster.vms_killed", "count"),
    ("cluster.vms_restarted", "count"),
    ("cluster.vms_lost", "count"),
    ("cluster.transactions_lost", "count"),
    ("cluster.placements", "count"),
    ("cluster.retries", "count"),
)

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_name(name):
    """Metric and workload names: letters, digits, '_', '.', '-'; at most 64."""
    return bool(_NAME.fullmatch(name))


def ratio(numerator, base):
    """numerator / base, and 0.0 for an empty base (nothing to divide)."""
    return numerator / base if base else 0.0


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return ratio(q3 - q1, q2)


# ---- output checks -----------------------------------------------------------


def sim_fingerprint(record):
    """Everything simulated a record reports; equal for equal seeds."""
    return (record["sim"], record["vms"], record["counters"], record["loop_accesses"])


def check_record(record):
    """Failures of one run's outputs, as readable strings (empty when sound).

    The cluster ledgers hold trivially (0 == 0) on single-host runs."""
    failures = []
    for i, (done, target) in enumerate(record["vms"]):
        if done < target:
            failures.append(f"vm{i} committed {done} of {target} transactions")
    if record["loop_accesses"] <= 0:
        failures.append("main loop executed no accesses")
    c = record["counters"]
    started = c.get("cluster/migration/started", 0)
    resolved = sum(c.get("cluster/migration/" + k, 0)
                   for k in ("completed", "aborted", "cancelled", "fenced"))
    if started != resolved:
        failures.append(f"migration ledger: started {started} != resolved {resolved}")
    killed = c.get("cluster/ha/vms_killed", 0)
    queued = c.get("cluster/ha/restart_queue_depth", 0)
    settled = c.get("cluster/ha/vms_restarted", 0) + queued + c.get("cluster/ha/vms_lost", 0)
    if killed != settled:
        failures.append(f"restart ledger: killed {killed} != restarted+queued+lost {settled}")
    if queued:
        failures.append(f"restart queue holds {queued} VMs at the end")
    return failures


def check_run(records, traced=None):
    """Failures across one run's repetitions (same seed) and its traced rep."""
    failures = []
    for i, record in enumerate(records):
        failures += [f"rep {i}: {f}" for f in check_record(record)]
    first = sim_fingerprint(records[0])
    if any(sim_fingerprint(r) != first for r in records[1:]):
        failures.append("repetitions of one seed disagree on simulated output")
    if traced is not None:
        failures += [f"traced: {f}" for f in check_record(traced)]
        if sim_fingerprint(traced) != first:
            failures.append("traced run's simulated output differs from the untraced run's")
    return failures


def vm_counts(records, failures):
    """(attempted, failed) VM runs; every VM of a run that failed a check fails."""
    attempted = sum(len(r["vms"]) for r in records)
    if failures:
        return attempted, attempted
    failed = sum(1 for r in records for done, target in r["vms"] if done < target)
    return attempted, failed


# ---- end-to-end metrics ------------------------------------------------------


def ns_per_access(record):
    return ratio(record["host"]["loop_s"] * 1e9, record["loop_accesses"])


def end_to_end(records, attempted, failed):
    host = [r["host"] for r in records]
    sim = records[0]["sim"]
    return {
        "ns_per_access": median([ns_per_access(r) for r in records]),
        "wall_s": median([h["wall_s"] for h in host]),
        "setup_s": median([h["setup_s"] for h in host]),
        "peak_rss_mib": median([h["peak_rss_mib"] for h in host]),
        "sim_txn_per_s": sim["txn_per_s"],
        "sim_p50_txn_us": sim["p50_txn_us"],
        "sim_p99_txn_us": sim["p99_txn_us"],
        "sim_mgmt_cores": sim["mgmt_cores"],
        "vm_ok_share": ratio(attempted - failed, attempted),
    }


def cpu_per_wall(records):
    return median([ratio(r["host"]["loop_cpu_s"], r["host"]["loop_s"]) for r in records])


# ---- spans -------------------------------------------------------------------


def durations(spans):
    return [s["end_us"] - s["start_us"] for s in spans]


def self_times(spans):
    """Each span's duration minus the part of it its children cover (µs).

    Children may overlap each other; the covered part is their union,
    clipped to the parent."""
    children = {}
    for i, span in enumerate(spans):
        children.setdefault(span["parent"], []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span["start_us"]
        for c in sorted(children.get(i, []), key=lambda k: spans[k]["start_us"]):
            lo = max(spans[c]["start_us"], cursor)
            hi = min(spans[c]["end_us"], span["end_us"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span["end_us"] - span["start_us"] - covered)
    return out


def roots(spans):
    return {s["name"]: i for i, s in enumerate(spans) if s["parent"] < 0}


def root_of(spans, i):
    """Index of the root above span i (i itself for a root)."""
    while spans[i]["parent"] >= 0:
        i = spans[i]["parent"]
    return i


def layer_table(spans):
    """Rows (root, name, calls, total_us, self_us, share_of_root) per span name."""
    selfs = self_times(spans)
    durs = durations(spans)
    rows = {}
    for i, span in enumerate(spans):
        root = root_of(spans, i)
        row = rows.setdefault((root, span["name"]), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += durs[i]
        row[2] += selfs[i]
    return [(spans[root]["name"], name, calls, total, own, ratio(own, durs[root]))
            for (root, name), (calls, total, own) in rows.items()]


def children_coverage(spans, root):
    """Share of a root span's duration its children cover."""
    dur = spans[root]["end_us"] - spans[root]["start_us"]
    return ratio(dur - self_times(spans)[root], dur)


def _under(spans, root, name):
    """Spans called `name` below `root` (the root itself excluded)."""
    return [s for i, s in enumerate(spans)
            if s["name"] == name and i != root and root_of(spans, i) == root]


def _per_work_ns(spans):
    return ratio(sum(durations(spans)) * 1e3, sum(s["work"] for s in spans))


def _mean_ms(spans):
    return ratio(sum(durations(spans)) / 1e3, len(spans))


def per_layer(record, spans, untraced):
    """Every PER_LAYER metric from the traced record, its spans and the
    untraced records of the same seed."""
    r = roots(spans)
    real, twin = r["run"], r["twin"]

    def real_ms(name):
        return sum(durations(_under(spans, real, name))) / 1e3

    start_runs = _under(spans, real, "harness.start_run")
    if start_runs:
        start_run_ms = real_ms("harness.start_run")
        booted = record["vms_booted_at_start"]
    else:  # Cluster::Run owns host start-up: a twin host's instead.
        twin_starts = _under(spans, twin, "twin.start_run")
        start_run_ms = _mean_ms(twin_starts)
        booted = ratio(sum(s["work"] for s in twin_starts), len(twin_starts))
    steps = _under(spans, real, "harness.step") or _under(spans, twin, "harness.step")
    step_ns = _per_work_ns(steps)
    next_batch_ns = _per_work_ns(_under(spans, twin, "workloads.next_batch"))
    execute_ns = _per_work_ns(_under(spans, twin, "hyper.execute_batch"))
    cluster_runs = _under(spans, real, "cluster.run") or _under(spans, twin, "cluster.run")
    untraced_wall = median([u["host"]["wall_s"] for u in untraced])
    traced_wall = (spans[real]["end_us"] - spans[real]["start_us"]) / 1e6

    c = record["counters"]
    accesses = c.get("stats/accesses", 0)
    tlb_hits, tlb_misses = c.get("tlb/hits", 0), c.get("tlb/misses", 0)
    served = sum(c.get("stats/" + k, 0)
                 for k in ("fmem_accesses", "smem_accesses", "swap_accesses"))
    pebs_written = sum(v for k, v in c.items() if re.fullmatch(r"vcpu\d+/pebs/records_written", k))
    pebs_dropped = sum(v for k, v in c.items() if re.fullmatch(r"vcpu\d+/pebs/records_dropped", k))
    started = c.get("cluster/migration/started", 0)

    out = {
        "harness.build_ms": real_ms("harness.build"),
        "harness.start_run_ms": start_run_ms,
        "harness.boot_ms": ratio(start_run_ms, booted),
        "harness.step_ns": step_ns,
        "harness.loop_ns": step_ns - next_batch_ns - execute_ns,
        "workloads.next_batch_ns": next_batch_ns,
        "base.rng_zipf_ns": _per_work_ns(_under(spans, twin, "base.rng_zipf")),
        "hyper.execute_batch_ns": execute_ns,
        "telemetry.snapshot_ms": real_ms("telemetry.snapshot"),
        "telemetry.json_ms": real_ms("telemetry.json"),
        "cluster.run_ns": _per_work_ns(cluster_runs),
        "harness.migrate_ms": _mean_ms(_under(spans, twin, "harness.migrate")),
        "harness.kill_ms": _mean_ms(_under(spans, twin, "harness.kill")),
        "bench.cpu_per_wall": cpu_per_wall(untraced),
        "bench.trace_overhead_share": ratio(traced_wall - untraced_wall, untraced_wall),
        "hyper.accesses": record["loop_accesses"],
        "mmu.tlb_hit_ratio": ratio(tlb_hits, tlb_hits + tlb_misses),
        "mmu.misses_per_kaccess": ratio(tlb_misses * 1e3, accesses),
        "mmu.full_flushes": c.get("tlb/full_flushes", 0),
        "mmu.single_flushes": c.get("tlb/single_flushes", 0),
        "guest.faults": c.get("kernel/faults", 0),
        "hyper.ept_faults": c.get("stats/ept_faults", 0),
        "mem.fmem_share": ratio(c.get("stats/fmem_accesses", 0), served),
        "pebs.records_per_kaccess": ratio(pebs_written * 1e3, accesses),
        "pebs.dropped_share": ratio(pebs_dropped, pebs_written + pebs_dropped),
        "tmm.pages_promoted": c.get("stats/pages_promoted", 0),
        "tmm.pages_demoted": c.get("stats/pages_demoted", 0),
        "balloon.completion_share": ratio(c.get("balloon/completions", 0),
                                          c.get("balloon/requests", 0)),
        "balloon.retries": c.get("balloon/retries", 0),
        "harness.context_switches": c.get("stats/context_switches", 0),
        "cluster.migrations_started": started,
        "cluster.migration_completion_share": ratio(c.get("cluster/migration/completed", 0),
                                                    started),
        "cluster.pages_copied": c.get("cluster/migration/pages_copied", 0),
        "cluster.vms_killed": c.get("cluster/ha/vms_killed", 0),
        "cluster.vms_restarted": c.get("cluster/ha/vms_restarted", 0),
        "cluster.vms_lost": c.get("cluster/ha/vms_lost", 0),
        "cluster.transactions_lost": c.get("cluster/ha/transactions_lost", 0),
        "cluster.placements": c.get("cluster/placement/placements", 0),
        "cluster.retries": c.get("cluster/migration/retries", 0),
    }
    for stage in TMM_STAGES:
        out["tmm.mgmt_ms." + stage] = record["sim"]["mgmt_ms"][stage]
    return out


# Bases printed next to each ratio in the per-layer table.
def ratio_bases(record):
    c = record["counters"]
    pebs = sum(v for k, v in c.items()
               if re.fullmatch(r"vcpu\d+/pebs/records_(written|dropped)", k))
    return {
        "mmu.tlb_hit_ratio": ("TLB lookups", c.get("tlb/hits", 0) + c.get("tlb/misses", 0)),
        "mmu.misses_per_kaccess": ("accesses", c.get("stats/accesses", 0)),
        "mem.fmem_share": ("accesses served by memory",
                           sum(c.get("stats/" + k, 0)
                               for k in ("fmem_accesses", "smem_accesses", "swap_accesses"))),
        "pebs.records_per_kaccess": ("accesses", c.get("stats/accesses", 0)),
        "pebs.dropped_share": ("records written + dropped", pebs),
        "balloon.completion_share": ("requests", c.get("balloon/requests", 0)),
        "cluster.migration_completion_share": ("started",
                                               c.get("cluster/migration/started", 0)),
    }


def chrome_trace(spans, run_id):
    """Spans as Chrome trace_event JSON (Perfetto, chrome://tracing): one
    complete event per span, one thread per root, all sharing `run_id`."""
    r = roots(spans)
    tid = {idx: n + 1 for n, idx in enumerate(sorted(r.values()))}
    events = []
    for i, span in enumerate(spans):
        root = root_of(spans, i)
        events.append({
            "name": span["name"],
            "cat": "perfbench",
            "ph": "X",
            "ts": span["start_us"],
            "dur": span["end_us"] - span["start_us"],
            "pid": 1,
            "tid": tid[root],
            "args": {"run_id": run_id, "span": i, "parent": span["parent"],
                     "work": span["work"]},
        })
    names = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid[idx],
              "args": {"name": name}} for name, idx in r.items()]
    return {"traceEvents": names + events, "displayTimeUnit": "ms"}
