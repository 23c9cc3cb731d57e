"""Tests of the benchmark's arithmetic and output checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import unittest
from pathlib import Path

import benchlib

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def span(name, parent, start, end, work=0):
    return {"name": name, "parent": parent, "start_us": start, "end_us": end, "work": work}


def fleet_record():
    return {
        "workload": "fleet-ha",
        "loop_accesses": 1000,
        "vms": [[40000, 40000], [40000, 40000]],
        "sim": {"txn_per_s": 1.0, "p50_txn_us": 1.0, "p99_txn_us": 2.0, "mgmt_cores": 0.5},
        "counters": {
            "cluster/migration/started": 5,
            "cluster/migration/completed": 2,
            "cluster/migration/aborted": 1,
            "cluster/migration/cancelled": 1,
            "cluster/migration/fenced": 1,
            "cluster/ha/vms_killed": 4,
            "cluster/ha/vms_restarted": 3,
            "cluster/ha/vms_lost": 1,
            "cluster/ha/restart_queue_depth": 0,
        },
    }


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span("run", -1, 0, 100), span("a", 0, 10, 30), span("b", 0, 40, 90),
                 span("b.1", 2, 50, 60)]
        self.assertEqual(benchlib.self_times(spans), [30, 20, 40, 10])

    def test_overlapping_children_count_once_and_clip_to_parent(self):
        spans = [span("run", -1, 0, 100), span("a", 0, 10, 50), span("b", 0, 40, 120)]
        self.assertEqual(benchlib.self_times(spans)[0], 10)

    def test_coverage_and_layer_table(self):
        spans = [span("run", -1, 0, 100), span("harness.step", 0, 0, 45),
                 span("harness.step", 0, 50, 95), span("twin", -1, 200, 300)]
        self.assertAlmostEqual(benchlib.children_coverage(spans, 0), 0.9)
        rows = {(root, name): (calls, own, share)
                for root, name, calls, _, own, share in benchlib.layer_table(spans)}
        self.assertEqual(rows[("run", "harness.step")], (2, 90, 0.9))
        self.assertEqual(rows[("twin", "twin")], (1, 100, 1.0))


class RatioTest(unittest.TestCase):
    def test_zero_base_is_zero(self):
        self.assertEqual(benchlib.ratio(5, 0), 0.0)
        self.assertEqual(benchlib.ratio(0, 0), 0.0)
        self.assertEqual(benchlib.ratio(3, 4), 0.75)

    def test_ratio_bases_report_their_base(self):
        record = {"counters": {"tlb/hits": 90, "tlb/misses": 10, "stats/accesses": 200,
                               "vcpu0/pebs/records_written": 3,
                               "vcpu1/pebs/records_dropped": 1}}
        bases = benchlib.ratio_bases(record)
        self.assertEqual(bases["mmu.tlb_hit_ratio"], ("TLB lookups", 100))
        self.assertEqual(bases["pebs.dropped_share"], ("records written + dropped", 4))
        self.assertEqual(bases["balloon.completion_share"], ("requests", 0))
        self.assertEqual(bases["cluster.migration_completion_share"], ("started", 0))

    def test_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, q2, q3 = benchlib.quartiles(values)
        self.assertAlmostEqual(benchlib.spread(values), (q3 - q1) / q2)
        self.assertEqual(benchlib.spread([0.0, 0.0]), 0.0)


class NameTest(unittest.TestCase):
    def test_metric_names(self):
        for name, _ in benchlib.END_TO_END + benchlib.PER_LAYER:
            self.assertTrue(benchlib.valid_name(name), name)
        for bad in ("", "a b", "a/b", "_x", ".x", "x" * 65, "µs"):
            self.assertFalse(benchlib.valid_name(bad), bad)
        self.assertTrue(benchlib.valid_name("x" * 64))

    def test_benchmark_json_matches_definitions(self):
        bench = json.loads(BENCHMARK.read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(benchlib.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(benchlib.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(benchlib.WORKLOADS))
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in bench["end_to_end"]))


class OutputCheckTest(unittest.TestCase):
    def test_sound_records_pass(self):
        self.assertEqual(benchlib.check_record(fleet_record()), [])
        single_host = dict(fleet_record(), workload="kv-zipf", counters={"stats/accesses": 9})
        self.assertEqual(benchlib.check_record(single_host), [])

    def test_vm_one_transaction_short_fails(self):
        record = fleet_record()
        record["vms"][1][0] -= 1
        self.assertEqual(len(benchlib.check_record(record)), 1)
        self.assertEqual(benchlib.vm_counts([record], []), (2, 1))

    def test_broken_migration_ledger_fails(self):
        record = fleet_record()
        record["counters"]["cluster/migration/fenced"] = 0
        self.assertIn("migration ledger", benchlib.check_record(record)[0])

    def test_broken_restart_ledger_fails(self):
        record = fleet_record()
        record["counters"]["cluster/ha/vms_lost"] = 0
        self.assertIn("restart ledger", benchlib.check_record(record)[0])

    def test_nonempty_restart_queue_fails(self):
        record = fleet_record()
        record["counters"]["cluster/ha/vms_lost"] = 0
        record["counters"]["cluster/ha/restart_queue_depth"] = 1
        self.assertEqual(benchlib.check_record(record),
                         ["restart queue holds 1 VMs at the end"])

    def test_traced_run_must_match_untraced(self):
        record = fleet_record()
        traced = copy.deepcopy(record)
        self.assertEqual(benchlib.check_run([record, record], traced), [])
        traced["sim"]["txn_per_s"] = 2.0
        self.assertEqual(benchlib.check_run([record], traced),
                         ["traced run's simulated output differs from the untraced run's"])

    def test_repetitions_must_agree(self):
        record = fleet_record()
        other = copy.deepcopy(record)
        other["loop_accesses"] += 1
        self.assertEqual(benchlib.check_run([record, other]),
                         ["repetitions of one seed disagree on simulated output"])

    def test_any_failure_fails_every_vm(self):
        record = fleet_record()
        self.assertEqual(benchlib.vm_counts([record, record], ["broken"]), (4, 4))
        e2e = benchlib.end_to_end([dict(record, host={"wall_s": 1, "setup_s": 1, "loop_s": 1,
                                                      "peak_rss_mib": 1})], 4, 4)
        self.assertEqual(e2e["vm_ok_share"], 0.0)


class ChromeTraceTest(unittest.TestCase):
    def test_spans_become_complete_events_sharing_the_run_id(self):
        spans = [span("run", -1, 0, 10), span("harness.build", 0, 0, 4, work=3),
                 span("twin", -1, 20, 30)]
        trace = benchlib.chrome_trace(spans, "kv-zipf-seed1")
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        self.assertEqual([e["name"] for e in events], ["run", "harness.build", "twin"])
        self.assertEqual({e["args"]["run_id"] for e in events}, {"kv-zipf-seed1"})
        self.assertEqual(events[1]["tid"], events[0]["tid"])
        self.assertNotEqual(events[2]["tid"], events[0]["tid"])
        self.assertEqual(events[1]["dur"], 4)


if __name__ == "__main__":
    unittest.main()
