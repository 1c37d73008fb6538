#!/usr/bin/env python3
"""Unit tests for the bench-gate comparator (run via
``python3 -m unittest discover -s scripts`` or directly)."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_bench_regression as cbr


def coll_row(op, ranks, size, mode, wall_us):
    return {"op": op, "ranks": ranks, "bytes": size, "mode": mode,
            "wall_us": wall_us}


def pp_row(strategy, size, mibs):
    return {"strategy": strategy, "bytes": size, "mibs": mibs}


def miss_row(workload, strategy, l2_misses):
    return {"workload": workload, "strategy": strategy,
            "l2_misses": l2_misses}


class CompareTest(unittest.TestCase):
    def test_identical_rows_pass(self):
        base = [coll_row("bcast", 8, 262144, "shm", 70.0),
                pp_row("default", 65536, 1900.0)]
        violations, checked, skipped = cbr.compare(base, base, 2.5)
        self.assertEqual(violations, [])
        self.assertEqual(len(checked), 2)
        self.assertEqual(skipped, [])

    def test_doctored_10x_slower_fails(self):
        base = [coll_row("bcast", 8, 262144, "shm", 70.0)]
        fresh = [coll_row("bcast", 8, 262144, "shm", 700.0)]
        violations, _, _ = cbr.compare(base, fresh, 2.5)
        self.assertEqual(len(violations), 1)
        self.assertEqual(violations[0]["metric"], "wall_us")
        self.assertAlmostEqual(violations[0]["ratio"], 10.0)

    def test_10x_throughput_drop_fails(self):
        base = [pp_row("default", 65536, 2000.0)]
        fresh = [pp_row("default", 65536, 200.0)]
        violations, _, _ = cbr.compare(base, fresh, 2.5)
        self.assertEqual(len(violations), 1)
        self.assertEqual(violations[0]["metric"], "mibs")

    def test_within_tolerance_passes_both_directions(self):
        base = [coll_row("alltoall", 4, 65536, "p2p", 100.0),
                pp_row("default", 65536, 1000.0)]
        fresh = [coll_row("alltoall", 4, 65536, "p2p", 240.0),  # 2.4x < 2.5x
                 pp_row("default", 65536, 450.0)]               # /2.2 < /2.5
        violations, checked, _ = cbr.compare(base, fresh, 2.5)
        self.assertEqual(violations, [])
        self.assertEqual(len(checked), 2)

    def test_improvement_never_fails(self):
        base = [coll_row("allreduce", 8, 262144, "shm", 1200.0)]
        fresh = [coll_row("allreduce", 8, 262144, "shm", 70.0)]
        violations, _, _ = cbr.compare(base, fresh, 2.5)
        self.assertEqual(violations, [])

    def test_missing_fresh_row_is_skipped_not_failed(self):
        base = [coll_row("bcast", 8, 262144, "shm", 70.0),
                coll_row("bcast", 8, 1048576, "shm", 300.0)]
        fresh = [coll_row("bcast", 8, 262144, "shm", 71.0)]
        violations, checked, skipped = cbr.compare(base, fresh, 2.5)
        self.assertEqual(violations, [])
        self.assertEqual(len(checked), 1)
        self.assertEqual(len(skipped), 1)

    def test_nonpositive_values_are_skipped(self):
        # A timed row that measured nothing reads 0; it must not trip the
        # gate.
        base = [coll_row("bcast", 8, 262144, "shm", 0.0)]
        fresh = [coll_row("bcast", 8, 262144, "shm", 50.0)]
        violations, checked, skipped = cbr.compare(base, fresh, 2.5)
        self.assertEqual(violations, [])
        self.assertEqual(checked, [])
        self.assertEqual(len(skipped), 1)

    def test_equal_misses_pass_zero_included(self):
        base = [miss_row("64KiB pingpong", "default", 4096),
                miss_row("64KiB pingpong", "knem+ioat", 0)]
        violations, checked, skipped = cbr.compare(base, base, 2.5)
        self.assertEqual(violations, [])
        self.assertEqual(len(checked), 2)
        self.assertEqual(skipped, [])

    def test_any_miss_drift_fails_within_tolerance(self):
        base = [miss_row("4MiB alltoall", "knem", 7340032),
                miss_row("is-like", "default", 15370240)]
        fresh = [miss_row("4MiB alltoall", "knem", 7340033),
                 miss_row("is-like", "default", 15370239)]
        violations, checked, _ = cbr.compare(base, fresh, 2.5)
        self.assertEqual(len(checked), 2)
        self.assertEqual(len(violations), 2)
        self.assertEqual(violations[0]["metric"], "l2_misses")

    def test_row_drifting_off_zero_misses_fails(self):
        base = [miss_row("64KiB alltoall", "vmsplice", 0)]
        fresh = [miss_row("64KiB alltoall", "vmsplice", 4096)]
        violations, checked, skipped = cbr.compare(base, fresh, 2.5)
        self.assertEqual(skipped, [])
        self.assertEqual(len(violations), 1)
        self.assertEqual(violations[0]["ratio"], float("inf"))
        fresh = [miss_row("64KiB alltoall", "vmsplice", 0)]
        base = [miss_row("64KiB alltoall", "vmsplice", 4096)]
        violations, _, _ = cbr.compare(base, fresh, 2.5)
        self.assertEqual(len(violations), 1)

    def test_bad_tolerance_rejected(self):
        with self.assertRaises(ValueError):
            cbr.compare([], [], 1.0)

    def test_bench_marked_skipped_never_fails(self):
        # A PMU-less container marks the hw row skipped; the gate must not
        # fail it even when the baseline carries a real value.
        base = [{"workload": "4MiB pingpong hw", "strategy": "hw",
                 "l2_misses": 123456}]
        fresh = [{"workload": "4MiB pingpong hw", "strategy": "hw",
                  "skipped": "no PMU"}]
        violations, checked, skipped = cbr.compare(base, fresh, 2.5)
        self.assertEqual(violations, [])
        self.assertEqual(checked, [])
        self.assertEqual(len(skipped), 1)
        self.assertIn("no PMU", skipped[0]["reason"])

    def test_backend_unavailable_row_skips_against_real_baseline(self):
        # Baseline was produced on a CMA-capable host; a restricted runner
        # (ptrace_scope, seccomp) emits the row with a "skipped" marker and
        # no metric. The gate must surface the reason, not fail the row.
        base = [pp_row("cma", 4194304, 12000.0)]
        fresh = [{"strategy": "cma", "bytes": 4194304,
                  "skipped": "cma unavailable"}]
        violations, checked, skipped = cbr.compare(base, fresh, 2.5)
        self.assertEqual(violations, [])
        self.assertEqual(checked, [])
        self.assertEqual(len(skipped), 1)
        self.assertIn("cma unavailable", skipped[0]["reason"])

    def test_skipped_baseline_with_missing_fresh_row_does_not_crash(self):
        # A baseline committed from a restricted host carries the marker
        # itself; the fresh run may drop the row entirely.
        base = [{"strategy": "cma", "bytes": 65536,
                 "skipped": "cma unavailable"}]
        violations, checked, skipped = cbr.compare(base, [], 2.5)
        self.assertEqual(violations, [])
        self.assertEqual(checked, [])
        self.assertEqual(len(skipped), 1)
        self.assertIn("cma unavailable", skipped[0]["reason"])


class TraceOverheadTest(unittest.TestCase):
    def test_off_vs_rings_pairing(self):
        rows = [dict(coll_row("allreduce", 8, 262144, "shm", 100.0),
                     trace="off"),
                dict(coll_row("allreduce", 8, 262144, "shm", 104.0),
                     trace="rings"),
                coll_row("bcast", 8, 262144, "shm", 70.0)]  # No trace field.
        report = cbr.trace_overhead(rows)
        self.assertEqual(len(report), 1)
        rec = report[0]
        self.assertEqual(rec["mode"], "rings")
        self.assertAlmostEqual(rec["overhead_pct"], 4.0)
        self.assertEqual(rec["key"]["op"], "allreduce")

    def test_unpaired_or_nonpositive_rows_ignored(self):
        rows = [dict(coll_row("allreduce", 8, 262144, "shm", 100.0),
                     trace="rings"),  # No matching off row.
                dict(coll_row("bcast", 8, 262144, "shm", 0.0), trace="off"),
                dict(coll_row("bcast", 8, 262144, "shm", 50.0),
                     trace="rings")]
        self.assertEqual(cbr.trace_overhead(rows), [])


class LivenessOverheadTest(unittest.TestCase):
    def test_on_vs_off_pairing(self):
        rows = [dict(coll_row("allreduce", 8, 262144, "shm", 100.0),
                     liveness="off"),
                dict(coll_row("allreduce", 8, 262144, "shm", 101.5),
                     liveness="on"),
                dict(coll_row("allreduce", 8, 262144, "shm", 103.0),
                     trace="rings")]  # Trace rows stay in their own report.
        report = cbr.liveness_overhead(rows)
        self.assertEqual(len(report), 1)
        rec = report[0]
        self.assertEqual(rec["mode"], "on")
        self.assertAlmostEqual(rec["overhead_pct"], 1.5)
        self.assertEqual(cbr.trace_overhead(rows), [])  # No off trace row.


class MainTest(unittest.TestCase):
    def _write(self, rows):
        f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        json.dump({"bench": "t", "rows": rows}, f)
        f.close()
        self.addCleanup(os.unlink, f.name)
        return f.name

    def test_end_to_end_failure_and_diff_artifact(self):
        base = self._write([coll_row("bcast", 8, 262144, "shm", 70.0)])
        fresh = self._write([coll_row("bcast", 8, 262144, "shm", 700.0)])
        diff = tempfile.NamedTemporaryFile(suffix=".json", delete=False)
        diff.close()
        self.addCleanup(os.unlink, diff.name)
        rc = cbr.main(["--baseline", base, "--fresh", fresh,
                       "--diff", diff.name])
        self.assertEqual(rc, 1)
        with open(diff.name, encoding="utf-8") as f:
            doc = json.load(f)
        self.assertEqual(len(doc["violations"]), 1)
        self.assertEqual(doc["violations"][0]["key"]["op"], "bcast")

    def test_end_to_end_pass(self):
        base = self._write([coll_row("bcast", 8, 262144, "shm", 70.0)])
        fresh = self._write([coll_row("bcast", 8, 262144, "shm", 75.0)])
        self.assertEqual(cbr.main(["--baseline", base, "--fresh", fresh]), 0)

    def test_malformed_input_is_a_distinct_error(self):
        bad = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        bad.write("not json")
        bad.close()
        self.addCleanup(os.unlink, bad.name)
        good = self._write([])
        self.assertEqual(
            cbr.main(["--baseline", bad.name, "--fresh", good]), 2)


if __name__ == "__main__":
    unittest.main()
