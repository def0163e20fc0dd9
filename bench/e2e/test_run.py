#!/usr/bin/env python3
"""Unit tests for run.py's compare rules (no build needed):

  python3 bench/e2e/test_run.py
"""
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ next to run.py
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.10},
        {"name": "tput", "unit": "1/s", "better": "higher", "bound": 0.10},
    ],
}


def result(lat=100.0, tput=1000.0, failed=0, attempted=1000, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"lat": {"value": lat, "unit": "ms"},
                        "tput": {"value": tput, "unit": "1/s"}}}


def status(parent, change, better="lower", bound=0.10):
    return run.judge(parent, change, better, bound)["status"]


class Judge(unittest.TestCase):
    def test_nine_wins_of_ten_is_a_gain(self):
        self.assertEqual(status([100.0] * 10, [90.0] * 9 + [101.0]), "improved")

    def test_eight_wins_of_ten_is_not(self):
        self.assertEqual(status([100.0] * 10, [90.0] * 8 + [101.0] * 2), "unchanged")

    def test_ties_count_for_neither_side(self):
        self.assertEqual(status([100.0] * 10, [90.0] * 9 + [100.0]), "improved")
        self.assertEqual(status([100.0] * 10, [90.0] * 8 + [100.0] * 2), "unchanged")

    def test_gain_needs_a_gap_wider_than_the_parent_iqr(self):
        parent = [96.0 + i for i in range(10)]  # IQR ~5.5, spread ~5.5% < bound
        self.assertEqual(status(parent, [p - 2.0 for p in parent]), "unchanged")
        self.assertEqual(status(parent, [p - 8.0 for p in parent]), "improved")

    def test_gain_needs_ten_pairs(self):
        self.assertEqual(status([100.0] * 9, [90.0] * 9), "unchanged")

    def test_spread_wider_than_bound_is_unresolved_not_unchanged(self):
        noisy = [70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 75.0, 125.0, 100.0, 100.0]
        self.assertEqual(status(noisy, list(reversed(noisy))), "unresolved")
        tight = [99.0, 101.0, 100.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
        self.assertEqual(status(tight, list(reversed(tight))), "unchanged")

    def test_unresolved_unless_every_change_run_reads_better(self):
        noisy = [70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 75.0, 125.0, 100.0, 100.0]
        self.assertIn(status(noisy, [60.0] * 10), ("better", "improved"))
        self.assertEqual(status(noisy, [200.0] * 10), "regressed")

    def test_bounds_follow_the_metric_direction(self):
        # lower is better: 20% higher regresses, 20% lower does not.
        self.assertEqual(status([100.0] * 10, [120.0] * 10, "lower"), "regressed")
        self.assertEqual(status([100.0] * 10, [80.0] * 10, "lower"), "improved")
        # higher is better: the same numbers flip.
        self.assertEqual(status([100.0] * 10, [80.0] * 10, "higher"), "regressed")
        self.assertEqual(status([100.0] * 10, [120.0] * 10, "higher"), "improved")

    def test_worsening_within_the_bound_is_unchanged(self):
        self.assertEqual(status([100.0] * 10, [109.0] * 10, "lower"), "unchanged")
        self.assertEqual(status([100.0] * 10, [91.0] * 10, "higher"), "unchanged")


class Analyze(unittest.TestCase):
    def rows(self, parent, change):
        return {(r["workload"], r["metric"]): r["status"]
                for r in run.analyze(parent, change, SPEC)}

    def test_same_runs_pass(self):
        runs = {"w": [result() for _ in range(10)]}
        rows = self.rows(runs, runs)
        self.assertTrue(all(s == "unchanged" for s in rows.values()), rows)

    def test_fail_frac_may_not_rise_at_all(self):
        parent = {"w": [result() for _ in range(10)]}
        change = {"w": [result() for _ in range(9)] + [result(failed=1)]}
        self.assertEqual(self.rows(parent, change)[("w", "fail_frac")], "regressed")
        self.assertEqual(self.rows(change, change)[("w", "fail_frac")], "unchanged")

    def test_wrong_answers_fail(self):
        parent = {"w": [result() for _ in range(10)]}
        change = {"w": [result() for _ in range(9)] + [result(correct=False)]}
        self.assertEqual(self.rows(parent, change)[("w", "fail_frac")], "wrong")

    def test_missing_metric_fails(self):
        parent = {"w": [result() for _ in range(10)]}
        broken = result()
        del broken["metrics"]["tput"]
        change = {"w": [result() for _ in range(9)] + [broken]}
        rows = run.analyze(parent, change, SPEC)
        bad = [r for r in rows if r["status"] in run.FAILING]
        self.assertEqual([(r["metric"], r["status"]) for r in bad], [("tput", "missing")])

    def test_missing_workload_fails(self):
        parent = {"w": [result() for _ in range(10)]}
        rows = run.analyze(parent, {}, SPEC)
        self.assertEqual([r["status"] for r in rows], ["missing"])
        self.assertIn("missing", run.FAILING)


if __name__ == "__main__":
    unittest.main()
