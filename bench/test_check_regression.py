"""Tests for the bench-regression gate itself (bench/check_regression.py).

The gate guards every virtual-cost baseline in CI, so its own edge cases —
tolerance boundaries, missing entries/fields, malformed JSON — need the same
protection. unittest.TestCase style so it runs under `python3 -m pytest`
(the CI step) and `python3 -m unittest` (no pytest installed) alike.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_regression  # noqa: E402  (path bootstrap above)


def entry(name, **fields):
    return dict({"name": name}, **fields)


class CheckRegressionTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.baseline_dir = os.path.join(self._tmp.name, "baseline")
        self.fresh_dir = os.path.join(self._tmp.name, "fresh")
        os.mkdir(self.baseline_dir)
        os.mkdir(self.fresh_dir)
        self.addCleanup(self._tmp.cleanup)

    def write(self, dirname, name, entries):
        with open(os.path.join(dirname, name), "w") as f:
            json.dump({"entries": entries}, f)

    def check(self, name="BENCH.json", tolerance=0.25, host_tolerance=0.40):
        return check_regression.check_file(name, self.baseline_dir,
                                           self.fresh_dir, tolerance,
                                           host_tolerance)

    def test_within_tolerance_passes(self):
        self.write(self.baseline_dir, "BENCH.json",
                   [entry("a", plain_virtual_seconds=1.0)])
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("a", plain_virtual_seconds=1.2)])
        self.assertEqual(self.check(), [])

    def test_cost_exactly_at_tolerance_passes_and_just_over_fails(self):
        # ratio == 1 + tolerance must pass (budget is inclusive), an epsilon
        # above must fail: the gate compares ratio > 1 + tolerance.
        self.write(self.baseline_dir, "BENCH.json",
                   [entry("a", cost_virtual_seconds=1.0)])
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("a", cost_virtual_seconds=1.25)])
        self.assertEqual(self.check(tolerance=0.25), [])
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("a", cost_virtual_seconds=1.2500001)])
        violations = self.check(tolerance=0.25)
        self.assertEqual(len(violations), 1)
        self.assertIn("cost_virtual_seconds", violations[0])

    def test_speedup_fields_regress_downward(self):
        # Speedups are better-bigger: a drop beyond tolerance fails, a rise
        # never does.
        self.write(self.baseline_dir, "BENCH.json",
                   [entry("a", virtual_speedup=2.0)])
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("a", virtual_speedup=1.5)])
        self.assertEqual(len(self.check(tolerance=0.25)), 1)
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("a", virtual_speedup=10.0)])
        self.assertEqual(self.check(tolerance=0.25), [])

    def test_zero_fresh_speedup_is_infinite_regression(self):
        self.write(self.baseline_dir, "BENCH.json",
                   [entry("a", virtual_speedup=2.0)])
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("a", virtual_speedup=0.0)])
        self.assertEqual(len(self.check()), 1)

    def test_host_seconds_gated_at_wide_tolerance(self):
        # Host seconds are runner wall-clock, so they get the wide
        # --host-tolerance budget rather than the tight virtual one: +30%
        # is noise (passes at 40%), a 100x blow-up is a real regression.
        self.write(self.baseline_dir, "BENCH.json",
                   [entry("a", current_host_seconds=0.01)])
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("a", current_host_seconds=0.013)])
        self.assertEqual(self.check(), [])
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("a", current_host_seconds=1.0)])
        violations = self.check()
        self.assertEqual(len(violations), 1)
        self.assertIn("current_host_seconds", violations[0])
        self.assertIn("budget 40%", violations[0])

    def test_host_speedup_regresses_downward_at_host_tolerance(self):
        # The field that carried the invisible 0.945x incremental-rebuild
        # regression: host_speedup is better-bigger and must be gated.
        self.write(self.baseline_dir, "BENCH.json",
                   [entry("a", host_speedup=2.0)])
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("a", host_speedup=1.6)])
        self.assertEqual(self.check(), [])  # -20%: inside the 40% budget
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("a", host_speedup=1.0)])
        violations = self.check()
        self.assertEqual(len(violations), 1)
        self.assertIn("host_speedup", violations[0])

    def test_host_and_virtual_budgets_are_independent(self):
        # A +30% drift passes the 40% host budget but must still fail the
        # 25% virtual budget on virtual fields — the budgets never bleed
        # into each other's field class.
        self.write(self.baseline_dir, "BENCH.json",
                   [entry("a", cost_virtual_seconds=1.0,
                          cost_host_seconds=1.0)])
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("a", cost_virtual_seconds=1.3,
                          cost_host_seconds=1.3)])
        violations = self.check(tolerance=0.25, host_tolerance=0.40)
        self.assertEqual(len(violations), 1)
        self.assertIn("cost_virtual_seconds", violations[0])

    def test_unclassified_host_like_fields_stay_ignored(self):
        # Only *_host_seconds / host_speedup are host-gated; other
        # non-virtual diagnostics (counts, fractions) stay ungated.
        self.write(self.baseline_dir, "BENCH.json",
                   [entry("a", avg_moved_fraction=0.01, deltas=20)])
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("a", avg_moved_fraction=0.9, deltas=1)])
        self.assertEqual(self.check(), [])

    def test_missing_entry_and_missing_field_fail(self):
        self.write(self.baseline_dir, "BENCH.json",
                   [entry("a", plain_virtual_seconds=1.0),
                    entry("b", plain_virtual_seconds=1.0)])
        self.write(self.fresh_dir, "BENCH.json", [entry("a")])
        violations = self.check()
        self.assertEqual(len(violations), 2)
        self.assertTrue(any("entry missing" in v for v in violations))
        self.assertTrue(any("field missing" in v for v in violations))

    def test_new_fresh_entries_and_fields_never_fail(self):
        self.write(self.baseline_dir, "BENCH.json",
                   [entry("a", plain_virtual_seconds=1.0)])
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("a", plain_virtual_seconds=1.0,
                          extra_virtual_seconds=99.0),
                    entry("brand_new", anything_virtual=1.0)])
        self.assertEqual(self.check(), [])

    def test_missing_fresh_file_fails(self):
        self.write(self.baseline_dir, "BENCH.json",
                   [entry("a", plain_virtual_seconds=1.0)])
        violations = self.check()
        self.assertEqual(len(violations), 1)
        self.assertIn("fresh results missing", violations[0])

    def test_zero_baseline_is_skipped(self):
        # A zero-cost baseline cannot express a ratio; the gate skips it
        # instead of dividing by zero.
        self.write(self.baseline_dir, "BENCH.json",
                   [entry("a", cost_virtual_seconds=0.0)])
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("a", cost_virtual_seconds=5.0)])
        self.assertEqual(self.check(), [])

    def test_malformed_fresh_json_raises(self):
        self.write(self.baseline_dir, "BENCH.json",
                   [entry("a", plain_virtual_seconds=1.0)])
        with open(os.path.join(self.fresh_dir, "BENCH.json"), "w") as f:
            f.write("{ not json")
        with self.assertRaises(json.JSONDecodeError):
            self.check()

    def test_main_exit_codes_and_report(self):
        self.write(self.baseline_dir, "BENCH.json",
                   [entry("a", cost_virtual_seconds=1.0)])
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("a", cost_virtual_seconds=2.0)])
        argv = ["check_regression.py", "--baseline-dir", self.baseline_dir,
                "--fresh-dir", self.fresh_dir, "BENCH.json"]
        old_argv = sys.argv
        sys.argv = argv
        try:
            self.assertEqual(check_regression.main(), 1)
            self.write(self.fresh_dir, "BENCH.json",
                       [entry("a", cost_virtual_seconds=1.0)])
            self.assertEqual(check_regression.main(), 0)
        finally:
            sys.argv = old_argv

    def test_mixed_cost_and_speedup_fields_gate_in_both_directions(self):
        # The adaptive_full_loop entry carries both cost fields (the two
        # runs' makespans) and a speedup; one regressing either way must be
        # the only violation reported.
        self.write(self.baseline_dir, "BENCH.json",
                   [entry("adaptive_full_loop",
                          control_virtual_seconds=2.0,
                          full_virtual_seconds=1.0,
                          virtual_speedup=2.0)])
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("adaptive_full_loop",
                          control_virtual_seconds=2.0,
                          full_virtual_seconds=1.6,
                          virtual_speedup=1.25)])
        violations = self.check(tolerance=0.25)
        self.assertEqual(len(violations), 2)
        self.assertTrue(any("full_virtual_seconds" in v for v in violations))
        self.assertTrue(any("virtual_speedup" in v for v in violations))
        self.assertFalse(any("control_virtual_seconds" in v for v in violations))

    def test_recovery_cost_fields_are_virtual_gated(self):
        # The BENCH_recovery.json cost breakdown (detect / agree / rebuild /
        # restore / checkpoint) must fall under the tight virtual budget via
        # the generic "virtual" predicate — no special-casing in the gate.
        base = entry("recovery_kill_midrun",
                     detect_virtual_seconds=1e-3,
                     agree_virtual_seconds=1e-3,
                     rebuild_virtual_seconds=1e-2,
                     restore_virtual_seconds=1e-4,
                     checkpoint_virtual_seconds=1e-4,
                     loop_virtual_seconds=1e-1,
                     resume_iteration=4)
        self.write(self.baseline_dir, "BENCH.json", [base])
        self.write(self.fresh_dir, "BENCH.json", [base])
        self.assertEqual(self.check(), [])
        worse = dict(base, agree_virtual_seconds=2e-3)
        self.write(self.fresh_dir, "BENCH.json", [worse])
        violations = self.check(tolerance=0.25)
        self.assertEqual(len(violations), 1)
        self.assertIn("agree_virtual_seconds", violations[0])

    def test_recovery_diagnostics_stay_ungated(self):
        # resume_iteration / checkpoints_committed are correctness
        # diagnostics, not costs: a different (legitimate) kill point must
        # not trip the perf gate.
        self.write(self.baseline_dir, "BENCH.json",
                   [entry("recovery_kill_midrun", resume_iteration=4,
                          checkpoints_committed=1)])
        self.write(self.fresh_dir, "BENCH.json",
                   [entry("recovery_kill_midrun", resume_iteration=8,
                          checkpoints_committed=2)])
        self.assertEqual(self.check(), [])

    def test_committed_baselines_pass_against_themselves(self):
        # The repo's own committed baselines must be self-consistent: the
        # gate with baseline == fresh reports nothing.
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for name in ("BENCH_schedule.json", "BENCH_remap.json",
                     "BENCH_recovery.json", "BENCH_service.json"):
            self.assertTrue(os.path.exists(os.path.join(repo_root, name)))
            self.assertEqual(
                check_regression.check_file(name, repo_root, repo_root, 0.0),
                [])

    def test_committed_baseline_carries_the_closed_loop_entry(self):
        # The closed-loop bench is gate-enforced: its entry and the fields
        # the gate watches must exist in the committed baseline, and the
        # committed speedup must actually show the loop winning.
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        entries = check_regression.load_entries(
            os.path.join(repo_root, "BENCH_schedule.json"))
        self.assertIn("adaptive_full_loop", entries)
        loop = entries["adaptive_full_loop"]
        for field in ("control_virtual_seconds", "full_virtual_seconds",
                      "virtual_speedup"):
            self.assertIn(field, loop)
        self.assertGreater(loop["virtual_speedup"], 1.0)

    def test_committed_recovery_baseline_carries_the_cost_breakdown(self):
        # The recovery bench is gate-enforced: the committed baseline must
        # carry the full detection / consensus / repartition / restore
        # breakdown, with each phase actually charged (non-zero).
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        entries = check_regression.load_entries(
            os.path.join(repo_root, "BENCH_recovery.json"))
        self.assertIn("recovery_kill_midrun", entries)
        rec = entries["recovery_kill_midrun"]
        for field in ("detect_virtual_seconds", "agree_virtual_seconds",
                      "rebuild_virtual_seconds", "restore_virtual_seconds",
                      "checkpoint_virtual_seconds", "loop_virtual_seconds"):
            self.assertIn(field, rec)
            self.assertGreater(rec[field], 0.0)
        self.assertGreaterEqual(rec["resume_iteration"], 0)
        self.assertGreaterEqual(rec["checkpoints_committed"], 1)

    def test_service_warm_and_batching_fields_are_gated(self):
        # The serving-layer wins (warm-vs-cold and batching speedups) are
        # better-bigger virtual fields: a drop beyond tolerance must trip
        # the gate, while ungated diagnostics (hit rate, msgs) never do.
        base = entry("service_warm_vs_cold",
                     cold_virtual_seconds=1.2,
                     warm_virtual_seconds=1.0,
                     warm_vs_cold_virtual_speedup=1.2,
                     cache_hit_rate=0.8,
                     inter_node_msgs=400)
        self.write(self.baseline_dir, "BENCH.json", [base])
        worse = dict(base, warm_vs_cold_virtual_speedup=0.8,
                     cache_hit_rate=0.1, inter_node_msgs=4000)
        self.write(self.fresh_dir, "BENCH.json", [worse])
        violations = self.check(tolerance=0.25)
        self.assertEqual(len(violations), 1)
        self.assertIn("warm_vs_cold_virtual_speedup", violations[0])

    def test_committed_baseline_carries_the_simd_pack_entry(self):
        # The pack-loop microbench is host-gated: the committed baseline
        # must carry its timing column, and the column must stay
        # host-classified, since a rename that drops it out of the host
        # predicate would silently ungate it.
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        entries = check_regression.load_entries(
            os.path.join(repo_root, "BENCH_schedule.json"))
        self.assertIn("pack_unpack_host", entries)
        pack = entries["pack_unpack_host"]
        self.assertIn("scalar_host_seconds", pack)
        self.assertIsNotNone(check_regression.field_budget(
            "scalar_host_seconds", pack["scalar_host_seconds"], 0.25, 0.40))

    def test_committed_baseline_carries_the_mailbox_throughput_entry(self):
        # The lock-free mailbox bench is host-gated against the mutex+cv
        # reference it replaced: the committed baseline must carry both
        # columns and show the ring winning.
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        entries = check_regression.load_entries(
            os.path.join(repo_root, "BENCH_schedule.json"))
        self.assertIn("mailbox_throughput_host", entries)
        box = entries["mailbox_throughput_host"]
        for field in ("mutex_host_seconds", "ring_host_seconds",
                      "host_speedup", "ring_msgs_per_host_second"):
            self.assertIn(field, box)
        for field in ("mutex_host_seconds", "ring_host_seconds",
                      "host_speedup"):
            self.assertIsNotNone(check_regression.field_budget(
                field, box[field], 0.25, 0.40))
        self.assertGreater(box["host_speedup"], 1.0)

    def test_delta_pipeline_fields_are_virtual_gated(self):
        # The delta-pipeline bench reports per-drift cost pairs plus a
        # speedup; all of them must classify as virtual fields (tight
        # budget), with the speedup regressing downward.
        base = entry("delta_pipeline",
                     drift02_spliced_virtual_seconds=0.004,
                     drift02_scratch_virtual_seconds=0.009,
                     drift02_virtual_speedup=2.2,
                     ranks=8)
        for field in ("drift02_spliced_virtual_seconds",
                      "drift02_scratch_virtual_seconds",
                      "drift02_virtual_speedup"):
            self.assertIsNotNone(check_regression.field_budget(
                field, base[field], 0.25, 0.40))
        self.write(self.baseline_dir, "BENCH.json", [base])
        worse = dict(base, drift02_spliced_virtual_seconds=0.008,
                     drift02_virtual_speedup=1.1, ranks=16)
        self.write(self.fresh_dir, "BENCH.json", [worse])
        violations = self.check(tolerance=0.25)
        self.assertEqual(len(violations), 2)
        self.assertTrue(any("drift02_spliced_virtual_seconds" in v
                            for v in violations))
        self.assertTrue(any("drift02_virtual_speedup" in v for v in violations))

    def test_committed_baseline_carries_the_delta_pipeline_entry(self):
        # The splice-vs-scratch bench is gate-enforced: the committed
        # baseline must carry every drift level's cost pair + speedup, and
        # the splice must actually win at AMR drift rates (the acceptance
        # bar: spliced rebuild cheaper than from-scratch at small drift).
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        entries = check_regression.load_entries(
            os.path.join(repo_root, "BENCH_schedule.json"))
        self.assertIn("delta_pipeline", entries)
        pipe = entries["delta_pipeline"]
        for tag in ("drift02", "drift10", "drift25"):
            for suffix in ("_spliced_virtual_seconds",
                           "_scratch_virtual_seconds", "_virtual_speedup"):
                self.assertIn(tag + suffix, pipe)
                self.assertGreater(pipe[tag + suffix], 0.0)
        self.assertGreater(pipe["drift02_virtual_speedup"], 1.0)

    def test_committed_service_baseline_carries_the_serving_wins(self):
        # The service bench is gate-enforced: the committed baseline must
        # show the plan cache and batching actually winning.
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        entries = check_regression.load_entries(
            os.path.join(repo_root, "BENCH_service.json"))
        for name in ("service_warm_vs_cold", "service_warm_vs_cold_coalesced"):
            self.assertIn(name, entries)
            warm = entries[name]
            for field in ("cold_virtual_seconds", "warm_virtual_seconds",
                          "cold_build_virtual_seconds",
                          "warm_vs_cold_virtual_speedup", "cache_hit_rate"):
                self.assertIn(field, warm)
            self.assertGreater(warm["warm_vs_cold_virtual_speedup"], 1.0)
            self.assertGreater(warm["cache_hit_rate"], 0.5)
        batching = entries["service_batching"]
        self.assertGreater(batching["batching_virtual_speedup"], 1.0)
        self.assertEqual(batching["batching_virtual_speedup"],
                         batching["burst_jobs"])


if __name__ == "__main__":
    unittest.main()
