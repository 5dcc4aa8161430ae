"""Tests of the benchmark's own output checks and result validation.

Run from the root of a checkout:

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import unittest

import report

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def plain_record(workload="cdn-hybridtier"):
    accesses = report.ACCESS_BOUNDED.get(workload, 388276)
    return {
        "seed": 0,
        "run_wall_ns": 1500000000,
        "host_probe_ns": 60000000,
        "setup_s": 0.02,
        "peak_rss_kib": 6800,
        "sim": {
            "ops": 2892568, "accesses": accesses, "duration_ns": 1647372298,
            "throughput_mops": 1.7558, "median_latency_ns": 460.0,
            "p99_latency_ns": 2564.0, "warmup_end_ns": 0,
            "fast_mem_accesses": 100,
            "slow_mem_accesses": 50, "metadata_bytes": 175104,
            "llc_app_misses": 97, "llc_tiering_misses": 3,
            "weighted_jain_fairness": 1.0, "fault_stalled_accesses": 0,
            "fault_endpoints_downed": 1 if workload == "cxl-failover" else 0,
            "timelines_digest": "00ff00ff00ff00ff",
        },
        "state": {
            "fast_used_units": 6580, "fast_capacity_units": 6776,
            "fast_used_timeline_max": 0.99,
            "endpoint_resident": [48844, 48791, 0],
            "p99_points_to_fault": 40, "p99_points_after_fault": 80,
        },
    }


def traced_record(plain):
    record = copy.deepcopy(plain)
    total = 1647372298
    record["attr"] = {"component_sum_ns": total, "op_latency_ns": total,
                      "observed_op_latency_ns": total,
                      "ops": plain["sim"]["ops"],
                      "observed_ops": plain["sim"]["ops"]}
    return record


class CheckRunsTest(unittest.TestCase):
    def test_consistent_runs_pass(self):
        plain = [plain_record(), plain_record()]
        self.assertEqual(
            report.check_runs("cdn-hybridtier", plain,
                              traced_record(plain[0])), [])

    def test_perturbed_traced_statistic_is_rejected(self):
        plain = [plain_record(), plain_record()]
        traced = traced_record(plain[0])
        traced["sim"]["p99_latency_ns"] += 1.0
        failed = report.check_runs("cdn-hybridtier", plain, traced)
        self.assertEqual([label for label, _ in failed], ["traced run"])
        self.assertIn("p99_latency_ns", failed[0][1][0])

    def test_perturbed_timeline_digest_is_rejected(self):
        plain = [plain_record(), plain_record()]
        plain[1]["sim"]["timelines_digest"] = "00ff00ff00ff00fe"
        failed = report.check_runs("cdn-hybridtier", plain, False)
        self.assertEqual([label for label, _ in failed], ["plain run 2"])

    def test_attribution_mismatch_is_rejected(self):
        plain = [plain_record()]
        traced = traced_record(plain[0])
        traced["attr"]["component_sum_ns"] -= 1
        failed = report.check_runs("cdn-hybridtier", plain, traced)
        self.assertIn("attribution components", failed[0][1][0])

    def test_occupancy_over_capacity_is_rejected(self):
        plain = [plain_record()]
        plain[0]["state"]["fast_used_units"] = 6777
        failed = report.check_runs("cdn-hybridtier", plain, False)
        self.assertIn("exceeds capacity", failed[0][1][0])

    def test_units_left_on_failed_endpoint_are_rejected(self):
        plain = [plain_record("cxl-failover")]
        self.assertEqual(report.check_runs("cxl-failover", plain, False), [])
        plain[0]["state"]["endpoint_resident"][2] = 5
        failed = report.check_runs("cxl-failover", plain, False)
        self.assertIn("still resident on ep2", failed[0][1][0])

    def test_runs_compare_within_their_cell_seed(self):
        other = plain_record()
        other["seed"] = 1
        other["sim"]["p99_latency_ns"] = 2160.0
        plain = [plain_record(), other, plain_record()]
        self.assertEqual(report.check_runs("cdn-hybridtier", plain, False),
                         [])
        values = report.end_to_end(plain)
        self.assertEqual(values["sim_p99_ns"], (2564.0 + 2160.0) / 2)

    def test_host_time_is_scaled_by_the_probe(self):
        fast, slow = plain_record(), plain_record()
        slow["run_wall_ns"] *= 2
        slow["setup_s"] *= 2
        slow["host_probe_ns"] *= 2
        for record in (fast, slow):
            values = report.end_to_end([record])
            self.assertAlmostEqual(values["maccs"], 16.0)
            self.assertAlmostEqual(values["setup_s"], 0.02 * 50 / 60)

    def test_abnormal_exit_counts_as_failed(self):
        plain = [plain_record(), None]
        failed = report.check_runs("cdn-hybridtier", plain, None)
        self.assertEqual([label for label, _ in failed],
                         ["plain run 2", "traced run"])


class ResultValidationTest(unittest.TestCase):
    def setUp(self):
        self.benchmark = load_benchmark()
        self.values = report.end_to_end([plain_record()])

    def test_declared_metrics_are_accepted(self):
        result = report.make_result(self.values, [], 1, self.benchmark, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in self.benchmark["end_to_end"]})

    def test_failed_run_marks_result_incorrect(self):
        result = report.make_result(self.values, [("plain run 1", ["x"])],
                                    2, self.benchmark, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_unknown_metric_name_is_rejected(self):
        self.values["maccs_typo"] = 1.0
        with self.assertRaisesRegex(report.BenchmarkError, "unknown metric"):
            report.make_result(self.values, [], 1, self.benchmark, 0)

    def test_missing_metric_is_rejected(self):
        del self.values["setup_s"]
        with self.assertRaisesRegex(report.BenchmarkError, "missing"):
            report.make_result(self.values, [], 1, self.benchmark, 0)

    def test_end_to_end_metric_in_traced_mode_is_rejected(self):
        with self.assertRaises(report.BenchmarkError):
            report.make_result(self.values, [], 1, self.benchmark, 1)

    def test_non_finite_value_is_rejected(self):
        self.values["maccs"] = float("nan")
        with self.assertRaisesRegex(report.BenchmarkError, "finite"):
            report.make_result(self.values, [], 1, self.benchmark, 0)


if __name__ == "__main__":
    unittest.main()
