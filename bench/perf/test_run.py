#!/usr/bin/env python3
"""Unit tests for the statistics, metric and check code in run.py.

    python3 bench/perf/test_run.py
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def fake_rep(**overrides):
    """A rep as hydra_perf prints it, with round numbers, as run_rep
    returns it (calibrated)."""
    rep = {
        "digest": "00000001", "failed": 0,
        "wall_s": 4.0, "setup_s": 1.0, "build_s": 0.8, "lists_s": 0.2,
        "teardown_s": 0.5, "positions_s": 0.1, "adjacency_s": 0.1,
        "next_hops_s": 0.3, "relays_s": 0.1, "tick_s": 0.5,
        "probe_move_s": 0.002, "probe_moves": 4, "probe_incremental_moves": 3,
        "peak_rss_kb": 2048, "tx": 100, "deliveries": 400, "events": 1000,
        "moves": 7, "rebuilds": 1, "allocs": 500, "alloc_bytes": 64000,
        "mac_data_frames": 50, "mac_subframes": 150, "mac_retries": 2,
        "mac_retry_drops": 0, "mac_collisions": 3, "mac_crc_failures": 1,
        "mac_queue_drops": 4, "tcp_retransmits": 5, "tcp_timeouts": 1,
        "tcp_acks_sent": 60, "tcp_acks_delayed": 6, "tcp_flows": 4,
        "tcp_flows_completed": 3,
        "cal_ms": [2.0, 2.0, 2.0],
        "op_ms": [1000.0, 1000.0],
    }
    rep.update(overrides)
    rep.setdefault("cal_at_op", [min(j, len(rep["op_ms"])) for j in range(len(rep["cal_ms"]))])
    return run.calibrate(rep)


class Statistics(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        self.assertEqual(run.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertAlmostEqual(run.percentile([1, 2, 3, 4], 90), 3.7)
        self.assertEqual(run.percentile([1, 2, 3, 4], 0), 1)
        self.assertEqual(run.percentile([1, 2, 3, 4], 100), 4)
        self.assertEqual(run.percentile([7.5], 99), 7.5)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_median_and_quartiles_match_the_statistics_module(self):
        values = [10, 3, 7, 1, 9, 4, 6, 2, 8, 5]
        self.assertEqual(run.median(values), 5.5)
        q1, q2, q3 = run.quartiles(values)
        self.assertEqual((q1, q2, q3), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual((q1, q3), (2.75, 8.25))
        self.assertAlmostEqual(run.spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(run.quartiles([3.0]), (3.0, 3.0, 3.0))

    def test_self_time_subtracts_the_children(self):
        self.assertAlmostEqual(run.self_time(10.0, [2.0, 3.0]), 5.0)
        self.assertEqual(run.self_time(4.0, []), 4.0)


class Metrics(unittest.TestCase):
    def test_times_are_scaled_by_the_calibration_samples(self):
        rep = fake_rep(cal_ms=[1.0, 2.0, 4.0])  # one window, median 2 ms -> x0.5
        m = run.end_to_end_metrics([rep])
        self.assertEqual(m["wall_s"], 2.0)
        self.assertEqual(m["setup_s"], 0.5)
        self.assertEqual(m["op_p50_ms"], 500.0)
        self.assertEqual(m["ops_per_s"], 2.0)  # 2 ops in 1 reference second
        self.assertEqual(m["peak_rss_mb"], 2.0)

    def test_end_to_end_takes_medians_over_reps_and_pools_ops(self):
        reps = [fake_rep(wall_s=w, cal_ms=[1.0], op_ms=ops)
                for w, ops in ((3.0, [1.0, 2.0]), (5.0, [3.0, 4.0]), (4.0, [5.0]))]
        m = run.end_to_end_metrics(reps)
        self.assertEqual(m["wall_s"], 4.0)
        self.assertEqual(m["op_p50_ms"], 3.0)
        self.assertAlmostEqual(m["op_p90_ms"], 4.6)
        self.assertEqual(set(m), set(run.END_TO_END))

    def test_layer_metrics(self):
        m = run.layer_metrics([fake_rep()], [])
        self.assertEqual(set(m), set(run.PER_LAYER))
        self.assertAlmostEqual(m["topo.build_rest_s"], (0.8 - 0.6) * 0.5)
        self.assertAlmostEqual(m["topo.build_share"], 0.4)
        self.assertAlmostEqual(m["topo.tick_share"], 0.25)
        self.assertAlmostEqual(m["phy.ns_per_delivery"], 2.0 * 0.5 * 1e9 / 400)
        self.assertAlmostEqual(m["phy.us_per_move"], 0.002 * 0.5 * 1e6 / 4)
        self.assertEqual(m["phy.incremental_ratio"], 0.75)
        self.assertEqual(m["phy.fanout"], 4.0)
        self.assertEqual(m["core.subframes_per_aggregate"], 3.0)
        self.assertEqual(m["tcp.flow_completion"], 0.75)
        self.assertEqual(m["trace.overhead_pct"], 0.0)

    def test_zero_denominators_read_as_zero(self):
        m = run.layer_metrics_of(fake_rep(tcp_flows=0, tcp_flows_completed=0,
                                          probe_moves=0, probe_incremental_moves=0))
        self.assertEqual(m["tcp.flow_completion"], 0.0)
        self.assertEqual(m["phy.us_per_move"], 0.0)

    def test_trace_overhead_compares_traced_to_untraced_op_time(self):
        traced = [fake_rep(op_ms=[1100.0])]
        untraced = [fake_rep(op_ms=[1000.0]), fake_rep(op_ms=[1000.0])]
        m = run.layer_metrics(traced, untraced)
        self.assertAlmostEqual(m["trace.overhead_pct"], 10.0)

    def test_each_op_is_scaled_by_the_samples_around_it(self):
        # One sample before the first op and after each op; the host runs
        # at full speed for the first 15 ops and at half speed after.
        cal = [1.0] * 16 + [2.0] * 15
        rep = fake_rep(op_ms=[10.0] * 15 + [20.0] * 15, cal_ms=cal,
                       cal_at_op=list(range(31)))
        self.assertEqual(rep["ref_op_ms"][:10], [10.0] * 10)
        self.assertEqual(rep["ref_op_ms"][-10:], [10.0] * 10)
        # The other times take the op-weighted factor, between the two.
        self.assertTrue(0.5 < rep["ref_scale"] < 1.0)
        with self.assertRaises(run.BenchError):
            fake_rep(cal_ms=[])


class Checks(unittest.TestCase):
    def test_digests_must_agree_and_match_the_record(self):
        recorded = {"w": {"1": "00000001"}}
        self.assertEqual(run.check_digests("w", 1, [fake_rep()], recorded), [])
        self.assertEqual(run.check_digests("w", 9, [fake_rep()], recorded), [])
        self.assertEqual(len(run.check_digests("w", 1, [fake_rep(digest="0000000f")],
                                               recorded)), 1)
        split = [fake_rep(), fake_rep(digest="0000000f")]
        self.assertEqual(len(run.check_digests("w", 9, split, recorded)), 1)

    def test_a_digest_mismatch_fails_every_op(self):
        record = run.summarize("w", 1, [fake_rep(digest="0000000f")], [],
                               {"w": {"1": "00000001"}})
        self.assertFalse(record["correct"])
        self.assertEqual(record["failed"], record["attempted"])


class Compare(unittest.TestCase):
    def test_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread(self):
        a = [10.0 + 0.1 * i for i in range(10)]
        b = [9.0 + 0.1 * i for i in range(10)]
        self.assertEqual(run.compare_metric(a, b, "lower", 0.1)["verdict"], "gain")
        self.assertNotEqual(run.compare_metric(a[:9], b[:9], "lower", 0.1)["verdict"],
                            "gain")
        b_mixed = b[:8] + [12.0, 12.0]
        self.assertEqual(run.compare_metric(a, b_mixed, "lower", 0.1)["verdict"], "ok")

    def test_direction_and_bound(self):
        a = [100.0] * 5
        self.assertEqual(run.compare_metric(a, [111.0] * 5, "lower", 0.1)["verdict"],
                         "regressed")
        self.assertEqual(run.compare_metric(a, [109.0] * 5, "lower", 0.1)["verdict"], "ok")
        self.assertEqual(run.compare_metric(a, [89.0] * 5, "higher", 0.1)["verdict"],
                         "regressed")
        self.assertEqual(run.compare_metric(a, [111.0] * 5, "higher", 0.1)["verdict"],
                         "ok")

    def test_a_noisy_parent_leaves_the_metric_unresolved(self):
        a = [80.0, 90.0, 100.0, 110.0, 120.0]
        b = [85.0, 95.0, 100.0, 105.0, 125.0]
        self.assertEqual(run.compare_metric(a, b, "lower", 0.1)["verdict"], "unresolved")


class BenchmarkJson(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        path = run.ROOT / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json next to this checkout")
        spec = json.loads(path.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]},
            run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
