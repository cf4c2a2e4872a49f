#!/usr/bin/env python3
"""Unit tests for the baseline gate in bench_driver.py: metric
extraction from the bench reports, and the comparison against a
baseline such as bench/baseline.json.

    python3 tools/test_bench_driver.py
"""

import contextlib
import io
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_driver  # noqa: E402


def table(headers, *rows):
    return {"headers": headers, "rows": [list(row) for row in rows]}


def result(*tables):
    """One bench's entry as run_one returns it, holding one report."""
    return {"binary": "bench_fig99",
            "reports": [{"bench": "Figure 99", "tables": list(tables)}]}


def check(metrics, reference, threshold=15.0, allow_removed=None):
    """check_baseline with its notices kept off the test output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return bench_driver.check_baseline(
            metrics, {"metrics": reference}, threshold, allow_removed)


class ExtractMetrics(unittest.TestCase):
    def test_wall_and_rss_columns_are_skipped(self):
        metrics = bench_driver.extract_metrics([result(table(
            ["scenario", "Mbps", "wall s", "Wall (ms)", "peak RSS MB"],
            ["chain-3", "0.5", "1.2", "30", "40"]))])
        self.assertEqual(metrics, {"Figure 99/t0/chain-3/c1:Mbps": 0.5})

    def test_a_cells_leading_number_is_parsed(self):
        metrics = bench_driver.extract_metrics([result(
            table(["policy", "BA"], ["x", "7"]),
            table(["rate", "thr", "gain", "gap", "label"],
                  ["1.3 Mbps", "0.275 Mbps", "10.9%", "-3.3%", "chain-8"]))])
        self.assertEqual(metrics, {
            "Figure 99/t0/x/c1:BA": 7.0,
            "Figure 99/t1/1.3 Mbps/c1:thr": 0.275,
            "Figure 99/t1/1.3 Mbps/c2:gain": 10.9,
            "Figure 99/t1/1.3 Mbps/c3:gap": -3.3,
        })
        self.assertIsNone(bench_driver.cell_value("DBA"))
        self.assertEqual(bench_driver.cell_value(" 12 "), 12.0)

    def test_a_duplicate_key_exits(self):
        duplicate = result(table(["rate", "Mbps"], ["1", "0.5"], ["1", "0.6"]))
        with self.assertRaises(SystemExit):
            bench_driver.extract_metrics([duplicate])


class CheckBaseline(unittest.TestCase):
    BASE = {"a/t0/x/c1:Mbps": 1.0, "a/t0/y/c1:Mbps": 2.0,
            "b/t1/z/c2:gain": 0.0}

    def test_an_identical_run_passes_and_new_keys_are_only_noted(self):
        self.assertEqual(check(dict(self.BASE), self.BASE), [])
        grown = dict(self.BASE, **{"c/t0/new/c1:Mbps": 5.0})
        self.assertEqual(check(grown, self.BASE), [])

    def test_a_missing_key_fails(self):
        run = dict(self.BASE)
        del run["a/t0/y/c1:Mbps"]
        failures = check(run, self.BASE)
        self.assertEqual(len(failures), 1)
        self.assertIn("missing metric", failures[0])
        self.assertIn("a/t0/y/c1:Mbps", failures[0])

    def test_allow_removed_passes_with_an_exact_key_and_with_a_prefix(self):
        run = {"b/t1/z/c2:gain": 0.0}
        self.assertEqual(
            check(run, self.BASE,
                  allow_removed=["a/t0/x/c1:Mbps", "a/t0/y/c1:Mbps"]), [])
        self.assertEqual(check(run, self.BASE, allow_removed=["a/t0/"]), [])
        # Each name excuses only the keys it matches.
        self.assertEqual(
            len(check(run, self.BASE, allow_removed=["a/t0/x/c1:Mbps"])), 1)
        self.assertEqual(len(check(run, self.BASE, allow_removed=["b/"])), 2)

    def test_a_metric_leaving_zero_fails(self):
        failures = check(dict(self.BASE, **{"b/t1/z/c2:gain": 0.1}),
                         self.BASE)
        self.assertEqual(len(failures), 1)
        self.assertIn("changed from 0", failures[0])

    def test_a_shift_above_the_threshold_fails_and_one_below_passes(self):
        key = "a/t0/x/c1:Mbps"
        for new, verdict in ((1.16, 1), (0.84, 1), (1.14, 0), (0.86, 0)):
            with self.subTest(new=new):
                failures = check(dict(self.BASE, **{key: new}), self.BASE)
                self.assertEqual(len(failures), verdict)
        failures = check(dict(self.BASE, **{key: 1.16}), self.BASE,
                         threshold=20.0)
        self.assertEqual(failures, [])
        self.assertIn("shifted",
                      check(dict(self.BASE, **{key: 1.16}), self.BASE)[0])


if __name__ == "__main__":
    unittest.main()
