#!/usr/bin/env python3
"""Unit tests of perfbench/run.py: metric names, spread, result checks.

  python3 perfbench/test_run.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class MetricNames(unittest.TestCase):
    def test_valid(self):
        for name in ("qps", "p99_us", "serve.exec.rows_scanned", "infer.rtt-colo_ms", "9x", "a" * 64):
            self.assertTrue(run.valid_metric_name(name), name)

    def test_invalid(self):
        for name in ("", "_x", ".x", "-x", "p99 us", "req/s", "µs", "a" * 65, None, 3):
            self.assertFalse(run.valid_metric_name(name), repr(name))

    def test_spec_names(self):
        spec = run.load_spec(run.ROOT / "BENCHMARK.json")
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "metric names are used once")
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])


class Spread(unittest.TestCase):
    def test_quartiles(self):
        med, q1, q3, spr = run.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(med, 5.5)
        # statistics.quantiles' default (exclusive) method.
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(spr, (8.25 - 2.75) / 5.5)

    def test_constant(self):
        self.assertEqual(run.spread([4.0] * 10), (4.0, 4.0, 4.0, 0.0))


class ParseResult(unittest.TestCase):
    expected = {"qps": "req/s", "setup_s": "s"}

    def line(self, **over):
        res = {"correct": True, "attempted": 10, "failed": 0,
               "metrics": {"qps": {"value": 1.5, "unit": "req/s"},
                           "setup_s": {"value": 0.25, "unit": "s"}}}
        res.update(over)
        return "human line\n" + json.dumps(res) + "\n"

    def test_accepts_contract_line(self):
        res = run.parse_result(self.line(), self.expected)
        self.assertEqual(res["metrics"]["qps"]["value"], 1.5)

    def test_rejects(self):
        bad = [
            self.line(attempted=0),
            self.line(failed=1.5),
            self.line(correct="yes"),
            self.line(metrics={"qps": {"value": 1.5, "unit": "req/s"}}),
            self.line(metrics={"qps": {"value": 1.5, "unit": "ms"},
                               "setup_s": {"value": 0.25, "unit": "s"}}),
            self.line(metrics={"qps": {"value": None, "unit": "req/s"},
                               "setup_s": {"value": 0.25, "unit": "s"}}),
            "",
        ]
        for text in bad:
            with self.assertRaises((run.BenchError, ValueError), msg=text):
                run.parse_result(text, self.expected)

    def test_rejects_extra_key(self):
        text = self.line().replace('"failed": 0', '"failed": 0, "extra": 1')
        with self.assertRaises(run.BenchError):
            run.parse_result(text, self.expected)


if __name__ == "__main__":
    unittest.main()
