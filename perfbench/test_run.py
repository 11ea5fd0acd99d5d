"""Unit tests of run.py's spread helper and result checks."""

import json
import statistics
import unittest

import run


class SpreadTest(unittest.TestCase):
    def test_matches_quantiles(self):
        # statistics.quantiles(1..10, n=4) == [2.75, 5.5, 8.25]
        self.assertAlmostEqual(run.spread(list(range(1, 11))),
                               (8.25 - 2.75) / 5.5)

    def test_order_does_not_matter(self):
        vals = [3.1, 2.9, 3.0, 3.3, 2.7, 3.05, 2.95, 3.2, 2.8, 3.15]
        self.assertAlmostEqual(run.spread(vals), run.spread(sorted(vals)))

    def test_constant_has_no_spread(self):
        self.assertEqual(run.spread([2.0] * 10), 0.0)

    def test_scale_free(self):
        vals = [1.0, 1.1, 0.9, 1.05, 0.95]
        self.assertAlmostEqual(run.spread(vals),
                               run.spread([v * 1000 for v in vals]))


class CheckResultTest(unittest.TestCase):
    def line(self, trace, **over):
        e2e, per_layer, _ = run.declared_metrics()
        names = per_layer if trace else e2e
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {n: {"value": 1.5, "unit": u}
                              for n, u in names.items()}}
        result.update(over)
        return json.dumps(result)

    def test_accepts_declared_metrics(self):
        for trace in (0, 1):
            self.assertTrue(run.check_result(self.line(trace), trace)
                            ["correct"])

    def test_rejects_missing_metric(self):
        result = json.loads(self.line(0))
        result["metrics"].pop("setup_s")
        with self.assertRaises(ValueError):
            run.check_result(json.dumps(result), 0)

    def test_rejects_wrong_unit(self):
        result = json.loads(self.line(0))
        result["metrics"]["setup_s"]["unit"] = "ms"
        with self.assertRaises(ValueError):
            run.check_result(json.dumps(result), 0)

    def test_rejects_zero_attempted(self):
        with self.assertRaises(ValueError):
            run.check_result(self.line(0, attempted=0), 0)

    def test_declared_bounds_within_contract(self):
        _, _, spec = run.declared_metrics()
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
