"""Self-tests of the benchmark harness (not part of the package's test suite).

    python3 perfbench/test_harness.py

Run from the root of a checkout; the cache-guard tests import ./src.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, inclusive_times, self_rss_kib, self_times  # noqa: E402
from worker import run_pass  # noqa: E402


def span(sid, parent, name, start, end, rss0=0, rss1=0):
    return [sid, parent, name, start, end, rss0, rss1]


class SelfTime(unittest.TestCase):
    def test_nest(self):
        nest = [
            span(1, 0, "a", 0.0, 10.0),
            span(2, 1, "b", 1.0, 4.0),
            span(3, 1, "b", 5.0, 7.0),
            span(4, 2, "c", 2.0, 3.0),
        ]
        self.assertEqual(self_times(nest), {"a": 5.0, "b": 4.0, "c": 1.0})

    def test_overlapping_children_count_once(self):
        nest = [span(1, 0, "a", 0.0, 10.0), span(2, 1, "b", 1.0, 4.0),
                span(3, 1, "b", 3.0, 6.0)]
        self.assertEqual(self_times(nest)["a"], 5.0)

    def test_inclusive_group_counts_outermost_only(self):
        nest = [span(1, 0, "x", 0.0, 10.0), span(2, 1, "y", 1.0, 3.0),
                span(3, 0, "y", 11.0, 12.0)]
        groups = {"x": "g", "y": "g"}
        self.assertEqual(inclusive_times(nest, groups), {"g": 11.0})

    def test_rss_rise_goes_to_innermost_span(self):
        nest = [span(1, 0, "a", 0, 3, 100, 900), span(2, 1, "b", 1, 2, 150, 850)]
        self.assertEqual(self_rss_kib(nest), {"a": 100, "b": 700})

    def test_wrapped_calls_nest(self):
        ticks = iter(range(100))
        t = Tracer("t", clock=lambda: float(next(ticks)), rss=lambda: 0)
        inner = t.wrap(lambda: None, "inner")
        outer = t.wrap(lambda: inner() or inner(), "outer")
        outer()
        # outer 0..5, inner 1..2 and 3..4
        self.assertEqual(self_times(t.spans), {"outer": 3.0, "inner": 2.0})
        self.assertEqual({s[spans.NAME]: s[spans.PARENT] for s in t.spans}["inner"], 1)


class Oracle(unittest.TestCase):
    def test_twist(self):
        good = {"burnside": {"count": 81, "expected": 81, "n_js": [513] + [57] * 18}}
        self.assertIsNone(workloads.check_twist(good))
        bad = json.loads(json.dumps(good))
        bad["burnside"]["n_js"][5] = 58
        self.assertIn("n_js", workloads.check_twist(bad))
        bad = json.loads(json.dumps(good))
        bad["burnside"]["count"] = 82
        self.assertIn("count", workloads.check_twist(bad))

    def test_extension_counts(self):
        self.assertIsNone(workloads.check_hermitian_k2({"total": 513}))
        self.assertIsNotNone(workloads.check_hermitian_k2({"total": 514}))
        self.assertIsNone(workloads.check_rational_k2({"resolved_total": 476}))
        self.assertIsNotNone(workloads.check_rational_k2({"resolved_total": 469}))

    def test_fibers(self):
        good = {"total_points": 18126, "histogram": {1: 3, 3: 6041}}
        self.assertIsNone(workloads.check_fibers(good))
        self.assertIsNotNone(workloads.check_fibers({**good, "histogram": {1: 4, 3: 6041}}))
        self.assertIsNotNone(workloads.check_fibers({**good, "total_points": 18127}))

    def test_paper_rejects_skip_and_missing_criterion(self):
        rows = [{"name": c, "passed": True, "skipped": False} for c in spans.CRITERIA]
        self.assertIsNone(workloads.check_paper(rows))
        self.assertIsNotNone(workloads.check_paper(rows[:-1]))
        rows[3] = {**rows[3], "passed": False, "skipped": True}
        self.assertIn(rows[3]["name"], workloads.check_paper(rows))

    def test_failed_exit_is_a_problem(self):
        job = workloads.cli_job("bad", ["count", "--model", "hermitian"], lambda p: None)
        with tempfile.TemporaryDirectory() as d:
            out = job.run(d)
        self.assertIsNotNone(job.check(out))


class CacheGuard(unittest.TestCase):
    tiny = ["count", "--model", "hermitian", "--sqrt-q", "2"]

    def run_guarded(self, jobs, cache_dir):
        tracer = Tracer("guard")
        spans.install_cache_guard(tracer)
        try:
            return run_pass(jobs, Path(cache_dir), tracer)
        finally:
            tracer.uninstall()

    def test_warm_directory_fails_the_pass(self):
        job = workloads.cli_job("tiny", self.tiny, lambda p: None)
        with tempfile.TemporaryDirectory() as d:
            cold = self.run_guarded([job], d)
            warm = self.run_guarded([job], d)
        self.assertTrue(cold["cold"])
        self.assertEqual(cold["failed"], 0)
        self.assertFalse(warm["cold"])
        self.assertTrue(warm["warm_cache_dir"])
        self.assertEqual(warm["cache_get_hits"], 1)
        self.assertEqual(warm["failed"], 1)

    def test_hit_within_a_pass_fails_it(self):
        jobs = [workloads.cli_job(f"tiny{i}", self.tiny, lambda p: None) for i in range(2)]
        with tempfile.TemporaryDirectory() as d:
            res = self.run_guarded(jobs, d)
        self.assertFalse(res["warm_cache_dir"])
        self.assertEqual(res["cache_get_hits"], 1)
        self.assertEqual(res["failed"], 2)


class Installation(unittest.TestCase):
    def test_rebinds_every_namespace_and_restores(self):
        from maxcurves import fields, quotients
        import maxcurves

        embed, lang = fields.embed, quotients.lang_solve
        ensure_tables = fields.ExtField.__dict__["ensure_tables"]
        t = Tracer("install")
        spans.install_layers(t)
        try:
            self.assertIsNot(quotients.embed, embed)
            self.assertIs(quotients.embed, fields.embed)
            self.assertIs(maxcurves.lang_solve, quotients.lang_solve)
            F = fields.build_field(5, 2)
            quotients.embed(F, fields.build_field(5, 4))
            metrics = spans.layer_metrics(t, {})
        finally:
            t.uninstall()
        self.assertIs(quotients.embed, embed)
        self.assertIs(maxcurves.lang_solve, lang)
        self.assertIs(fields.ExtField.__dict__["ensure_tables"], ensure_tables)
        self.assertGreaterEqual(metrics["fields.build_field.calls"], 2)
        self.assertGreater(metrics["fields.embed.s"], 0)

    def test_benchmark_json_matches_the_code(self):
        import run

        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         list(spans.PER_LAYER))
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
