"""Self-tests of the benchmark.

Usage: python3 perfbench/selftest.py

Checks the span self-time arithmetic on a hand-built span tree, and runs every
workload on a tiny config, with tracing off and on, to check that each metric
declared in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import contextlib
import io
import json
import unittest
from dataclasses import replace

import run  # noqa: E402  (puts the package source on the path)
import instrument  # noqa: E402
import workloads  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]; e is a root
        records = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 9.0, 0],
                   ["d", 6.0, 7.0, 2], ["e", 11.0, 12.5, -1], ["b", 11.5, 12.0, 4]]
        table = instrument.self_time_table(records)
        self.assertEqual(table["a"], [10.0, 3.0, 1])
        self.assertEqual(table["b"], [3.5, 3.5, 2])
        self.assertEqual(table["c"], [4.0, 3.0, 1])
        self.assertEqual(table["d"], [1.0, 1.0, 1])
        self.assertEqual(table["e"], [1.5, 1.0, 1])

    def test_spans_record_their_parent(self):
        spans = instrument.Spans()
        outer = spans.open("outer")
        inner = spans.open("inner")
        spans.close(inner)
        sibling = spans.open("sibling")
        spans.close(sibling)
        spans.close(outer)
        self.assertEqual([r[3] for r in spans.records], [-1, outer, outer])
        for name, start, end, _ in spans.records:
            self.assertLessEqual(start, end, name)


TINY = dict(n_tasks=2, samples_per_class=32, batch_size=16, d_model=16, n_heads=2,
            n_blocks=1)


class SmokeTest(unittest.TestCase):
    def setUp(self):
        self.saved = dict(workloads.WORKLOADS)
        for name, w in self.saved.items():
            extra = {"n_orders": 2} if w.grid_jobs else {}
            workloads.WORKLOADS[name] = replace(w, config=replace(w.config, **TINY, **extra))

    def tearDown(self):
        workloads.WORKLOADS.clear()
        workloads.WORKLOADS.update(self.saved)

    def run_bench(self, name: str, trace: int) -> tuple[list[str], dict]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", name, "--seconds", "0", "--trace", str(trace)])
        self.assertEqual(code, 0)
        lines = out.getvalue().splitlines()
        return lines, json.loads(lines[-1])

    def test_every_metric_printed_with_its_unit(self):
        for name in sorted(workloads.WORKLOADS):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    lines, result = self.run_bench(name, trace)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1 + trace)
                    self.assertEqual(result["failed"], 0)
                    units = run.declared_metrics(kind)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()}, units)
                    for metric, unit in units.items():
                        self.assertTrue(any(line.split()[:1] == [metric]
                                            and line.split()[-1] == unit
                                            for line in lines[:-1]), metric)
                    if trace:
                        metrics = result["metrics"]
                        self.assertGreater(metrics["autodiff.tape_records_per_step"]["value"], 0)
                        self.assertGreater(metrics["autodiff.matmul.calls"]["value"], 0)
                        grid = bool(workloads.WORKLOADS[name].grid_jobs)
                        self.assertEqual(metrics["arrayio.files_written"]["value"] > 0, grid)


if __name__ == "__main__":
    unittest.main()
