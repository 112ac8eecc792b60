"""Self-tests of the benchmark: python3 perfbench/selftest.py

They check the benchmark's own machinery on small inputs: seeded inputs
are byte-identical, a wrong answer is counted as a failure, known defects
are matched narrowly, and the span wrappers change no result.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import logcharts  # noqa: E402
import logcharts.cli  # noqa: E402,F401
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def small_compare():
    """The compare workload cut down to its bound-1 and bound-3 ops."""
    wl = workloads.WORKLOADS["compare"]
    inputs = wl.inputs(7)
    ops = [op for op in inputs["ops"] if op["bound"] <= 3]
    return wl, wl.setup(logcharts, inputs, ROOT), ops


class InputsTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                first = json.dumps(wl.inputs(3), sort_keys=True).encode()
                again = json.dumps(wl.inputs(3), sort_keys=True).encode()
                other = json.dumps(wl.inputs(4), sort_keys=True).encode()
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)

    def test_cycle_mix_does_not_depend_on_seed(self):
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                mixes = [sorted(op["family"] for op in wl.inputs(seed)["ops"])
                         for seed in (1, 2)]
                self.assertEqual(mixes[0], mixes[1])


class FailureCountTest(unittest.TestCase):
    def test_injected_wrong_answer_counts_in_failed_share(self):
        wl, state, ops = small_compare()
        clean = worker.summarize(ops, worker.run_loop(wl, state, ops, 0, max_cycles=1),
                                 worker.known_defects())
        self.assertEqual(clean["failed_all"], 0)

        wrong = copy.deepcopy(ops)
        wrong[0]["expect"]["torus_rank"] += 1
        summary = worker.summarize(wrong, worker.run_loop(wl, state, wrong, 0, max_cycles=1),
                                   worker.known_defects())
        self.assertEqual(summary["failed_all"], 1)
        self.assertEqual(summary["failed_unexplained"], 1)
        self.assertAlmostEqual(summary["failed_share"], 1 / len(wrong))

    def test_wrong_exit_code_is_a_failure(self):
        wl = workloads.WORKLOADS["cli"]
        op = {"family": "info", "expect": {"exit": 0, "checks": []}}
        self.assertEqual(wl.check(op, (2, b"")), "exit-2")
        self.assertIsNone(wl.check(op, (0, b"{}")))

    def test_known_defects_match_narrowly(self):
        defects = worker.known_defects()
        op = {"family": "hilbert-cone", "params": {"a": 3}}
        self.assertEqual(worker.explain(op, "RelationSynthesisIncomplete", defects),
                         "relation-synthesis")
        self.assertIsNone(worker.explain(op, "wrong-answer", defects))
        self.assertIsNone(worker.explain(dict(op, params={"a": 2}),
                                         "RelationSynthesisIncomplete", defects))


class WrapperTest(unittest.TestCase):
    def test_traced_outputs_match_and_wrappers_come_off(self):
        wl, state, ops = small_compare()
        original = logcharts.monoid.stalk
        plain = worker.run_loop(wl, state, ops, 0, digests=True, max_cycles=1,
                                calibrated=False)
        trace = tracing.Tracer()
        trace.install()
        try:
            self.assertIsNot(logcharts.fibers.stalk, original)
            self.assertIs(logcharts.fibers.stalk, logcharts.strata.stalk)
            traced = worker.run_loop(wl, state, ops, 0, trace=trace, digests=True,
                                     max_cycles=1, calibrated=False)
        finally:
            trace.uninstall()
        self.assertIs(logcharts.fibers.stalk, original)
        self.assertIs(logcharts.monoid.stalk, original)
        self.assertEqual(plain["digests"], traced["digests"])
        stats = trace.stats()
        self.assertEqual(stats["ops"], len(ops))
        self.assertGreater(stats["names"]["monoid.stalk"][0], 0)
        self.assertGreater(stats["names"]["profin.FiniteAbelianProSystem.level"][0], 0)
        self.assertEqual(tracing.uncovered("compare", stats), [])

    def test_self_time_excludes_children(self):
        trace = tracing.Tracer()
        outer_id, inner_id = trace.name_id("outer"), trace.name_id("inner")

        def inner():
            return sum(range(20000))

        def outer():
            return trace.call(inner_id, None, inner, (), {}) + 1

        trace.begin_op(0)
        trace.call(outer_id, None, outer, (), {})
        trace.end_op()
        spans = trace.span_end[1] - trace.span_start[1], trace.span_end[2] - trace.span_start[2]
        self.assertEqual(list(trace.span_parent), [-1, 0, 1])
        self.assertAlmostEqual(trace.self_s[outer_id], spans[0] - spans[1], places=9)
        self.assertAlmostEqual(trace.self_s[inner_id], spans[1], places=9)


if __name__ == "__main__":
    unittest.main()
