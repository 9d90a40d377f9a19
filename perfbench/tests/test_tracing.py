"""Self-test of the layer tracer: discovery, attribution, determinism, accounting.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [BENCH, SRC]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Call  # noqa: E402

SMALL = Call(("verify", "eq2", "--n-max", "2", "--order", "4"), "reports")


def traced_round():
    result = run.run_child(SMALL, True, run._now() + 120)
    assert "error" not in result, result
    assert result["exit_code"] == 0, result
    trace = run.merge_traces([result["trace"]])
    return run.layer_metrics(trace, reports=0), trace, result["verdict_s"]


class TracedCall(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.first, cls.first_trace, cls.first_verdict = traced_round()
        cls.second, _, _ = traced_round()

    def test_layers_are_the_package_modules(self):
        modules = sorted(
            name[:-3]
            for name in os.listdir(os.path.join(SRC, "clpartitions"))
            if name.endswith(".py") and name != "__init__.py"
        )
        self.assertEqual(sorted(self.first_trace["self_s"]), modules)

    def test_exact_counters_repeat(self):
        for key in run.EXACT_COUNTERS:
            self.assertEqual(self.first[key], self.second[key], key)

    def test_work_counters(self):
        # count_nilpotent_pairs(n, q) for q in (2, 3), n = 0..2
        self.assertEqual(self.first["oracle.matrices"], (1 + 2 + 16) + (1 + 3 + 81))
        # eq2_middle_series(q, 4) for q in (2, 3): sizes 0..4
        self.assertEqual(self.first["partitions.terms"], 2 * (1 + 1 + 2 + 3 + 5))
        self.assertGreater(self.first["oracle.matmul_calls"], 0)
        self.assertEqual(self.first["sampler.draws"], 0)

    def test_self_times_account_for_root(self):
        self.assertLess(abs(run.accounting_residual(self.first_trace)), 1e-6)
        # the child's own timing of the call, taken apart from the tracer
        gap = run.coverage_gap(self.first_trace, self.first_verdict)
        self.assertLess(abs(gap), run.COVERAGE_TOLERANCE_S)
        self.assertGreater(self.first["trace.root_s"], 0.0)
        self.assertGreaterEqual(self.first["trace.untracked_s"], 0.0)


class InProcess(unittest.TestCase):
    def test_rebound_names_share_one_wrapper(self):
        import clpartitions
        from clpartitions import partitions, verify

        original = partitions.eq1_middle_series
        tracer = tracing.Tracer()
        tracer.install(clpartitions)
        try:
            self.assertIs(verify.eq1_middle_series, partitions.eq1_middle_series)
            self.assertIsNot(verify.eq1_middle_series, original)
            tracer.run_root(verify.run_rational_q_check, 2, 3)
            self.assertGreater(tracer.entries["partitions"], 0)
            self.assertGreater(tracer.group_time["verify.rhs_s"], 0.0)
        finally:
            tracer.uninstall()
        self.assertIs(partitions.eq1_middle_series, original)
        self.assertIs(verify.eq1_middle_series, original)

    def test_partition_count(self):
        self.assertEqual(
            [tracing.partition_count(s) for s in range(8)], [1, 1, 2, 3, 5, 7, 11, 15]
        )
        self.assertEqual(tracing.partition_count(26), 2436)


if __name__ == "__main__":
    unittest.main()
