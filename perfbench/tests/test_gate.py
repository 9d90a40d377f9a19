"""Fault-injection self-test of the benchmark's correctness gate.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests

Each test starts from outputs that pass the gate (real CLI outputs, or
outputs rebuilt from goldens.json), injects one fault — a perturbed
output, a changed exit code or a corrupted golden — and shows that the
failed fraction rises above zero.
"""

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import gate  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Call, series_calls  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "goldens.json")) as fh:
    GOLDENS = json.load(fh)


def failed_frac(calls, outputs, goldens=GOLDENS) -> float:
    problems = gate.check_round(calls, outputs, goldens)
    return sum(1 for p in problems if p) / len(calls)


def cli_output(call) -> tuple[int, str]:
    result = run.run_child(call, False, run._now() + 120)
    assert "error" not in result, result
    return result["exit_code"], result["stdout"]


def reports_output(key: str) -> str:
    """A passing `verify` output rebuilt from the recorded report contents."""
    reports = []
    for i, content in enumerate(GOLDENS["reports"][key]):
        report = json.loads(content)
        report["check"] = f"check-{i}"
        reports.append(report)
    return json.dumps(reports)


class GateFaultInjection(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        q2 = [c for c in series_calls() if c.args[2:4] == ("--q", "2")]
        cls.series = [c for c in q2 if c.args[1].startswith("eq1")]  # middle, rhs
        cls.series_out = [cli_output(c) for c in cls.series]
        cls.stream = WORKLOADS["verify-default"].gate_calls(0)[0]
        cls.stream_out = cli_output(cls.stream)
        cls.verify = WORKLOADS["verify-default"].round(0)[0]
        cls.verify_out = (0, reports_output(cls.verify.key))
        cls.oracle = WORKLOADS["oracle-n4p2"].round(0)[0]
        cls.oracle_out = (0, json.dumps({"count": 394096}))

    def rounds(self):
        return [
            (self.series, list(self.series_out)),
            ([self.stream], [self.stream_out]),
            ([self.verify], [self.verify_out]),
            ([self.oracle], [self.oracle_out]),
        ]

    def test_clean_outputs_pass(self):
        for calls, outputs in self.rounds():
            self.assertEqual(failed_frac(calls, outputs), 0.0, calls[0].key)

    def test_renamed_check_still_passes(self):
        reports = json.loads(self.verify_out[1])
        reports[0]["check"] = "renamed"
        self.assertEqual(failed_frac([self.verify], [(0, json.dumps(reports))]), 0.0)

    def test_changed_exit_code_fails(self):
        for calls, outputs in self.rounds():
            outputs[0] = (1, outputs[0][1])
            self.assertGreater(failed_frac(calls, outputs), 0.0, calls[0].key)

    def test_missing_result_fails(self):
        for calls, outputs in self.rounds():
            outputs[0] = None
            self.assertGreater(failed_frac(calls, outputs), 0.0, calls[0].key)

    def test_perturbed_series_fails(self):
        code, text = self.series_out[0]
        data = json.loads(text)
        data["coefficients"][5] = data["coefficients"][5] + "1"
        outputs = [(code, json.dumps(data)), self.series_out[1]]
        self.assertEqual(failed_frac(self.series, outputs), 0.5)

    def test_middle_rhs_disagreement_fails(self):
        # both match their own golden, but one is replaced by the other route
        # of a different q, so the round-level middle == rhs check fires
        other = [c for c in series_calls() if c.args[1] == "eq1-rhs" and c.args[3] == "10"][0]
        outputs = [self.series_out[0], cli_output(other)]
        self.assertGreater(failed_frac(self.series, outputs), 0.0)

    def test_failing_report_fails(self):
        reports = json.loads(self.verify_out[1])
        reports[3]["status"] = "fail"
        self.assertGreater(failed_frac([self.verify], [(0, json.dumps(reports))]), 0.0)

    def test_dropped_report_fails(self):
        reports = json.loads(self.verify_out[1])[1:]
        self.assertGreater(failed_frac([self.verify], [(0, json.dumps(reports))]), 0.0)

    def test_changed_statistical_detail_fails(self):
        reports = json.loads(self.verify_out[1])
        stat = next(r for r in reports if r["kind"] == "statistical")
        stat["detail"] = stat["detail"].replace("max z-score ", "max z-score 9")
        self.assertGreater(failed_frac([self.verify], [(0, json.dumps(reports))]), 0.0)

    def test_wrong_count_fails(self):
        outputs = [(0, json.dumps({"count": 394095}))]
        self.assertGreater(failed_frac([self.oracle], outputs), 0.0)

    def test_perturbed_stream_fails(self):
        stream = json.loads(self.stream_out[1])
        stream[7] = [1] + stream[7]
        self.assertGreater(failed_frac([self.stream], [(0, json.dumps(stream))]), 0.0)

    def test_non_json_output_fails(self):
        self.assertGreater(failed_frac([self.oracle], [(0, "394096")]), 0.0)

    def test_corrupted_golden_fails(self):
        for calls, outputs in self.rounds():
            goldens = copy.deepcopy(GOLDENS)
            table = goldens[calls[0].kind]
            value = table[calls[0].key]
            if isinstance(value, list):
                value[0] = value[0][::-1]
            elif isinstance(value, int):
                table[calls[0].key] = value + 1
            else:
                table[calls[0].key] = value[::-1]
            self.assertGreater(failed_frac(calls, outputs, goldens), 0.0, calls[0].key)

    def test_unknown_call_fails(self):
        call = Call(("oracle", "count-pairs", "--n", "3", "--p", "2"), "count")
        self.assertGreater(failed_frac([call], [(0, json.dumps({"count": 1}))]), 0.0)


if __name__ == "__main__":
    unittest.main()
