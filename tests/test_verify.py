"""Tests for the verification harness and its CLI."""

import json
from fractions import Fraction

import pytest

from clpartitions import cli, partitions, sampler, verify
from clpartitions.partitions import Partition
from clpartitions.verify import (
    VerificationReport,
    eq1_rhs_series,
    eq2_rhs_series,
    fmt_rat,
    run_eq1_check,
    run_eq2_check,
    run_rational_q_check,
    run_wellknown_identity_check,
)


class TestFormatting:
    def test_fmt_rat(self):
        assert fmt_rat(Fraction(20, 3)) == "20/3"
        assert fmt_rat(Fraction(4)) == "4"
        assert fmt_rat(Fraction(-1, 2)) == "-1/2"

    def test_report_roundtrip(self):
        r = VerificationReport("eq1", {"q": 2, "N": 8}, "pass")
        d = r.to_dict()
        assert d["status"] == "pass" and d["check"] == "eq1"
        assert d["kind"] == "exact" and d["detail"] is None


class TestRhsSeries:
    def test_eq1_leading_coefficients(self):
        s = eq1_rhs_series(2, 4)
        assert s.coeffs[0] == 1
        assert s.coeffs[1] == 3
        assert s.coeffs[2] == Fraction(20, 3)

    def test_eq2_leading_coefficients(self):
        s = eq2_rhs_series(2, 4)
        assert s.coeffs[0] == 1
        assert s.coeffs[1] == 1
        assert s.coeffs[2] == Fraction(5, 3)

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            eq1_rhs_series(Fraction(1, 2), 4)


class TestChecks:
    def test_eq1_passes_and_exposes_triple(self):
        report, triple = run_eq1_check(2, 2, 6)
        assert report.passed
        assert triple.lhs_coeffs == triple.middle_coeffs[:3] == triple.rhs_coeffs[:3]
        assert triple.lhs_coeffs[2] == Fraction(20, 3)

    def test_eq2_passes(self):
        report, triple = run_eq2_check(3, 2, 6)
        assert report.passed
        assert triple.lhs_coeffs[2] == Fraction(33, 48)

    @pytest.mark.parametrize("q", [Fraction(5, 2), Fraction(10)])
    def test_rational_q(self, q):
        assert all(r.passed for r in run_rational_q_check(q, 8))

    def test_wellknown(self):
        assert run_wellknown_identity_check(Fraction(5, 2), 8).passed


class TestFaultInjection:
    def test_perturbed_aut_order_is_caught(self, monkeypatch):
        real = partitions.aut_order

        def perturbed(lam, q):
            val = real(lam, q)
            # wrong exponent for one specific type
            return val * Fraction(q) if lam == Partition((2, 1)) else val

        monkeypatch.setattr(partitions, "aut_order", perturbed)
        report, _ = run_eq1_check(2, 2, 6)
        assert not report.passed
        assert "u^3" in report.detail

    def test_corollary_total_mass_failure_keeps_check_id(self, monkeypatch):
        assert verify.run_corollary_consistency_check(2, Fraction(1, 2)).check_name == (
            "cor1-part2"
        )
        real = sampler.u_over_q_infinite_value
        # halving (u/q)_inf halves every law consistently, so only the mass is off
        monkeypatch.setattr(
            sampler, "u_over_q_infinite_value", lambda q, u: real(q, u) / 2
        )
        report = verify.run_corollary_consistency_check(2, Fraction(1, 2))
        assert not report.passed
        assert report.check_name == "cor1-part2"
        assert report.detail.startswith("marginal masses up to a=10 sum to")

    def test_cli_exit_one_on_failure(self, monkeypatch, capsys):
        real = partitions.aut_order
        monkeypatch.setattr(
            partitions,
            "aut_order",
            lambda lam, q: real(lam, q) * (2 if lam == Partition((1,)) else 1),
        )
        code = cli.main(["verify", "eq1", "--n-max", "1", "--order", "4"])
        assert code == cli.EXIT_FAIL
        out = capsys.readouterr().out
        assert "FAIL" in out and "eq1" in out


class TestCli:
    def test_series_subcommand(self, capsys):
        assert cli.main(["series", "eq1-rhs", "--q", "2", "--order", "2"]) == 0
        out = capsys.readouterr().out
        assert "u^2: 20/3" in out

    def test_series_rational_q(self, capsys):
        assert cli.main(["series", "eq1-middle", "--q", "5/2", "--order", "1"]) == 0

    def test_oracle_subcommand(self, capsys):
        assert cli.main(["oracle", "count-pairs", "--n", "2", "--p", "2"]) == 0
        assert capsys.readouterr().out.strip() == "40"

    def test_oracle_by_type(self, capsys):
        assert cli.main(["--json", "oracle", "by-type", "--n", "2", "--p", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"(2)": 3, "(1,1)": 1}

    def test_budget_exit_code(self, capsys):
        code = cli.main(
            ["oracle", "count-pairs", "--n", "3", "--p", "3", "--budget", "10"]
        )
        assert code == cli.EXIT_BUDGET

    def test_usage_exit_code(self, capsys):
        assert cli.main(["oracle", "count-pairs", "--n", "2", "--p", "7"]) == cli.EXIT_USAGE
        assert cli.main(["series", "eq1-rhs", "--q", "x", "--order", "2"]) == cli.EXIT_USAGE

    def test_verify_all_honours_n_max(self, capsys):
        args = ["--json", "verify", "all", "--n-max", "2", "--trials", "2000"]
        assert cli.main(args) == 0
        reports = json.loads(capsys.readouterr().out)
        lemma_ns = {
            (r["check"], r["parameters"]["p"], r["parameters"]["n"])
            for r in reports
            if r["check"] in ("lemma2", "lemma3", "counter-nilpotent")
        }
        assert lemma_ns == {
            (check, p, n)
            for check in ("lemma2", "lemma3", "counter-nilpotent")
            for p in ("2", "3")
            for n in ("1", "2")
        }

    def test_sample_deterministic(self, capsys):
        args = ["sample", "--q", "2", "--u", "1/2", "--seed", "9", "--trials", "20"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first

    def test_sampler_suite_json_deterministic(self, capsys):
        args = [
            "--json", "verify", "sampler", "--seed", "5", "--trials", "2000",
        ]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first
        reports = json.loads(first)
        assert {r["check"] for r in reports} == {
            "thm1-rows", "cor1-part2", "cor1-part1",
        }
        for r in reports:
            assert set(r) == {"check", "parameters", "status", "kind", "detail"}
            assert r["status"] == "pass"
