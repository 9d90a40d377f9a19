"""Acceptance suite: one test per top-level criterion.

Every exact criterion is checked at zero tolerance (literal rational
equality); the Monte Carlo criterion gates on 4 standard errors per
bucket.  Each test prints a single pass/fail line on completion.
"""

import json
from fractions import Fraction

import pytest

from clpartitions import cli, oracle, verify
from clpartitions.partitions import (
    aut_order,
    partitions_of,
    product_over_irreducibles_series,
)
from clpartitions.sampler import (
    TAIL_MASS_BOUND,
    SamplerConfig,
    cor1_part1,
    cor1_part2,
    empirical_vs_corollary,
    kernel_row,
    kernel_row_infinite,
    u_over_q_infinite_value,
)
from clpartitions.series import multiply
from clpartitions.verify import (
    gl_order,
    pochhammer_infinite_u_over_q,
    sum_wellknown_identity_lhs,
)


def report(number, name, passed=True):
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed


N_MAX = verify.VerifierConfig().n_max


def test_01_eq1_three_way_agreement():
    for q in verify.PRIMES:
        rep = verify.run_eq_check("eq1", q, n_max=N_MAX, order=8)
        assert rep.passed, rep.detail
    assert oracle.count_pairs(1, 2) == 3
    assert oracle.count_pairs(2, 2) == 40
    rhs = verify.eq1_rhs_series(2, 8)
    assert rhs[1] == 3 and rhs[2] == Fraction(20, 3)
    report(1, "mutually-annihilating-pair identity, three routes agree")


def test_02_eq2_three_way_agreement():
    for q in verify.PRIMES:
        rep = verify.run_eq_check("eq2", q, n_max=N_MAX, order=8)
        assert rep.passed, rep.detail
    assert oracle.count_nilpotent_pairs(2, 2) == 10
    assert verify.eq2_rhs_series(2, 8)[2] == Fraction(5, 3)
    assert oracle.count_nilpotent_pairs(2, 3) == 33
    assert verify.eq2_rhs_series(3, 8)[2] == Fraction(33, 48)
    report(2, "nilpotent-pair identity, three routes agree")


def test_03_rational_q_identity_suite():
    for q in verify.RATIONAL_QS:
        for rep in verify.run_rational_q_check(q, 8):
            assert rep.passed, f"{rep.check_name} at q={q}: {rep.detail}"
    report(3, "middle/rhs coefficient equality at rational q, order 8")


def test_04_lemma2_exhaustive():
    for p in verify.PRIMES:
        for n in range(1, N_MAX + 1):
            assert oracle.find_lemma2_counterexample(n, p) is None
    report(4, "annihilator dimension equals (n - rank)^2, exhaustive")


def test_05_lemma3_exhaustive():
    for p in verify.PRIMES:
        for n in range(1, N_MAX + 1):
            assert oracle.find_lemma3_counterexample(n, p) is None
    report(5, "nilpotent annihilator count equals p^(m^2 - d), exhaustive")


def test_06_jordan_type_counts():
    cases = [(n, p) for p in verify.PRIMES for n in range(1, N_MAX + 1)]
    # the long runs that --include-n4 adds
    long_runs = verify._oracle_cases(verify.VerifierConfig(include_n4=True))
    cases += [(n, p) for p, n in long_runs if n > N_MAX]
    for n, p in cases:
        counts = oracle.count_nilpotent_by_type(n, p)
        for lam in partitions_of(n):
            expected = gl_order(n, p) / aut_order(lam, p)
            assert counts.get(lam, 0) == expected, (n, p, str(lam))
        assert sum(counts.values()) == p ** (n * n - n)
    report(6, "nilpotent counts by Jordan type match |GL|/|Aut|")


def test_07_product_over_irreducibles():
    for q in verify.PRIMES:
        assert product_over_irreducibles_series(q, 6) == [1] * 7
    report(7, "centralizer product over irreducibles equals 1/(1-u)")


def test_08_wellknown_identity():
    for q in verify.WELLKNOWN_QS:
        # the b-sum times Euler's expansion of (u/q)_inf
        product = multiply(
            sum_wellknown_identity_lhs(q, 8), pochhammer_infinite_u_over_q(q, 8)
        )
        assert product == [1] + [0] * 8
    report(8, "b-sum times Euler's expansion of (u/q)_inf equals 1, order 8")


def test_09_kernel_rows_and_corollary_consistency():
    u = Fraction(1, 2)
    for q in verify.PRIMES:
        for a in range(13):
            row = kernel_row(a, q, u)
            assert sum(row.probabilities) == 1
        uq_inf = u_over_q_infinite_value(q, u)
        row = kernel_row_infinite(q, u).probabilities
        tail = 1 - sum(cor1_part1(b, q, u, uq_inf) for b in range(len(row)))
        assert 0 <= tail < TAIL_MASS_BOUND
        for a in range(11):
            joint_sum = sum(cor1_part2(a, b, q, u, uq_inf) for b in range(a + 1))
            assert joint_sum == cor1_part1(a, q, u, uq_inf)
    report(9, "kernel rows stochastic; joint law sums to marginal exactly")


def test_10_sampler_statistics(capsys):
    cfg = SamplerConfig(q=2, u=Fraction(1, 2), seed=1, trials=100_000)
    buckets = empirical_vs_corollary(cfg)
    assert max(c.zscore for c in buckets) <= 4.0
    # byte-identical machine-readable report on rerun with the same seed
    args = ["--json", "verify", "sampler", "--seed", "1", "--trials", "20000"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert all(r["status"] == "pass" for r in json.loads(first))
    with capsys.disabled():
        report(10, "sampler marginals and joint law within 4 standard errors")
