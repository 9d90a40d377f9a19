"""Verification harness: closed-form series, cross-checks, and reports.

Each check produces a :class:`VerificationReport`; exact checks require
literal equality of rationals, statistical checks gate on z-scores.  The
two headline identities are verified three ways where feasible:

  * oracle  — brute-force matrix counts over F_p, divided by |GL(n, p)|,
  * middle  — partition sums weighted by 1/|Aut(lambda)|,
  * rhs     — the closed q-series form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import oracle, partitions, sampler
from .partitions import (
    eq1_middle_series,
    eq2_middle_series,
    partitions_of,
    product_over_irreducibles_series,
    unnormalized_weight_series,
)
from .sampler import SamplerConfig, cor1_part1, cor1_part2, kernel_row
from .series import (
    PowerSeries,
    Rational,
    geometric_series,
    gl_order,
    pochhammer_finite,
    pochhammer_infinite_u_over_q,
    pochhammer_scalar,
    sum_wellknown_identity_lhs,
)


def fmt_rat(x: Fraction) -> str:
    """Exact num/den string; never a decimal."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


@dataclass
class VerificationReport:
    check_name: str
    parameters: dict
    status: str  # "pass" | "fail"
    kind: str = "exact"  # "exact" | "statistical"
    detail: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "check": self.check_name,
            "parameters": {k: str(v) for k, v in sorted(self.parameters.items())},
            "status": self.status,
            "kind": self.kind,
            "detail": self.detail,
        }


@dataclass
class EqTriple:
    """The three coefficient routes for one identity at one q."""

    lhs_coeffs: list[Fraction]  # oracle counts / |GL(n, q)|, indexed by n
    middle_coeffs: list[Fraction]
    rhs_coeffs: list[Fraction]


def eq1_rhs_series(q: Rational, order: int) -> PowerSeries:
    """(1/(1-u)) * sum_{a>=0} u^a / ((1/q)_a (u/q)_a), truncated.

    The u^a prefactor kills all a > order below the truncation, so the sum
    over a = 0..order is exact; each summand's (u/q)_a is expanded as an
    exact series and inverted.
    """
    q = Fraction(q)
    if q <= 1:
        raise ValueError("requires q > 1")
    u_over_q = PowerSeries.monomial(1, order, Fraction(1) / q)
    total = PowerSeries.zero(order)
    for a in range(order + 1):
        denom = pochhammer_finite(u_over_q, a, q) * pochhammer_scalar(1 / q, a, q)
        total = total + PowerSeries.monomial(a, order) * denom.inverse()
    return geometric_series(order) * total


def eq2_rhs_series(q: Rational, order: int) -> PowerSeries:
    """(1/(u/q)_inf) * sum_{c>=0} u^{2c} / (q^{c^2} (1/q)_c (u/q)_c), truncated."""
    q = Fraction(q)
    if q <= 1:
        raise ValueError("requires q > 1")
    u_over_q = PowerSeries.monomial(1, order, Fraction(1) / q)
    total = PowerSeries.zero(order)
    for c in range(order // 2 + 1):
        denom = (
            pochhammer_finite(u_over_q, c, q)
            * (q ** (c * c) * pochhammer_scalar(1 / q, c, q))
        )
        total = total + PowerSeries.monomial(2 * c, order) * denom.inverse()
    return pochhammer_infinite_u_over_q(q, order).inverse() * total


def _compare_series(
    name: str, params: dict, got: PowerSeries, want: PowerSeries
) -> VerificationReport:
    for k in range(min(got.order, want.order) + 1):
        if got.coeffs[k] != want.coeffs[k]:
            return VerificationReport(
                check_name=name,
                parameters=params,
                status="fail",
                detail=(
                    f"coefficient of u^{k}: {fmt_rat(got.coeffs[k])} "
                    f"!= {fmt_rat(want.coeffs[k])}"
                ),
            )
    return VerificationReport(check_name=name, parameters=params, status="pass")


def run_eq1_check(
    q: int,
    n_max: int,
    order: int,
    budget: int = oracle.DEFAULT_OUTER_BUDGET,
) -> tuple[VerificationReport, EqTriple]:
    """Three-way check of the mutually-annihilating-pair identity at prime q."""
    if order < n_max:
        raise ValueError("order must be >= n_max")
    middle = eq1_middle_series(q, order)
    rhs = eq1_rhs_series(q, order)
    lhs = [
        Fraction(oracle.count_pairs(n, q, budget)) / gl_order(n, q)
        for n in range(n_max + 1)
    ]
    triple = EqTriple(lhs, list(middle.coeffs), list(rhs.coeffs))
    params = {"q": q, "n_max": n_max, "N": order}
    report = _compare_series("eq1", params, middle, rhs)
    if report.passed:
        for n, val in enumerate(lhs):
            if val != rhs.coeffs[n]:
                report = VerificationReport(
                    check_name="eq1",
                    parameters=params,
                    status="fail",
                    detail=(
                        f"oracle coefficient of u^{n}: {fmt_rat(val)} "
                        f"!= q-series {fmt_rat(rhs.coeffs[n])}"
                    ),
                )
                break
    return report, triple


def run_eq2_check(
    q: int,
    n_max: int,
    order: int,
    budget: int = oracle.DEFAULT_OUTER_BUDGET,
) -> tuple[VerificationReport, EqTriple]:
    """Three-way check of the nilpotent-pair identity at prime q."""
    if order < n_max:
        raise ValueError("order must be >= n_max")
    middle = eq2_middle_series(q, order)
    rhs = eq2_rhs_series(q, order)
    lhs = [
        Fraction(oracle.count_nilpotent_pairs(n, q, budget)) / gl_order(n, q)
        for n in range(n_max + 1)
    ]
    triple = EqTriple(lhs, list(middle.coeffs), list(rhs.coeffs))
    params = {"q": q, "n_max": n_max, "N": order}
    report = _compare_series("eq2", params, middle, rhs)
    if report.passed:
        for n, val in enumerate(lhs):
            if val != rhs.coeffs[n]:
                report = VerificationReport(
                    check_name="eq2",
                    parameters=params,
                    status="fail",
                    detail=(
                        f"oracle coefficient of u^{n}: {fmt_rat(val)} "
                        f"!= q-series {fmt_rat(rhs.coeffs[n])}"
                    ),
                )
                break
    return report, triple


def run_rational_q_check(q: Rational, order: int) -> list[VerificationReport]:
    """middle == rhs for both identities at arbitrary rational q > 1."""
    q = Fraction(q)
    params = {"q": fmt_rat(q), "N": order}
    return [
        _compare_series(
            "eq1-rational-q", params, eq1_middle_series(q, order), eq1_rhs_series(q, order)
        ),
        _compare_series(
            "eq2-rational-q", params, eq2_middle_series(q, order), eq2_rhs_series(q, order)
        ),
    ]


def run_wellknown_identity_check(q: Rational, order: int) -> VerificationReport:
    """sum_b u^b/(q^b (1/q)_b) * (u/q)_inf == 1 up to *order*."""
    q = Fraction(q)
    product = sum_wellknown_identity_lhs(q, order) * pochhammer_infinite_u_over_q(
        q, order
    )
    return _compare_series(
        "wellknown-identity",
        {"q": fmt_rat(q), "N": order},
        product,
        PowerSeries.one(order),
    )


def run_measure_normalization_check(q: Rational, order: int) -> VerificationReport:
    """Total-mass check: sum of raw weights == 1/(u/q)_inf coefficientwise."""
    q = Fraction(q)
    return _compare_series(
        "measure-normalization",
        {"q": fmt_rat(q), "N": order},
        unnormalized_weight_series(q, order),
        pochhammer_infinite_u_over_q(q, order).inverse(),
    )


def run_irreducible_product_check(q: int, order: int) -> VerificationReport:
    """Centralizer product over irreducibles != z equals 1/(1-u)."""
    return _compare_series(
        "irreducible-product",
        {"q": q, "N": order},
        product_over_irreducibles_series(q, order),
        geometric_series(order),
    )


def run_lemma2_check(
    n: int, p: int, budget: int = oracle.DEFAULT_OUTER_BUDGET
) -> VerificationReport:
    """Exhaustive: annihilator dimension equals (n - rank)^2 for all of Mat_n(F_p)."""
    params = {"n": n, "p": p}
    counter = oracle.find_lemma2_counterexample(n, p, budget)
    if counter is None:
        return VerificationReport("lemma2", params, "pass")
    A, got, want = counter
    return VerificationReport(
        "lemma2",
        params,
        "fail",
        detail=f"A={A.entries}: dimension {got} != {want}",
    )


def run_lemma3_check(
    n: int, p: int, budget: int = oracle.DEFAULT_OUTER_BUDGET
) -> VerificationReport:
    """Exhaustive: nilpotent annihilator count equals p^{m^2 - d} for nilpotent A."""
    params = {"n": n, "p": p}
    counter = oracle.find_lemma3_counterexample(n, p, budget)
    if counter is None:
        return VerificationReport("lemma3", params, "pass")
    A, got, want = counter
    return VerificationReport(
        "lemma3",
        params,
        "fail",
        detail=f"A={A.entries}: count {got} != {want}",
    )


def run_jordan_type_count_check(
    n: int, p: int, budget: int = oracle.DEFAULT_OUTER_BUDGET
) -> VerificationReport:
    """Counts of nilpotents by Jordan type match |GL(n,p)| / |Aut(lambda)|.

    Also checks the totals against the nilpotent count p^{n^2 - n}.
    """
    params = {"n": n, "p": p}
    counts = oracle.count_nilpotent_by_type(n, p, budget)
    for lam in partitions_of(n):
        expected = gl_order(n, p) / partitions.aut_order(lam, p) if n else Fraction(1)
        got = counts.get(lam, 0)
        if got != expected:
            return VerificationReport(
                "counter-nilpotent",
                params,
                "fail",
                detail=f"type {lam}: enumerated {got} != {fmt_rat(expected)}",
            )
    total = sum(counts.values())
    if total != p ** (n * n - n):
        return VerificationReport(
            "counter-nilpotent",
            params,
            "fail",
            detail=f"total {total} != {p ** (n * n - n)}",
        )
    return VerificationReport("counter-nilpotent", params, "pass")


def run_kernel_row_check(
    q: int, u: Rational, a_max: int = 12
) -> VerificationReport:
    """Every finite kernel row up to a_max sums to exactly 1 (asserted on build)."""
    u = Fraction(u)
    params = {"q": q, "u": fmt_rat(u), "a_max": a_max}
    try:
        for a in range(a_max + 1):
            kernel_row(a, q, u)
    except sampler.KernelDomainError as exc:
        return VerificationReport("thm1-rows", params, "fail", detail=str(exc))
    return VerificationReport("thm1-rows", params, "pass")


def run_corollary_consistency_check(
    q: int, u: Rational, a_max: int = 10
) -> VerificationReport:
    """sum_b joint(a, b) == marginal(a) exactly, plus near-unit total mass."""
    u = Fraction(u)
    params = {"q": q, "u": fmt_rat(u), "a_max": a_max}
    uq_inf = sampler.u_over_q_infinite_value(q, u)
    total = Fraction(0)
    for a in range(a_max + 1):
        part1 = cor1_part1(a, q, u, uq_inf)
        part2_sum = sum(cor1_part2(a, b, q, u, uq_inf) for b in range(a + 1))
        if part1 != part2_sum:
            return VerificationReport(
                "cor1-part2",
                params,
                "fail",
                detail=(
                    f"a={a}: sum over b gives {fmt_rat(part2_sum)} "
                    f"!= marginal {fmt_rat(part1)}"
                ),
            )
        total += part1
    if not 1 - total < sampler.TAIL_MASS_BOUND * 2 ** (a_max + 4):
        return VerificationReport(
            "cor1-part2",
            params,
            "fail",
            detail=f"marginal masses up to a={a_max} sum to {float(total)}",
        )
    return VerificationReport("cor1-part2", params, "pass")


def run_sampler_check(cfg: SamplerConfig) -> tuple[VerificationReport, "sampler.SamplerComparison"]:
    """Monte Carlo: empirical bucket frequencies within 4 standard errors.

    Gates only on buckets with exact probability >= 1e-3; with that many
    buckets a global 4-sigma threshold is conservative even before any
    multiple-comparison (Bonferroni) adjustment.
    """
    comparison = sampler.empirical_vs_corollary(cfg)
    params = {
        "q": cfg.q,
        "u": fmt_rat(cfg.u),
        "seed": cfg.seed,
        "trials": cfg.trials,
    }
    if comparison.passed:
        report = VerificationReport(
            "cor1-part1", params, "pass", kind="statistical",
            detail=f"max z-score {comparison.max_zscore:.3f} over gated buckets",
        )
    else:
        worst = max(
            comparison.marginal + comparison.joint, key=lambda c: c.zscore
        )
        report = VerificationReport(
            "cor1-part1",
            params,
            "fail",
            kind="statistical",
            detail=(
                f"bucket {worst.label}: observed {worst.observed}/{cfg.trials}, "
                f"exact {fmt_rat(worst.exact)}, z={worst.zscore:.2f}"
            ),
        )
    return report, comparison


@dataclass
class VerifierConfig:
    """Parameters for the full default verification suite."""

    primes: tuple[int, ...] = (2, 3)
    rational_qs: tuple[Fraction, ...] = (
        Fraction(2),
        Fraction(3),
        Fraction(5, 2),
        Fraction(10),
    )
    u: Fraction = Fraction(1, 2)
    order: int = 8
    n_max: int = 3
    trials: int = 100_000
    seed: int = 1
    budget: int = oracle.DEFAULT_OUTER_BUDGET
    include_n4: bool = False


def run_all(config: VerifierConfig) -> list[VerificationReport]:
    """Run every check in the suite; results ordered by check name."""
    reports: list[VerificationReport] = []
    for q in config.primes:
        reports.append(run_eq1_check(q, config.n_max, config.order, config.budget)[0])
        reports.append(run_eq2_check(q, config.n_max, config.order, config.budget)[0])
        reports.append(run_irreducible_product_check(q, min(config.order, 6)))
        for n in range(1, config.n_max + 1):
            reports.append(run_lemma2_check(n, q, config.budget))
            reports.append(run_lemma3_check(n, q, config.budget))
            reports.append(run_jordan_type_count_check(n, q, config.budget))
        reports.append(run_kernel_row_check(q, config.u))
        reports.append(run_corollary_consistency_check(q, config.u))
    if config.include_n4:
        reports.append(run_jordan_type_count_check(4, 2, config.budget))
        reports.append(run_eq1_check(2, 4, config.order, config.budget)[0])
        reports.append(run_eq2_check(2, 4, config.order, config.budget)[0])
    for q in config.rational_qs:
        reports.extend(run_rational_q_check(q, config.order))
        if q in (Fraction(2), Fraction(3), Fraction(5, 2)):
            reports.append(run_wellknown_identity_check(q, config.order))
        reports.append(run_measure_normalization_check(q, config.order))
    cfg = SamplerConfig(
        q=config.primes[0], u=config.u, seed=config.seed, trials=config.trials
    )
    reports.append(run_sampler_check(cfg)[0])
    reports.sort(key=lambda r: (r.check_name, str(sorted(r.parameters.items()))))
    return reports
