"""Verification harness: closed-form series, cross-checks, and reports.

Each check produces a :class:`VerificationReport`; exact checks require
literal equality of rationals, statistical checks gate on z-scores.  The
two headline identities are verified three ways where feasible:

  * oracle  — brute-force matrix counts over F_p, divided by |GL(n, p)|,
  * middle  — partition sums weighted by 1/|Aut(lambda)|,
  * rhs     — the closed q-series form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Optional

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
    Rational,
    _exact,
    _pochhammer_numerators,
    gl_order,
    multiply,
    pochhammer_infinite_u_over_q,
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


def _sum_over_u_pochhammer(
    q: Fraction, order: int, step: int, q_exponent: Callable[[int], int]
) -> tuple[list[int], list[int], list[int]]:
    """sum_{i>=0} u^{step*i} / (q^{q_exponent(i)} (1/q)_i (u/q)_i) in integers.

    Returns (N, K, P): the coefficient of u^n is N_n / (a^K_n P_n), with
    q = a/b in lowest terms and P_n = prod_{k=1..n} (a^k - b^k).  The
    u^{step*i} prefactor kills all step*i > order below the truncation,
    so the sum over i = 0..order // step is exact.  With T_i = i(i+1)/2
    and E = q_exponent(i),

        1 / (q^E (1/q)_i) = b^E a^(T_i - E) / P_i,
        [u^j] 1/(u/q)_i   = X_j / a^(j i),

    where the integers X_j of term i are one list, advanced in place from
    those of term i - 1: 1/(u/q)_i = 1/(u/q)_{i-1} * 1/(1 - u b^i/a^i),
    and dividing by 1 - c*u is the recurrence x_j += c * x_{j-1}, which in
    numerators over a^(j i) reads X_j <- a^j X_j + b^i X_{j-1}.  Only
    u^0..u^{order - step*i}, the degrees that term i and later terms
    reach, are kept current.  So term i adds

        b^E a^(T_i - E - j i) X_j / P_i

    to u^n, n = step*i + j.  The coefficient of u^n is one integer over
    the common denominator a^K P_n, where -K is the least power of a met
    at u^n (found before the sum): each term is scaled by P_n / P_i, a
    product of consecutive factors a^k - b^k.
    """
    a, b = q.numerator, q.denominator
    terms = range(order // step + 1)
    rises = [[1] for _ in terms]  # rises[i][m] = P_(i+m) / P_i; rises[0] is P_n
    for i, rise in enumerate(rises):
        for k in range(i + 1, order + 1):
            rise.append(rise[-1] * (a**k - b**k))
    exponents = [q_exponent(i) for i in terms]
    bases = [i * (i + 1) // 2 - e for i, e in zip(terms, exponents)]  # T_i - E
    lows = [0] * (order + 1)  # -K per coefficient
    for i in terms:
        for j in range(order - step * i + 1):
            n = step * i + j
            lows[n] = min(lows[n], bases[i] - j * i)
    a_power = functools.cache(a.__pow__)
    numerators = [0] * (order + 1)
    xs = [1] + [0] * order  # X_0..X_order of term i
    for i in terms:
        top = order - step * i
        if i:
            c = b**i
            for j in range(1, top + 1):
                xs[j] = a_power(j) * xs[j] + c * xs[j - 1]
        weight = b ** exponents[i]
        rise = rises[i]
        for j in range(top + 1):
            n = step * i + j
            shift = bases[i] - j * i - lows[n]
            numerators[n] += weight * a_power(shift) * xs[j] * rise[n - i]
    return numerators, [-low for low in lows], rises[0]


def _inverse_euler(q: Fraction, order: int) -> tuple[list[int], int, list[int], list]:
    """(H, D, P, B): [u^n] 1/(u/q)_inf = H_n / (D P_n), and B[n][i] = [n; i].

    Euler's expansion E (`pochhammer_infinite_u_over_q`) is read as the
    integers e_i = E_i P_i, and [n; i] = P_n / (P_i P_(n-i)); both are
    checked divisions.  Then G_n = H_n / (e_0^(N+1) P_n) inverts E, with
    H_0 = e_0^N and H_n = -(sum_{i=1..n} e_i [n; i] H_(n-i)) / e_0 (checked).
    Euler's e_i = (-1)^i b^(i(i+1)/2) give e_0 = 1 = D; any other e_0 still
    inverts a wrong E exactly.  The b-sum, which equals 1/(u/q)_inf, is not read.
    """
    _, _, ps = _pochhammer_numerators(q, order)
    binomials = [
        [_exact(p, ps[i] * ps[n - i]) for i in range(n + 1)] for n, p in enumerate(ps)
    ]
    euler = pochhammer_infinite_u_over_q(q, order)
    es = [_exact(c.numerator * p, c.denominator) for c, p in zip(euler, ps)]
    hs = [es[0] ** order]
    for n, row in enumerate(binomials[1:], 1):
        total = sum(es[i] * row[i] * hs[n - i] for i in range(1, n + 1))
        hs.append(-_exact(total, es[0]))
    return hs, es[0] * hs[0], ps, binomials


def eq1_rhs_series(q: Rational, order: int) -> list[Fraction]:
    """(1/(1-u)) * sum_{a>=0} u^a / ((1/q)_a (u/q)_a), truncated.

    The factor 1/(1-u) is the prefix sum of the coefficients.
    """
    q = Fraction(q)
    if q <= 1:
        raise ValueError("requires q > 1")
    numerators, ks, ps = _sum_over_u_pochhammer(q, order, 1, lambda a: 0)
    sums = (Fraction(t, q.numerator**k * p) for t, k, p in zip(numerators, ks, ps))
    return list(accumulate(sums))


def eq2_rhs_series(q: Rational, order: int) -> list[Fraction]:
    """(1/(u/q)_inf) * sum_{c>=0} u^{2c} / (q^{c^2} (1/q)_c (u/q)_c), truncated.

    Both factors are integers over P_n, and P_n / (P_i P_(n-i)) = [n; i],
    so u^n of the product is one integer over D a^K_n P_n: K_j grows with
    j, since a term at u^j reaches u^(j+1) over one more power of a.
    """
    q = Fraction(q)
    if q <= 1:
        raise ValueError("requires q > 1")
    numerators, ks, _ = _sum_over_u_pochhammer(q, order, 2, lambda c: c * c)
    hs, common, ps, binomials = _inverse_euler(q, order)
    a_power = functools.cache(q.numerator.__pow__)
    out = []
    for n, (row, k) in enumerate(zip(binomials, ks)):
        terms = zip(hs, row, reversed(numerators[: n + 1]), reversed(ks[: n + 1]))
        total = sum(h * c * t * a_power(k - kt) for h, c, t, kt in terms)
        out.append(Fraction(total, common * a_power(k) * ps[n]))
    return out


def _compare_routes(name: str, params: dict, routes: dict) -> VerificationReport:
    """Compare the coefficients of every route (route name -> coefficients).

    A route with fewer than k+1 coefficients sits out at u^k.  On failure
    the detail names the first u^k at which any two routes differ and gives
    every route's value there.
    """
    for k in range(max(len(cs) for cs in routes.values())):
        values = {route: cs[k] for route, cs in routes.items() if k < len(cs)}
        if len(set(values.values())) > 1:
            shown = ", ".join(f"{route} {fmt_rat(v)}" for route, v in values.items())
            return VerificationReport(
                name, params, "fail", detail=f"coefficient of u^{k}: {shown}"
            )
    return VerificationReport(name, params, "pass")


def _eq_routes(name: str):
    """(middle series, rhs series, oracle count) of identity *name*.

    The table is built per call so that each route is the function bound
    in its module when the check runs.
    """
    return {
        "eq1": (eq1_middle_series, eq1_rhs_series, oracle.count_pairs),
        "eq2": (eq2_middle_series, eq2_rhs_series, oracle.count_nilpotent_pairs),
    }[name]


def run_eq_check(
    name: str,
    q: int,
    n_max: int,
    order: int,
    budget: int = oracle.DEFAULT_OUTER_BUDGET,
) -> VerificationReport:
    """Three-way check of identity *name* ("eq1" or "eq2") at prime q.

    The oracle gives the coefficients of u^0..u^{n_max}, the middle and
    rhs routes those of u^0..u^{order}; each is computed on its own.  On
    failure the detail names the first u^k at which any two routes differ
    and gives every route's value there.
    """
    if order < n_max:
        raise ValueError("order must be >= n_max")
    middle_series, rhs_series, count = _eq_routes(name)
    oracle_coeffs = [
        Fraction(count(n, q, budget)) / gl_order(n, q) for n in range(n_max + 1)
    ]
    routes = {
        "oracle": oracle_coeffs,
        "middle": middle_series(q, order),
        "rhs": rhs_series(q, order),
    }
    return _compare_routes(name, {"q": q, "n_max": n_max, "N": order}, routes)


def run_rational_q_check(q: Rational, order: int) -> list[VerificationReport]:
    """middle == rhs for both identities at arbitrary rational q > 1."""
    q = Fraction(q)
    params = {"q": fmt_rat(q), "N": order}
    reports = []
    for name in ("eq1", "eq2"):
        middle, rhs, _ = _eq_routes(name)
        routes = {"middle": middle(q, order), "rhs": rhs(q, order)}
        reports.append(_compare_routes(f"{name}-rational-q", params, routes))
    return reports


def run_wellknown_identity_check(q: Rational, order: int) -> VerificationReport:
    """sum_b u^b/(q^b (1/q)_b) times Euler's expansion of (u/q)_inf == 1 up to *order*.

    The b-sum and Euler's expansion are computed on their own, so a wrong
    coefficient in either shows here as a failed report.
    """
    q = Fraction(q)
    product = multiply(
        sum_wellknown_identity_lhs(q, order), pochhammer_infinite_u_over_q(q, order)
    )
    return _compare_routes(
        "wellknown-identity",
        {"q": fmt_rat(q), "N": order},
        {"lhs": product, "rhs": [1] + [0] * order},
    )


def run_measure_normalization_check(q: Rational, order: int) -> VerificationReport:
    """Total-mass check: sum of 1/|Aut(lambda)| == 1/(u/q)_inf coefficientwise."""
    q = Fraction(q)
    hs, common, ps, _ = _inverse_euler(q, order)
    return _compare_routes(
        "measure-normalization",
        {"q": fmt_rat(q), "N": order},
        {
            "middle": unnormalized_weight_series(q, order),
            "rhs": [Fraction(h, common * p) for h, p in zip(hs, ps)],
        },
    )


def run_irreducible_product_check(q: int, order: int) -> VerificationReport:
    """Centralizer product over irreducibles != z equals 1/(1-u)."""
    return _compare_routes(
        "irreducible-product",
        {"q": q, "N": order},
        {
            "middle": product_over_irreducibles_series(q, order),
            "rhs": [1] * (order + 1),
        },
    )


def _lemma_report(name: str, noun: str, n: int, p: int, counter) -> VerificationReport:
    """Report of lemma *name*, given its finder's (A, got, want) or None."""
    params = {"n": n, "p": p}
    if counter is None:
        return VerificationReport(name, params, "pass")
    A, got, want = counter
    return VerificationReport(
        name, params, "fail", detail=f"A={A}: {noun} {got} != {want}"
    )


def run_lemma2_check(
    n: int, p: int, budget: int = oracle.DEFAULT_OUTER_BUDGET
) -> VerificationReport:
    """Exhaustive: annihilator dimension equals (n - rank)^2 for all of Mat_n(F_p)."""
    counter = oracle.find_lemma2_counterexample(n, p, budget)
    return _lemma_report("lemma2", "dimension", n, p, counter)


def run_lemma3_check(
    n: int, p: int, budget: int = oracle.DEFAULT_OUTER_BUDGET
) -> VerificationReport:
    """Exhaustive: nilpotent annihilator count equals p^{m^2 - d} for nilpotent A."""
    counter = oracle.find_lemma3_counterexample(n, p, budget)
    return _lemma_report("lemma3", "count", n, p, counter)


def run_jordan_type_count_check(
    n: int, p: int, budget: int = oracle.DEFAULT_OUTER_BUDGET
) -> VerificationReport:
    """Counts of nilpotents by Jordan type match |GL(n,p)| / |Aut(lambda)|.

    Also checks the totals against the nilpotent count p^{n^2 - n}.
    """
    params = {"n": n, "p": p}
    counts = oracle.count_nilpotent_by_type(n, p, budget)
    for lam in partitions_of(n):
        expected = gl_order(n, p) / partitions.aut_order(lam, p)
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
    """sum_b joint(a, b) == marginal(a) exactly, plus near-unit total mass.

    Each law is (u/q)_inf times an integer quotient: the sums compare the
    quotients, and (u/q)_inf multiplies back in for the mass and a detail.
    """
    u = Fraction(u)
    params = {"q": q, "u": fmt_rat(u), "a_max": a_max}
    uq_inf = sampler.u_over_q_infinite_value(q, u)
    total = Fraction(0)
    for a in range(a_max + 1):
        part1 = cor1_part1(a, q, u, 1)
        part2_sum = sum(cor1_part2(a, b, q, u, 1) for b in range(a + 1))
        if part1 != part2_sum:
            return VerificationReport(
                "cor1-part2",
                params,
                "fail",
                detail=(
                    f"a={a}: sum over b gives {fmt_rat(uq_inf * part2_sum)} "
                    f"!= marginal {fmt_rat(uq_inf * part1)}"
                ),
            )
        total += part1
    total *= uq_inf
    if not abs(1 - total) < sampler.TAIL_MASS_BOUND * 2 ** (a_max + 4):
        return VerificationReport(
            "cor1-part2",
            params,
            "fail",
            detail=f"marginal masses up to a={a_max} sum to {float(total)}",
        )
    return VerificationReport("cor1-part2", params, "pass")


def run_sampler_check(cfg: SamplerConfig) -> VerificationReport:
    """Monte Carlo: empirical bucket frequencies within Z_THRESHOLD standard errors.

    Gates only on buckets with exact probability >= sampler.MIN_PROBABILITY;
    with that many buckets a global 4-sigma threshold is conservative even
    before any multiple-comparison (Bonferroni) adjustment.  A failure
    names the worst gated bucket.
    """
    buckets = sampler.empirical_vs_corollary(cfg)
    worst = max(buckets, key=lambda c: c.zscore)
    params = {
        "q": cfg.q,
        "u": fmt_rat(cfg.u),
        "seed": cfg.seed,
        "trials": cfg.trials,
    }
    if worst.zscore <= Z_THRESHOLD:
        return VerificationReport(
            "cor1-part1", params, "pass", kind="statistical",
            detail=f"max z-score {worst.zscore:.3f} over gated buckets",
        )
    return VerificationReport(
        "cor1-part1",
        params,
        "fail",
        kind="statistical",
        detail=(
            f"bucket {worst.label}: observed {worst.observed}/{cfg.trials}, "
            f"exact {float(worst.exact):.6g}, z={worst.zscore:.2f}"
        ),
    )


Z_THRESHOLD = 4.0  # the Monte Carlo gate, in standard errors per bucket
PRIMES = (2, 3)  # fields of the oracle checks, and q of the sampler checks
RATIONAL_QS = (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(10))
WELLKNOWN_QS = (Fraction(2), Fraction(3), Fraction(5, 2))  # q of wellknown-identity


@dataclass
class VerifierConfig:
    """Parameters of the verification suites; each suite reads every field its checks use."""

    u: Fraction = Fraction(1, 2)
    order: int = 8
    n_max: int = 3
    trials: int = 100_000
    seed: int = 1
    budget: int = oracle.DEFAULT_OUTER_BUDGET
    include_n4: bool = False

    def sampler_config(self) -> SamplerConfig:
        """The Monte Carlo check's configuration; refuses bad u, seed or trials."""
        return SamplerConfig(q=PRIMES[0], u=self.u, seed=self.seed, trials=self.trials)


def _oracle_cases(config: VerifierConfig) -> list[tuple[int, int]]:
    """(p, largest n) of the censuses the eq and lemma suites read at each p.

    ``include_n4`` adds n = 4 at p = 2 unless n_max already reaches it.
    """
    cases = [(p, config.n_max) for p in PRIMES]
    if config.include_n4 and config.n_max < 4:
        cases.append((2, 4))
    return cases


def _eq_reports(name: str, config: VerifierConfig) -> list[VerificationReport]:
    return [
        run_eq_check(name, q, n_max, config.order, config.budget)
        for q, n_max in _oracle_cases(config)
    ]


def _lemma_reports(config: VerifierConfig) -> list[VerificationReport]:
    reports = []
    for p in PRIMES:
        for n in range(1, config.n_max + 1):
            reports.append(run_lemma2_check(n, p, config.budget))
            reports.append(run_lemma3_check(n, p, config.budget))
            reports.append(run_jordan_type_count_check(n, p, config.budget))
    if config.include_n4 and config.n_max < 4:
        reports.append(run_jordan_type_count_check(4, 2, config.budget))
    return reports


def _sampler_reports(config: VerifierConfig) -> list[VerificationReport]:
    reports = []
    for q in PRIMES:
        reports.append(run_kernel_row_check(q, config.u))
        reports.append(run_corollary_consistency_check(q, config.u))
    reports.append(run_sampler_check(config.sampler_config()))
    return reports


def _series_reports(config: VerifierConfig) -> list[VerificationReport]:
    reports = [run_irreducible_product_check(q, min(config.order, 6)) for q in PRIMES]
    for q in RATIONAL_QS:
        reports.extend(run_rational_q_check(q, config.order))
        if q in WELLKNOWN_QS:
            reports.append(run_wellknown_identity_check(q, config.order))
        reports.append(run_measure_normalization_check(q, config.order))
    return reports


# suite name -> builder of its reports; "_series" (the checks with no oracle
# or sampler route) runs only as part of "all"
SUITES = {
    "eq1": functools.partial(_eq_reports, "eq1"),
    "eq2": functools.partial(_eq_reports, "eq2"),
    "lemmas": _lemma_reports,
    "sampler": _sampler_reports,
    "_series": _series_reports,
}


def run_all(config: VerifierConfig, suite: str = "all") -> list[VerificationReport]:
    """Run one suite of SUITES, or every suite for "all".

    A single suite returns its reports in the order its checks run; "all"
    orders them by check name, then parameters.  Bad sampler flags, and an
    outer budget that any census of the oracle suites would exceed, are
    refused before any suite runs; p^(n^2) grows with n, so the largest n
    at each p bounds the rest.
    """
    if suite in ("all", "sampler"):
        config.sampler_config()
    if suite != "sampler":
        for p, n in _oracle_cases(config):
            oracle._check_outer_budget(n, p, config.budget)
    if suite != "all":
        return SUITES[suite](config)
    reports = [report for build in SUITES.values() for report in build(config)]
    reports.sort(key=lambda r: (r.check_name, str(sorted(r.parameters.items()))))
    return reports
