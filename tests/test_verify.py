"""Tests for the verification harness and its CLI."""

import functools
import hashlib
import inspect
import json
import math
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from clpartitions import cli, oracle, partitions, sampler, verify
from clpartitions.series import multiply
from clpartitions.verify import (
    VerificationReport,
    eq1_rhs_series,
    eq2_rhs_series,
    fmt_rat,
    pochhammer_infinite_u_over_q,
    run_eq_check,
    run_rational_q_check,
)

# series-only check -> (middle series in partitions, rhs series (q, N) -> series)
SERIES_ROUTES = {
    "eq1-rational-q": ("eq1_middle_series", eq1_rhs_series),
    "eq2-rational-q": ("eq2_middle_series", eq2_rhs_series),
    "measure-normalization": (
        "unnormalized_weight_series",
        lambda q, N: reference.inverse(reference.euler_expansion(q, N)),
    ),
    "irreducible-product": (
        "product_over_irreducibles_series",
        lambda q, N: [1] * (N + 1),
    ),
}


def _double_ones_binomial(monkeypatch, size, ones):
    """Double the q-binomial [size+ones; ones] that places the middle's ones.

    Every middle places the ones (p = 1) after every larger part, with
    the quotients P_(s+m) / (P_s P_m) of size s that ``_cells`` builds:
    eq1 and eq2 once per size (``_ones_placed``), the weight series once
    per (size, length) cell (``_refined_sums``).  Entry m = *ones* of
    the row of *size* places *ones* ones on every partition of *size*
    with no part 1.  Size 0 holds only (), which gives (1,) for one 1.
    Size 2 holds only (2,), which gives (2,1) for one 1.  So exactly one
    partition's term doubles in every middle series, as if its |Aut|
    were halved.
    """
    old = "_exact(rise, commons[m])"
    new = f"{old} * (2 if (p, s, m) == {(1, size, ones)} else 1)"
    monkeypatch.setattr(partitions, "_cells", _mutated(partitions._cells, old, new))


def _mutated(function, old, new):
    """A copy of *function* from its source with *old* -> *new*, in its module."""
    source = inspect.getsource(function)
    assert source.count(old) == 1
    namespace = dict(function.__globals__)
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


def _cells_orders(monkeypatch):
    """The order of each ``partitions._cells`` build from here on, in call order."""
    orders = []
    real = partitions._cells

    def counting(q, order):
        orders.append(order)
        return real(q, order)

    monkeypatch.setattr(partitions, "_cells", counting)
    return orders


def _run_sampler_with_shrunk_marginal(monkeypatch):
    """Run ``--json verify sampler --u 9/10`` with cor1_part1 times u^a; it exits 1."""
    real = sampler.cor1_part1

    def shrunk(a, q, u, uq_inf):
        return real(a, q, u, uq_inf) * Fraction(u) ** a

    monkeypatch.setattr(sampler, "cor1_part1", shrunk)
    monkeypatch.setattr(verify, "cor1_part1", shrunk)
    args = ["--json", "verify", "sampler", "--u", "9/10", "--trials", "1000"]
    assert cli.main(args) == cli.EXIT_FAIL


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
        assert s[0] == 1
        assert s[1] == 3
        assert s[2] == Fraction(20, 3)

    def test_eq2_leading_coefficients(self):
        s = eq2_rhs_series(2, 4)
        assert s[0] == 1
        assert s[1] == 1
        assert s[2] == Fraction(5, 3)

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            eq1_rhs_series(Fraction(1, 2), 4)

    @pytest.mark.parametrize(
        "q",
        [Fraction(q) for q in (2, 3, 4, Fraction(5, 2), Fraction(7, 2), 10)],
    )
    def test_matches_inverted_pochhammer_products(self, q):
        for order in range(13):
            assert eq1_rhs_series(q, order) == reference.eq1_rhs_series(q, order)
            assert eq2_rhs_series(q, order) == reference.eq2_rhs_series(q, order)


@st.composite
def lowest_terms_q(draw):
    """q = a/b in lowest terms, 2 <= a <= 60 and 1 <= b < a."""
    a = draw(st.integers(2, 60))
    b = draw(st.integers(1, a - 1).filter(lambda b: math.gcd(a, b) == 1))
    return Fraction(a, b)


class TestInverseEuler:
    @settings(max_examples=40, deadline=None)
    @given(lowest_terms_q(), st.integers(0, 26))
    def test_integer_inverse_matches_fraction_inverse(self, q, order):
        hs, common, ps, _ = verify._inverse_euler(q, order)
        got = [Fraction(h, common * p) for h, p in zip(hs, ps)]
        assert got == reference.inverse(reference.euler_expansion(q, order))

    @pytest.mark.parametrize(
        "route",
        # run_rational_q_check inverts Euler's expansion for measure-normalization
        [eq2_rhs_series, verify.run_rational_q_check],
        ids=["eq2-rhs", "measure-normalization"],
    )
    def test_a_corrupted_q_binomial_raises(self, route, monkeypatch):
        # at q = 7/3, a^k - b^k = 4, 40, ...: [2; 1] = P_2 / (P_1 P_1) = 160 / 16
        real = verify._exact
        corrupted = []

        def exact(n, d):
            if (n, d) == (160, 16):
                corrupted.append((n, d))
                n += 1
            return real(n, d)

        monkeypatch.setattr(verify, "_exact", exact)
        with pytest.raises(ArithmeticError):
            route(Fraction(7, 3), 8)
        assert corrupted == [(160, 16)]


class TestRoutesMatchReferenceAtAnyQ:
    @settings(max_examples=40, deadline=None)
    @given(lowest_terms_q(), st.integers(0, 10))
    def test_middles_and_rhs_match_term_by_term_constructions(self, q, order):
        # each middle is one of three exponents of q per partition
        weights = {
            "eq1": lambda lam: lam.length**2,
            "eq2": lambda lam: lam.length**2 - reference.multiplicity(lam, 1),
            "weight": lambda lam: 0,
        }
        sums = {k: reference.partition_sum(q, order, e) for k, e in weights.items()}
        assert partitions.eq1_middle_series(q, order) == list(accumulate(sums["eq1"]))
        assert partitions.eq2_middle_series(q, order) == sums["eq2"]
        assert partitions.unnormalized_weight_series(q, order) == sums["weight"]
        assert eq1_rhs_series(q, order) == reference.eq1_rhs_series(q, order)
        assert eq2_rhs_series(q, order) == reference.eq2_rhs_series(q, order)

    @settings(max_examples=40, deadline=None)
    @given(lowest_terms_q(), st.integers(0, 26))
    def test_euler_expansion_and_b_sum_match_term_by_term_constructions(self, q, order):
        euler = pochhammer_infinite_u_over_q(q, order)
        assert euler == reference.euler_expansion(q, order)
        b_sum = verify.sum_wellknown_identity_lhs(q, order)
        assert b_sum == reference.wellknown_b_sum(q, order)


def _package_calls(route, *args):
    """The package functions that route(*args) calls, as "module.name".

    Recorded with sys.setprofile.  Lambda, comprehension and generator
    bodies (names in <>) are left out: each belongs to the function that
    holds it.
    """
    called = set()

    def profile(frame, event, arg):
        module, name = frame.f_globals.get("__name__", ""), frame.f_code.co_name
        if event == "call" and module.startswith("clpartitions.") and name[0] != "<":
            called.add(f"{module.removeprefix('clpartitions.')}.{name}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        route(*args)
    finally:
        sys.setprofile(previous)
    return called


class TestRouteIndependence:
    """No route borrows another's result or formula: each calls its own module.

    Sharing the leaf ``series`` (``_exact``, a division that raises on a
    remainder, and the series ``multiply`` and ``power``) borrows no
    result.  ``tests/test_layout.py`` checks the same rule statically.
    """

    @pytest.mark.parametrize(
        "route, q, own, outside",
        [
            (
                partitions.eq1_middle_series,
                Fraction(5, 2),
                "partitions",
                {"series._exact"},
            ),
            (
                partitions.eq2_middle_series,
                Fraction(5, 2),
                "partitions",
                {"series._exact"},
            ),
            (
                partitions.unnormalized_weight_series,
                Fraction(5, 2),
                "partitions",
                {"series._exact"},
            ),
            (
                partitions.middle_series,
                Fraction(5, 2),
                "partitions",
                {"series._exact"},
            ),
            (
                partitions.product_over_irreducibles_series,
                3,
                "partitions",
                {"series._exact", "series.multiply", "series.power"},
            ),
            (eq1_rhs_series, Fraction(5, 2), "verify", set()),
            (eq2_rhs_series, Fraction(5, 2), "verify", {"series._exact"}),
        ],
        ids=[
            "eq1-middle",
            "eq2-middle",
            "measure-normalization-middle",
            "middle-series",
            "irreducible-product-middle",
            "eq1-rhs",
            "eq2-rhs",
        ],
    )
    def test_series_route_calls(self, route, q, own, outside):
        called = _package_calls(route, q, 6)
        assert f"{own}.{route.__name__}" in called
        assert {f for f in called if not f.startswith(f"{own}.")} == outside

    @pytest.mark.parametrize(
        "count, worker",
        [
            (oracle.count_pairs, "_census"),
            (oracle.count_nilpotent_pairs, "_nilpotent_annihilators"),
        ],
    )
    def test_oracle_route_calls(self, count, worker, monkeypatch):
        # empty caches, so that the census runs here; the shared ones are kept
        for name in ("_census", "_nilpotent_annihilators"):
            fresh = functools.lru_cache(maxsize=None)(getattr(oracle, name).__wrapped__)
            monkeypatch.setattr(oracle, name, fresh)
        called = _package_calls(count, 2, 2)
        assert f"oracle.{worker}" in called
        assert {f for f in called if not f.startswith("oracle.")} == set()


class TestChecks:
    def test_eq1_passes(self):
        report = run_eq_check("eq1", 2, 2, 6)
        assert report.passed and report.detail is None
        assert report.parameters == {"q": 2, "n_max": 2, "N": 6}

    def test_eq2_passes(self):
        assert run_eq_check("eq2", 3, 2, 6).passed

    def test_eq_check_rejects_order_below_n_max(self):
        with pytest.raises(ValueError):
            run_eq_check("eq1", 2, 3, 2)

    @pytest.mark.parametrize("q", [Fraction(5, 2), Fraction(10)])
    def test_rational_q(self, q):
        assert all(r.passed for r in run_rational_q_check(q, 8))

    @pytest.mark.parametrize("q", verify.RATIONAL_QS)
    def test_rational_q_builds_the_middles_once(self, q, monkeypatch):
        orders = _cells_orders(monkeypatch)
        reports = run_rational_q_check(q, 8)
        assert orders == [8]
        names = ["eq1-rational-q", "eq2-rational-q", "measure-normalization"]
        if q in verify.WELLKNOWN_QS:
            names.append("wellknown-identity")
        assert [r.check_name for r in reports] == names

    def test_verify_all_builds_the_middles_once_per_q_and_suite(self, monkeypatch):
        orders = _cells_orders(monkeypatch)
        verify.run_all(verify.VerifierConfig(order=9))
        # eq1 and eq2 at q = 2 and 3, and run_rational_q_check at each of
        # the four rational q; irreducible-product's builds stop at order 6
        assert orders.count(9) == 8

    def test_wellknown(self):
        reports = {r.check_name: r for r in run_rational_q_check(Fraction(5, 2), 8)}
        assert reports["wellknown-identity"].passed


class TestFaultInjection:
    def test_perturbed_aut_order_is_caught(self, monkeypatch):
        # a wrong weight for one specific type: |Aut (2,1)| halved
        _double_ones_binomial(monkeypatch, 2, 1)
        middle = partitions.eq1_middle_series(2, 6)[3]
        rhs = eq1_rhs_series(2, 6)[3]
        assert middle != rhs
        report = run_eq_check("eq1", 2, 2, 6)
        assert not report.passed
        # u^3 is beyond n_max, so only the two series routes are shown
        assert report.detail == (
            f"coefficient of u^3: middle {fmt_rat(middle)}, rhs {fmt_rat(rhs)}"
        )

    def test_oracle_disagreement_shows_all_three_routes(self, monkeypatch):
        real = oracle.count_pairs
        monkeypatch.setattr(
            oracle, "count_pairs", lambda n, p, budget: real(n, p, budget) + (n == 2)
        )
        report = run_eq_check("eq1", 2, 2, 6)
        assert not report.passed
        assert report.detail == (
            "coefficient of u^2: oracle 41/6, middle 20/3, rhs 20/3"
        )

    def test_sampler_failure_names_worst_gated_bucket(self, monkeypatch):
        real = sampler.cor1_part2

        def perturbed(a, b, q, u, uq_inf):
            val = real(a, b, q, u, uq_inf)
            return val * Fraction(11, 10) if (a, b) == (0, 0) else val

        monkeypatch.setattr(sampler, "cor1_part2", perturbed)
        cfg = sampler.SamplerConfig(q=2, u=Fraction(1, 2), seed=9, trials=2000)
        report = verify.run_sampler_check(cfg)
        assert not report.passed
        assert report.check_name == "cor1-part1"
        # a=3,b=1 has a larger z but exact probability below MIN_PROBABILITY
        assert report.detail == "bucket a=0,b=0: observed 1168/2000, exact 0.635334, z=4.77"

    @pytest.mark.parametrize(
        "factor,detail",
        [
            (2, "kernel row a=3 sums to {} != 1 at q=2, u=1/2"),
            (-1, "negative kernel entry K(3,1) = {} at q=2, u=1/2"),
        ],
        ids=["doubled", "negated"],
    )
    def test_perturbed_kernel_entry_fails_rows(self, factor, detail, monkeypatch):
        u = Fraction(1, 2)
        entry = sampler.kernel_row(3, 2, u).probabilities[1]
        # K(3, 1) is scaled before the row's sign and sum checks
        old = "        if val < 0:"
        new = f"        val *= {factor} if (a, b) == (3, 1) else 1\n{old}"
        monkeypatch.setattr(verify, "kernel_row", _mutated(sampler.kernel_row, old, new))
        report = verify.run_kernel_row_check(2, u)
        assert report.check_name == "thm1-rows" and not report.passed
        shown = 1 + entry if factor > 0 else -entry
        assert report.detail == detail.format(shown)

    def test_scaled_joint_law_fails_consistency(self, monkeypatch):
        real = sampler.cor1_part2

        def scaled(a, b, q, u, uq_inf):
            val = real(a, b, q, u, uq_inf)
            return val * Fraction(11, 10) if (a, b) == (4, 2) else val

        monkeypatch.setattr(verify, "cor1_part2", scaled)
        q, u = 2, Fraction(1, 2)
        uq_inf = sampler.u_over_q_infinite_value(q, u)
        # the detail's exact values are the laws over (u/q)_inf
        part1 = sampler.cor1_part1(4, q, u, 1)
        part2_sum = part1 + real(4, 2, q, u, 1) / 10
        report = verify.run_corollary_consistency_check(q, u)
        assert report.check_name == "cor1-part2" and not report.passed
        assert report.detail == (
            f"a=4: sum over b gives {fmt_rat(part2_sum)} != marginal {fmt_rat(part1)}"
            f" over (u/q)_inf; as laws {float(uq_inf * part2_sum)}"
            f" != {float(uq_inf * part1)}"
        )

    def test_law_below_one_fails_the_sampler_suite(self, monkeypatch, capsys):
        # cor1_part1 times u^a sums below 1, so the chain's initial row
        # cannot be built: the Monte Carlo fails instead of a usage error
        _run_sampler_with_shrunk_marginal(monkeypatch)
        captured = capsys.readouterr()
        assert captured.err == ""
        reports = json.loads(captured.out)
        status = {}
        for r in reports:
            status.setdefault(r["check"], set()).add(r["status"])
        assert status["cor1-part1"] == {"fail"} and "fail" in status["cor1-part2"]
        (monte_carlo,) = [r for r in reports if r["check"] == "cor1-part1"]
        assert monte_carlo["detail"].startswith("initial-row entry 8 is below 2^-64")

    def test_law_below_one_gives_short_consistency_details(self, monkeypatch, capsys):
        # the same fault: each cor1-part2 detail names the first wrong a and
        # stays legible, where the exact laws run to thousands of digits
        _run_sampler_with_shrunk_marginal(monkeypatch)
        reports = json.loads(capsys.readouterr().out)
        details = [r["detail"] for r in reports if r["check"] == "cor1-part2"]
        assert len(details) == 2  # q = 2 and q = 3
        for detail in details:
            assert detail.startswith("a=1: ") and len(detail) < 200

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

    def test_corollary_total_mass_above_one_fails(self, monkeypatch):
        real = sampler.u_over_q_infinite_value
        # doubling (u/q)_inf makes the marginal masses sum to about 2
        monkeypatch.setattr(
            sampler, "u_over_q_infinite_value", lambda q, u: real(q, u) * 2
        )
        report = verify.run_corollary_consistency_check(2, Fraction(1, 2))
        assert not report.passed
        assert report.check_name == "cor1-part2"
        assert report.detail == "marginal masses up to a=10 sum to 2.0"

    @pytest.mark.parametrize("check", SERIES_ROUTES)
    def test_series_check_shows_both_routes(self, check, monkeypatch):
        # |Aut (2,1)| halved, at each q^d of irreducible-product too
        _double_ones_binomial(monkeypatch, 2, 1)
        reports = [
            *run_rational_q_check(2, 6),
            verify.run_irreducible_product_check(2, 6),
        ]
        (report,) = [r for r in reports if r.check_name == check]
        assert not report.passed
        # (2,1) is the only perturbed term and has size 3, so u^0..u^2 agree
        middle, rhs = SERIES_ROUTES[check]
        got, want = getattr(partitions, middle)(2, 6)[3], rhs(2, 6)[3]
        assert report.detail == (
            f"coefficient of u^3: middle {fmt_rat(got)}, rhs {fmt_rat(want)}"
        )

    @pytest.mark.parametrize(
        "name,old,new,detail",
        [
            # the ones' a-power counts M's growth as k, not k(k+1)/2, for k
            # ones: k(k+1)/2 - c(k) becomes k - c(k)
            (
                "_ones_placed",
                "k * (k + 1) // 2 - c",
                "k - c",
                "coefficient of u^2: middle 235/63, rhs 335/63",
            ),
            # the ones' factor P_k of D is cut to a - b: the q-binomial
            # [s+k; k] that places them loses the repeated part's factors
            (
                "_cells",
                "commons[m])",
                "commons[min(m, 1) if p == 1 else m])",
                "coefficient of u^2: middle 45, rhs 335/63",
            ),
        ],
        ids=["wrong-M-increment", "dropped-multiplicity-factor"],
    )
    def test_mutated_walk_fails_eq1_rational_q(
        self, name, old, new, detail, monkeypatch
    ):
        mutant = _mutated(getattr(partitions, name), old, new)
        monkeypatch.setattr(partitions, name, mutant)
        q = Fraction(5, 2)
        middle = partitions.eq1_middle_series(q, 6)
        rhs = eq1_rhs_series(q, 6)
        eq1 = {r.check_name: r for r in run_rational_q_check(q, 6)}["eq1-rational-q"]
        assert eq1.check_name == "eq1-rational-q" and not eq1.passed
        # (1,1) is the first partition with a repeated part
        assert middle[:2] == rhs[:2] and middle[2] != rhs[2]
        assert eq1.detail == detail == (
            f"coefficient of u^2: middle {fmt_rat(middle[2])}, rhs {fmt_rat(rhs[2])}"
        )

    def test_mutated_twos_chain_fails_eq1_rational_q(self, monkeypatch):
        # the twos' factor P_m of D is cut to a - b: the quotient
        # P_(s+2m) / (P_s P_m) loses the repeated two's factors
        old = "commons[m])"
        new = "commons[min(m, 1) if p == 2 else m])"
        mutant = _mutated(partitions._cells, old, new)
        monkeypatch.setattr(partitions, "_cells", mutant)
        q = Fraction(5, 2)
        middle = partitions.eq1_middle_series(q, 6)
        rhs = eq1_rhs_series(q, 6)
        eq1 = {r.check_name: r for r in run_rational_q_check(q, 6)}["eq1-rational-q"]
        assert eq1.check_name == "eq1-rational-q" and not eq1.passed
        # (2,2) is the first partition with two twos
        assert middle[:4] == rhs[:4] and middle[4] != rhs[4]
        assert eq1.detail == (
            "coefficient of u^4: middle 1563390529/112223475, rhs 1449385729/112223475"
        )

    def test_mutated_part_stage_fails_eq1_rational_q(self, monkeypatch):
        # in every stage p >= 3, n2 - l^2 grows by 2lm + m^2, as for twos,
        # not by (p - 1)(2lm + m^2): b's power is cut, which only b > 1 shows
        old = "b_powers[(p - 1) * grown]"
        new = "b_powers[min(p - 1, 1) * grown]"
        mutant = _mutated(partitions._cells, old, new)
        monkeypatch.setattr(partitions, "_cells", mutant)
        assert all(r.passed for r in run_rational_q_check(2, 6))
        q = Fraction(5, 2)
        middle = partitions.eq1_middle_series(q, 6)
        rhs = eq1_rhs_series(q, 6)
        reports = {r.check_name: r for r in run_rational_q_check(q, 6)}
        eq1, eq2 = reports["eq1-rational-q"], reports["eq2-rational-q"]
        assert eq1.check_name == "eq1-rational-q" and not eq1.passed
        assert eq2.check_name == "eq2-rational-q" and not eq2.passed
        # (3) is the first partition with a part above 2
        assert middle[:3] == rhs[:3] and middle[3] != rhs[3]
        assert eq1.detail == (
            f"coefficient of u^3: middle {fmt_rat(middle[3])}, rhs {fmt_rat(rhs[3])}"
        )

    def test_perturbed_rhs_factor_is_caught(self, monkeypatch):
        # eq1's factor 1/(1-u) with its u^3 coefficient doubled, a wrong factor
        # of eq1's rhs, wrapped around the route's result:
        # 1/(1-u) + u^3 = (1 + u^3 - u^4) / (1-u)
        def perturbed(q, order):
            factor = [1, 0, 0, 1, -1] + [0] * order
            return multiply(eq1_rhs_series(q, order), factor[: order + 1])

        monkeypatch.setattr(verify, "eq1_rhs_series", perturbed)
        q = Fraction(5, 2)
        middle = partitions.eq1_middle_series(q, 6)[3]
        rhs = perturbed(q, 6)[3]
        assert middle != rhs
        reports = {r.check_name: r for r in run_rational_q_check(q, 6)}
        eq1, eq2 = reports["eq1-rational-q"], reports["eq2-rational-q"]
        assert eq2.passed
        assert not eq1.passed and eq1.check_name == "eq1-rational-q"
        assert eq1.detail == "coefficient of u^3: middle 324878/36855, rhs 361733/36855"
        assert eq1.detail == (
            f"coefficient of u^3: middle {fmt_rat(middle)}, rhs {fmt_rat(rhs)}"
        )

    def test_doubled_infinite_product_fails_its_reports(self, monkeypatch):
        real = pochhammer_infinite_u_over_q
        monkeypatch.setattr(
            verify,
            "pochhammer_infinite_u_over_q",
            lambda q, order: [2 * c for c in real(q, order)],
        )
        q = Fraction(5, 2)
        reports = {r.check_name: r for r in run_rational_q_check(q, 6)}
        assert reports["eq1-rational-q"].passed
        # every coefficient is off by a factor of 2, so u^0 already differs
        assert reports["wellknown-identity"].detail == "coefficient of u^0: lhs 2, rhs 1"
        for check in ("eq2-rational-q", "measure-normalization"):
            assert reports[check].detail == "coefficient of u^0: middle 1, rhs 1/2"

    def test_doubled_infinite_product_exits_one_with_reports(self, monkeypatch, capsys):
        real = pochhammer_infinite_u_over_q
        monkeypatch.setattr(
            verify,
            "pochhammer_infinite_u_over_q",
            lambda q, order: [2 * c for c in real(q, order)],
        )
        code = cli.main(["verify", "eq2", "--n-max", "1", "--order", "4"])
        assert code == cli.EXIT_FAIL
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 2
        for line in lines:
            assert line.startswith("[FAIL] eq2 (exact)")
            assert line.endswith("-- coefficient of u^0: oracle 1, middle 1, rhs 1/2")

    def test_perturbed_b_sum_fails_only_wellknown_identity(self, monkeypatch):
        # the b-sum with u^3 doubled: no other route may read it
        real = verify.sum_wellknown_identity_lhs

        def perturbed(q, order):
            return [2 * c if k == 3 else c for k, c in enumerate(real(q, order))]

        monkeypatch.setattr(verify, "sum_wellknown_identity_lhs", perturbed)
        q = Fraction(5, 2)
        reports = [*run_rational_q_check(q, 6), run_eq_check("eq2", 2, 2, 6)]
        failed = [r for r in reports if not r.passed]
        assert [r.check_name for r in failed] == ["wellknown-identity"]
        want = real(q, 6)[3]  # S * E = 1, so the extra S_3 * E_0 is all that is left
        assert failed[0].detail == f"coefficient of u^3: lhs {fmt_rat(want)}, rhs 0"

    def test_scaled_type_count_fails_counter_nilpotent(self, monkeypatch):
        # the enumerated count of one Jordan type doubled at (3, 2)
        real = oracle.count_nilpotent_by_type
        lam = partitions.Partition((2, 1))

        def scaled(n, p, budget):
            counts = real(n, p, budget)
            return {**counts, lam: 2 * counts[lam]}

        monkeypatch.setattr(oracle, "count_nilpotent_by_type", scaled)
        report = verify.run_jordan_type_count_check(3, 2)
        assert not report.passed
        assert report.detail == "type (2,1): enumerated 42 != 21"

    def test_changed_total_fails_counter_nilpotent(self, monkeypatch):
        # every type of size 3 keeps its count; one matrix of a type of
        # size 4 raises the total past 2^(9 - 3)
        real = oracle.count_nilpotent_by_type

        def extra(n, p, budget):
            return {**real(n, p, budget), partitions.Partition((n + 1,)): 1}

        monkeypatch.setattr(oracle, "count_nilpotent_by_type", extra)
        report = verify.run_jordan_type_count_check(3, 2)
        assert not report.passed
        assert report.detail == "total 65 != 64"

    def test_cli_exit_one_on_failure(self, monkeypatch, capsys):
        # |Aut (1)| halved
        _double_ones_binomial(monkeypatch, 0, 1)
        code = cli.main(["verify", "eq1", "--n-max", "1", "--order", "4"])
        assert code == cli.EXIT_FAIL
        out = capsys.readouterr().out
        assert "FAIL" in out and "eq1" in out


SRC = Path(__file__).resolve().parent.parent / "src"

# dataclasses and the modules that only it would bring in, and argparse with
# the modules it loads to build and run a parser
HEAVY_MODULES = {
    "dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext", "locale",
}

# per VerifierConfig field, a value other than its default and the flags that give it
NON_DEFAULT_FLAGS = {
    "u": (Fraction(1, 3), ["--u", "1/3"]),
    "order": (5, ["--order", "5"]),
    "n_max": (2, ["--n-max", "2"]),
    "trials": (7, ["--trials", "7"]),
    "seed": (9, ["--seed", "9"]),
    "budget": (123, ["--budget", "123"]),
    "include_n4": (True, ["--include-n4"]),
}


def test_cli_import_leaves_out_heavy_modules():
    # a fresh isolated interpreter, as a console-script start-up runs
    script = "\n".join(
        [
            "import sys",
            f"sys.path.insert(0, {str(SRC)!r})",
            "before = set(sys.modules)",
            "import clpartitions.cli",
            "print(clpartitions.cli.__file__)",
            "print(*sorted(set(sys.modules) - before))",
        ]
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, text=True, check=True
    )
    path, added = run.stdout.splitlines()
    assert Path(path).is_relative_to(SRC)
    assert "clpartitions.cli" in added.split()
    assert HEAVY_MODULES.isdisjoint(added.split())


def test_cli_call_leaves_out_heavy_modules():
    # one whole series-deep call in a fresh interpreter: parsing, the series
    # and its JSON output; the module list is the last line after the JSON
    script = "\n".join(
        [
            "import sys",
            f"sys.path.insert(0, {str(SRC)!r})",
            "before = set(sys.modules)",
            "from clpartitions import cli",
            'argv = ["--json", "series", "eq1-middle", "--q", "5/2", "--order", "26"]',
            "assert cli.main(argv) == 0",
            "print(*sorted(set(sys.modules) - before))",
        ]
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, text=True, check=True
    )
    *series, added = run.stdout.splitlines()
    assert json.loads("\n".join(series))["series"] == "eq1-middle"
    assert "clpartitions.cli" in added.split()
    assert HEAVY_MODULES.isdisjoint(added.split())


@pytest.mark.parametrize("name", verify.VerifierConfig._fields)
def test_every_config_field_is_an_honoured_verify_flag(name, monkeypatch, capsys):
    value, flags = NON_DEFAULT_FLAGS[name]
    default = verify.VerifierConfig()
    assert getattr(default, name) != value
    flag = cli.COMMANDS["verify"].flags["--" + name.replace("_", "-")]
    assert flag.default == getattr(default, name)
    received = []

    def run_all(config, suite):
        received.append(config)
        return [VerificationReport("stub", {}, "pass")]

    monkeypatch.setattr(verify, "run_all", run_all)
    assert cli.main(["verify", "all", *flags]) == cli.EXIT_OK
    assert received == [default._replace(**{name: value})]


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
        # Mat_0(F_p) still holds one matrix, so a budget of 0 refuses it
        args = ["oracle", "count-pairs", "--n", "0", "--p", "2", "--budget", "0"]
        assert cli.main(args) == cli.EXIT_BUDGET
        assert "needs 1, budget 0" in capsys.readouterr().err

    def test_usage_exit_code(self, capsys):
        assert cli.main(["oracle", "count-pairs", "--n", "2", "--p", "9"]) == cli.EXIT_USAGE
        assert cli.main(["series", "eq1-rhs", "--q", "x", "--order", "2"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "lemmas", "--n-max", "-1"],
            ["verify", "eq1", "--n-max", "-1"],
            ["verify", "eq2", "--order", "-1"],
            ["verify", "all", "--n-max", "-1"],
            ["series", "eq1-rhs", "--q", "2", "--order", "-1"],
            ["oracle", "count-pairs", "--n", "-1", "--p", "2"],
            ["oracle", "count-nilpotent-pairs", "--n", "-1", "--p", "2"],
            ["oracle", "by-type", "--n", "-2", "--p", "2"],
            ["oracle", "count-pairs", "--n", "0", "--p", "2", "--budget", "-1"],
            ["verify", "lemmas", "--n-max", "1", "--budget", "-1"],
        ],
        ids=[
            "lemmas-n-max", "eq1-n-max", "eq2-order", "all-n-max", "series-order",
            "oracle-count-pairs-n", "oracle-nilpotent-pairs-n", "oracle-by-type-n",
            "oracle-budget", "verify-budget",
        ],
    )
    def test_negative_bound_is_usage_error(self, args, capsys):
        assert cli.main(["--json", *args]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "must be >= 0" in captured.err

    def test_suite_without_checks_is_usage_error(self, capsys):
        # lemmas run n = 1..n_max, so n_max = 0 selects no check
        assert cli.main(["--json", "verify", "lemmas", "--n-max", "0"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: verify lemmas runs no checks with these flags\n"

    @pytest.mark.parametrize(
        "suite,first_work",
        [("all", (oracle, "count_pairs")), ("sampler", (verify, "kernel_row"))],
        ids=["all", "sampler"],
    )
    @pytest.mark.parametrize(
        "flag",
        [["--trials", "0"], ["--seed", "-1"], ["--u", "3/2"]],
        ids=["trials", "seed", "u"],
    )
    def test_bad_sampler_flag_refused_before_any_work(
        self, suite, first_work, flag, monkeypatch, capsys
    ):
        def refuse(*args):
            pytest.fail(f"verify {suite} started work before checking {flag[0]}")

        monkeypatch.setattr(*first_work, refuse)
        assert cli.main(["--json", "verify", suite, *flag]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error: ")

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

    @pytest.mark.parametrize("suite", ["eq1", "eq2", "lemmas", "sampler"])
    def test_suite_honours_flags(self, suite, capsys):
        flags = ["--n-max", "2", "--order", "4", "--trials", "2000"]
        assert cli.main(["--json", "verify", suite, *flags]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert cli.main(["--json", "verify", "all", *flags]) == 0
        everything = json.loads(capsys.readouterr().out)
        assert reports and all(r in everything for r in reports)
        for r in reports:
            params = r["parameters"]
            assert params.get("N", "4") == "4" and params.get("n_max", "2") == "2"
            assert params.get("n", "1") in ("1", "2")
            assert params.get("trials", "2000") == "2000"

    @pytest.mark.parametrize("suite", ["eq1", "eq2", "lemmas"])
    def test_include_n4_reaches_sub_suites(self, suite, capsys):
        # a budget of 2^15 matrices admits n <= 3 but refuses n = 4, p = 2
        args = ["verify", suite, "--n-max", "1", "--order", "4", "--budget", "32768"]
        assert cli.main(args) == cli.EXIT_OK
        assert cli.main([*args, "--include-n4"]) == cli.EXIT_BUDGET

    def test_include_n4_adds_nothing_when_n_max_reaches_4(self, monkeypatch):
        # the oracle checks are stubbed to report their arguments: no census runs
        def eq(name, q, n_max, order, budget):
            return VerificationReport(name, {"q": q, "n_max": n_max, "N": order}, "pass")

        def lemma(name):
            return lambda n, p, budget: VerificationReport(name, {"n": n, "p": p}, "pass")

        monkeypatch.setattr(verify, "run_eq_check", eq)
        monkeypatch.setattr(verify, "run_lemma2_check", lemma("lemma2"))
        monkeypatch.setattr(verify, "run_lemma3_check", lemma("lemma3"))
        monkeypatch.setattr(
            verify, "run_jordan_type_count_check", lemma("counter-nilpotent")
        )
        monkeypatch.setattr(oracle, "_census", lambda n, p: pytest.fail("census ran"))
        config = verify.VerifierConfig(n_max=4, include_n4=True)
        assert verify._oracle_cases(config) == [(2, 4), (3, 4)]
        reports = [
            r for suite in ("eq1", "eq2", "lemmas") for r in verify.run_all(config, suite)
        ]
        keys = [(r.check_name, sorted(r.parameters.items())) for r in reports]
        assert len(keys) == 2 * 2 + 2 * 4 * 3
        assert all(keys.count(key) == 1 for key in keys)

    @pytest.mark.parametrize("suite", ["all", "eq1", "eq2", "lemmas"])
    def test_outer_budget_refused_before_any_census(self, suite, monkeypatch, capsys):
        def refuse(n, p):
            pytest.fail(f"verify {suite} ran the census at n={n}, p={p} before refusing")

        monkeypatch.setattr(oracle, "_census", refuse)
        args = ["--json", "verify", suite, "--include-n4", "--budget", "32768"]
        assert cli.main(args) == cli.EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "budget refusal: outer enumeration too large: needs 65536, budget 32768\n"
        )

    def test_sampler_suite_ignores_outer_budget(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "_census", lambda n, p: pytest.fail("census ran"))
        args = ["--json", "verify", "sampler", "--budget", "1", "--trials", "2000"]
        assert cli.main(args) == cli.EXIT_OK

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


GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"


class TestVerifyGoldens:
    """`--json verify all` against the report contents of perfbench/goldens.json."""

    @pytest.mark.parametrize("seed", ["1", "9", "16"])
    def test_verify_all_matches_recorded_reports(self, seed, capsys):
        args = ["verify", "all", "--seed", seed]
        with open(GOLDENS) as fh:
            recorded = json.load(fh)["reports"][" ".join(args)]
        assert cli.main(["--json", *args]) == 0
        reports = json.loads(capsys.readouterr().out)
        # a report's content is the report without its "check" ID
        got = sorted(
            json.dumps({k: v for k, v in r.items() if k != "check"}, sort_keys=True)
            for r in reports
        )
        assert got == recorded


class TestSeriesGoldens:
    """The 12 series-deep outputs against the digests of perfbench/goldens.json."""

    @pytest.mark.parametrize("q", ["2", "5/2", "10"])
    @pytest.mark.parametrize(
        "which", ["eq1-middle", "eq1-rhs", "eq2-middle", "eq2-rhs"]
    )
    def test_series_matches_recorded_digests(self, which, q, capsys):
        args = ["series", which, "--q", q, "--order", "26"]
        with open(GOLDENS) as fh:
            recorded = json.load(fh)["series"][" ".join(args)]
        assert cli.main(["--json", *args]) == 0
        coefficients = json.loads(capsys.readouterr().out)["coefficients"]
        got = [hashlib.sha256(c.encode()).hexdigest()[:16] for c in coefficients]
        assert got == recorded
