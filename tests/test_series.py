"""Tests for exact series arithmetic and the q-Pochhammer machinery."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clpartitions.series import (
    gl_order,
    irreducible_count,
    multiply,
    pochhammer_infinite_u_over_q,
    power,
    sum_wellknown_identity_lhs,
)

from reference import (
    PrimeFieldMatrix,
    add,
    enumerate_matrices,
    inverse,
    monomial,
    pochhammer_direct,
    pochhammer_finite,
    zero,
)

ORDER = 6

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
series_st = st.lists(rationals, min_size=ORDER + 1, max_size=ORDER + 1)
invertible_series_st = series_st.filter(lambda s: s[0] != 0)


def one(order):
    return monomial(0, order)


def padded(coeffs, order):
    """The leading coefficients *coeffs*, zero-padded to *order*."""
    return [Fraction(c) for c in coeffs] + zero(order - len(coeffs))


class TestArithmetic:
    def test_mul_difference_of_squares(self):
        a = padded([1, 1], 3)
        b = padded([1, -1], 3)
        assert multiply(a, b) == padded([1, 0, -1], 3)

    def test_mul_one_identity(self):
        s = padded([2, Fraction(-1, 3), 0, 7], 3)
        assert multiply(s, one(3)) == s

    def test_geometric_times_complement(self):
        # 1/(1-u) as the all-ones series, multiplied back by 1 - u
        one_minus_u = padded([1, -1], 8)
        assert multiply([1] * 9, one_minus_u) == one(8)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multiply(one(2), one(3))

    # `inverse` is the reference's: the library inverts only Euler's
    # expansion, in integers (see test_verify.TestInverseEuler)
    def test_inverse_geometric(self):
        one_minus_u = padded([1, -1], 5)
        assert inverse(one_minus_u) == [1] * 6

    def test_inverse_of_one(self):
        assert inverse(one(4)) == one(4)

    def test_inverse_singular(self):
        with pytest.raises(ZeroDivisionError):
            inverse(padded([0, 1], 3))

    @pytest.mark.parametrize("k", range(6))
    def test_power_is_repeated_product(self, k):
        s = padded([2, Fraction(-1, 3), 0, 7, 1], 6)
        want = one(6)
        for _ in range(k):
            want = multiply(want, s)
        assert power(s, k) == want

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            power(one(3), -1)


class TestRingProperties:
    @settings(max_examples=60)
    @given(series_st, series_st, series_st)
    def test_mul_associative(self, a, b, c):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    @settings(max_examples=60)
    @given(series_st, series_st, series_st)
    def test_distributive(self, a, b, c):
        assert multiply(a, add(b, c)) == add(multiply(a, b), multiply(a, c))

    @settings(max_examples=60)
    @given(series_st, series_st)
    def test_commutative(self, a, b):
        assert multiply(a, b) == multiply(b, a)

    @settings(max_examples=40)
    @given(invertible_series_st)
    def test_inverse_roundtrip(self, a):
        assert multiply(a, inverse(a)) == one(len(a) - 1)


class TestPochhammer:
    def test_empty_product(self):
        u = monomial(1, 4)
        assert pochhammer_finite(u, 0, 2) == one(4)
        assert pochhammer_direct(Fraction(7, 3), 0, 2) == 1

    def test_scalar_value(self):
        # (1/q)_2 at q=2: (1 - 1/2)(1 - 1/4)
        assert pochhammer_direct(Fraction(1, 2), 2, 2) == Fraction(3, 8)

    def test_single_series_factor(self):
        u_over_q = monomial(1, 3, Fraction(1, 2))
        got = pochhammer_finite(u_over_q, 1, 2)
        assert got == padded([1, Fraction(-1, 2)], 3)

    @pytest.mark.parametrize("i", range(5))
    def test_recurrence(self, i):
        q = Fraction(2)
        x = monomial(1, 6, Fraction(1, 3))
        extra = add(one(6), [-c / q**i for c in x])
        assert pochhammer_finite(x, i + 1, q) == multiply(pochhammer_finite(x, i, q), extra)


class TestInfiniteProduct:
    def test_constant_term(self):
        assert pochhammer_infinite_u_over_q(2, 6)[0] == 1

    def test_inverse_coefficients_at_two(self):
        # 1/(u/q)_inf at q=2, which is the b-sum's u^0..u^3
        inv = inverse(pochhammer_infinite_u_over_q(2, 3))
        assert inv == [1, 1, Fraction(2, 3), Fraction(8, 21)]

    def test_product_with_inverse(self):
        s = pochhammer_infinite_u_over_q(Fraction(5, 2), 8)
        assert multiply(s, inverse(s)) == one(8)

    def test_euler_route_agrees(self):
        # Euler's expansion against the inverse of the b-sum
        for q in (Fraction(2), Fraction(3), Fraction(5, 2)):
            assert pochhammer_infinite_u_over_q(q, 8) == inverse(
                sum_wellknown_identity_lhs(q, 8)
            )

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(7, 3), Fraction(10)])
    def test_functional_equation(self, q):
        # E(u) = (1 - u/q) E(u/q) and E(0) = 1 determine E = (u/q)_inf,
        # with no reference to the b-sum
        e = pochhammer_infinite_u_over_q(q, 10)
        shifted = [c / q**j for j, c in enumerate(e)]
        assert multiply(padded([1, -1 / q], 10), shifted) == e

    def test_divergence_rejected(self):
        with pytest.raises(ValueError, match="requires q > 1"):
            pochhammer_infinite_u_over_q(Fraction(1, 2), 4)


class TestWellKnownIdentity:
    def test_leading_coefficients(self):
        s = sum_wellknown_identity_lhs(2, 4)
        assert s[0] == 1
        assert s[1] == 1  # 1/(2 * (1/2))

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(3), Fraction(5, 2), Fraction(10)])
    def test_product_is_one(self, q):
        lhs = sum_wellknown_identity_lhs(q, 8)
        assert multiply(lhs, pochhammer_infinite_u_over_q(q, 8)) == one(8)


class TestGLOrder:
    def test_small_values(self):
        assert gl_order(0, 2) == 1
        assert gl_order(1, 2) == 1
        assert gl_order(2, 3) == 48

    def test_n2_q2_by_enumeration(self):
        # count invertible 2x2 matrices over F_2: those with a right inverse
        one = PrimeFieldMatrix.identity(2, 2)
        invertible = sum(
            any(A @ B == one for B in enumerate_matrices(2, 2))
            for A in enumerate_matrices(2, 2)
        )
        assert invertible == 6 == gl_order(2, 2)


def _poly_mul_mod2(a, b):
    """Multiply binary polynomials given as bitmask ints."""
    out = 0
    i = 0
    while a >> i:
        if (a >> i) & 1:
            out ^= b << i
        i += 1
    return out


def _brute_irreducible_count_f2(d):
    """Count monic irreducible degree-d binary polynomials by sieving products."""
    reducible = set()
    for da in range(1, d):
        db = d - da
        if db < da:
            continue
        for a in range(1 << da, 1 << (da + 1)):
            for b in range(1 << db, 1 << (db + 1)):
                reducible.add(_poly_mul_mod2(a, b))
    return sum(
        1 for f in range(1 << d, 1 << (d + 1)) if f not in reducible
    )


class TestIrreducibleCount:
    def test_degree_one(self):
        assert irreducible_count(1, 2) == 2  # z and z+1

    @pytest.mark.parametrize("d,expected", [(2, 1), (3, 2)])
    def test_brute_force_f2(self, d, expected):
        assert _brute_irreducible_count_f2(d) == expected
        assert irreducible_count(d, 2) == expected

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_necklace_identity(self, d, q):
        total = sum(
            e * irreducible_count(e, q) for e in range(1, d + 1) if d % e == 0
        )
        assert total == q**d
