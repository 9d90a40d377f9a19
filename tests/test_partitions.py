"""Tests for partition statistics, automorphism orders, and partition sums."""

import copy
import math
import pickle
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from clpartitions import partitions
from clpartitions.partitions import (
    Partition,
    aut_order,
    eq1_middle_series,
    eq2_middle_series,
    partitions_of,
    product_over_irreducibles_series,
    unnormalized_weight_series,
)
from clpartitions.verify import gl_order, pochhammer_infinite_u_over_q


@lru_cache(maxsize=None)
def _count_partitions(n, max_part):
    """Independent recursive counter, kept separate from the enumerator."""
    if n == 0:
        return 1
    return sum(
        _count_partitions(n - k, k) for k in range(1, min(n, max_part) + 1)
    )


class TestPartitionType:
    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
        with pytest.raises(TypeError):
            Partition((2.5, 1.9))  # not truncated to (2,1)
        with pytest.raises(TypeError):
            Partition(("3", "1"))

    def test_value_semantics(self):
        # equality, order and hash of the one-field tuple (parts,); no tuple behaviour
        lams = [lam for n in range(7) for lam in partitions_of(n)]
        for lam in lams:
            assert hash(lam) == hash((lam.parts,))
            for other in lams:
                assert (lam == other) == (lam.parts == other.parts)
                assert (lam < other) == (lam.parts < other.parts)
                assert (lam >= other) == (lam.parts >= other.parts)
        lam = Partition((2, 1))
        assert lam != (2, 1) and lam != ((2, 1),)
        assert str(lam) == "(2,1)" and repr(lam) == "Partition(parts=(2, 1))"
        assert copy.deepcopy(lam) == pickle.loads(pickle.dumps(lam)) == lam
        with pytest.raises(TypeError):
            len(lam)
        with pytest.raises(AttributeError):
            lam.parts = (3,)
        with pytest.raises(AttributeError):
            del lam.parts
        assert lam.parts == (2, 1)

    def test_conjugate_examples(self):
        assert Partition().conjugate() == Partition()
        assert Partition((3,)).conjugate() == Partition((1, 1, 1))
        assert Partition((2, 1)).conjugate() == Partition((2, 1))

    def test_multiplicity_examples(self):
        assert reference.multiplicity(Partition((2, 1, 1)), 1) == 2
        assert reference.multiplicity(Partition((2, 1)), 3) == 0
        assert reference.multiplicity(Partition((2, 2, 1)), 2) == 2

    @pytest.mark.parametrize("n", range(13))
    def test_conjugate_involution(self, n):
        for lam in partitions_of(n):
            assert lam.conjugate().conjugate() == lam

    @pytest.mark.parametrize("n", range(11))
    def test_size_identities(self, n):
        for lam in partitions_of(n):
            top = lam.parts[0] if lam.parts else 0
            assert (
                sum(i * reference.multiplicity(lam, i) for i in range(1, top + 1)) == n
            )
            conj = lam.conjugate().parts + (0, 0)  # lambda'_i = 0 past the top part
            assert sum(conj) == n
            assert conj[0] == lam.length
            for i in range(1, top + 2):
                assert reference.multiplicity(lam, i) == conj[i - 1] - conj[i]


class TestEnumeration:
    def test_zero(self):
        assert partitions_of(0) == (Partition(),)

    @pytest.mark.parametrize("n,count", [(4, 5), (8, 22)])
    def test_counts_vs_recursive_counter(self, n, count):
        assert _count_partitions(n, n) == count
        assert len(partitions_of(n)) == count

    def test_reverse_lex_order(self):
        got = [lam.parts for lam in partitions_of(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_reverse_lex_order_through_size_18(self):
        # each size is built from the memoized smaller sizes
        for n in range(19):
            got = [lam.parts for lam in partitions_of(n)]
            assert got == sorted(set(got), reverse=True)
            assert len(got) == _count_partitions(n, n)

    @pytest.mark.parametrize("n", range(17))
    def test_matches_reference_enumeration(self, n):
        assert list(partitions_of(n)) == sorted(reference.partitions(n), reverse=True)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_no_duplicates(self, n):
        lams = partitions_of(n)
        assert len(set(lams)) == len(lams) == _count_partitions(n, n)


class TestAutOrder:
    def test_empty(self):
        assert aut_order(Partition(), 2) == 1

    def test_two_ones_matches_gl(self):
        # type (1,1) at q=2 is an elementary abelian group; its automorphism
        # group is GL(2, F_2)
        assert aut_order(Partition((1, 1)), 2) == 6 == gl_order(2, 2)

    def test_cyclic_four(self):
        # automorphisms of a cyclic group of order 4 = multiplication by a
        # unit residue; count them directly
        units = [k for k in range(1, 4) if math.gcd(k, 4) == 1]
        assert aut_order(Partition((2,)), 2) == len(units) == 2

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("n", range(11))
    def test_integral_at_integer_q(self, n, q):
        for lam in partitions_of(n):
            val = aut_order(lam, q)
            assert val > 0 and val.denominator == 1

    def test_qpower_values(self):
        # at q = 2^2 the types (1) and (1,1) are F_4 and F_4^2
        assert aut_order(Partition((1,)), 4) == 3
        assert aut_order(Partition((1, 1)), 4) == 180 == gl_order(2, 4)

    @pytest.mark.parametrize(
        "q", [Fraction(2), Fraction(4), Fraction(5, 2), Fraction(7, 3), Fraction(10)]
    )
    def test_integer_form_matches_product_form(self, q):
        # at 7/3 both the numerator and the denominator of q exceed 1
        for n in range(13):
            for lam in partitions_of(n):
                assert aut_order(lam, q) == reference.aut_order(lam, q)

    def test_memo_keyed_by_q(self):
        # interleaving evaluation points must not mix their (1/q)_m
        for q in (Fraction(2), Fraction(5, 2), Fraction(4), Fraction(2)):
            for n in range(9):
                for lam in partitions_of(n):
                    want = q ** sum(c * c for c in lam.conjugate().parts)
                    for i in set(lam.parts):
                        m = reference.multiplicity(lam, i)
                        want *= reference.pochhammer_direct(1 / q, m, q)
                    assert aut_order(lam, q) == want


# per middle, the sum of q^e u^|lambda| / |Aut(lambda)| as the package reads it
# and the exponent e of q per partition as the reference reads it, from the
# Partition: eq1 and eq2 place the ones once per size with the shift
# c(k) = 0 or k of e = L^2 - c(k), the weight series reads each entry of R
EXPONENTS = {
    "eq1": (
        lambda q, order: partitions._ones_placed(
            q, partitions._cells(q, order), lambda m1: 0
        ),
        lambda lam: lam.length**2,
    ),
    "eq2": (
        lambda q, order: partitions._ones_placed(
            q, partitions._cells(q, order), lambda m1: m1
        ),
        lambda lam: lam.length**2 - reference.multiplicity(lam, 1),
    ),
    "weight": (partitions.unnormalized_weight_series, lambda lam: 0),
}


def _corrupt_one_division(monkeypatch, dividend, divisor):
    """Add 1 to the dividend of the middle's checked division dividend / divisor.

    Returns the list of the divisions corrupted so far.
    """
    real = partitions._exact
    corrupted = []

    def exact(n, d):
        if (n, d) == (dividend, divisor):
            corrupted.append((n, d))
            n += 1
        return real(n, d)

    monkeypatch.setattr(partitions, "_exact", exact)
    return corrupted


def _rationals():
    """q = n/m > 1 with n <= 12 and m <= 5."""
    return st.integers(1, 5).flatmap(
        lambda m: st.integers(m + 1, 12).map(lambda n: Fraction(n, m))
    )


@st.composite
def ones_shifts(draw):
    """(q, order, c) with q = n/m > 1 and c[k] in 0..k^2 for 0 <= k <= order."""
    q = draw(_rationals())
    order = draw(st.integers(0, 10))
    shifts = [draw(st.integers(0, k * k)) for k in range(order + 1)]
    return q, order, shifts


def _cell_values(q, order):
    """R's cells (t, x) as t a^x b^(L^2) / P_n, keyed by (n, L, k)."""
    a, b = q.numerator, q.denominator
    commons, table = partitions._refined_sums(partitions._cells(q, order))
    assert commons == [
        math.prod(a**i - b**i for i in range(1, n + 1)) for n in range(order + 1)
    ]
    return {
        (n, L, k): Fraction(t * b ** (L * L)) * Fraction(a) ** x / commons[n]
        for n, row in enumerate(table)
        for L, cell in enumerate(row)
        for k, (t, x) in cell.items()
    }


def _cell_sums(q, order):
    """Per (n, L, k), the sum of 1/|Aut(lambda)| over the reference partitions."""
    sums = {}
    for n in range(order + 1):
        for lam in reference.partitions(n):
            key = (n, lam.length, reference.multiplicity(lam, 1))
            sums[key] = sums.get(key, 0) + 1 / reference.aut_order(lam, q)
    return sums


class TestPartitionSum:
    @pytest.mark.parametrize("exponent", EXPONENTS)
    @pytest.mark.parametrize(
        "q",
        [
            Fraction(2),
            Fraction(5, 2),
            Fraction(7, 3),
            Fraction(10),
            Fraction(3),
            Fraction(4),
        ],
    )
    def test_matches_per_term_fraction_sum(self, q, exponent):
        read, lam_exponent = EXPONENTS[exponent]
        assert read(q, 16) == reference.partition_sum(q, 16, lam_exponent)

    @settings(max_examples=60, deadline=None)
    @given(ones_shifts())
    def test_any_ones_shift_matches_per_term_fraction_sum(self, drawn):
        # the exponents e = L^2 - c(k) that the ones can be placed with once
        # per size: an offset error in the powers of a or b that eq1's and
        # eq2's shifts cancel shows for some c
        q, order, shifts = drawn
        got = partitions._ones_placed(
            q, partitions._cells(q, order), shifts.__getitem__
        )
        want = reference.partition_sum(
            q,
            order,
            lambda lam: lam.length**2 - shifts[reference.multiplicity(lam, 1)],
        )
        assert got == want

    def test_any_replaced_weight_is_summed_exactly(self):
        # signed numerators that share no structure with |Aut|, powers of a
        # of either sign in any order, and common denominators of any shape
        rng = random.Random(17)
        commons = [rng.randint(1, 10**9) for _ in range(10)]
        for a in (2, 3, 7, 10):
            sums = [{} for _ in commons]
            want = [Fraction(0)] * len(commons)
            for _ in range(300):
                s = rng.randrange(len(commons))
                x, n = rng.randint(-40, 40), rng.randint(-(10**30), 10**30)
                sums[s][x] = sums[s].get(x, 0) + n
                want[s] += Fraction(a) ** x * n / commons[s]
            assert partitions._power_sums(sums, a, commons) == want

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            partitions._refined_sums(partitions._cells(2, -1))

    @pytest.mark.parametrize("division", ["q-binomial", "edge"])
    def test_a_corrupted_division_raises(self, division, monkeypatch):
        # at q = 7/3, a^k - b^k = 4, 40, 316, ...: neither division is by 1
        f = [7**k - 3**k for k in range(4)]
        dividend, divisor = {
            # [2; 2] = (P_2 / P_0) / P_2, r of the two ones (1,1) appended to ()
            "q-binomial": (f[1] * f[2], f[1] * f[2]),
            # one part 3 placed on (): r = P_3 / (P_0 P_1)
            "edge": (f[1] * f[2] * f[3], f[1]),
        }[division]
        corrupted = _corrupt_one_division(monkeypatch, dividend, divisor)
        # the ones are placed per cell into R, and per size for eq1 and eq2
        middles = [
            lambda q, order: partitions._refined_sums(partitions._cells(q, order)),
            partitions.eq1_middle_series,
            partitions.eq2_middle_series,
        ]
        for middle in middles:
            with pytest.raises(ArithmeticError):
                middle(Fraction(7, 3), 8)
        assert corrupted == [(dividend, divisor)] * len(middles)


class TestRefinedSums:
    """R[n][L][k]: the sums of 1/|Aut(lambda)| per size, length and m_1."""

    @pytest.mark.parametrize(
        "q",
        [Fraction(2), Fraction(5, 2), Fraction(7, 3), Fraction(10), Fraction(3)],
    )
    def test_cells_match_per_term_sums(self, q):
        # every (n, L, k) that some partition has is a cell, and no other is
        assert _cell_values(q, 14) == _cell_sums(q, 14)

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(7, 3)])
    def test_cells_match_per_term_sums_at_order_20(self, q):
        # every part size 2..20 gains up to 10 parts; the values are pinned,
        # not R's (t, x), which a different fold may scale by a power of a
        assert _cell_values(q, 20) == _cell_sums(q, 20)

    @settings(max_examples=60, deadline=None)
    @given(_rationals(), st.integers(0, 10))
    def test_any_q_cells_match_per_term_sums(self, q, order):
        assert _cell_values(q, order) == _cell_sums(q, order)

    @pytest.mark.parametrize(
        "q", [Fraction(2), Fraction(5, 2), Fraction(3), Fraction(7, 3)]
    )
    def test_cells_match_corollary_1(self, q):
        # sum over lambda |- n with l(lambda) = a, m_1(lambda) = b of 1/|Aut|
        # = [u^n] u^(2a-b) / (q^(a^2+r^2) (1/q)_b (1/q)_r (u/q)_r), r = a - b
        order = 10
        cells = _cell_values(q, order)
        compared = 0
        for a in range(order + 1):
            for b in range(a + 1):
                law = reference.cor1_joint_series(q, order, a, b)
                for n in range(order + 1):
                    assert cells.get((n, a, b), 0) == law[n], (n, a, b)
                    compared += 1
        assert compared == 726  # 66 pairs (a, b) at 11 orders each


class TestClWeight:
    def test_examples(self):
        # u^1: 1/|Aut (1)|; u^2: 1/|Aut (2)| + 1/|Aut (1,1)| = 1/2 + 1/6
        got = unnormalized_weight_series(2, 2)
        assert got == [1, 1, Fraction(2, 3)]

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(3), Fraction(5, 2)])
    def test_total_mass(self, q):
        # summed weights match 1/(u/q)_inf coefficientwise: P_u is a
        # probability measure
        got = unnormalized_weight_series(q, 8)
        assert got == reference.inverse(pochhammer_infinite_u_over_q(q, 8))


class TestMiddleSeries:
    def test_eq1_leading(self):
        s = eq1_middle_series(2, 4)
        assert s[0] == 1
        assert s[1] == 3
        assert s[2] == Fraction(20, 3)

    def test_eq2_leading(self):
        s = eq2_middle_series(2, 4)
        assert s[0] == 1
        assert s[1] == 1
        assert s[2] == Fraction(5, 3)

    @pytest.mark.parametrize("order", [0, 1, 8])
    @pytest.mark.parametrize(
        "q", [Fraction(2), Fraction(5, 2), Fraction(10), Fraction(7, 3)]
    )
    def test_middle_series_equals_the_three_singles(self, q, order):
        assert partitions.middle_series(q, order) == (
            eq1_middle_series(q, order),
            eq2_middle_series(q, order),
            unnormalized_weight_series(q, order),
        )


class TestProductOverIrreducibles:
    def test_constant_term(self):
        assert product_over_irreducibles_series(2, 0)[0] == 1

    @pytest.mark.parametrize("q", [2, 3])
    def test_equals_geometric(self, q):
        assert product_over_irreducibles_series(q, 6) == [1] * 7

    def test_rejects_rational_q(self):
        with pytest.raises(ValueError):
            product_over_irreducibles_series(Fraction(5, 2), 4)
