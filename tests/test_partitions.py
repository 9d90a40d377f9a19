"""Tests for partition statistics, automorphism orders, and partition sums."""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

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
from clpartitions.series import gl_order, pochhammer_infinite_u_over_q


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

    def test_conjugate_examples(self):
        assert Partition().conjugate() == Partition()
        assert Partition((3,)).conjugate() == Partition((1, 1, 1))
        assert Partition((2, 1)).conjugate() == Partition((2, 1))

    def test_multiplicity_examples(self):
        assert Partition((2, 1, 1)).multiplicity(1) == 2
        assert Partition((2, 1)).multiplicity(3) == 0
        assert Partition((2, 2, 1)).multiplicity(2) == 2

    @pytest.mark.parametrize("n", range(13))
    def test_conjugate_involution(self, n):
        for lam in partitions_of(n):
            assert lam.conjugate().conjugate() == lam

    @pytest.mark.parametrize("n", range(11))
    def test_size_identities(self, n):
        for lam in partitions_of(n):
            top = lam.parts[0] if lam.parts else 0
            assert sum(i * lam.multiplicity(i) for i in range(1, top + 1)) == n
            conj = lam.conjugate().parts + (0, 0)  # lambda'_i = 0 past the top part
            assert sum(conj) == n
            assert conj[0] == lam.length
            for i in range(1, top + 2):
                assert lam.multiplicity(i) == conj[i - 1] - conj[i]


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
                        m = lam.multiplicity(i)
                        want *= reference.pochhammer_direct(1 / q, m, q)
                    assert aut_order(lam, q) == want


# exponent of q per partition: as _partition_sum reads it, from the length
# and m_1, and as the reference reads it, from the Partition
EXPONENTS = {
    "eq1": (lambda length, m1: length * length, lambda lam: lam.length**2),
    "eq2": (
        lambda length, m1: length * length - m1,
        lambda lam: lam.length**2 - lam.multiplicity(1),
    ),
    "weight": (lambda length, m1: 0, lambda lam: 0),
}


def _statistics(parts, factors):
    """The walk's node for *parts*, each statistic computed from the parts alone."""
    mults = [parts.count(p) for p in sorted(set(parts))]
    d = 1
    for m in mults:
        d *= math.prod(factors[1 : m + 1])
    size = sum(parts)
    p_size = math.prod(factors[1 : size + 1])
    assert p_size % d == 0
    return (
        parts,
        size,
        sum(c * c for c in Partition(parts).conjugate().parts),
        parts.count(parts[-1]) if parts else 0,
        sum(m * (m + 1) // 2 for m in mults),
        p_size // d,
    )


class TestWalk:
    def test_visits_every_partition_once_per_size(self):
        # each node stands for itself with k = 0..26 - size ones appended
        nodes = list(partitions._walk(26, (1,) * 27))
        sizes = Counter(size + k for _, size, *_ in nodes for k in range(27 - size))
        assert sizes[26] == 2436  # p(26)
        for s in range(27):
            assert sizes[s] == len(partitions_of(s)) == _count_partitions(s, s)
        assert set(sizes) == set(range(27))

    def test_stack_holds_only_partitions_without_ones(self):
        # 11,732 partitions of size <= 26; the p(26) = 2,436 of them with no
        # part 1 are the walk's nodes, the 9,296 others their chains of ones
        nodes = list(partitions._walk(26, (1,) * 27))
        chained = sum(26 - size for _, size, *_ in nodes)
        assert (len(nodes) + chained, len(nodes), chained) == (11732, 2436, 9296)
        for node in nodes:
            assert all(p >= 2 for p in node[0])

    def test_nodes_are_distinct_partitions(self):
        parts = [node[0] for node in partitions._walk(14, (1,) * 15)]
        assert len(parts) == len(set(parts))
        for p in parts:
            Partition(p)  # weakly decreasing and positive

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(7, 3)])
    def test_carried_statistics_match_direct_ones(self, q):
        # the last entry is r = P_size / prod_i P_(m_i)
        a, b = q.numerator, q.denominator
        factors = [a**k - b**k for k in range(13)]
        for node in partitions._walk(12, factors):
            assert node == _statistics(node[0], factors)


def _corrupt_one_division(monkeypatch, dividend, divisor):
    """Add 1 to the dividend of the walk's checked division dividend / divisor.

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
        walk_exponent, lam_exponent = EXPONENTS[exponent]
        got = partitions._partition_sum(q, 16, walk_exponent)
        assert got == reference.partition_sum(q, 16, lam_exponent)

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
            partitions._partition_sum(2, -1, EXPONENTS["weight"][0])

    @pytest.mark.parametrize(
        "exponent", [lambda length, m1: -1, lambda length, m1: length * length + 1]
    )
    def test_rejects_exponent_outside_range(self, exponent):
        with pytest.raises(ValueError):
            partitions._partition_sum(2, 4, exponent)

    @pytest.mark.parametrize("division", ["q-binomial", "edge"])
    def test_a_corrupted_division_raises(self, division, monkeypatch):
        # at q = 7/3, a^k - b^k = 4, 40, 316, ...: neither division is by 1
        f = [7**k - 3**k for k in range(4)]
        dividend, divisor = {
            # [2; 2] = P_2 / (P_2 P_0), r of the chain node (1,1) below ()
            "q-binomial": (f[1] * f[2], f[1] * f[2]),
            # the stack edge () -> (3): r = P_3 / P_1
            "edge": (f[1] * f[2] * f[3], f[1]),
        }[division]
        corrupted = _corrupt_one_division(monkeypatch, dividend, divisor)
        with pytest.raises(ArithmeticError):
            partitions._partition_sum(Fraction(7, 3), 8, EXPONENTS["eq1"][0])
        assert corrupted == [(dividend, divisor)]


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


class TestProductOverIrreducibles:
    def test_constant_term(self):
        assert product_over_irreducibles_series(2, 0)[0] == 1

    @pytest.mark.parametrize("q", [2, 3])
    def test_equals_geometric(self, q):
        assert product_over_irreducibles_series(q, 6) == [1] * 7

    def test_rejects_rational_q(self):
        with pytest.raises(ValueError):
            product_over_irreducibles_series(Fraction(5, 2), 4)
