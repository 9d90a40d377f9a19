"""Integer partitions, automorphism orders, and partition-sum series.

A partition is stored as a weakly decreasing tuple of positive integers.
The automorphism order here is that of a finite abelian q-group of type
lambda,

    |Aut(lambda)| = q^{sum_i (lambda'_i)^2} * prod_i (1/q)_{m_i(lambda)},

evaluated exactly at any rational q > 1 (the identities checked downstream
are rational-function identities in q, so non-prime-power q is allowed).

Every partition comes from one depth-first walk (`_walk`).  Its stack
holds the partitions with no part 1, each built from its parent by
appending a part >= 2; below each of them the walk yields the chain of
partitions with k = 1, 2, ... ones appended, without stacking them.
Every node carries its statistics and the integer r = P_|lambda| / D
(P_s = prod_{k<=s} (a^k - b^k), D = prod_m P_m over the multiplicities)
from its parent.  `partitions_of` keeps the walk's nodes of one size,
and the middle series add b^(n2 - e) * r into one integer per (size,
power of a), every partition once, with no `Partition` built and no call
to `aut_order`.  `aut_order` is the per-partition definition of the same
weight, read by the checks that name single partitions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate
from typing import Callable, Iterator, Sequence

from .series import Rational, irreducible_count, multiply, power


@dataclass(frozen=True, order=True)
class Partition:
    """Weakly decreasing sequence of positive integers; may be empty."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        for i, p in enumerate(self.parts):
            if p <= 0:
                raise ValueError(f"parts must be positive, got {p}")
            if i and self.parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {self.parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        """Number of parts, l(lambda) = lambda'_1."""
        return len(self.parts)

    def conjugate(self) -> "Partition":
        """Column sizes of the diagram."""
        if not self.parts:
            return Partition()
        cols = tuple(
            sum(1 for p in self.parts if p >= i) for i in range(1, self.parts[0] + 1)
        )
        return Partition(cols)

    def multiplicity(self, i: int) -> int:
        """m_i(lambda) = number of parts equal to i."""
        if i < 1:
            raise ValueError("part size must be >= 1")
        return sum(1 for p in self.parts if p == i)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


# a node of the walk: (prefix, m1, size, n2, big_m, r), see _walk
_Node = tuple[tuple[int, ...], int, int, int, int, int]


def _walk(order: int, factors: Sequence[int]) -> Iterator[_Node]:
    """Every partition of size <= order once, with statistics from its parent.

    A node is (prefix, m1, size, n2, big_m, r).  The partition is the
    parts >= 2 in prefix followed by m1 ones, and size is their sum.
    n2 = sum_i (2i - 1) lambda_i (= sum_i (lambda'_i)^2, see aut_order) and
    M = sum m(m+1)/2 over the multiplicities m of the parts.  With
    P_s = factors[1] * ... * factors[s] and D the product of P_m over the
    multiplicities m, r = P_size / D.  With factors[k] = a^k - b^k, D is
    aut_order's prod_m P_m, and r is an integer (see _partition_sum).

    The stack holds only the partitions with no part 1 (m1 = 0).  A child
    appends a part p >= 2, p <= the last part, at index i (from 0): n2
    grows by (2i + 1) p.  If p repeats the last part, whose multiplicity
    is m, M grows by m + 1 and D gains the factor factors[m + 1]; a new,
    smaller part adds 1 to M and factors[1] to D.  Either way r becomes
    r * P_(size+p) / P_size divided by D's new factor.

    Below each stacked partition of length l and size s, the walk yields
    the chain of k = 1, 2, ... appended ones in place: n2 grows by
    (l + k)^2 - l^2, M by k(k+1)/2 and D by P_k, so r becomes r * [s+k; k]
    with [n; k] = P_n / (P_k * P_(n-k)), the homogenised q-binomial, from
    a table built once per walk.

    Every division, on a stack edge or into the q-binomial table, is
    checked and raises ArithmeticError if it leaves a remainder.  Each
    stacked partition comes just before its chain, so the partitions of
    one size do not come in lexicographic order; partitions_of sorts them.
    """
    # rises[s][k] = P_(s+k) / P_s, so rises[0] is P_0..P_order
    rises = [
        list(accumulate(factors[s + 1 :], operator.mul, initial=1))
        for s in range(order + 1)
    ]
    # chains[s][k] = [s+k; k]
    chains = [
        [_exact(rise[k], rises[0][k]) for k in range(len(rise))] for rise in rises
    ]
    triangular = list(accumulate(range(order + 1)))  # k(k+1)/2
    stack = [((), 0, 0, 0, 0, 1)]
    while stack:
        parts, size, n2, m, big_m, r = stack.pop()
        yield parts, 0, size, n2, big_m, r
        length = len(parts)
        room = order - size
        chain = chains[size]
        for k in range(1, room + 1):
            yield (
                parts,
                k,
                size + k,
                n2 + (2 * length + k) * k,
                big_m + triangular[k],
                r * chain[k],
            )
        last = parts[-1] if parts else room
        step = 2 * length + 1
        rise = rises[size]
        for p in range(2, min(last, room) + 1):
            m_p = m + 1 if p == last else 1
            stack.append(
                (
                    parts + (p,),
                    size + p,
                    n2 + step * p,
                    m_p,
                    big_m + m_p,
                    _exact(r * rise[p], factors[m_p]),
                )
            )


def _exact(n: int, d: int) -> int:
    """n / d, which must be an integer; ArithmeticError if it is not."""
    quotient, remainder = divmod(n, d)
    if remainder:
        raise ArithmeticError(f"{d} does not divide {n}")
    return quotient


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse-lexicographic order of parts.

    They are the walk's nodes of size n, with every factor 1 (so r stays 1).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    nodes = _walk(n, (1,) * (n + 1))
    found = [Partition(parts + (1,) * m1) for parts, m1, size, *_ in nodes if size == n]
    return tuple(sorted(found, reverse=True))


def aut_order(p: Partition, q: Rational) -> Fraction:
    """|Aut(lambda)| at evaluation point q, built from integers.

    Write q = a/b in lowest terms, n2 = sum_i (lambda'_i)^2 and, over the
    multiplicities m of the parts, M = sum m(m+1)/2 and
    P_m = prod_{k=1..m} (a^k - b^k).  Then

        |Aut(lambda)| = a^(n2 - M) * prod_m P_m / b^n2.

    Derivation:

    * n2 = sum_i (2i - 1) lambda_i: (lambda'_j)^2 counts the ordered pairs
      of rows that both reach column j, rows i and i' share
      min(lambda_i, lambda_i') = lambda_max(i,i') columns, and row i is
      the larger index of 2i - 1 ordered pairs.  So lambda' is not built.
    * 1 - q^-k = (a^k - b^k) / a^k, so (1/q)_m = P_m / a^(m(m+1)/2), and
      q^n2 = a^n2 / b^n2.
    * n2 >= M, since m_i = lambda'_i - lambda'_{i+1} <= lambda'_i and
      m(m+1)/2 <= m^2, so the power of a is an integer.
    * The quotient is in lowest terms: a prime dividing b divides neither
      a nor a^k - b^k.
    """
    q = Fraction(q)
    if q <= 1:
        raise ValueError("requires q > 1")
    a, b = q.numerator, q.denominator
    parts = p.parts
    n2 = sum(map(operator.mul, range(1, 2 * len(parts), 2), parts))
    numerator, big_m = 1, 0
    for part in set(parts):
        m = parts.count(part)
        for k in range(1, m + 1):
            numerator *= a**k - b**k
        big_m += m * (m + 1) // 2
    return Fraction(numerator * a ** (n2 - big_m), b**n2)


def _power_sums(
    sums: Sequence[dict[int, int]], a: int, commons: Sequence[int]
) -> list[Fraction]:
    """Per size s, the sum over x of a^x * sums[s][x] / commons[s].

    The integers of one size are folded by Horner's rule in a, from the
    highest power present down to the least, x_0, into one integer t
    with sum_x a^x * sums[s][x] = a^x_0 * t, so one Fraction is built per
    size.  x may have either sign.
    """
    a_power = cache(a.__pow__)  # a^k, each k computed once
    totals = []
    for row, common in zip(sums, commons):
        powers = sorted(row, reverse=True)
        t, low = 0, powers[0] if powers else 0
        for x in powers:
            t = t * a_power(low - x) + row[x]
            low = x
        if low >= 0:
            totals.append(Fraction(t * a_power(low), common))
        else:
            totals.append(Fraction(t, a_power(-low) * common))
    return totals


def _partition_sum(
    q: Rational, order: int, exponent: Callable[[int, int], int]
) -> list[Fraction]:
    """Coefficients of sum_lambda q^e u^{|lambda|} / |Aut(lambda)| up to u^order.

    e = exponent(l(lambda), m_1(lambda)) must satisfy 0 <= e <= l(lambda)^2
    (checked; ValueError otherwise), so e <= n2, since n2 >= (lambda'_1)^2.
    The exponents used here, (lambda'_1)^2, (lambda'_1)^2 - m_1 and 0, do.

    One walk (`_walk`) visits every partition of size <= order once and
    carries n2, M and r = P_s / D from its parent, where s = |lambda|,
    P_s = prod_{k=1..s} (a^k - b^k) and D = prod_m P_m.  With q = a/b in
    lowest terms and aut_order's integer form,

        q^e / |Aut(lambda)| = a^(e + M - n2) * b^(n2 - e) * r / P_s.

    r is an integer: with l = sum m_i <= s the number of parts,
    P_l / prod_i P_(m_i) is the q-multinomial coefficient
    [l; m_1, m_2, ...]_q in Z[q] homogenised to an integer in a and b,
    and P_l divides P_s.  The walk checks each division all the same.
    So each partition adds the integer b^(n2 - e) * r to one running sum
    per (size s, power of a), and `_power_sums` folds each size's sums
    into one Fraction over a^K * P_s.  No Partition is built and
    aut_order is not called; a test that replaces `_walk` reaches every
    middle series.
    """
    q = Fraction(q)
    if q <= 1:
        raise ValueError("requires q > 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    exponents = [
        [exponent(length, m1) for m1 in range(length + 1)] for length in range(order + 1)
    ]
    for length, row in enumerate(exponents):
        if not all(0 <= e <= length * length for e in row):
            raise ValueError(f"exponents at length {length} must lie in 0..{length**2}")
    a, b = q.numerator, q.denominator
    factors = [a**k - b**k for k in range(order + 1)]  # factors[0] is never read
    b_powers = [b**k for k in range(order * order + 1)]  # n2 - e <= n2 <= order^2
    sums: list[dict[int, int]] = [{} for _ in range(order + 1)]
    for parts, m1, size, n2, big_m, r in _walk(order, factors):
        e = exponents[len(parts) + m1][m1]
        row, x = sums[size], e + big_m - n2
        row[x] = row.get(x, 0) + b_powers[n2 - e] * r
    commons = list(accumulate(factors[1:], operator.mul, initial=1))  # P_0..P_order
    return _power_sums(sums, a, commons)


def eq1_middle_series(q: Rational, order: int) -> list[Fraction]:
    """(1/(1-u)) * sum_lambda q^{(lambda'_1)^2} u^{|lambda|} / |Aut(lambda)|.

    The factor 1/(1-u) is the prefix sum of the coefficients.
    """
    return list(
        accumulate(_partition_sum(q, order, lambda length, m1: length * length))
    )


def eq2_middle_series(q: Rational, order: int) -> list[Fraction]:
    """sum_lambda u^{|lambda|} / |Aut(lambda)| * q^{(lambda'_1)^2 - m_1(lambda)}."""
    return _partition_sum(q, order, lambda length, m1: length * length - m1)


def unnormalized_weight_series(q: Rational, order: int) -> list[Fraction]:
    """sum_lambda u^{|lambda|} / |Aut(lambda)| truncated at *order*.

    Equals 1/(u/q)_inf coefficientwise; this is the statement that the
    Cohen-Lenstra measure P_u has total mass 1.
    """
    return _partition_sum(q, order, lambda length, m1: 0)


def product_over_irreducibles_series(q: int, order: int) -> list[Fraction]:
    """The centralizer product over monic irreducibles phi != z.

    prod_{phi != z} sum_lambda u^{d(phi)|lambda|} / |Aut(lambda)|_{q -> q^{d(phi)}}

    The inner series depends only on d(phi), so degree-d irreducibles are
    grouped and the inner factor raised to the power irreducible_count(d, q)
    (minus 1 at d = 1, excluding the single polynomial z).  The resulting
    series equals 1/(1-u) identically.
    """
    if not isinstance(q, int) or q < 2:
        raise ValueError("requires integer q >= 2")
    if order < 0:
        raise ValueError("order must be >= 0")
    result = [Fraction(1)] + [Fraction(0)] * order
    for d in range(1, order + 1):
        count = irreducible_count(d, q) - (d == 1)  # exclude phi = z
        cs = [Fraction(0)] * (order + 1)
        for s, c in enumerate(_partition_sum(q**d, order // d, lambda length, m1: 0)):
            cs[d * s] = c
        result = multiply(result, power(cs, count))
    return result
