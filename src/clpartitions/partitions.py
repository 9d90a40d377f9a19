"""Integer partitions, automorphism orders, and partition-sum series.

A partition is stored as a weakly decreasing tuple of positive integers.
The automorphism order here is that of a finite abelian q-group of type
lambda,

    |Aut(lambda)| = q^{sum_i (lambda'_i)^2} * prod_i (1/q)_{m_i(lambda)},

evaluated exactly at any rational q > 1 (the identities checked downstream
are rational-function identities in q, so non-prime-power q is allowed).

Every partition comes from one depth-first walk (`_walk`) that appends
parts in weakly decreasing order and carries each partition's statistics
from its parent: `partitions_of` keeps the walk's nodes of one size, and
the middle series sum over all of its nodes, every partition once, with
no `Partition` built and no call to `aut_order`.  `aut_order` is the
per-partition definition of the same weight, read by the checks that
name single partitions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

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


# a node of the walk: (parts, size, n2, m, m1, big_m, d), see _walk
_Node = tuple[tuple[int, ...], int, int, int, int, int, int]


def _walk(order: int, factors: Sequence[int]) -> Iterator[_Node]:
    """Every partition of size <= order once, with statistics from its parent.

    A node is (parts, size, n2, m, m1, big_m, d): the parts, their sum,
    n2 = sum_i (2i - 1) lambda_i (= sum_i (lambda'_i)^2, see aut_order),
    the multiplicity m of the last part, m1 = m_1(lambda),
    M = sum m(m+1)/2 over the multiplicities of the parts, and
    d = prod over the parts' multiplicities m of factors[1] * ... * factors[m].

    A child appends a part p <= the last part at index i (from 0): n2
    grows by (2i + 1) p, m1 by (p == 1).  If p repeats the last part, its
    multiplicity rises to m + 1, M grows by m + 1 and d is multiplied by
    factors[m + 1]; a new, smaller part adds 1 to M and multiplies d by
    factors[1].  With factors[k] = a^k - b^k, d is aut_order's prod_m P_m.

    Nodes come in depth-first preorder with the children of a node by
    decreasing new part, so the partitions of each size come in
    reverse-lexicographic order.
    """
    stack = [((), 0, 0, 0, 0, 0, 1)]
    while stack:
        node = stack.pop()
        yield node
        parts, size, n2, m, m1, big_m, d = node
        room = order - size
        last = parts[-1] if parts else room
        step = 2 * len(parts) + 1
        # pushed by increasing part, so the largest part is popped first
        for p in range(1, min(last, room) + 1):
            m_p = m + 1 if p == last else 1
            stack.append(
                (
                    parts + (p,),
                    size + p,
                    n2 + step * p,
                    m_p,
                    m1 + (p == 1),
                    big_m + m_p,
                    d * factors[m_p],
                )
            )


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse-lexicographic order of parts.

    They are the walk's nodes of size n; with every factor 1, d stays 1.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return tuple(
        Partition(node[0]) for node in _walk(n, (1,) * (n + 1)) if node[1] == n
    )


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
        numerator *= _pochhammer_numerator(m, a, b)
        big_m += m * (m + 1) // 2
    return Fraction(numerator * a ** (n2 - big_m), b**n2)


@lru_cache(maxsize=None)
def _pochhammer_numerator(m: int, a: int, b: int) -> int:
    """P_m = prod_{k=1..m} (a^k - b^k) = a^(m(m+1)/2) (1/q)_m at q = a/b."""
    result = 1
    for k in range(1, m + 1):
        result *= a**k - b**k
    return result


def _size_sums(
    terms: Iterable[tuple[int, int, int, int]], a: int, commons: Sequence[int]
) -> list[Fraction]:
    """Per size s < len(commons), the sum of a^x * n / d over the terms (s, x, n, d).

    The terms of size s are added over one common denominator
    a^K * commons[s], where -K is the least x met so far at that size (K
    starts at 0): a term with a smaller x first multiplies the size's
    running numerator by the missing power of a.  Each d must divide
    commons[s]; the division is checked, and a term whose d does not
    raises ArithmeticError.  One Fraction is built per size.
    """
    a_power = cache(a.__pow__)  # a^k, each k computed once
    totals = [0] * len(commons)
    lows = [0] * len(commons)  # -K per size
    for s, x, n, d in terms:
        quotient, remainder = divmod(commons[s], d)
        if remainder:
            raise ArithmeticError(f"{d} does not divide {commons[s]} at size {s}")
        if x < lows[s]:
            totals[s] *= a_power(lows[s] - x)
            lows[s] = x
        totals[s] += a_power(x - lows[s]) * n * quotient
    return [Fraction(t, a_power(-k) * c) for t, k, c in zip(totals, lows, commons)]


def _partition_sum(
    q: Rational, order: int, exponent: Callable[[int, int], int]
) -> list[Fraction]:
    """Coefficients of sum_lambda q^e u^{|lambda|} / |Aut(lambda)| up to u^order.

    e = exponent(l(lambda), m_1(lambda)) must satisfy 0 <= e <= n2; the
    exponents used here, (lambda'_1)^2, (lambda'_1)^2 - m_1 and 0, do,
    since n2 >= (lambda'_1)^2.

    One walk (`_walk`) visits every partition of size <= order once and
    carries n2, the length, m_1, M and D = prod_m P_m from its parent.
    With q = a/b in lowest terms and aut_order's integer form,

        q^e / |Aut(lambda)| = a^(e + M - n2) * b^(n2 - e) / D.

    The terms of size s are added over one common denominator
    a^K * P_s, with P_s = prod_{k=1..s} (a^k - b^k) (`_size_sums`).  D
    divides P_s: with l = sum m_i <= s the number of parts,
    P_l / prod_i P_{m_i} is the q-multinomial coefficient
    [l; m_1, m_2, ...]_q in Z[q] homogenised to an integer in a and b,
    and P_l divides P_s.  `_size_sums` checks the division all the same.
    No Partition is built and aut_order is not called; a test that
    replaces `_walk` reaches every middle series.
    """
    q = Fraction(q)
    if q <= 1:
        raise ValueError("requires q > 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    a, b = q.numerator, q.denominator
    factors = [a**k - b**k for k in range(order + 1)]  # factors[0] is never read
    commons = list(accumulate(factors[1:], operator.mul, initial=1))  # P_0..P_order
    b_power = cache(b.__pow__)
    terms = (
        (size, (e := exponent(len(parts), m1)) + big_m - n2, b_power(n2 - e), d)
        for parts, size, n2, _, m1, big_m, d in _walk(order, factors)
    )
    return _size_sums(terms, a, commons)


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
