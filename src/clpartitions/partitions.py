"""Integer partitions, automorphism orders, and partition-sum series.

A partition is stored as a weakly decreasing tuple of positive integers.
The automorphism order here is that of a finite abelian q-group of type
lambda,

    |Aut(lambda)| = q^{sum_i (lambda'_i)^2} * prod_i (1/q)_{m_i(lambda)},

evaluated exactly at any rational q > 1 (the identities checked downstream
are rational-function identities in q, so non-prime-power q is allowed).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Callable

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


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse-lexicographic order of parts.

    Each largest part f, from n down, is put in front of the memoized
    partitions of n - f whose parts are all <= f; they are already in
    reverse-lexicographic order, so the result is too.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return (Partition(),)
    return tuple(
        Partition((first, *rest.parts))
        for first in range(n, 0, -1)
        for rest in partitions_of(n - first)
        if not rest.parts or rest.parts[0] <= first
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


def _partition_sum(
    q: Rational, order: int, exponent: Callable[[Partition], int]
) -> list[Fraction]:
    """Coefficients of sum_lambda q^{exponent(lambda)} u^{|lambda|} / |Aut(lambda)|.

    A partition of size s contributes only to the u^s coefficient, so
    enumerating sizes 0..order is exact.  aut_order is looked up when the
    sum runs, so a replaced aut_order reaches every middle series.

    With q = a/b in lowest terms, the term q^e / w is the integer pair
    a^e * w.denominator over b^e * w.numerator (e = exponent(lambda) >= 0).
    The terms of one size are added over the least common multiple of
    their denominators and reduced once, so no Fraction arithmetic runs
    per term.
    """
    q = Fraction(q)
    if q <= 1:
        raise ValueError("requires q > 1")
    a, b = q.numerator, q.denominator
    coeffs = []
    for s in range(order + 1):
        numerators, denominators = [], []
        for lam in partitions_of(s):
            e = exponent(lam)
            w = aut_order(lam, q)
            numerators.append(a**e * w.denominator)
            denominators.append(b**e * w.numerator)
        common = math.lcm(*denominators)
        total = sum(n * (common // d) for n, d in zip(numerators, denominators))
        coeffs.append(Fraction(total, common))
    return coeffs


def eq1_middle_series(q: Rational, order: int) -> list[Fraction]:
    """(1/(1-u)) * sum_lambda q^{(lambda'_1)^2} u^{|lambda|} / |Aut(lambda)|.

    The factor 1/(1-u) is the prefix sum of the coefficients.
    """
    return list(accumulate(_partition_sum(q, order, lambda lam: lam.length**2)))


def eq2_middle_series(q: Rational, order: int) -> list[Fraction]:
    """sum_lambda u^{|lambda|} / |Aut(lambda)| * q^{(lambda'_1)^2 - m_1(lambda)}."""
    return _partition_sum(q, order, lambda lam: lam.length**2 - lam.multiplicity(1))


def unnormalized_weight_series(q: Rational, order: int) -> list[Fraction]:
    """sum_lambda u^{|lambda|} / |Aut(lambda)| truncated at *order*.

    Equals 1/(u/q)_inf coefficientwise; this is the statement that the
    Cohen-Lenstra measure P_u has total mass 1.
    """
    return _partition_sum(q, order, lambda lam: 0)


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
        for s, c in enumerate(_partition_sum(q**d, order // d, lambda lam: 0)):
            cs[d * s] = c
        result = multiply(result, power(cs, count))
    return result
