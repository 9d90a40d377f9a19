"""Integer partitions, automorphism orders, and partition-sum series.

A partition is stored as a weakly decreasing tuple of positive integers.
The automorphism order here is that of a finite abelian q-group of type
lambda,

    |Aut(lambda)| = q^{sum_i (lambda'_i)^2} * prod_i (1/q)_{m_i(lambda)},

evaluated exactly at any rational q > 1 (the identities checked downstream
are rational-function identities in q, so non-prime-power q is allowed).

Every partition comes from one depth-first walk (`_walk`).  It visits
the partitions with no part 1, each built from its parent by appending
a part >= 2, and carries their statistics and the integer r = P_|lambda| / D
(P_s = prod_{k<=s} (a^k - b^k), D = prod_m P_m over the multiplicities)
from the parent.  Each reader appends the chain of ones itself:
`partitions_of(n)` pads every node of size <= n with ones up to n, and
the middle series expand each node's chain of k = 0, 1, ... ones in one
loop, adding b^(n2 - e) * r into one integer per (size, power of a),
every partition once, with no `Partition` built and no call to
`aut_order`.  `aut_order` is the per-partition definition of the same
weight, read by the checks that name single partitions.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache, lru_cache, total_ordering
from itertools import accumulate, compress, count
from typing import Callable, Iterator, Sequence

from .series import Rational, _exact, irreducible_count, multiply, power


@total_ordering
class Partition:
    """Weakly decreasing sequence of positive integers; may be empty.

    Immutable: ``parts`` is set once, checked, in ``__init__``.  Equality,
    order and hash are those of the one-field tuple ``(parts,)``, and a
    Partition equals no other type.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int] = ()) -> None:
        parts = tuple(map(operator.index, parts))
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError(f"parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Partition, (self.parts,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Partition:
            return NotImplemented
        return self.parts == other.parts

    def __lt__(self, other: Partition) -> bool:
        if other.__class__ is not Partition:
            return NotImplemented
        return self.parts < other.parts

    def __hash__(self) -> int:
        return hash((self.parts,))

    def __repr__(self) -> str:
        return f"Partition(parts={self.parts!r})"

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

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


# a node of the walk: (parts, size, n2, m, big_m, r), see _walk
_Node = tuple[tuple[int, ...], int, int, int, int, int]


def _walk(order: int, factors: Sequence[int]) -> Iterator[_Node]:
    """Every partition of size <= order with no part 1, once, with its statistics.

    A node is (parts, size, n2, m, big_m, r): the parts (all >= 2), their
    sum, n2 = sum_i (2i - 1) lambda_i (= sum_i (lambda'_i)^2, see
    aut_order), the multiplicity m of the last part and
    M = sum m(m+1)/2 over the multiplicities of the parts.  With
    P_s = factors[1] * ... * factors[s] and D the product of P_m over the
    multiplicities m, r = P_size / D.  With factors[k] = a^k - b^k, D is
    aut_order's prod_m P_m, and r is an integer (see _partition_sum).

    A child appends a part p >= 2, p <= the last part, at index i (from
    0): n2 grows by (2i + 1) p.  If p repeats the last part, whose
    multiplicity is m, M grows by m + 1 and D gains the factor
    factors[m + 1]; a new, smaller part adds 1 to M and factors[1] to D.
    Either way r becomes r * P_(size+p) / P_size divided by D's new
    factor, a division that is checked and raises ArithmeticError if it
    leaves a remainder.  The partitions with ones are not visited: each
    reader appends the chain of k = 1, 2, ... ones to every node itself.
    """
    # rises[s][k] = P_(s+k) / P_s
    rises = [
        list(accumulate(factors[s + 1 :], operator.mul, initial=1))
        for s in range(order + 1)
    ]
    stack = [((), 0, 0, 0, 0, 1)]
    while stack:
        node = stack.pop()
        yield node
        parts, size, n2, m, big_m, r = node
        room = order - size
        last = parts[-1] if parts else room
        step = 2 * len(parts) + 1
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


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse-lexicographic order of parts.

    Each walk node of size s <= n, with n - s ones appended; every factor
    is 1, so r stays 1.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    nodes = _walk(n, (1,) * (n + 1))
    found = [Partition(parts + (1,) * (n - size)) for parts, size, *_ in nodes]
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

    One walk (`_walk`) visits every partition with no part 1 once and
    carries n2, M and r = P_s / D from its parent, where s = |lambda|,
    P_s = prod_{k=1..s} (a^k - b^k) and D = prod_m P_m.  With q = a/b in
    lowest terms and aut_order's integer form,

        q^e / |Aut(lambda)| = a^(e + M - n2) * b^(n2 - e) * r / P_s.

    r is an integer: with l = sum m_i <= s the number of parts,
    P_l / prod_i P_(m_i) is the q-multinomial coefficient
    [l; m_1, m_2, ...]_q in Z[q] homogenised to an integer in a and b,
    and P_l divides P_s.  The walk checks each division all the same.

    Each walk node, of length l and size s, stands for itself and its
    chain of k = 1, 2, ... appended ones, summed in one loop.  k ones add
    (2l+k) k to n2, k(k+1)/2 to M and P_k to D, so r becomes
    r * [s+k; k], with [n; k] = P_n / (P_k P_(n-k)) the homogenised
    q-binomial (a checked division).  So with e_k = e(l+k, k), each
    partition adds the integer r * b^(n2 - l^2) * [s+k; k] b^((l+k)^2 - e_k)
    to the running sum of its size at the power
    (M - n2) + e_k + k(k+1)/2 - (2l+k) k of a; one row of cells per
    (s, l) holds each k's weight and the place of its sum.  The sums are
    one list with a row per size t for the powers -t^2..t(t+1)/2 of a:
    n2 <= t^2, and M <= l(l+1)/2 with l^2 <= n2 bounds e + M - n2 above.
    `_power_sums` folds each size's sums into one Fraction over a^K P_s.
    No Partition is built and aut_order is not called.
    """
    q = Fraction(q)
    if q <= 1:
        raise ValueError("requires q > 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    ones = []  # per length, for k ones: the powers of b and of a that they add
    for length in range(order + 1):
        es = [exponent(length + k, k) for k in range(order - length + 1)]
        if not all(0 <= e <= (length + k) ** 2 for k, e in enumerate(es)):
            raise ValueError(f"an exponent at length >= {length} is outside 0..l^2")
        ones.append(
            [
                ((length + k) ** 2 - e, e + k * (k + 1) // 2 - (2 * length + k) * k)
                for k, e in enumerate(es)
            ]
        )
    a, b = q.numerator, q.denominator
    factors = [a**k - b**k for k in range(order + 1)]  # factors[0] is never read
    commons = list(accumulate(factors[1:], operator.mul, initial=1))  # P_0..P_order
    b_powers = [b**k for k in range(order * order + 1)]  # n2 - e <= n2 <= order^2
    binomials = [  # binomials[s][k] = [s+k; k]
        [_exact(commons[s + k], commons[s] * commons[k]) for k in range(order - s + 1)]
        for s in range(order + 1)
    ]
    # the sum of size t at the power x of a, -t^2 <= x <= t(t+1)/2: sums[zero[t] + x]
    widths = (t * t + t * (t + 1) // 2 + 1 for t in range(order + 1))
    starts = list(accumulate(widths, initial=0))
    zero = [start + t * t for t, start in enumerate(starts)]
    cells = [  # cells[s][l]: per k, (weight, place of its sum); l <= s/2, no part is 1
        [
            [(c * b_powers[y], z + x) for c, (y, x), z in zip(row, ones[l], zero[s:])]
            for l in range(s // 2 + 1)
        ]
        for s, row in enumerate(binomials)
    ]
    sums = [0] * starts[-1]
    for parts, size, n2, _, big_m, r in _walk(order, factors):
        length = len(parts)
        x, r = big_m - n2, r * b_powers[n2 - length * length]
        for weight, i in cells[size][length]:
            sums[x + i] += r * weight
    rows = [sums[i:j] for i, j in zip(starts, starts[1:])]
    rows = [dict(compress(zip(count(-t * t), row), row)) for t, row in enumerate(rows)]
    return _power_sums(rows, a, commons)


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
