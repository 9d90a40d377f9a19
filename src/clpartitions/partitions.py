"""Integer partitions, automorphism orders, and partition-sum series.

A partition is stored as a weakly decreasing tuple of positive integers.
The automorphism order here is that of a finite abelian q-group of type
lambda,

    |Aut(lambda)| = q^{sum_i (lambda'_i)^2} * prod_i (1/q)_{m_i(lambda)},

evaluated exactly at any rational q > 1 (the identities checked downstream
are rational-function identities in q, so non-prime-power q is allowed).

Every partition comes from one depth-first walk (`_walk`).  It visits
the partitions with every part >= 3, each built from its parent by
appending a part >= 3, and carries their statistics and the integer
r = P_|lambda| / D (P_s = prod_{k<=s} (a^k - b^k), D = prod_m P_m over
the multiplicities) from the parent.  Every other partition is a node
with j twos and then k ones appended, and each reader appends them
itself: `partitions_of(n)` pads every node of size s <= n with j twos
and n - s - 2j ones.  `_refined_sums` sums the nodes per (size,
length), expands each (size, length) sum into its chain of twos and
the result into its chain of ones, in integers per power of a, and so
fills one table R[n][L][k] of the sums of 1/|Aut(lambda)| per size n,
length L and number k of parts 1.  Each middle series reads R once,
applying its power q^e with e = L^2, L^2 - k or 0 as it reads.  By the
distributive law that is the sum over every partition, with no
`Partition` built and no call to `aut_order`.  `aut_order` is the
per-partition definition of the same weight, read by the checks that
name single partitions.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache, lru_cache, total_ordering
from itertools import accumulate
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


def _rises(factors: Sequence[int]) -> list[list[int]]:
    """rises[s][k] = factors[s+1] * ... * factors[s+k] = P_(s+k) / P_s."""
    return [
        list(accumulate(factors[s + 1 :], operator.mul, initial=1))
        for s in range(len(factors))
    ]


# a node of the walk: (parts, size, n2, m, big_m, r), see _walk
_Node = tuple[tuple[int, ...], int, int, int, int, int]


def _walk(order: int, factors: Sequence[int]) -> Iterator[_Node]:
    """Every partition of size <= order with every part >= 3, once, with its statistics.

    A node is (parts, size, n2, m, big_m, r): the parts (all >= 3), their
    sum, n2 = sum_i (2i - 1) lambda_i (= sum_i (lambda'_i)^2, see
    aut_order), the multiplicity m of the last part and
    M = sum m(m+1)/2 over the multiplicities of the parts.  With
    P_s = factors[1] * ... * factors[s] and D the product of P_m over the
    multiplicities m, r = P_size / D.  With factors[k] = a^k - b^k, D is
    aut_order's prod_m P_m, and r is an integer (see _refined_sums).

    A child appends a part p >= 3, p <= the last part, at index i (from
    0): n2 grows by (2i + 1) p.  If p repeats the last part, whose
    multiplicity is m, M grows by m + 1 and D gains the factor
    factors[m + 1]; a new, smaller part adds 1 to M and factors[1] to D.
    Either way r becomes r * P_(size+p) / P_size divided by D's new
    factor, a division that is checked and raises ArithmeticError if it
    leaves a remainder.  The partitions with a part 2 or 1 are not
    visited: each reader appends to every node its j twos and then its
    k ones itself.
    """
    rises = _rises(factors)
    stack = [((), 0, 0, 0, 0, 1)]
    while stack:
        node = stack.pop()
        yield node
        parts, size, n2, m, big_m, r = node
        room = order - size
        last = parts[-1] if parts else room
        step = 2 * len(parts) + 1
        rise = rises[size]
        for p in range(3, min(last, room) + 1):
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

    Each walk node of size s <= n, with j twos and then n - s - 2j ones
    appended for every j <= (n - s)/2; every factor is 1, so r stays 1.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    found = [
        Partition(parts + (2,) * j + (1,) * (n - size - 2 * j))
        for parts, size, *_ in _walk(n, (1,) * (n + 1))
        for j in range((n - size) // 2 + 1)
    ]
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


def _fold(row: dict[int, int], a_power: Callable[[int], int]) -> tuple[int, int]:
    """(t, x_0) with sum_x a^x * row[x] = a^x_0 * t, by Horner's rule in a.

    The integers are folded from the highest power of a present down to
    the least, x_0, which may have either sign.  An empty row is (0, 0).
    """
    powers = sorted(row, reverse=True)
    t, low = 0, powers[0] if powers else 0
    for x in powers:
        t = t * a_power(low - x) + row[x]
        low = x
    return t, low


def _power_sums(
    sums: Sequence[dict[int, int]], a: int, commons: Sequence[int]
) -> list[Fraction]:
    """Per size s, the sum over x of a^x * sums[s][x] / commons[s].

    Each size's integers are folded (`_fold`) into one integer times a
    power of a, so one Fraction is built per size.
    """
    a_power = cache(a.__pow__)  # a^k, each k computed once
    totals = []
    for row, common in zip(sums, commons):
        t, low = _fold(row, a_power)
        if low >= 0:
            totals.append(Fraction(t * a_power(low), common))
        else:
            totals.append(Fraction(t, a_power(-low) * common))
    return totals


# R[n][L][k] = (t, x), see _refined_sums
_Table = list[list[dict[int, tuple[int, int]]]]


def _refined_sums(q: Rational, order: int) -> tuple[list[int], _Table]:
    """(P_0..P_order, R): the partition sums per size n, length L and m_1 = k.

    With q = a/b in lowest terms, n = |lambda|, L = l(lambda),
    P_n = prod_{k=1..n} (a^k - b^k), D = prod_m P_m over the
    multiplicities, r = P_n / D and aut_order's integer form,

        1 / |Aut(lambda)| = a^(M - n2) * b^(n2 - L^2) * r * b^(L^2) / P_n.

    R[n][L] maps each k that occurs to (t, x), with t * a^x the sum of
    a^(M - n2) b^(n2 - L^2) r over the partitions of n with L parts, k
    of them 1; so t a^x b^(L^2) / P_n is their sum of 1 / |Aut(lambda)|.
    r is an integer: with l = sum m_i <= s the number of parts,
    P_l / prod_i P_(m_i) is the q-multinomial coefficient
    [l; m_1, m_2, ...]_q in Z[q] homogenised to an integer in a and b,
    and P_l divides P_s.  Every division below is checked all the same.

    Every partition is a walk node (`_walk`, every part >= 3) with j
    twos and then k ones appended, and the three are summed in turn:

    * The nodes.  Each adds r * b^(n2 - l^2) to one integer per
      (s, l, power M - n2 of a), and each (s, l) cell is folded by
      Horner's rule in a (`_fold`) into one integer t times a^x.
      n2 - l^2 <= l (s - l) <= s^2 / 4, since every column after the
      first is at most l long and they hold s - l boxes.
    * The twos.  j twos add 2lj + j^2 to n2 - l^2, j(j+1)/2 to M and P_j
      to D, so r becomes r * P_(s+2j) / (P_s P_j), and x grows by
      j(j+1)/2 - 4lj - 2j^2.  So each folded (s, l) cell feeds
      (s + 2j, l + j) once per j, and those cells are folded in turn.
      2lj + j^2 < (l + j)^2 <= (s + 2j)^2 / 4, as l + j <= (s + 2j) / 2.
    * The ones.  k ones add (2l+k) k = (l+k)^2 - l^2 to n2, which leaves
      n2 - L^2 as it was, k(k+1)/2 to M and P_k to D, so r becomes
      r * [s+k; k].  So each folded (s, l) cell t * a^x fills
      R[s+k][l+k][k] with t [s+k; k] at the power
      x + k(k+1)/2 - (2l+k) k of a, which falls by 2l + k from k ones
      to k + 1.

    The quotients P_(s+cj) / (P_s P_j) of the twos (c = 2) and of the
    ones (c = 1, the homogenised q-binomial [s+j; j]) come from one
    table builder.  By the distributive law this is still the sum over
    every partition: no closed form sums a chain, and the rhs is not
    read.  No Partition is built and aut_order is not called.
    """
    q = Fraction(q)
    if q <= 1:
        raise ValueError("requires q > 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    a, b = q.numerator, q.denominator
    a_power = cache(a.__pow__)  # a^k, each k computed once
    factors = [a**k - b**k for k in range(order + 1)]  # factors[0] is never read
    commons = list(accumulate(factors[1:], operator.mul, initial=1))  # P_0..P_order
    rises = _rises(factors)
    ones, twos = (  # [s][j] = P_(s+cj) / (P_s P_j) for c = 1 and c = 2
        [[_exact(rise, commons[j]) for j, rise in enumerate(row[::c])] for row in rises]
        for c in (1, 2)
    )
    b_powers = [b**k for k in range(order * order // 4 + 1)]  # <= order^2 / 4, above
    # nodes[s][l]: per power M - n2 of a, the sum of r * b^(n2 - l^2) over
    # the walk's nodes of size s and length l <= s/3
    nodes = [[{} for _ in range(s // 3 + 1)] for s in range(order + 1)]
    for parts, size, n2, _, big_m, r in _walk(order, factors):
        length = len(parts)
        cell, x = nodes[size][length], big_m - n2
        cell[x] = cell.get(x, 0) + r * b_powers[n2 - length * length]
    # the same sums over the partitions with every part >= 2, l <= s/2
    chains = [[{} for _ in range(s // 2 + 1)] for s in range(order + 1)]
    for s, row in enumerate(nodes):
        for length, cell in enumerate(row):
            if not cell:
                continue
            t, low = _fold(cell, a_power)
            for j, quotient in enumerate(twos[s]):
                target = chains[s + 2 * j][length + j]
                x = low + j * (j + 1) // 2 - (4 * length + 2 * j) * j
                weight = quotient * b_powers[(2 * length + j) * j]
                target[x] = target.get(x, 0) + t * weight
    table = [[{} for _ in range(n + 1)] for n in range(order + 1)]
    for s, row in enumerate(chains):
        for length, cell in enumerate(row):
            if not cell:
                continue
            t, x = _fold(cell, a_power)
            for k, binomial in enumerate(ones[s]):
                table[s + k][length + k][k] = (t * binomial, x)
                x -= 2 * length + k
    return commons, table


def _read(
    q: Rational, order: int, exponent: Callable[[int, int], int]
) -> list[Fraction]:
    """Coefficients of sum_lambda q^e u^{|lambda|} / |Aut(lambda)| up to u^order.

    e = exponent(L, k), with L = l(lambda), k = m_1(lambda) and
    0 <= e <= L^2.  Since q^e = a^e b^(L^2 - e) / b^(L^2), each cell
    (t, x) of R (`_refined_sums`) adds t * b^(L^2 - e) at the power
    x + e of a to its size's sums, which `_power_sums` folds into one
    Fraction over a^K P_n.
    """
    commons, table = _refined_sums(q, order)
    a, b = Fraction(q).as_integer_ratio()
    shifts = [  # shifts[L][k] = (e, b^(L^2 - e)) with e = exponent(L, k)
        [(e, b ** (L * L - e)) for e in [exponent(L, k) for k in range(L + 1)]]
        for L in range(order + 1)
    ]
    sums = [{} for _ in table]  # per size, per power of a
    for target, row in zip(sums, table):
        for cell, shift in zip(row, shifts):
            for k, (t, x) in cell.items():
                e, weight = shift[k]
                x += e
                target[x] = target.get(x, 0) + t * weight
    return _power_sums(sums, a, commons)


def eq1_middle_series(q: Rational, order: int) -> list[Fraction]:
    """(1/(1-u)) * sum_lambda q^{(lambda'_1)^2} u^{|lambda|} / |Aut(lambda)|.

    The factor 1/(1-u) is the prefix sum of the coefficients.
    """
    return list(accumulate(_read(q, order, lambda length, ones: length * length)))


def eq2_middle_series(q: Rational, order: int) -> list[Fraction]:
    """sum_lambda u^{|lambda|} / |Aut(lambda)| * q^{(lambda'_1)^2 - m_1(lambda)}."""
    return _read(q, order, lambda length, ones: length * length - ones)


def unnormalized_weight_series(q: Rational, order: int) -> list[Fraction]:
    """sum_lambda u^{|lambda|} / |Aut(lambda)| truncated at *order*.

    Equals 1/(u/q)_inf coefficientwise; this is the statement that the
    Cohen-Lenstra measure P_u has total mass 1.
    """
    return _read(q, order, lambda length, ones: 0)


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
        cs[::d] = unnormalized_weight_series(q**d, order // d)
        result = multiply(result, power(cs, count))
    return result
