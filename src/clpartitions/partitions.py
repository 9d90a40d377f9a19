"""The middle route: partition sums weighted by 1/|Aut(lambda)|.

This module reads only the shared leaf ``series``, which also holds the
`Partition` type (re-exported here), never the oracle, the sampler or
the rhs route.  A partition is a weakly decreasing tuple of positive
integers.  The automorphism order here is that of a finite abelian
q-group of type lambda,

    |Aut(lambda)| = q^{sum_i (lambda'_i)^2} * prod_i (1/q)_{m_i(lambda)},

evaluated exactly at any rational q > 1 (the identities checked downstream
are rational-function identities in q, so non-prime-power q is allowed).

The partition sums strip each partition's first column (`_columns`):
one table per (q, order) of the sums W[n][L] of 1/|Aut(lambda)| over the
partitions of n with L parts, filled from the smaller sizes, serves eq1,
eq2 and the weight series, with no `Partition` built and no call to
`aut_order`, the per-partition definition of the same weight, read by
the checks that name single partitions; `partitions_of(n)` lists the
partitions of n for them.  The irreducible product groups the monic
irreducibles over F_q by degree, so `irreducible_count` lives beside it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate
from typing import Callable, Sequence

from .series import Partition, Rational, _exact, multiply, power


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse-lexicographic order of parts.

    By the recursion on (size, largest part): the partitions of s with
    no part above k are those with first part k, each k followed by a
    partition of s - k with no part above k, then those with no part
    above k - 1.  The parts stay tuples until the last step, so each
    partition of n is built and checked once, as a `Partition`.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    # capped[s][k]: the part tuples of the partitions of s with no part above k
    capped = [[[()]]]
    for s in range(1, n + 1):
        row = [[]]
        for k in range(1, s + 1):
            led = [(k, *rest) for rest in capped[s - k][min(k, s - k)]]
            row.append(led + row[k - 1])
        capped.append(row)
    return tuple(map(Partition, capped[n][n]))


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


@lru_cache(maxsize=None)  # equal keys, such as 2 and Fraction(2), share one build
def _columns(q: Rational, order: int) -> tuple[tuple, tuple, tuple]:
    """(P_0..P_order, cells, eq2's cells): the partition sums per size and length.

    Stripping the first column of lambda |- n, with L parts, k of them 1,
    leaves mu = (lambda_1 - 1, ..., lambda_L - 1) |- n - L, zeros dropped,
    with j = L - k parts.  lambda' = (L, mu'_1, mu'_2, ...) and
    m_(i+1)(lambda) = m_i(mu), so |Aut(lambda)| = q^(L^2) (1/q)_k |Aut(mu)|,
    and lambda <-> (L, mu) with l(mu) <= L reaches every partition once.
    So the sum W[n][L] of 1/|Aut(lambda)| over lambda |- n with L parts is

        W[n][L] = q^(-L^2) sum_j W[n-L][j] / (1/q)_(L-j),

    over j <= min(L, n - L), j >= 1 unless n = L, from W[0][0] = 1: about
    N^3/12 terms up to order N.

    With q = a/b in lowest terms, P_n = prod_{i=1..n} (a^i - b^i) and
    (1/q)_k = P_k / a^(k(k+1)/2), cell (n, L) is the integer t with

        W[n][L] = t a^(L(L+1)/2 - nL) b^(L^2) / P_n.

    Write m = n - L.  P_n / (P_m P_k) = [n; L] P_L / P_k, where
    [n; L] = P_n / (P_L P_m) is the q-binomial homogenised to an integer
    in a and b, one checked division per (n, L), and P_L / P_k is the
    product of a^i - b^i over k < i <= L.  So cell (m, j) = t' adds
    t' [n; L] (P_L / P_k) b^(j^2) a^(k(m - j)) to cell (n, L): the powers
    of a, j(j+1)/2 - mj + k(k+1)/2 - L^2 against L(L+1)/2 - nL, differ by
    k(m - j) >= 0, the least power of a of the cell's terms is at
    j = min(L, m), and no cell needs a power of a of its own.

    eq2 weighs lambda by q^(L^2 - k) = a^(L^2 - k) b^(k - L^2), so its
    cell (n, L) is the integer e with e a^(L(L+1)/2 - nL + L^2 - L) / P_n
    its sum: each term of cell (n, L), times a^j b^k, adds to e.  eq1 and
    the weight series read the cells.  By the distributive law each is
    the sum over every partition: no closed form sums a length, and the
    rhs is not read.  No Partition is built and aut_order is not called.
    Memoized: P and every row are tuples.
    """
    q = Fraction(q)
    if q <= 1:
        raise ValueError("requires q > 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    a, b = q.numerator, q.denominator
    a_power = cache(a.__pow__)  # a^k, each k computed once
    factors = [a**k - b**k for k in range(order + 1)]  # factors[0] is never read
    commons = tuple(accumulate(factors[1:], operator.mul, initial=1))  # P_0..P_order
    b_powers = [b**k for k in range(max(order, order * order // 4) + 1)]
    steps = []  # steps[L][j] = P_L / P_(L-j) * b^(j^2) for j <= min(L, order - L)
    for length in range(order + 1):
        tops = factors[length : length - min(length, order - length) : -1]
        falls = accumulate(tops, operator.mul, initial=1)
        steps.append([fall * b_powers[j * j] for j, fall in enumerate(falls)])
    cells, eq2 = [(1,)], [(1,)]
    for n in range(1, order + 1):
        row, weighed = [0], [0]
        for length in range(1, n + 1):
            rest = n - length
            cell = ones = 0
            for j in range(rest > 0, min(length, rest) + 1):
                k = length - j
                term = cells[rest][j] * steps[length][j] * a_power(k * (rest - j))
                cell += term
                ones += term * (a_power(j) * b_powers[k])
            binomial = _exact(commons[n], commons[length] * commons[rest])
            row.append(cell * binomial)
            weighed.append(ones * binomial)
        cells.append(tuple(row))
        eq2.append(tuple(weighed))
    return commons, tuple(cells), tuple(eq2)


def _column_sums(
    q: Rational, commons: tuple, rows: tuple, weigh: Callable
) -> list[Fraction]:
    """Per size n, sum_L rows[n][L] a^(L(L+1)/2 - nL + e) c / P_n, (e, c) = weigh(L)."""
    sums = []
    for n, row in enumerate(rows):
        powers = {}  # the size's cells, per power of a
        for length, t in enumerate(row):
            shift, c = weigh(length)
            x = length * (length + 1) // 2 - n * length + shift
            powers[x] = powers.get(x, 0) + t * c
        sums.append(powers)
    return _power_sums(sums, Fraction(q).numerator, commons)


def eq1_middle_series(q: Rational, order: int) -> list[Fraction]:
    """(1/(1-u)) * sum_lambda q^{(lambda'_1)^2} u^{|lambda|} / |Aut(lambda)|.

    The factor 1/(1-u) is the prefix sum of the coefficients.
    """
    commons, cells, _ = _columns(q, order)
    sums = _column_sums(q, commons, cells, lambda length: (length * length, 1))
    return list(accumulate(sums))


def eq2_middle_series(q: Rational, order: int) -> list[Fraction]:
    """sum_lambda u^{|lambda|} / |Aut(lambda)| * q^{(lambda'_1)^2 - m_1(lambda)}."""
    commons, _, eq2 = _columns(q, order)
    return _column_sums(q, commons, eq2, lambda length: (length * length - length, 1))


def unnormalized_weight_series(q: Rational, order: int) -> list[Fraction]:
    """sum_lambda u^{|lambda|} / |Aut(lambda)| truncated at *order*.

    Equals 1/(u/q)_inf coefficientwise; this is the statement that the
    Cohen-Lenstra measure P_u has total mass 1.
    """
    commons, cells, _ = _columns(q, order)
    b = Fraction(q).denominator
    return _column_sums(q, commons, cells, lambda length: (0, b ** (length * length)))


def middle_series(q: Rational, order: int) -> tuple[list[Fraction], ...]:
    """(eq1, eq2, weight series) from the functions above, which share one `_columns`."""
    singles = eq1_middle_series, eq2_middle_series, unnormalized_weight_series
    return tuple(single(q, order) for single in singles)


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def irreducible_count(d: int, q: int) -> int:
    """Number of monic irreducible degree-d polynomials over F_q.

    Necklace formula: (1/d) sum_{e | d} mu(e) q^{d/e}.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if q < 2:
        raise ValueError("q must be >= 2")
    total = sum(_mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
    return _exact(total, d)


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
