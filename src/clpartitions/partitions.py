"""The middle route: partition sums weighted by 1/|Aut(lambda)|.

This module reads only the shared leaf ``series``, which also holds the
`Partition` type (re-exported here), never the oracle, the sampler or
the rhs route.  A partition is a weakly decreasing tuple of positive
integers.  The automorphism order here is that of a finite abelian
q-group of type lambda,

    |Aut(lambda)| = q^{sum_i (lambda'_i)^2} * prod_i (1/q)_{m_i(lambda)},

evaluated exactly at any rational q > 1 (the identities checked downstream
are rational-function identities in q, so non-prime-power q is allowed).

The partition sums place the parts one size at a time (`_cells`): for
p = order down to 2, every (size, length) cell of the partitions with
all parts > p gains m parts p for each m >= 1, and each cell keeps its
sum as one integer times a power of a (q = a/b).  The ones come last,
read from the cells.  For eq1 and eq2 (`_ones_placed`) the power of a
that a cell reaches with k ones depends on its length l only through
l^2, so each size's cells are summed once and the ones are placed once
per size.  The weight series, whose b^(L^2) ties l to k, fills one
table R[n][L][k] of the sums of 1/|Aut(lambda)| per size n, length L
and number k of parts 1 (`_refined_sums`) and reads each entry.
`_cells` is memoized like `partitions_of`: the three share one build
per (q, order) per process.  By the distributive law each is the sum
over every partition, with no `Partition` built and no call to
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


# cells[s][l] = (t, x) or None, see _cells; R[n][L][k] = (t, x), see _refined_sums
_Cells = tuple[tuple[tuple[int, int] | None, ...], ...]
_Table = list[list[dict[int, tuple[int, int]]]]


@lru_cache(maxsize=None)  # equal keys, such as 2 and Fraction(2), share one build
def _cells(q: Rational, order: int) -> tuple[tuple[int, ...], Callable, _Cells]:
    """(P_0..P_order, quotients, cells): the partitions with no part 1.

    With q = a/b in lowest terms, n = |lambda|, L = l(lambda),
    P_n = prod_{k=1..n} (a^k - b^k), D = prod_m P_m over the
    multiplicities, r = P_n / D and aut_order's integer form,

        1 / |Aut(lambda)| = a^(M - n2) * b^(n2 - L^2) * r * b^(L^2) / P_n.

    r is an integer: with l = sum m_i <= s the number of parts,
    P_l / prod_i P_(m_i) is the q-multinomial coefficient
    [l; m_1, m_2, ...]_q in Z[q] homogenised to an integer in a and b,
    and P_l divides P_s.  Every division below is checked all the same.

    quotients(s, p)[m] = P_(s+pm) / (P_s P_m) for s + pm <= order: the
    factor by which r grows when m parts p join a partition of s, each
    division checked.  At p = 1 it is the homogenised q-binomial
    [s+m; m], which places the ones (`_refined_sums`, `_ones_placed`).

    The parts are placed one size at a time, p = order down to 2, each
    size below every part already placed.  Cell (s, l) holds t * a^x,
    the sum of a^(M - n2) b^(n2 - l^2) r over the partitions of s with
    l parts, all of them > p; at first only () is a cell, (1, 0).  m
    parts p, appended to a partition with l parts, add
    p (2lm + m^2) = p ((l+m)^2 - l^2) to n2, so (p - 1)(2lm + m^2) to
    n2 - l^2, m(m+1)/2 to M and P_m to D: r becomes
    r * P_(s+pm) / (P_s P_m).  So cell (s, l) adds
    t * quotients(s, p)[m] * b^((p-1)(2lm + m^2)) at the power
    x + m(m+1)/2 - p (2lm + m^2) of a to cell (s + pm, l + m), for each
    m >= 1.  The sizes s are visited downwards, so each cell gains parts
    p from the cells as they stood before size p.  A cell keeps one
    integer: a term at a higher power of a is scaled up to the cell's
    power, and a term at a lower power scales the cell up to its own.
    n2 - l^2 <= l (s - l) <= s^2 / 4, since every column after the
    first is at most l long and they hold s - l boxes.  After p = 2 the
    cells hold every partition with no part 1; a size with none (s = 1)
    holds no cell.

    By the distributive law this is the sum over every partition: no
    closed form sums a part size, and the rhs is not read.  No
    Partition is built and aut_order is not called.  Memoized: P and the
    rows of cells are tuples, and quotients gives a new list per call.
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
    rises = [  # rises[s][i] = P_(s+i) / P_s
        list(accumulate(factors[s + 1 :], operator.mul, initial=1))
        for s in range(order + 1)
    ]
    b_powers = [b**k for k in range(order * order // 4 + 1)]  # <= order^2 / 4, above

    def quotients(s: int, p: int) -> list[int]:
        """[m] = P_(s+pm) / (P_s P_m) for s + pm <= order, each division checked."""
        return [_exact(rise, commons[m]) for m, rise in enumerate(rises[s][::p])]

    cells = [[None] * (s // 2 + 1) for s in range(order + 1)]
    cells[0][0] = (1, 0)
    for p in range(order, 1, -1):
        for s in range(order - p, -1, -1):
            if not any(cells[s]):
                continue
            quotient = quotients(s, p)
            for length, cell in enumerate(cells[s]):
                if cell is None:
                    continue
                t, x = cell
                for m in range(1, len(quotient)):
                    grown = (2 * length + m) * m
                    term = t * quotient[m] * b_powers[(p - 1) * grown]
                    y = x + m * (m + 1) // 2 - p * grown
                    row, at = cells[s + p * m], length + m
                    if row[at] is None:
                        row[at] = (term, y)
                    else:
                        u, z = row[at]
                        if y >= z:
                            row[at] = (u + term * a_power(y - z), z)
                        else:
                            row[at] = (u * a_power(z - y) + term, y)
    return commons, quotients, tuple(map(tuple, cells))


def _refined_sums(q: Rational, order: int) -> tuple[tuple[int, ...], _Table]:
    """(P_0..P_order, R): the partition sums per size n, length L and m_1 = k.

    R[n][L] maps each k that occurs to (t, x), with t * a^x the sum of
    a^(M - n2) b^(n2 - L^2) r over the partitions of n with L parts, k
    of them 1 (see `_cells` for the notation); so t a^x b^(L^2) / P_n is
    their sum of 1 / |Aut(lambda)|.

    The ones leave n2 - L^2 as it was, so each cell (s, l) of `_cells`
    fills R[s+k][l+k][k] with t [s+k; k] (quotients(s, 1)[k]) at the
    power x_k = x + k(k+1)/2 - (2l+k) k of a, which falls by 2l + k from
    k ones to k + 1: the chain of ones, one entry of R per cell and k.
    """
    commons, quotients, cells = _cells(q, order)
    table = [[{} for _ in range(n + 1)] for n in range(len(cells))]
    for s, row in enumerate(cells):
        ones = quotients(s, 1)
        for length, cell in enumerate(row):
            if cell is None:
                continue
            t, x = cell
            for k, binomial in enumerate(ones):
                table[s + k][length + k][k] = (t * binomial, x)
                x -= 2 * length + k
    return commons, table


def _ones_placed(
    q: Rational, order: int, shift: Callable[[int], int]
) -> list[Fraction]:
    """Coefficients of sum_lambda q^(L^2 - c(k)) u^{|lambda|} / |Aut(lambda)|.

    L = l(lambda), k = m_1(lambda), c = shift and 0 <= c(k) <= k^2, so
    0 <= L^2 - c(k) <= L^2.  Cell (s, l) of `_cells` with k ones
    appended is R[s+k][l+k][k] = (t [s+k; k], x_k), with
    x_k = x - 2lk - k(k-1)/2 (`_refined_sums`).  Since
    q^e = a^e b^(L^2 - e) / b^(L^2), read at e = (l+k)^2 - c(k) it adds
    t [s+k; k] b^c(k) at the power

        x_k + (l+k)^2 - c(k) = (x + l^2) + k(k+1)/2 - c(k)

    of a to size s + k.  Only x + l^2 depends on l, so each size's cells
    fold (`_fold`) into one integer S_s a^(y_s) = sum_l t a^(x + l^2)
    before any one is placed, and each (s, k) adds
    S_s [s+k; k] b^c(k) at the power y_s + k(k+1)/2 - c(k).  eq1 takes
    c(k) = 0 and eq2 c(k) = k.  `_power_sums` folds each size into one
    Fraction over a^K P_n.
    """
    commons, quotients, cells = _cells(q, order)
    a, b = Fraction(q).as_integer_ratio()
    a_power = cache(a.__pow__)  # a^k, each k computed once
    placed = [  # placed[k] = (the a-power k(k+1)/2 - c(k), b^c(k))
        (k * (k + 1) // 2 - c, b**c)
        for k, c in enumerate(map(shift, range(len(cells))))
    ]
    sums = [{} for _ in cells]  # per size, per power of a
    for s, row in enumerate(cells):
        powers = {}  # the size's cells, per power x + l^2 of a
        for length, cell in enumerate(row):
            if cell is not None:
                t, x = cell
                x += length * length
                powers[x] = powers.get(x, 0) + t
        if not powers:
            continue
        total, low = _fold(powers, a_power)
        for k, (binomial, (offset, weight)) in enumerate(zip(quotients(s, 1), placed)):
            y, target = low + offset, sums[s + k]
            target[y] = target.get(y, 0) + total * binomial * weight
    return _power_sums(sums, a, commons)


def _weights(q: Rational, order: int) -> list[Fraction]:
    """Coefficients of sum_lambda u^{|lambda|} / |Aut(lambda)|, from R.

    Since q^0 = b^(L^2) / b^(L^2), each cell (t, x) of R
    (`_refined_sums`) adds t * b^(L^2) at the power x of a to its size's
    sums, which `_power_sums` folds into one Fraction over a^K P_n.
    b^(L^2) ties L to k, so each entry of R is read, not each size.
    """
    commons, table = _refined_sums(q, order)
    a, b = Fraction(q).as_integer_ratio()
    weights = [b ** (L * L) for L in range(len(table))]
    sums = [{} for _ in table]  # per size, per power of a
    for target, row in zip(sums, table):
        for cell, weight in zip(row, weights):
            for t, x in cell.values():
                target[x] = target.get(x, 0) + t * weight
    return _power_sums(sums, a, commons)


def eq1_middle_series(q: Rational, order: int) -> list[Fraction]:
    """(1/(1-u)) * sum_lambda q^{(lambda'_1)^2} u^{|lambda|} / |Aut(lambda)|.

    The factor 1/(1-u) is the prefix sum of the coefficients.
    """
    return list(accumulate(_ones_placed(q, order, lambda ones: 0)))


def eq2_middle_series(q: Rational, order: int) -> list[Fraction]:
    """sum_lambda u^{|lambda|} / |Aut(lambda)| * q^{(lambda'_1)^2 - m_1(lambda)}."""
    return _ones_placed(q, order, lambda ones: ones)


def unnormalized_weight_series(q: Rational, order: int) -> list[Fraction]:
    """sum_lambda u^{|lambda|} / |Aut(lambda)| truncated at *order*.

    Equals 1/(u/q)_inf coefficientwise; this is the statement that the
    Cohen-Lenstra measure P_u has total mass 1.
    """
    return _weights(q, order)


def middle_series(q: Rational, order: int) -> tuple[list[Fraction], ...]:
    """(eq1, eq2, weight series) from the functions above, which share one `_cells`."""
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
