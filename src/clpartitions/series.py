"""Exact truncated power series and q-Pochhammer machinery.

Every value here is an exact rational, a ``fractions.Fraction`` or an
int; there is no floating point anywhere.  A truncated series in u is
the list of its coefficients of u^0..u^N; the list functions below keep
that length and discard every term of degree > N.

The q-Pochhammer symbol used throughout is the descending one, for a
rational x,

    (x)_i = (1 - x)(1 - x/q)(1 - x/q^2) ... (1 - x/q^(i-1)).

The q-series at q = a/b in lowest terms are built from the integers
P_j = prod_{k=1..j} (a^k - b^k): with T_j = j(j+1)/2, 1 - q^-k =
(a^k - b^k) / a^k gives (1/q)_j = P_j / a^T_j.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import accumulate
from typing import Union

Rational = Union[int, Fraction]


def multiply(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """The product of two series truncated at the same order."""
    if len(a) != len(b):
        raise ValueError(f"series lengths differ: {len(a)} vs {len(b)}")
    n = len(a)
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        if x:
            for j in range(n - i):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def power(a: list[Fraction], k: int) -> list[Fraction]:
    """a^k for an integer k >= 0, by repeated squaring."""
    if k < 0:
        raise ValueError("power needs k >= 0")
    result = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    while k:
        if k & 1:
            result = multiply(result, a)
        k >>= 1
        if k:
            a = multiply(a, a)
    return result


def _exact(n: int, d: int) -> int:
    """n / d, which must be an integer; ArithmeticError if it is not."""
    quotient, remainder = divmod(n, d)
    if remainder:
        raise ArithmeticError(f"{d} does not divide {n}")
    return quotient


def _pochhammer_numerators(q: Rational, order: int) -> tuple[int, int, list[int]]:
    """(a, b, [P_0, ..., P_order]) for q = a/b > 1 in lowest terms."""
    q = Fraction(q)
    if q <= 1:
        raise ValueError("requires q > 1")
    a, b = q.numerator, q.denominator
    factors = (a**k - b**k for k in range(1, order + 1))
    return a, b, list(accumulate(factors, operator.mul, initial=1))


def sum_wellknown_identity_lhs(q: Rational, order: int) -> list[Fraction]:
    """The b-sum sum_{j>=0} u^j / (q^j (1/q)_j), truncated at *order*.

    The term for j contributes only to the u^j coefficient, so the partial
    sum over j = 0..order is exact.  Since q^j (1/q)_j = P_j / (b^j a^T_(j-1)),
    the coefficient of u^j is b^j a^T_(j-1) / P_j.
    """
    a, b, ps = _pochhammer_numerators(q, order)
    return [Fraction(b**j * a ** (j * (j - 1) // 2), ps[j]) for j in range(order + 1)]


def pochhammer_infinite_u_over_q(q: Rational, order: int) -> list[Fraction]:
    """(u/q)_inf = prod_{k>=1}(1 - u/q^k), truncated at *order*.

    Euler's expansion: the coefficient of u^j is
    (-1)^j q^{-T_j} / (1/q)_j = (-1)^j b^T_j / P_j, a finite exact
    computation.
    """
    _, b, ps = _pochhammer_numerators(q, order)
    return [
        Fraction((-1) ** j * b ** (j * (j + 1) // 2), ps[j]) for j in range(order + 1)
    ]


def gl_order(n: int, q: Rational) -> Fraction:
    """Order of GL(n, q): prod_{i=0}^{n-1} (q^n - q^i); 1 for n = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    q = Fraction(q)
    result = Fraction(1)
    qn = q**n
    for i in range(n):
        result *= qn - q**i
    return result


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
    assert total % d == 0
    return total // d
