"""Literal reference constructions that the tests compare the library against.

Nothing in ``src/`` calls these.  Each is the slow, formula-shaped form of
something the library computes another way: the tests pin the library
to them by literal ``Fraction`` equality.
"""

from fractions import Fraction

from clpartitions.partitions import partitions_of
from clpartitions.series import (
    inverse,
    multiply,
    pochhammer_infinite_u_over_q,
    pochhammer_scalar,
)


def add(a, b):
    """The element-wise sum of two series truncated at the same order."""
    assert len(a) == len(b)
    return [x + y for x, y in zip(a, b)]


def zero(order):
    """The zero series, truncated at *order*."""
    return [Fraction(0)] * (order + 1)


def monomial(degree, order, c=1):
    """c * u^degree, truncated at *order* (vanishes if degree > order)."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    cs = zero(order)
    if degree <= order:
        cs[degree] = Fraction(c)
    return cs


def pochhammer_finite(x, i, q):
    """(x)_i = prod_{k=0}^{i-1} (1 - x/q^k) for a series x, truncated at x's order."""
    if i < 0:
        raise ValueError("pochhammer index must be non-negative")
    q = Fraction(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    one = monomial(0, len(x) - 1)
    result = one
    for k in range(i):
        result = multiply(result, add(one, [-c / q**k for c in x]))
    return result


def aut_order(lam, q):
    """q^{sum_i (lambda'_i)^2} * prod_i (1/q)_{m_i}, term by term in Fractions."""
    q = Fraction(q)
    result = q ** sum(c * c for c in lam.conjugate().parts)
    for part in set(lam.parts):
        result *= pochhammer_scalar(1 / q, lam.multiplicity(part), q)
    return result


def partition_sum(q, order, exponent, aut_order=aut_order):
    """sum_lambda q^{exponent(lambda)} u^{|lambda|} / |Aut(lambda)|, term by term."""
    q = Fraction(q)
    return [
        sum(
            (q ** exponent(lam) / aut_order(lam, q) for lam in partitions_of(s)),
            Fraction(0),
        )
        for s in range(order + 1)
    ]


def _sum_of_inverted_products(q, order, step, scale):
    """sum_a u^{step*a} / (scale(a) * (u/q)_a), each (u/q)_a expanded and inverted."""
    u_over_q = monomial(1, order, Fraction(1) / q)
    total = zero(order)
    for a in range(order // step + 1):
        denom = [scale(a) * c for c in pochhammer_finite(u_over_q, a, q)]
        total = add(total, multiply(monomial(step * a, order), inverse(denom)))
    return total


def eq1_rhs_series(q, order):
    """(1/(1-u)) * sum_{a>=0} u^a / ((1/q)_a (u/q)_a)."""
    q = Fraction(q)
    total = _sum_of_inverted_products(
        q, order, 1, lambda a: pochhammer_scalar(1 / q, a, q)
    )
    return multiply([Fraction(1)] * (order + 1), total)


def eq2_rhs_series(q, order):
    """(1/(u/q)_inf) * sum_{c>=0} u^{2c} / (q^{c^2} (1/q)_c (u/q)_c)."""
    q = Fraction(q)
    total = _sum_of_inverted_products(
        q, order, 2, lambda c: q ** (c * c) * pochhammer_scalar(1 / q, c, q)
    )
    return multiply(inverse(pochhammer_infinite_u_over_q(q, order)), total)
