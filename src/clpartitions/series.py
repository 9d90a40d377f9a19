"""Exact truncated power series and q-Pochhammer machinery.

Everything here is computed with ``fractions.Fraction``; there is no
floating point anywhere.  A :class:`PowerSeries` is a formal series in a
single variable u, truncated (inclusively) at a fixed order N, so it
carries N+1 rational coefficients.  Arithmetic requires matching orders
and always discards terms of degree > N.

The q-Pochhammer symbol used throughout is the descending one, for a
rational x,

    (x)_i = (1 - x)(1 - x/q)(1 - x/q^2) ... (1 - x/q^(i-1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rational = Union[int, Fraction]


class OrderMismatchError(ValueError):
    """Arithmetic between series of different truncation orders."""


class SingularSeriesError(ZeroDivisionError):
    """Inversion of a series whose constant term is zero."""


class DivergenceError(ValueError):
    """Infinite product requested outside its region of convergence."""


class CrossCheckError(ArithmeticError):
    """Two independent computations of the same series disagree."""


@dataclass(frozen=True)
class PowerSeries:
    """Truncated formal power series with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs)
        )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_coeffs(coeffs: Iterable[Rational], order: int) -> "PowerSeries":
        """Build a series from leading coefficients, zero-padded to *order*."""
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        return PowerSeries(tuple(cs))

    @staticmethod
    def one(order: int) -> "PowerSeries":
        return PowerSeries.from_coeffs([1], order)

    @staticmethod
    def constant(c: Rational, order: int) -> "PowerSeries":
        return PowerSeries.from_coeffs([c], order)

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient index {k} outside 0..{self.order}")
        return self.coeffs[k]

    def _check_order(self, other: "PowerSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: object) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            other = PowerSeries.constant(other, self.order)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check_order(other)
        return PowerSeries(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(tuple(-a for a in self.coeffs))

    def __sub__(self, other: object) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            other = PowerSeries.constant(other, self.order)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            return PowerSeries.constant(other, self.order) - self
        return NotImplemented

    def __mul__(self, other: object) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return PowerSeries(tuple(a * c for a in self.coeffs))
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check_order(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return PowerSeries(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "PowerSeries":
        if k < 0:
            return self.inverse() ** (-k)
        result = PowerSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse up to the truncation order.

        Standard recurrence: with a0 != 0 and b = 1/a,
        b_n = -(1/a0) * sum_{i=1..n} a_i b_{n-i}.
        """
        a0 = self.coeffs[0]
        if a0 == 0:
            raise SingularSeriesError("cannot invert series with zero constant term")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = 1 / a0
        for k in range(1, n + 1):
            s = Fraction(0)
            for i in range(1, k + 1):
                if self.coeffs[i]:
                    s += self.coeffs[i] * out[k - i]
            out[k] = -s / a0
        return PowerSeries(tuple(out))

    def __repr__(self) -> str:
        return f"PowerSeries({[str(c) for c in self.coeffs]})"


def geometric_series(order: int) -> PowerSeries:
    """1/(1-u) = 1 + u + u^2 + ... truncated at *order*."""
    return PowerSeries(tuple(Fraction(1) for _ in range(order + 1)))


def qpow(q: Rational, k: int) -> Fraction:
    """q**k for integer k of either sign."""
    q = Fraction(q)
    if k >= 0:
        return q**k
    return 1 / q ** (-k)


def pochhammer_scalar(x: Rational, i: int, q: Rational) -> Fraction:
    """(x)_i = prod_{k=0}^{i-1} (1 - x/q^k) for rational x."""
    if i < 0:
        raise ValueError("pochhammer index must be non-negative")
    q = Fraction(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    x = Fraction(x)
    result = Fraction(1)
    for k in range(i):
        result *= 1 - x / q**k
    return result


def sum_wellknown_identity_lhs(q: Rational, order: int) -> PowerSeries:
    """sum_{b>=0} u^b / (q^b (1/q)_b), truncated at *order*.

    The term for b contributes only to the u^b coefficient, so the partial
    sum over b = 0..order is exact.
    """
    q = Fraction(q)
    if q <= 1:
        raise ValueError("requires q > 1")
    cs = []
    for b in range(order + 1):
        cs.append(1 / (q**b * pochhammer_scalar(Fraction(1, 1) / q, b, q)))
    return PowerSeries(tuple(cs))


def euler_expansion_u_over_q(q: Rational, order: int) -> PowerSeries:
    """Euler's alternating expansion of prod_{k>=1}(1 - u/q^k).

    Coefficient of u^j is (-1)^j q^{-j(j+1)/2} / (1/q)_j; each is a finite
    exact computation.
    """
    q = Fraction(q)
    if abs(q) <= 1:
        raise DivergenceError("infinite product requires |q| > 1")
    cs = []
    for j in range(order + 1):
        sign = -1 if j % 2 else 1
        cs.append(
            sign
            * qpow(q, -j * (j + 1) // 2)
            / pochhammer_scalar(Fraction(1, 1) / q, j, q)
        )
    return PowerSeries(tuple(cs))


def pochhammer_infinite_u_over_q(q: Rational, order: int) -> PowerSeries:
    """(u/q)_inf = prod_{k>=1}(1 - u/q^k) truncated at *order*.

    Computed as the exact series inverse of sum_{b} u^b/(q^b (1/q)_b) and
    cross-checked against Euler's alternating expansion; the two finite
    computations must agree coefficientwise.
    """
    q = Fraction(q)
    if abs(q) <= 1:
        raise DivergenceError("infinite product requires |q| > 1")
    via_sum = sum_wellknown_identity_lhs(q, order).inverse()
    via_euler = euler_expansion_u_over_q(q, order)
    if via_sum != via_euler:
        raise CrossCheckError(
            "internal cross-check failed: series inverse of the b-sum "
            "disagrees with Euler's expansion"
        )
    return via_sum


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
