"""The shared leaf: exact rationals, truncated series and the partition type.

Every route reads ``Rational``, ``_exact`` (a division that raises on a
remainder), ``multiply``, ``power`` and ``Partition`` from here.  This
module imports no other module of the package, so sharing it lends no
route another's result or formula.  Every value is an exact rational, a
``fractions.Fraction`` or an int.  A truncated series in u is the list
of its coefficients of u^0..u^N; ``multiply`` and ``power`` keep that
length and discard every term of degree > N.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import total_ordering
from typing import Sequence, Union

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
