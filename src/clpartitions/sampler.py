"""Markov-chain sampler for Cohen-Lenstra random partitions.

A random partition with distribution P_u is generated column by column:
draw the first conjugate column size from the "infinite" kernel row, then
each successive column size b <= a from the finite row

    K(a, b) = u^b (1/q)_a (u/q)_a / (q^{b^2} (1/q)_{a-b} (1/q)_b (u/q)_b),

stopping when 0 is drawn.  All probabilities are exact rationals and
finite rows sum to exactly 1.  Each kernel entry, and the partial
product (u/q)_inf, is one ``Fraction`` of two integers built from the
products P_j and U_j of ``_products``; each Corollary 1 law is one such
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
settled by one comparison.
"""

from __future__ import annotations

import bisect
import random
from fractions import Fraction
from typing import NamedTuple

from .series import Partition, Rational

TAIL_MASS_BOUND = Fraction(1, 2**60)
INFINITE_PRODUCT_REL_TOL = Fraction(1, 2**80)
INFINITE_PRODUCT_MAX_BITS = 2**18  # bound on the bits of (u/q)_inf's denominator
MIN_PROBABILITY = Fraction(1, 1000)  # Monte Carlo buckets below this are not gated


class KernelDomainError(ValueError):
    """Parameters outside the verified domain of the transition kernel."""


class KernelRow(NamedTuple):
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


def _products(
    q: Fraction, u: Fraction, j: int
) -> tuple[int, int, int, int, list[int], list[int]]:
    """Checks (q, u); returns g, h, c, d and the products P_0..P_j, U_0..U_j.

    With q = g/h and u = c/d in lowest terms, P_j = prod_{k=1..j}
    (g^k - h^k) and U_j = prod_{k=1..j} (d g^k - c h^k).  Since
    1 - q^-k = (g^k - h^k) / g^k and 1 - u q^-k = (d g^k - c h^k) / (d g^k),

        (1/q)_j = P_j / g^(j(j+1)/2),    (u/q)_j = U_j / (d^j g^(j(j+1)/2)).

    Each call builds them afresh, for the lengths it reads.  They are
    built here rather than shared with ``partitions.aut_order``, because
    the tests check the chain's law against |Aut(lambda)|.
    """
    _validate(q, u)
    g, h, c, d = q.numerator, q.denominator, u.numerator, u.denominator
    ps, us = [1], [1]
    for k in range(1, j + 1):
        gk, hk = g**k, h**k
        ps.append(ps[-1] * (gk - hk))
        us.append(us[-1] * (d * gk - c * hk))
    return g, h, c, d, ps, us


def kernel_row(a: int, q: Rational, u: Rational) -> KernelRow:
    """Exact transition probabilities K(a, b) for b = 0..a, built from integers.

    With r = a - b and the products of ``_products``, put T(j) = j(j+1)/2;
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
    g, h, c, d, ps, us = _products(q, u, a)
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
    built.  The denominator d^K g^(K(K+1)/2) has at most
    K bits(d) + K(K+1)/2 bits(g) bits; once that estimate passes
    INFINITE_PRODUCT_MAX_BITS = 2^18 it raises KernelDomainError.  This
    refuses q near 1 such as (11/10, 1/2) and admits (7/6, 1/2), with
    K = 356, and every integer q >= 2, which needs K <= 80, unless d runs
    to thousands of bits.
    """
    q, u = Fraction(q), Fraction(u)
    g, h, c, d, _, _ = _products(q, u, 0)
    d_bits, g_bits = d.bit_length(), g.bit_length()
    tol = INFINITE_PRODUCT_REL_TOL
    k, top, bottom = 1, c * h * tol.denominator, d * g * tol.numerator
    while top >= bottom:
        k, top, bottom = k + 1, top * h, bottom * g
        if k * d_bits + k * (k + 1) // 2 * g_bits > INFINITE_PRODUCT_MAX_BITS:
            raise KernelDomainError(
                f"(u/q)_inf needs over {INFINITE_PRODUCT_MAX_BITS} denominator bits"
                f" at q={q}, u={u}"
            )
    return Fraction(_products(q, u, k)[-1][k], d**k * g ** (k * (k + 1) // 2))


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
    g, h, c, _, ps, us = _products(Fraction(q), Fraction(u), a)
    return uq_inf * Fraction(c**a * h ** (a * a) * g**a, us[a] * ps[a])


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
    r = a - b
    g, h, c, d, ps, us = _products(Fraction(q), Fraction(u), max(b, r))
    return uq_inf * Fraction(
        c ** (2 * a - b) * h ** (a * a + r * r),
        d**a * g ** (a * a - b * (b + 1) // 2 - r) * ps[b] * ps[r] * us[r],
    )


def kernel_row_infinite(q: Rational, u: Rational) -> KernelRow:
    """Truncated initial row: entries cor1_part1(b) until tail mass < 2^-60.

    The unassigned tail is folded into the last entry so the row sums to
    exactly 1 for inverse-CDF sampling.  An entry below 2^-64 while the
    tail mass is still >= 2^-60 means the entries do not sum to 1 (a
    wrong law), and raises KernelDomainError rather than running on.
    """
    q, u = Fraction(q), Fraction(u)
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


class _SamplerFields(NamedTuple):
    q: int
    u: Fraction
    seed: int
    trials: int


class SamplerConfig(_SamplerFields):
    """The chain's (q, u), the seed of its stream and a number of trials; checked.

    Build it by calling the class: ``_make`` and ``_replace`` skip
    ``__new__``, and so its checks.
    """

    __slots__ = ()

    def __new__(cls, q: int, u: Rational, seed: int, trials: int) -> SamplerConfig:
        u = Fraction(u)
        if not (isinstance(q, int) and q >= 2):
            raise KernelDomainError("sampling requires integer q >= 2")
        _validate(Fraction(q), u)
        if trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        return super().__new__(cls, q, u, seed, trials)


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


class _BucketFields(NamedTuple):
    label: str
    exact: Fraction
    observed: int
    trials: int
    zscore: float


class BucketComparison(_BucketFields):
    """Empirical vs exact probability for one observed bucket, with its z-score."""

    __slots__ = ()

    def __new__(
        cls, label: str, exact: Fraction, observed: int, trials: int
    ) -> BucketComparison:
        pexact = float(exact)
        freq = observed / trials
        stderr = (pexact * (1 - pexact) / trials) ** 0.5
        zscore = abs(freq - pexact) / stderr if stderr > 0 else 0.0
        return super().__new__(cls, label, exact, observed, trials, zscore)


def _bucket_counts(cfg: SamplerConfig) -> list[list[int]]:
    """Over cfg.trials draws, counts[a][second] of the first two columns.

    a = lambda'_1 is the number of parts and second = lambda'_2, a
    missing column counting as 0; no partition is built.  counts has one
    row per first column the chain can draw, a < len(rows[0]), and row a
    one entry per second <= a.  Every column is still drawn until 0,
    from the same row table, so the stream of 64-bit draws is word for
    word that of ``PartitionSampler.columns``.  A word below the row's
    T_0 draws 0, so the first and second columns are compared with T_0
    before any ``bisect``.
    """
    rows = _row_table(cfg.q, cfg.u)
    initial = rows[0]
    stops = [row[0] for row in rows]  # T_0 of each row: a word below it draws 0
    stop = stops[0]
    draw = random.Random(cfg.seed).getrandbits
    bisect_right = bisect.bisect_right
    counts = [[0] * (a + 1) for a in range(len(initial))]
    for _ in range(cfg.trials):
        word = draw(64)
        if word < stop:
            counts[0][0] += 1
            continue
        a = bisect_right(initial, word)
        word = draw(64)
        if word < stops[a]:
            counts[a][0] += 1
            continue
        second = col = bisect_right(rows[a], word)
        while col:
            col = bisect_right(rows[col], draw(64))
        counts[a][second] += 1
    return counts


def empirical_vs_corollary(cfg: SamplerConfig) -> list[BucketComparison]:
    """Samples cfg.trials partitions and compares the gated bucket frequencies.

    Buckets are the values a of the first conjugate column size and the
    pairs (a, b) of it with the number of parts equal to 1, b = a - second;
    every a the chain can draw is looked at, and only buckets with exact
    probability >= MIN_PROBABILITY are returned.  The a = 0 bucket has
    probability (u/q)_inf > 0.28, so the list is never empty.
    """
    counts = _bucket_counts(cfg)
    uq_inf = u_over_q_infinite_value(cfg.q, cfg.u)
    buckets = []
    for a, row in enumerate(counts):
        exact = cor1_part1(a, cfg.q, cfg.u, uq_inf)
        if exact >= MIN_PROBABILITY:
            buckets.append(BucketComparison(f"a={a}", exact, sum(row), cfg.trials))
        for b in range(a + 1):
            exact_ab = cor1_part2(a, b, cfg.q, cfg.u, uq_inf)
            if exact_ab >= MIN_PROBABILITY:
                buckets.append(
                    BucketComparison(f"a={a},b={b}", exact_ab, row[a - b], cfg.trials)
                )
    return buckets
