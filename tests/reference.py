"""Literal reference constructions that the tests compare the library against.

Nothing in ``src/`` calls these.  Each is the slow, formula-shaped form of
something the library computes another way: the tests pin the library
to them by literal ``Fraction`` equality, or, for matrices over F_p, to
plain entry-by-entry products, the walk over every matrix and a census
that shares no work between matrices.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from clpartitions import oracle
from clpartitions.partitions import Partition
from clpartitions.sampler import PartitionSampler
from clpartitions.series import multiply


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


def inverse(a):
    """The multiplicative inverse of a series up to its truncation order.

    Standard recurrence: with a_0 != 0 and b = 1/a,
    b_n = -(1/a_0) * sum_{i=1..n} a_i b_{n-i}.
    """
    if a[0] == 0:
        raise ZeroDivisionError("cannot invert series with zero constant term")
    out = [1 / Fraction(a[0])]
    for n in range(1, len(a)):
        s = sum((a[i] * out[n - i] for i in range(1, n + 1) if a[i]), Fraction(0))
        out.append(-s / a[0])
    return out


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


def pochhammer_direct(x, i, q):
    """(x)_i = prod_{k=0}^{i-1} (1 - x/q^k), multiplied out afresh on every call."""
    x, q = Fraction(x), Fraction(q)
    result = Fraction(1)
    for k in range(i):
        result *= 1 - x / q**k
    return result


def aut_order(lam, q):
    """q^{sum_i (lambda'_i)^2} * prod_i (1/q)_{m_i}, term by term in Fractions."""
    q = Fraction(q)
    result = q ** sum(c * c for c in lam.conjugate().parts)
    for part in set(lam.parts):
        result *= pochhammer_direct(1 / q, lam.multiplicity(part), q)
    return result


def euler_expansion(q, order):
    """(u/q)_inf by Euler's expansion: u^j has (-1)^j / (q^{j(j+1)/2} (1/q)_j)."""
    q = Fraction(q)
    return [
        (-1) ** j / (q ** (j * (j + 1) // 2) * pochhammer_direct(1 / q, j, q))
        for j in range(order + 1)
    ]


def wellknown_b_sum(q, order):
    """sum_b u^b / (q^b (1/q)_b), one term per coefficient."""
    q = Fraction(q)
    return [1 / (q**b * pochhammer_direct(1 / q, b, q)) for b in range(order + 1)]


def partitions(n, largest=None):
    """Partitions of n with parts <= largest, by recursion on the first part.

    Kept apart from the package's walk, so the reference sum does not
    share its enumeration.
    """
    largest = n if largest is None else largest
    if n == 0:
        yield Partition()
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield Partition((first, *rest.parts))


def partition_sum(q, order, exponent):
    """sum_lambda q^{exponent(lambda)} u^{|lambda|} / |Aut(lambda)|, term by term."""
    q = Fraction(q)
    return [
        sum(
            (q ** exponent(lam) / aut_order(lam, q) for lam in partitions(s)),
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
        q, order, 1, lambda a: pochhammer_direct(1 / q, a, q)
    )
    return multiply([Fraction(1)] * (order + 1), total)


def eq2_rhs_series(q, order):
    """(1/(u/q)_inf) * sum_{c>=0} u^{2c} / (q^{c^2} (1/q)_c (u/q)_c)."""
    q = Fraction(q)
    total = _sum_of_inverted_products(
        q, order, 2, lambda c: q ** (c * c) * pochhammer_direct(1 / q, c, q)
    )
    return multiply(inverse(euler_expansion(q, order)), total)


def kernel_row_probabilities(a, q, u):
    """K(a, b) = u^b (1/q)_a (u/q)_a / (q^{b^2} (1/q)_{a-b} (1/q)_b (u/q)_b), b = 0..a."""
    q, u = Fraction(q), Fraction(u)
    prefactor = pochhammer_direct(1 / q, a, q) * pochhammer_direct(u / q, a, q)
    return tuple(
        u**b
        * prefactor
        / (
            q ** (b * b)
            * pochhammer_direct(1 / q, a - b, q)
            * pochhammer_direct(1 / q, b, q)
            * pochhammer_direct(u / q, b, q)
        )
        for b in range(a + 1)
    )


def u_over_q_infinite_value(q, u, tolerance):
    """prod_{k=1..K}(1 - u/q^k) for the first K with u/q^K < tolerance, and K."""
    q, u = Fraction(q), Fraction(u)
    result = Fraction(1)
    k = 1
    while True:
        term = u / q**k
        result *= 1 - term
        if term < tolerance:
            return result, k
        k += 1


def cor1_part1(a, q, u, uq_inf):
    """(u/q)_inf / (u/q)_a * u^a / (q^{a^2} (1/q)_a)."""
    q, u = Fraction(q), Fraction(u)
    return (
        uq_inf
        / pochhammer_direct(u / q, a, q)
        * u**a
        / (q ** (a * a) * pochhammer_direct(1 / q, a, q))
    )


def cor1_part2(a, b, q, u, uq_inf):
    """u^{2a-b} (u/q)_inf / (q^{a^2+(a-b)^2} (1/q)_b (1/q)_{a-b} (u/q)_{a-b})."""
    q, u = Fraction(q), Fraction(u)
    return (
        u ** (2 * a - b)
        * uq_inf
        / (
            q ** (a * a + (a - b) * (a - b))
            * pochhammer_direct(1 / q, b, q)
            * pochhammer_direct(1 / q, a - b, q)
            * pochhammer_direct(u / q, a - b, q)
        )
    )


@dataclass(frozen=True)
class PrimeFieldMatrix:
    """n x n matrix over F_p, entries row-major in [0, p)."""

    n: int
    p: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("dimension must be non-negative")
        if len(self.entries) != self.n * self.n:
            raise ValueError("entry count must be n^2")
        if any(not 0 <= e < self.p for e in self.entries):
            raise ValueError("entries must be reduced mod p")

    @staticmethod
    def zero(n: int, p: int) -> "PrimeFieldMatrix":
        return PrimeFieldMatrix(n, p, (0,) * (n * n))

    @staticmethod
    def identity(n: int, p: int) -> "PrimeFieldMatrix":
        return PrimeFieldMatrix(
            n, p, tuple(1 if i == j else 0 for i in range(n) for j in range(n))
        )

    def __matmul__(self, other: "PrimeFieldMatrix") -> "PrimeFieldMatrix":
        if (self.n, self.p) != (other.n, other.p):
            raise ValueError("dimension/modulus mismatch")
        n, p = self.n, self.p
        a, b = self.entries, other.entries
        out = [0] * (n * n)
        for i in range(n):
            row = a[i * n : (i + 1) * n]
            for j in range(n):
                out[i * n + j] = sum(row[k] * b[k * n + j] for k in range(n)) % p
        return PrimeFieldMatrix(n, p, tuple(out))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)


def enumerate_matrices(n, p):
    """All of Mat_n(F_p), lexicographic over row-major entry vectors."""
    for entries in itertools.product(range(p), repeat=n * n):
        yield PrimeFieldMatrix(n, p, entries)


def row_codes(A):
    """The oracle's key for A: row i has code sum_k A[i][k] * p^(n-1-k)."""
    codes = []
    for i in range(A.n):
        code = 0
        for e in A.entries[i * A.n : (i + 1) * A.n]:
            code = code * A.p + e
        codes.append(code)
    return tuple(codes)


def rank_mod_p(rows, p):
    """Rank of a list of entry lists over F_p, by plain Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        for r in range(rank, len(rows)):
            if rows[r][col]:
                break
        else:
            continue
        rows[rank], rows[r] = rows[r], rows[rank]
        pivot = rows[rank]
        inv = pow(pivot[col], p - 2, p)
        for r in range(rank + 1, len(rows)):
            c = rows[r][col] * inv % p
            if c:
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], pivot)]
        rank += 1
    return rank


def annihilator_system(A):
    """The 2n^2 x n^2 system of B -> (AB, BA) on B's row-major entries.

    Row (i, j) of the AB block puts A[i][k] at B[k][j]; row (i, j) of the
    BA block puts A[k][j] at B[i][k].
    """
    n, a = A.n, A.entries
    ab, ba = [], []
    for i in range(n):
        for j in range(n):
            ab_row, ba_row = [0] * (n * n), [0] * (n * n)
            for k in range(n):
                ab_row[k * n + j] = a[i * n + k]  # (AB)_ij = sum_k A_ik B_kj
                ba_row[i * n + k] = a[k * n + j]  # (BA)_ij = sum_k B_ik A_kj
            ab.append(ab_row)
            ba.append(ba_row)
    return ab + ba


def unshared_census(n, p):
    """The oracle's pass-1 census, one matrix at a time with nothing shared.

    Walks ``enumerate_matrices`` and gives every A the nullity of its
    annihilator system written entry by entry (``annihilator_system``) and
    the ranks of A^0, A, ..., A^n from ``@``, each by ``rank_mod_p``; none
    of the oracle's packing or elimination is used.  Each nilpotent A is
    named by its row codes.
    """
    pairs = inner = 0
    lemma2 = None
    types = {}
    nilpotent = []
    for A in enumerate_matrices(n, p):
        dim = n * n - rank_mod_p(annihilator_system(A), p)
        power, ranks = PrimeFieldMatrix.identity(n, p), [n]
        for _ in range(n):
            power = power @ A
            rows = [power.entries[i * n : (i + 1) * n] for i in range(n)]
            ranks.append(rank_mod_p(rows, p))
        pairs += p**dim
        want = (n - ranks[1]) ** 2
        if lemma2 is None and dim != want:
            lemma2 = (A.entries, dim, want)
        if not ranks[-1]:
            cols = oracle._zero_columns(ranks)
            types[cols] = types.get(cols, 0) + 1
            m, d = oracle._zero_block_counts(cols)
            nilpotent.append((row_codes(A), m * m - d))
            inner += p**dim
    return (pairs, lemma2, tuple(types.items()), tuple(nilpotent), inner)


def partition_bucket_counts(cfg):
    """The Monte Carlo check's counts from whole sampled partitions.

    Over cfg.trials ``sample()`` partitions, the counts of a = lambda.length
    and of (a, b), b = lambda.multiplicity(1).
    """
    sampler = PartitionSampler(cfg)
    marg_counts, joint_counts = {}, {}
    for _ in range(cfg.trials):
        lam = sampler.sample()
        a, b = lam.length, lam.multiplicity(1)
        marg_counts[a] = marg_counts.get(a, 0) + 1
        joint_counts[(a, b)] = joint_counts.get((a, b), 0) + 1
    return marg_counts, joint_counts
