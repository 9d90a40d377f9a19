"""Brute-force ground truth over prime fields F_p.

Everything in this module is deliberately naive: counts are obtained by
enumerating matrices (lexicographically over row-major entry vectors) and
solving linear systems by Gaussian elimination mod p.  These counts are
the independent oracle against which the q-series and partition-sum
computations are checked, so no closed-form shortcuts are taken here.

One memoized census per (n, p) walks Mat_n(F_p) once and records every
aggregate the public counting functions read; a second memoized pass
enumerates the annihilator solution spaces of the nilpotent matrices
only.  Both run on packed rows: a row of p-adic entries is one Python
int, entry t in bits [t*w, (t+1)*w), and a single forward-elimination
routine (:func:`_eliminate`) serves every rank and nullspace computation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .partitions import Partition

DEFAULT_OUTER_BUDGET = 2**26
DEFAULT_INNER_BUDGET = 2**30

_SMALL_PRIMES = {2, 3, 5}


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the configured budget."""

    def __init__(self, message: str, required: int, budget: int) -> None:
        super().__init__(f"{message}: needs {required}, budget {budget}")
        self.required = required
        self.budget = budget


def _check_prime(p: int) -> None:
    if p not in _SMALL_PRIMES:
        raise ValueError(f"p must be a small prime (one of {sorted(_SMALL_PRIMES)})")


@dataclass(frozen=True)
class PrimeFieldMatrix:
    """n x n matrix over F_p, entries row-major in [0, p)."""

    n: int
    p: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_prime(self.p)
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


@dataclass(frozen=True)
class JordanZeroData:
    """Eigenvalue-0 Jordan statistics extracted from ranks of powers."""

    m: int  # number of Jordan blocks with eigenvalue 0
    d: int  # number of those blocks of size 1
    nilpotent_type: Optional[Partition]  # full type, only when A is nilpotent


# -- packed rows ------------------------------------------------------------


class _Packing(NamedTuple):
    """Packed-row arithmetic for n x n matrices over F_p.

    A vector over F_p is one int with entry t in lane t, bits [t*w, (t+1)*w).
    Over F_2 lanes are single bits and addition is XOR.  Otherwise lanes are
    wide enough that a lane value up to bound = max(p(p-1), n(p-1)^2), the
    most that an elimination step or a row of a matrix product makes, does
    not carry into the next lane, and :func:`_reduce` brings every lane back
    into [0, p) at once, using floor(x / p) == (x * mul) >> shift for
    x <= bound.

    A matrix is identified by its *row codes*: row i has code
    sum_k A[i][k] * p^(n-1-k), so lexicographic order of entry vectors is
    lexicographic order of code tuples.  The tables are indexed by code.
    """

    n: int
    p: int
    w: int
    lane: int  # mask of one lane
    mul: int
    shift: int
    quotient_mask: int  # the low (w - shift) bits of each of n^2 lanes
    inverse: tuple[int, ...]  # inverse[c] * c == 1 mod p, c in [1, p)
    row: tuple[int, ...]  # code -> packed row, entry k in lane k
    spread: tuple[int, ...]  # code -> entry k in lane k*n
    transposed: tuple[tuple[int, ...], ...]  # [i][code] -> entry k in lane k*n + i


@functools.lru_cache(maxsize=None)
def _packing(n: int, p: int) -> _Packing:
    """Built on first use, so importing the module builds no tables."""
    if p == 2:
        w, mul, shift, quotient_mask = 1, 0, 0, 0
    else:
        bound = max(p * (p - 1), n * (p - 1) ** 2)
        shift = 0
        while True:
            mul = -(-(1 << shift) // p)
            if all((x * mul) >> shift == x // p for x in range(bound + 1)):
                break
            shift += 1
        w = (bound * mul).bit_length()
        quotient_mask = sum(
            ((1 << (w - shift)) - 1) << (t * w) for t in range(n * n)
        )
    digits = [
        tuple((code // p ** (n - 1 - k)) % p for k in range(n))
        for code in range(p**n)
    ]
    return _Packing(
        n=n,
        p=p,
        w=w,
        lane=(1 << w) - 1,
        mul=mul,
        shift=shift,
        quotient_mask=quotient_mask,
        inverse=(0,) + tuple(pow(c, p - 2, p) for c in range(1, p)),
        row=tuple(
            sum(e << (k * w) for k, e in enumerate(es)) for es in digits
        ),
        spread=tuple(
            sum(e << (k * n * w) for k, e in enumerate(es)) for es in digits
        ),
        transposed=tuple(
            tuple(sum(e << ((k * n + i) * w) for k, e in enumerate(es)) for es in digits)
            for i in range(n)
        ),
    )


def _reduce(x: int, pk: _Packing) -> int:
    """Every lane of x mod p, for lane values up to the packing's bound."""
    return x - pk.p * (((x * pk.mul) >> pk.shift) & pk.quotient_mask)


def _row_codes(A: PrimeFieldMatrix) -> tuple[int, ...]:
    """Row codes of A: row i has code sum_k A[i][k] * p^(n-1-k)."""
    n, p = A.n, A.p
    codes = []
    for i in range(n):
        code = 0
        for e in A.entries[i * n : (i + 1) * n]:
            code = code * p + e
        codes.append(code)
    return tuple(codes)


def _eliminate(rows, pk: _Packing, stop: int) -> tuple[list[int], int]:
    """Forward elimination of packed rows over F_p: the one elimination routine.

    Returns (pivots, rank).  ``pivots[h]`` is 0 or the echelon row whose
    leading (highest) nonzero lane is h, scaled so that lane holds 1.
    Elimination ends early once ``stop`` pivots are found.
    """
    w = pk.w
    pivots = [0] * (pk.n * pk.n)
    rank = 0
    if pk.p == 2:
        for r in rows:
            while r:
                h = r.bit_length() - 1
                piv = pivots[h]
                if not piv:
                    pivots[h] = r
                    rank += 1
                    break
                r ^= piv
            if rank == stop:
                break
        return pivots, rank
    p, lane, inverse = pk.p, pk.lane, pk.inverse
    for r in rows:
        while r:
            h = (r.bit_length() - 1) // w
            c = (r >> (h * w)) & lane
            piv = pivots[h]
            if not piv:
                pivots[h] = r if c == 1 else _reduce(r * inverse[c], pk)
                rank += 1
                break
            r = _reduce(r + (p - c) * piv, pk)
        if rank == stop:
            break
    return pivots, rank


def _nullspace(pivots: list[int], pk: _Packing, ncols: int) -> list[int]:
    """Back-substitution: a basis of the solutions of the echelon system.

    Reduces ``pivots`` in place first, so each pivot row is zero at every
    other pivot lane.
    """
    w, p, lane = pk.w, pk.p, pk.lane
    for h in range(ncols):  # clear each pivot row at the lower pivot lanes
        row = pivots[h]
        for g in range(h):
            c = (row >> (g * w)) & lane
            if c and pivots[g]:
                row = row ^ pivots[g] if p == 2 else _reduce(row + (p - c) * pivots[g], pk)
        pivots[h] = row
    basis = []
    for j in range(ncols):
        if pivots[j]:
            continue
        v = 1 << (j * w)
        for h in range(j + 1, ncols):
            c = (pivots[h] >> (j * w)) & lane
            if c:
                v |= (p - c) << (h * w)
        basis.append(v)
    return basis


def _matmul(X: list[int], Y: list[int], pk: _Packing) -> list[int]:
    """Packed rows of XY from the packed rows of X and Y."""
    out = []
    if pk.p == 2:
        for x in X:
            acc = 0
            for y in Y:
                if x & 1:
                    acc ^= y
                x >>= 1
            out.append(acc)
        return out
    w, lane = pk.w, pk.lane
    for x in X:
        acc = 0
        for y in Y:
            acc += (x & lane) * y
            x >>= w
        out.append(_reduce(acc, pk))
    return out


def _rank_sequence(rows: list[int], pk: _Packing) -> list[int]:
    """[n, rank A, rank A^2, ...] up to the first repeat or the first 0."""
    n = pk.n
    ranks = [n, _eliminate(rows, pk, n)[1]]
    power = rows
    while ranks[-1] and ranks[-1] != ranks[-2]:  # strictly falling: < n products
        power = _matmul(power, rows, pk)
        ranks.append(_eliminate(power, pk, n)[1])
    return ranks


def _zero_columns(ranks: list[int]) -> tuple[int, ...]:
    """Conjugate eigenvalue-0 type: lambda'_i = rank(A^{i-1}) - rank(A^i) > 0."""
    cols = []
    for i in range(1, len(ranks)):
        diff = ranks[i - 1] - ranks[i]
        if diff == 0:
            break
        cols.append(diff)
    return tuple(cols)


def _zero_block_counts(cols: tuple[int, ...]) -> tuple[int, int]:
    """(m, d): the number of zero Jordan blocks and of those of size 1."""
    m = cols[0] if cols else 0
    d = (cols[0] - cols[1]) if len(cols) >= 2 else m
    return m, d


def _annihilator_rows(codes: tuple[int, ...], pk: _Packing) -> list[int]:
    """Packed rows of the map B -> (AB, BA) on vec(B), B[k][j] in lane k*n + j.

    2n^2 rows (one per entry of AB then BA), n^2 lanes each.
    """
    n, w = pk.n, pk.w
    # (AB)_{ij} = sum_k A_{ik} B_{kj}: A's row i spread to lanes k*n, moved to j
    system = [pk.spread[c] << (j * w) for c in codes for j in range(n)]
    # (BA)_{ij} = sum_k B_{ik} A_{kj}: A's column j in lanes k, moved to i*n
    At = 0
    for i, c in enumerate(codes):
        At |= pk.transposed[i][c]
    width = n * w
    col_mask = (1 << width) - 1
    cols = [(At >> (j * width)) & col_mask for j in range(n)]
    system += [col << (i * width) for i in range(n) for col in cols]
    return system


def _annihilator_nullity(codes: tuple[int, ...], pk: _Packing) -> int:
    """F_p-dimension of {B : AB = BA = 0}, the nullity of the eliminated system."""
    nn = pk.n * pk.n
    return nn - _eliminate(_annihilator_rows(codes, pk), pk, nn)[1]


def _annihilator_basis(codes: tuple[int, ...], pk: _Packing) -> list[int]:
    """Packed basis of {B : AB = BA = 0}, B[k][j] in lane k*n + j."""
    nn = pk.n * pk.n
    return _nullspace(_eliminate(_annihilator_rows(codes, pk), pk, nn)[0], pk, nn)


def _is_nilpotent(v: int, pk: _Packing) -> bool:
    """B^n == 0, for B packed row-major in n^2 lanes.

    Tested as B^(2^k) == 0 for the first 2^k >= n by repeated squaring: the
    same condition, since a nilpotent n x n matrix already has B^n == 0.
    """
    n = pk.n
    width = n * pk.w
    mask = (1 << width) - 1
    rows = [(v >> (i * width)) & mask for i in range(n)]
    exponent = 1
    while exponent < n and any(rows):
        rows = _matmul(rows, rows, pk)
        exponent *= 2
    return not any(rows)


def _span(vectors: list[int], pk: _Packing) -> list[int]:
    """Every F_p-combination of the packed vectors."""
    out = [0]
    for v in vectors:
        if pk.p == 2:
            out += [x ^ v for x in out]
        else:
            multiples = [_reduce(c * v, pk) for c in range(1, pk.p)]
            out += [_reduce(x + m, pk) for m in multiples for x in out]
    return out


def _matrix_at(index: int, n: int, p: int) -> PrimeFieldMatrix:
    """The index-th matrix of Mat_n(F_p) in lexicographic order."""
    entries = []
    for _ in range(n * n):
        index, e = divmod(index, p)
        entries.append(e)
    return PrimeFieldMatrix(n, p, tuple(reversed(entries)))


# -- the census ---------------------------------------------------------------


class _Census(NamedTuple):
    """Aggregates of one lexicographic pass over Mat_n(F_p)."""

    pairs: int  # sum of p^dim over every A
    lemma2: Optional[tuple[int, int, int]]  # first (index, dim, (n - rank)^2) that differ
    types: tuple[tuple[tuple[int, ...], int], ...]  # (conjugate type, count), nilpotent A
    nilpotent: tuple[int, ...]  # lexicographic indices of the nilpotent A
    inner: int  # sum of p^dim over the nilpotent A


@functools.lru_cache(maxsize=None)
def _census(n: int, p: int) -> _Census:
    """Pass 1: for each A, the annihilator nullity and the rank sequence of powers."""
    pk = _packing(n, p)
    packed_row = pk.row
    powers = [p**k for k in range(n * n + 1)]
    pairs = inner = 0
    lemma2 = None
    types: dict[tuple[int, ...], int] = {}
    nilpotent = []
    for index, codes in enumerate(itertools.product(range(p**n), repeat=n)):
        ranks = _rank_sequence([packed_row[c] for c in codes], pk)
        dim = _annihilator_nullity(codes, pk)
        pairs += powers[dim]
        if lemma2 is None and dim != (n - ranks[1]) ** 2:
            lemma2 = (index, dim, (n - ranks[1]) ** 2)
        if not ranks[-1]:
            cols = _zero_columns(ranks)
            types[cols] = types.get(cols, 0) + 1
            nilpotent.append(index)
            inner += powers[dim]
    return _Census(pairs, lemma2, tuple(types.items()), tuple(nilpotent), inner)


@functools.lru_cache(maxsize=None)
def _nilpotent_annihilators(n: int, p: int) -> tuple[int, Optional[tuple[int, int, int]]]:
    """Pass 2: enumerate the annihilator of each nilpotent A, count nilpotent B.

    Returns (total count, first (index, count, p^(m^2 - d)) that differ).
    The solution space is enumerated as the sums of two half spans.
    """
    pk = _packing(n, p)
    total = 0
    lemma3 = None
    for index in _census(n, p).nilpotent:
        codes = tuple((index // p ** (n * (n - 1 - i))) % p**n for i in range(n))
        basis = _annihilator_basis(codes, pk)
        half = len(basis) // 2
        right = _span(basis[half:], pk)
        found = 0
        for x in _span(basis[:half], pk):
            for y in right:
                if _is_nilpotent(x ^ y if p == 2 else _reduce(x + y, pk), pk):
                    found += 1
        total += found
        if lemma3 is None:
            ranks = _rank_sequence([pk.row[c] for c in codes], pk)
            m, d = _zero_block_counts(_zero_columns(ranks))
            if found != p ** (m * m - d):
                lemma3 = (index, found, p ** (m * m - d))
    return total, lemma3


# -- single matrices ----------------------------------------------------------


def rank(A: PrimeFieldMatrix) -> int:
    pk = _packing(A.n, A.p)
    return _eliminate([pk.row[c] for c in _row_codes(A)], pk, A.n)[1]


def annihilator_dimension(A: PrimeFieldMatrix) -> int:
    """F_p-dimension of {B : AB = BA = 0}."""
    return _annihilator_nullity(_row_codes(A), _packing(A.n, A.p))


def annihilator_basis(A: PrimeFieldMatrix) -> list[tuple[int, ...]]:
    """Basis (as row-major entry vectors) of {B : AB = BA = 0}."""
    pk = _packing(A.n, A.p)
    return [
        tuple((v >> (t * pk.w)) & pk.lane for t in range(A.n * A.n))
        for v in _annihilator_basis(_row_codes(A), pk)
    ]


def jordan_zero_data(A: PrimeFieldMatrix) -> JordanZeroData:
    """m, d, and (for nilpotent A) the full Jordan type, via ranks of powers.

    The conjugate column sizes of the eigenvalue-0 type are
    lambda'_i = rank(A^{i-1}) - rank(A^i), which stabilize to 0 once the
    rank sequence does.
    """
    pk = _packing(A.n, A.p)
    ranks = _rank_sequence([pk.row[c] for c in _row_codes(A)], pk)
    cols = _zero_columns(ranks)
    m, d = _zero_block_counts(cols)
    nil_type = None
    if not ranks[-1]:
        nil_type = Partition(cols).conjugate()
    return JordanZeroData(m=m, d=d, nilpotent_type=nil_type)


# -- counts over Mat_n(F_p) ---------------------------------------------------


def enumerate_matrices(n: int, p: int) -> Iterator[PrimeFieldMatrix]:
    """All of Mat_n(F_p), lexicographic over row-major entry vectors."""
    _check_prime(p)
    for entries in itertools.product(range(p), repeat=n * n):
        yield PrimeFieldMatrix(n, p, entries)


def _check_outer_budget(n: int, p: int, budget: int) -> None:
    required = p ** (n * n)
    if required > budget:
        raise BudgetExceededError("outer enumeration too large", required, budget)


def _checked_census(n: int, p: int, budget: int, inner_budget: Optional[int] = None) -> _Census:
    """The census, after refusing any budget it would exceed.

    The outer budget is checked before the memo is consulted, and the inner
    budget against the census' total solution-space size before pass 2.
    """
    _check_prime(p)
    _check_outer_budget(n, p, budget)
    census = _census(n, p)
    if inner_budget is not None and census.inner > inner_budget:
        raise BudgetExceededError(
            "inner solution-space enumeration too large", census.inner, inner_budget
        )
    return census


def count_pairs(n: int, p: int, budget: int = DEFAULT_OUTER_BUDGET) -> int:
    """|{A, B in Mat_n(F_p) : AB = BA = 0}|.

    Sums p^{annihilator_dimension(A)} over all A; the inner B-count is the
    size of a linear solution space, so no inner enumeration is needed.
    """
    _check_prime(p)
    if n == 0:
        return 1
    return _checked_census(n, p, budget).pairs


def count_nilpotent_pairs(
    n: int,
    p: int,
    budget: int = DEFAULT_OUTER_BUDGET,
    inner_budget: int = DEFAULT_INNER_BUDGET,
) -> int:
    """|{A, B in Nil_n(F_p) : AB = BA = 0}|.

    For each nilpotent A, enumerates the solution space of AB = BA = 0 from
    a nullspace basis and counts the nilpotent members, so the count is
    independent of any closed form for that quantity.
    """
    _check_prime(p)
    if n == 0:
        return 1
    _checked_census(n, p, budget, inner_budget)
    return _nilpotent_annihilators(n, p)[0]


def count_nilpotent_by_type(
    n: int, p: int, budget: int = DEFAULT_OUTER_BUDGET
) -> dict[Partition, int]:
    """Counts of nilpotent matrices in Mat_n(F_p) by Jordan type."""
    _check_prime(p)
    if n == 0:
        return {Partition(): 1}
    census = _checked_census(n, p, budget)
    return {Partition(cols).conjugate(): count for cols, count in census.types}


def find_lemma2_counterexample(
    n: int, p: int, budget: int = DEFAULT_OUTER_BUDGET
) -> Optional[tuple[PrimeFieldMatrix, int, int]]:
    """First A (if any) with annihilator_dimension(A) != (n - rank(A))^2.

    Returns (A, computed dimension, expected m^2) or None on a clean pass.
    """
    found = _checked_census(n, p, budget).lemma2
    if found is None:
        return None
    index, dim, expected = found
    return (_matrix_at(index, n, p), dim, expected)


def find_lemma3_counterexample(
    n: int,
    p: int,
    budget: int = DEFAULT_OUTER_BUDGET,
    inner_budget: int = DEFAULT_INNER_BUDGET,
) -> Optional[tuple[PrimeFieldMatrix, int, int]]:
    """First nilpotent A whose nilpotent-annihilator count is not p^{m^2 - d}.

    Returns (A, enumerated count, expected count) or None on a clean pass.
    """
    _checked_census(n, p, budget, inner_budget)
    found = _nilpotent_annihilators(n, p)[1]
    if found is None:
        return None
    index, count, expected = found
    return (_matrix_at(index, n, p), count, expected)
