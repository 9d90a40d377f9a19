"""Brute-force ground truth over prime fields F_p: the census.

Everything in this module is deliberately naive: counts are obtained by
enumerating matrices (lexicographically over row-major entry vectors) and
solving linear systems by Gaussian elimination mod p.  These counts are
the independent oracle against which the q-series and partition-sum
computations are checked, so no closed-form shortcuts are taken here.

The five public counts read one memoized census per (n, p): pass 1
walks Mat_n(F_p) once and records every aggregate they need, and pass 2
enumerates the annihilator solution spaces of the nonzero nilpotent
matrices only, each back-substituted (:func:`_nullspace`) from the echelon
of B -> (AB, BA) that pass 1 finished and stored, so each system is
eliminated once.  One routine decides nilpotency, the ranks of a matrix's
powers (:func:`_rank_sequence`): in pass 1 for A^T, and in pass 2 for each
member B of A's annihilator.  Every rank is the size of an echelon basis
(:func:`_basis`); a power's is its image's, the matrix applied to the last
image's basis, so no power is built.  All run on packed rows (a row of
p-adic entries is one Python int, entry t in bits [t*w, (t+1)*w)), and the
field's elimination (:func:`_packing`) serves every rank and nullspace.  Pass 1
carries one elimination down the walk, which chooses A one row at a time:
(AB)_{ij} reads only row i of A, so the rows of B -> AB that a prefix of
A's rows gives are eliminated once per prefix (:func:`_descend`), and
each visited matrix adds its last row, then A's columns' echelon basis,
for rank A and the rows of B -> BA (:func:`_minimum_record`).
n = 0 needs no special case: Mat_0(F_p) holds one matrix, the empty one,
which is nilpotent with an annihilator of dimension 0.

A matrix is named by its row codes (see :class:`_Packing`) throughout.

Both passes visit only one matrix per orbit of the group G of maps A ->
c M A M^-1 and A -> c M A^T M^-1, c != 0 and M a monomial matrix taken
modulo scalars (see :func:`_group`), its lexicographic minimum
(:func:`_orbit_minima`), and weight it by the orbit's size, |G| over
the number of maps that fix it, with |G| = 2(p - 1) n! (p - 1)^(n - 1).
Every record of gA equals A's.  AB = 0 if and only if (cA)B = 0, and
likewise BA, so ann(cA) = ann(A); (cA)^k = c^k A^k has the rank of A^k.
(MAM^-1)(MBM^-1) = M(AB)M^-1, and likewise BA, so ann(MAM^-1) =
M ann(A) M^-1; B -> MBM^-1 keeps nilpotency, and (MAM^-1)^k = M A^k M^-1
has the rank of A^k.  (AB)^T = B^T A^T, so B -> B^T maps ann(A) onto
ann(A^T) and keeps nilpotency, and (A^T)^k = (A^k)^T has the rank of
A^k.  So the annihilator's dimension, the rank sequence, nilpotency, the
Jordan type and the number of nilpotent matrices in the annihilator are
constant on an orbit.  This holds for any invertible M; G takes only
monomial M because each of its maps then sends every entry of A to one
fixed entry with one fixed scale, so the walk stays a filter on the
lexicographic enumeration, and no lemma, conjugacy class or group order
beyond the count of G's own maps is used.  The first matrix of an orbit
comes before the others, so the first counterexample to either lemma
and the order in which Jordan types first occur are those of the walk
over every matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterator, NamedTuple, Optional

from .series import Partition

DEFAULT_OUTER_BUDGET = 2**26
# census.inner, read per call: the weighted solution-space sizes of the
# nilpotent A.  It bounds pass 2's work from above: pass 2 enumerates one
# space per nonzero nilpotent orbit, unweighted, and never ann(0)'s p^(n^2)
INNER_BUDGET = 2**30
# entries of the tables a census builds (see _table_entries), read per call:
# about 40 bytes and 1.5 us each, so 2^22 is about 170 MiB and 6 s
TABLE_BUDGET = 2**22

# (row-major entries of A, computed value, expected value), or None
_Counterexample = Optional[tuple[tuple[int, ...], int, int]]


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the configured budget."""

    def __init__(self, message: str, required: int, budget: int) -> None:
        super().__init__(f"{message}: needs {required}, budget {budget}")
        self.required = required
        self.budget = budget


class CensusError(ArithmeticError):
    """The census recorded a Jordan type that is no partition: a rank fault."""


# -- packed rows ------------------------------------------------------------


class _Packing(NamedTuple):
    """Packed rows of n x n matrices over F_p, and the field's lane arithmetic.

    A vector over F_p is one int with entry t in lane t, bits [t*w, (t+1)*w).
    :func:`_packing` chooses the field once per (n, p): F_2's one-bit lanes
    (:func:`_bits`) or odd p's wide lanes (:func:`_lanes`).  Each provides
    whole functions, so a hot loop dispatches once per call:

    - ``eliminate(rows, pivots, rank=0)``, the one elimination routine:
      the rows go into the echelon ``pivots`` of ``rank`` rows, in place,
      and it returns the new rank.  ``pivots[h]`` is 0 or the echelon row
      whose leading (highest) nonzero lane is h, scaled so that lane holds
      1; n^2 lanes for the annihilator system, n for vectors of n entries.
      Once every lane has a pivot, the rows left are skipped.
    - ``subtract(row, c, piv)``: row - c * piv, for back-substitution.
    - ``matmul(X, Y)``: the packed rows of XY from those of X and Y.
    - ``lines(vectors)``: one member per line {cB : c != 0} of the span of
      independent vectors, the one whose last nonzero coefficient is 1.

    A matrix is identified by its *row codes*: row i has code
    sum_k A[i][k] * p^(n-1-k), so lexicographic order of entry vectors is
    lexicographic order of code tuples.  The tables are indexed by code.
    ``products[code][j]``, for row i of A with that code, is the row of the
    system B -> AB that gives (AB)_{ij}; OR-ed over the rows i of A,
    ``products[code][i]`` packs A^T, entry (k, i) in lane k*n + i.
    """

    n: int
    p: int
    w: int
    lane: int  # mask of one lane
    row: tuple[int, ...]  # code -> packed row, entry k in lane k
    products: tuple[tuple[int, ...], ...]  # [code][j] -> entry k in lane k*n + j
    eliminate: Callable[..., int]
    subtract: Callable[[int, int, int], int]
    matmul: Callable[[list[int], list[int]], list[int]]
    lines: Callable[[list[int]], list[int]]


@functools.lru_cache(maxsize=None)
def _packing(n: int, p: int) -> _Packing:
    """The one place the field is chosen.  Built on first use, so importing builds no tables.

    Another field, such as F_4, would be one more arithmetic here.
    """
    arithmetic = _bits() if p == 2 else _lanes(n, p)
    w = arithmetic["w"]
    return _Packing(
        n=n,
        p=p,
        lane=(1 << w) - 1,
        row=_row_table([[e << (k * w) for e in range(p)] for k in range(n)]),
        products=tuple(
            zip(
                *(
                    _row_table([[e << ((k * n + j) * w) for e in range(p)] for k in range(n)])
                    for j in range(n)
                )
            )
        ),
        **arithmetic,
    )


def _row_table(values: list[list[int]]) -> tuple[int, ...]:
    """table[code] = sum_k values[k][e_k], e_k the row's entries (see :class:`_Packing`)."""
    table = [0]
    for column in values:
        table = [x + v for x in table for v in column]
    return tuple(table)


def _entries(codes: tuple[int, ...], pk: _Packing) -> tuple[int, ...]:
    """Row-major entries of the matrix with these row codes, read from its packed rows."""
    return tuple((pk.row[c] >> (k * pk.w)) & pk.lane for c in codes for k in range(pk.n))


def _bits() -> dict:
    """F_2's arithmetic (see :class:`_Packing`): one-bit lanes, and addition is XOR."""

    def eliminate(rows, pivots: list[int], rank: int = 0) -> int:
        full = len(pivots)
        for r in rows:
            if rank == full:
                break
            while r:
                h = r.bit_length() - 1
                piv = pivots[h]
                if not piv:
                    pivots[h] = r
                    rank += 1
                    break
                r ^= piv
        return rank

    def matmul(X: list[int], Y: list[int]) -> list[int]:
        out = []
        for x in X:
            acc = 0
            while x:  # only the set bits: row k of Y for each entry k of x that is 1
                low = x & -x
                acc ^= Y[low.bit_length() - 1]
                x ^= low
            out.append(acc)
        return out

    def lines(vectors: list[int]) -> list[int]:  # every line is one member: the span but 0
        span = [0]
        for v in vectors:
            span += [x ^ v for x in span]
        return span[1:]

    def subtract(row: int, c: int, piv: int) -> int:  # c is 1
        return row ^ piv

    return dict(w=1, eliminate=eliminate, subtract=subtract, matmul=matmul, lines=lines)


def _lanes(n: int, p: int) -> dict:
    """Odd p's arithmetic (see :class:`_Packing`): wide lanes, reduced mod p all at once.

    A lane value up to bound = max(p(p-1), n(p-1)^2), the most that an
    elimination step or a row of a matrix product makes, does not carry into
    the next lane, and ``mod_p`` brings every lane back into [0, p) at once,
    using floor(x / p) == (x * mul) >> shift for x <= bound.  That holds
    once bound * e < 2^shift, e = mul * p - 2^shift in [0, p): x * mul /
    2^shift is x / p plus x * e / (p * 2^shift), less than 1/p, and the
    fractional part of x / p is at most (p - 1) / p.
    """
    bound = max(p * (p - 1), n * (p - 1) ** 2)
    shift = 0
    while True:
        mul = -(-(1 << shift) // p)
        if bound * (mul * p - (1 << shift)) < 1 << shift:
            break
        shift += 1
    w = (bound * mul).bit_length()
    lane = (1 << w) - 1
    quotient_mask = sum(((1 << (w - shift)) - 1) << (t * w) for t in range(n * n))
    inverse = (0,) + tuple(pow(c, p - 2, p) for c in range(1, p))  # inverse[c] * c == 1

    def mod_p(x: int) -> int:  # every lane of x mod p, for lane values up to bound
        return x - p * (((x * mul) >> shift) & quotient_mask)

    def eliminate(rows, pivots: list[int], rank: int = 0) -> int:
        full = len(pivots)
        for r in rows:
            if rank == full:
                break
            while r:
                h = (r.bit_length() - 1) // w
                c = (r >> (h * w)) & lane
                piv = pivots[h]
                if not piv:
                    pivots[h] = r if c == 1 else mod_p(r * inverse[c])
                    rank += 1
                    break
                r = mod_p(r + (p - c) * piv)
        return rank

    def matmul(X: list[int], Y: list[int]) -> list[int]:
        out = []
        for x in X:
            acc = 0
            for y in Y:
                acc += (x & lane) * y
                x >>= w
            out.append(mod_p(acc))
        return out

    def lines(vectors: list[int]) -> list[int]:
        members, span = [], [0]
        for v in vectors:
            led = [mod_p(x + v) for x in span]
            multiples = [mod_p(c * v) for c in range(2, p)]
            span += led + [mod_p(x + m) for m in multiples for x in span]
            members += led
        return members

    def subtract(row: int, c: int, piv: int) -> int:
        return mod_p(row + (p - c) * piv)

    return dict(w=w, eliminate=eliminate, subtract=subtract, matmul=matmul, lines=lines)


def _basis(vectors: list[int], pk: _Packing) -> list[int]:
    """An echelon basis of the span of vectors of n entries: its size is their rank."""
    pivots = [0] * pk.n
    pk.eliminate(vectors, pivots)
    return list(filter(None, pivots))


def _nullspace(pivots: list[int], pk: _Packing) -> list[int]:
    """Back-substitution: a basis of the solutions of the echelon system.

    Reduces ``pivots`` in place first, so each pivot row is zero at every
    other pivot lane.
    """
    w, lane, ncols, subtract = pk.w, pk.lane, len(pivots), pk.subtract
    for h in range(ncols):  # clear each pivot row at the lower pivot lanes
        row = pivots[h]
        for g in range(h):
            c = (row >> (g * w)) & lane
            if c and pivots[g]:
                row = subtract(row, c, pivots[g])
        pivots[h] = row
    basis = []
    for j in range(ncols):
        if pivots[j]:
            continue
        v = 1 << (j * w)
        for h in range(j + 1, ncols):
            c = (pivots[h] >> (j * w)) & lane
            if c:
                v = subtract(v, c, 1 << (h * w))
        basis.append(v)
    return basis


def _rank_sequence(
    vectors: list[int], pk: _Packing, basis: Optional[list[int]] = None
) -> list[int]:
    """[n, rank X, rank X^2, ...] up to the first repeat or the first 0.

    X is the map v -> sum_k v_k vectors[k].  rank X^i is the size of an
    echelon basis of image(X^i), and ``pk.matmul(basis, vectors)``, X applied
    to it, spans image(X^(i+1)).  ``basis``, when given, is image(X)'s.
    """
    basis = _basis(vectors, pk) if basis is None else basis
    ranks = [pk.n, len(basis)]
    while ranks[-1] and ranks[-1] != ranks[-2]:  # strictly falling: < n images
        basis = _basis(pk.matmul(basis, vectors), pk)
        ranks.append(len(basis))
    return ranks


def _zero_columns(ranks: list[int]) -> tuple[int, ...]:
    """Conjugate eigenvalue-0 type: lambda'_i = rank(A^{i-1}) - rank(A^i), while > 0."""
    return tuple(a - b for a, b in zip(ranks, ranks[1:]) if a != b)


def _zero_block_counts(cols: tuple[int, ...]) -> tuple[int, int]:
    """(m, d): the number of zero Jordan blocks and of those of size 1."""
    m = cols[0] if cols else 0
    d = (cols[0] - cols[1]) if len(cols) >= 2 else m
    return m, d


# -- the census ---------------------------------------------------------------


class _Census(NamedTuple):
    """Aggregates of one lexicographic pass over Mat_n(F_p)."""

    pairs: int  # sum of p^dim over every A
    lemma2: _Counterexample  # first (A, dim, (n - rank)^2) that differ
    types: tuple[tuple[tuple[int, ...], int], ...]  # (conjugate type, count), nilpotent A
    # (first A, m^2 - d, orbit size, echelon of A's annihilator system) per
    # nilpotent orbit; the echelon is _minimum_record's pivots, which pass 2
    # back-substitutes
    nilpotent: tuple[tuple[tuple[int, ...], int, int, tuple[int, ...]], ...]
    inner: int  # sum of p^dim over the nilpotent A


def _group(n: int, p: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every map g of G, the identity first: (target, scale) per entry of A.

    G is the maps A -> c M A M^-1 and A -> c M A^T M^-1, c in F_p^x and M
    = PD monomial (P a permutation matrix, P e_k = e_s(k), and D = diag(d)
    invertible with d_0 = 1, one D per class modulo scalars), so |G| =
    2(p - 1) n! (p - 1)^(n - 1).  g moves entry t = i*n + k of A to entry
    target of gA and multiplies it by scale: to (s(i), s(k)) times c d_i /
    d_k, or, for A^T, to (s(k), s(i)) times c d_k / d_i.  The maps A -> cA
    follow the identity, then the other D, then the other P, and then the
    maps with A^T.  Read only by :func:`_orbit_maps`, which keeps its tables.
    """
    maps = []
    for transposed in (False, True):
        for s in itertools.permutations(range(n)):
            for rest in itertools.product(range(1, p), repeat=max(n - 1, 0)):
                d = (1,) + rest
                for c in range(1, p):
                    maps.append(
                        tuple(
                            (s[k] * n + s[i], c * d[k] * pow(d[i], -1, p) % p)
                            if transposed
                            else (s[i] * n + s[k], c * d[i] * pow(d[k], -1, p) % p)
                            for i in range(n)
                            for k in range(n)
                        )
                    )
    return tuple(maps)


@functools.lru_cache(maxsize=None)
def _orbit_maps(
    n: int, p: int
) -> tuple[tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]], ...]:
    """(lead, low, high) per map g of G but the identity.

    The key of A is its row-major entries read as one base-p number, so
    entry t = i*n + k weighs p^(n^2 - 1 - t), and key order is the walk's
    order.  g moves and scales each entry by a rule of its own
    (:func:`_group`), so key(A) - key(gA) is a sum over A's rows:
    lead[i][code] is what row i, with that code, puts into it, and low[r]
    and high[r] are the least and the most that rows r, r + 1, ... can put
    into it (0 at r = n).  One (n, p^n) table per map, built on first use.
    The maps A -> cA come first: a first row whose first nonzero entry is
    not 1 fails one of them, and is settled there.
    """
    place = [p ** (n * n - 1 - t) for t in range(n * n)]
    maps = []
    for g in _group(n, p)[1:]:
        lead = tuple(
            _row_table(
                [
                    [e * place[i * n + k] - scale * e % p * place[target] for e in range(p)]
                    for k, (target, scale) in enumerate(g[i * n : (i + 1) * n])
                ]
            )
            for i in range(n)
        )
        low, high = [0], [0]
        for row in reversed(lead):
            low.insert(0, low[0] + min(row))
            high.insert(0, high[0] + max(row))
        maps.append((lead, tuple(low), tuple(high)))
    return tuple(maps)


def _orbit_minima(
    n: int, p: int, descend, root
) -> Iterator[tuple[tuple[int, ...], int, object]]:
    """(row codes, orbit size, state) of every orbit minimum, in walk order.

    A is the minimum of its G-orbit when key(A) <= key(gA) for every map g
    of :func:`_orbit_maps`; the orbit's size is |G| over the number of
    maps, the identity included, that fix A (by orbit-stabilizer, as they
    are A's stabilizer in G).  The walk settles the maps row by row: once
    A's first r rows are chosen, a map whose lead so far plus the most
    that the rows after can add stays below 0 neither rules out nor fixes
    any matrix below this branch and is dropped, and one whose lead plus
    the least that they can add is above 0 rules out the whole branch.
    Only the maps left open after A's first n - 1 rows are read per last
    row.  Mat_0(F_p) is its one matrix, the empty one.

    The caller carries a state down the walk: the empty prefix has
    ``root``, and each kept prefix of fewer than n rows has descend(its
    parent's state, prefix), built once and shared by every minimum below
    it.  Each minimum comes with the state of its first n - 1 rows (of no
    rows when n = 0).
    """
    if n == 0:
        yield (), 1, root
        return
    maps = _orbit_maps(n, p)
    order = len(maps) + 1  # |G|: every map but the identity has its tables
    codes = range(p**n)

    def settle(prefix, open_maps, state):
        i = len(prefix)
        if i < n - 1:
            for code in codes:
                kept = []
                for lead, low, high, ahead in open_maps:
                    ahead += lead[i][code]
                    if ahead + low[i + 1] > 0:  # gA comes before A, whatever comes after
                        break
                    if ahead + high[i + 1] >= 0:
                        kept.append((lead, low, high, ahead))
                else:
                    below = prefix + (code,)
                    yield from settle(below, kept, descend(state, below))
            return
        for last in codes:
            fixed = 1  # the identity
            for lead, _, _, ahead in open_maps:
                gap = ahead + lead[i][last]
                if gap > 0:
                    break
                fixed += not gap
            else:
                yield prefix + (last,), order // fixed, state

    yield from settle((), [(lead, low, high, 0) for lead, low, high in maps], root)


def _empty_prefix(pk: _Packing):
    """:func:`_descend`'s state at the empty prefix: an empty echelon and no rows of A^T."""
    return [0] * (pk.n * pk.n), 0, 0


def _descend(state, prefix: tuple[int, ...], pk: _Packing):
    """The census's state at a prefix of A's rows, from its parent's state.

    The state is (pivots, rank) of the rows of B -> AB that the prefix
    gives, and the prefix packed as A^T (see :class:`_Packing`).
    (AB)_{ij} reads only row i of A, so the prefix's last row adds its n
    rows, eliminated into a copy of the parent's echelon, and its column
    of A^T.
    """
    pivots, rank, At = state
    ab = pk.products[prefix[-1]]
    pivots = pivots[:]
    return pivots, pk.eliminate(ab, pivots, rank), At | ab[len(prefix) - 1]


def _minimum_record(
    codes: tuple[int, ...], state, pk: _Packing
) -> tuple[int, list[int], list[int]]:
    """(annihilator nullity, rank sequence, echelon) of the orbit minimum A with these codes.

    ``state`` is :func:`_descend`'s at A's first n - 1 rows (at no rows
    when n = 0).  :func:`_descend` adds the last row; then A's columns,
    cut from A^T, give an echelon basis (:func:`_basis`), whose size is
    rank A.  Unless the system's rank has reached n^2, the rows of B -> BA
    finish it, built from that basis: every column is a combination of
    the basis, so its n rows are the same combinations of the basis's
    rows, and the span is that of all n^2.  So the echelon has the whole
    system's row space, and :func:`_nullspace` reads from it the basis
    that it reads from the whole system eliminated from empty: both reduce
    to that row space's one reduced echelon form.  The columns are the
    rows of A^T, and (A^T)^k = (A^k)^T, so the rank sequence, which
    starts from the same basis, is A^T's.
    """
    n, nn = pk.n, pk.n * pk.n
    if codes:
        state = _descend(state, codes, pk)
    pivots, rank, At = state
    width = n * pk.w
    # A's columns from A^T packed: column j with entry k in lane k
    cols = [(At >> (j * width)) & ((1 << width) - 1) for j in range(n)]
    basis = _basis(cols, pk)
    if rank < nn:
        # B -> BA: each basis column moved to lanes i*n + k, for each i
        right = [col << (i * width) for i in range(n) for col in basis]
        rank = pk.eliminate(right, pivots, rank)
    return nn - rank, _rank_sequence(cols, pk, basis), pivots


@functools.lru_cache(maxsize=None)
def _census(n: int, p: int) -> _Census:
    """Pass 1: for each A, the annihilator nullity and the rank sequence of powers.

    Returns the aggregates of :class:`_Census` over every matrix, read from
    one matrix per orbit of G weighted by the orbit's size (see the module
    docstring).  The nilpotent list holds one entry per nilpotent orbit,
    its first matrix with m^2 - d, the orbit's size and the echelon of the
    matrix's annihilator system, in walk order, which is lexicographic
    order.  The echelon is kept as a tuple, so the memo is never mutated.
    The elimination of each prefix of rows
    is carried down the walk (:func:`_descend`) and finished per minimum
    (:func:`_minimum_record`).
    """
    pk = _packing(n, p)
    powers = [p**k for k in range(n * n + 1)]
    pairs = inner = 0
    lemma2 = None
    types: dict[tuple[int, ...], int] = {}
    nilpotent = []
    walk = _orbit_minima(n, p, functools.partial(_descend, pk=pk), _empty_prefix(pk))
    for codes, weight, state in walk:
        dim, ranks, echelon = _minimum_record(codes, state, pk)
        pairs += weight * powers[dim]
        if lemma2 is None and dim != (n - ranks[1]) ** 2:
            lemma2 = (_entries(codes, pk), dim, (n - ranks[1]) ** 2)
        if not ranks[-1]:
            cols = _zero_columns(ranks)
            types[cols] = types.get(cols, 0) + weight
            m, d = _zero_block_counts(cols)
            nilpotent.append((codes, m * m - d, weight, tuple(echelon)))
            inner += weight * powers[dim]
    return _Census(pairs, lemma2, tuple(types.items()), tuple(nilpotent), inner)


@functools.lru_cache(maxsize=None)
def _nilpotent_annihilators(n: int, p: int) -> tuple[int, _Counterexample]:
    """Pass 2: per nilpotent orbit, count the nilpotent B in A's annihilator.

    Returns (total count, first (A, count, p^(m^2 - d)) that differ).
    ann(0) is all of Mat_n(F_p), so the zero matrix's count is the number
    of nilpotent matrices the census enumerated, the sum of its orbit
    sizes; the empty matrix of n = 0 is the zero matrix.  Every other
    orbit's annihilator is enumerated from a nullspace basis, which
    :func:`_nullspace` back-substitutes from a copy of the echelon that
    the census stored (no system is built here), one member per line
    {cB : c != 0} (``pk.lines``), and B counts when the ranks
    of its powers reach 0 (:func:`_rank_sequence`, pass 1's test of A).
    (cB)^k = c^k B^k has the rank of B^k, so a nilpotent B stands for the
    p - 1 members of its line, and B = 0 for itself.  A's count,
    weighted by the orbit's size, stands for the orbit's (see the module
    docstring).  Pass 2 reads no table built from G: only the walk does.

    Pass 2 enumerates each space because the census sees an annihilator
    only through its dimension.  A wrong system of the same nullity, such
    as AB = BA^T = 0, whose solutions also form a space of dimension
    (n - rank A)^2, would pass every comparison of the census; the
    members counted here are those of the space itself, and catch it.
    """
    pk = _packing(n, p)
    nilpotent = _census(n, p).nilpotent
    width = n * pk.w
    row_mask = (1 << width) - 1
    total = 0
    lemma3 = None
    for codes, exponent, size, echelon in nilpotent:
        if any(codes):
            lines = 0
            for v in pk.lines(_nullspace(list(echelon), pk)):
                rows = [(v >> (k * width)) & row_mask for k in range(n)]  # B's rows
                lines += not _rank_sequence(rows, pk)[-1]
            found = 1 + (p - 1) * lines
        else:
            found = sum(orbit_size for _, _, orbit_size, _ in nilpotent)
        total += size * found
        if lemma3 is None and found != p**exponent:
            lemma3 = (_entries(codes, pk), found, p**exponent)
    return total, lemma3


# -- counts over Mat_n(F_p) ---------------------------------------------------


def _table_entries(n: int, p: int) -> int:
    """Entries of the tables a census of Mat_n(F_p) builds, p >= 2.

    p for the inverses that :func:`_lanes` keeps, and n tables of p^n codes
    for each of the |G| = 2(p - 1)^n n! maps of :func:`_orbit_maps` (none
    when n = 0); the rest are smaller.
    """
    return p + 2 * (p - 1) ** n * math.factorial(n) * n * p**n


def _check_outer_budget(n: int, p: int, budget: int) -> None:
    """Refuse p^(n^2) matrices over *budget*, or tables over TABLE_BUDGET.

    p^(n^2) >= 1, so a budget of 0 refuses even Mat_0(F_p), which holds one
    matrix.
    """
    required = p ** (n * n)
    if required > budget:
        raise BudgetExceededError("outer enumeration too large", required, budget)
    entries = _table_entries(n, p)
    if entries > TABLE_BUDGET:
        raise BudgetExceededError("oracle tables too large", entries, TABLE_BUDGET)


def _checked_census(n: int, p: int, budget: int) -> _Census:
    """The census, after refusing n, p or the budgets (before the memo is read).

    p is tested for primality after the budgets, which bound it by
    TABLE_BUDGET, so trial division stays short.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if p < 2:
        raise ValueError(f"p must be a prime, got {p}")
    _check_outer_budget(n, p, budget)
    if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p must be a prime, got {p}")
    return _census(n, p)


def _checked_pass2(n: int, p: int, budget: int) -> tuple[int, _Counterexample]:
    """Pass 2, after refusing a census whose solution spaces exceed INNER_BUDGET."""
    census = _checked_census(n, p, budget)
    if census.inner > INNER_BUDGET:
        raise BudgetExceededError(
            "inner solution-space enumeration too large", census.inner, INNER_BUDGET
        )
    return _nilpotent_annihilators(n, p)


def count_pairs(n: int, p: int, budget: int = DEFAULT_OUTER_BUDGET) -> int:
    """|{A, B in Mat_n(F_p) : AB = BA = 0}|.

    Sums p^dim over all A, dim the annihilator's dimension; the inner
    B-count is the size of a linear solution space, so no inner
    enumeration is needed.
    """
    return _checked_census(n, p, budget).pairs


def count_nilpotent_pairs(n: int, p: int, budget: int = DEFAULT_OUTER_BUDGET) -> int:
    """|{A, B in Nil_n(F_p) : AB = BA = 0}|.

    For each nilpotent A but 0, enumerates the solution space of AB = BA =
    0 from a nullspace basis and counts the nilpotent members; ann(0) is
    every matrix, so its count is the census's.  The count is independent
    of any closed form for that quantity.
    """
    return _checked_pass2(n, p, budget)[0]


def count_nilpotent_by_type(
    n: int, p: int, budget: int = DEFAULT_OUTER_BUDGET
) -> dict[Partition, int]:
    """Counts of nilpotent matrices in Mat_n(F_p) by Jordan type.

    Raises CensusError on a census type that is no partition (a rank fault).
    """
    counts = {}
    for cols, count in _checked_census(n, p, budget).types:
        try:
            counts[Partition(cols).conjugate()] = count
        except ValueError:
            raise CensusError(
                f"conjugate type {cols} of {count} matrices is no partition"
            ) from None
    return counts


def find_lemma2_counterexample(
    n: int, p: int, budget: int = DEFAULT_OUTER_BUDGET
) -> _Counterexample:
    """First A (if any) whose annihilator dimension is not (n - rank(A))^2.

    Returns (row-major entries of A, computed dimension, expected m^2) or
    None on a clean pass.
    """
    return _checked_census(n, p, budget).lemma2


def find_lemma3_counterexample(
    n: int, p: int, budget: int = DEFAULT_OUTER_BUDGET
) -> _Counterexample:
    """First nilpotent A whose nilpotent-annihilator count is not p^{m^2 - d}.

    Returns (row-major entries of A, enumerated count, expected count) or
    None on a clean pass.
    """
    return _checked_pass2(n, p, budget)[1]
