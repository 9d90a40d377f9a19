"""Tests for the brute-force finite-field oracle.

The census kernels are pinned on hand-picked matrices through their row
codes; ``reference`` holds the plain matrix type and the walk over
Mat_n(F_p) that the counts are checked against.
"""

import functools
import inspect
import itertools
import random

import pytest

from clpartitions import oracle, verify
from clpartitions.oracle import (
    BudgetExceededError,
    count_nilpotent_by_type,
    count_nilpotent_pairs,
    count_pairs,
    find_lemma2_counterexample,
    find_lemma3_counterexample,
)
from clpartitions.partitions import Partition
from reference import (
    PrimeFieldMatrix,
    enumerate_matrices,
    packed_annihilator_system,
    rank_mod_p,
    row_codes,
    unshared_census,
)


def M(n, p, *rows):
    return PrimeFieldMatrix(n, p, tuple(x for row in rows for x in row))


def packed_rows(A):
    pk = oracle._packing(A.n, A.p)
    return [pk.row[c] for c in row_codes(A)], pk


def scaled(A, c):
    """cA, entry by entry mod p."""
    return PrimeFieldMatrix(A.n, A.p, tuple(c * e % A.p for e in A.entries))


def transposed(A):
    """A^T, entry by entry."""
    n = A.n
    entries = tuple(A.entries[k * n + i] for i in range(n) for k in range(n))
    return PrimeFieldMatrix(n, A.p, entries)


def from_codes(codes, n, p):
    """The matrix whose row codes are *codes*."""
    entries = tuple(code // p ** (n - 1 - k) % p for code in codes for k in range(n))
    return PrimeFieldMatrix(n, p, entries)


def diagonal(n, p, xs):
    """diag(xs)."""
    return PrimeFieldMatrix(
        n, p, tuple(x if i == k else 0 for i, x in enumerate(xs) for k in range(n))
    )


@functools.lru_cache(maxsize=None)
def monomials(n, p):
    """(M, M^-1) for M = PD, P any permutation matrix and D = diag(1, d_1, ...).

    One M per class of monomial matrices modulo scalars, built and
    inverted by reference products.
    """
    pairs = []
    for s in itertools.permutations(range(n)):
        P = PrimeFieldMatrix(n, p, tuple(int(i == s[k]) for i in range(n) for k in range(n)))
        for rest in itertools.product(range(1, p), repeat=max(n - 1, 0)):
            d = ((1,) + rest)[:n]
            M = P @ diagonal(n, p, d)
            M_inv = diagonal(n, p, [pow(x, p - 2, p) for x in d]) @ transposed(P)
            assert M @ M_inv == PrimeFieldMatrix.identity(n, p)
            pairs.append((M, M_inv))
    return pairs


def orbit(A):
    """Row codes of every c M A M^-1 and c M A^T M^-1, c != 0, M of ``monomials``."""
    conjugates = [
        M @ B @ M_inv for B in (A, transposed(A)) for M, M_inv in monomials(A.n, A.p)
    ]
    return {row_codes(scaled(C, c)) for C in conjugates for c in range(1, A.p)}


def expanded_orbits(nilpotent, n, p):
    """The census's (first codes, m^2 - d) per orbit, for every matrix of each orbit.

    Asserts that each entry's orbit size is the reference orbit's size.
    """
    expanded = []
    for first, exponent, size, _ in nilpotent:
        members = orbit(from_codes(first, n, p))
        assert size == len(members), first
        expanded += [(codes, exponent) for codes in members]
    return tuple(sorted(expanded))


@functools.lru_cache(maxsize=None)
def orbit_representatives(n, p):
    """Row codes of each orbit's lexicographic minimum, in walk order.

    Each matrix not yet in an orbit found so far opens a new one; it is
    that orbit's minimum when the reference orbits partition Mat_n(F_p).
    """
    seen, minima = set(), []
    for A in enumerate_matrices(n, p):
        if row_codes(A) not in seen:
            members = orbit(A)
            seen |= members
            minima.append(min(members))
    return minima


def rank(A):
    """rank(A) by the oracle's one elimination routine."""
    rows, pk = packed_rows(A)
    return oracle._eliminate(rows, pk, [0] * A.n)


def minima(n, p):
    """(row codes, orbit size) of each orbit minimum of the walk, carrying no state."""
    walk = oracle._orbit_minima(n, p, lambda state, prefix: None, None)
    return [(codes, size) for codes, size, _ in walk]


def census_record(A):
    """The census kernel's (annihilator nullity, rank sequence, echelon) of A.

    A's first n - 1 rows are carried by ``_descend`` from the empty prefix,
    as the walk carries them, and ``_minimum_record`` finishes A.
    """
    pk = oracle._packing(A.n, A.p)
    codes = row_codes(A)
    state = oracle._empty_prefix(pk)
    for i in range(1, A.n):
        state = oracle._descend(state, codes[:i], pk)
    return oracle._minimum_record(codes, state, pk)


def whole_system(codes, pk):
    """The reference's packed 2n^2-row system of B -> (AB, BA), A with these row codes."""
    return packed_annihilator_system(from_codes(codes, pk.n, pk.p), pk.w)


def uncarried_record(codes, pk):
    """(nullity, rank sequence) of A by ``_eliminate`` from empty echelons.

    The nullity is that of the whole system (``whole_system``), and the
    rank sequence starts from all of A's rows.
    """
    nn = pk.n * pk.n
    nullity = nn - oracle._eliminate(whole_system(codes, pk), pk, [0] * nn)
    return nullity, oracle._rank_sequence([pk.row[c] for c in codes], pk)


def annihilator_dimension(A):
    """The census kernel's nullity of A's whole annihilator system."""
    return census_record(A)[0]


def nullspace_basis(A):
    """Packed basis of {B : AB = BA = 0}, back-substituted from A's census echelon."""
    return oracle._nullspace(census_record(A)[2], oracle._packing(A.n, A.p))


def annihilator_basis(A):
    """The back-substituted basis of {B : AB = BA = 0}, as row-major entries."""
    pk = oracle._packing(A.n, A.p)
    return [
        tuple((v >> (t * pk.w)) & pk.lane for t in range(A.n * A.n))
        for v in nullspace_basis(A)
    ]


def annihilator_solutions(A):
    """{B : AB = BA = 0} as row-major entries, decided by reference products.

    AB = 0 exactly when every column of B lies in ker A, so the candidates
    are the matrices whose columns are the v with A v = 0 (v checked as a
    one-column matrix); a candidate is kept when both products are zero.
    """
    n, p = A.n, A.p

    def with_columns(columns):
        return PrimeFieldMatrix(
            n, p, tuple(columns[j][i] for i in range(n) for j in range(n))
        )

    zero = (0,) * n
    kernel = [
        v
        for v in itertools.product(range(p), repeat=n)
        if (A @ with_columns([v] + [zero] * (n - 1))).is_zero()
    ]
    found = set()
    for columns in itertools.product(kernel, repeat=n):
        B = with_columns(columns)
        if (A @ B).is_zero() and (B @ A).is_zero():
            found.add(B.entries)
    return found


def zero_data(A):
    """(m, d, Jordan type if A is nilpotent else None) from the ranks of A's powers."""
    rows, pk = packed_rows(A)
    ranks = oracle._rank_sequence(rows, pk)
    cols = oracle._zero_columns(ranks)
    m, d = oracle._zero_block_counts(cols)
    return m, d, None if ranks[-1] else Partition(cols).conjugate()


def is_nilpotent_reference(A):
    """A^n == 0 by repeated reference multiplication."""
    power = PrimeFieldMatrix.identity(A.n, A.p)
    for _ in range(A.n):
        power = power @ A
    return power.is_zero()


def drop_last_image_vector(monkeypatch):
    """Make ``_matmul`` drop the last vector of every image basis of two or more."""
    real = oracle._matmul

    def dropping(X, Y, packing):
        out = real(X, Y, packing)
        return out[:-1] if len(X) > 1 else out

    monkeypatch.setattr(oracle, "_matmul", dropping)


@pytest.fixture
def fresh_census():
    """Empty the oracle memos before and after a test that perturbs them."""
    oracle._census.cache_clear()
    oracle._nilpotent_annihilators.cache_clear()
    yield
    oracle._census.cache_clear()
    oracle._nilpotent_annihilators.cache_clear()


class TestPackingTables:
    """The code-indexed tables, decoded lane by lane against base-p digits."""

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 3), (2, 5)])
    def test_tables_hold_each_codes_digits(self, n, p):
        pk = oracle._packing(n, p)

        def lanes(x, count):
            assert x >> (count * pk.w) == 0  # nothing above the last lane
            return [(x >> (t * pk.w)) & pk.lane for t in range(count)]

        # the code-th row in lexicographic order has the code's base-p digits
        for code, digits in enumerate(itertools.product(range(p), repeat=n)):
            assert lanes(pk.row[code], n) == list(digits)
            for j in range(n):
                want = [0] * (n * n)
                want[j :: n] = digits  # entry k in lane k*n + j
                assert lanes(pk.products[code][j], n * n) == want

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 3), (2, 5)])
    def test_entries_round_trip_row_codes(self, n, p):
        pk = oracle._packing(n, p)
        for A in enumerate_matrices(n, p):
            assert oracle._entries(row_codes(A), pk) == A.entries


class TestRank:
    def test_zero(self):
        assert rank(PrimeFieldMatrix.zero(3, 2)) == 0

    def test_identity(self):
        assert rank(PrimeFieldMatrix.identity(3, 2)) == 3

    def test_equal_rows(self):
        assert rank(M(2, 2, (1, 1), (1, 1))) == 1

    def test_mod_three(self):
        assert rank(M(2, 3, (1, 2), (0, 1))) == 2
        assert rank(M(2, 3, (1, 2), (2, 1))) == 1  # second row = 2 * first mod 3


class TestMatmul:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_products_match_reference(self, p):
        rng = random.Random(p)
        for n in range(5):
            for _ in range(30):
                X, Y = (
                    PrimeFieldMatrix(n, p, tuple(rng.randrange(p) for _ in range(n * n)))
                    for _ in range(2)
                )
                (x, pk), (y, _) = packed_rows(X), packed_rows(Y)
                assert oracle._matmul(x, y, pk) == packed_rows(X @ Y)[0], (X, Y)


class TestRankSequence:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_reference_powers(self, p):
        # the ranks of A^0, A, A^2, ... by reference products, cut at the
        # first repeat or 0, from A's rows and from A's columns with their
        # basis passed in, as the census passes it
        rng = random.Random(p)
        for n in range(6):
            pk = oracle._packing(n, p)
            for trial in range(30):
                # every third A strictly upper triangular, so nilpotent
                A = PrimeFieldMatrix(
                    n,
                    p,
                    tuple(
                        0 if trial % 3 == 0 and k <= i else rng.randrange(p)
                        for i in range(n)
                        for k in range(n)
                    ),
                )
                want, power = [n], PrimeFieldMatrix.identity(n, p)
                while len(want) < 2 or want[-1] and want[-1] != want[-2]:
                    power = power @ A
                    rows = [power.entries[i * n : (i + 1) * n] for i in range(n)]
                    want.append(rank_mod_p(rows, p))
                rows, _ = packed_rows(A)
                # column j with entry k in lane k
                cols = [
                    sum(A.entries[k * n + j] << (k * pk.w) for k in range(n)) for j in range(n)
                ]
                assert oracle._rank_sequence(rows, pk) == want, A
                assert oracle._rank_sequence(cols, pk, oracle._basis(cols, pk)) == want, A


class TestAnnihilatorDimension:
    def test_zero_matrix(self):
        assert annihilator_dimension(PrimeFieldMatrix.zero(2, 3)) == 4

    def test_invertible(self):
        assert annihilator_dimension(PrimeFieldMatrix.identity(3, 2)) == 0

    def test_rank_one_nilpotent_by_enumeration(self):
        A = M(2, 2, (0, 1), (0, 0))
        solutions = [
            B
            for B in enumerate_matrices(2, 2)
            if (A @ B).is_zero() and (B @ A).is_zero()
        ]
        assert len(solutions) == 2  # p^1
        assert annihilator_dimension(A) == 1

    def test_basis_spans_solutions(self):
        A = M(2, 3, (0, 1), (0, 0))
        basis = annihilator_basis(A)
        assert len(basis) == annihilator_dimension(A)
        for vec in basis:
            B = PrimeFieldMatrix(2, 3, vec)
            assert (A @ B).is_zero() and (B @ A).is_zero()

    @pytest.mark.parametrize("n,p", [(2, 3), (3, 2)])
    def test_basis_spans_exactly_the_annihilator(self, n, p):
        # pass 1 reads only the nullity; this pins the kernel itself, so a
        # kernel of another system with the same nullity (AB = BA^T = 0,
        # say) fails here
        for A in enumerate_matrices(n, p):
            basis = annihilator_basis(A)
            span = {
                tuple(
                    sum(c * v[t] for c, v in zip(cs, basis)) % p for t in range(n * n)
                )
                for cs in itertools.product(range(p), repeat=len(basis))
            }
            assert len(span) == p ** len(basis)  # the basis is independent
            assert span == annihilator_solutions(A)

    @pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 2), (3, 3)])
    def test_lines_meet_every_nonzero_solution_once(self, n, p):
        # pass 2 tests one B per line {cB}: the p - 1 multiples of the lines
        # are every nonzero member of the annihilator, each once
        pk = oracle._packing(n, p)
        rng = random.Random(n * p)
        for A in rng.sample(list(enumerate_matrices(n, p)), 40):
            lines = oracle._lines(nullspace_basis(A), pk)
            members = [
                tuple(c * ((v >> (t * pk.w)) & pk.lane) % p for t in range(n * n))
                for v in lines
                for c in range(1, p)
            ]
            assert len(members) == len(set(members))
            assert {(0,) * (n * n), *members} == annihilator_solutions(A)

    def test_similarity_invariance(self):
        rng = random.Random(7)
        for _ in range(20):
            n, p = rng.choice([(2, 2), (2, 3), (3, 2)])
            A = PrimeFieldMatrix(
                n, p, tuple(rng.randrange(p) for _ in range(n * n))
            )
            while True:
                U = PrimeFieldMatrix(
                    n, p, tuple(rng.randrange(p) for _ in range(n * n))
                )
                if rank(U) == n:
                    break
            # invert U by enumerating candidates (n, p are tiny)
            Uinv = next(
                V
                for V in enumerate_matrices(n, p)
                if (U @ V) == PrimeFieldMatrix.identity(n, p)
            )
            conjugated = U @ A @ Uinv
            assert annihilator_dimension(conjugated) == annihilator_dimension(A)


class TestJordanZeroData:
    def test_zero_matrix(self):
        assert zero_data(PrimeFieldMatrix.zero(3, 2)) == (3, 3, Partition((1, 1, 1)))

    def test_single_block(self):
        A = M(3, 2, (0, 1, 0), (0, 0, 1), (0, 0, 0))
        assert zero_data(A) == (1, 0, Partition((3,)))

    def test_mixed_blocks(self):
        A = M(3, 2, (0, 1, 0), (0, 0, 0), (0, 0, 0))
        assert zero_data(A) == (2, 1, Partition((2, 1)))

    def test_invertible_has_no_zero_blocks(self):
        assert zero_data(PrimeFieldMatrix.identity(2, 3)) == (0, 0, None)


class TestCounts:
    def test_count_pairs_base_cases(self):
        assert count_pairs(0, 2) == 1
        assert count_pairs(1, 2) == 3  # (0,0), (0,1), (1,0)
        assert count_pairs(2, 2) == 40

    def test_count_pairs_full_enumeration_cross_check(self):
        brute = sum(
            1
            for A in enumerate_matrices(2, 2)
            for B in enumerate_matrices(2, 2)
            if (A @ B).is_zero() and (B @ A).is_zero()
        )
        assert brute == 40

    def test_full_enumeration_cross_check_mod_three(self):
        pairs = nilpotent_pairs = 0
        nilpotent = {A for A in enumerate_matrices(2, 3) if is_nilpotent_reference(A)}
        for A in enumerate_matrices(2, 3):
            for B in enumerate_matrices(2, 3):
                if (A @ B).is_zero() and (B @ A).is_zero():
                    pairs += 1
                    nilpotent_pairs += A in nilpotent and B in nilpotent
        assert (pairs, nilpotent_pairs) == (225, 33)
        assert count_pairs(2, 3) == pairs
        assert count_nilpotent_pairs(2, 3) == nilpotent_pairs

    def test_mod_five(self):
        assert find_lemma2_counterexample(2, 5) is None
        assert find_lemma3_counterexample(2, 5) is None
        counts = count_nilpotent_by_type(2, 5)
        assert counts == {Partition((2,)): 24, Partition((1, 1)): 1}
        assert sum(counts.values()) == 5**2

    def test_nilpotent_pairs(self):
        assert count_nilpotent_pairs(1, 2) == 1
        assert count_nilpotent_pairs(2, 2) == 10
        assert count_nilpotent_pairs(2, 3) == 33

    @pytest.mark.parametrize(
        "n,p,pairs,nilpotent_pairs",
        [(3, 3, 82629, 5409), (2, 5, 1825, 145), (3, 5, 8150025, 183025)],
    )
    def test_counts_at_odd_p(self, n, p, pairs, nilpotent_pairs):
        # weights p - 1 in pass 1, and lane sums reduced mod p in pass 2
        assert count_pairs(n, p) == pairs
        assert find_lemma2_counterexample(n, p) is None
        assert count_nilpotent_pairs(n, p) == nilpotent_pairs
        assert find_lemma3_counterexample(n, p) is None

    def test_prime_beyond_the_first_three(self):
        # no table of primes: p = 7 is counted, and both identities' middle
        # routes agree with its counts
        assert count_pairs(2, 7) == 7105
        assert count_nilpotent_pairs(2, 7) == 385
        assert find_lemma2_counterexample(2, 7) is None
        assert find_lemma3_counterexample(2, 7) is None
        for name in ("eq1", "eq2"):
            assert verify.run_eq_check(name, 7, 2, 2).passed, name

    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9, -3])
    def test_p_that_is_not_prime_refused(self, p):
        with pytest.raises(ValueError, match=f"p must be a prime, got {p}"):
            count_pairs(2, p)

    @pytest.mark.parametrize("n,p", [(1, 1000003), (2, 37), (2, 89), (0, 10**30)])
    def test_tables_over_their_budget_refused(self, n, p, monkeypatch):
        def never(n, p):
            raise AssertionError("census ran despite refusal")

        monkeypatch.setattr(oracle, "_census", never)
        with pytest.raises(BudgetExceededError) as exc:
            count_pairs(n, p)
        assert exc.value.required == oracle._table_entries(n, p) > oracle.TABLE_BUDGET

    def test_table_entries_count_what_the_census_builds(self):
        # the inverses, and n tables of p^n codes per map of G but the identity
        for n, p in [(1, 3), (2, 3), (3, 2), (2, 5)]:
            pk = oracle._packing(n, p)
            maps = oracle._orbit_maps(n, p)
            built = len(pk.inverse) + sum(len(t) for lead, _, _ in maps for t in lead)
            assert oracle._table_entries(n, p) == built + n * p**n

    @pytest.mark.parametrize("n,p", [(1, 7), (2, 7), (3, 5), (5, 3), (2, 101)])
    def test_packing_reduces_every_lane_value_up_to_its_bound(self, n, p):
        pk = oracle._packing(n, p)
        bound = max(p * (p - 1), n * (p - 1) ** 2)
        for x in range(bound + 1):
            assert (x * pk.mul) >> pk.shift == x // p, x
            assert x < 1 << pk.w

    def test_by_type_n2_p2(self):
        counts = count_nilpotent_by_type(2, 2)
        assert counts == {Partition((2,)): 3, Partition((1, 1)): 1}
        assert sum(counts.values()) == 2**2  # q^(n^2 - n)

    @pytest.mark.parametrize(
        "n,p,counts",
        [
            (4, 2, {(4,): 2520, (3, 1): 1260, (2, 2): 210, (2, 1, 1): 105, (1, 1, 1, 1): 1}),
            (3, 3, {(3,): 624, (2, 1): 104, (1, 1, 1): 1}),
        ],
    )
    def test_by_type_pinned(self, n, p, counts):
        # each type's count, not only the total p^(n^2 - n), so a slip in the
        # orbit weights that keeps the total still fails
        want = {Partition(parts): count for parts, count in counts.items()}
        assert count_nilpotent_by_type(n, p) == want

    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (2, 5), (3, 2)])
    def test_census_nilpotent_set_is_reference_nilpotent_set(self, n, p):
        # pass 2 counts ann(0)'s nilpotent B as the sum of these orbits' sizes,
        # so check the set and the sizes independently
        want = [
            row_codes(A) for A in enumerate_matrices(n, p) if is_nilpotent_reference(A)
        ]
        got = expanded_orbits(oracle._census(n, p).nilpotent, n, p)
        assert [codes for codes, _ in got] == want

    @pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_nilpotent_totals(self, n, p):
        counts = count_nilpotent_by_type(n, p)
        assert sum(counts.values()) == p ** (n * n - n)

    @pytest.mark.parametrize(
        "call",
        [
            count_pairs,
            count_nilpotent_pairs,
            count_nilpotent_by_type,
            find_lemma2_counterexample,
            find_lemma3_counterexample,
        ],
    )
    @pytest.mark.parametrize("n,p", [(-1, 2), (-2, 3)])
    def test_negative_n_refused(self, call, n, p):
        with pytest.raises(ValueError, match="n must be non-negative"):
            call(n, p)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError) as exc:
            count_pairs(3, 3, budget=100)
        assert exc.value.required == 3**9

    def test_outer_budget_refused_on_cache_hit(self):
        assert count_pairs(2, 3) == 225  # the census for (2, 3) is now cached
        for call in (
            count_pairs,
            count_nilpotent_pairs,
            count_nilpotent_by_type,
            find_lemma2_counterexample,
            find_lemma3_counterexample,
        ):
            with pytest.raises(BudgetExceededError) as exc:
                call(2, 3, budget=80)
            assert exc.value.required == 81

    def test_inner_budget_refused_before_enumeration(self, monkeypatch):
        def never(n, p):
            raise AssertionError("solution spaces enumerated despite refusal")

        monkeypatch.setattr(oracle, "_nilpotent_annihilators", never)
        monkeypatch.setattr(oracle, "INNER_BUDGET", 29_978)
        for call in (count_nilpotent_pairs, find_lemma3_counterexample):
            with pytest.raises(BudgetExceededError) as exc:
                call(3, 3)
            assert (exc.value.required, exc.value.budget) == (29_979, 29_978)

    def test_inner_budget_refused_on_cache_hit(self, monkeypatch):
        assert count_nilpotent_pairs(2, 3) == 33  # both passes now cached
        monkeypatch.setattr(oracle, "INNER_BUDGET", 10)
        with pytest.raises(BudgetExceededError) as exc:
            count_nilpotent_pairs(2, 3)
        assert exc.value.required == oracle._census(2, 3).inner
        monkeypatch.setattr(oracle, "INNER_BUDGET", exc.value.required)
        assert count_nilpotent_pairs(2, 3) == 33

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_empty_matrix_through_the_census(self, p):
        # Mat_0(F_p) holds one matrix: nilpotent, annihilator of dimension 0
        assert oracle._census(0, p) == (1, None, (((), 1),), (((), 0, 1, ()),), 1)
        assert count_pairs(0, p) == 1
        assert count_nilpotent_pairs(0, p) == 1
        assert count_nilpotent_by_type(0, p) == {Partition(): 1}
        assert find_lemma2_counterexample(0, p) is None
        assert find_lemma3_counterexample(0, p) is None
        with pytest.raises(BudgetExceededError) as exc:
            count_pairs(0, p, budget=0)
        assert exc.value.required == 1

    def test_n4_p2(self):
        # the census of Mat_4(F_2), 65,536 matrices, which test_06 also reads
        assert count_pairs(4, 2) == 394096
        assert find_lemma2_counterexample(4, 2) is None
        assert count_nilpotent_pairs(4, 2) == 36016
        assert find_lemma3_counterexample(4, 2) is None

    def test_enumeration_is_lexicographic(self):
        seen = [A.entries for A in itertools.islice(enumerate_matrices(2, 2), 4)]
        assert seen == [
            (0, 0, 0, 0),
            (0, 0, 0, 1),
            (0, 0, 1, 0),
            (0, 0, 1, 1),
        ]


class TestOrbitWalk:
    """The census visits one matrix per orbit of G, its lexicographic minimum.

    Pass 2 visits the minima of the nilpotent orbits but that of 0.
    """

    @pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 3), (3, 2)])
    def test_walk_visits_orbit_minima(self, n, p, monkeypatch, fresh_census):
        visited = []
        real = oracle._minimum_record

        def recording(codes, state, packing):
            visited.append(codes)
            return real(codes, state, packing)

        monkeypatch.setattr(oracle, "_minimum_record", recording)
        oracle._census(n, p)
        assert visited == orbit_representatives(n, p)

    @pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 3), (3, 2)])
    def test_pass2_visits_nilpotent_orbit_minima(
        self, n, p, monkeypatch, fresh_census
    ):
        # one annihilator per nilpotent orbit but that of 0, which is every
        # matrix and is not enumerated: the orbit's minimum, in walk order.
        # Pass 2 back-substitutes the echelon that the census stored with it
        visited = []
        real = oracle._nullspace

        def recording(pivots, packing):
            visited.append(tuple(pivots))
            return real(pivots, packing)

        monkeypatch.setattr(oracle, "_nullspace", recording)
        oracle._nilpotent_annihilators(n, p)
        nilpotent = {
            row_codes(A) for A in enumerate_matrices(n, p) if is_nilpotent_reference(A)
        }
        entries = [entry for entry in oracle._census(n, p).nilpotent if any(entry[0])]
        assert visited == [echelon for _, _, _, echelon in entries]
        assert [codes for codes, *_ in entries] == [
            c for c in orbit_representatives(n, p) if c in nilpotent and any(c)
        ]


class TestSharedPrefix:
    """The census weights each orbit minimum it visits by its orbit's size.

    It equals the reference census over every matrix.
    """

    @pytest.mark.parametrize("n,p", [(2, 5), (3, 2), (3, 3)])
    def test_walk_weights_are_reference_orbit_sizes(self, n, p):
        visited = minima(n, p)
        assert visited
        for codes, weight in visited:
            assert weight == len(orbit(from_codes(codes, n, p))), codes

    @pytest.mark.parametrize("n,p", [(4, 2), (3, 3)])
    def test_walk_weights_sum_to_every_matrix(self, n, p):
        # the orbits of the visited matrices cover Mat_n(F_p) exactly once
        weights = [w for _, w in minima(n, p)]
        assert sum(weights) == p ** (n * n)

    @pytest.mark.parametrize(
        "n,p", [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]
    )
    def test_census_matches_unshared_reference(self, n, p):
        want = dict(zip(oracle._Census._fields, unshared_census(n, p)))
        got = oracle._census(n, p)._asdict()
        # the census keeps one entry per nilpotent orbit, the reference one per matrix
        assert expanded_orbits(got.pop("nilpotent"), n, p) == want.pop("nilpotent")
        assert got == want


class TestCarriedElimination:
    """Each prefix of A's rows is eliminated once, down the walk.

    ``_descend`` carries the prefix and ``_minimum_record`` finishes each
    minimum; the records equal those of ``_eliminate`` run from empty
    echelons on the whole system.
    """

    @pytest.mark.parametrize("n,p", [(3, 3), (4, 2)])
    def test_every_minimum_matches_uncarried_elimination(self, n, p):
        pk = oracle._packing(n, p)
        descend = functools.partial(oracle._descend, pk=pk)
        seen = 0
        for codes, _, state in oracle._orbit_minima(n, p, descend, oracle._empty_prefix(pk)):
            dim, ranks, _ = oracle._minimum_record(codes, state, pk)
            assert (dim, ranks) == uncarried_record(codes, pk), codes
            seen += 1
        assert seen == len(orbit_representatives(n, p))

    @pytest.mark.parametrize("n,p", [(0, 2), (1, 3), (2, 3), (2, 5), (3, 2)])
    def test_every_matrix_matches_uncarried_elimination(self, n, p):
        # the carried rows need not be a minimum's
        pk = oracle._packing(n, p)
        for A in enumerate_matrices(n, p):
            dim, ranks, _ = census_record(A)
            assert (dim, ranks) == uncarried_record(row_codes(A), pk), A.entries

    def test_minimum_record_leaves_the_shared_state(self):
        # every minimum below a prefix reads the same state
        pk = oracle._packing(3, 3)
        descend = functools.partial(oracle._descend, pk=pk)
        for codes, _, state in oracle._orbit_minima(3, 3, descend, oracle._empty_prefix(pk)):
            pivots, rank, At = state
            before = (pivots[:], rank, At)
            oracle._minimum_record(codes, state, pk)
            assert state == before, codes

    @pytest.mark.parametrize(
        "n,p,every_matrix", [(2, 3, True), (2, 5, True), (3, 2, True), (3, 3, False)]
    )
    def test_echelon_back_substitutes_to_the_whole_systems_basis(self, n, p, every_matrix):
        # the echelon of _minimum_record has the whole system's row space, and
        # _nullspace reduces it to the one reduced echelon form of that space,
        # so pass 2 reads the basis of the system eliminated from empty,
        # vector for vector and in the same order
        pk = oracle._packing(n, p)
        if every_matrix:
            records = ((row_codes(A), census_record(A)) for A in enumerate_matrices(n, p))
        else:
            descend = functools.partial(oracle._descend, pk=pk)
            walk = oracle._orbit_minima(n, p, descend, oracle._empty_prefix(pk))
            records = ((c, oracle._minimum_record(c, state, pk)) for c, _, state in walk)
        for codes, (_, _, echelon) in records:
            whole = [0] * (n * n)
            oracle._eliminate(whole_system(codes, pk), pk, whole)
            assert oracle._nullspace(echelon, pk) == oracle._nullspace(whole, pk), codes

    @pytest.mark.parametrize("n,p", [(3, 3), (4, 2), (2, 5)])
    def test_pass2_builds_no_annihilator_system(self, n, p, monkeypatch, fresh_census):
        # pass 2 eliminates only B's powers, n rows each, and reads each
        # annihilator from the echelon that the census stored
        oracle._census(n, p)
        sizes = []
        real = oracle._eliminate

        def recording(rows, packing, *state):
            rows = list(rows)
            sizes.append(len(rows))
            return real(rows, packing, *state)

        monkeypatch.setattr(oracle, "_eliminate", recording)
        oracle._nilpotent_annihilators(n, p)
        assert sizes and max(sizes) <= n

    @pytest.mark.parametrize("n,p", [(2, 3), (3, 2), (2, 5)])
    def test_eliminate_resumes_from_a_state(self, n, p):
        rng = random.Random(10 * n + p)
        pk = oracle._packing(n, p)
        for _ in range(40):
            codes = tuple(rng.randrange(p**n) for _ in range(n))
            rows = whole_system(codes, pk)
            cut = rng.randrange(len(rows) + 1)
            pivots, whole = [0] * (n * n), [0] * (n * n)
            rank = oracle._eliminate(rows[:cut], pk, pivots)
            rank = oracle._eliminate(rows[cut:], pk, pivots, rank)
            assert rank == oracle._eliminate(rows, pk, whole)
            assert pivots == whole


class TestFaultInjection:
    def test_lemma2_names_first_perturbed_matrix(self, monkeypatch, fresh_census):
        # perturb two whole orbits; the minimum of the earlier one is the
        # lexicographically first perturbed matrix
        first, later = M(2, 3, (0, 0), (1, 2)), M(2, 3, (0, 1), (2, 0))
        targets = orbit(first) | orbit(later)
        assert min(targets) == min(orbit(first)) == (0, 4)  # (0, 0, 1, 1)
        real = oracle._minimum_record

        def perturbed(codes, state, packing):
            dim, ranks, echelon = real(codes, state, packing)
            return dim + (codes in targets), ranks, echelon

        monkeypatch.setattr(oracle, "_minimum_record", perturbed)
        report = verify.run_lemma2_check(2, 3)
        assert not report.passed
        want = (2 - rank(first)) ** 2
        assert report.detail == f"A=(0, 0, 1, 1): dimension {want + 1} != {want}"

    def test_lemma2_names_minimum_of_perturbed_orbit(self, monkeypatch, fresh_census):
        # perturb the whole orbit of A; its minimum, A, is the
        # lexicographically first perturbed matrix
        A = M(2, 3, (0, 0), (1, 0))
        targets = orbit(A)
        assert targets == {(0, 3), (0, 6), (1, 0), (2, 0)}
        real = oracle._minimum_record

        def perturbed(codes, state, packing):
            dim, ranks, echelon = real(codes, state, packing)
            return dim + (codes in targets), ranks, echelon

        monkeypatch.setattr(oracle, "_minimum_record", perturbed)
        report = verify.run_lemma2_check(2, 3)
        assert not report.passed
        assert report.detail == "A=(0, 0, 1, 0): dimension 2 != 1"  # (2 - rank A)^2 = 1

    def test_dropped_prefix_pivot_fails_lemma2_and_eq1(self, monkeypatch, fresh_census):
        # the state carried at the rows (0, 0, 0), (0, 0, 1) of Mat_3(F_2)
        # forgets its pivot at lane 2*3 + 0, (AB)_{10} = B_{20} = 0; the first
        # minimum below that prefix, with last row (0, 1, 0), is the first
        # whose nullity moves, and every minimum before it keeps its own
        real = oracle._descend

        def dropping(state, prefix, pk):
            state = real(state, prefix, pk)
            if (pk.n, prefix) == (3, (0, 1)):
                pivots, rank, *rest = state
                assert pivots[6]
                pivots = pivots[:]
                pivots[6] = 0
                state = (pivots, rank - 1, *rest)
            return state

        monkeypatch.setattr(oracle, "_descend", dropping)
        report = verify.run_lemma2_check(3, 2)
        assert not report.passed
        assert report.detail == "A=(0, 0, 0, 0, 0, 1, 0, 1, 0): dimension 2 != 1"
        report = verify.run_eq_check("eq1", 2, 3, 6)
        assert not report.passed
        assert report.detail == "coefficient of u^3: oracle 51/4, middle 171/14, rhs 171/14"

    def test_forgotten_prefix_transpose_fails_lemma2_and_the_counts(
        self, monkeypatch, fresh_census
    ):
        # the state carried at the rows (0, 0, 0), (0, 0, 1) of Mat_3(F_2)
        # forgets A^T, so every minimum below it reads its columns, and its
        # rank and nilpotency, from the last row alone; the first, with last
        # row (0, 1, 0), has rank 1, not 2, and its orbit counts as nilpotent
        real = oracle._descend

        def forgetting(state, prefix, pk):
            state = real(state, prefix, pk)
            if (pk.n, prefix) == (3, (0, 1)):
                pivots, rank, At = state
                assert At
                state = (pivots, rank, 0)
            return state

        monkeypatch.setattr(oracle, "_descend", forgetting)
        report = verify.run_lemma2_check(3, 2)
        assert not report.passed
        assert report.detail == "A=(0, 0, 0, 0, 0, 1, 0, 1, 0): dimension 2 != 4"
        report = verify.run_jordan_type_count_check(3, 2)
        assert not report.passed
        assert report.detail == "type (3): enumerated 36 != 42"
        report = verify.run_eq_check("eq1", 2, 3, 6)
        assert not report.passed
        assert report.detail == "coefficient of u^3: oracle 51/4, middle 171/14, rhs 171/14"
        # ann(0) counts every matrix that the census calls nilpotent: 79, not 2^6
        report = verify.run_lemma3_check(3, 2)
        assert not report.passed
        assert report.detail == "A=(0, 0, 0, 0, 0, 0, 0, 0, 0): count 79 != 64"

    def test_lemma3_names_first_nilpotent_matrix(self, fresh_census, monkeypatch):
        # fresh_census comes first, so _census is restored before it is cleared.
        # The census's count of nilpotent matrices, which is ann(0)'s count,
        # is one short: the last nilpotent orbit's size is one too small
        census = oracle._census(2, 2)
        *rest, (codes, exponent, size, echelon) = census.nilpotent
        short = census._replace(nilpotent=(*rest, (codes, exponent, size - 1, echelon)))
        monkeypatch.setattr(oracle, "_census", lambda n, p: short)
        report = verify.run_lemma3_check(2, 2)
        assert not report.passed
        assert report.detail == "A=(0, 0, 0, 0): count 3 != 4"  # 2^(m^2 - d), m = d = 2

    def test_pass2_nilpotency_fault_fails_lemma3_and_eq2(
        self, monkeypatch, fresh_census
    ):
        # pass 2 calls B = A non-nilpotent in ann(A), A = E_21 over F_3, and
        # the census, memoized first, is left as it was.  A is the member of
        # the line {A, 2A} that pass 2 tests, so the whole line drops out
        for n in range(3):
            oracle._census(n, 3)
        pk = oracle._packing(2, 3)
        A = M(2, 3, (0, 0), (1, 0))
        target = [pk.row[c] for c in row_codes(A)]
        real = oracle._rank_sequence

        def perturbed(rows, packing):
            return [packing.n, packing.n] if rows == target else real(rows, packing)

        monkeypatch.setattr(oracle, "_rank_sequence", perturbed)
        report = verify.run_lemma3_check(2, 3)
        assert not report.passed
        # ann(A) = {0, A, 2A}, and only 0 is left; 3^(m^2 - d), m = 1, d = 0
        assert report.detail == "A=(0, 0, 1, 0): count 1 != 3"
        # A's orbit has 4 matrices, each 2 short, so the count is 33 - 8 over
        # |GL_2(F_3)| = 48
        report = verify.run_eq_check("eq2", 3, 2, 6)
        assert not report.passed
        assert report.detail == "coefficient of u^2: oracle 25/48, middle 11/16, rhs 11/16"

    def test_dropped_line_weight_fails_lemma3_and_eq2(self, monkeypatch):
        # pass 2 counts each nilpotent line {cB} once, not p - 1 times: over
        # F_3, ann(E_21) = {0, A, 2A} counts 0 and the line of A
        source = inspect.getsource(oracle._nilpotent_annihilators)
        old = "found = 1 + (p - 1) * lines"
        assert source.count(old) == 1
        namespace = dict(vars(oracle))
        exec(source.replace(old, "found = 1 + lines"), namespace)
        monkeypatch.setattr(
            oracle, "_nilpotent_annihilators", namespace["_nilpotent_annihilators"]
        )
        assert verify.run_lemma3_check(2, 2).passed  # one member per line at p = 2
        report = verify.run_lemma3_check(2, 3)
        assert not report.passed
        assert report.detail == "A=(0, 0, 1, 0): count 2 != 3"
        # each of the 8 nonzero nilpotent A counts 2, not 3: 33 - 8 over 48
        report = verify.run_eq_check("eq2", 3, 2, 6)
        assert not report.passed
        assert report.detail == "coefficient of u^2: oracle 25/48, middle 11/16, rhs 11/16"

    def test_lemma3_names_first_matrix_of_perturbed_line(
        self, monkeypatch, fresh_census
    ):
        # drop a basis vector of both matrices of one nilpotent line at odd p:
        # ann(cA) = ann(A), so the line shares A's echelon
        A = M(2, 3, (0, 0), (1, 0))
        target = census_record(A)[2]
        assert census_record(scaled(A, 2))[2] == target
        real = oracle._nullspace

        def perturbed(pivots, packing):
            hit = (packing.n, packing.p) == (2, 3) and pivots == target
            basis = real(pivots, packing)
            return basis[1:] if hit else basis

        monkeypatch.setattr(oracle, "_nullspace", perturbed)
        report = verify.run_lemma3_check(2, 3)
        assert not report.passed
        # ann(A) has dimension 1, so only B = 0 is left; 3^(m^2 - d), m = 1, d = 0
        assert report.detail == "A=(0, 0, 1, 0): count 1 != 3"

    def test_dropped_image_vector_fails_counter_nilpotent_and_lemma3(
        self, monkeypatch, fresh_census
    ):
        # X applied to an image basis of two or more vectors loses the last
        # one, so the ranks of powers fall too fast.  rank A is the size of
        # the column basis, which no image step builds, so lemma2 passes
        drop_last_image_vector(monkeypatch)
        assert verify.run_lemma2_check(3, 2).passed
        # 42 matrices of rank 2 get the ranks [3, 2, 0], a conjugate type that
        # is no partition, so the count by type fails
        assert ((1, 2), 42) in oracle._census(3, 2).types
        report = verify.run_jordan_type_count_check(3, 2)
        assert not report.passed
        assert report.detail == "conjugate type (1, 2) of 42 matrices is no partition"
        # ann(0) counts every matrix that the census calls nilpotent: 85, not 2^6
        report = verify.run_lemma3_check(3, 2)
        assert not report.passed
        assert report.detail == "A=(0, 0, 0, 0, 0, 0, 0, 0, 0): count 85 != 64"

    def test_dropped_image_vector_in_pass2_fails_lemma3_and_eq2(
        self, monkeypatch, fresh_census
    ):
        # the same fault in pass 2 alone: the census, memoized first, keeps
        # its counts, and pass 2 calls some B in ann(A) nilpotent that is not
        for n in range(5):
            oracle._census(n, 2)
        drop_last_image_vector(monkeypatch)
        assert verify.run_jordan_type_count_check(4, 2).passed
        report = verify.run_lemma3_check(4, 2)
        assert not report.passed
        A = (0,) * 14 + (1, 0)
        assert report.detail == f"A={A}: count 144 != 128"
        report = verify.run_eq_check("eq2", 2, 4, 6)
        assert not report.passed
        want = "coefficient of u^4: oracle 613/315, middle 2251/1260, rhs 2251/1260"
        assert report.detail == want
