"""Tests for the brute-force finite-field oracle."""

import itertools
import random

import pytest

from clpartitions import oracle, verify
from clpartitions.oracle import (
    BudgetExceededError,
    PrimeFieldMatrix,
    annihilator_basis,
    annihilator_dimension,
    count_nilpotent_by_type,
    count_nilpotent_pairs,
    count_pairs,
    enumerate_matrices,
    find_lemma2_counterexample,
    find_lemma3_counterexample,
    jordan_zero_data,
    rank,
)
from clpartitions.partitions import Partition


def M(n, p, *rows):
    return PrimeFieldMatrix(n, p, tuple(x for row in rows for x in row))


def is_nilpotent_reference(A):
    """A^n == 0 by repeated reference multiplication."""
    power = PrimeFieldMatrix.identity(A.n, A.p)
    for _ in range(A.n):
        power = power @ A
    return power.is_zero()


@pytest.fixture
def fresh_census():
    """Empty the oracle memos before and after a test that perturbs them."""
    oracle._census.cache_clear()
    oracle._nilpotent_annihilators.cache_clear()
    yield
    oracle._census.cache_clear()
    oracle._nilpotent_annihilators.cache_clear()


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
        data = jordan_zero_data(PrimeFieldMatrix.zero(3, 2))
        assert (data.m, data.d) == (3, 3)
        assert data.nilpotent_type == Partition((1, 1, 1))

    def test_single_block(self):
        A = M(3, 2, (0, 1, 0), (0, 0, 1), (0, 0, 0))
        data = jordan_zero_data(A)
        assert (data.m, data.d) == (1, 0)
        assert data.nilpotent_type == Partition((3,))

    def test_mixed_blocks(self):
        A = M(3, 2, (0, 1, 0), (0, 0, 0), (0, 0, 0))
        data = jordan_zero_data(A)
        assert (data.m, data.d) == (2, 1)
        assert data.nilpotent_type == Partition((2, 1))

    def test_invertible_has_no_zero_blocks(self):
        data = jordan_zero_data(PrimeFieldMatrix.identity(2, 3))
        assert (data.m, data.d) == (0, 0)
        assert data.nilpotent_type is None


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

    def test_by_type_n2_p2(self):
        counts = count_nilpotent_by_type(2, 2)
        assert counts == {Partition((2,)): 3, Partition((1, 1)): 1}
        assert sum(counts.values()) == 2**2  # q^(n^2 - n)

    @pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_nilpotent_totals(self, n, p):
        counts = count_nilpotent_by_type(n, p)
        assert sum(counts.values()) == p ** (n * n - n)

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
        for call in (count_nilpotent_pairs, find_lemma3_counterexample):
            with pytest.raises(BudgetExceededError) as exc:
                call(3, 3, inner_budget=29_978)
            assert (exc.value.required, exc.value.budget) == (29_979, 29_978)

    def test_inner_budget_refused_on_cache_hit(self):
        assert count_nilpotent_pairs(2, 3) == 33  # both passes now cached
        with pytest.raises(BudgetExceededError) as exc:
            count_nilpotent_pairs(2, 3, inner_budget=10)
        assert exc.value.required == oracle._census(2, 3).inner
        assert count_nilpotent_pairs(2, 3, inner_budget=exc.value.required) == 33

    def test_enumeration_is_lexicographic(self):
        seen = [A.entries for A in itertools.islice(enumerate_matrices(2, 2), 4)]
        assert seen == [
            (0, 0, 0, 0),
            (0, 0, 0, 1),
            (0, 0, 1, 0),
            (0, 0, 1, 1),
        ]


class TestFaultInjection:
    def test_lemma2_names_first_perturbed_matrix(self, monkeypatch, fresh_census):
        first, later = M(2, 3, (0, 0), (2, 1)), M(2, 3, (0, 1), (2, 0))
        targets = {oracle._row_codes(first), oracle._row_codes(later)}
        real = oracle._annihilator_nullity

        def perturbed(codes, packing):
            return real(codes, packing) + (codes in targets)

        monkeypatch.setattr(oracle, "_annihilator_nullity", perturbed)
        report = verify.run_lemma2_check(2, 3)
        assert not report.passed
        want = (2 - rank(first)) ** 2
        assert report.detail == f"A={first.entries}: dimension {want + 1} != {want}"

    def test_lemma3_names_first_nilpotent_matrix(self, monkeypatch, fresh_census):
        real = oracle._is_nilpotent
        # miss B = 0, which lies in every annihilator
        monkeypatch.setattr(oracle, "_is_nilpotent", lambda v, pk: bool(v) and real(v, pk))
        report = verify.run_lemma3_check(2, 2)
        assert not report.passed
        assert report.detail == "A=(0, 0, 0, 0): count 3 != 4"  # 2^(m^2 - d), m = d = 2
