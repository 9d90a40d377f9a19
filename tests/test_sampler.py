"""Tests for the exact Markov-kernel partition sampler."""

import bisect
import hashlib
import json
import random
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clpartitions import cli, sampler
from clpartitions.partitions import Partition, aut_order, partitions_of
from clpartitions.sampler import (
    MIN_PROBABILITY,
    TAIL_MASS_BOUND,
    KernelDomainError,
    PartitionSampler,
    SamplerConfig,
    cor1_part1,
    cor1_part2,
    empirical_vs_corollary,
    kernel_row,
    kernel_row_infinite,
    u_over_q_infinite_value,
)
import reference
from reference import partition_bucket_counts

U_HALF = Fraction(1, 2)


class TestKernelRow:
    def test_trivial_row(self):
        row = kernel_row(0, 2, U_HALF)
        assert row.probabilities == (Fraction(1),)

    def test_small_row_values(self):
        row = kernel_row(1, 2, U_HALF)
        assert row.probabilities == (Fraction(3, 4), Fraction(1, 4))

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("u", [Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)])
    @pytest.mark.parametrize("a", range(13))
    def test_rows_stochastic(self, a, q, u):
        row = kernel_row(a, q, u)
        assert len(row.probabilities) == a + 1
        assert all(p >= 0 for p in row.probabilities)
        assert sum(row.probabilities) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(KernelDomainError):
            kernel_row(2, 2, Fraction(3, 2))
        with pytest.raises(KernelDomainError):
            kernel_row(2, Fraction(1, 2), U_HALF)
        with pytest.raises(KernelDomainError):
            kernel_row(-1, 2, U_HALF)


class TestInfiniteRow:
    def test_first_entry_is_empty_partition_probability(self):
        row = kernel_row_infinite(2, U_HALF)
        assert row.probabilities[0] == u_over_q_infinite_value(2, U_HALF)

    def test_partial_sums_monotone(self):
        thresholds = kernel_row_infinite(2, U_HALF).thresholds()
        assert all(b <= c for b, c in zip(thresholds, thresholds[1:]))
        assert thresholds[-1] == 2**64  # residual folded into the last entry

    def test_tail_mass_bound(self):
        for q, u in [(2, U_HALF), (3, Fraction(9, 10))]:
            row = kernel_row_infinite(q, u).probabilities
            uq_inf = u_over_q_infinite_value(q, u)
            law = [cor1_part1(b, q, u, uq_inf) for b in range(len(row))]
            assert 0 <= 1 - sum(law) < TAIL_MASS_BOUND
            assert row[:-1] == tuple(law[:-1]) and sum(row) == 1

    def test_wrong_law_raises_rather_than_hangs(self, monkeypatch):
        # without its factor c^a of u^a = c^a / d^a the law sums to less than
        # 1, so the tail mass would never fall below 2^-60
        real = sampler.cor1_part1

        def dropped(a, q, u, uq_inf):
            return real(a, q, u, uq_inf) / Fraction(u).numerator ** a

        monkeypatch.setattr(sampler, "cor1_part1", dropped)
        with pytest.raises(KernelDomainError, match="below 2\\^-64"):
            kernel_row_infinite(3, Fraction(9, 10))

    def test_refuses_near_one_rather_than_runs_on(self):
        # at q = 101/100 the factors u/q^k stay >= 2^-80 up to k = 5,503
        start = time.perf_counter()
        with pytest.raises(KernelDomainError, match="needs over 1024 factors"):
            u_over_q_infinite_value(Fraction(101, 100), U_HALF)
        assert time.perf_counter() - start < 1

    def test_product_of_575_factors_is_still_built(self):
        q = Fraction(11, 10)
        value, factors = reference.u_over_q_infinite_value(
            q, U_HALF, sampler.INFINITE_PRODUCT_REL_TOL
        )
        assert factors == 575 <= sampler.INFINITE_PRODUCT_MAX_FACTORS
        assert u_over_q_infinite_value(q, U_HALF) == value


# every finite row a <= 12 at q in {2, 3}, and the initial row at each (q, u)
THRESHOLD_ROWS = [
    kernel_row(a, q, u)
    for q in (2, 3)
    for u in (U_HALF, Fraction(1, 3), Fraction(9, 10))
    for a in range(13)
] + [
    kernel_row_infinite(q, u)
    for q in (2, 3)
    for u in (U_HALF, Fraction(1, 3), Fraction(9, 10))
]


def scan_draw(row, k):
    """Reference inverse CDF: the first b with k/2^64 < c_b, by a Fraction scan."""
    r = Fraction(k, 2**64)
    total = Fraction(0)
    for b, p in enumerate(row.probabilities):
        total += p
        if r < total:
            return b
    raise AssertionError("cumulative sums end below 1")


class FixedBits:
    """Stands in for the sampler's generator: every 64-bit draw is k."""

    def __init__(self, k):
        self.k = k

    def getrandbits(self, bits):
        assert bits == 64
        return self.k


# built once: a sampler builds its whole row table up front
DRAWING_SAMPLER = PartitionSampler(SamplerConfig(q=2, u=U_HALF, seed=0, trials=1))


def threshold_draw(row, k):
    """The sampler's own draw from *row* when its generator yields k."""
    DRAWING_SAMPLER._rng = FixedBits(k)
    return DRAWING_SAMPLER._draw(row.thresholds())


class TestThresholdDraw:
    @given(st.sampled_from(THRESHOLD_ROWS), st.integers(0, 2**64 - 1))
    def test_random_draw_is_inverse_cdf(self, row, k):
        assert threshold_draw(row, k) == scan_draw(row, k)

    @pytest.mark.parametrize("index", range(len(THRESHOLD_ROWS)))
    def test_draws_at_every_threshold(self, index):
        row = THRESHOLD_ROWS[index]
        for t in row.thresholds():
            for k in (t - 1, t):
                if 0 <= k < 2**64:
                    assert threshold_draw(row, k) == scan_draw(row, k)


class TestExactLaw:
    @pytest.mark.parametrize(
        "q,u", [(2, U_HALF), (3, Fraction(1, 3)), (Fraction(5, 2), Fraction(9, 10))]
    )
    def test_chain_probability_is_cohen_lenstra_weight(self, q, u):
        # with uq_inf = 1, (u/q)_inf stays a symbolic factor on both sides:
        # P(lambda) / (u/q)_inf = u^|lambda| / |Aut(lambda)| exactly
        rows = {}
        for n in range(11):
            for lam in partitions_of(n):
                cols = lam.conjugate().parts + (0,)
                chain = cor1_part1(cols[0], q, u, 1)
                for a, b in zip(cols, cols[1:]):
                    if a not in rows:
                        rows[a] = kernel_row(a, q, u)
                    chain *= rows[a].probabilities[b]
                assert chain == u**n / aut_order(lam, q), lam


class TestCorollaryValues:
    def test_joint_at_origin(self):
        uq_inf = u_over_q_infinite_value(2, U_HALF)
        assert cor1_part2(0, 0, 2, U_HALF, uq_inf) == uq_inf

    @pytest.mark.parametrize("q,u", [(2, U_HALF), (3, Fraction(1, 3))])
    def test_joint_sums_to_marginal(self, q, u):
        uq_inf = u_over_q_infinite_value(q, u)
        for a in range(11):
            total = sum(cor1_part2(a, b, q, u, uq_inf) for b in range(a + 1))
            assert total == cor1_part1(a, q, u, uq_inf)

    def test_marginals_nearly_sum_to_one(self):
        uq_inf = u_over_q_infinite_value(2, U_HALF)
        total = sum(cor1_part1(a, 2, U_HALF, uq_inf) for a in range(15))
        assert abs(1 - total) < Fraction(1, 2**60)

    def test_corollary_laws_refuse_negative_a(self):
        uq_inf = u_over_q_infinite_value(2, U_HALF)
        with pytest.raises(ValueError, match="requires a >= 0"):
            cor1_part1(-1, 2, U_HALF, uq_inf)
        for b in (-1, 0):
            with pytest.raises(ValueError, match="requires 0 <= b <= a"):
                cor1_part2(-1, b, 2, U_HALF, uq_inf)


# rational q >= 3/2, so (u/q)_inf stops after at most ~140 factors
RATIONAL_Q = st.builds(Fraction, st.integers(2, 12), st.integers(1, 4)).filter(
    lambda q: q >= Fraction(3, 2)
)
# u = c/d with c > 1: at c = 1 a dropped power of c would go unseen
RATIONAL_U = st.builds(Fraction, st.integers(2, 11), st.integers(3, 12)).filter(
    lambda u: u < 1 and u.numerator > 1
)


class TestIntegerForms:
    @settings(deadline=None)
    @given(RATIONAL_Q, RATIONAL_U, st.integers(0, 12))
    @example(Fraction(5, 2), Fraction(9, 10), 12)
    @example(Fraction(5, 2), Fraction(2, 3), 7)
    def test_laws_are_the_fraction_formulas(self, q, u, a):
        value, factors = reference.u_over_q_infinite_value(
            q, u, sampler.INFINITE_PRODUCT_REL_TOL
        )
        uq_inf = u_over_q_infinite_value(q, u)
        assert uq_inf == value
        # neighbouring partial products differ, so equality pins the last factor
        assert value * (1 - u / q ** (factors + 1)) != value != value / (1 - u / q**factors)
        assert kernel_row(a, q, u).probabilities == (
            reference.kernel_row_probabilities(a, q, u)
        )
        assert cor1_part1(a, q, u, uq_inf) == reference.cor1_part1(a, q, u, uq_inf)
        assert [cor1_part2(a, b, q, u, uq_inf) for b in range(a + 1)] == [
            reference.cor1_part2(a, b, q, u, uq_inf) for b in range(a + 1)
        ]


class TestSampling:
    def test_determinism(self):
        cfg = SamplerConfig(q=2, u=U_HALF, seed=42, trials=1)
        first = PartitionSampler(cfg).sample_many(200)
        second = PartitionSampler(cfg).sample_many(200)
        assert first == second

    def test_different_seeds_differ(self):
        a = PartitionSampler(SamplerConfig(q=2, u=U_HALF, seed=1, trials=1))
        b = PartitionSampler(SamplerConfig(q=2, u=U_HALF, seed=2, trials=1))
        assert a.sample_many(100) != b.sample_many(100)

    def test_samples_are_partitions(self):
        sampler = PartitionSampler(SamplerConfig(q=2, u=U_HALF, seed=3, trials=1))
        for lam in sampler.sample_many(500):
            assert isinstance(lam, Partition)  # validity enforced on build

    def test_config_validation(self):
        with pytest.raises(KernelDomainError):
            SamplerConfig(q=1, u=U_HALF, seed=0, trials=1)
        with pytest.raises(KernelDomainError):
            SamplerConfig(q=2, u=Fraction(2), seed=0, trials=1)
        with pytest.raises(ValueError):
            SamplerConfig(q=2, u=U_HALF, seed=0, trials=0)


class TestBucketCounts:
    @pytest.mark.parametrize(
        "q,u,seed",
        [(2, U_HALF, 1), (2, U_HALF, 7), (3, Fraction(1, 3), 2), (3, Fraction(9, 10), 5)],
    )
    def test_column_counts_are_partition_counts(self, q, u, seed):
        # the Monte Carlo check reads a and b off the columns, not a Partition
        cfg = SamplerConfig(q=q, u=u, seed=seed, trials=5000)
        assert sampler._bucket_counts(cfg) == partition_bucket_counts(cfg)


class CountingRandom(random.Random):
    """random.Random that counts the 64-bit words drawn from it."""

    def __init__(self, seed):
        super().__init__(seed)
        self.words = 0

    def getrandbits(self, k):
        assert k == 64
        self.words += 1
        return super().getrandbits(k)


class TestDrawAlignment:
    @pytest.mark.parametrize(
        "q,u,seed", [(3, Fraction(9, 10), 5), (2, Fraction(9, 10), 3), (2, U_HALF, 1)]
    )
    def test_bucket_loop_draws_the_column_stream(self, q, u, seed, monkeypatch):
        # the Monte Carlo loop draws every column until 0, as columns() does
        generators = []

        def counting(seed):
            generators.append(CountingRandom(seed))
            return generators[-1]

        monkeypatch.setattr(sampler, "random", SimpleNamespace(Random=counting))
        cfg = SamplerConfig(q=q, u=u, seed=seed, trials=5000)
        sampler._bucket_counts(cfg)
        chain = PartitionSampler(cfg)
        longest = max(len(chain.columns()) for _ in range(cfg.trials))
        loop_words, column_words = (g.words for g in generators)
        assert longest >= 3
        assert loop_words == column_words


class ScriptedBits:
    """Stands in for random.Random: draws the given words, then 0 forever."""

    def __init__(self, words):
        self._words = iter(words)
        self.words = 0

    def getrandbits(self, bits):
        assert bits == 64
        self.words += 1
        return next(self._words, 0)


class TestFirstThresholdShortcut:
    @pytest.mark.parametrize("q,u", [(2, U_HALF), (3, Fraction(9, 10))])
    def test_words_at_each_first_threshold(self, q, u, monkeypatch):
        # the loop settles a word below a row's T_0 as a 0-draw without
        # bisect; T_0 itself must still draw from the row
        rows = sampler._row_table(q, u)
        initial = rows[0]
        words = [initial[0] - 1, initial[0], 0, 2**64 - 1, 0]
        for a in range(1, len(rows)):
            assert bisect.bisect_right(initial, initial[a - 1]) == a
            for word in (rows[a][0] - 1, rows[a][0], 2**64 - 1):
                # draw column a, then the boundary word from row a, then 0
                words += [initial[a - 1], word, 0]
        generators = []

        def scripted(seed):
            generators.append(ScriptedBits(words))
            return generators[-1]

        monkeypatch.setattr(sampler, "random", SimpleNamespace(Random=scripted))
        cfg = SamplerConfig(q=q, u=u, seed=0, trials=len(words))
        assert sampler._bucket_counts(cfg) == partition_bucket_counts(cfg)
        loop, chain = generators
        assert loop.words == chain.words


@pytest.fixture(scope="module")
def big_run():
    cfg = SamplerConfig(q=2, u=U_HALF, seed=1, trials=100_000)
    sampler = PartitionSampler(cfg)
    return cfg, sampler.sample_many(cfg.trials)


class TestDistribution:
    def test_corollary_agreement(self):
        cfg = SamplerConfig(q=2, u=U_HALF, seed=1, trials=100_000)
        buckets = empirical_vs_corollary(cfg)
        assert buckets[0].label == "a=0"
        assert all(c.exact >= MIN_PROBABILITY for c in buckets)
        worst = max(buckets, key=lambda c: c.zscore)
        assert worst.zscore <= 4.0, f"bucket {worst.label}: z={worst.zscore}"

    def test_direct_measure_cross_check(self, big_run):
        # every partition of size <= 4: empirical frequency within 4 standard
        # errors of P_u(lambda) = (u/q)_inf * u^|lambda| / |Aut(lambda)|
        cfg, samples = big_run
        uq_inf = u_over_q_infinite_value(cfg.q, cfg.u)
        counts: dict[Partition, int] = {}
        for lam in samples:
            counts[lam] = counts.get(lam, 0) + 1
        for n in range(5):
            for lam in partitions_of(n):
                exact = float(
                    uq_inf * cfg.u**lam.size / aut_order(lam, cfg.q)
                )
                freq = counts.get(lam, 0) / cfg.trials
                stderr = (exact * (1 - exact) / cfg.trials) ** 0.5
                assert abs(freq - exact) <= 4 * stderr, (
                    f"{lam}: freq {freq}, exact {exact}"
                )


GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"


class TestSampleStream:
    @pytest.mark.parametrize("seed", [1, 9, 16])
    def test_stream_matches_recorded_digest(self, seed, capsys):
        args = ["sample", "--q", "2", "--u", "1/2", "--seed", str(seed), "--trials", "20000"]
        with open(GOLDENS) as fh:
            recorded = json.load(fh)["stream"][" ".join(args)]
        assert cli.main(["--json", *args]) == 0
        stream = json.loads(capsys.readouterr().out)
        compact = json.dumps(stream, separators=(",", ":"))
        assert hashlib.sha256(compact.encode()).hexdigest() == recorded
