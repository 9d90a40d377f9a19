"""Fixtures shared by every test module."""

import pytest

from clpartitions import oracle, partitions, verify

# the middle's column table and the rhs's inverse of Euler's expansion, one build per (q, N)
SERIES_MEMOS = (partitions._columns, verify._inverse_euler)


@pytest.fixture(autouse=True)
def fresh_series_memos():
    """Empty the series memos before and after each test.

    A test that perturbs what a memoized build calls sees it rebuilt, and
    leaves no perturbed build behind; ``fresh_census`` does the same for
    the oracle's memos.
    """
    for memo in SERIES_MEMOS:
        memo.cache_clear()
    yield
    for memo in SERIES_MEMOS:
        memo.cache_clear()


@pytest.fixture
def fresh_census():
    """Empty the oracle's packings and memos before and after a test that perturbs them.

    The memos are taken before the test runs, so a test may patch their
    names in ``oracle``.
    """
    memos = (oracle._packing, oracle._census, oracle._nilpotent_annihilators)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
