"""The benchmark's workloads: each is a round of clpartitions CLI calls.

A round is the unit that is timed; every call in it runs in its own
fresh process.  ``gate_calls`` are extra, untimed calls whose outputs are
only checked.  The benchmark seed picks the CLI seed from the table of
``SEED_TABLE`` seeds whose outputs are recorded in ``goldens.json``, so
every output of every run is checked against a recorded golden.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

SEED_TABLE = 16
SERIES_QS = ("2", "5/2", "10")
SERIES_ORDER = 26
SERIES_NAMES = ("eq1-middle", "eq1-rhs", "eq2-middle", "eq2-rhs")
SAMPLER_TRIALS = 1_000_000
STREAM_TRIALS = 20_000


def cli_seed(seed: int) -> int:
    """CLI --seed for a benchmark seed: 1..SEED_TABLE."""
    return 1 + seed % SEED_TABLE


@dataclass(frozen=True)
class Call:
    """One CLI call: ``clpartitions --json <args>``, checked by ``kind``."""

    args: tuple[str, ...]
    kind: str  # "reports" | "count" | "series" | "stream"

    @property
    def key(self) -> str:
        return " ".join(self.args)

    @property
    def argv(self) -> list[str]:
        return ["--json", *self.args]


def _verify_all(seed: int) -> list[Call]:
    return [Call(("verify", "all", "--seed", str(cli_seed(seed))), "reports")]


def _oracle(seed: int) -> list[Call]:
    return [Call(("oracle", "count-pairs", "--n", "4", "--p", "2"), "count")]


def series_calls() -> list[Call]:
    return [
        Call(("series", which, "--q", q, "--order", str(SERIES_ORDER)), "series")
        for which in SERIES_NAMES
        for q in SERIES_QS
    ]


def _series(seed: int) -> list[Call]:
    calls = series_calls()
    random.Random(seed).shuffle(calls)
    return calls


def _sampler(seed: int) -> list[Call]:
    args = ("verify", "sampler", "--trials", str(SAMPLER_TRIALS))
    return [Call(args + ("--seed", str(cli_seed(seed))), "reports")]


def _stream_call(cli_seed_value: int) -> Call:
    args = ("sample", "--q", "2", "--u", "1/2", "--seed", str(cli_seed_value))
    return Call(args + ("--trials", str(STREAM_TRIALS)), "stream")


def _stream_gate(seed: int) -> list[Call]:
    return [_stream_call(cli_seed(seed))]


@dataclass(frozen=True)
class Workload:
    name: str
    round: Callable[[int], list[Call]]  # seed -> the timed calls
    work_unit: str  # the record reports <work_unit>_per_s
    work_per_round: int
    gate_calls: Callable[[int], list[Call]] = lambda seed: []  # untimed, checked


WORKLOADS = {
    w.name: w
    for w in (
        # 44 = reports of `verify all` recorded in goldens.json
        Workload(
            "verify-default",
            _verify_all,
            "reports",
            44,
            _stream_gate,
        ),
        Workload("oracle-n4p2", _oracle, "matrices", 2**16),
        Workload(
            "series-deep",
            _series,
            "coefficients",
            len(SERIES_NAMES) * len(SERIES_QS) * (SERIES_ORDER + 1),
        ),
        Workload(
            "sampler-1e6",
            _sampler,
            "draws",
            SAMPLER_TRIALS,
            _stream_gate,
        ),
    )
}


def golden_calls() -> list[Call]:
    """Every call whose output goldens.json records."""
    calls = [*_oracle(0), *series_calls()]
    for s in range(SEED_TABLE):
        calls += [*_verify_all(s), *_sampler(s), _stream_call(cli_seed(s))]
    return calls
