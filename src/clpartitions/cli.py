"""Command-line interface for the verification suite.

Exit codes: 0 all checks pass, 1 any identity failure, 2 usage error,
3 enumeration budget refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import oracle, partitions, verify
from .sampler import PartitionSampler, SamplerConfig
from .verify import VerificationReport, VerifierConfig, fmt_rat

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or a plain integer string."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def non_negative_int(text: str) -> int:
    """Parse an integer >= 0; a negative bound would select no work."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _emit_reports(reports: list[VerificationReport], as_json: bool) -> int:
    if as_json:
        print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
    else:
        for r in reports:
            params = " ".join(f"{k}={v}" for k, v in sorted(r.parameters.items()))
            line = f"[{r.status.upper():4}] {r.check_name} ({r.kind}) {params}"
            if r.detail:
                line += f" -- {r.detail}"
            print(line)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _print_series(name: str, coeffs: list[Fraction], as_json: bool) -> None:
    shown = [fmt_rat(c) for c in coeffs]
    if as_json:
        print(json.dumps({"series": name, "coefficients": shown}, indent=2))
    else:
        for k, c in enumerate(shown):
            print(f"u^{k}: {c}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clpartitions",
        description=(
            "Exact verification of generating-function identities for "
            "mutually annihilating matrices over finite fields, and of the "
            "Cohen-Lenstra partition sampler."
        ),
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = VerifierConfig()
    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "suite",
        choices=[name for name in verify.SUITES if not name.startswith("_")] + ["all"],
    )
    p_verify.add_argument(
        "--order",
        type=non_negative_int,
        default=defaults.order,
        help="series truncation order",
    )
    p_verify.add_argument(
        "--n-max",
        type=non_negative_int,
        default=defaults.n_max,
        help="largest oracle dimension",
    )
    p_verify.add_argument("--budget", type=non_negative_int, default=defaults.budget)
    p_verify.add_argument("--u", type=parse_rational, default=defaults.u)
    p_verify.add_argument("--seed", type=int, default=defaults.seed)
    p_verify.add_argument("--trials", type=int, default=defaults.trials)
    p_verify.add_argument(
        "--include-n4",
        action="store_true",
        help="add the long n=4, p=2 oracle runs when --n-max is below 4",
    )
    p_verify.set_defaults(run=_cmd_verify)

    p_series = sub.add_parser("series", help="print exact series coefficients")
    p_series.add_argument("which", choices=list(_series_builders()))
    p_series.add_argument("--q", type=parse_rational, required=True)
    p_series.add_argument("--order", type=non_negative_int, default=8)
    p_series.set_defaults(run=_cmd_series)

    p_oracle = sub.add_parser("oracle", help="brute-force matrix counts")
    p_oracle.add_argument("which", choices=list(_oracle_counts()))
    p_oracle.add_argument("--n", type=non_negative_int, required=True)
    p_oracle.add_argument("--p", type=int, required=True)
    p_oracle.add_argument(
        "--budget", type=non_negative_int, default=oracle.DEFAULT_OUTER_BUDGET
    )
    p_oracle.set_defaults(run=_cmd_oracle)

    p_sample = sub.add_parser("sample", help="draw random partitions")
    p_sample.add_argument("--q", type=int, required=True)
    p_sample.add_argument("--u", type=parse_rational, required=True)
    p_sample.add_argument("--seed", type=int, default=1)
    p_sample.add_argument("--trials", type=int, default=10)
    p_sample.set_defaults(run=_cmd_sample)
    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    config = VerifierConfig(
        **{name: getattr(args, name) for name in VerifierConfig._fields}
    )
    reports = verify.run_all(config, args.suite)
    if not reports:
        raise ValueError(f"verify {args.suite} runs no checks with these flags")
    return _emit_reports(reports, args.json)


def _series_builders():
    """Name -> series builder for ``series``: its choices and its dispatch.

    The table is built per call so that each name maps to the function
    bound in its module when the command runs.
    """
    return {
        "eq1-rhs": verify.eq1_rhs_series,
        "eq2-rhs": verify.eq2_rhs_series,
        "eq1-middle": partitions.eq1_middle_series,
        "eq2-middle": partitions.eq2_middle_series,
    }


def _oracle_counts():
    """Name -> oracle count for ``oracle``, built per call like :func:`_series_builders`."""
    return {
        "count-pairs": oracle.count_pairs,
        "count-nilpotent-pairs": oracle.count_nilpotent_pairs,
        "by-type": oracle.count_nilpotent_by_type,
    }


def _cmd_series(args: argparse.Namespace) -> int:
    builder = _series_builders()[args.which]
    _print_series(args.which, builder(args.q, args.order), args.json)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    result = _oracle_counts()[args.which](args.n, args.p, args.budget)
    if isinstance(result, int):
        print(json.dumps({"count": result}) if args.json else f"{result}")
    else:
        rows = {str(lam): c for lam, c in sorted(result.items(), reverse=True)}
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            for lam, c in rows.items():
                print(f"{lam}: {c}")
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    cfg = SamplerConfig(q=args.q, u=args.u, seed=args.seed, trials=args.trials)
    drawn = PartitionSampler(cfg).sample_many(cfg.trials)
    if args.json:
        print(json.dumps([list(lam.parts) for lam in drawn]))
    else:
        for lam in drawn:
            print(str(lam))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.run(args)
    except oracle.BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
