"""Command-line interface for the verification suite.

The four commands are one table, ``COMMANDS``: each names its runner, its
positional argument with that argument's choices, and its flags with
their parse functions, defaults and help.  ``parse_args`` reads a command
line against the table.  The grammar is argparse's, without prefix
abbreviations:

    clpartitions [-h] [--json] COMMAND [ARG] [--flag VALUE | --flag=VALUE ...]

``--json`` comes only before the command; the positional and the flags
come in any order after it, and the last repeat of a flag wins.  A value
may begin with ``-`` only as a negative number (``--seed -1``) or in the
``--flag=VALUE`` form; after a lone ``--`` every token is positional.
``-h``/``--help`` prints the usage built from the table.

Exit codes: 0 all checks pass (or help printed), 1 any identity failure,
2 usage error, 3 enumeration budget refusal, 141 (128 + SIGPIPE) standard
output closed by its reader (``| head``), with no traceback.  A command
line the table refuses prints one ``usage error:`` line and the
command's usage line.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from . import oracle, partitions, verify
from .sampler import PartitionSampler, SamplerConfig
from .verify import VerificationReport, VerifierConfig, fmt_rat

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141  # 128 + SIGPIPE

DESCRIPTION = (
    "Exact verification of generating-function identities for mutually annihilating\n"
    "matrices over finite fields, and of the Cohen-Lenstra partition sampler."
)
HELP = ("-h", "--help")


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or a plain integer string."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def non_negative_int(text: str) -> int:
    """Parse an integer >= 0; a negative bound would select no work."""
    try:
        value = int(text)
    except ValueError as exc:
        raise ValueError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
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


def _cmd_verify(args: dict) -> int:
    config = VerifierConfig(**{name: args[name] for name in VerifierConfig._fields})
    reports = verify.run_all(config, args["suite"])
    if not reports:
        raise ValueError(f"verify {args['suite']} runs no checks with these flags")
    return _emit_reports(reports, args["json"])


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


def _cmd_series(args: dict) -> int:
    builder = _series_builders()[args["which"]]
    _print_series(args["which"], builder(args["q"], args["order"]), args["json"])
    return EXIT_OK


def _cmd_oracle(args: dict) -> int:
    result = _oracle_counts()[args["which"]](args["n"], args["p"], args["budget"])
    if isinstance(result, int):
        print(json.dumps({"count": result}) if args["json"] else f"{result}")
    else:
        rows = {str(lam): c for lam, c in sorted(result.items(), reverse=True)}
        if args["json"]:
            print(json.dumps(rows, indent=2))
        else:
            for lam, c in rows.items():
                print(f"{lam}: {c}")
    return EXIT_OK


def _cmd_sample(args: dict) -> int:
    cfg = SamplerConfig(args["q"], args["u"], args["seed"], args["trials"])
    drawn = PartitionSampler(cfg).sample_many(cfg.trials)
    if args["json"]:
        print(json.dumps([list(lam.parts) for lam in drawn]))
    else:
        for lam in drawn:
            print(str(lam))
    return EXIT_OK


class Flag(NamedTuple):
    """One ``--name`` flag; its value is stored under the name with ``_`` for ``-``.

    ``parse`` reads the value text (raising ValueError); None makes the
    flag a switch that takes no value and stores True.
    """

    parse: Callable[[str], object] | None
    default: object = None
    required: bool = False
    help: str = ""


class Command(NamedTuple):
    """One command: its runner, its positional argument and its flags."""

    run: Callable[[dict], int]
    help: str
    positional: str | None  # the name the positional is stored under
    choices: tuple[str, ...]
    flags: dict[str, Flag]


_VERIFY_DEFAULTS = VerifierConfig()

COMMANDS = {
    "verify": Command(
        _cmd_verify,
        "run verification suites",
        "suite",
        tuple(name for name in verify.SUITES if not name.startswith("_")) + ("all",),
        {
            "--order": Flag(
                non_negative_int, _VERIFY_DEFAULTS.order, help="series truncation order"
            ),
            "--n-max": Flag(
                non_negative_int,
                _VERIFY_DEFAULTS.n_max,
                help="largest oracle dimension",
            ),
            "--budget": Flag(non_negative_int, _VERIFY_DEFAULTS.budget),
            "--u": Flag(parse_rational, _VERIFY_DEFAULTS.u),
            "--seed": Flag(int, _VERIFY_DEFAULTS.seed),
            "--trials": Flag(int, _VERIFY_DEFAULTS.trials),
            "--include-n4": Flag(
                None,
                False,
                help="add the long n=4, p=2 oracle runs when --n-max is below 4",
            ),
        },
    ),
    "series": Command(
        _cmd_series,
        "print exact series coefficients",
        "which",
        tuple(_series_builders()),
        {
            "--q": Flag(parse_rational, required=True),
            "--order": Flag(non_negative_int, 8),
        },
    ),
    "oracle": Command(
        _cmd_oracle,
        "brute-force matrix counts",
        "which",
        tuple(_oracle_counts()),
        {
            "--n": Flag(non_negative_int, required=True),
            "--p": Flag(int, required=True),
            "--budget": Flag(non_negative_int, oracle.DEFAULT_OUTER_BUDGET),
        },
    ),
    "sample": Command(
        _cmd_sample,
        "draw random partitions",
        None,
        (),
        {
            "--q": Flag(int, required=True),
            "--u": Flag(parse_rational, required=True),
            "--seed": Flag(int, 1),
            "--trials": Flag(int, 10),
        },
    ),
}


class UsageError(ValueError):
    """A command line that COMMANDS refuses, in *command* (None: before any command)."""

    def __init__(self, message: str, command: str | None = None) -> None:
        super().__init__(message)
        self.command = command


def _is_flag(token: str, flags) -> bool:
    """Whether argparse would read *token* as a flag rather than as a value.

    A lone ``-``, a negative number and a token holding a space are values
    unless they name one of *flags*.
    """
    if not token.startswith("-") or token == "-":
        return False
    if token.partition("=")[0] in flags:
        return True
    return not (re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token)


def _dest(option: str) -> str:
    """The name a flag's value is stored under: ``--n-max`` -> ``n_max``."""
    return option[2:].replace("-", "_")


def _shown(option: str, flag: Flag) -> str:
    return option if flag.parse is None else f"{option} {_dest(option).upper()}"


def _usage(name: str | None = None) -> str:
    if name is None:
        return f"usage: clpartitions [-h] [--json] {{{','.join(COMMANDS)}}} ..."
    command = COMMANDS[name]
    words = [f"usage: clpartitions {name} [-h]"]
    if command.positional is not None:
        words.append(f"{{{','.join(command.choices)}}}")
    for option, flag in command.flags.items():
        shown = _shown(option, flag)
        words.append(shown if flag.required else f"[{shown}]")
    return " ".join(words)


def _help(name: str | None = None) -> str:
    """The text -h prints: the usage line, then one row per command or flag."""
    if name is None:
        head = [_usage(), "", DESCRIPTION]
        rows = [(command, spec.help) for command, spec in COMMANDS.items()]
        rows.append(("--json", "machine-readable output"))
    else:
        head = [_usage(name)]
        flags = COMMANDS[name].flags.items()
        rows = [(_shown(option, flag), flag.help) for option, flag in flags]
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows) + 2
    lines = [f"  {left:{width}}{text}".rstrip() for left, text in rows]
    return "\n".join([*head, "", *lines])


def parse_args(argv: list[str]) -> dict:
    """Read *argv* against COMMANDS.

    Returns ``json``, ``command``, the command's positional and each of its
    flags (at its default unless given) by name, or only ``help``, the text
    to print, when ``-h``/``--help`` comes first.  Raises UsageError.
    """
    tokens = iter(argv)
    as_json = False
    for token in tokens:
        if token in HELP:
            return {"help": _help()}
        if token == "--json":
            as_json = True
        elif token in COMMANDS:
            args = {"json": as_json, "command": token}
            return _parse_command(token, list(tokens), args)
        elif _is_flag(token, HELP):
            raise UsageError(f"unrecognized flag: {token}")
        else:
            choices = ", ".join(COMMANDS)
            message = f"invalid command: {token!r} (choose from {choices})"
            raise UsageError(message)
    raise UsageError(f"a command is required: one of {', '.join(COMMANDS)}")


def _parse_command(name: str, tokens: list[str], args: dict) -> dict:
    command = COMMANDS[name]
    known = command.flags.keys() | set(HELP)
    for option, flag in command.flags.items():
        args[_dest(option)] = flag.default
    given = set()
    positional_only = False
    tokens.reverse()
    while tokens:
        token = tokens.pop()
        if token == "--" and not positional_only:
            positional_only = True
        elif positional_only or not _is_flag(token, known):
            if command.positional is None or command.positional in args:
                raise UsageError(f"unrecognized argument: {token}", name)
            if token not in command.choices:
                choices = ", ".join(command.choices)
                raise UsageError(
                    f"invalid {command.positional}: {token!r} (choose from {choices})",
                    name,
                )
            args[command.positional] = token
        elif token in HELP:
            return {"help": _help(name)}
        else:
            option, eq, value = token.partition("=")
            flag = command.flags.get(option)
            if flag is None:
                raise UsageError(f"unrecognized flag: {option}", name)
            if flag.parse is None:
                if eq:
                    message = f"argument {option}: takes no value, got {value!r}"
                    raise UsageError(message, name)
                args[_dest(option)] = True
            else:
                if not eq:
                    if not tokens or _is_flag(tokens[-1], known):
                        raise UsageError(f"argument {option}: expected a value", name)
                    value = tokens.pop()
                try:
                    args[_dest(option)] = flag.parse(value)
                except ValueError as exc:
                    raise UsageError(f"argument {option}: {exc}", name) from None
            given.add(option)
    missing = [o for o, f in command.flags.items() if f.required and o not in given]
    if command.positional is not None and command.positional not in args:
        missing.insert(0, command.positional)
    if missing:
        raise UsageError(f"missing required arguments: {', '.join(missing)}", name)
    return args


def main(argv: list[str] | None = None) -> int:
    # a deep series' coefficients can pass Python's int-to-str digit limit
    # (3.11+), so the limit is lifted while the command runs and then restored
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = _main(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: what is left to write, and the flush at
        # exit, go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return code


def _main(argv: list[str]) -> int:
    try:
        args = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}\n{_usage(exc.command)}", file=sys.stderr)
        return EXIT_USAGE
    if "help" in args:
        print(args["help"])
        return EXIT_OK
    try:
        return COMMANDS[args["command"]].run(args)
    except oracle.BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
