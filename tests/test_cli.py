"""The CLI's command table against the argparse parser it replaced.

The reference is ``reference.build_parser``: the table must read every
line that parser accepted (bar prefix abbreviations) to the same values,
and refuse the lines it refused.
"""

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from clpartitions import cli

REFERENCE = reference.build_parser()

# value texts each parse function accepts; a negative rational such as
# -1/2 is not a negative number to argparse, so it is given as --flag=-1/2
VALUES = {
    cli.non_negative_int: st.integers(0, 10**6).map(str),
    int: st.integers(-1000, 10**6).map(str),
    cli.parse_rational: st.one_of(
        st.integers(-50, 50).map(str),
        st.tuples(st.integers(-50, 50), st.integers(1, 50)).map("{0[0]}/{0[1]}".format),
    ),
}
# value texts each parse function refuses
BAD_VALUES = {
    cli.non_negative_int: ["x", "-1", "1.5", ""],
    int: ["x", "1.5", "1/2", ""],
    cli.parse_rational: ["x", "1/0", "1.5", "/", ""],
}
MUTATIONS = ("command", "flag", "choice", "missing", "no-value", "bad-value")


@st.composite
def command_lines(draw, mutation=None):
    """A command line the reference parser accepts, or one *mutation* of it.

    Every command; flags in random order, spaced or with ``=``, repeated,
    negative where the parse function takes them; the positional anywhere
    among them; up to two ``--json`` before the command.
    """
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    command = cli.COMMANDS[name]
    required = [option for option, flag in command.flags.items() if flag.required]
    repeats = draw(st.lists(st.sampled_from(list(command.flags)), max_size=6))
    options = required + repeats
    missing = None
    if mutation == "missing":
        needed = [command.positional, *required] if command.positional else required
        missing = draw(st.sampled_from(needed))
        options = [option for option in options if option != missing]
    words = []
    for option in draw(st.permutations(options)):
        flag = command.flags[option]
        if flag.parse is None:
            words.append([option])
            continue
        text = draw(VALUES[flag.parse])
        if draw(st.booleans()) or (text.startswith("-") and "/" in text):
            words.append([f"{option}={text}"])
        else:
            words.append([option, text])
    positional = None
    if command.positional is not None and missing != command.positional:
        positional = draw(st.sampled_from(command.choices))
    if mutation == "choice":
        positional = draw(st.sampled_from(["nosuch", "ALL", "eq3", ""]))
    if positional is not None:
        words.insert(draw(st.integers(0, len(words))), [positional])
    value_flags = [option for option, flag in command.flags.items() if flag.parse]
    if mutation == "flag":
        stray = draw(st.sampled_from(["--nosuch", "--zz=1", "-x", "--json"]))
        words.insert(draw(st.integers(0, len(words))), [stray])
    if mutation == "bad-value":
        option = draw(st.sampled_from(value_flags))
        text = draw(st.sampled_from(BAD_VALUES[command.flags[option].parse]))
        bad = [f"{option}={text}"] if draw(st.booleans()) else [option, text]
        words.insert(draw(st.integers(0, len(words))), bad)
    if mutation == "no-value":
        words.append([draw(st.sampled_from(value_flags))])
    if mutation == "command":
        name = draw(st.sampled_from(["nosuch", "Verify", "verify-all", ""]))
    head = ["--json"] * draw(st.integers(0, 2)) + [name]
    return head + [word for group in words for word in group]


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_table_reads_every_line_as_argparse_did(argv):
    want = vars(REFERENCE.parse_args(argv))
    run = want.pop("run")
    got = cli.parse_args(argv)
    assert got == want
    assert [type(got[k]) for k in want] == [type(v) for v in want.values()]
    assert cli.COMMANDS[got["command"]].run is run


def _refused(argv):
    """cli.main's exit code, stdout and stderr lines for a line it must refuse."""
    with pytest.raises(cli.UsageError):
        cli.parse_args(argv)  # refused before main could start any work
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue().splitlines()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MUTATIONS).flatmap(command_lines))
def test_table_refuses_what_argparse_refused(argv):
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        REFERENCE.parse_args(argv)
    assert exc.value.code == 2
    code, out, err = _refused(argv)
    assert code == cli.EXIT_USAGE and out == ""
    assert len(err) == 2
    assert err[0].startswith("usage error: ")
    assert err[1].startswith("usage: clpartitions")


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "eq1-rhs", "--q", "2", "--ord", "3"],
        ["--js", "verify", "all"],
        ["sample", "--q", "2", "--u=1/2", "--tr", "3"],
    ],
    ids=["order", "json", "trials"],
)
def test_prefix_abbreviations_are_refused(argv):
    assert vars(REFERENCE.parse_args(argv))  # argparse expanded the prefix
    code, out, err = _refused(argv)
    assert code == cli.EXIT_USAGE and out == ""
    assert err[0].startswith("usage error: unrecognized flag: --")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--", "lemmas"],
        ["verify", "--order", "2", "--", "lemmas"],
        ["--json", "sample", "--u=-1/2", "--q", "-3", "--seed", "-1"],
        ["oracle", "--p=-2", "by-type", "--n", "0", "--p", "5", "--n", "3"],
    ],
    ids=["double-dash", "double-dash-after-flag", "negative-values", "last-wins"],
)
def test_edge_lines_read_as_argparse_did(argv):
    want = vars(REFERENCE.parse_args(argv))
    del want["run"]
    assert cli.parse_args(argv) == want


@pytest.mark.parametrize(
    "argv,message",
    [
        (["series", "eq1-rhs", "--q", "-1/2"], "argument --q: expected a value"),
        (["oracle", "by-type", "--n", "-1", "--p", "2"], "argument --n: must be >= 0"),
        (["verify", "all", "--include-n4=1"], "argument --include-n4: takes no value"),
        (["--", "verify", "lemmas"], "unrecognized flag: --"),
        (["verify", "all", "lemmas"], "unrecognized argument: lemmas"),
        (["sample", "--u", "1/2"], "missing required arguments: --q"),
        ([], "a command is required"),
    ],
    ids=[
        "negative-rational-spaced", "negative-bound", "switch-value",
        "double-dash-before-command", "second-positional", "missing-flag", "empty",
    ],
)
def test_usage_errors(argv, message):
    code, out, err = _refused(argv)
    assert code == cli.EXIT_USAGE and out == ""
    assert err[0].startswith(f"usage error: {message}")


@pytest.mark.parametrize("p", ["0", "1", "4", "6"])
def test_oracle_refuses_p_that_is_not_prime(p):
    # the line parses; the oracle refuses p before it enumerates anything
    argv = ["oracle", "count-pairs", "--n", "2", "--p", p]
    assert cli.parse_args(argv)["p"] == int(p)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == cli.EXIT_USAGE and out.getvalue() == ""
    assert f"p must be a prime, got {p}" in err.getvalue()


@pytest.mark.parametrize(
    "which,count", [("count-pairs", "7105"), ("count-nilpotent-pairs", "385")]
)
def test_oracle_accepts_a_prime_beyond_five(which, count, capsys):
    assert cli.main(["oracle", which, "--n", "2", "--p", "7"]) == cli.EXIT_OK
    assert capsys.readouterr().out == f"{count}\n"


def test_oracle_refuses_tables_over_their_budget(capsys):
    # 1,000,003 is prime and within the outer budget at n = 1, but the
    # census's tables would hold about 2 * 10^12 entries
    argv = ["oracle", "count-pairs", "--n", "1", "--p", "1000003"]
    assert cli.main(argv) == cli.EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "oracle tables too large" in captured.err


@pytest.mark.parametrize("name", [None, *cli.COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_command_and_flag(name, flag, capsys):
    argv = [flag] if name is None else [name, flag]
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage: clpartitions")
    listed = cli.COMMANDS if name is None else cli.COMMANDS[name].flags
    assert all(f"\n  {word}" in out for word in listed)


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "argv",
    [
        # output small enough to wait in the 8 KiB buffer for the flush
        ["--json", "verify", "all"],
        # about 13 KiB, so print itself writes
        ["--json", "sample", "--q", "2", "--u", "1/2", "--trials", "3000"],
    ],
)
def test_closed_stdout_exits_141_without_traceback(argv):
    # the reader closes its end before the CLI writes anything
    script = "\n".join(
        [
            "import sys",
            f"sys.path.insert(0, {str(SRC)!r})",
            "from clpartitions import cli",
            "sys.exit(cli.main())",
        ]
    )
    run = subprocess.Popen(
        [sys.executable, "-I", "-c", script, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    run.stdout.close()
    err = run.stderr.read()
    run.stderr.close()
    assert run.wait() == cli.EXIT_PIPE == 141
    assert err == b""
