"""The CLI's command line against an argparse parser written out by hand.

``cli.parse_args`` reads plain lines itself and hands every other line to
the argparse parser it builds from ``cli.COMMANDS``; the reference parser
in ``cli_parser_reference.py`` declares the same command line without that
table.  On generated command lines (every subcommand; abbreviated, ``=`` and
``-hh`` option forms; negative and 5,001-digit ints; unknown options,
missing values, missing required options, bad choices, extra and missing
positionals, ``--``) both give the same exit code, the same parsed values
and the same stderr, and print the same usage before any help.  The one
difference is a "--" read as a value, after "=" or after the separator
"--": argparse drops it, and ``parse_args`` refuses it.  Well-formed lines
take the plain path, and the handlers' usage errors print the reference
subcommand's usage.
"""

import io
import os
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from periodindex import SUITES, __version__, cli
from periodindex.bounds import decimal_string

from cli_parser_reference import build_parser

HUGE = decimal_string(2 ** 16610)  # 5001 digits, past Python's int-string limit
INTS = st.one_of(
    st.integers(-30, 30).map(str),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.sampled_from([HUGE, "-" + HUGE, "x", "", "1.5", "-1.5", "-.5", " 7", "+3", "1_000",
                     "0x10", "٣", "-٣", "-5\n", "-1e3", "- 4", "--5"]),
)
FORMATS = st.sampled_from([*cli.FORMATS, "xml", "", "js", "JSON"])
SUITE_NAMES = st.sampled_from([*SUITES, "all", "nope", "xp"])
# each subcommand's positionals and options, with the values an option reads
# (None for a flag), written out here as the reference parser declares them
COMMANDS = {
    "bound": (2, {"--compare": None, "--format": FORMATS}),
    "table": (0, {"--n-max": INTS, "--d-max": INTS, "--format": FORMATS}),
    "homology": (1, {"--prime": INTS, "--exponent": INTS, "--max-degree": INTS,
                     "--format": FORMATS}),
    "words": (2, {"--max-degree": INTS, "--ascii": None, "--format": FORMATS}),
    "verify": (0, {"--suite": SUITE_NAMES, "--seed": INTS}),
}
STRAYS = st.sampled_from(["--foo", "-x", "--bogus=1", "-5x", "--=1", "-", "--s",
                          "-h", "--help", "--he", "-hh", "-hx", "--help=1", "--version",
                          "--vers", "--compare=1", "-h="])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from([*COMMANDS, "bounds", "Bound"]))
    wanted, options = COMMANDS.get(command, COMMANDS["bound"])
    words = [[draw(INTS)] for _ in range(draw(st.integers(0, wanted + 1)))]
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=len(options) + 1)):
        # in full or abbreviated, uniquely or not (--s of verify), its value after "=" or not
        spelled, joined = flag[:draw(st.integers(3, len(flag)))], draw(st.booleans())
        if options[flag] is None:
            words.append([spelled])
        elif draw(st.integers(0, 9)) == 0:  # the value left out
            words.append([spelled])
        else:
            value = draw(options[flag])
            words.append([f"{spelled}={value}"] if joined else [spelled, value])
    words += [[draw(STRAYS)] for _ in range(draw(st.integers(0, 1)))]
    argv = [command, *(word for group in draw(st.permutations(words)) for word in group)]
    # one "--" at most, anywhere after the command: argparse dropped a second
    # one read as a value, which the table's parser refuses (tested below)
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), "--")
    if draw(st.integers(0, 9)) == 0:  # an option before the command
        argv.insert(0, draw(STRAYS))
    return argv


def outcome(parse, argv):
    """(exit code, parsed values, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    values = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            values = {k: v for k, v in vars(parse(argv)).items() if k != "func"}
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, values, out.getvalue(), err.getvalue()


@contextmanager
def as_main_parses():
    """With ints of any length read, as main reads them, and argparse's usage
    wrapped at 80 columns, as the table's parser wraps it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"):
            yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@settings(max_examples=400, deadline=None, database=None)
@given(argvs())
@example(["homology", "12", "--max", "4", "--form=csv"])
@example(["verify", "--s", "snf"])
@example(["homology", "--prime", "2", "5", "--exponent", "1", "--max-degree", "3"])
@example(["bound", "6", "--", "-4"])
@example(["--", "bound", "6", "4"])
@example(["bound", "--=1", "2"])
@example(["-hh"])
@example(["words", "2", "1", "--max-degree", "-1", "--ascii", "extra"])
def test_same_as_argparse(argv):
    with as_main_parses():
        new, old = outcome(cli.parse_args, argv), outcome(build_parser().parse_args, argv)
    assert new[0] == old[0] and new[1] == old[1] and new[3] == old[3], argv
    if old[2].startswith("usage:"):  # help: the same usage, then the table's own text
        assert new[2].split("\n\n")[0] == old[2].split("\n\n")[0], argv
    else:
        assert new[2] == old[2], argv


# well-formed values: ints without a leading "-" as int() reads them, and
# valid choices; each subcommand's positionals (True where required) and its
# options, each with its values (None for a flag) and whether it is required
PLAIN_INTS = st.one_of(st.integers(0, 10 ** 30).map(str),
                       st.sampled_from([HUGE, "+3", " 7", "1_000", "٣", "007", " -5", "5\n"]))
PLAIN_FORMATS = (st.sampled_from(cli.FORMATS), False)
PLAIN = {
    "bound": ((True, True), {"--compare": (None, False), "--format": PLAIN_FORMATS}),
    "table": ((), {"--n-max": (PLAIN_INTS, True), "--d-max": (PLAIN_INTS, True),
                   "--format": PLAIN_FORMATS}),
    "homology": ((False,), {"--prime": (PLAIN_INTS, False), "--exponent": (PLAIN_INTS, False),
                            "--max-degree": (PLAIN_INTS, True), "--format": PLAIN_FORMATS}),
    "words": ((True, True), {"--max-degree": (PLAIN_INTS, True), "--ascii": (None, False),
                             "--format": PLAIN_FORMATS}),
    "verify": ((), {"--suite": (st.sampled_from([*SUITES, "all"]), False),
                    "--seed": (PLAIN_INTS, False)}),
}


@st.composite
def plain_argvs(draw):
    command = draw(st.sampled_from(sorted(PLAIN)))
    positionals, options = PLAIN[command]
    given_positionals = sum(positionals) + draw(st.integers(0, positionals.count(False)))
    words = [[draw(PLAIN_INTS)] for _ in range(given_positionals)]
    # every required option once, then any options, repeated or not, in any order
    flags = [flag for flag, (_, required) in options.items() if required]
    for flag in flags + draw(st.lists(st.sampled_from(sorted(options)), max_size=4)):
        values = options[flag][0]
        if values is None:
            words.append([flag])
        else:
            value = draw(values)
            words.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    return [command, *(word for group in draw(st.permutations(words)) for word in group)]


@settings(max_examples=300, deadline=None, database=None)
@given(plain_argvs())
@example(["bound", "6", "4", "--format=csv"])
@example(["homology", "--prime", "2", "--exponent", "1", "--max-degree", "8"])
@example(["words", "2", "--ascii", "1", "--max-degree", "3", "--max-degree=4"])
def test_plain_lines_take_the_plain_path(argv):
    with as_main_parses():
        values = cli._plain(argv)
        code, expected, _, _ = outcome(build_parser().parse_args, argv)
    assert code == 0 and values is not None and values == expected, argv


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "-1_000"],  # int() reads it; argparse reads an unknown option
    ["verify", "--seed", "-5"],
    ["bound", "6", "4", "--form", "csv"],
    ["bound", "6", "4", "--compare=1"],
    ["homology", "--max-degree", "3", "12", "7"],
    ["table", "--n-max", "3"],
    ["words", "2", "1", "--max-degree", "3", "--format"],
    ["--format", "csv", "bound", "6", "4"],
])
def test_other_lines_go_to_argparse(argv):
    assert cli._plain(argv) is None
    with as_main_parses():
        new, old = outcome(cli.parse_args, argv), outcome(build_parser().parse_args, argv)
    assert new[0] == old[0] and new[1] == old[1] and new[3] == old[3], argv


def reference_usage(command: str) -> str:
    """The usage line(s) of the reference parser's subcommand, at 80 columns."""
    with mock.patch.dict(os.environ, COLUMNS="80"):
        sub = next(action for action in build_parser()._actions if action.dest == "command")
        return sub.choices[command].format_usage()


@pytest.mark.parametrize("argv, message", [
    (["bound", "0", "3"], "n and d must be positive integers"),
    (["table", "--n-max", "0", "--d-max", "2"], "--n-max and --d-max must be positive integers"),
    (["homology", "--max-degree", "3"], "give either an order n or both --prime and --exponent"),
    (["homology", "6", "--max-degree", "-1"], "--max-degree must be >= 0"),
    (["homology", "--prime", "2", "--max-degree", "3"], "--prime and --exponent go together"),
    (["homology", "--prime", "4", "--exponent", "1", "--max-degree", "3"], "4 is not prime"),
    (["homology", "--prime", "2", "--exponent", "0", "--max-degree", "3"],
     "--exponent must be >= 1"),
    (["homology", "1", "--max-degree", "3"], "n must be >= 2"),
    (["words", "4", "1", "--max-degree", "3"], "4 is not prime"),
    (["words", "2", "0", "--max-degree", "3"], "r must be >= 1"),
    (["words", "2", "1", "--max-degree", "-1"], "--max-degree must be >= 0"),
])
def test_handler_usage_errors(argv, message):
    with mock.patch.dict(os.environ, COLUMNS="80"):
        code, _, out, err = outcome(cli.main, argv)
    assert code == 2 and out == ""
    assert err == f"{reference_usage(argv[0])}periodindex {argv[0]}: error: {message}\n"


@pytest.mark.parametrize("argv", [["table", "--n-max=--", "--d-max", "2"],
                                  ["bound", "6", "4", "--format=--"],
                                  ["bound", "--", "5", "--"]])
def test_a_double_dash_value_is_refused(argv):
    # argparse dropped a "--" value and stored [], so `table` and `bound`
    # raised TypeError and `--format=--` printed the pretty table
    code, values, _, err = outcome(cli.parse_args, argv)
    assert code == 2 and values is None and "'--'" in err


def test_help_lists_every_command():
    with mock.patch.dict(os.environ, COLUMNS="80"):  # argparse wraps help to the terminal
        code, _, out, err = outcome(cli.parse_args, ["-h"])
    assert code == 0 and not err
    for command, (_, about, _) in cli.COMMANDS.items():
        assert f"  {command}" in out and about in out


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_help_lists_every_argument(command):
    with mock.patch.dict(os.environ, COLUMNS="80"):
        code, _, out, err = outcome(cli.parse_args, [command, "--help"])
    assert code == 0 and not err
    assert out.startswith(f"usage: periodindex {command} [-h]")
    for name, kind, default, required, about in cli.COMMANDS[command][2]:
        assert f"  {name}" in out and about in out
        if isinstance(kind, tuple):
            assert "{" + ",".join(kind) + "}" in out
        if default not in (None, False):
            assert f"(default: {default})" in out
        elif required and name.startswith("-"):
            assert f"{about} (required)" in out


def test_version():
    assert outcome(cli.parse_args, ["--version"]) == (0, None, f"periodindex {__version__}\n", "")
    assert __version__ == "0.1.0"
