"""The strict command-line reader agrees with argparse wherever it reads.

``cli._read`` reads a plain, complete command line from the command table
and leaves every other line to the argparse parser built from the same
table.  Whenever it reads a line, argparse must read that line too, to a
namespace with the same attributes.  Hypothesis runs derandomized, so every
run draws the same lines and leaves no example database behind.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentorsion import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "benchmark")]

import workloads  # noqa: E402
from test_readme_examples import readme_commands  # noqa: E402

#: values that argparse and the reader might treat differently
ODD_VALUES = ("", " ", "=", "a=b", "3", " 3", "+3", "3_0", "0x3", "-1", "-", "--",
              "--word", "-h", "json", "text", "families", "pslz-gen3", "a b^-1", "٣")


def _argparse(argv: list):
    """vars() of argparse's namespace for argv, or the exit status it stops with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


def _agrees(argv: list) -> bool:
    """True if the reader reads argv; then argparse reads it to the same namespace."""
    namespace = cli._read(argv)
    if namespace is None:
        return False
    assert vars(namespace) == _argparse(argv), argv
    return True


@st.composite
def well_formed(draw) -> list:
    """A command line the reader must read: each argument once, in either spelling."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, _, arguments = cli._COMMANDS[command]
    words = st.text(st.sampled_from("ab s1 ^2-="), max_size=8).filter(
        lambda text: not text.startswith("-"))
    pieces = []
    for name, spec in arguments:
        if not (spec.get("required", not name.startswith("-")) or draw(st.booleans())):
            continue
        if "choices" in spec:
            value = draw(st.sampled_from(spec["choices"]))
        elif spec.get("type") is int:
            value = str(draw(st.integers(0, 10**6)))
        else:
            value = draw(words)
        if not name.startswith("-"):
            pieces.append([value])
        elif draw(st.booleans()):
            pieces.append([f"{name}={value}"])
        else:
            pieces.append([name, value])
    order = draw(st.permutations(pieces))
    return [command, *(token for piece in order for token in piece)]


@st.composite
def mutated(draw) -> list:
    """A well-formed line with tokens inserted, repeated, dropped or altered."""
    argv = draw(well_formed())
    flags = sorted({name for _, (_, _, args) in cli._COMMANDS.items()
                    for name, _ in args if name.startswith("-")})
    tokens = st.one_of(st.sampled_from(ODD_VALUES), st.sampled_from(flags),
                       st.sampled_from(flags).map(lambda f: f[:4]),
                       st.sampled_from(sorted(cli._COMMANDS)))
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.integers(0, len(argv)))
        change = draw(st.sampled_from(("insert", "repeat", "drop", "join")))
        if change == "insert":
            argv.insert(where, draw(tokens))
        elif where < len(argv) and change == "repeat":
            argv.insert(where, argv[where])
        elif where < len(argv) and change == "drop":
            del argv[where]
        elif where < len(argv):
            argv[where] += draw(st.sampled_from(("=", "=-1", " ", "x")))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(well_formed())
def test_the_reader_reads_every_well_formed_line_as_argparse_does(argv):
    assert _agrees(argv), argv


@settings(max_examples=600, deadline=None, derandomize=True)
@given(mutated())
def test_whatever_the_reader_reads_argparse_reads_the_same(argv):
    _agrees(argv)


@pytest.mark.parametrize("argv", [
    ["normalize", "--wor", "a"],
    ["normalize", "--word", "a", "--word", "b"],
    ["normalize", "--word", "-1"],
    ["normalize", "--word=-1"],
    ["gen-torsion", "--n", "x"],
    ["gen-torsion", "--n", "-2"],
    ["normalize", "--word", "a", "--format", "xml"],
    ["normalize"],
    ["normalize", "--word"],
    ["seifert", "--spec", "X"],
    ["seifert", "--spec", "X", "families", "quotient"],
    ["normalize", "--word", "a", "extra"],
    ["sweep", "--suite", "nope"],
    ["normalize", "--word", "a", "-h"],
    ["--help"],
    [],
])
def test_the_reader_leaves_help_abbreviations_repeats_and_errors_to_argparse(argv):
    assert cli._read(argv) is None


def test_the_reader_reads_the_readme_examples_and_the_cli_workload():
    certificate = json.dumps({"kind": "pslz-reverser", "word": "a b a b^2", "reverser": "a"})
    lines = [[certificate if isinstance(arg, dict) else arg for arg in argv]
             for argv in readme_commands()]
    lines += [list(item[2:]) for seed in range(1, 6) for item in workloads.make_round("cli", seed)]
    assert len(lines) == 17 + 5 * 13
    for argv in lines:
        assert _agrees(argv), argv


def test_sweep_budgets_are_absent_unless_given():
    namespace = vars(cli._read(["sweep", "--suite", "pslz-gen3", "--max-candidates=7"]))
    assert namespace["max_candidates"] == 7
    assert "max_central_exponent" not in namespace
    assert cli._SUPPRESS == argparse.SUPPRESS


def test_main_without_arguments_reads_sys_argv_through_the_reader():
    """The console script calls main() bare; a plain line never builds the parser."""
    argv = ["gentorsion", "reversible", "--group", "pslz", "--word", "a b a b^2"]
    out = io.StringIO()
    with mock.patch.object(sys, "argv", argv), \
            mock.patch.object(cli, "_read", wraps=cli._read) as reader, \
            mock.patch.object(cli, "build_parser", side_effect=AssertionError("parser built")), \
            contextlib.redirect_stdout(out):
        code = cli.main()
    assert code == 0
    reader.assert_called_once_with(argv[1:])
    assert json.loads(out.getvalue())["certificate"]["reverser"] == "a"
