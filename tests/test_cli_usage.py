"""Help and usage errors of the command line, pinned to golden output.

Each case runs as ``python -m gentorsion`` in a fresh process, under
``python`` and ``python -O``, with ``COLUMNS=80`` and an empty stdin; its
stdout, stderr and exit code must equal the golden file's.  The cases are
the lines the strict reader in ``gentorsion.cli`` leaves to argparse: help,
abbreviations, repeated flags, values that begin with a dash, and missing,
unknown or bad arguments.

After a deliberate change of output, rewrite the goldens with

    PYTHONPATH=src python tests/test_cli_usage.py
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).with_name("golden") / "cli_usage.json"

COMMANDS = ("normalize", "classify", "conjugate", "reversible", "gen-torsion",
            "braid", "seifert", "verify", "sweep")
SPEC = "(O,o,0|1,(2,1),(3,1));boundaries=1"

CASES = [
    ["--help"],
    *([command, "--help"] for command in COMMANDS),
    ["seifert", "-h"],
    [],
    ["nope"],
    ["--format", "text", "normalize", "--word", "a b"],
    ["normalize", "--wor", "a b a"],
    ["normalize", "--word=-1"],
    ["normalize", "--word", "-1"],
    ["normalize", "--word", "a", "--word", "b a b"],
    ["gen-torsion", "--n", "x", "--word", "a b a b"],
    ["gen-torsion", "--n", "-2", "--word", "a b a b"],
    ["gen-torsion", "--n=", "--word", "a b a b"],
    ["normalize", "--word", "a b", "--format", "xml"],
    ["normalize"],
    ["normalize", "--word"],
    ["conjugate", "--word", "a b"],
    ["normalize", "--word", "a b", "--bound", "1"],
    ["seifert", "--spec", "X"],
    ["seifert", "--spec", SPEC, "cuts"],
    ["seifert", "--spec", SPEC, "families", "quotient"],
    ["normalize", "--word", "a b", "extra"],
    ["sweep", "--suite", "nope"],
    ["sweep", "--suite", "pslz-gen3", "--max-candidates", "many"],
    ["normalize", "--word", "a b", "--", "extra"],
]


def run_cases(*flags: str) -> list:
    """The argv, stdout, stderr and exit code of every case, the argv first."""
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    results = []
    for argv in CASES:
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "gentorsion", *argv],
            stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env, timeout=60,
        )
        results.append({"argv": argv, "stdout": proc.stdout, "stderr": proc.stderr,
                        "exit": proc.returncode})
    return results


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
def test_help_and_usage_errors_match_their_goldens(flags):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_cases(*flags) == golden


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(run_cases(), indent=1) + "\n", encoding="utf-8")
