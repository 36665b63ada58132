"""The commands of README's ``### Examples`` block, pinned to golden output.

Each command runs in JSON and in ``--format text``, under ``python`` and
``python -O``; its stdout and exit code must equal the golden file's.  The
sweeps run at ``--max-conjugator-syllables 2``, and the ``verify`` pipe runs
as ``verify --certificate <the first command's certificate>``.

After a deliberate change of output, rewrite the goldens with

    PYTHONPATH=src python tests/test_readme_examples.py
"""

import json
import pathlib
import shlex
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).with_name("golden") / "readme_examples.json"

SWEEP_SYLLABLES = "2"

#: runs each command in-process and prints [{"stdout", "exit"}, ...] as JSON;
#: a dict argument {"certificate_of": argv} stands for that command's certificate
_CHILD = """
import contextlib, io, json, sys
from gentorsion import cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return out.getvalue(), code

def resolve(arg):
    if isinstance(arg, dict):
        return json.dumps(json.loads(run(arg["certificate_of"])[0])["certificate"])
    return arg

results = []
for argv in json.load(sys.stdin):
    stdout, code = run([resolve(arg) for arg in argv])
    results.append({"stdout": stdout, "exit": code})
json.dump(results, sys.stdout)
"""


def _pipeline(tokens: list) -> list:
    stages, stage = [], []
    for token in tokens:
        if token == "|":
            stages.append(stage)
            stage = []
        else:
            stage.append(token)
    return stages + [stage]


def readme_commands() -> list:
    """The argv of every ``gentorsion`` command in README's examples, as run here."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("### Examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        stages = _pipeline(shlex.split(line))
        assert all(stage[0] in ("gentorsion", "python3") for stage in stages), line
        argv = stages[0][1:]
        if len(stages) > 1:
            assert stages[-1][1:] == ["verify"], line
            argv = ["verify", "--certificate", {"certificate_of": argv}]
        if argv[0] == "sweep":
            flag = "--max-conjugator-syllables"
            if flag in argv:
                argv[argv.index(flag) + 1] = SWEEP_SYLLABLES
            else:
                argv += [flag, SWEEP_SYLLABLES]
        commands.append(argv)
    return commands


def cases() -> list:
    return [argv + extra for argv in readme_commands() for extra in ([], ["--format", "text"])]


def run_cases(*flags: str) -> list:
    """The argv, stdout and exit code of every case, the argv first so goldens name it."""
    argvs = cases()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _CHILD],
        input=json.dumps(argvs), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return [{"argv": argv, **result} for argv, result in zip(argvs, json.loads(proc.stdout))]


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
def test_readme_examples_match_their_goldens(flags):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_cases(*flags) == golden


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(run_cases(), indent=1) + "\n", encoding="utf-8")
