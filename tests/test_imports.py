"""What importing gentorsion and running its commands loads.

Each probe runs in a fresh interpreter and reports ``sys.modules``, so the
checks count modules, not milliseconds.  A command loads the modules it
runs and nothing else: no subcommand of the benchmark's ``cli`` workload
loads ``dataclasses``, ``fractions`` or the oracles, and a PSL(2,Z)
command loads neither the braid nor the Seifert code.  A well-formed
command line, such as every line of that workload and every README
example, loads no argparse, gettext or locale; help and usage errors do.
The package itself loads its modules on first use (PEP 562), with the
same public names as when it imported them all.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "benchmark")]

import workloads  # noqa: E402

from gentorsion import cli, oracle  # noqa: E402

#: the public names by the module that defines them, as the package exported
#: them when it imported every module eagerly
PUBLIC = {
    "braid3": {
        "B3Gen3Verdict", "B3Gen3Witness", "B3Reversibility", "BraidWord", "CentralElement",
        "conjugate_b3", "exponent_sum", "gen3_relation", "gen3_torsion_b3", "normal_form",
        "parse_braid", "reversible_b3", "section",
    },
    "certificates": {"CERTIFICATE_KINDS", "verify_certificate"},
    "modular": {
        "Axis", "AxisResidual", "EllipticFixedPoint", "Gen3Verdict", "Gen3Witness",
        "IntMatrix2", "IsometryClass", "Reversibility", "Verdict", "axis", "classify",
        "elliptic_fixed_point", "gen3_product", "gen3_torsion", "parabolic_power",
        "reversible", "reverser_on_axis_check", "to_matrix",
    },
    "seifert": {
        "GenNCertificate", "PowersOfH", "Presentation", "QuotientMap",
        "ReversibleFamilyReport", "SeifertData", "SeifertGroup", "SeifertPair",
        "SeifertReversibility", "SurfaceException", "TwoHalfTwists",
        "classify_reversible_families", "gen_n_certificate", "parse_seifert",
        "presentation", "quotient_scheme", "reversible_seifert",
    },
    "words": {
        "CyclicWord", "GroupScheme", "PSL2Z", "Syllable", "Word", "conjugate_to_inverse",
        "conjugated", "cyclic_reduce", "enumerate_reduced", "identity", "invert",
        "is_conjugate", "parse_scheme", "parse_word", "primitive_root", "reduce",
    },
}
SUBMODULES = ("braid3", "certificates", "errors", "modular", "oracle", "seifert", "words")
DECIDERS = {"gentorsion.words", "gentorsion.modular", "gentorsion.braid3", "gentorsion.seifert"}
NEVER_ON_THE_CLI = {"dataclasses", "fractions", "gentorsion.oracle"}
#: what argparse loads, for help and usage errors only
ARGPARSE = {"argparse", "gettext", "locale"}
PSLZ_COMMANDS = ("classify", "conjugate", "reversible", "gen-torsion", "verify")

_LISTED = "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"

_RUN_MAIN = """
import contextlib, io, json, sys
from gentorsion import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "stdout": out.getvalue(), "modules": sorted(sys.modules)}))
"""


def _fresh(code: str, *argv: str, stdin_text: str = "") -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, input=stdin_text
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def at_start() -> set:
    """What a fresh interpreter has loaded before gentorsion runs."""
    return set(json.loads(_fresh(_LISTED)))


def _loaded_by(code: str, at_start: set) -> set:
    return set(json.loads(_fresh(code + _LISTED))) - at_start


def test_importing_the_package_loads_no_module_of_it(at_start):
    loaded = _loaded_by("import gentorsion\n", at_start)
    assert "gentorsion" in loaded
    assert not [m for m in loaded if m.startswith("gentorsion.")]


def test_importing_the_cli_loads_no_decider_no_oracle_and_no_dataclasses(at_start):
    loaded = _loaded_by("import gentorsion.cli\n", at_start)
    assert "gentorsion.cli" in loaded
    assert not loaded & (DECIDERS | {"gentorsion.oracle", "dataclasses"})


def _cli_workload_commands() -> list:
    return [list(item[2:]) for item in workloads.make_round("cli", 1)]


def test_every_cli_workload_command_loads_only_what_it_runs(at_start):
    commands = _cli_workload_commands()
    assert len(commands) == 13
    certificate = ""
    for argv in commands:
        # verify reads the certificate the last reversible call printed
        report = json.loads(_fresh(_RUN_MAIN, *argv, stdin_text=certificate))
        assert report["code"] == 0, argv
        result = json.loads(report["stdout"])
        if argv[0] == "reversible":
            certificate = json.dumps(result["certificate"])
        loaded = set(report["modules"]) - at_start
        unwanted = loaded & (NEVER_ON_THE_CLI | ARGPARSE)
        assert not unwanted, (argv, unwanted)
        group = argv[argv.index("--group") + 1] if "--group" in argv else "pslz"
        if argv[0] in PSLZ_COMMANDS and group == "pslz":
            assert not loaded & {"gentorsion.braid3", "gentorsion.seifert"}, argv


def test_pslz_commands_load_neither_the_braid_nor_the_seifert_code(at_start):
    commands = [
        ("classify", "--word", "a b a b^2"),
        ("conjugate", "--word", "a b", "--other", "b a"),
        ("reversible", "--word", "a b a b^2"),
        ("gen-torsion", "--word", "a b a b"),
        ("gen-torsion", "--word", "a b^2 a b a b a b"),
    ]
    kinds = set()
    for argv in commands:
        runs = [json.loads(_fresh(_RUN_MAIN, *argv))]
        certificate = json.loads(runs[0]["stdout"]).get("certificate")
        if certificate is not None:
            kinds.add(certificate["kind"])
            runs.append(json.loads(_fresh(_RUN_MAIN, "verify", stdin_text=json.dumps(certificate))))
        for run in runs:
            loaded = set(run["modules"]) - at_start
            assert run["code"] == 0, argv
            assert not loaded & {"gentorsion.braid3", "gentorsion.seifert"}, argv
            assert not loaded & NEVER_ON_THE_CLI, argv
        # a PSL(2,Z) certificate is checked by the words code alone
        assert all("gentorsion.modular" not in run["modules"] for run in runs[1:]), argv
    assert kinds == {"pslz-conjugacy", "pslz-reverser", "pslz-gen3"}


@pytest.mark.parametrize("n", ["4", "1"])
def test_a_refused_pslz_gen_torsion_loads_neither_the_braid_nor_the_seifert_code(at_start, n):
    report = json.loads(_fresh(_RUN_MAIN, "gen-torsion", "--group", "pslz", "--word", "a b",
                               "--n", n))
    loaded = set(report["modules"]) - at_start
    assert report["code"] == 1
    assert not loaded & {"gentorsion.braid3", "gentorsion.seifert"}


def test_the_readme_examples_load_no_argparse(at_start):
    from test_readme_examples import readme_commands

    def resolve(arg):
        if isinstance(arg, dict):  # the certificate another command prints
            report = json.loads(_fresh(_RUN_MAIN, *arg["certificate_of"]))
            return json.dumps(json.loads(report["stdout"])["certificate"])
        return arg

    for argv in readme_commands():
        report = json.loads(_fresh(_RUN_MAIN, *map(resolve, argv)))
        assert report["code"] == 0, argv
        loaded = set(report["modules"]) - at_start
        assert not loaded & ARGPARSE, (argv, loaded & ARGPARSE)


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("seifert", "--help"),
    ("normalize", "--wor", "a b"),
    ("normalize", "--word", "a b", "--format", "xml"),
])
def test_help_and_usage_errors_load_argparse(at_start, argv):
    report = json.loads(_fresh(_RUN_MAIN, *argv))
    assert ARGPARSE <= set(report["modules"]) - at_start, argv


_LAZY_API = """
import importlib, sys
import gentorsion
public = {public!r}
problems = []
names = set().union(*public.values())
star = {{}}
exec("from gentorsion import *", star)
if set(gentorsion.__all__) != names or len(gentorsion.__all__) != len(names):
    problems.append("__all__ differs")
listed = dir(gentorsion)
problems += [f"dir() misses {{n}}" for n in sorted(names) if n not in listed]
for module, members in public.items():
    home = importlib.import_module("gentorsion." + module)
    problems += [f"{{n}} is not {{module}}.{{n}}" for n in sorted(members)
                 if getattr(gentorsion, n) is not getattr(home, n)]
problems += [f"import * misses {{n}}" for n in sorted(names)
             if star.get(n) is not getattr(gentorsion, n, None)]
for module in {submodules!r}:
    if getattr(gentorsion, module) is not sys.modules["gentorsion." + module]:
        problems.append(f"gentorsion.{{module}} is not the submodule")
try:
    gentorsion.no_such_name
    problems.append("an unknown name resolved")
except AttributeError:
    pass
try:
    from gentorsion import no_such_name
    problems.append("an unknown name imported")
except ImportError:
    pass
print("\\n".join(problems))
"""


def test_the_lazy_package_resolves_every_public_name_once():
    code = _LAZY_API.format(public=PUBLIC, submodules=SUBMODULES)
    assert _fresh(code).strip() == ""


def test_the_submodules_resolve_as_the_benchmark_binds_them():
    code = (
        "import gentorsion\n"
        "mods = [gentorsion.certificates, gentorsion.modular, gentorsion.braid3,\n"
        "        gentorsion.seifert, gentorsion.words, gentorsion.oracle, gentorsion.errors]\n"
        "print(' '.join(m.__name__ for m in mods))\n"
    )
    expected = "certificates modular braid3 seifert words oracle errors"
    assert _fresh(code).split() == [f"gentorsion.{m}" for m in expected.split()]


def test_the_static_imports_of_the_package_match_its_lazy_table():
    """The TYPE_CHECKING imports, which type checkers read, list what loads lazily."""
    tree = ast.parse((ROOT / "src" / "gentorsion" / "__init__.py").read_text(encoding="utf-8"))
    static: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            static.setdefault(node.module, set()).update(a.name for a in node.names)
    assert static == PUBLIC


def test_the_parser_names_the_oracle_suites():
    assert cli._SUITES == oracle.SUITES


def _gentorsion(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, COLUMNS="80")
    return subprocess.run(
        [sys.executable, "-m", "gentorsion", *argv], capture_output=True, text=True, env=env
    )


def test_help_and_usage_errors_still_list_the_commands_and_suites():
    top = _gentorsion("--help")
    assert top.returncode == 0
    for command in ("normalize", "classify", "conjugate", "reversible", "gen-torsion",
                    "braid", "seifert", "verify", "sweep"):
        assert command in top.stdout
    sweep = _gentorsion("sweep", "--help")
    assert sweep.returncode == 0
    assert "--suite {" + ",".join(oracle.SUITES) + "}" in " ".join(sweep.stdout.split())
    bad = _gentorsion("sweep", "--suite", "nope")
    assert bad.returncode == 1 and bad.stdout == ""
    choices = ", ".join(repr(s) for s in oracle.SUITES)
    assert bad.stderr.endswith(
        f"gentorsion sweep: error: argument --suite: invalid choice: 'nope' "
        f"(choose from {choices})\n"
    )
