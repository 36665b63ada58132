"""End-to-end tests for the command line interface."""

import contextlib
import io
import json
import subprocess
import sys
from unittest import mock

import pytest

from gentorsion import cli
from gentorsion.certificates import verify_certificate
from gentorsion.errors import MalformedCertificate
from gentorsion.oracle import SearchBudget

TREFOIL = "(O,o,0 | 1; (2,1),(3,1)); boundaries=1; phi: d1=+1"
TWO_BOUNDARY = "(O,o,0 | 0; (4,1),(4,1)); boundaries=2; phi: d1=-1,d2=-1"
THREE_BOUNDARY = "(O,o,0|0);boundaries=3;phi:d1=-1,d2=-1"


def run_cli(*argv, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "gentorsion", *argv],
        capture_output=True,
        text=True,
        input=stdin_text,
    )


def run_json(*argv, stdin_text=None, expect=0):
    proc = run_cli(*argv, stdin_text=stdin_text)
    assert proc.returncode == expect, proc.stderr
    return json.loads(proc.stdout)


def test_reversible_hyperbolic_example():
    data = run_json("reversible", "--group", "pslz", "--word", "a b a b^2")
    assert data["verdict"] == "yes"
    assert data["certificate"]["reverser"] == "a"
    assert data["certificate"]["kind"] == "pslz-reverser"


def test_gen_torsion_parabolic_example():
    data = run_json("gen-torsion", "--n", "3", "--group", "pslz", "--word", "a b a b")
    assert data["verdict"] == "yes"
    assert data["certificate"]["h1"] == "b^2"
    assert data["certificate"]["k"] == "b"


def test_seifert_families_example_with_comma_grammar():
    data = run_json(
        "seifert", "--spec", "(O,o,0|1,(2,1),(3,1));boundaries=1", "families"
    )
    assert data["verdict"] == "ok"
    assert len(data["families"]) == 1
    assert data["families"][0]["family"] == "two-half-twists"


def test_negative_verdict_exits_zero():
    proc = run_cli("reversible", "--group", "pslz", "--word", "a b")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "no"


def test_unknown_within_bound_exits_two():
    """gen-torsion always decides and exits 0; --bound is a usage error."""
    data = run_json("gen-torsion", "--group", "pslz", "--word", "a b a b^2 a b a b^2")
    assert data["verdict"] == "no"
    assert "budget" not in data
    proc = run_cli(
        "gen-torsion", "--group", "pslz", "--word", "a b a b a b^2 a b^2", "--bound", "1"
    )
    assert proc.returncode == 1
    assert "--bound" in proc.stderr


def test_default_bound_decides_the_same_word():
    data = run_json("gen-torsion", "--group", "pslz", "--word", "a b a b a b^2 a b^2")
    assert data["verdict"] == "yes"


def test_bad_word_exits_one_with_json_error():
    proc = run_cli("reversible", "--group", "pslz", "--word", "z z")
    assert proc.returncode == 1
    assert proc.stdout == ""
    error = json.loads(proc.stderr)
    assert error["error_kind"] == "UnknownGenerator"


#: exponents of at least 2^63: a power of a word of two or more syllables
#: cannot even be sized, so each call fails before it allocates anything
HOSTILE_EXPONENT = str(10**20)


@pytest.mark.parametrize("argv", [
    ("normalize", "--group", "b3", "--word", f"s1^{HOSTILE_EXPONENT}"),
    ("braid", "--word", f"x s2^-{HOSTILE_EXPONENT}"),
    ("reversible", "--group", "b3", "--word", f"s1^{HOSTILE_EXPONENT}"),
    ("normalize", "--group", f"seifert:{TREFOIL}", "--word", f"d1^{HOSTILE_EXPONENT}"),
], ids=["b3-normalize", "braid", "b3-reversible", "seifert-normalize"])
def test_a_power_too_long_to_write_out_is_an_error_not_a_traceback(argv):
    for fmt in ("json", "text"):
        proc = run_cli(*argv, "--format", fmt)
        assert proc.returncode == 1, (argv, fmt, proc.stderr)
        assert proc.stdout == "" and "Traceback" not in proc.stderr, (argv, fmt)
        if fmt == "json":
            assert json.loads(proc.stderr)["error_kind"] == "GroupError"
        else:
            assert proc.stderr.startswith("error: ")


def test_unknown_subcommand_exits_one():
    proc = run_cli("nope")
    assert proc.returncode == 1


@pytest.mark.parametrize("argv", [
    ("--format", "text", "normalize", "--word", "a b"),
    ("--format=text", "normalize", "--word", "a b"),
    ("--word", "a b"),
])
def test_a_flag_before_the_command_is_named_in_the_usage_error(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 1 and proc.stdout == ""
    flag = argv[0].partition("=")[0]
    assert proc.stderr.splitlines()[-1] == (
        f"gentorsion: error: {flag} belongs after the command, as in: gentorsion COMMAND {flag} ...")


@pytest.mark.parametrize("flag", ["-h", "--h", "--he", "--help"])
def test_help_and_its_abbreviations_before_the_command_still_print_help(flag):
    proc = run_cli(flag)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: gentorsion")


def test_byte_identical_reruns():
    argv = ("reversible", "--group", "b3", "--word", "s1 S2")
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_text_format_puts_verdict_first():
    proc = run_cli(
        "reversible", "--group", "pslz", "--word", "a b a b^2", "--format", "text"
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "verdict: yes"
    assert any(line.startswith("certificate: ") for line in lines)


def test_classify_reports_isometry_class():
    assert run_json("classify", "--word", "a b")["verdict"] == "parabolic"
    assert run_json("classify", "--word", "a")["verdict"] == "elliptic-order-2"
    data = run_json("classify", "--word", "a b a b^2")
    assert data["verdict"] == "hyperbolic"
    assert data["diagnostics"] == ["absolute trace 3"]


def test_classify_reports_the_size_of_a_trace_past_the_digit_limit():
    data = run_json("classify", "--word", " ".join(["a b a b^2"] * 12000))
    assert data["verdict"] == "hyperbolic"
    assert data["diagnostics"] == ["absolute trace of 16662 bits"]


def test_normalize_across_groups():
    assert run_json("normalize", "--word", "a a b^3 a")["normal_form"] == "a"
    braid = run_json("normalize", "--group", "b3", "--word", "s1 s2 s1 s2 s1 s2")
    assert braid["normal_form"] == {"m": 1, "q": "1", "spelled": "h"}
    seifert = run_json(
        "normalize", "--group", f"seifert:{TREFOIL}", "--word", "d1"
    )
    assert seifert["normal_form"]["m"] == -3
    assert seifert["normal_form"]["q"] == "c2^2 c1"


def test_braid_subcommand_reports_exponent_sum():
    data = run_json("braid", "--word", "x y H")
    assert data["normal_form"] == {"m": -1, "q": "a b", "spelled": "h^-1 x y"}
    assert data["diagnostics"] == ["exponent sum -1"]


def test_conjugate_pslz_and_b3():
    data = run_json("conjugate", "--group", "pslz", "--word", "a b", "--other", "b a")
    assert data["verdict"] == "yes"
    assert data["certificate"]["kind"] == "pslz-conjugacy"
    data = run_json("conjugate", "--group", "b3", "--word", "s1", "--other", "s2")
    assert data["verdict"] == "yes"
    negative = run_json("conjugate", "--group", "b3", "--word", "s1", "--other", "h")
    assert negative["verdict"] == "no"


def test_seifert_presentation_and_quotient_actions():
    pres = run_json("seifert", "--spec", TREFOIL, "presentation")
    assert "c1" in pres["generators"]
    assert ["c1^2", "h"] in pres["relations"]
    quot = run_json("seifert", "--spec", TREFOIL, "quotient")
    assert quot["scheme"] == [["c1", 2], ["c2", 3]]
    assert quot["eliminated"] == "d1"
    closed = run_json("seifert", "--spec", "(N,2 | 0); boundaries=0; phi: x1=-1,x2=-1",
                      "quotient")
    assert closed["verdict"] == "absent"


def test_seifert_gen_torsion_yes_and_absent():
    data = run_json("gen-torsion", "--group", f"seifert:{TREFOIL}", "--n", "2")
    assert data["verdict"] == "yes"
    assert data["certificate"]["x"] == -1
    absent = run_json("gen-torsion", "--group", f"seifert:{TREFOIL}", "--n", "5")
    assert absent["verdict"] == "absent"
    assert absent["diagnostics"] == ["no exceptional fiber order shares a factor with n = 5"]
    merged = run_json("gen-torsion", "--group", "seifert:(O,o,0|0;(4,1));boundaries=1",
                      "--n", "2")
    assert merged["verdict"] == "absent"
    assert merged["diagnostics"] == [
        "fiber c1 shares the factor 2 with n = 2 but no letter separates its two "
        "conjugates, so they merge into a fiber power"
    ]


def test_seifert_gen_torsion_of_the_fiber_under_a_flipping_letter():
    reverser = run_json("reversible", "--group", f"seifert:{THREE_BOUNDARY}", "--word", "h")
    assert reverser["certificate"]["reverser"] == "d1"
    data = run_json("gen-torsion", "--group", f"seifert:{THREE_BOUNDARY}", "--n", "2")
    assert data["verdict"] == "yes"
    cert = data["certificate"]
    assert (cert["element"], cert["conjugators"], cert["x"]) == ("h", ["d1"], 0)
    assert data["diagnostics"] == ["phi(d1) = -1 inverts h and n = 2 is even"]


def test_seifert_gen_torsion_refuses_closed_spherical_bases_under_python_dash_o():
    lens = "(O,o,0|0;(4,1),(4,3))"
    cert = {"kind": "seifert-gen-n", "data": lens, "n": 2,
            "element": "c1^2 c2 c1^2 c2^-1 h^-1", "conjugators": ["c2 c1^-2 c2^-1"],
            "x": -1, "m1": 1, "m2": 1}
    for argv in (("gen-torsion", "--group", "seifert:(O,o,0|3)", "--n", "3"),
                 ("gen-torsion", "--group", f"seifert:{lens}", "--n", "2"),
                 ("verify", "--certificate", json.dumps(cert))):
        proc = subprocess.run([sys.executable, "-O", "-m", "gentorsion", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 1, (argv, proc.stdout)
        assert json.loads(proc.stderr)["error_kind"] == "UnsupportedBase", argv


def test_seifert_gen_torsion_rejects_word():
    proc = run_cli(
        "gen-torsion", "--group", f"seifert:{TREFOIL}", "--n", "2", "--word", "c1"
    )
    assert proc.returncode == 1


def test_gen_torsion_other_degrees_rejected_for_pslz():
    proc = run_cli("gen-torsion", "--group", "pslz", "--word", "a b", "--n", "4")
    assert proc.returncode == 1


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize(
    "group, word", [("pslz", "a b"), ("b3", "s1 S2"), (f"seifert:{TREFOIL}", None)],
    ids=["pslz", "b3", "seifert"],
)
def test_gen_torsion_below_degree_two_is_one_error_in_every_group(group, word, n):
    argv = ("gen-torsion", "--group", group, "--n", str(n)) + (("--word", word) if word else ())
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_in_process(*argv)
    assert (code, out) == (1, "")
    assert json.loads(err.getvalue()) == {
        "error": f"generalised torsion needs n >= 2, got {n}",
        "error_kind": "InvalidInvariant",
    }


def test_every_emitted_certificate_passes_verify():
    commands = (
        ("reversible", "--group", "pslz", "--word", "a b a b^2"),
        ("reversible", "--group", "pslz", "--word", "a"),
        ("reversible", "--group", "b3", "--word", "s1 S2"),
        ("reversible", "--group", f"seifert:{TWO_BOUNDARY}", "--word", "h"),
        ("gen-torsion", "--group", "pslz", "--word", "a b a b"),
        ("gen-torsion", "--group", "b3", "--word", "y s1 y s1^-1 s1 y s1^-1 H"),
        # an image witness of exponents (2, 1), rotated into the form e1 e2^2 h^-1
        ("gen-torsion", "--group", "b3", "--word", "h^-8 x y x y x y x y^2 x y^2 x y x y^2 x y^2"),
        ("gen-torsion", "--group", f"seifert:{TREFOIL}", "--n", "3"),
        ("gen-torsion", "--group", f"seifert:{THREE_BOUNDARY}", "--n", "4"),
        ("conjugate", "--group", "pslz", "--word", "a b", "--other", "b a"),
        ("conjugate", "--group", "b3", "--word", "s1", "--other", "s2"),
    )
    for argv in commands:
        data = run_json(*argv)
        assert data["verdict"] == "yes", argv
        cert_text = json.dumps(data["certificate"])
        verdict = run_json("verify", stdin_text=cert_text)
        assert verdict["verdict"] == "valid", argv


def test_verify_tampered_certificate_is_invalid_but_decided():
    cert = {"kind": "pslz-reverser", "word": "a b a b^2", "reverser": "b"}
    data = run_json("verify", "--certificate", json.dumps(cert))
    assert data["verdict"] == "invalid"


@pytest.mark.parametrize("cert", [
    {"kind": "pslz-gen3", "word": "1", "h1": "1", "k": "1"},
    {"kind": "pslz-gen3", "word": "a a", "h1": "1", "k": "1"},
    {"kind": "b3-gen3", "element": "s1 S1", "h1": "s2", "k": "x"},
    {"kind": "pslz-reverser", "word": "1", "reverser": "a"},
    {"kind": "b3-reverser", "element": "s1 S1", "reverser": "x"},
    # c1^2 = h
    {"kind": "seifert-reverser", "data": "(O,o,0|1,(2,1),(3,1));boundaries=1",
     "element": "c1^2 h^-1", "reverser": "c2"},
])
def test_verify_refuses_gen3_and_reverser_certificates_of_the_identity(cert):
    # the deciders refuse a trivial element, so its relation certifies nothing
    assert verify_certificate(cert) is False
    proc = run_cli("verify", "--certificate", json.dumps(cert))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "invalid"


def test_verify_malformed_certificates_exit_one():
    errors = {}
    for payload in ('{"kind":"mystery"}', '{"word":"a"}', "not json", '{"kind":5}',
                    '{"kind":"pslz-reverser","word":"a b a b^2"}'):
        proc = run_cli("verify", "--certificate", payload)
        assert proc.returncode == 1, payload
        report = json.loads(proc.stderr)
        assert report["error_kind"] == "MalformedCertificate"
        errors[payload] = report["error"]
    assert errors['{"word":"a"}'] == "certificate is missing its 'kind' field"
    assert errors['{"kind":5}'] == "field 'kind' must be a string"


#: one emitted certificate of each kind, and two of its fields in the order they are read
PIN_CERTIFICATES = {
    "pslz-reverser": ({"kind": "pslz-reverser", "word": "a b a b^2", "reverser": "a"},
                      "word", "reverser"),
    "pslz-conjugacy": ({"kind": "pslz-conjugacy", "word": "a b", "other": "b a",
                        "conjugator": "a"}, "word", "conjugator"),
    "pslz-gen3": ({"kind": "pslz-gen3", "word": "a b a b", "h1": "b^2", "k": "b"},
                  "word", "k"),
    "b3-reverser": ({"kind": "b3-reverser", "element": "s1 S2", "reverser": "y^2 x y"},
                    "element", "reverser"),
    "b3-conjugacy": ({"kind": "b3-conjugacy", "element": "s1", "other": "s2",
                      "conjugator": "y"}, "element", "conjugator"),
    "b3-gen3": ({"kind": "b3-gen3", "element": "s1 S2", "h1": "h^-4 x y^2 x y x y x",
                 "k": "h^-3 x y^2 x y^2 x y x"}, "element", "k"),
    "seifert-reverser": ({"kind": "seifert-reverser", "data": "(O,o,0|1,(2,1),(3,1));boundaries=1",
                          "element": "c1 c2 c1^-1 c2^-1", "reverser": "c1"},
                         "element", "reverser"),
    # the listed conjugators are read before the element
    "seifert-gen-n": ({"kind": "seifert-gen-n", "data": "(O,o,0|1,(2,1),(3,1));boundaries=1",
                       "n": 2, "element": "c1 c2 c1 c2^-1 h^-1",
                       "conjugators": ["c2 c1^-1 c2^-1"], "x": -1, "m1": 1, "m2": 1},
                      "conjugators", "element"),
}

_DROP = object()


def _outcome(cert):
    try:
        return verify_certificate(cert)
    except MalformedCertificate as exc:
        return str(exc)


def _bad_field_cases():
    for kind, (cert, _, _) in PIN_CERTIFICATES.items():
        for field in cert:
            if field == "kind":
                continue
            for value in (_DROP, 7, ""):
                if field in ("n", "x", "m1", "m2"):
                    # 7 is a well-formed integer, so only the relation fails
                    expected = False if value == 7 else f"field {field!r} must be an integer"
                elif field == "conjugators":
                    expected = "field 'conjugators' must be a list"
                else:
                    expected = f"field {field!r} must be a nonempty string"
                yield pytest.param(kind, {field: value}, expected,
                                   id=f"{kind}-{field}-{'drop' if value is _DROP else repr(value)}")


def _two_bad_field_cases():
    for kind, (cert, first, last) in PIN_CERTIFICATES.items():
        yield pytest.param(kind, {first: 7, last: 7}, f"field {first!r} must be a "
                           + ("list" if first == "conjugators" else "nonempty string"),
                           id=f"{kind}-both-7")
    # an unparseable element is reported before a missing field read after it
    for kind, message in [("pslz-reverser", "pslz-reverser: unknown generator 'q'"),
                          ("pslz-gen3", "pslz-gen3: unknown generator 'q'"),
                          ("b3-conjugacy", "b3-conjugacy: bad braid letter 'q' (at position 0)"),
                          ("seifert-reverser", "seifert-reverser: unknown generator 'q'")]:
        cert, first, last = PIN_CERTIFICATES[kind]
        yield pytest.param(kind, {first: "q", last: _DROP}, message, id=f"{kind}-q-then-drop")


@pytest.mark.parametrize("kind, changes, expected",
                         [*_bad_field_cases(), *_two_bad_field_cases()])
def test_a_malformed_certificate_reports_the_first_bad_field_it_reads(kind, changes, expected):
    cert = dict(PIN_CERTIFICATES[kind][0])
    assert verify_certificate(cert) is True
    for field, value in changes.items():
        if value is _DROP:
            del cert[field]
        else:
            cert[field] = value
    assert _outcome(cert) == expected


def test_verify_reads_from_file(tmp_path):
    cert = {"kind": "pslz-gen3", "word": "a b a b", "h1": "b^2", "k": "b"}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    data = run_json("verify", "--file", str(path))
    assert data["verdict"] == "valid"


def test_verify_reports_an_unreadable_file_as_an_error(tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        for fmt in ("json", "text"):
            proc = run_cli("verify", "--file", str(path), "--format", fmt)
            assert proc.returncode == 1, (path, fmt)
            assert "Traceback" not in proc.stderr, (path, fmt)
            assert str(path) in proc.stderr, (path, fmt)
            if fmt == "json":
                assert json.loads(proc.stderr)["error_kind"] == "GroupError"
            else:
                assert proc.stderr.startswith("error: ")


def test_verify_of_an_empty_certificate_or_file_is_an_error_not_a_read_of_stdin():
    cert = json.dumps({"kind": "pslz-gen3", "word": "a b a b", "h1": "b^2", "k": "b"})
    for flag, kind in (("--certificate", "MalformedCertificate"), ("--file", "GroupError")):
        proc = run_cli("verify", flag, "", stdin_text=cert)
        assert proc.returncode == 1, flag
        assert proc.stdout == "", flag
        assert json.loads(proc.stderr)["error_kind"] == kind, flag


def test_sweep_subcommand_agreement():
    data = run_json("sweep", "--suite", "pslz-gen3", "--max-conjugator-syllables", "3")
    assert data["verdict"] == "agreement"
    assert data["checked"] == 13
    assert data["mismatches"] == []


def test_sweep_budget_defaults_are_the_search_budget_defaults():
    data = run_json("sweep", "--suite", "pslz-reversible")
    assert data["budget"] == SearchBudget().to_dict()
    data = run_json("sweep", "--suite", "pslz-reversible", "--max-candidates", "7")
    assert data["budget"] == SearchBudget(max_candidates=7).to_dict()


def test_sweep_rejects_unknown_suite():
    proc = run_cli("sweep", "--suite", "everything")
    assert proc.returncode == 1


_CLI_WITH_A_FAILING_VERIFIER = """
import sys
from unittest import mock
from gentorsion import cli
if __debug__:
    sys.exit("expected to run under python -O")
with mock.patch("gentorsion.certificates.verify_certificate", return_value=False):
    sys.exit(cli.main(sys.argv[1:]))
"""


def test_emitted_certificates_are_checked_under_python_dash_o():
    commands = (
        ("reversible", "--word", "a b a b^2"),
        ("reversible", "--group", "b3", "--word", "s1 S2"),
        ("reversible", "--group", f"seifert:{TWO_BOUNDARY}", "--word", "h"),
        ("gen-torsion", "--group", "pslz", "--word", "a b a b"),
        ("gen-torsion", "--group", f"seifert:{TREFOIL}", "--n", "3"),
        ("gen-torsion", "--group", f"seifert:{THREE_BOUNDARY}", "--n", "2"),
        ("gen-torsion", "--group", "b3", "--word", "y s1 y S1 s1 y S1 H"),
        ("conjugate", "--group", "pslz", "--word", "a b", "--other", "b a"),
        ("conjugate", "--group", "b3", "--word", "s1", "--other", "s2"),
    )
    kinds = set()
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _CLI_WITH_A_FAILING_VERIFIER, *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, (argv, proc.stderr)
        assert "yes" not in proc.stdout, argv
        error = json.loads(proc.stderr)
        assert error["error_kind"] == "InvalidCertificate", argv
        kinds.add(error["error"].split()[1])
    assert kinds == {
        "pslz-reverser", "b3-reverser", "seifert-reverser", "pslz-gen3", "b3-gen3",
        "seifert-gen-n", "pslz-conjugacy", "b3-conjugacy",
    }


def run_in_process(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_a_sweep_mismatch_exits_one_and_still_prints_its_payload():
    with mock.patch("gentorsion.oracle.reversible", return_value=None):
        code, stdout = run_in_process(
            "sweep", "--suite", "pslz-reversible", "--max-conjugator-syllables", "2"
        )
    data = json.loads(stdout)
    assert code == 1
    assert data["verdict"] == "mismatch"
    assert data["diagnostics"] == []
    assert len(data["mismatches"]) == 1


@pytest.mark.parametrize("argv, verdict", [
    (("reversible", "--word", "a b"), "no"),
    (("gen-torsion", "--group", "seifert:(O,o,0|0;(3,1));boundaries=1", "--n", "2"), "absent"),
    (("verify", "--certificate", '{"kind":"pslz-reverser","word":"a b a b^2","reverser":"b"}'),
     "invalid"),
])
def test_decided_negatives_exit_zero(argv, verdict):
    code, stdout = run_in_process(*argv)
    assert (code, json.loads(stdout)["verdict"]) == (0, verdict)


#: malformed data that the hand scanner the Seifert grammar replaced accepted
MALFORMED_SEIFERT = (
    "(O,o,0|1;(2,1),(3,1))boundaries=1",
    "(O,o,0|1;(2,1),(3,1));boundariesXYZ=1",
    "(O,o,0|1;(2,1),(3,1));boundaries=1;phiology: d1=+1",
    "(O,o,0|1;(2,1)(3,1));boundaries=1",
    "(O,o,0|1;(2,1),,,(3,1));boundaries=1",
)


@pytest.mark.parametrize("spec", MALFORMED_SEIFERT)
@pytest.mark.parametrize("command", ("families", "gen-torsion"))
def test_malformed_seifert_data_is_a_parse_error_on_the_command_line(spec, command):
    argv = (("seifert", "--spec", spec, "families") if command == "families"
            else ("gen-torsion", "--group", f"seifert:{spec}", "--n", "2"))
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert '"error_kind":"ParseError"' in proc.stderr


#: 20,000 handles and 20,000 boundary letters, d1 and d2 flipping the fibre
HUGE_SEIFERT = "(O,o,20000 | 0); boundaries=20000; phi: d1=-1,d2=-1"


def test_seifert_data_costs_time_linear_in_its_size():
    """Each call reads the generator names and their phi a bounded number of times."""
    commands = (
        ("seifert", "--spec", HUGE_SEIFERT, "families"),
        ("seifert", "--spec", HUGE_SEIFERT, "presentation"),
        ("seifert", "--spec", HUGE_SEIFERT, "quotient"),
        ("reversible", "--group", f"seifert:{HUGE_SEIFERT}", "--word", "h"),
    )
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "gentorsion", *argv], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, (argv[-1], proc.stderr)
    assert json.loads(proc.stdout)["certificate"]["reverser"] == "d1"


#: gen-n data whose fibre powers the parent's pairwise residue scan walked quadratically
HOSTILE_GEN_N = (
    ("(O,o,0|0;(30011,1));boundaries=2", 30011, "yes", None),
    # no fibre order shares a factor with n, so no fibre power is listed
    ("(O,o,0|0;" + ",".join(["(3,1)"] * 15000) + ");boundaries=1", 2, "absent",
     "no exceptional fiber order shares a factor with n = 2"),
    ("(O,o,0|0;(1000003,1));boundaries=1", 1000003, "absent",
     "fiber c1 shares the factor 1000003 with n = 1000003 but no letter separates its "
     "two conjugates, so they merge into a fiber power"),
)


@pytest.mark.parametrize("spec, n, verdict, reason", HOSTILE_GEN_N, ids=("big", "many", "lone"))
def test_gen_n_pair_costs_time_linear_in_the_fibre_powers(spec, n, verdict, reason):
    """The gen-n pair is read from one index of the powers c_i^p with mu_i | n p."""
    argv = ("gen-torsion", "--group", f"seifert:{spec}", "--n", str(n))
    proc = subprocess.run(
        [sys.executable, "-m", "gentorsion", *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["verdict"] == verdict
    if reason is None:
        assert len(data["certificate"]["conjugators"]) == n - 1
    else:
        assert data["diagnostics"] == [reason]


#: 32,000 fibres of distinct prime orders on a closed genus-0 base; the child builds
#: the data itself, as its 341 KB text is past the 128 KB limit on one argument
_GEN_N_ON_PRIME_FIBRES = """
import contextlib, io, json, sys
from gentorsion import cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, argv[0]
    return json.loads(out.getvalue())

sieve = bytearray([1]) * 400_000
sieve[:2] = bytes(2)
for k in range(2, 633):
    if sieve[k]:
        sieve[k * k :: k] = bytes(len(range(k * k, len(sieve), k)))
primes = [k for k, prime in enumerate(sieve) if prime][:32_000]
assert len(primes) == 32_000
spec = "(O,o,0 | 0; " + ",".join(f"({p},1)" for p in primes) + ")"
cert = run("gen-torsion", "--group", "seifert:" + spec, "--n", "4")["certificate"]
print(run("verify", "--certificate", json.dumps(cert))["verdict"])
"""


def test_closed_base_check_reads_at_most_three_cone_orders():
    """Four cone points or more give chi_orb <= 0 with no lcm over the fibre orders."""
    proc = subprocess.run(
        [sys.executable, "-c", _GEN_N_ON_PRIME_FIBRES], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "valid\n"
