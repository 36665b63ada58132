"""The deciders' own checks hold under python -O.

Each decider re-multiplies what it is about to return and raises
InvalidCertificate when the check fails.  These run in a python -O
subprocess, with one helper patched to return a wrong answer, and expect
that error rather than a wrong result.  A case with a fourth entry
``side_effect`` gives the helper a list of answers, one a call, so that only
a later call is wrong.
"""

import subprocess
import sys

import pytest

_UNDER_O = """
import sys
from unittest import mock
if __debug__:
    sys.exit("expected to run under python -O")
from gentorsion import braid3, modular, seifert, words
from gentorsion.errors import InvalidCertificate
from gentorsion.words import PSL2Z, parse_word

target, keyword, answer, call = sys.argv[1:]
with mock.patch(target, **{keyword: eval(answer)}):
    try:
        result = eval(call)
    except InvalidCertificate as exc:
        print("InvalidCertificate:", exc)
        sys.exit(0)
sys.exit(f"returned {result!r}")
"""

TREFOIL = "(O,o,0 | 1; (2,1),(3,1)); boundaries=1; phi: d1=+1"

CASES = {
    "words.is_conjugate": (
        "gentorsion.words.conjugated",
        "parse_word(PSL2Z, 'a')",
        "words.is_conjugate(parse_word(PSL2Z, 'a b'), parse_word(PSL2Z, 'b a'))",
    ),
    "modular.reversible": (
        "gentorsion.modular.is_conjugate",
        "parse_word(PSL2Z, 'b')",
        "modular.reversible(parse_word(PSL2Z, 'a b a b^2'))",
    ),
    "modular.gen3_torsion": (
        "gentorsion.modular.is_conjugate",
        "None",
        "modular.gen3_torsion(parse_word(PSL2Z, 'a b^2 a b a b a b'))",
    ),
    "modular.parabolic_power": (
        "gentorsion.modular.is_conjugate",
        "None",
        "modular.parabolic_power(parse_word(PSL2Z, 'a b a b a b'))",
    ),
    "modular.gen3_torsion.mirror_centres": (
        "gentorsion.modular.mirror_centres",
        "[1]",
        "modular.gen3_torsion(parse_word(PSL2Z, 'a b a b^2 a b a b^2'))",
    ),
    "braid3.reversible_b3.mirror_centres": (
        "gentorsion.braid3.mirror_centres",
        "[2]",
        "braid3.reversible_b3(braid3.parse_braid('x y x y x y^2 X Y^2 X Y X Y'))",
    ),
    # the first call, the reverser's lift, is answered right; the witness's wrong
    "braid3.reversible_b3.is_conjugate": (
        "gentorsion.seifert.is_conjugate",
        "[words.conjugate_to_inverse(braid3.normal_form(braid3.parse_braid('s1 S2')).q),"
        " parse_word(PSL2Z, 'b')]",
        "braid3.reversible_b3(braid3.parse_braid('s1 S2'))",
        "side_effect",
    ),
    "braid3.reversible_b3": (
        "gentorsion.seifert.is_conjugate",
        "parse_word(PSL2Z, 'b')",
        "braid3.reversible_b3(braid3.parse_braid('s1 S2'))",
    ),
    "braid3.conjugate_b3": (
        "gentorsion.seifert.is_conjugate",
        "parse_word(PSL2Z, 'a b')",
        "braid3.conjugate_b3(braid3.parse_braid('s1'), braid3.parse_braid('s2'))",
    ),
    "seifert.reversible_seifert": (
        "gentorsion.seifert.is_conjugate",
        "parse_word(seifert.SeifertGroup(seifert.parse_seifert(TREFOIL)).scheme, 'c2')",
        "seifert.reversible_seifert('c1 c2 c1^-1 c2^-1', seifert.parse_seifert(TREFOIL))",
    ),
    # g K read as 1 fails the power form (g K)^n = K^n
    "seifert.gen_n_certificate": (
        "gentorsion.seifert.SeifertGroup.mul",
        "seifert.SeifertGroup(seifert.parse_seifert(TREFOIL)).one",
        "seifert.gen_n_certificate(seifert.parse_seifert(TREFOIL), 4)",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_wrong_helper_answer_raises_under_python_dash_o(name):
    target, answer, call, *keyword = CASES[name]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", f"TREFOIL = {TREFOIL!r}\n" + _UNDER_O,
         target, keyword[0] if keyword else "return_value", answer, call],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, (name, proc.stdout, proc.stderr)
    assert proc.stdout.startswith("InvalidCertificate:"), name
