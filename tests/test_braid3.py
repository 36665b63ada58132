import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentorsion.braid3 import (
    B3Gen3Verdict,
    B3Reversibility,
    BraidWord,
    CentralElement,
    conjugate_b3,
    exponent_sum,
    gen3_relation,
    gen3_torsion_b3,
    normal_form,
    parse_braid,
    section,
)
from gentorsion.braid3 import reversible_b3
from gentorsion.certificates import b3_gen3_certificate, verify_certificate
from gentorsion.errors import ParseError, TrivialElement
from gentorsion.modular import Verdict, gen3_torsion
from gentorsion.seifert import SeifertGroup, SeifertPair, parse_seifert, reversible_seifert
from gentorsion.words import (
    PSL2Z,
    Word,
    conjugate_to_inverse,
    enumerate_reduced,
    identity,
    is_conjugate,
    parse_word,
    reduce,
)


def w(text):
    return parse_word(PSL2Z, text)


def nf(text):
    return normal_form(parse_braid(text))


def test_parse_braid():
    assert parse_braid("s1 s2 s1").letters == (("s1", 1), ("s2", 1), ("s1", 1))
    assert parse_braid("s1^-1").letters == (("s1", -1),)
    assert parse_braid("S1^2").letters == (("s1", -2),)
    assert parse_braid("x Y h^3").letters == (("x", 1), ("y", -1), ("h", 3))
    assert parse_braid("1").letters == ()


def test_parse_braid_rejects_garbage():
    with pytest.raises(ParseError):
        parse_braid("q r")
    with pytest.raises(ParseError):
        parse_braid("s3")
    with pytest.raises(ParseError):
        parse_braid("s1^0")


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord((("s1", 0),))
    with pytest.raises(ValueError):
        BraidWord((("t", 1),))


def test_normal_form_frozen_examples():
    assert nf("s1 s2 s1 s2 s1 s2") == CentralElement(1, w("1"))
    assert nf("s1 s2 s1") == CentralElement(0, w("a"))
    assert nf("s1") == CentralElement(-1, w("b^2 a"))
    assert nf("s2") == CentralElement(-1, w("a b^2"))
    assert nf("S1") == CentralElement(-1, w("a b"))
    assert nf("S2") == CentralElement(-1, w("b a"))
    assert nf("s1 S2") == CentralElement(-2, w("b^2 a b a"))
    assert nf("h^2 H^2") == CentralElement(0, w("1"))


def test_central_relations():
    assert nf("x x") == nf("h") == CentralElement(1, w("1"))
    assert nf("y y y") == nf("h")
    assert nf("x^2 y^-3") == CentralElement(0, w("1"))


def test_braid_relation_holds():
    assert nf("s1 s2 s1") == nf("s2 s1 s2")
    # h is central
    for text in ["s1", "s2", "x y", "s1 S2 y"]:
        assert nf(f"h {text}") == nf(f"{text} h")


def test_x_and_y_spell_the_sigmas():
    assert nf("Y x") == nf("s1")
    assert nf("X y y") == nf("s2")


def test_normal_form_is_a_homomorphism():
    texts = ["s1", "S2", "x y", "h^-1 s1 s2", "y Y", "s2 s2 s1"]
    for t1, t2 in itertools.product(texts, repeat=2):
        u, v = parse_braid(t1), parse_braid(t2)
        assert normal_form(u * v) == normal_form(u) * normal_form(v)


def test_inverse_and_identity():
    for text in ["s1", "s2 S1", "x y^2 h", "s1 s2 s1 s2"]:
        n = normal_form(parse_braid(text))
        e = CentralElement(0, w("1"))
        assert n * n.inverse() == e
        assert n.inverse() * n == e
        assert normal_form(parse_braid(text).inverse()) == n.inverse()


def test_section_round_trip():
    for m in (-2, 0, 1, 3):
        for q in enumerate_reduced(PSL2Z, 4):
            assert normal_form(section(m, q)) == CentralElement(m, q)


def test_spell_round_trip():
    n = nf("s1 S2 s1 h")
    assert normal_form(n.spell()) == n


def test_exponent_sum_frozen():
    assert exponent_sum(parse_braid("s1 S2")) == 0
    assert exponent_sum(parse_braid("h")) == 6
    assert exponent_sum(parse_braid("s1 s2 s1")) == 3
    assert exponent_sum(parse_braid("x Y")) == 1


def test_exponent_sum_matches_normal_form():
    for text in ["s1 s2", "S1 x y", "h^-2 s2 s2", "y y x S1"]:
        braid = parse_braid(text)
        assert exponent_sum(braid) == normal_form(braid).exponent_sum


def test_exponent_sum_is_a_class_function():
    g = parse_braid("s1 s2 S1")
    for conj in ["s1", "x y", "h s2"]:
        k = parse_braid(conj)
        assert exponent_sum(k * g * k.inverse()) == exponent_sum(g)


def test_conjugate_sigma1_to_sigma2():
    k = conjugate_b3(parse_braid("s1"), parse_braid("s2"))
    assert k is not None
    assert k.letters == (("y", 1),)
    kn = normal_form(k)
    assert kn * nf("s1") * kn.inverse() == nf("s2")


def test_conjugate_b3_refusals():
    # equal exponent sums but non-conjugate images
    assert conjugate_b3(parse_braid("h"), parse_braid("s1^6")) is None
    # different exponent sums
    assert conjugate_b3(parse_braid("s1"), parse_braid("s1^3")) is None


def test_conjugate_b3_self_is_trivial():
    k = conjugate_b3(parse_braid("s1 s2"), parse_braid("s1 s2"))
    assert k is not None and k.letters == ()


def test_conjugate_b3_randomish_pairs_validate():
    texts = ["s1 S2", "x y X", "s2 s1 h^-1", "y s1"]
    conjs = ["s1", "y", "x S2"]
    for t, c in itertools.product(texts, conjs):
        g = parse_braid(t)
        kc = parse_braid(c)
        other = kc * g * kc.inverse()
        k = conjugate_b3(g, other)
        assert k is not None
        kn = normal_form(k)
        assert kn * normal_form(g) * kn.inverse() == normal_form(other)


def test_reversible_commutator_family():
    g = parse_braid("x s1 X S1")
    rev = reversible_b3(g)
    assert rev is not None
    rn = normal_form(rev.reverser)
    n = normal_form(g)
    assert rn * n * rn.inverse() == n.inverse()
    k0 = normal_form(rev.commutator_witness)
    x = nf("x")
    comm = x * k0 * x.inverse() * k0.inverse()
    c = normal_form(rev.witness_conjugator)
    assert c * comm * c.inverse() == n


def test_reversible_sigma_ratio():
    rev = reversible_b3(parse_braid("s1 S2"))
    assert rev is not None
    assert rev.reverser.letters == (("y", 2), ("x", 1), ("y", 1))
    rn = normal_form(rev.reverser)
    n = nf("s1 S2")
    assert rn * n * rn.inverse() == n.inverse()


def test_not_reversible_examples():
    assert reversible_b3(parse_braid("h")) is None
    assert reversible_b3(parse_braid("h^-2")) is None
    assert reversible_b3(parse_braid("s1")) is None
    assert reversible_b3(parse_braid("s1 s2")) is None
    with pytest.raises(TrivialElement):
        reversible_b3(parse_braid("y^3 H"))


def test_reversibility_is_closed_under_inverse_and_conjugation():
    for text in ["s1 S2", "x s1 X S1", "s1 s1 S2 S2"]:
        g = parse_braid(text)
        base = reversible_b3(g) is not None
        assert (reversible_b3(g.inverse()) is not None) == base
        for c in ["s1", "y h"]:
            k = parse_braid(c)
            conj = k * g * k.inverse()
            assert (reversible_b3(conj) is not None) == base


def test_gen3_spec_instance():
    g = parse_braid("y s1 y S1 s1 y S1 H")
    verdict = gen3_torsion_b3(g)
    assert verdict.tag == Verdict.YES
    n = normal_form(g)
    assert n == CentralElement(-2, w("a b^2 a b"))
    wit = verdict.form_witness
    assert wit.e1 == CentralElement(0, w("b"))
    assert wit.e2 == nf("s1 y S1")
    h_inv = CentralElement(-1, w("1"))
    assert wit.e1 * wit.e2 ** 2 * h_inv == n
    h1, k = verdict.certificate
    assert (h1, k) == (wit.e2 ** -2, wit.e2 ** 2)
    assert gen3_relation(n, h1, k).is_identity


#: a braid of exponent sum 0 whose image witness z b^2 z^-1 b has (e1, e2) = (2, 1);
#: such images first appear among alternating cores of 16 syllables
ROTATED_WITNESS = "h^-8 x y x y x y x y^2 x y^2 x y x y^2 x y^2"


def test_gen3_rotates_a_two_one_image_witness_into_form():
    n = nf(ROTATED_WITNESS)
    assert n.exponent_sum == 0
    image = gen3_torsion(n.q).witness
    assert (image.e1, image.e2, image.z) == (2, 1, w("a b a b a b^2 a"))
    verdict = gen3_torsion_b3(parse_braid(ROTATED_WITNESS))
    assert verdict.tag == Verdict.YES
    wit = verdict.form_witness
    assert wit.e1 == CentralElement(0, w("b")).conjugated_by(wit.conjugator)
    assert wit.e1 * wit.e2 ** 2 * CentralElement(-1, w("1")) == n
    h1, k = verdict.certificate
    assert gen3_relation(n, h1, k).is_identity
    assert verify_certificate(b3_gen3_certificate(ROTATED_WITNESS, h1, k))


# the outputs recorded for an image witness of each shape: (1, 2) is already
# e1 e2^2, and (2, 1) is rotated into that form
@pytest.mark.parametrize("text, h1, k, e1, e2, conjugator", [
    ("s1 S2", "h^-4 x y^2 x y x y x", "h^-3 x y^2 x y^2 x y x",
     "h^-1 x y x", "h^-3 x y^2 x y x y x", "x y^2 x"),
    (ROTATED_WITNESS,
     "h^-23 y x y x y^2 x y x y x y^2 x y^2 x y^2 x y x y x y^2 x y x y x y^2 x y^2 x y x y x "
     "y x y^2 x y^2 x y x y^2 x y^2",
     "h^-22 y x y x y^2 x y x y x y^2 x y^2 x y^2 x y x y x y^2 x y^2 x y x y^2 x y^2 x y x y x "
     "y x y^2 x y^2 x y x y^2 x y^2",
     "h^-14 y x y x y^2 x y x y x y^2 x y^2 x y x y x y x y^2 x y^2 x y x y^2 x y^2",
     "h^-22 y x y x y^2 x y x y x y^2 x y^2 x y^2 x y x y x y^2 x y x y x y^2 x y^2 x y x y x "
     "y x y^2 x y^2 x y x y^2 x y^2",
     "y x y x y^2 x y x y x y^2 x y^2 x y^2"),
])
def test_gen3_pins_the_outputs_of_both_image_witness_shapes(text, h1, k, e1, e2, conjugator):
    verdict = gen3_torsion_b3(parse_braid(text))
    assert b3_gen3_certificate(text, *verdict.certificate) == {
        "kind": "b3-gen3", "element": text, "h1": h1, "k": k}
    wit = verdict.form_witness
    assert [str(f.spell()) for f in (wit.e1, wit.e2, wit.conjugator)] == [e1, e2, conjugator]


def test_gen3_rejects_nonzero_exponent_sum():
    verdict = gen3_torsion_b3(parse_braid("h"))
    assert verdict.tag == Verdict.NO
    assert "exponent sum 6" in verdict.reason
    verdict = gen3_torsion_b3(parse_braid("s1 s2"))
    assert verdict.tag == Verdict.NO
    assert "exponent sum 2" in verdict.reason


def test_gen3_two_factor_family_diagnostic():
    # y * (x y x^-1) * h^-1 has exponent sum -2 and image b-sum 2 mod 3
    verdict = gen3_torsion_b3(parse_braid("y x y X H"))
    assert verdict.tag == Verdict.NO
    assert any("3x + 2 = 0" in d for d in verdict.diagnostics)


@pytest.mark.parametrize("text, family", [
    ("y x y X H", "only the e1 e2 h^x family fits, and 3x + 2 = 0 has no integer solution"),
    ("s1 s2", "only the e1^2 e2^2 h^x family fits, and 3x + 4 = 0 has no integer solution"),
    ("h", "the e1 e2^2 h^x family fits and its exponent sum forces x = -1"),
])
def test_gen3_family_diagnostic_follows_the_exponent_sum(text, family):
    """The image's b-exponent sum mod 3 is 2e mod 3 for a braid of exponent sum e."""
    e = normal_form(parse_braid(text)).exponent_sum
    (diagnostic,) = gen3_torsion_b3(parse_braid(text)).diagnostics
    assert diagnostic == f"image b-exponent sum is {2 * e % 3} mod 3: {family}"


def test_gen3_unknown_is_inherited_from_the_image():
    """The image's verdict is inherited: a lift of (a b a b^2)^2 is a no."""
    q = w("a b a b^2") ** 2
    g = section(-4, q)
    assert normal_form(g).exponent_sum == 0
    verdict = gen3_torsion_b3(g)
    assert verdict.tag == Verdict.NO
    assert verdict.reason.startswith("quotient image is not generalised 3-torsion")
    assert verdict.certificate is None


def test_gen3_trivial_and_bound_validation():
    with pytest.raises(TrivialElement):
        gen3_torsion_b3(parse_braid("x^2 H"))


def test_gen3_verdict_invariant_under_conjugation_and_inversion():
    g = parse_braid("y s1 y S1 s1 y S1 H")
    base = gen3_torsion_b3(g).tag
    assert base == Verdict.YES
    assert gen3_torsion_b3(g.inverse()).tag == base
    for c in ["s1", "x y^2"]:
        k = parse_braid(c)
        conj = k * g * k.inverse()
        verdict = gen3_torsion_b3(conj)
        assert verdict.tag == base
        h1, kk = verdict.certificate
        assert gen3_relation(normal_form(conj), h1, kk).is_identity


def test_gen3_certificates_validate_over_a_small_sweep():
    seen_yes = 0
    for m in (-2, -1, 0, 1):
        for q in enumerate_reduced(PSL2Z, 4):
            g = CentralElement(m, q)
            if g.is_identity:
                continue
            verdict = gen3_torsion_b3(g.spell())
            if verdict.tag == Verdict.YES:
                seen_yes += 1
                h1, k = verdict.certificate
                assert gen3_relation(normal_form(g.spell()), h1, k).is_identity
    assert seen_yes >= 1


# -- the mirror scan against the witness search it replaced -----------------


def reference_reversible_b3(n: CentralElement):
    """reversible_b3 as it was, with its commutator witness found by search.

    Every k0 of at most |q| + 2 syllables was tried in enumerate_reduced
    order until [x, k0] was conjugate to g; None when g is not reversible.
    """
    if n.exponent_sum != 0:
        return None
    rho = conjugate_to_inverse(n.q)
    if rho is None:
        return None
    x = CentralElement(0, w("a"))
    for q0 in enumerate_reduced(PSL2Z, len(n.q) + 2):
        k0 = CentralElement(0, q0)
        comm = x * k0 * x.inverse() * k0.inverse()
        c_q = None if comm.is_identity else is_conjugate(comm.q, n.q)
        if c_q is not None and comm.conjugated_by(CentralElement(0, c_q)) == n:
            return B3Reversibility(
                reverser=CentralElement(0, rho).spell(),
                commutator_witness=k0.spell(),
                witness_conjugator=CentralElement(0, c_q).spell(),
            )
    raise AssertionError(f"no commutator witness for {n} within the bound")


def test_reversible_b3_matches_the_witness_search():
    reversible = 0
    for q in enumerate_reduced(PSL2Z, 12):
        image_sum = CentralElement(0, q).exponent_sum
        for m in {-(image_sum // 6), 0, 1}:
            g = CentralElement(m, q)
            if g.is_identity:
                continue
            expected = reference_reversible_b3(g)
            assert reversible_b3(g) == expected, str(g)
            reversible += expected is not None
    assert reversible > 50


def test_reversible_b3_on_a_twenty_thousand_syllable_image():
    rng = random.Random(7)
    k0 = CentralElement(0, Word(PSL2Z, tuple(
        ("a", 1) if i % 2 else ("b", rng.choice((1, 2)))
        for i in range(9_999)
    )))
    x = nf("x")
    c = CentralElement(3, Word(PSL2Z, tuple(
        ("b", rng.choice((1, 2))) if i % 2 else ("a", 1) for i in range(301)
    )))
    g = (x * k0 * x.inverse() * k0.inverse()).conjugated_by(c)
    assert len(g.q) >= 20_000
    rev = reversible_b3(g)
    witness, conjugator = normal_form(rev.commutator_witness), normal_form(rev.witness_conjugator)
    assert len(witness.q) == 9_999
    assert (x * witness * x.inverse() * witness.inverse()).conjugated_by(conjugator) == g
    assert g.conjugated_by(normal_form(rev.reverser)) == g.inverse()


# -- B3 against the trefoil group it is ------------------------------------

TREFOIL = parse_seifert("(O,o,0 | 0; (2,1),(3,1)); boundaries=1")
TREFOIL_GROUP = SeifertGroup(TREFOIL)


def _to_trefoil(g):
    names = {"a": "c1", "b": "c2"}
    q = Word(TREFOIL_GROUP.scheme, tuple((names[gen], exp) for gen, exp in g.q.syllables))
    return SeifertPair(g.m, q)


def _to_b3(p):
    names = {"c1": "a", "c2": "b"}
    q = Word(PSL2Z, tuple((names[gen], exp) for gen, exp in p.q.syllables))
    return CentralElement(p.m, q)


def _image_words(max_size):
    raw = st.lists(st.tuples(st.sampled_from("ab"), st.integers(-2, 2)), max_size=max_size)
    return raw.map(lambda pairs: reduce(pairs, PSL2Z))


@st.composite
def b3_elements(draw):
    """(m, q) with m in [-3, 3] and q of at most 9 syllables, or a conjugated
    commutator [x, k0], reversible in B3, times h^s with s in {0, 1, -2}."""
    if draw(st.booleans()):
        return CentralElement(draw(st.integers(-3, 3)), draw(_image_words(9)))
    k0 = CentralElement(0, draw(_image_words(3)))
    c = CentralElement(0, draw(_image_words(2)))
    x = CentralElement(0, w("a"))
    g = (x * k0 * x.inverse() * k0.inverse()).conjugated_by(c)
    return CentralElement(g.m + draw(st.sampled_from((0, 0, 1, -2))), g.q)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(b3_elements())
def test_reversible_b3_agrees_with_the_trefoil_group(g):
    if g.is_identity:
        return
    p = _to_trefoil(g)
    in_b3, in_trefoil = reversible_b3(g), reversible_seifert(p, TREFOIL)
    assert (in_b3 is not None) == in_trefoil.reversible, str(g)
    if in_b3 is None:
        return
    r = _to_trefoil(normal_form(in_b3.reverser))
    assert TREFOIL_GROUP.conjugated(p, r) == TREFOIL_GROUP.inv(p)
    r = _to_b3(in_trefoil.reverser)
    assert g.conjugated_by(r) == g.inverse()
