"""Properties every decider and every word syntax must have.

The isometry class and the reversibility verdicts in PSL(2,Z), B3 and the
trefoil group are class functions: conjugating or inverting the input
leaves them alone.  Each of the three word syntaxes reads back what it
writes.  Hypothesis runs derandomized, so every run draws the same
examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gentorsion.braid3 import BraidWord, CentralElement, normal_form, parse_braid, reversible_b3
from gentorsion.modular import classify, reversible
from gentorsion.seifert import SeifertGroup, parse_seifert, reversible_seifert
from gentorsion.words import (
    PSL2Z,
    conjugated,
    format_word,
    invert,
    parse_scheme,
    parse_word,
    reduce,
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

TREFOIL = parse_seifert("(O,o,0 | 0; (2,1),(3,1)); boundaries=1")
TREFOIL_GROUP = SeifertGroup(TREFOIL)
#: two boundary letters with phi = -1, so the fibre flips across them
FLIPPING_GROUP = SeifertGroup(
    parse_seifert("(O,o,0 | 0; (4,1),(4,1)); boundaries=2; phi: d1=-1,d2=-1")
)
MIXED = parse_scheme("a:2, b:3, t:inf, u:5")


def _words(scheme, max_size, max_exponent=3):
    letters = st.tuples(st.sampled_from(scheme.names()), st.integers(-max_exponent, max_exponent))
    return st.lists(letters, max_size=max_size).map(lambda raw: reduce(raw, scheme))


@st.composite
def psl_elements(draw):
    """A word of up to 12 syllables, a conjugated parabolic, or a conjugated
    product of two involutions, which is reversible."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(_words(PSL2Z, 12))
    k = draw(_words(PSL2Z, 6))
    if kind == 1:
        return conjugated(parse_word(PSL2Z, "a b") ** draw(st.integers(-6, 6)), k)
    involution = conjugated(parse_word(PSL2Z, "a"), draw(_words(PSL2Z, 5)))
    return conjugated(involution * parse_word(PSL2Z, "b a b^2"), k)


@st.composite
def b3_elements(draw):
    """(m, q) with q of up to 9 syllables, or a conjugated commutator
    [a, k0], reversible in B3, times a fibre power."""
    if draw(st.booleans()):
        return CentralElement(draw(st.integers(-3, 3)), draw(_words(PSL2Z, 9)))
    k0 = CentralElement(0, draw(_words(PSL2Z, 3)))
    x = CentralElement(0, parse_word(PSL2Z, "a"))
    g = (x * k0 * x.inverse() * k0.inverse()).conjugated_by(
        CentralElement(0, draw(_words(PSL2Z, 2)))
    )
    return CentralElement(g.m + draw(st.sampled_from((0, 0, 1, -2))), g.q)


def _spelled(letters):
    return " ".join(f"{name}^{exp}" for name, exp in letters) or "1"


def _seifert_elements(group, names, max_size):
    letters = st.lists(
        st.tuples(st.sampled_from(names), st.integers(-9, 9).filter(bool)), max_size=max_size
    )
    return letters.map(lambda raw: group.element(_spelled(raw)))


@st.composite
def trefoil_elements(draw):
    """A word in c1, c2, h, or a conjugated commutator [c1, k0] times h^s."""
    words = _seifert_elements(TREFOIL_GROUP, ("c1", "c2", "h"), 8)
    if draw(st.booleans()):
        return draw(words)
    G = TREFOIL_GROUP
    k0, c = draw(words), draw(words)
    x = G.generator("c1")
    g = G.conjugated(G.mul(G.mul(G.mul(x, k0), G.inv(x)), G.inv(k0)), c)
    return G.mul(g, G.pow(G.generator("h"), draw(st.sampled_from((0, 0, 1, -2)))))


# -- invariance under conjugation and inversion -----------------------------


@PROPERTY
@given(psl_elements(), _words(PSL2Z, 8))
def test_pslz_class_and_reversibility_are_class_functions(g, k):
    if g.is_identity:
        return
    kind, rev = classify(g), reversible(g) is not None
    for other in (conjugated(g, k), invert(g), conjugated(invert(g), k)):
        assert classify(other) == kind, (str(g), str(k))
        assert (reversible(other) is not None) == rev, (str(g), str(k))


@PROPERTY
@given(b3_elements(), b3_elements())
def test_b3_reversibility_and_image_class_are_class_functions(g, k):
    if g.is_identity:
        return
    kind, rev = classify(g.q), reversible_b3(g) is not None
    for other in (g.conjugated_by(k), g.inverse(), g.inverse().conjugated_by(k)):
        assert classify(other.q) == kind, (str(g), str(k))
        assert (reversible_b3(other) is not None) == rev, (str(g), str(k))


@PROPERTY
@given(trefoil_elements(), trefoil_elements())
def test_trefoil_reversibility_is_a_class_function(p, k):
    if p.is_identity:
        return
    G = TREFOIL_GROUP
    rev = reversible_seifert(p, TREFOIL).reversible
    for other in (G.conjugated(p, k), G.inv(p), G.conjugated(G.inv(p), k)):
        assert reversible_seifert(other, TREFOIL).reversible == rev, (str(p), str(k))


# -- parse . format round trips ------------------------------------------------


@PROPERTY
@given(st.one_of(_words(PSL2Z, 12), _words(MIXED, 12, max_exponent=10**9)))
def test_format_word_reads_back(w):
    assert parse_word(w.scheme, format_word(w)) == w


braid_letters = st.one_of(
    st.tuples(st.sampled_from(("s1", "s2")), st.integers(-12, 12).filter(bool)),
    st.tuples(st.sampled_from(("x", "y", "h")), st.integers(-10**9, 10**9).filter(bool)),
)


@PROPERTY
@given(st.lists(braid_letters, max_size=8))
def test_braid_text_reads_back(letters):
    b = BraidWord(tuple(letters))
    assert parse_braid(str(b)) == b
    assert normal_form(parse_braid(str(b))) == normal_form(b)


@st.composite
def spelled_elements(draw):
    """An element of the trefoil group, or of a group whose d1, d2 flip the fibre."""
    group, names = draw(st.sampled_from((
        (TREFOIL_GROUP, ("c1", "c2", "d1", "h")),
        (FLIPPING_GROUP, ("c1", "c2", "d1", "d2", "h")),
    )))
    return group, draw(_seifert_elements(group, names, 6))


@PROPERTY
@given(spelled_elements())
def test_seifert_spelling_reads_back(drawn):
    group, p = drawn
    assert group.element(group.spell(p)) == p
