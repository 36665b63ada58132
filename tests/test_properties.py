"""Properties every decider and every word syntax must have.

The isometry class and the reversibility verdicts in PSL(2,Z), B3 and
Seifert groups are class functions: conjugating or inverting the input
leaves them alone.  The mirror scans of gen-3 torsion and B3
reversibility read the cyclic core in any rotation.  A brute-force hit of
the oracle in B3 or a Seifert group always comes with a structural yes.
Each of the three word syntaxes reads back what it writes.  Hypothesis
runs derandomized, so every run draws the same examples.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentorsion.braid3 import (
    BraidWord,
    CentralElement,
    conjugate_b3,
    normal_form,
    parse_braid,
    reversible_b3,
)
from gentorsion.modular import classify, gen3_torsion, reversible
from gentorsion.oracle import SearchBudget, _candidates, _first, brute_conjugate_b3
from gentorsion.seifert import SeifertGroup, SeifertPair, parse_seifert, reversible_seifert
from gentorsion.words import (
    PSL2Z,
    Word,
    _cyclic_core,
    conjugated,
    identity,
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
def seifert_elements(draw, G):
    """A word in the presentation letters, or a conjugated product of two half
    twists c_i^(mu_i/2) k c_j^(+-mu_j/2) k^-1 times h^s, often reversible; on
    the trefoil, with the minus sign, that product is the commutator [c1, k]."""
    d = G.data
    letters = d.handle_generators() + d.exceptional_generators() + d.boundary_generators()
    words = _seifert_elements(G, letters + ("h",), 8)
    halves = [(f"c{i}", mu // 2) for i, (mu, _) in enumerate(d.exceptional, 1) if mu % 2 == 0]
    if not draw(st.integers(0, 2)):
        return draw(words)
    (ci, p), (cj, q) = draw(st.sampled_from(halves)), draw(st.sampled_from(halves))
    k, c = draw(words), draw(words)
    second = G.pow(G.generator(cj), q * draw(st.sampled_from((-1, -1, 1))))
    g = G.conjugated(G.mul(G.pow(G.generator(ci), p), G.conjugated(second, k)), c)
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


#: the trefoil, and data with flipping boundary letters, a crosscap, a handle,
#: and three fibers over two boundary circles; each has an even fiber order
CLASS_FUNCTION_DATA = {
    "trefoil": TREFOIL,
    "flipping": FLIPPING_GROUP.data,
    "crosscap": parse_seifert("(N,1 | 0; (2,1),(2,1)); boundaries=1; phi: x1=-1"),
    "handle": parse_seifert("(O,o,1 | 1; (2,1),(4,1)); boundaries=1"),
    "three-fibers": parse_seifert("(O,o,0 | -1; (2,1),(3,1),(5,2)); boundaries=2"),
}


@pytest.mark.parametrize("d", CLASS_FUNCTION_DATA.values(), ids=CLASS_FUNCTION_DATA.keys())
def test_seifert_reversibility_is_a_class_function(d):
    """Also, a reverser the oracle's bounded scan finds comes with a structural yes."""
    G = SeifertGroup(d)
    budget = SearchBudget(2, 1, 10**6)
    rhos = list(_candidates(G.scheme, budget, 2))

    @PROPERTY
    @given(seifert_elements(G), seifert_elements(G))
    def check(p, k):
        if p.is_identity:
            return
        rev = reversible_seifert(p, d).reversible
        for other in (G.conjugated(p, k), G.inv(p), G.conjugated(G.inv(p), k)):
            assert reversible_seifert(other, d).reversible == rev, (G.spell(p), G.spell(k))
        # as in the oracle's sweep: h^s rho conjugates like rho unless phi(p) = -1
        shifts = (-1, 0, 1) if G.phi_word(p.q) == -1 else (0,)
        reversers = (SeifertPair(s, rho) for rho in rhos for s in shifts)
        target = G.inv(p)
        hit = _first(reversers, lambda r: G.conjugated(p, r) == target, budget)
        assert hit is None or rev, (G.spell(p), G.spell(hit))

    check()


# -- a brute hit of the oracle comes with a structural yes ---------------------

#: braid conjugators whose images have up to 4 syllables
ORACLE_BUDGET = SearchBudget(4, 1, 10**6)


@PROPERTY
@given(b3_elements())
def test_a_brute_b3_reverser_comes_with_a_structural_yes(g):
    if g.is_identity:
        return
    if brute_conjugate_b3(g, g.inverse(), ORACLE_BUDGET) is not None:
        assert reversible_b3(g) is not None, str(g)


@PROPERTY
@given(b3_elements(), st.integers(-2, 2), _words(PSL2Z, 3))
def test_a_brute_b3_conjugator_comes_with_a_structural_yes(g, m, q):
    conjugate = g.conjugated_by(CentralElement(m, q))
    # the conjugator lies within the budget, so the scan finds one
    assert brute_conjugate_b3(g, conjugate, ORACLE_BUDGET) is not None, (str(g), str(q))
    assert conjugate_b3(g, conjugate) is not None, (str(g), str(q))
    shifted = conjugate * CentralElement(1, identity(PSL2Z))
    if brute_conjugate_b3(g, shifted, ORACLE_BUDGET) is not None:
        assert conjugate_b3(g, shifted) is not None, (str(g), str(q))


# -- the mirror scans read any rotation of the core --------------------------


def _rotating(shift):
    """_cyclic_core with its core rotated by shift syllables, and the conjugator to match."""

    def rotated(w):
        core, p = _cyclic_core(w)
        sylls = core.syllables
        k = shift % len(sylls) if sylls else 0
        core, p = Word(w.scheme, sylls[k:] + sylls[:k]), p * Word(w.scheme, sylls[:k])
        assert invert(p) * w * p == core
        return core, p

    return rotated


@st.composite
def gen3_elements(draw):
    """A word of up to 12 syllables, or a conjugated product z b^e1 z^-1 b^e2."""
    if draw(st.booleans()):
        return draw(_words(PSL2Z, 12))
    z, k = draw(_words(PSL2Z, 8)), draw(_words(PSL2Z, 4))
    b = parse_word(PSL2Z, "b")
    e1, e2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return conjugated(z * b ** e1 * invert(z) * b ** e2, k)


@PROPERTY
@given(gen3_elements(), st.integers(0, 10**6))
def test_gen3_verdicts_read_any_rotation_of_the_core(g, shift):
    if g.is_identity:
        return
    with mock.patch("gentorsion.modular._cyclic_core", _rotating(shift)):
        rotated = gen3_torsion(g)
    assert rotated == gen3_torsion(g), (str(g), shift)


@PROPERTY
@given(b3_elements(), st.integers(0, 10**6))
def test_b3_reversibility_reads_any_rotation_of_the_core(g, shift):
    if g.is_identity:
        return
    with mock.patch("gentorsion.braid3._cyclic_core", _rotating(shift)):
        rotated = reversible_b3(g)
    assert rotated == reversible_b3(g), (str(g), shift)


# -- parse . format round trips ------------------------------------------------


@PROPERTY
@given(st.one_of(_words(PSL2Z, 12), _words(MIXED, 12, max_exponent=10**9)))
def test_word_text_reads_back(w):
    assert parse_word(w.scheme, str(w)) == w


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
