"""Properties every decider and every word syntax must have.

The isometry class and the reversibility verdicts in PSL(2,Z), B3 and
Seifert groups are class functions: conjugating or inverting the input
leaves them alone.  The mirror scans of gen-3 torsion and B3
reversibility read the cyclic core in any rotation.  A brute-force hit of
the oracle in B3 or a Seifert group always comes with a structural yes,
and a B3 conjugate shifted by a fibre power h^s is conjugate exactly when
s = 0.  Each of the three word syntaxes reads back what it writes.  The
words kernel, which works through per-scheme syllable tables, agrees with the
per-syllable loops it replaced on cold and warm tables, and every inverse a
word remembers is the per-syllable one.  A PSL(2,Z), B3 or trefoil Seifert
certificate with one syllable changed verifies exactly when its relation
holds in 2x2 integer matrices, for B3 and the trefoil with the exponent sum,
and a Seifert certificate on other data with trivial phi exactly when its
quotient image and a fibre character psi say it does.  A certificate of a
conjugate by a word of 10^3 or 10^4 syllables, with or without one token
changed at its start, middle or end, verifies exactly when a plain stack
reduction of its relation says it does.
Hypothesis runs derandomized, so every run draws the same examples.
"""

import functools
import operator
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gentorsion.braid3 import (
    BraidWord,
    CentralElement,
    conjugate_b3,
    gen3_torsion_b3,
    normal_form,
    parse_braid,
    reversible_b3,
)
from gentorsion.certificates import (
    b3_conjugacy_certificate,
    b3_gen3_certificate,
    b3_reverser_certificate,
    pslz_conjugacy_certificate,
    pslz_gen3_certificate,
    pslz_reverser_certificate,
    seifert_gen_n_certificate,
    seifert_reverser_certificate,
    verify_certificate,
)
from gentorsion.errors import GroupError, ParseError
from gentorsion.modular import classify, gen3_torsion, reversible
from gentorsion.oracle import SearchBudget, _candidates, _first, brute_conjugate_b3
from gentorsion.seifert import (
    SeifertGroup,
    SeifertPair,
    gen_n_certificate,
    parse_seifert,
    reversible_seifert,
)
from gentorsion.words import (
    PSL2Z,
    GroupScheme,
    Word,
    _cyclic_core,
    _period,
    conjugated,
    format_tokens,
    identity,
    invert,
    is_conjugate,
    mirror_centres,
    parse_scheme,
    parse_word,
    reduce,
    tokens,
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


@PROPERTY
@given(b3_elements(), b3_elements(), st.integers(-3, 3))
def test_a_b3_conjugate_shifted_by_a_fibre_power_is_conjugate_exactly_unshifted(g, k, s):
    """h^s k g k^-1 has exponent sum e(g) + 6 s, so only s = 0 is conjugate to g."""
    other = CentralElement(s, identity(PSL2Z)) * g.conjugated_by(k)
    found = conjugate_b3(g, other)
    if s:
        assert found is None, (str(g), str(k), s)
    else:
        assert found is not None and g.conjugated_by(normal_form(found)) == other, (str(g), str(k))


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


# -- the table-driven words kernel against per-syllable loops ----------------
#
# The words kernel inverts, cancels, peels cores and codes rotations through
# per-scheme syllable tables, which fill as syllables are first shared.  These
# are the per-syllable loops it replaced, on plain tuples that never touch a
# scheme's tables, and the mirror centres by their definition.

#: a finite order past any exponent drawn, an infinite order, and the trefoil's quotient
KERNEL_SCHEMES = {
    "psl2z": PSL2Z,
    "huge-and-infinite": parse_scheme("a:2, c:1000003, d:inf"),
    "trefoil-quotient": TREFOIL_GROUP.scheme,
}


def old_inverse(orders, syllable):
    gen, exp = syllable
    return gen, -exp if orders[gen] is None else orders[gen] - exp


def old_reduce(orders, raw):
    stack = []
    for gen, exp in raw:
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
        if orders[gen] is not None:
            exp %= orders[gen]
        if exp:
            stack.append((gen, exp))
    return tuple(stack)


def old_invert(orders, sylls):
    return tuple(old_inverse(orders, s) for s in reversed(sylls))


def old_mul(orders, left, right):
    i, j, n = len(left), 0, len(right)
    while i and j < n:
        gen, x = left[i - 1]
        other_gen, y = right[j]
        if gen != other_gen:
            break
        i -= 1
        j += 1
        exp = x + y if orders[gen] is None else (x + y) % orders[gen]
        if exp:
            return left[:i] + ((gen, exp),) + right[j:]
    return left[:i] + right[j:]


def old_cyclic_core(orders, sylls):
    i, j = 0, len(sylls)
    tail = ()
    while j - i >= 2:
        gen, first = sylls[i]
        last_gen, last = sylls[j - 1]
        if gen != last_gen:
            break
        i += 1
        j -= 1
        exp = last + first if orders[gen] is None else (last + first) % orders[gen]
        if exp:
            tail = ((gen, exp),)
            break
    return sylls[i:j] + tail, sylls[:i]


def old_rotation_offset(text, pattern):
    """The least rotation of text onto pattern, tried one rotation at a time."""
    return next((t for t in range(max(len(text), 1)) if text[t:] + text[:t] == pattern), -1)


def per_pattern_offset(text, pattern):
    """The rotation search before scheme-wide codes: one code point for each
    distinct syllable of the pattern, and a text syllable outside it rules out
    every rotation."""
    codes = {s: chr(i) for i, s in enumerate(dict.fromkeys(pattern))}
    if not all(s in codes for s in text):
        return -1
    t, p = ("".join(codes[s] for s in word) for word in (text, pattern))
    return (t + t[:-1]).find(p)


def old_is_conjugate(orders, u, v, offset=old_rotation_offset):
    cu, pu = old_cyclic_core(orders, u)
    cv, pv = old_cyclic_core(orders, v)
    if len(cu) != len(cv):
        return None
    t = offset(cu, cv)
    if t < 0:
        return None
    k = old_mul(orders, pv, old_invert(orders, cu[:t]))
    return old_mul(orders, k, old_invert(orders, pu))


def old_mirror_centres(orders, core, radius):
    n = len(core)
    if not n:
        return []
    period = next(p for p in range(1, n + 1) if core[p:] + core[:p] == core)
    return [
        c for c in range(period)
        if all(core[(c + d) % n] == old_inverse(orders, core[(c - d) % n])
               for d in range(1, radius + 1))
    ]


def _plain_words(scheme, max_size):
    exponents = st.one_of(st.integers(-4, 4), st.integers(-3 * 10**6, 3 * 10**6))
    letters = st.tuples(st.sampled_from(scheme.names()), exponents)
    orders = dict(scheme.generators)
    return st.lists(letters, max_size=max_size).map(lambda raw: old_reduce(orders, raw))


@st.composite
def kernel_cases(draw, scheme):
    """Two factors meeting at a long seam, a word, and one it may be conjugate to.

    The word is drawn plain, or as z s z^-1 t for syllables s and t, whose
    cyclic core mirrors itself to its inverse around s and t.
    """
    orders = dict(scheme.generators)
    u, x, y, z, k = (draw(_plain_words(scheme, 8)) for _ in range(5))
    left, right = old_mul(orders, u, x), old_mul(orders, old_invert(orders, x), y)
    word = draw(_plain_words(scheme, 12))
    if draw(st.booleans()):
        s, t = (draw(_plain_words(scheme, 1)) for _ in range(2))
        word = old_mul(orders, old_mul(orders, old_mul(orders, z, s), old_invert(orders, z)), t)
    other = draw(st.sampled_from((word, old_invert(orders, word), y)))
    other = old_mul(orders, old_mul(orders, k, other), old_invert(orders, k))
    return left, right, word, other


def _kernel_results(scheme, left, right, word, other):
    left, right, word, other = (Word(scheme, s) for s in (left, right, word, other))
    core, conj = _cyclic_core(word)
    k = is_conjugate(word, other)
    radii = range(len(core) // 2 + 1)
    return (
        (left * right).syllables,
        invert(left).syllables,
        (core.syllables, conj.syllables),
        None if k is None else k.syllables,
        [mirror_centres(core, r) for r in radii],
        str(word),
    )


def _reference_results(orders, left, right, word, other):
    core, conj = old_cyclic_core(orders, word)
    radii = range(len(core) // 2 + 1)
    return (
        old_mul(orders, left, right),
        old_invert(orders, left),
        (core, conj),
        old_is_conjugate(orders, word, other),
        [old_mirror_centres(orders, core, r) for r in radii],
        format_tokens(word),
    )


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES.values(), ids=KERNEL_SCHEMES.keys())
def test_the_table_driven_kernels_match_the_per_syllable_loops(scheme):
    orders = dict(scheme.generators)

    @PROPERTY
    @given(kernel_cases(scheme))
    def check(case):
        expected = _reference_results(orders, *case)
        assert Word(scheme, case[0]) * Word(scheme, case[1]) == reduce(case[0] + case[1], scheme)
        fresh = GroupScheme(scheme.generators)
        assert not (fresh.interned or fresh.inverses or fresh.spellings or fresh.spelled
                    or fresh.codes)
        assert _kernel_results(fresh, *case) == expected, case
        assert _kernel_results(fresh, *case) == expected, case  # now on warm tables

    check()


def _long_plain_word(rng, scheme, size):
    """A reduced word of size syllables, exponents up to 10^6 in absolute value."""
    orders, names, sylls = dict(scheme.generators), scheme.names(), []
    while len(sylls) < size:
        gen = rng.choice([name for name in names if not sylls or name != sylls[-1][0]])
        order = orders[gen]
        exp = rng.randrange(1, 10**6) * rng.choice((-1, 1))
        sylls.append((gen, exp if order is None else 1 + exp % (order - 1)))
    return tuple(sylls)


@pytest.mark.parametrize("size", [10**3, 10**4])
@pytest.mark.parametrize("scheme", KERNEL_SCHEMES.values(), ids=KERNEL_SCHEMES.keys())
def test_long_rotation_searches_match_the_per_pattern_search(scheme, size):
    """Scheme-wide codes, or per-pattern ones for a pattern with an infinite-order
    syllable, find the rotations the per-pattern search finds, at length."""
    orders = dict(scheme.generators)
    rng = random.Random(size)
    u, k = _long_plain_word(rng, scheme, size), _long_plain_word(rng, scheme, 7)
    core = old_cyclic_core(orders, u)[0]
    n = len(core)
    at = next(i for i in range(n // 2, n) if orders[core[i][0]] != 2)
    gen, exp = core[at]
    changed = core[:at] + ((gen, 2 * exp if orders[gen] is None else exp % (orders[gen] - 1) + 1),)
    others = [
        core[n // 3:] + core[:n // 3],
        old_invert(orders, core),
        old_mul(orders, old_mul(orders, k, core[2 * n // 3:] + core[:2 * n // 3]),
                old_invert(orders, k)),
        changed + core[at + 1:],
    ]
    for other in others:
        expected = old_is_conjugate(orders, u, other, per_pattern_offset)
        got = is_conjugate(reduce(u, scheme), reduce(other, scheme))  # shares the syllables
        assert (None if got is None else got.syllables) == expected
    assert old_is_conjugate(orders, u, others[0], per_pattern_offset) is not None
    block = next(b for b in range(max(n // 10, 2), 1, -1) if core[b - 1][0] != core[0][0])
    for sylls in (core, core[:block] * 10):
        rotated = sylls[1:] + sylls[:1]
        assert _period(scheme.codes, sylls) == 1 + per_pattern_offset(rotated, sylls)


# -- remembered inverses ------------------------------------------------------
#
# A word may hold its inverse's syllables, remembered by the kernels that
# need them.  Whatever a kernel returns or remembers along the way, a memo is
# unset or the per-syllable inverse, and it is no part of the word's value.

MEMO_SCHEMES = {
    "psl2z": PSL2Z,
    "finite-and-infinite": parse_scheme("c1:4, c2:4, d1:inf"),
    "billion": parse_scheme("a:2, d:1000000000"),
}


@st.composite
def memo_cases(draw, scheme):
    """Factors whose seam cancels partly, fully or up to a merged syllable, and an exponent.

    left is u s x and right x^-1 t y, with s and t on one generator, so the
    seam cancels x and may merge s t; or right is left^-1; or left is a power
    of u, which repeats its syllables.
    """
    orders = dict(scheme.generators)
    u, x, y = (draw(_plain_words(scheme, 6)) for _ in range(3))
    gen = draw(st.sampled_from(scheme.names()))
    s, t = (old_reduce(orders, [(gen, draw(st.integers(-5, 5)))]) for _ in range(2))
    left = old_mul(orders, old_mul(orders, u, s), x)
    right = old_mul(orders, old_mul(orders, old_invert(orders, x), t), y)
    shape = draw(st.sampled_from(("seam", "full", "power")))
    if shape == "full":
        right = old_invert(orders, left)
    elif shape == "power":
        left = old_reduce(orders, u * draw(st.integers(2, 5)))
    return left, right, draw(st.integers(-3, 3))


def _memo_results(left, right, n):
    core, conj = _cyclic_core(left)
    other = conjugated(left, right)
    return [left * right, right * left, invert(left), ~~right, left ** n, right ** -n,
            core, conj, other, is_conjugate(left, other), is_conjugate(left, invert(left))]


@pytest.mark.parametrize("scheme", MEMO_SCHEMES.values(), ids=MEMO_SCHEMES.keys())
def test_every_remembered_inverse_is_the_per_syllable_inverse(scheme):
    orders = dict(scheme.generators)
    init = Word.__init__

    @PROPERTY
    @given(memo_cases(scheme))
    def check(case):
        made = []

        def recording(self, *args):
            init(self, *args)
            made.append(self)

        with mock.patch.object(Word, "__init__", recording):
            left, right = Word(scheme, case[0]), Word(scheme, case[1])
            cold = _memo_results(left, right, case[2])
            warm = _memo_results(left, right, case[2])  # the inputs' memos now filled
        assert cold == warm
        for product in (cold[0], warm[0]):
            assert product.syllables == old_mul(orders, case[0], case[1])
        assert cold[9] is not None and left._inverted == old_invert(orders, case[0])
        for w in made:
            if w._inverted is not None:
                assert w._inverted == old_invert(orders, w.syllables), w
                plain = Word(scheme, w.syllables)
                assert plain == w and hash(plain) == hash(w)
                assert repr(plain) == repr(w) and plain.to_dict() == w.to_dict()

    check()


@st.composite
def chain_cases(draw, scheme):
    """One to seven factors, each cancelling a drawn suffix of the product
    before it, so that a seam cancels partly, fully or up to a merged
    syllable, and the whole product may vanish."""
    orders = dict(scheme.generators)
    factors, so_far = [], ()
    for _ in range(draw(st.integers(1, 7))):
        cut = draw(st.one_of(st.just(0), st.integers(0, len(so_far))))
        tail = draw(st.one_of(st.just(()), _plain_words(scheme, 4)))
        factors.append(old_mul(orders, old_invert(orders, so_far[cut:]), tail))
        so_far = old_mul(orders, so_far, factors[-1])
    return factors


@pytest.mark.parametrize("scheme", MEMO_SCHEMES.values(), ids=MEMO_SCHEMES.keys())
def test_a_chain_of_products_is_the_reduced_concatenation_and_remembers_only_true_inverses(scheme):
    orders = dict(scheme.generators)

    @PROPERTY
    @given(chain_cases(scheme), st.integers(0, 7))
    def check(factors, warm):
        held = [Word(scheme, f) for f in factors]
        for w in held[:warm]:  # some factors arrive with their inverse remembered
            invert(w)
        expected = reduce([s for f in factors for s in f], scheme)
        assert functools.reduce(operator.mul, held) == expected  # a left-to-right chain
        assert functools.reduce(operator.mul, held) == expected  # with the memos it filled
        for w, f in zip(held, factors):
            assert w.syllables == f
            assert w._inverted is None or w._inverted == old_invert(orders, f)

    check()


# -- canonical text through the spelling table --------------------------------

#: every character str.isspace accepts; none lies past U+3000
WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())
PARSE_SCHEMES = (PSL2Z, KERNEL_SCHEMES["huge-and-infinite"])


@st.composite
def word_texts(draw):
    """Canonical spellings mixed with other spellings of syllables, ``1``,
    malformed tokens and unknown generators, under any whitespace."""
    scheme = draw(st.sampled_from(PARSE_SCHEMES))
    orders = dict(scheme.generators)
    parts = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 11))
        gen = draw(st.sampled_from(scheme.names()))
        if kind == 0:
            parts.append("1")
        elif kind == 1:
            parts.append(draw(st.sampled_from(("^2", "a^", "2a", "b^^2", "-a"))))
        elif kind == 2:
            parts.append(draw(st.sampled_from(("z", "q^2", "a1"))))
        elif kind <= 5:
            parts.append(f"{gen}^{draw(st.integers(-5, 5))}")
        else:
            exp = draw(st.integers(1, 3 * 10**6))
            exp = exp if orders[gen] is None else 1 + exp % (orders[gen] - 1)
            parts.append(format_tokens(((gen, exp),)))
    gaps = st.text(WHITESPACE, min_size=1, max_size=3)
    text = draw(st.text(WHITESPACE, max_size=2))
    for part in parts:
        text += part + draw(gaps)
    return scheme, text


def _read(read, text):
    try:
        return read(text)
    except GroupError as exc:
        return type(exc), getattr(exc, "position", None), str(exc)


@PROPERTY
@given(word_texts())
def test_parse_word_reads_every_text_as_tokens_and_reduce_do(drawn):
    scheme, text = drawn
    expected = _read(lambda t: reduce(tokens(t), scheme), text)
    fresh = GroupScheme(scheme.generators)
    assert _read(lambda t: parse_word(fresh, t), text) == expected, text
    for token in text.split():  # share every syllable the text spells
        _read(lambda t: parse_word(fresh, t), token)
    got = _read(lambda t: parse_word(fresh, t), text)
    assert got == expected, text
    if isinstance(got, Word):
        assert str(got) == format_tokens(got.syllables)
        assert parse_word(fresh, str(got)) == got


#: the whitespace runs of kept-text cases are drawn from; only " " is printable
SEPARATORS = (" ", "\t", "\n", "\xa0", "\u3000")


@st.composite
def kept_texts(draw):
    """The canonical tokens of a word, with ``1`` tokens, other spellings of a
    syllable (``b^-1``, ``a^3``) and merging neighbours put in, joined by runs
    of whitespace between optional leading and trailing runs; often nothing
    is put in and every run is one space."""
    scheme = draw(st.sampled_from(PARSE_SCHEMES))
    orders = dict(scheme.generators)
    parts = format_tokens(draw(_words(scheme, 12)).syllables).split()
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        gen = draw(st.sampled_from(scheme.names()))
        exp = draw(st.sampled_from((-1, (orders[gen] or 2) + 1)))
        at = draw(st.integers(0, len(parts)))
        kind = draw(st.sampled_from(("one", "spelling", "merge")))
        if kind == "one":
            parts.insert(at, "1")
        elif kind == "spelling":
            parts.insert(at, f"{gen}^{exp}")
        elif parts:
            parts.insert(at, parts[min(at, len(parts) - 1)])  # a neighbour on its generator
    single = draw(st.booleans())
    runs = st.just(" ") if single else st.text(st.sampled_from(SEPARATORS), min_size=1,
                                                max_size=3)
    ends = st.just("") if single else st.text(st.sampled_from(SEPARATORS), max_size=2)
    text = draw(ends)
    for i, part in enumerate(parts):
        text += (draw(runs) if i else "") + part
    return scheme, text + draw(ends)


@PROPERTY
@given(kept_texts())
@example((PSL2Z, "a b^2 a b"))
@example((PSL2Z, "a b^2  a b"))
@example((PSL2Z, "a b^2 a b "))
def test_a_word_keeps_its_text_only_when_str_would_spell_it_so(drawn):
    scheme, text = drawn
    parse_word(scheme, text)  # share every finite-order syllable the text spells
    w = parse_word(scheme, text)
    spelled = format_tokens(w.syllables)
    assert w == reduce(tokens(text), scheme) and str(w) == spelled, text
    finite = all(scheme.order(gen) is not None for gen, _ in w.syllables)
    if len(text) > 1:  # a one-character str is shared, so its identity tells nothing
        assert (str(w) is text) == (text == spelled and finite), text
    plain = Word(scheme, w.syllables)
    assert "_text" not in Word._fields and w == plain and hash(w) == hash(plain)
    assert repr(w) == repr(plain) and w.to_dict() == plain.to_dict()


#: tokens outside the spelling table, or pairs of neighbours on one generator
INSERTS = ("1", "b^-1", "a a", "b b^2")


@PROPERTY
@given(_words(PSL2Z, 40), st.lists(st.tuples(st.integers(0, 40), st.sampled_from(INSERTS)),
                                   min_size=1, max_size=3))
def test_parse_word_reduces_canonical_text_with_other_tokens_put_in(g, inserts):
    parts = str(g).split()
    for at, insert in inserts:
        parts.insert(min(at, len(parts)), insert)
    text = " ".join(parts)
    assert parse_word(GroupScheme(PSL2Z.generators), text) == reduce(tokens(text), PSL2Z)
    assert parse_word(PSL2Z, text) == reduce(tokens(text), PSL2Z)


@pytest.mark.parametrize("bad", ["^2", "a^", "b^" + "9" * 5_000], ids=["caret", "bare", "digits"])
def test_a_bad_last_token_of_a_long_text_is_reported_where_it_stands(bad):
    text = "b^-1 " + str(Word(PSL2Z, (("a", 1), ("b", 1)) * 5_000)) + " 1 " + bad
    with pytest.raises(ParseError) as caught:
        parse_word(PSL2Z, text)
    with pytest.raises(ParseError) as expected:
        tokens(text)
    assert caught.value.position == expected.value.position == text.rindex(" ") + 1
    assert str(caught.value) == str(expected.value)


# -- a certificate with one syllable changed ----------------------------------
#
# PSL(2,Z) maps onto the 2x2 integer matrices a, b below modulo sign, and the
# map is faithful, so a relation holds exactly when its matrices agree up to
# sign.  The matrices are read from the certificate text here, token by token.

MATRICES = {"a": (((0, -1), (1, 0)), 4), "b": (((0, 1), (-1, -1)), 3)}
REPLACEMENTS = ("a", "b", "b^2", "b^-1", "a^3", "b^4", "a^0", "1")


def _mat_mul(x, y):
    (p, q), (r, s) = x
    (t, u), (v, w) = y
    return (p * t + q * v, p * u + q * w), (r * t + s * v, r * u + s * w)


def _matrix(text):
    m = ((1, 0), (0, 1))
    for token in text.split():
        if token != "1":
            name, _, exp = token.partition("^")
            base, order = MATRICES[name]
            for _ in range(int(exp or 1) % order):
                m = _mat_mul(m, base)
    return m


def _mat_inv(m):
    (p, q), (r, s) = m
    return (s, -q), (-r, p)


def _up_to_sign(x, y):
    return x == y or x == tuple(tuple(-e for e in row) for row in y)


def _matrix_relation(cert):
    m = {key: _matrix(text) for key, text in cert.items() if key != "kind"}
    g = m["word"]
    # a reverser and generalised torsion are answers about a nontrivial g
    nontrivial = not _up_to_sign(g, ((1, 0), (0, 1)))
    if cert["kind"] == "pslz-reverser":
        r = m["reverser"]
        return nontrivial and _up_to_sign(_mat_mul(_mat_mul(r, g), _mat_inv(r)), _mat_inv(g))
    if cert["kind"] == "pslz-conjugacy":
        k = m["conjugator"]
        return _up_to_sign(_mat_mul(_mat_mul(k, g), _mat_inv(k)), m["other"])
    h1, k = m["h1"], m["k"]
    product = _mat_mul(
        _mat_mul(g, _mat_mul(_mat_mul(h1, g), _mat_inv(h1))),
        _mat_mul(_mat_mul(k, g), _mat_inv(k)),
    )
    return nontrivial and _up_to_sign(product, ((1, 0), (0, 1)))


@st.composite
def emitted_certificates(draw):
    """A certificate a PSL(2,Z) decider emits for a yes."""
    kind = draw(st.sampled_from(("pslz-reverser", "pslz-conjugacy", "pslz-gen3")))
    if kind == "pslz-reverser":
        g = draw(psl_elements())
        found = None if g.is_identity else reversible(g)
        assume(found is not None)
        return pslz_reverser_certificate(g, found.reverser)
    if kind == "pslz-conjugacy":
        g = draw(psl_elements())
        other = conjugated(g, draw(_words(PSL2Z, 8)))
        return pslz_conjugacy_certificate(g, other, is_conjugate(g, other))
    g = draw(gen3_elements())
    found = None if g.is_identity else gen3_torsion(g).certificate
    assume(found is not None)
    return pslz_gen3_certificate(g, *found)


@PROPERTY
@given(emitted_certificates(), st.data())
def test_a_certificate_with_one_syllable_changed_verifies_as_its_matrices_say(cert, data):
    assert verify_certificate(cert) and _matrix_relation(cert), cert
    field = data.draw(st.sampled_from(sorted(key for key in cert if key != "kind")))
    parts = cert[field].split()
    i = data.draw(st.integers(0, len(parts) - 1))
    parts[i] = data.draw(st.sampled_from([r for r in REPLACEMENTS if r != parts[i]]))
    mutated = dict(cert, **{field: " ".join(parts)})
    assert verify_certificate(mutated) == _matrix_relation(mutated), mutated


# -- a B3 certificate with one letter changed ---------------------------------
#
# B3 maps onto SL(2,Z) by the matrices below, with kernel <h^2>, and the
# exponent sum e has e(h^2) = 12, so B3 -> SL(2,Z) x Z is injective: a braid
# relation holds exactly when its matrices and its exponent sums agree.
# x = s1 s2 s1, y = s1 s2 and h = y^3 are read as those products of s1, s2.

_S1, _S2 = ((1, 1), (0, 1)), ((1, 0), (-1, 1))
_Y = _mat_mul(_S1, _S2)
BRAID_IMAGES = {"s1": (_S1, 1), "s2": (_S2, 1), "x": (_mat_mul(_Y, _S1), 3), "y": (_Y, 2),
                "h": (_mat_mul(_Y, _mat_mul(_Y, _Y)), 6)}
BRAID_REPLACEMENTS = ("s1", "s2", "S1", "s2^-1", "x", "X", "y^2", "Y", "h", "H", "s1^3", "1")


def _braid_image(text):
    """The SL(2,Z) matrix and the exponent sum of a braid text."""
    m, e = ((1, 0), (0, 1)), 0
    for token in text.split():
        if token != "1":
            name, _, exp = token.partition("^")
            k = int(exp or 1) * (-1 if name[0].isupper() else 1)
            base, weight = BRAID_IMAGES[name.lower()]
            for _ in range(abs(k)):
                m = _mat_mul(m, base if k > 0 else _mat_inv(base))
            e += weight * k
    return m, e


def _braid_relation(cert):
    """Whether the certificate's relation holds in SL(2,Z) x Z."""
    images = {key: _braid_image(text) for key, text in cert.items() if key != "kind"}
    (g, e) = images["element"]
    if cert["kind"] == "b3-reverser":
        r = images["reverser"][0]
        # with e = 0, g is 1 exactly when its matrix is, and g must not be 1
        return (e == 0 and g != ((1, 0), (0, 1))
                and _mat_mul(_mat_mul(r, g), _mat_inv(r)) == _mat_inv(g))
    if cert["kind"] == "b3-conjugacy":
        (k, _), (other, e_other) = images["conjugator"], images["other"]
        return e == e_other and _mat_mul(_mat_mul(k, g), _mat_inv(k)) == other
    (h1, _), (k, _) = images["h1"], images["k"]
    product = _mat_mul(
        _mat_mul(g, _mat_mul(_mat_mul(h1, g), _mat_inv(h1))),
        _mat_mul(_mat_mul(k, g), _mat_inv(k)),
    )
    # with e = 0, g is 1 exactly when its matrix is, and g must not be 1
    return e == 0 and g != ((1, 0), (0, 1)) and product == ((1, 0), (0, 1))


@st.composite
def emitted_b3_certificates(draw):
    """A certificate a B3 decider emits for a yes: on a conjugated commutator
    [x, k0], on any braid and a conjugate, or on a lift with e = 0 of a
    conjugated product z b^u z^-1 b^(3-u) of two elements of order 3."""
    kind = draw(st.sampled_from(("b3-reverser", "b3-conjugacy", "b3-gen3")))
    lift = lambda w: CentralElement(0, w)  # noqa: E731
    if kind == "b3-reverser":
        x, k0 = lift(parse_word(PSL2Z, "a")), lift(draw(_words(PSL2Z, 3).filter(len)))
        g = (x * k0 * x.inverse() * k0.inverse()).conjugated_by(lift(draw(_words(PSL2Z, 3))))
        assume(not g.is_identity)
        return b3_reverser_certificate(str(g.spell()), str(reversible_b3(g).reverser))
    if kind == "b3-conjugacy":
        g = draw(b3_elements())
        other = g.conjugated_by(CentralElement(draw(st.integers(-2, 2)), draw(_words(PSL2Z, 6))))
        return b3_conjugacy_certificate(
            str(g.spell()), str(other.spell()), str(conjugate_b3(g, other))
        )
    z, b, u = draw(_words(PSL2Z, 8)), parse_word(PSL2Z, "b"), draw(st.integers(1, 2))
    q = conjugated(z * b ** u * invert(z) * b ** (3 - u), draw(_words(PSL2Z, 4)))
    assume(not q.is_identity)
    g = CentralElement(-lift(q).exponent_sum // 6, q)
    return b3_gen3_certificate(str(g.spell()), *gen3_torsion_b3(g).certificate)


@PROPERTY
@given(emitted_b3_certificates(), st.data())
def test_a_b3_certificate_with_one_letter_changed_verifies_as_sl2z_and_e_say(cert, data):
    assert verify_certificate(cert) and _braid_relation(cert), cert
    field = data.draw(st.sampled_from(sorted(key for key in cert if key != "kind")))
    parts = cert[field].split()
    i = data.draw(st.integers(0, len(parts) - 1))
    parts[i] = data.draw(st.sampled_from([r for r in BRAID_REPLACEMENTS if r != parts[i]]))
    mutated = dict(cert, **{field: " ".join(parts)})
    assert verify_certificate(mutated) == _braid_relation(mutated), mutated


# -- a Seifert certificate on the trefoil data with one letter changed --------
#
# Over (O,o,0 | b; (2,1),(3,1)); boundaries=1, with phi trivial, c1 and c2 are
# x and y of B3 (c1^2 = c2^3 = h, central) and the long relation makes d1 =
# (c1 c2 h^b)^-1.  So a Seifert relation holds exactly when it holds in
# SL(2,Z) x Z, with each letter read as that braid.

TREFOIL_SPECS = ("(O,o,0 | 0; (2,1),(3,1)); boundaries=1", "(O,o,0 | 1; (2,1),(3,1)); boundaries=1")
TREFOIL_GROUPS = {spec: SeifertGroup(parse_seifert(spec)) for spec in TREFOIL_SPECS}
SEIFERT_REPLACEMENTS = (
    "c1", "c2", "c1^-1", "c2^2", "c2^-1", "c1^3", "h", "h^-1", "d1", "d1^-1", "d1^2", "1",
)
_IDENTITY = ((1, 0), (0, 1))


def _trefoil_image(text, b):
    """The SL(2,Z) matrix and the exponent sum of a trefoil element text."""
    braids = {"c1": "x", "c2": "y", "h": "h"}
    letters = []
    for token in text.split():
        if token != "1":
            name, _, exp = token.partition("^")
            k = int(exp or 1)
            if name == "d1":
                letters += [f"H^{b} Y X" if k > 0 else f"x y h^{b}"] * abs(k)
            else:
                letters.append(f"{braids[name]}^{k}")
    return _braid_image(" ".join(letters) or "1")


def _trefoil_relation(cert, b):
    """Whether the certificate's relation holds in SL(2,Z) x Z."""
    g, e = _trefoil_image(cert["element"], b)
    if cert["kind"] == "seifert-reverser":
        r = _trefoil_image(cert["reverser"], b)[0]
        # with e = 0, g is 1 exactly when its matrix is, and g must not be 1
        return e == 0 and g != _IDENTITY and _mat_mul(_mat_mul(r, g), _mat_inv(r)) == _mat_inv(g)
    product = g
    for text in cert["conjugators"]:
        k = _trefoil_image(text, b)[0]
        product = _mat_mul(product, _mat_mul(_mat_mul(k, g), _mat_inv(k)))
    # n conjugates of g have exponent sum n e(g), and g must not be 1
    return e == 0 and g != _IDENTITY and product == _IDENTITY


@st.composite
def emitted_trefoil_certificates(draw):
    """A certificate a Seifert decider emits on the trefoil data, with its b:
    a reverser of a conjugated commutator [c1, k], or gen-n for an n that
    shares a factor with the fibre orders."""
    spec = draw(st.sampled_from(TREFOIL_SPECS))
    G = TREFOIL_GROUPS[spec]
    if draw(st.booleans()):
        n = draw(st.sampled_from((2, 3, 4, 6, 8, 9)))
        return seifert_gen_n_certificate(spec, gen_n_certificate(G.data, n)), G.data.b
    words = _seifert_elements(G, ("c1", "c2", "d1", "h"), 4)
    c1 = G.generator("c1")
    g = G.conjugated(G.mul(c1, G.conjugated(G.inv(c1), draw(words))), draw(words))
    assume(not g.is_identity)
    report = reversible_seifert(g, G.data)
    assert report.reversible, G.spell(g)
    cert = seifert_reverser_certificate(spec, G.spell(g), G.spell(report.reverser))
    return cert, G.data.b


@PROPERTY
@given(emitted_trefoil_certificates(), st.data())
def test_a_trefoil_certificate_with_one_letter_changed_verifies_as_sl2z_and_e_say(drawn, data):
    cert, b = drawn
    assert verify_certificate(cert) and _trefoil_relation(cert, b), cert
    slots = [(key, None) for key in ("element", "reverser") if key in cert]
    slots += [("conjugators", i) for i in range(len(cert.get("conjugators", ())))]
    key, index = data.draw(st.sampled_from(slots))
    parts = (cert[key] if index is None else cert[key][index]).split()
    i = data.draw(st.integers(0, len(parts) - 1))
    parts[i] = data.draw(st.sampled_from([r for r in SEIFERT_REPLACEMENTS if r != parts[i]]))
    if index is None:
        mutated = dict(cert, **{key: " ".join(parts)})
    else:
        texts = list(cert[key])
        texts[index] = " ".join(parts)
        mutated = dict(cert, conjugators=texts)
    assert verify_certificate(mutated) == _trefoil_relation(mutated, b), mutated



# -- a Seifert certificate on other data with one token changed ---------------
#
# With phi trivial and a boundary, h is central of infinite order, and the
# quotient by <h> is the free product of the Z/mu_i on the c_i and of Z on the
# handle letters and every boundary letter but the last, which the long
# relation eliminates.  psi, with psi(h) = 1, psi(c_i) = beta_i/mu_i and
# psi(d_last) = -(b + sum beta_i/mu_i), is a homomorphism to Q, so an element
# is 1 exactly when its quotient image is 1 and psi of it is 0.

#: each data set: its presentation letters, its last boundary letter, and the
#: letters before that one in the long relation, whose inverse is its image
PSI_DATA = {
    "(O,o,1 | 1; (2,1),(4,1)); boundaries=1": ("a1 b1 c1 c2 d1 h", "d1", "a1 b1 a1^-1 b1^-1 c1 c2"),
    "(O,o,0 | -1; (2,1),(3,1),(5,2)); boundaries=2": ("c1 c2 c3 d1 d2 h", "d2", "c1 c2 c3 d1"),
    "(O,o,0|0;(4,1),(9,2));boundaries=1": ("c1 c2 d1 h", "d1", "c1 c2"),
}
PSI_GROUPS = {spec: SeifertGroup(parse_seifert(spec)) for spec in PSI_DATA}
#: the degrees 2 .. 12 at which each data set has a gen-n certificate
PSI_DEGREES = {spec: [n for n in range(2, 13) if gen_n_certificate(G.data, n)]
               for spec, G in PSI_GROUPS.items()}


def _pairs(text):
    """The (letter, exponent) pairs of element text, read by str methods alone."""
    return [(name, int(exp or 1)) for name, _, exp in
            (token.partition("^") for token in text.split() if token != "1")]


def _inverse_pairs(pairs):
    return [(name, -exp) for name, exp in reversed(pairs)]


def _psi_relation(cert):
    """Whether the certificate's relation holds, read off the quotient image and psi."""
    d = parse_seifert(cert["data"])
    _, last, before_last = PSI_DATA[cert["data"]]
    orders = {f"c{i}": mu for i, (mu, _) in enumerate(d.exceptional, 1)}
    psi = {f"c{i}": Fraction(beta, mu) for i, (mu, beta) in enumerate(d.exceptional, 1)}
    psi.update({"h": Fraction(1), last: -(d.b + sum(psi.values()))})
    eliminated = _inverse_pairs(_pairs(before_last))

    def image(pairs):
        stack = []
        for name, exp in pairs:
            if name == "h":
                continue
            if name == last:
                block = eliminated if exp > 0 else _inverse_pairs(eliminated)
                stack = image(stack + block * abs(exp))
                continue
            if stack and stack[-1][0] == name:
                exp += stack.pop()[1]
            if name in orders:
                exp %= orders[name]
            if exp:
                stack.append((name, exp))
        return stack

    g = _pairs(cert["element"])
    product = list(g)
    for text in [cert["reverser"]] if "reverser" in cert else cert["conjugators"]:
        k = _pairs(text)
        product += k + g + _inverse_pairs(k)
    psi_g = sum(exp * psi.get(name, 0) for name, exp in g)
    return bool(image(g) or psi_g) and not image(product) and psi_g == 0


@st.composite
def emitted_psi_certificates(draw):
    """A certificate a Seifert decider emits on non-trefoil data with trivial phi:
    gen-n at some n in 2 .. 12, or a reverser of a conjugated commutator
    [c1^(mu_1/2), k], whose first factor is an involution in the quotient."""
    spec = draw(st.sampled_from(list(PSI_DATA)))
    G = PSI_GROUPS[spec]
    if draw(st.booleans()):
        n = draw(st.sampled_from(PSI_DEGREES[spec]))
        return seifert_gen_n_certificate(spec, gen_n_certificate(G.data, n))
    words = _seifert_elements(G, tuple(PSI_DATA[spec][0].split()), 4)
    half = G.pow(G.generator("c1"), G.data.exceptional[0][0] // 2)
    g = G.conjugated(G.mul(half, G.conjugated(G.inv(half), draw(words))), draw(words))
    assume(not g.is_identity)
    report = reversible_seifert(g, G.data)
    assert report.reversible, G.spell(g)
    return seifert_reverser_certificate(spec, G.spell(g), G.spell(report.reverser))


@PROPERTY
@given(emitted_psi_certificates(), st.data())
def test_a_seifert_certificate_with_one_token_changed_verifies_as_its_image_and_psi_say(cert, data):
    assert verify_certificate(cert) and _psi_relation(cert), cert
    slots = [(key, None) for key in ("element", "reverser") if key in cert]
    slots += [("conjugators", i) for i in range(len(cert.get("conjugators", ())))]
    key, index = data.draw(st.sampled_from(slots))
    parts = (cert[key] if index is None else cert[key][index]).split()
    i = data.draw(st.integers(0, len(parts) - 1))
    letters = PSI_DATA[cert["data"]][0].split()
    replacements = ["1"] + [f"{x}{e}" for x in letters for e in ("", "^-1", "^2")]
    parts[i] = data.draw(st.sampled_from([r for r in replacements if r != parts[i]]))
    if index is None:
        mutated = dict(cert, **{key: " ".join(parts)})
    else:
        texts = list(cert[key])
        texts[index] = " ".join(parts)
        mutated = dict(cert, conjugators=texts)
    assert verify_certificate(mutated) == _psi_relation(mutated), mutated


# -- a long certificate re-multiplied in a plain model -------------------------
#
# Conjugates of a b a b^2 (reversible) and a b a b (parabolic, gen-3) by random
# reduced words of 10^3 and 10^4 syllables, so the seams cancel over long runs.
# In B3 the lift of a b a b^2 is taken with exponent sum 0: it is reversible and
# generalised 3-torsion.  The lifts of a b a b have exponent sum 4 mod 6, so
# none of them is either.  Each B3 syllable is spelled as x, y, y^2 or as its
# run s1 s2 s1, s1 s2, s1 s2 s1 s2, and the runs between them take every length
# mod 5.  The model reads text by str methods and reduces it on a stack: a
# PSL(2,Z) relation holds when its syllables reduce to nothing, a B3 relation
# when its image does and its exponent sum is 0, as B3 -> PSL(2,Z) x Z is
# injective.  x = s1 s2 s1 and y = s1 s2 give s1 = y^-1 x and s2 = x^-1 y^2.

PSL_ORDERS = {"a": 2, "b": 3}
#: each braid letter's image in PSL(2,Z) and its exponent sum
BRAID_PLAIN = {"s1": ([("b", -1), ("a", 1)], 1), "s2": ([("a", -1), ("b", 2)], 1),
               "x": ([("a", 1)], 3), "y": ([("b", 1)], 2), "h": ([], 6)}
#: each PSL(2,Z) syllable's braid spellings: its letter, and its run of s1, s2
SYLLABLE_BRAIDS = {("a", 1): ("x", "s1 s2 s1"), ("b", 1): ("y", "s1 s2"),
                   ("b", 2): ("y^2", "s1 s2 s1 s2")}
LONG_REPLACEMENTS = {"pslz": ("a", "b", "b^2", "b^-1", "1"),
                     "b3": ("s1", "S1", "s2^-1", "x", "Y", "y^2", "h", "H", "1")}


def _plain_reduced(pairs):
    stack = []
    for name, exp in pairs:
        if stack and stack[-1][0] == name:
            exp += stack.pop()[1]
        exp %= PSL_ORDERS[name]
        if exp:
            stack.append((name, exp))
    return stack


def _plain_image(text):
    """The PSL(2,Z) syllables and the exponent sum of braid text."""
    pairs, e = [], 0
    for name, k in _pairs(text):
        image, weight = BRAID_PLAIN[name.lower()]
        k *= -1 if name[0].isupper() else 1
        pairs += (image if k > 0 else _inverse_pairs(image)) * abs(k)
        e += weight * k
    return pairs, e


def _plain_relation(cert):
    """Whether g != 1 and g (k_1 g k_1^-1) ... = 1, with the k_i the certificate's."""
    group, kind = cert["kind"].split("-")
    read = _plain_image if group == "b3" else lambda text: (_pairs(text), 0)
    element = "word" if group == "pslz" else "element"
    g, e = read(cert[element])
    product = list(g)
    for key in ("reverser",) if kind == "reverser" else ("h1", "k"):
        k = read(cert[key])[0]
        product += k + g + _inverse_pairs(k)
    return bool(_plain_reduced(g) or e) and not _plain_reduced(product) and e == 0


def _long_conjugate(rng, core, size):
    """The reduced syllables of k core k^-1 for k a random reduced word of size syllables."""
    k, name = [], rng.choice("ab")
    for _ in range(size):
        k.append((name, 1) if name == "a" else ("b", rng.choice((1, 2))))
        name = "b" if name == "a" else "a"
    return _plain_reduced(k + _pairs(core) + _inverse_pairs(k))


def _braid_lift(rng, syllables):
    """Braid text lifting the syllables with exponent sum 0, and its runs of s1, s2."""
    spelled, runs, run = [], [], 0
    for syllable in syllables:
        short, long = SYLLABLE_BRAIDS[syllable]
        if rng.random() < 0.5:
            spelled.append(long)
            run += len(long.split())
        else:
            spelled.append(short)
            runs.append(run)
            run = 0
    e = _plain_image(" ".join(spelled))[1]
    assert e % 6 == 0  # e mod 6 depends only on the conjugacy class of the image
    return " ".join([f"h^{-e // 6}"] * bool(e) + spelled), [r for r in runs + [run] if r]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("size", [10**3, 10**4])
@pytest.mark.parametrize("kind", ["pslz-reverser", "pslz-gen3", "b3-reverser", "b3-gen3"])
def test_a_long_certificate_with_one_token_changed_verifies_as_a_plain_stack_says(kind, size, seed):
    rng, (group, relation) = random.Random(seed), kind.split("-")
    core = "a b a b" if kind == "pslz-gen3" else "a b a b^2"
    syllables = _long_conjugate(rng, core, size)
    if group == "pslz":
        g = parse_word(PSL2Z, format_tokens(syllables))
        if relation == "reverser":
            cert = pslz_reverser_certificate(g, reversible(g).reverser)
        else:
            cert = pslz_gen3_certificate(g, *gen3_torsion(g).certificate)
    else:
        text, runs = _braid_lift(rng, syllables)
        assert {run % 5 for run in runs} == set(range(5))
        if relation == "reverser":
            cert = b3_reverser_certificate(text, str(reversible_b3(parse_braid(text)).reverser))
        else:
            cert = b3_gen3_certificate(text, *gen3_torsion_b3(parse_braid(text)).certificate)
    assert verify_certificate(cert) and _plain_relation(cert)
    # one token changed at the start, the middle and the end of the fields' tokens
    slots = [(key, i) for key in cert if key != "kind" for i in range(len(cert[key].split()))]
    for key, i in (slots[0], slots[len(slots) // 2], slots[-1]):
        parts = cert[key].split()
        parts[i] = rng.choice([r for r in LONG_REPLACEMENTS[group] if r != parts[i]])
        mutated = dict(cert, **{key: " ".join(parts)})
        assert verify_certificate(mutated) == _plain_relation(mutated), (key, i, parts[i])
