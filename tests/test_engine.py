"""The shared central-extension engine behind B3 and the Seifert groups.

Hostile exponents must fold in one stack pass, and products, inverses and
powers are checked against representations computed independently here:
B3 through the faithful pair (matrix in SL(2,Z), exponent sum), and the
Seifert groups through a naive one-generator-at-a-time multiply loop.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gentorsion.braid3 import BraidWord, CentralElement, normal_form, parse_braid
from gentorsion.seifert import SeifertGroup, SeifertPair, parse_seifert
from gentorsion.words import PSL2Z, identity, parse_word, reduce

TREFOIL = "(O,o,0 | 1; (2,1),(3,1)); boundaries=1; phi: d1=+1"
TWO_BOUNDARY = "(O,o,0 | 0; (4,1),(4,1)); boundaries=2; phi: d1=-1,d2=-1"

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


# -- hostile exponents -------------------------------------------------


def test_braid_exponents_of_a_billion_fold_at_once():
    # h^(10^9) x^(2 * 5*10^8 + 1) y^(3 * -333333334 + 2)
    nf = normal_form(parse_braid("h^1000000000 x^1000000001 y^-1000000000"))
    assert nf == CentralElement(1166666666, parse_word(PSL2Z, "a b^2"))
    assert str(nf.q) == "a b^2"


def test_seifert_exponents_of_a_billion_fold_at_once():
    G = SeifertGroup(parse_seifert(TREFOIL))
    # c1^2 = h, so c1^(2 * 500000000 + 1) = c1 h^500000000
    assert G.element("c1^1000000001 h^-5") == SeifertPair(
        499999995, parse_word(G.scheme, "c1")
    )
    T = SeifertGroup(parse_seifert(TWO_BOUNDARY))
    # c1^4 = h; the fiber then crosses d1^3, which flips it
    assert T.element("d1^3 h^-5 c1^1000000001") == SeifertPair(
        -249999995, parse_word(T.scheme, "d1^3 c1")
    )


def test_word_power_is_one_reduction():
    w = parse_word(PSL2Z, "a b a b^2")
    assert len(w ** 100000) == 400000
    assert str(w ** -2) == "b a b^2 a b a b^2 a"
    involution = parse_word(PSL2Z, "b a b^2")
    assert involution ** 1001 == involution and (involution ** 1000).is_identity


def test_products_push_the_shared_syllables_of_the_words_kernel():
    nf = normal_form(parse_braid("s1^300 s2^-300 s1 s2^5 S1^20"))
    G = SeifertGroup(parse_seifert(TWO_BOUNDARY))
    pair = G.element("c1^3 d1^2 c2 c1^-5 d1^-1 c2^2")
    for q in (nf.q, pair.q):
        finite = [s for s in q.syllables if q.scheme.order(s.gen) is not None]
        assert finite and all(s is q.scheme.syllable(s.gen, s.exp) for s in finite)


# -- B3 against the faithful pair ---------------------------------------

S1 = ((1, 1), (0, 1))
S2 = ((1, 0), (-1, 1))
MINUS_ONE = ((-1, 0), (0, -1))
ONE = ((1, 0), (0, 1))


def _mat_mul(p, r):
    return tuple(
        tuple(sum(p[i][k] * r[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def _mat_pow(p, n):
    if n < 0:
        (a, b), (c, d) = p
        p, n = ((d, -b), (-c, a)), -n
    out = ONE
    while n:
        if n & 1:
            out = _mat_mul(out, p)
        p, n = _mat_mul(p, p), n >> 1
    return out


X = _mat_mul(_mat_mul(S1, S2), S1)
Y = _mat_mul(S1, S2)
LETTER = {"s1": (S1, 1), "s2": (S2, 1), "x": (X, 3), "y": (Y, 2), "h": (MINUS_ONE, 6)}


def faithful(w: BraidWord):
    """B3 -> SL(2,Z) x Z is injective: its kernel would lie in <h^2>, of exponent sum 12."""
    mat, total = ONE, 0
    for name, exp in w.letters:
        image, weight = LETTER[name]
        mat, total = _mat_mul(mat, _mat_pow(image, exp)), total + weight * exp
    return mat, total


def faithful_nf(e: CentralElement):
    mat, total = _mat_pow(MINUS_ONE, e.m), 6 * e.m
    for s in e.q.syllables:
        image, weight = (X, 3) if s.gen == "a" else (Y, 2)
        mat, total = _mat_mul(mat, _mat_pow(image, s.exp)), total + weight * s.exp
    return mat, total


def _nonzero(bound):
    return st.integers(-bound, bound).filter(bool)


letter = st.one_of(
    st.tuples(st.sampled_from(("s1", "s2")), _nonzero(12)),
    st.tuples(st.sampled_from(("x", "y", "h")), _nonzero(10**9)),
)
braids = st.lists(letter, max_size=8).map(lambda letters: BraidWord(tuple(letters)))


@PROPERTY
@given(braids)
def test_normal_form_matches_the_faithful_pair(w):
    nf = normal_form(w)
    assert faithful_nf(nf) == faithful(w)
    assert reduce(nf.q.pairs(), PSL2Z) == nf.q
    assert normal_form(nf.spell()) == nf


@PROPERTY
@given(braids, braids)
def test_product_matches_the_faithful_pair(u, v):
    product = normal_form(u) * normal_form(v)
    assert product == normal_form(u * v)
    assert faithful_nf(product) == faithful(u * v)


@PROPERTY
@given(braids)
def test_inverse_matches_the_faithful_pair(w):
    inverse = normal_form(w).inverse()
    assert inverse == normal_form(w.inverse())
    mat, total = faithful(w)
    assert faithful_nf(inverse) == (_mat_pow(mat, -1), -total)
    assert (inverse * normal_form(w)).is_identity


@PROPERTY
@given(braids, st.integers(-40, 40))
def test_power_matches_the_faithful_pair(w, n):
    mat, total = faithful(w)
    assert faithful_nf(normal_form(w) ** n) == (_mat_pow(mat, n), n * total)


# -- Seifert against a naive multiply loop ------------------------------

TWO = SeifertGroup(parse_seifert(TWO_BOUNDARY))


def naive_pow(G, p, n):
    if n < 0:
        p, n = G.inv(p), -n
    out = G.one
    for _ in range(n):
        out = G.mul(out, p)
    return out


def naive_element(G, letters):
    out = G.one
    for name, exp in letters:
        out = G.mul(out, naive_pow(G, G.generator(name), exp))
    return out


def _spell(letters):
    return " ".join(f"{name}^{exp}" for name, exp in letters) or "1"


seifert_words = st.lists(
    st.tuples(st.sampled_from(("c1", "c2", "d1", "d2", "h")), _nonzero(9)), max_size=6
)


@PROPERTY
@given(seifert_words)
def test_seifert_element_matches_a_naive_loop(letters):
    assert TWO.element(_spell(letters)) == naive_element(TWO, letters)


@PROPERTY
@given(seifert_words, st.integers(-12, 12))
def test_seifert_pow_matches_a_naive_loop(letters, n):
    p = TWO.element(_spell(letters))
    assert TWO.pow(p, n) == naive_pow(TWO, p, n)
    assert TWO.mul(TWO.pow(p, n), TWO.pow(p, -n)) == TWO.one


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from(("a", "b")), _nonzero(4)), max_size=6),
       st.integers(-15, 15))
def test_word_power_matches_a_naive_loop(pairs, n):
    w = reduce(pairs, PSL2Z)
    base = w if n >= 0 else ~w
    out = identity(PSL2Z)
    for _ in range(abs(n)):
        out = out * base
    assert w ** n == out
