"""The shared central-extension engine behind B3 and the Seifert groups.

Hostile exponents must fold at once, and products, inverses and powers are
checked against representations computed independently here: B3 through
the faithful pair (matrix in SL(2,Z), exponent sum), the Seifert groups
through a naive one-generator-at-a-time multiply loop, and both through the
per-syllable fold that merges every syllable of every factor on its own.
Every syllable that the words kernel and the engine hand out is a
normalised (name, exponent) pair, and one shared tuple when finite.
"""

import random
import sys
import tracemalloc
from contextlib import contextmanager
from itertools import product, repeat
from math import ceil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentorsion import braid3
from gentorsion.braid3 import BraidWord, CentralElement, normal_form, parse_braid
from gentorsion.certificates import seifert_gen_n_certificate, verify_certificate
from gentorsion.seifert import (
    CentralExtension,
    SeifertGroup,
    SeifertPair,
    gen_n_certificate,
    gen_n_relation_holds,
    parse_seifert,
    presentation,
    seifert_group,
)
from gentorsion.words import PSL2Z, Word, identity, invert, parse_scheme, parse_word, reduce

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "benchmark")]

import workloads  # noqa: E402

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
        finite = [s for s in q.syllables if q.scheme.order(s[0]) is not None]
        assert finite and all(s is q.scheme.syllable(*s) for s in finite)


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
    for gen, exp in e.q.syllables:
        image, weight = (X, 3) if gen == "a" else (Y, 2)
        mat, total = _mat_mul(mat, _mat_pow(image, exp)), total + weight * exp
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
    assert reduce(nf.q.syllables, PSL2Z) == nf.q
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


# -- against the per-syllable fold ----------------------------------------


def reference_product(E, m, q, pieces):
    """(m, q) times the pieces, merging and wrapping every syllable on its own."""
    stack, pend = list(q.syllables), 0
    for k, syllables in pieces:
        pend += k
        for gen, exp in syllables:
            if exp % 2 and gen in E._flips:
                pend = -pend
            if stack and stack[-1][0] == gen:
                exp += stack.pop()[1]
            if E._order[gen] is not None:
                wraps, exp = divmod(exp, E._order[gen])
                pend += E._beta[gen] * wraps
            if exp:
                stack.append(E.scheme.syllable(gen, exp))
    q = Word(E.scheme, tuple(stack))
    return m + pend * E.phi_word(q), q


def reference_inverse(E, m, q):
    q_inv = invert(q)
    return -reference_product(E, 0, q_inv, ((m, q.syllables),))[0], q_inv


def reference_power(E, m, q, n):
    """n copies of (m, q), or of its inverse, folded syllable by syllable."""
    if n < 0:
        (m, q), n = reference_inverse(E, m, q), -n
    return reference_product(E, 0, identity(E.scheme), repeat((m, q.syllables), n))


def reference_element(G, letters):
    """The central form of the letters, with d_m^k as abs(k) copies of d_m^+-1."""
    dm = G.generator(G.qmap.eliminated)
    pieces = []
    for name, exp in letters:
        if name == "h":
            pieces.append((exp, ()))
        elif name == G.qmap.eliminated:
            m, q = (dm.m, dm.q) if exp > 0 else reference_inverse(G, dm.m, dm.q)
            pieces += [(m, q.syllables)] * abs(exp)
        else:
            pieces.append((0, ((name, exp),)))
    return SeifertPair(*reference_product(G, 0, identity(G.scheme), pieces))


B3 = CentralExtension(PSL2Z, beta={"a": 1, "b": 1}, phi={})
LIFT = {("s1", 1): "b^2 a", ("s1", -1): "a b", ("s2", 1): "a b^2", ("s2", -1): "b a"}


def reference_normal_form(w):
    """The braid folded letter by letter, with s_i^k as abs(k) lifts of s_i^+-1."""
    pieces = []
    for name, exp in w.letters:
        if name == "h":
            pieces.append((exp, ()))
        elif name in ("x", "y"):
            pieces.append((0, (("a" if name == "x" else "b", exp),)))
        else:
            lift = parse_word(PSL2Z, LIFT[name, 1 if exp > 0 else -1])
            pieces += [(-1, lift.syllables)] * abs(exp)
    return CentralElement(*reference_product(B3, 0, identity(PSL2Z), pieces))


FIBRATIONS = {spec: SeifertGroup(parse_seifert(spec)) for spec in workloads.FIBER_ORDERS}


def _letters(G):
    names = [name for name, _ in G.scheme.generators] + [G.qmap.eliminated, "h"]
    return st.lists(st.tuples(st.sampled_from(names), st.integers(-9, 9)), max_size=6)


@st.composite
def fibred(draw, count=1):
    """A fibration data set of the benchmark and count letter lists over its alphabet."""
    G = FIBRATIONS[draw(st.sampled_from(sorted(FIBRATIONS)))]
    return (G, *(draw(_letters(G)) for _ in range(count)))


@PROPERTY
@given(fibred())
def test_element_matches_the_per_syllable_fold(case):
    G, letters = case
    assert G.element(_spell(letters)) == reference_element(G, letters)


@PROPERTY
@given(fibred(count=2), st.lists(st.integers(0, 5), max_size=6), st.integers(-30, 30))
def test_product_matches_the_per_syllable_fold(case, picks, raw):
    G, left, right = case
    p, r = G.element(_spell(left)), G.element(_spell(right))
    gen = G.scheme.generators[raw % len(G.scheme.generators)][0]
    # p^-1 after p, or r^-1 after r, cancels across the whole seam
    pool = [p, r, G.inv(p), G.inv(r), G.generator("h"), SeifertPair(raw, identity(G.scheme))]
    pieces = [(x.m, x.q.syllables) for x in (pool[i] for i in picks)]
    pieces.insert(len(pieces) // 2, (0, ((gen, raw),)))
    got = G.product(p.m, p.q, pieces)
    assert got == reference_product(G, p.m, p.q, pieces)


@PROPERTY
@given(fibred(), st.integers(-12, 12))
def test_power_matches_the_per_syllable_fold(case, n):
    G, letters = case
    p = G.element(_spell(letters))
    assert G.power(p.m, p.q, n) == reference_power(G, p.m, p.q, n)


@PROPERTY
@given(braids)
def test_normal_form_matches_the_per_syllable_fold(w):
    assert normal_form(w) == reference_normal_form(w)


@PROPERTY
@given(braids, st.integers(-12, 12))
def test_braid_power_matches_the_per_syllable_fold(w, n):
    nf = normal_form(w)
    assert nf ** n == CentralElement(*reference_power(B3, nf.m, nf.q, n))


# -- every syllable a normalised pair, every finite one shared ----------


def assert_shared_pairs(w):
    """Each syllable of w is a (str, int) pair in normal form, shared when finite."""
    for s in w.syllables:
        assert type(s) is tuple and len(s) == 2
        gen, exp = s
        assert type(gen) is str and type(exp) is int
        order = w.scheme.order(gen)
        if order is None:
            assert exp != 0
        else:
            assert 0 < exp < order and s is w.scheme.syllable(*s)


FREE = parse_scheme("a:2, b:3, t:inf")
free_pairs = st.lists(st.tuples(st.sampled_from("abt"), st.integers(-7, 7)), max_size=10)


@PROPERTY
@given(free_pairs, free_pairs, st.integers(-6, 6))
def test_word_results_hold_normalised_shared_pairs(left, right, n):
    u, v = reduce(left, FREE), reduce(right, FREE)
    for w in (u, v, invert(u), u * v, u * invert(v), v * invert(v) * u, u ** n, (u * v) ** n):
        assert_shared_pairs(w)


@PROPERTY
@given(fibred(count=2), st.integers(-12, 12), st.integers(-30, 30))
def test_engine_results_hold_normalised_shared_pairs(case, n, raw):
    G, left, right = case
    p, r = G.element(_spell(left)), G.element(_spell(right))
    gen = G.scheme.generators[raw % len(G.scheme.generators)][0]
    results = (
        G.product(p.m, p.q, ((r.m, r.q.syllables), (0, ((gen, raw),)))),
        G.product(p.m, p.q, ((0, invert(p.q).syllables),)),
        G.power(p.m, p.q, n),
        G.inverse(p.m, p.q),
    )
    for q in (p.q, r.q, *(q for _, q in results)):
        assert_shared_pairs(q)


@PROPERTY
@given(braids, braids, st.integers(-12, 12))
def test_normal_forms_hold_normalised_shared_pairs(u, v, n):
    nu, nv = normal_form(u), normal_form(v)
    for e in (nu, nv, nu * nv, nu.inverse(), nu ** n):
        assert_shared_pairs(e.q)


@pytest.mark.parametrize(
    "spec, text, phi",
    [
        # crosscap x1 flips the fiber: a one-syllable core, and longer ones
        (workloads.CROSSCAP, "h^3 x1", -1),
        (workloads.CROSSCAP, "x1^2 h^-2", 1),
        (workloads.CROSSCAP, "c1 h^2 x1 c2", -1),
        (workloads.CROSSCAP, "x1 c1 h^5 x1^2 c2 x1^-1", 1),
        (workloads.TWO_BOUNDARY, "c2 d1 c1^3 h^-4 c2^-1", -1),
        (workloads.TWO_BOUNDARY, "d2^3 h", -1),
        # genus one: a commutator, and a one-syllable core conjugated twice
        (workloads.GENUS_ONE, "a1 b1 a1^-1 b1^-1 h^2", 1),
        (workloads.GENUS_ONE, "a1 c2 c1 h^-3 c1^-1 a1^-1", 1),
        (workloads.THREE_FIBERS, "c3^2 d2^3 h^7 c3^-2", 1),
        (workloads.TREFOIL, "d1^-2 c2 h", 1),
    ],
)
def test_powers_of_conjugated_cores_match_the_per_syllable_fold(spec, text, phi):
    G = FIBRATIONS[spec]
    p = G.element(text)
    assert G.phi_word(p.q) == phi
    for n in range(-7, 8):
        assert G.power(p.m, p.q, n) == reference_power(G, p.m, p.q, n), n


def test_raw_syllables_outside_the_order_wrap_into_the_fiber():
    G = FIBRATIONS[workloads.THREE_FIBERS]
    p = G.element("c3^2 c1")
    for exp in (-11, -5, 0, 5, 7, 12):
        pieces = ((3, (("c1", exp),)), (-1, (("c3", exp),)))
        assert G.product(p.m, p.q, pieces) == reference_product(G, p.m, p.q, pieces)
    for exp in (-7, 3, 10):
        pieces = ((2, (("b", exp),)), (0, parse_word(PSL2Z, "b a").syllables))
        assert B3.product(0, parse_word(PSL2Z, "a b"), pieces) == reference_product(
            B3, 0, parse_word(PSL2Z, "a b"), pieces
        )


def test_powers_repeat_the_cyclic_core_at_once():
    aba = CentralElement(0, parse_word(PSL2Z, "a b a"))
    assert aba ** 10**9 == CentralElement(1333333332, parse_word(PSL2Z, "a b a"))
    assert aba ** 999 == CentralElement(1332, identity(PSL2Z))


def test_letter_powers_fold_as_one_power():
    nf = normal_form(parse_braid("s1^100000"))
    assert nf == CentralElement(-100000, Word(PSL2Z, parse_word(PSL2Z, "b^2 a").syllables * 100000))
    assert TWO.element("d2^10000") == TWO.pow(TWO.generator("d2"), 10000)


def test_a_letter_power_is_pushed_without_a_copy():
    w = parse_braid("s1^2260 s2^-2260")
    normal_form(w)
    tracemalloc.start()
    try:
        nf = normal_form(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * sys.getsizeof(nf.q.syllables)


# -- runs of letters s_i^+-1 from the table of run normal forms ----------

RUN_LETTERS = sorted(braid3._CODE)
#: a run of 0 to 16 letters s_i^+-1, then one letter of another kind
segment = st.tuples(
    st.lists(st.sampled_from(RUN_LETTERS), max_size=16),
    st.one_of(
        st.tuples(st.sampled_from(("s1", "s2")), _nonzero(12).filter(lambda e: abs(e) > 1)),
        st.tuples(st.sampled_from(("x", "y", "h")), _nonzero(10**9)),
    ),
)
run_braids = st.lists(segment, max_size=4).map(
    lambda segments: BraidWord(tuple(x for run, other in segments for x in (*run, other)))
)


@PROPERTY
@given(run_braids, st.lists(st.sampled_from(RUN_LETTERS), max_size=16))
def test_runs_read_from_the_table_match_the_per_syllable_fold(w, tail):
    w = BraidWord(w.letters + tuple(tail))
    braid3._run.cache_clear()
    assert normal_form(w) == reference_normal_form(w)
    assert normal_form(w) == reference_normal_form(w)
    assert normal_form(w.inverse()) == reference_normal_form(w.inverse())


def test_the_table_of_runs_stays_bounded():
    braid3._run.cache_clear()
    for length in range(1, 6):
        for letters in product(RUN_LETTERS, repeat=length):
            normal_form(BraidWord(letters))
    rng = random.Random(18)
    hostile = BraidWord(tuple(rng.choice(RUN_LETTERS) for _ in range(10**5)))
    assert normal_form(hostile) == reference_normal_form(hostile)
    assert braid3._run.cache_info().currsize <= 1364


OTHER_LETTERS = ("x", "X^2", "y", "Y^-1", "h", "H^3", "s1^2", "S2^3", "s2^-2")


@pytest.mark.parametrize("length", [10**3, 10**4])
def test_long_runs_with_one_late_letter_of_another_kind_match_the_per_syllable_fold(
    monkeypatch, length
):
    rng = random.Random(length)
    held, run = [], braid3._run

    def holding(letters):
        piece = run(letters)
        held.append(letters)
        return piece

    braid3._run.cache_clear()
    monkeypatch.setattr(braid3, "_run", holding)
    texts = [rng.choice(("s1", "S1", "s2", "S2")) for _ in range(length)]
    whole = parse_braid(" ".join(texts))
    # the same letters as new tuples, not the ones parse_braid shares
    words = [whole, BraidWord(tuple((name, exp) for name, exp in whole.letters))]
    for other in OTHER_LETTERS:
        at = rng.randrange(length * 3 // 4, length + 1)
        words.append(parse_braid(" ".join(texts[:at] + [other] + texts[at:])))
    for w in words:
        assert normal_form(w) == reference_normal_form(w)
    # every entry the table stored was returned through the wrapper, so none holds another letter
    assert run.cache_info().currsize == len(set(held))
    assert held and all(letter in braid3._CODE for letters in held for letter in letters)


@contextmanager
def counted_products(extension=braid3._B3):
    """Count, for each call of the extension's product in order of entry, the pieces it reads."""
    calls, product = [], extension.product

    def counting(m, q, pieces):
        calls.append(0)
        index = len(calls) - 1

        def count():
            for piece in pieces:
                calls[index] += 1
                yield piece

        return product(m, q, count())

    extension.product = counting
    try:
        yield calls
    finally:
        del extension.product


@PROPERTY
@given(run_braids)
def test_a_run_of_l_letters_reaches_the_product_as_at_most_l_over_5_pieces(w):
    normal_form(w)
    expected, run = 0, 0
    for letter in (*w.letters, None):
        if letter in braid3._CODE:
            run += 1
            continue
        expected += ceil(run / 5) + (letter is not None)
        run = 0
    with counted_products() as calls:
        normal_form(w)
    assert calls[0] <= expected


@PROPERTY
@given(st.lists(st.lists(st.sampled_from(RUN_LETTERS), max_size=16), max_size=4))
def test_filling_the_table_takes_one_product_per_entry(runs):
    w = BraidWord(tuple(x for run in runs for x in (*run, ("x", 1))))
    braid3._run.cache_clear()
    with counted_products() as calls:
        normal_form(w)
    assert len(calls) - 1 <= braid3._run.cache_info().currsize
    assert calls[0] == sum(ceil(len(run) / 5) for run in runs) + len(runs)


#: the eight section letters, by syllable, and h^k with x^+-2, which carry no syllable
X_LETTERS, Y_LETTERS = parse_braid("x X").letters, parse_braid("y Y y^2 Y^2").letters
FIBRE_LETTERS = st.one_of(st.tuples(st.just("h"), _nonzero(9)),
                          st.sampled_from(parse_braid("x^2 X^2").letters))
#: a letter that breaks a run's alternation (x x, y Y^2, X^2 x) or that the table lacks
SPOILERS = parse_braid("x X y Y^2 x^3 y^-5 X^-7").letters


@st.composite
def section_run(draw):
    """Section letters whose syllables alternate, h^k and x^+-2 between them, and at times one
    letter that spoils the run."""
    letters, gens = [], draw(st.sampled_from(((X_LETTERS, Y_LETTERS), (Y_LETTERS, X_LETTERS))))
    for i in range(draw(st.integers(0, 10))):
        letters.append(draw(st.sampled_from(gens[i % 2])))
        if draw(st.booleans()):
            letters.append(draw(FIBRE_LETTERS))
    if draw(st.booleans()):
        letters.insert(draw(st.integers(0, len(letters))), draw(st.sampled_from(SPOILERS)))
    return letters


#: section runs between runs of letters s_i^+-1 and letters s_i^k
section_braids = st.lists(
    st.tuples(section_run(), st.lists(st.sampled_from(RUN_LETTERS), max_size=8),
              st.lists(st.tuples(st.sampled_from(("s1", "s2")), _nonzero(4)), max_size=2)),
    max_size=4,
).map(lambda parts: BraidWord(tuple(x for part in parts for letters in part for x in letters)))


@PROPERTY
@given(section_braids)
def test_section_runs_read_as_one_piece_match_the_per_syllable_fold(w):
    assert normal_form(w) == reference_normal_form(w)
    assert normal_form(w.inverse()) == reference_normal_form(w.inverse())


@pytest.mark.parametrize("text, pieces", [
    ("h^-5 y^2 x y x y x y^2 x y", 1),  # a spelled certificate
    ("x y^2 X Y h^3 X^2 x H Y^2", 1),
    ("X^2 x", 1),
    ("x^2 X^2 h", 1),
    ("x x", 2),
    ("y Y^2", 2),
    ("x^3 y", 2),
    ("h y^-5 x", 3),
    ("x y s1 S2 s1 X Y^2", 3),
    ("x y x^3 y x", 3),  # a letter the table lacks ends a run, and the run after it is one piece
    ("h x y X^-7 y x h", 3),
    ("x x y", 2),  # a repeated generator starts the next run
])
def test_a_section_run_is_one_piece_when_its_syllables_alternate(text, pieces):
    w = parse_braid(text)
    expected = reference_normal_form(w)
    normal_form(w)  # fills the table of runs
    with counted_products() as calls:
        assert normal_form(w) == expected
    assert calls == [pieces]


#: searches-shaped inputs: c (e1 e2^2 h^-1) c^-1 with e1 = Z y Z^-1 and e2 = y, and c [x, k0] c^-1
B3_GEN3 = ("s1 s2^-1 s1 x y^2 x y x^-1 y^-2 x^-1 y^2 h^-1 s1^-1 s2 s1^-1",
           "s2^-1 s2^-1 s1 x y^2 x y^2 x y^2 x y x^-1 y^-2 x^-1 y^-2 x^-1 y^-2 x^-1 y^2 h^-1"
           " s1^-1 s2 s2")
B3_REV = ("s2 s1 s2^-1 x y x y x y x^-1 y^-1 x^-1 y^-1 x^-1 y^-1 s2 s1^-1 s2^-1",
          "s1^-1 s2 s2 x y x y x y x y x y x^-1 y^-1 x^-1 y^-1 x^-1 y^-1 x^-1 y^-1 x^-1 y^-1"
          " s2^-1 s2^-1 s1")


@pytest.mark.parametrize("text", B3_GEN3)
def test_the_b3_gen3_decider_multiplies_seven_products_whatever_the_length(text):
    g = parse_braid(text)
    braid3.gen3_torsion_b3(g)  # fills the table of runs
    with counted_products() as calls:
        verdict = braid3.gen3_torsion_b3(g)
    # the normal form (run, section run, run), c z, e1 and e2 as conjugates of y, e2^2 as a
    # conjugate of y^2, e1 e2^2 h^-1, and the relation g (h1 g h1^-1) (k g k^-1)
    assert calls == [3, 1, 3, 3, 3, 2, 6]
    for k in verdict.certificate:
        with counted_products() as calls:
            assert normal_form(parse_braid(str(k.spell()))) == k
        assert calls == [1]  # h^m x y^e x ... is one section run


@pytest.mark.parametrize("text", B3_REV)
def test_the_b3_reversibility_decider_multiplies_three_products_whatever_the_length(text):
    g = parse_braid(text)
    braid3.reversible_b3(g)  # fills the table of runs
    with counted_products() as calls:
        braid3.reversible_b3(g)
    # the normal form (run, section run, run), then the reverser's lift and the commutator
    # witness's lift, each k g k^-1; [x, k0] itself takes no product
    assert calls == [3, 3, 3]


# -- conjugates as one product -------------------------------------------


@PROPERTY
@given(fibred(count=3))
def test_a_conjugate_is_one_product_as_the_mul_inv_chain_says(case):
    G, *texts = case
    p, k, j = (G.element(_spell(letters)) for letters in texts)
    assert G.conjugated(p, k) == G.mul(G.mul(k, p), G.inv(k))
    folded = G.product(p.m, p.q, G.conjugate_pieces(p, k) + G.conjugate_pieces(p, j))
    chain = G.mul(G.mul(p, G.conjugated(p, k)), G.mul(G.mul(j, p), G.inv(j)))
    assert SeifertPair(*folded) == chain


@PROPERTY
@given(braids, braids, braids)
def test_a_b3_conjugate_is_one_product_as_the_mul_inv_chain_says(w, k, j):
    nw, nk, nj = normal_form(w), normal_form(k), normal_form(j)
    assert nw.conjugated_by(nk) == nk * nw * nk.inverse()
    chain = nw * (nk * nw * nk.inverse()) * (nj * nw * nj.inverse())
    assert braid3.gen3_relation(nw, nk, nj) == chain


def chained_relation(d, element, conjugators):
    """gen_n_relation_holds on boundary data, through mul and inv of every conjugate."""
    G = seifert_group(d)
    g = G.element(element)
    total = g
    for text in conjugators:
        k = G.element(text)
        total = G.mul(total, G.mul(G.mul(k, g), G.inv(k)))
    return not g.is_identity and total.is_identity


@pytest.mark.parametrize("spec", sorted(workloads.FIBER_ORDERS))
def test_the_folded_gen_n_relation_agrees_with_the_mul_inv_chain(spec):
    d = parse_seifert(spec)
    found = 0
    for n in (2, 3, 4, 5, 6, 8, 10, 12):
        cert = gen_n_certificate(d, n)
        if cert is None:
            continue
        found += 1
        element, conjugators = cert.element, cert.conjugators
        for cs in (conjugators, conjugators[1:], conjugators[::-1], conjugators + ("h",),
                   tuple(c + " c1" for c in conjugators)):
            assert gen_n_relation_holds(d, element, cs) == chained_relation(d, element, cs)
        assert gen_n_relation_holds(d, element, conjugators)
    assert found


#: the benchmark's data sets, and a closed base of orbifold Euler characteristic -1
POWER_FORM_DATA = (*sorted(workloads.FIBER_ORDERS), "(O,o,1|0;(2,1),(2,1));boundaries=0")


@pytest.mark.parametrize("spec", POWER_FORM_DATA)
def test_the_conjugators_are_powers_of_one_k_so_the_power_form_is_the_listed_relation(spec):
    # g * prod_l K^l g K^-l telescopes to (g K)^n K^-n; on a closed base both
    # are multiplied in the group drilled along one more fiber
    d = parse_seifert(spec)
    G = seifert_group(parse_seifert(spec.replace("boundaries=0", "boundaries=1")))
    found = 0
    for n in (*range(2, 13), 60):
        cert = gen_n_certificate(d, n)
        if cert is None:
            continue
        found += 1
        g, K = G.element(cert.element), G.element(cert.conjugators[0])
        for l, text in enumerate(cert.conjugators, start=1):
            assert G.element(text) == G.pow(K, l), (n, l)
        assert G.pow(G.mul(g, K), n) == G.pow(K, n)
        assert verify_certificate(seifert_gen_n_certificate(spec, cert)), n
    assert found


README_DATA = "(O,o,0|1,(2,1),(3,1));boundaries=1"


def test_the_gen_n_decider_multiplies_a_number_of_pieces_independent_of_n():
    d = parse_seifert(README_DATA)
    G = seifert_group(d)
    gen_n_certificate(d, 2)  # the group's own set-up is not counted
    counts = []
    for n in (10, 10**3, 10**5):
        with counted_products(G) as calls:
            cert = gen_n_certificate(d, n)
        assert len(cert.conjugators) == n - 1
        counts.append(calls)
    assert counts[0] == counts[1] == counts[2]
    assert sum(counts[0]) < 20, counts[0]


#: data away from the trefoil, TWO_BOUNDARY and CROSSCAP with phi = -1 letters,
#: and three boundaries whose only certificates are the fiber under a flipping d1
MUTATION_DATA = (workloads.TWO_BOUNDARY, workloads.GENUS_ONE, workloads.CROSSCAP,
                 workloads.THREE_FIBERS, "(O,o,0|0);boundaries=3;phi:d1=-1,d2=-1")


@pytest.mark.parametrize("spec", MUTATION_DATA)
def test_a_gen_n_certificate_with_one_token_changed_verifies_as_the_mul_inv_chain_says(spec):
    d = parse_seifert(spec)
    names = presentation(d).generators
    replacements = (*(f"{name}{exp}" for name in names for exp in ("", "^-1", "^2")), "1")
    checked = valid = 0
    for n in (2, 3, 4, 6):
        cert = gen_n_certificate(d, n)
        if cert is None:
            continue
        payload = seifert_gen_n_certificate(spec, cert)
        assert verify_certificate(payload)
        texts = [payload["element"], *payload["conjugators"]]
        for slot, text in enumerate(texts):
            parts = text.split()
            for i, r in product(range(len(parts)), replacements):
                if r == parts[i]:
                    continue
                element, *conjugators = texts[:slot] + [
                    " ".join(parts[:i] + [r] + parts[i + 1:])] + texts[slot + 1:]
                mutated = dict(payload, element=element, conjugators=conjugators)
                expected = chained_relation(d, element, conjugators)
                assert verify_certificate(mutated) == expected, mutated
                checked += 1
                valid += expected
    assert checked > 100 and valid < checked


# -- inverses read off in one pass ---------------------------------------

#: the benchmark's five fibrations, two of them with phi = -1 letters
INVERSE_DATA = (
    "(O,o,0 | 1; (2,1),(3,1)); boundaries=1",
    "(O,o,0 | 0; (4,1),(4,1)); boundaries=2; phi: d1=-1,d2=-1",
    "(O,o,1 | 1; (2,1),(4,1)); boundaries=1",
    "(N,1 | 0; (2,1),(2,1)); boundaries=1; phi: x1=-1",
    "(O,o,0 | -1; (2,1),(3,1),(5,2)); boundaries=2",
)
EXTENSIONS = (B3, *(SeifertGroup(parse_seifert(spec)) for spec in INVERSE_DATA))


@st.composite
def central_pairs(draw):
    """An extension and a pair (m, q) over it."""
    E = draw(st.sampled_from(EXTENSIONS))
    names = [name for name, _ in E.scheme.generators]
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.integers(-9, 9)), max_size=12))
    return E, draw(st.integers(-10**9, 10**9)), reduce(pairs, E.scheme)


def test_the_inverse_data_cover_flipping_letters():
    assert [bool(E._flips) for E in EXTENSIONS] == [False, False, True, False, True, False]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(central_pairs())
def test_the_one_pass_inverse_matches_the_cancelling_product(case):
    E, m, q = case
    q_inv = invert(q)
    drift, rest = E.product(0, q_inv, ((m, q.syllables),))
    assert rest.is_identity
    inv_m, inv_q = E.inverse(m, q)
    assert (inv_m, inv_q) == (-drift, q_inv)
    assert E.product(m, q, ((inv_m, inv_q.syllables),)) == (0, identity(E.scheme))
    assert E.product(inv_m, inv_q, ((m, q.syllables),)) == (0, identity(E.scheme))
