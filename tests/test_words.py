import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gentorsion import words
from gentorsion.errors import ParseError, TrivialElement, UnknownGenerator
from gentorsion.modular import IntMatrix2, to_matrix
from gentorsion.words import (
    PSL2Z,
    CyclicWord,
    GroupScheme,
    Syllable,
    Word,
    abelian_image,
    conjugate_to_inverse,
    conjugated,
    cyclic_reduce,
    enumerate_reduced,
    identity,
    invert,
    is_conjugate,
    parse_scheme,
    parse_word,
    primitive_root,
    reduce,
)


def w(text):
    return parse_word(PSL2Z, text)


def test_reduce_merges_and_normalises():
    assert str(reduce([("a", 1), ("a", 1)], PSL2Z)) == "1"
    assert str(reduce([("b", 1), ("b", 1)], PSL2Z)) == "b^2"
    assert str(reduce([("b", 2), ("b", 2)], PSL2Z)) == "b"
    assert str(reduce([("a", 1), ("b", 1), ("b", 2), ("a", 1)], PSL2Z)) == "1"
    assert str(reduce([("b", -1)], PSL2Z)) == "b^2"


def test_reduce_is_idempotent_on_reduced_words():
    for word in enumerate_reduced(PSL2Z, 4):
        assert reduce(word.pairs(), PSL2Z) == word


def test_parse_and_format_round_trip():
    for text in ["1", "a", "b^2", "a b a b^2", "b a b^2 a"]:
        assert str(w(text)) == text
    assert str(w("a b^-1")) == "a b^2"
    assert str(w("1 a 1 b 1")) == "a b"


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        w("a ^2")
    with pytest.raises(UnknownGenerator):
        w("a c")
    with pytest.raises(ParseError):
        parse_scheme("a:2, :3")
    with pytest.raises(ParseError):
        parse_scheme("a:2, b:three")


def test_parse_scheme():
    s = parse_scheme("a:2, b:3, d:inf")
    assert s.order("a") == 2
    assert s.order("b") == 3
    assert s.order("d") is None
    assert s.index("d") == 2
    assert "d" in s and "z" not in s


def test_group_axioms_on_small_words():
    words = list(enumerate_reduced(PSL2Z, 3))
    e = identity(PSL2Z)
    for u in words:
        assert u * e == u
        assert e * u == u
        assert u * invert(u) == e
        assert invert(invert(u)) == u
    for u, v in itertools.product(words[:20], repeat=2):
        assert invert(u * v) == invert(v) * invert(u)


def test_inverse_example():
    assert str(invert(w("a b a b^2"))) == "b a b^2 a"


def test_powers():
    t = w("a b")
    assert t ** 0 == identity(PSL2Z)
    assert t ** 3 == t * t * t
    assert t ** -2 == invert(t) * invert(t)


def test_cyclic_reduce_peels_conjugating_ends():
    core, conj = cyclic_reduce(w("a b a"))
    assert str(core) == "b"
    assert str(conj) == "a"
    # conj^-1 w conj has the cyclic form of the core
    got = invert(conj) * w("a b a") * conj
    assert CyclicWord.from_word(got) == core


def test_cyclic_reduce_of_cyclically_reduced_word_is_itself():
    core, conj = cyclic_reduce(w("b^2 a b a"))
    assert conj == identity(PSL2Z)
    assert len(core) == 4


def test_cyclic_reduce_invariant_always_holds():
    for word in enumerate_reduced(PSL2Z, 5):
        core, conj = cyclic_reduce(word)
        assert CyclicWord.from_word(invert(conj) * word * conj) == core


def test_canonical_rotation_identifies_rotations():
    u = w("a b a b^2")
    v = w("b a b^2 a")
    assert CyclicWord.from_word(u) == CyclicWord.from_word(v)
    assert CyclicWord.from_word(u) != CyclicWord.from_word(w("a b a b"))


def test_is_conjugate_basic():
    k = is_conjugate(w("a b"), w("b a"))
    assert k is not None
    assert conjugated(w("a b"), k) == w("b a")
    assert str(k) == "a"
    assert is_conjugate(w("b"), w("b^2")) is None
    assert is_conjugate(w("a"), w("b")) is None
    assert is_conjugate(identity(PSL2Z), identity(PSL2Z)) == identity(PSL2Z)
    assert is_conjugate(identity(PSL2Z), w("a")) is None


def test_is_conjugate_matches_brute_force_on_small_words():
    words = list(enumerate_reduced(PSL2Z, 4))
    conjugators = list(enumerate_reduced(PSL2Z, 3))
    for u, v in itertools.product(words[:30], words[:30]):
        structural = is_conjugate(u, v)
        brute = any(conjugated(u, k) == v for k in conjugators)
        if structural is not None:
            assert conjugated(u, structural) == v
        if brute:
            assert structural is not None


def test_conjugacy_is_an_equivalence_respected_by_conjugation():
    words = list(enumerate_reduced(PSL2Z, 6))
    for word in words[:200]:
        assert is_conjugate(word, word) is not None
    for word in words[:100]:
        for k in [w("a"), w("b"), w("a b")]:
            assert is_conjugate(word, conjugated(word, k)) is not None


def test_conjugate_to_inverse():
    r = conjugate_to_inverse(w("a b a b^2"))
    assert r is not None
    assert conjugated(w("a b a b^2"), r) == invert(w("a b a b^2"))
    assert str(r) == "a"
    assert conjugate_to_inverse(w("b")) is None
    assert conjugate_to_inverse(w("a b")) is None
    with pytest.raises(TrivialElement):
        conjugate_to_inverse(identity(PSL2Z))


def test_abelian_image():
    assert abelian_image(w("a b a b a b^2")) == {"a": 1, "b": 1}
    assert abelian_image(identity(PSL2Z)) == {"a": 0, "b": 0}
    free = parse_scheme("t:inf")
    assert abelian_image(parse_word(free, "t^5 t^-2")) == {"t": 3}


def test_primitive_root():
    assert primitive_root(w("b^2")) == w("b")
    root = primitive_root(w("a b a b a b"))
    assert root == w("a b")
    # conjugated powers keep a conjugated root
    g = conjugated(w("a b a b"), w("b"))
    root = primitive_root(g)
    assert root * root == g
    with pytest.raises(TrivialElement):
        primitive_root(identity(PSL2Z))


def test_primitive_root_generates_its_element():
    for word in enumerate_reduced(PSL2Z, 4):
        if word.is_identity:
            continue
        root = primitive_root(word)
        power = identity(PSL2Z)
        for _ in range(1, 13):
            power = power * root
            if power == word:
                break
        else:
            pytest.fail(f"{word} is not a power of its root {root}")


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_reduced(PSL2Z, 0)) == 1
    assert sum(1 for _ in enumerate_reduced(PSL2Z, 1)) == 4
    assert sum(1 for _ in enumerate_reduced(PSL2Z, 2)) == 8
    assert sum(1 for _ in enumerate_reduced(PSL2Z, 6)) == 50


def test_enumeration_yields_distinct_reduced_words():
    seen = set()
    for word in enumerate_reduced(PSL2Z, 5):
        assert word not in seen
        seen.add(word)
        assert reduce(word.pairs(), PSL2Z) == word


def test_enumeration_of_infinite_factor_needs_cap():
    free = parse_scheme("t:inf")
    with pytest.raises(ValueError):
        list(enumerate_reduced(free, 2))
    words = list(enumerate_reduced(free, 1, max_exponent=3))
    assert [str(x) for x in words] == ["1", "t", "t^-1", "t^2", "t^-2", "t^3", "t^-3"]


def test_scheme_validation():
    with pytest.raises(ValueError):
        GroupScheme((("a", 2), ("a", 3)))
    with pytest.raises(ValueError):
        GroupScheme((("a", 1),))
    with pytest.raises(UnknownGenerator):
        PSL2Z.order("q")


def test_mixed_scheme_words():
    s = parse_scheme("c1:2, c2:3, d1:inf")
    word = parse_word(s, "c1 d1^-2 c2^2 d1")
    assert len(word) == 4
    assert invert(word) == parse_word(s, "d1^-1 c2 d1^2 c1")
    core, conj = cyclic_reduce(parse_word(s, "d1 c1 d1"))
    assert str(core) == "c1 d1^2"
    assert str(conj) == "d1"


def test_syllable_exponent_normalisation_bounds():
    for word in enumerate_reduced(PSL2Z, 6):
        for s in word.syllables:
            order = PSL2Z.order(s.gen)
            assert 1 <= s.exp < order
        for x, y in zip(word.syllables, word.syllables[1:]):
            assert x.gen != y.gen


# -- the quadratic kernel, kept as oracles --------------------------------
#
# These are the straightforward versions the linear kernel replaced: a
# linear-scan reduce behind every product and inverse, the minimum over all
# rotations, the rotation-by-rotation conjugacy scan and the per-step matrix
# product.  The kernel must agree with them word for word, conjugator
# included.


def old_reduce(raw, scheme):
    stack = []
    for gen, exp in raw:
        order = dict(scheme.generators)[gen]
        if stack and stack[-1].gen == gen:
            exp += stack.pop().exp
        if order is not None:
            exp %= order
        if exp:
            stack.append(Syllable(gen, exp))
    return Word(scheme, tuple(stack))


def old_mul(u, v):
    return old_reduce(u.pairs() + v.pairs(), u.scheme)


def old_invert(w):
    return old_reduce([(g, -e) for g, e in reversed(w.pairs())], w.scheme)


def old_pow(w, n):
    if n < 0:
        return old_pow(old_invert(w), -n)
    return old_reduce(w.pairs() * n, w.scheme)


def old_cyclic_core(w):
    core = list(w.syllables)
    conj = []
    while len(core) >= 2 and core[0].gen == core[-1].gen:
        first = core[0]
        conj.append((first.gen, first.exp))
        merged = old_reduce([(first.gen, core[-1].exp + first.exp)], w.scheme)
        core = core[1:-1] + list(merged.syllables)
    return Word(w.scheme, tuple(core)), old_reduce(conj, w.scheme)


def old_canonical_rotation(scheme, sylls):
    if len(sylls) <= 1:
        return sylls
    names = scheme.names()
    rotations = [sylls[i:] + sylls[:i] for i in range(len(sylls))]
    return min(rotations, key=lambda r: [(names.index(s.gen), s.exp) for s in r])


def old_is_conjugate(u, v):
    cu, pu = old_cyclic_core(u)
    cv, pv = old_cyclic_core(v)
    if len(cu) != len(cv):
        return None
    if len(cu) == 0:
        return identity(u.scheme)
    for t in range(len(cu)):
        if cu.syllables[t:] + cu.syllables[:t] == cv.syllables:
            prefix = Word(u.scheme, cu.syllables[:t])
            return old_mul(old_mul(pv, old_invert(prefix)), old_invert(pu))
    return None


def old_to_matrix(w):
    base = {"a": IntMatrix2.of(0, -1, 1, 0), "b": IntMatrix2.of(0, 1, -1, -1)}
    out = IntMatrix2.identity()
    for s in w.syllables:
        step = base[s.gen]
        for _ in range(s.exp - 1):
            step = step * base[s.gen]
        out = out * step
    return out


# -- the linear kernel against the oracles --------------------------------

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
MIXED = parse_scheme("c1:4, c2:4, d1:inf")


def raw_words(scheme, max_size):
    gens = st.sampled_from(scheme.names())
    return st.lists(st.tuples(gens, st.integers(-5, 5)), max_size=max_size)


def reduced_words(scheme, max_size=10):
    return raw_words(scheme, max_size).map(lambda raw: old_reduce(raw, scheme))


def word_pairs(scheme):
    """(u, v) pairs, most of them conjugate, some of them proper powers."""

    @st.composite
    def pairs(draw):
        u = draw(reduced_words(scheme, 6))
        u = old_pow(u, draw(st.sampled_from((1, 1, 2, 3))))
        k = draw(reduced_words(scheme, 6))
        kind = draw(st.sampled_from(("conjugate", "inverse", "other")))
        if kind == "conjugate":
            return u, old_mul(old_mul(k, u), old_invert(k))
        if kind == "inverse":
            return u, old_mul(old_mul(k, old_invert(u)), old_invert(k))
        return u, draw(reduced_words(scheme, 12))

    return pairs()


@pytest.mark.parametrize("scheme", [PSL2Z, MIXED], ids=["psl2z", "mixed"])
def test_reduce_matches_the_oracle(scheme):
    @PROPERTY
    @given(raw_words(scheme, 16))
    def check(raw):
        assert reduce(raw, scheme) == old_reduce(raw, scheme)

    check()


@pytest.mark.parametrize("scheme", [PSL2Z, MIXED], ids=["psl2z", "mixed"])
def test_products_inverses_and_powers_match_the_oracle(scheme):
    @PROPERTY
    @given(reduced_words(scheme), reduced_words(scheme), st.integers(-7, 7))
    def check(u, v, n):
        assert u * v == old_mul(u, v)
        assert invert(u) == old_invert(u)
        assert u ** n == old_pow(u, n)

    check()


@pytest.mark.parametrize("scheme", [PSL2Z, MIXED], ids=["psl2z", "mixed"])
def test_cyclic_reduction_matches_the_oracle(scheme):
    @PROPERTY
    @given(word_pairs(scheme))
    def check(pair):
        for w in pair:
            core, conj = old_cyclic_core(w)
            expected = CyclicWord(scheme, old_canonical_rotation(scheme, core.syllables))
            assert cyclic_reduce(w) == (expected, conj)
            assert CyclicWord.from_word(w) == expected

    check()


@pytest.mark.parametrize("scheme", [PSL2Z, MIXED], ids=["psl2z", "mixed"])
def test_is_conjugate_gives_the_oracle_conjugator(scheme):
    @PROPERTY
    @given(word_pairs(scheme))
    def check(pair):
        u, v = pair
        assert is_conjugate(u, v) == old_is_conjugate(u, v)

    check()


@PROPERTY
@given(reduced_words(PSL2Z, 24))
def test_to_matrix_matches_the_per_step_product(w):
    assert to_matrix(w) == old_to_matrix(w)


@PROPERTY
@given(st.lists(st.integers(0, 3), min_size=1, max_size=16))
def test_least_rotation_is_the_minimum_over_all_rotations(keys):
    k = words._least_rotation(keys)
    assert keys[k:] + keys[:k] == min(keys[i:] + keys[:i] for i in range(len(keys)))


# codes sharing a low or a high half, and one far beyond 2^16
CODES = st.sampled_from((0, 1, 257, 65536, 65537, 2**31 + 1))


@PROPERTY
@given(st.lists(CODES, max_size=24), st.lists(CODES, min_size=1, max_size=4))
@example([1, 65536], [65537])  # halves (0, 1), (1, 0) must not match (1, 1)
def test_two_code_point_form_matches_only_whole_codes(text, pattern):
    expected = next(
        (i for i in range(len(text) - len(pattern) + 1) if text[i:i + len(pattern)] == pattern),
        -1,
    )
    assert words._wide(text).find(words._wide(pattern)) // 2 == expected


def test_rotation_search_encodes_huge_alphabets_in_two_code_points(monkeypatch):
    cases = [
        (u, v)
        for u in enumerate_reduced(MIXED, 3, max_exponent=2)
        for v in (u, invert(u), conjugated(u, parse_word(MIXED, "c1 d1")))
        if not u.is_identity
    ]
    free = parse_scheme("s:2, t:inf")
    u = reduce([("s", 1) if i % 2 else ("t", i) for i in range(2, 2_000)], free)
    cases.append((u, Word(free, u.syllables[701:] + u.syllables[:701])))
    cases.append((u, invert(u)))
    expected = [is_conjugate(u, v) for u, v in cases]
    assert expected[-2] is not None and expected[-1] is None
    monkeypatch.setattr(words, "_MAX_CODE", 0)
    assert [is_conjugate(u, v) for u, v in cases] == expected


def test_scheme_lookup_tables_stay_out_of_equality():
    again = parse_scheme("a:2, b:3")
    assert again == PSL2Z and hash(again) == hash(PSL2Z)
    assert repr(PSL2Z) == "GroupScheme(generators=(('a', 2), ('b', 3)))"
    assert "z" not in PSL2Z
    with pytest.raises(UnknownGenerator):
        PSL2Z.index("z")


# -- sizes the quadratic kernel could not reach ---------------------------
#
# On the rotation-by-rotation kernel each of these took minutes; they pin
# linear behaviour without a wall-clock threshold.


def _long_word(rng, syllables):
    return reduce(
        [("a", 1) if i % 2 else ("b", rng.choice((1, 2))) for i in range(syllables)], PSL2Z
    )


def test_twenty_thousand_syllable_cyclic_words_and_conjugacy():
    rng = random.Random(4)
    u = _long_word(rng, 20_000)
    rotated = Word(PSL2Z, u.syllables[7001:] + u.syllables[:7001])
    assert CyclicWord.from_word(u) == CyclicWord.from_word(rotated)
    k = is_conjugate(u, rotated)
    assert conjugated(u, k) == rotated
    flipped = u.syllables[0]
    other = Word(PSL2Z, (Syllable("b", 3 - flipped.exp),) + u.syllables[1:])
    assert is_conjugate(u, other) is None


def test_cyclic_reduce_peels_a_ten_thousand_syllable_conjugator():
    rng = random.Random(5)
    u = _long_word(rng, 2_000)
    z = _long_word(rng, 10_000)
    g = z * u * invert(z)
    core, conj = cyclic_reduce(g)
    assert len(g) > 20_000 and core == CyclicWord.from_word(u)
    assert len(conj) > 9_900
    assert CyclicWord.from_word(invert(conj) * g * conj) == core
