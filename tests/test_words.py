import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gentorsion import words
from gentorsion.braid3 import CentralElement
from gentorsion.errors import ParseError, TrivialElement, UnknownGenerator
from gentorsion.modular import Gen3Verdict, Gen3Witness, IntMatrix2, Verdict, to_matrix
from gentorsion.oracle import SearchBudget, SweepReport
from gentorsion.seifert import (
    GenNCertificate,
    PowersOfH,
    Presentation,
    SeifertPair,
    TwoHalfTwists,
    parse_seifert,
    seifert_group,
)
from gentorsion.words import (
    PSL2Z,
    CyclicWord,
    GroupScheme,
    Word,
    conjugate_to_inverse,
    conjugated,
    cyclic_reduce,
    enumerate_reduced,
    identity,
    invert,
    is_conjugate,
    mirror_centres,
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
        assert reduce(word.syllables, PSL2Z) == word


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


@pytest.mark.parametrize("text, message", [
    ("a:2, b:1", "order of 'b' must be >= 2 or None"),
    ("a:2, a:3", "duplicate generator 'a'"),
    ("a:2, 1b:3", "bad generator name '1b'"),
    ("a:2, b:three", "bad order 'three'"),
    ("a:2, b3", "expected name:order in 'b3'"),
])
def test_parse_scheme_names_the_position_of_the_bad_entry(text, message):
    with pytest.raises(ParseError) as caught:
        parse_scheme(text)
    assert str(caught.value) == f"{message} (at position 5)"
    assert caught.value.position == 5


def test_parse_scheme():
    s = parse_scheme("a:2, b:3, d:inf")
    assert s.order("a") == 2
    assert s.order("b") == 3
    assert s.order("d") is None
    assert s.names() == ("a", "b", "d")
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
        assert isinstance(CyclicWord.from_word(word), Word)
        assert (invert(core) * core).is_identity


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
        assert reduce(word.syllables, PSL2Z) == word


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
    for name in ("1", "b^2", "a b", "_a"):  # names text could not spell
        with pytest.raises(ValueError):
            GroupScheme(((name, 2),))
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
        for gen, exp in word.syllables:
            order = PSL2Z.order(gen)
            assert 1 <= exp < order
        for x, y in zip(word.syllables, word.syllables[1:]):
            assert x[0] != y[0]


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
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
        if order is not None:
            exp %= order
        if exp:
            stack.append((gen, exp))
    return Word(scheme, tuple(stack))


def old_mul(u, v):
    return old_reduce(u.syllables + v.syllables, u.scheme)


def old_invert(w):
    return old_reduce([(g, -e) for g, e in reversed(w.syllables)], w.scheme)


def old_pow(w, n):
    if n < 0:
        return old_pow(old_invert(w), -n)
    return old_reduce(w.syllables * n, w.scheme)


def old_cyclic_core(w):
    core = list(w.syllables)
    conj = []
    while len(core) >= 2 and core[0][0] == core[-1][0]:
        gen, exp = core[0]
        conj.append((gen, exp))
        merged = old_reduce([(gen, core[-1][1] + exp)], w.scheme)
        core = core[1:-1] + list(merged.syllables)
    return Word(w.scheme, tuple(core)), old_reduce(conj, w.scheme)


def old_canonical_rotation(scheme, sylls):
    if len(sylls) <= 1:
        return sylls
    names = scheme.names()
    rotations = [sylls[i:] + sylls[:i] for i in range(len(sylls))]
    return min(rotations, key=lambda r: [(names.index(gen), exp) for gen, exp in r])


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
    for gen, exp in w.syllables:
        step = base[gen]
        for _ in range(exp - 1):
            step = step * base[gen]
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


def old_primitive_root(w):
    """primitive_root as it was: the first block length dividing the core."""
    core, p = old_cyclic_core(w)
    sylls, n = core.syllables, len(core)
    if n == 1:
        root = Word(w.scheme, ((sylls[0][0], 1),))
    else:
        block_len = next(b for b in range(1, n + 1)
                         if n % b == 0 and sylls[:b] * (n // b) == sylls)
        root = Word(w.scheme, sylls[:block_len])
    return old_mul(old_mul(p, root), old_invert(p))


@pytest.mark.parametrize("scheme", [PSL2Z, MIXED], ids=["psl2z", "mixed"])
def test_primitive_root_matches_the_divisor_loop(scheme):
    @PROPERTY
    @given(word_pairs(scheme))
    def check(pair):
        for w in pair:
            if not w.is_identity:
                assert primitive_root(w) == old_primitive_root(w)

    check()


def old_mirror_centres(core, radius):
    """Every centre of the first period, its mirror compared pair by pair."""
    sylls, n = core.syllables, len(core)
    period = len(primitive_root(Word(core.scheme, sylls)))
    return [
        c for c in range(period)
        if all(
            old_mul(Word(core.scheme, (sylls[(c + d) % n],)),
                    Word(core.scheme, (sylls[(c - d) % n],))).is_identity
            for d in range(1, radius + 1)
        )
    ]


@pytest.mark.parametrize("scheme", [PSL2Z, MIXED], ids=["psl2z", "mixed"])
def test_mirror_centres_match_the_pairwise_oracle(scheme):
    @PROPERTY
    @given(word_pairs(scheme))
    def check(pair):
        for w in pair:
            if w.is_identity:
                continue
            core = CyclicWord.from_word(w)
            for radius in range(len(core) // 2 + 1):
                assert mirror_centres(core, radius) == old_mirror_centres(core, radius)

    check()


def test_mirror_centres_take_radii_up_to_half_the_core():
    core = CyclicWord.from_word(w("a b a b^2"))
    assert mirror_centres(core, 0) == [0, 1, 2, 3]
    for radius in (-1, 3):
        with pytest.raises(ValueError):
            mirror_centres(core, radius)
    # (a b a b^2)^2 repeats its mirrors with period 4
    assert mirror_centres(CyclicWord.from_word(w("a b a b^2") ** 2), 3) == [0, 2]


@PROPERTY
@given(reduced_words(PSL2Z, 24))
def test_to_matrix_matches_the_per_step_product(w):
    assert to_matrix(w) == old_to_matrix(w)


@PROPERTY
@given(st.lists(st.integers(0, 3), min_size=1, max_size=16))
def test_least_rotation_is_the_minimum_over_all_rotations(keys):
    k = words._least_rotation(keys)
    assert keys[k:] + keys[:k] == min(keys[i:] + keys[:i] for i in range(len(keys)))


class _CountedKeys(list):
    """Keys that count how often they are read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


_A, _B, _B2 = (0, 1), (1, 1), (1, 2)  # the keys of a, b and b^2
#: keys, and the start of their least rotation if only one start is least
ROTATION_KEYS = {
    "(ab)^n": ([_A, _B] * 10**5, None),
    "(ab)^n a b^2": ([_A, _B] * 10**5 + [_A, _B2], 0),
    "a^n b": ([_A] * 10**5 + [_B], 0),
    "descending": (list(range(10**5, 0, -1)), 10**5 - 1),
    "random": (random.Random(7).choices(range(4), k=10**5), None),
}


def _no_greater_rotation(keys, k, i):
    """Whether the rotation from k is at most the one from i."""
    n = len(keys)
    for t in range(n):
        a, b = keys[(k + t) % n], keys[(i + t) % n]
        if a != b:
            return a < b
    return True


@pytest.mark.parametrize("name", ROTATION_KEYS)
def test_least_rotation_reads_fewer_than_three_keys_per_key(name):
    keys, least = ROTATION_KEYS[name]
    counted = _CountedKeys(keys)
    k = words._least_rotation(counted)
    assert counted.reads <= 3 * len(keys)
    if least is not None:
        assert k == least
    elif name == "random":  # rotations of random keys differ within a few keys
        assert all(_no_greater_rotation(keys, k, i) for i in range(len(keys)))
    else:
        assert k % 2 == 0


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
    powers = [g for u, _ in cases for g in (u, u ** 2, u ** 3) if not g.is_identity]
    roots = [primitive_root(g) for g in powers]
    monkeypatch.setattr(words, "_MAX_CODE", 0)
    # fresh, equal schemes: one code point at most, so nearly every pattern is coded alone
    fresh = {scheme: GroupScheme(scheme.generators) for scheme in (MIXED, free)}
    cases = [(Word(fresh[u.scheme], u.syllables), Word(fresh[u.scheme], v.syllables))
             for u, v in cases]
    powers = [Word(fresh[g.scheme], g.syllables) for g in powers]
    assert [is_conjugate(u, v) for u, v in cases] == expected
    assert [primitive_root(g) for g in powers] == roots
    assert all(len(scheme.codes) <= 1 for scheme in fresh.values())


ROTATION_SYLLABLES = (("a", 1), ("b", 1), ("b", 2), ("d", 10**9))
#: a scheme whose table codes the first three, and no infinite-order syllable
ROTATION_SCHEME = parse_scheme("a:2, b:3, d:inf")
for _syllable in ROTATION_SYLLABLES:
    ROTATION_SCHEME.syllable(*_syllable)


@st.composite
def rotation_cases(draw):
    """A pattern and a text of its length: a rotation of it, another word, or one
    syllable outside the pattern put into a rotation."""
    pattern = tuple(draw(st.lists(st.sampled_from(ROTATION_SYLLABLES[:3]), max_size=9)))
    shift = draw(st.integers(0, max(len(pattern) - 1, 0)))
    text = pattern[shift:] + pattern[:shift]
    kind = draw(st.sampled_from(("rotation", "other", "outside")))
    if kind == "other":
        text = tuple(draw(st.lists(st.sampled_from(ROTATION_SYLLABLES[:3]),
                                   min_size=len(pattern), max_size=len(pattern))))
    elif kind == "outside" and text:
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + (ROTATION_SYLLABLES[3],) + text[at + 1:]
    return text, pattern


@PROPERTY
@given(rotation_cases())
@example(((), ()))
@example(((("a", 1),), (("a", 1),)))
@example(((("b", 1),), (("b", 2),)))
@example(((("d", 10**9), ("a", 1)), (("a", 1), ("a", 1))))
def test_rotation_offset_is_the_least_matching_rotation(case):
    text, pattern = case
    expected = next((t for t in range(max(len(text), 1)) if text[t:] + text[:t] == pattern), -1)
    assert words._rotation_offset(ROTATION_SCHEME.codes, text, pattern) == expected
    assert words._rotation_offset({}, text, pattern) == expected  # coded per pattern


def test_scheme_lookup_tables_stay_out_of_equality():
    again = parse_scheme("a:2, b:3")
    assert again == PSL2Z and hash(again) == hash(PSL2Z)
    assert repr(PSL2Z) == "GroupScheme(generators=(('a', 2), ('b', 3)))"
    assert "z" not in PSL2Z
    with pytest.raises(UnknownGenerator):
        PSL2Z.order("z")


@pytest.mark.parametrize("order", [None, 10**9], ids=["infinite", "billion"])
def test_syllable_tables_store_no_infinite_syllable_and_grow_with_distinct_ones(order):
    scheme = parse_scheme(f"a:2, d:{order or 'inf'}")
    text = " ".join(f"a d^{k}" for k in range(2, 5_002))  # 10^4 syllables, distinct d^k
    u = parse_word(scheme, text)
    seen = [u, invert(u), u * u, u * invert(u), invert(u) * u]
    assert len(u) == 10**4 and str(u) == text and seen[3].is_identity
    tables = (scheme.interned, scheme.inverses, scheme.spellings, scheme.spelled, scheme.codes)
    keys = [key for table in tables for key in table]
    if order is None:
        assert not [key for key in keys if key[0] == "d"]  # a syllable, or a spelling
    else:
        distinct = {s for w in seen for s in w.syllables}
        assert all(len(table) <= len(distinct) for table in tables)


def _made(monkeypatch, owner, name):
    """The keys that the maker owner.name makes an entry for from now on, in order.

    The makers are ``interned.make``, ``GroupScheme.inverse`` and
    ``words._spelling``; each takes the key last.
    """
    made, make = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: made.append(args[-1]) or make(*args))
    return made


@pytest.mark.parametrize("alternation", [("a", "d"), ("d", "a")], ids=["a-first", "d-first"])
def test_warm_tables_make_an_entry_for_each_infinite_order_syllable_only(monkeypatch, alternation):
    scheme = parse_scheme("a:2, d:inf")
    rng = random.Random(20)
    pairs = [(gen, 1 if gen == "a" else rng.choice((-1, 1)) * rng.randrange(1, 10**6))
             for gen in alternation * (10**4 // 2)]
    u = reduce(pairs, scheme)
    k = sum(gen == "d" for gen, _ in pairs)
    makers = ((scheme.interned, "make"), (GroupScheme, "inverse"), (words, "_spelling"))
    interned, inverses, spellings = (_made(monkeypatch, *maker) for maker in makers)
    v = invert(u)
    assert v.syllables == tuple((gen, -exp if gen == "d" else exp) for gen, exp in reversed(pairs))
    assert (len(interned), len(inverses), len(spellings)) == (0, k, 0)
    assert str(u) == words.format_tokens(pairs)
    assert (len(interned), len(inverses), len(spellings)) == (0, k, k)
    assert (u * v).is_identity  # the seam reads v's memo of u's syllables
    assert (len(interned), len(inverses), len(spellings)) == (0, k, k)


def test_a_seam_looks_up_one_inverse_until_its_first_pair_cancels(monkeypatch):
    free = parse_scheme("d:inf, e:inf")  # no table stores a syllable, so _made sees every lookup
    u = reduce([("d" if i % 2 else "e", i) for i in range(1, 10**4 + 1)], free)
    merging = Word(free, (("e", 5),) + u.syllables)
    inverses = _made(monkeypatch, GroupScheme, "inverse")
    for right in (u, merging):
        product = u * right
        assert len(product) == len(u) + len(right) - (right is merging)
        assert inverses == [right.syllables[0]]
        assert u._inverted is right._inverted is product._inverted is None
        inverses.clear()
    v = invert(u)
    inverses.clear()
    assert (u * v).is_identity and (v * u).is_identity and ~v == u
    assert inverses == []


def test_a_full_code_table_leaves_the_rotation_search_to_code_each_pattern(monkeypatch):
    monkeypatch.setattr(words, "_MAX_CODE", 3)
    scheme = parse_scheme("a:2, d:1000000000")
    rng = random.Random(34)
    u = reduce([("a", 1) if i % 2 else ("d", rng.randrange(1, 40)) for i in range(400)], scheme)
    assert len(scheme.codes) == 4 and sorted(scheme.codes.values()) == list(map(chr, range(4)))
    rotated = Word(scheme, u.syllables[151:] + u.syllables[:151])
    at = next(i for i, (gen, _) in enumerate(rotated.syllables) if gen == "d")
    changed = Word(scheme, rotated.syllables[:at] + (("d", 77),) + rotated.syllables[at + 1:])
    for v in (rotated, invert(u), changed, Word(scheme, u.syllables[:2] * 200)):
        assert is_conjugate(u, v) == old_is_conjugate(u, v)
    for g in (u, u ** 3, rotated ** 2, Word(scheme, u.syllables[:4] * 100)):
        assert primitive_root(g) == old_primitive_root(g)
    assert len(scheme.codes) == 4


SEAM_LENGTHS = sorted({2**k + d for k in range(13) for d in (-1, 0, 1)})


@pytest.mark.parametrize("scheme", [PSL2Z, parse_scheme("a:2, d:inf")], ids=["psl2z", "a-d"])
def test_seams_cancelling_around_powers_of_two_match_a_stack_reduction(scheme):
    """A seam cancels exactly m syllables, where _cancelled gallops to powers of two, then
    merges two syllables or meets the end of the right factor."""
    rng = random.Random(35)
    other = scheme.names()[1]
    exponents = (1, 2) if other == "b" else (-3, -1, 1, 4)
    for m in SEAM_LENGTHS:
        x = tuple(("a", 1) if i % 2 == 0 else (other, rng.choice(exponents)) for i in range(m))
        x_inverse = old_invert(Word(scheme, x)).syllables
        s = (other, rng.choice(exponents))
        for q in ((s,), ()):
            u, v = reduce((s,) + x, scheme), reduce(x_inverse + q, scheme)
            expected = old_reduce(u.syllables + v.syllables, scheme).syllables  # a plain stack
            assert len(expected) == 1 and len(u) + len(v) - 1 == 2 * m + len(q)
            for memo in (False, True):
                right = Word(scheme, v.syllables)
                if memo:
                    invert(right)
                assert (Word(scheme, u.syllables) * right).syllables == expected, (m, q, memo)


def test_bulk_tables_are_exact_dicts_and_warm_finite_words_make_no_entry(monkeypatch):
    rng = random.Random(36)
    billion = parse_scheme("a:2, d:1000000000")
    long_words = [
        _long_word(rng, 10**4),
        reduce([("a", 1) if i % 2 else ("d", rng.randrange(1, 30)) for i in range(10**4)], billion),
    ]  # reduce shares every syllable, so the tables are warm
    inverses = _made(monkeypatch, GroupScheme, "inverse")
    spellings = _made(monkeypatch, words, "_spelling")
    for u in long_words:
        scheme = u.scheme
        tables = (scheme.inverses, scheme.spellings, scheme.spelled, scheme.codes)
        assert all(type(table) is dict for table in tables)
        plain = Word(scheme, u.syllables)
        canonical = str(plain)
        assert len(u) == 10**4 and invert(plain).syllables == old_invert(u).syllables
        assert inverses == spellings == []
        assert str(parse_word(scheme, canonical)) is canonical  # kept, not spelled again


# -- the one record idiom ----------------------------------------------------


def test_records_fill_fields_from_values_then_keywords_then_defaults():
    verdict = Gen3Verdict(Verdict.NO, None, reason="odd")
    assert (verdict.tag, verdict.certificate, verdict.reason, verdict.witness) == (
        Verdict.NO, None, "odd", None
    )
    values = (2, 1, 1, 1, 1, -1, 1, 1, "", "c1 c1 h^-1", ("c1^-1",))
    assert GenNCertificate(*values).flipping == ""
    assert GenNCertificate(*values, flipping="d1").flipping == "d1"
    assert GenNCertificate(*values[:-1], conjugators=("c1^-1",)) == GenNCertificate(*values)


@pytest.mark.parametrize(
    "values, named, message",
    [
        ((1, 2), {}, "missing field 'conjugator'"),
        ((1, 2, 3), {"exponent": 4}, "has no field 'exponent'"),
        ((1, 2, 3, 4), {}, "takes 4 values, got 5"),
        ((1, 2, 3), {"e1": 4}, "got two values for field 'e1'"),
    ],
    ids=["missing", "unknown", "too-many", "twice"],
)
def test_records_reject_what_a_named_tuple_rejects(values, named, message):
    with pytest.raises(TypeError, match=message):
        Gen3Witness(w("a b"), *values, **named)


def test_a_record_equals_only_a_record_of_its_own_class():
    z = w("a b")
    witness = Gen3Witness(z, 1, 2, z)
    assert witness == Gen3Witness(z, e1=1, e2=2, conjugator=z)
    assert hash(witness) == hash(Gen3Witness(z, 1, 2, z))
    assert witness != (z, 1, 2, z) and witness != Gen3Witness(z, 2, 1, z)
    # a CyclicWord is a Word, yet equals only a CyclicWord
    assert Word(PSL2Z, z.syllables) != CyclicWord(PSL2Z, z.syllables)
    # a CentralElement is a SeifertPair, yet the two are unequal both ways round
    pair, central = SeifertPair(1, z), CentralElement(1, z)
    assert pair != central and central != pair
    again = CentralElement(1, w("a b"))
    assert central == again and hash(central) == hash(again)
    # a record of one field, and one of none
    scheme = GroupScheme((("a", 2), ("b", 3)))
    assert scheme == PSL2Z and hash(scheme) == hash(PSL2Z)
    assert PowersOfH() == PowersOfH() and hash(PowersOfH()) == hash(PowersOfH())
    assert PowersOfH() != TwoHalfTwists(1, 2, 1, -1, 1)
    # data parsed twice is one value, and so one cached group
    text = "(O,o,0 | 1; (2,1),(3,1)); boundaries=1"
    data = parse_seifert(text)
    assert data == parse_seifert(text) and hash(data) == hash(parse_seifert(text))
    assert seifert_group(data) is seifert_group(parse_seifert(text))
    with pytest.raises(TypeError):
        iter(witness)


def test_to_dict_spells_nested_records_as_dicts_and_tuples_as_lists():
    report = SweepReport("pslz-gen3", SearchBudget(2, 1, 10), 3, 1, 1, 0, ({"input": "a"},))
    assert report.to_dict() == {
        "suite": "pslz-gen3",
        "budget": {"max_conjugator_syllables": 2, "max_central_exponent": 1, "max_candidates": 10},
        "checked": 3,
        "structural_yes": 1,
        "oracle_yes": 1,
        "oracle_missed": 0,
        "mismatches": [{"input": "a"}],
    }
    presentation = Presentation(("c1", "h"), (("c1^2", "h"), ("c1 h", "1")))
    assert presentation.to_dict() == {
        "generators": ["c1", "h"],
        "relations": [["c1^2", "h"], ["c1 h", "1"]],
    }


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
    other = Word(PSL2Z, (("b", 3 - flipped[1]),) + u.syllables[1:])
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
