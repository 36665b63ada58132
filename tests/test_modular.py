import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentorsion.errors import (
    InvalidCertificate,
    NotElliptic,
    NotHyperbolic,
    NotParabolic,
    SchemeMismatch,
    TrivialElement,
)
from gentorsion.modular import (
    Axis,
    EllipticFixedPoint,
    Gen3Verdict,
    Gen3Witness,
    IntMatrix2,
    IsometryClass,
    Verdict,
    axis,
    classify,
    elliptic_fixed_point,
    gen3_product,
    gen3_torsion,
    parabolic_power,
    reverser_on_axis_check,
    reversible,
    to_matrix,
)
from gentorsion.oracle import SearchBudget, brute_gen3
from gentorsion.words import (
    PSL2Z,
    CyclicWord,
    Syllable,
    Word,
    conjugated,
    cyclic_reduce,
    enumerate_reduced,
    identity,
    invert,
    is_conjugate,
    parse_scheme,
    parse_word,
    reduce,
)


def w(text):
    return parse_word(PSL2Z, text)


def test_generator_matrices():
    # the defining matrix [[0,-1],[1,0]] normalises to its negative
    assert to_matrix(w("a")).rows() == ((0, 1), (-1, 0))
    assert to_matrix(w("b")).rows() == ((0, 1), (-1, -1))
    assert to_matrix(w("a b")).rows() == ((1, 1), (0, 1))
    assert to_matrix(w("a b a b^2")).rows() == ((2, 1), (1, 1))
    assert to_matrix(w("1")) == IntMatrix2.identity()


def test_matrix_normalisation_kills_sign():
    m = IntMatrix2.of(-1, 0, 0, -1)
    assert m == IntMatrix2.identity()
    with pytest.raises(ValueError):
        IntMatrix2.of(1, 0, 0, 2)


def test_to_matrix_is_a_homomorphism():
    words = list(enumerate_reduced(PSL2Z, 3))
    for u, v in itertools.product(words[:15], repeat=2):
        assert to_matrix(u * v) == to_matrix(u) * to_matrix(v)
    for word in words:
        assert to_matrix(word) * to_matrix(invert(word)) == IntMatrix2.identity()


def test_classify_frozen_examples():
    assert classify(w("1")) == IsometryClass.IDENTITY
    assert classify(w("a")) == IsometryClass.ELLIPTIC_ORDER_2
    assert classify(w("b")) == IsometryClass.ELLIPTIC_ORDER_3
    assert classify(w("b^2")) == IsometryClass.ELLIPTIC_ORDER_3
    assert classify(w("a b")) == IsometryClass.PARABOLIC
    assert classify(w("b^2 a")) == IsometryClass.PARABOLIC
    assert classify(w("a b a b^2")) == IsometryClass.HYPERBOLIC


def test_classify_agrees_with_cyclic_length():
    for word in enumerate_reduced(PSL2Z, 6):
        if word.is_identity:
            continue
        core, _ = cyclic_reduce(word)
        kind = classify(word)
        elliptic = kind in (
            IsometryClass.ELLIPTIC_ORDER_2,
            IsometryClass.ELLIPTIC_ORDER_3,
        )
        assert elliptic == (len(core) <= 1)


def test_classify_is_a_conjugacy_invariant():
    for word in enumerate_reduced(PSL2Z, 4):
        if word.is_identity:
            continue
        for k in [w("a"), w("b"), w("a b^2")]:
            assert classify(conjugated(word, k)) == classify(word)


def test_reversible_involution():
    rev = reversible(w("a"))
    assert rev is not None
    assert rev.reverser == identity(PSL2Z)
    u, v = rev.involution_pair
    assert u == w("a") and v.is_identity


def test_reversible_rejects_order_3_and_parabolic():
    assert reversible(w("b")) is None
    assert reversible(w("b^2")) is None
    assert reversible(w("a b")) is None
    assert reversible(w("a b a b")) is None


def test_reversible_hyperbolic_example():
    g = w("a b a b^2")
    rev = reversible(g)
    assert rev is not None
    assert rev.reverser == w("a")
    assert conjugated(g, rev.reverser) == invert(g)
    u, v = rev.involution_pair
    assert u == w("a") and v == w("b a b^2")
    assert u * v == g
    assert (u * u).is_identity and (v * v).is_identity


def test_reversible_raises_on_identity():
    with pytest.raises(TrivialElement):
        reversible(identity(PSL2Z))


def test_reversible_is_a_conjugacy_invariant():
    for word in enumerate_reduced(PSL2Z, 5):
        if word.is_identity:
            continue
        got = reversible(word) is not None
        for k in [w("b"), w("a b")]:
            assert (reversible(conjugated(word, k)) is not None) == got
        assert (reversible(invert(word)) is not None) == got


def test_reversible_certificates_always_check_out():
    for word in enumerate_reduced(PSL2Z, 6):
        if word.is_identity:
            continue
        rev = reversible(word)
        if rev is None:
            continue
        assert conjugated(word, rev.reverser) == invert(word)
        u, v = rev.involution_pair
        assert u * v == word
        assert (u * u).is_identity and (v * v).is_identity


def test_parabolic_power_frozen_examples():
    assert parabolic_power(w("a b")) == (1, identity(PSL2Z))
    n, c = parabolic_power(w("b^2 a"))
    assert n == -1
    assert conjugated(w("a b") ** -1, c) == w("b^2 a")
    n, c = parabolic_power(w("b a b a"))
    assert n == 2
    assert c == w("a")
    n, c = parabolic_power(w("a b") ** -3)
    assert n == -3


def test_parabolic_power_rejects_non_parabolics():
    for text in ["a", "b", "a b a b^2"]:
        with pytest.raises(NotParabolic):
            parabolic_power(w(text))


def test_gen3_order_3_certificate():
    verdict = gen3_torsion(w("b"))
    assert verdict.tag == Verdict.YES
    h1, k = verdict.certificate
    assert h1.is_identity and k.is_identity
    assert gen3_product(w("b"), h1, k).is_identity
    assert gen3_torsion(w("b^2")).tag == Verdict.YES


def test_gen3_involutions_are_obstructed():
    verdict = gen3_torsion(w("a"))
    assert verdict.tag == Verdict.NO
    assert "abelianization" in verdict.reason
    assert verdict.certificate is None


def test_gen3_parabolic_plus_two():
    g = w("a b a b")
    verdict = gen3_torsion(g)
    assert verdict.tag == Verdict.YES
    h1, k = verdict.certificate
    assert (h1, k) == (w("b^2"), w("b"))
    assert gen3_product(g, h1, k).is_identity


def test_gen3_parabolic_minus_two():
    g = w("a b") ** -2
    assert str(g) == "b^2 a b^2 a"
    verdict = gen3_torsion(g)
    assert verdict.tag == Verdict.YES
    h1, k = verdict.certificate
    # transported from (b, b^2) by the conjugator taking a b^2 a b^2 to g
    assert (h1, k) == (w("a b a"), w("a b^2 a"))
    assert verdict.witness.conjugator == w("a")
    assert gen3_product(g, h1, k).is_identity


def test_gen3_parabolic_certificates_transport_under_conjugation():
    for conj in ["a", "b", "a b", "b^2 a"]:
        g = conjugated(w("a b a b"), w(conj))
        verdict = gen3_torsion(g)
        assert verdict.tag == Verdict.YES
        h1, k = verdict.certificate
        assert gen3_product(g, h1, k).is_identity


def test_gen3_other_parabolic_powers_fail():
    assert gen3_torsion(w("a b")).tag == Verdict.NO
    assert gen3_torsion(w("a b") ** 3).tag == Verdict.NO
    verdict = gen3_torsion(w("a b") ** 4)
    assert verdict.tag == Verdict.NO
    assert "power 4" in verdict.reason
    assert gen3_torsion(w("a b") ** -4).tag == Verdict.NO


def test_gen3_hyperbolic_yes():
    g = w("a b a b^2")
    verdict = gen3_torsion(g)
    assert verdict.tag == Verdict.YES
    h1, k = verdict.certificate
    assert gen3_product(g, h1, k).is_identity
    assert verdict.witness is not None
    assert (verdict.witness.e1, verdict.witness.e2) == (1, 2)
    assert verdict.witness.z == w("a")


def test_gen3_hyperbolic_odd_a_sum_is_obstructed():
    verdict = gen3_torsion(w("a b a b a b^2"))
    assert verdict.tag == Verdict.NO
    assert "abelianization" in verdict.reason


def test_gen3_hyperbolic_unknown_within_bound():
    """(a b a b^2)^k has no b-syllable mirror centre, so it is decided: no."""
    for k in (2, 3, 4):
        g = w("a b a b^2") ** k
        verdict = gen3_torsion(g)
        assert verdict.tag == Verdict.NO
        assert "mirror centre" in verdict.reason
        assert verdict.certificate is None and verdict.witness is None


def test_gen3_bound_validation_and_identity():
    with pytest.raises(TrivialElement):
        gen3_torsion(identity(PSL2Z))


def test_gen3_verdict_is_invariant_under_conjugation_and_inversion():
    for word in enumerate_reduced(PSL2Z, 4):
        if word.is_identity:
            continue
        base = gen3_torsion(word).tag
        assert gen3_torsion(invert(word)).tag == base
        for k in [w("a"), w("b a")]:
            assert gen3_torsion(conjugated(word, k)).tag == base


def test_gen3_yes_certificates_always_check_out():
    for word in enumerate_reduced(PSL2Z, 5):
        if word.is_identity:
            continue
        verdict = gen3_torsion(word)
        if verdict.tag == Verdict.YES:
            h1, k = verdict.certificate
            assert gen3_product(word, h1, k).is_identity


def test_axis_frozen_example():
    ax = axis(w("a b a b^2"))
    assert (ax.p, ax.q, ax.disc) == (1, 2, 5)
    assert ax.center == Fraction(1, 2)
    assert ax.radius_sq == Fraction(5, 4)


def test_axis_requires_hyperbolic():
    for text in ["a", "b", "a b"]:
        with pytest.raises(NotHyperbolic):
            axis(w(text))


def test_axis_is_shared_with_inverse():
    for word in enumerate_reduced(PSL2Z, 5):
        if classify(word) != IsometryClass.HYPERBOLIC:
            continue
        assert axis(word) == axis(invert(word))


def test_elliptic_fixed_points():
    fp = elliptic_fixed_point(w("a"))
    assert (fp.re, fp.im_sq) == (Fraction(0), Fraction(1))
    fp = elliptic_fixed_point(w("b"))
    assert (fp.re, fp.im_sq) == (Fraction(-1, 2), Fraction(3, 4))
    with pytest.raises(NotElliptic):
        elliptic_fixed_point(w("a b"))


def test_reverser_fixed_point_sits_on_the_axis():
    g = w("a b a b^2")
    check = reverser_on_axis_check(g, w("a"))
    assert check.residual == 0
    assert check.within_tolerance
    # the second involution of the decomposition lies on the axis as well
    check = reverser_on_axis_check(g, w("b a b^2"))
    assert check.residual == 0


def test_non_reverser_involution_misses_the_axis():
    check = reverser_on_axis_check(w("a b a b^2"), w("b^2 a b"))
    assert check.residual == 2
    assert not check.within_tolerance


def test_an_involution_a_billionth_off_the_axis_misses_it():
    # the exact residual is below any float tolerance one would pick
    g = w("a b^2 a b^2 a b a b^2 a b^2 a b a b^2 a b^2 a b a b^2 a b a b a b^2 "
          "a b a b a b^2 a b")
    p = Word(PSL2Z, g.syllables[:32])
    r = conjugated(w("a"), p)
    assert classify(g) == IsometryClass.HYPERBOLIC
    assert conjugated(g, r) != invert(g)
    check = reverser_on_axis_check(g, r)
    assert check.residual == Fraction(1, 1295128170)
    assert 0 < check.residual_float < 1e-9
    assert not check.within_tolerance


def test_reverser_on_axis_check_input_validation():
    with pytest.raises(NotHyperbolic):
        reverser_on_axis_check(w("a"), w("a"))
    with pytest.raises(NotElliptic):
        reverser_on_axis_check(w("a b a b^2"), w("b"))


def test_all_hyperbolic_reversers_pass_the_axis_check():
    seen = 0
    for word in enumerate_reduced(PSL2Z, 6):
        if classify(word) != IsometryClass.HYPERBOLIC:
            continue
        rev = reversible(word)
        if rev is None:
            continue
        seen += 1
        check = reverser_on_axis_check(word, rev.reverser)
        assert check.residual == 0 and check.within_tolerance
    assert seen >= 5


def test_to_matrix_rejects_words_over_other_schemes():
    foreign = parse_word(parse_scheme("t:inf, u:5"), "u t")
    for decide in (to_matrix, classify, reversible, gen3_torsion):
        with pytest.raises(SchemeMismatch):
            decide(foreign)
    # an equal scheme built separately is the modular group
    assert classify(parse_word(parse_scheme("a:2, b:3"), "a b")) == IsometryClass.PARABOLIC


# -- the mirror scan against the bounded search it replaced -----------------


def reference_gen3(g: Word):
    """gen3_torsion as a bounded search decided it; None stands for unknown.

    A parabolic of power +-2 was conjugated onto (ab)^+-2 directly.  A
    hyperbolic g of even a-exponent sum was matched against
    z b^e1 z^-1 b^e2 for every z of at most ceil(L/2) + 3 syllables not
    ending in b, in enumerate_reduced order, e1 and e2 in 1, 2.
    """
    kind = classify(g)
    a, b = w("a"), w("b")
    if kind == IsometryClass.PARABOLIC:
        n, _ = parabolic_power(g)
        if n in (2, -2):
            e1 = e2 = 1 if n == 2 else 2
            c = is_conjugate(a * b ** e1 * a * b ** e2, g)
            return Gen3Verdict(
                Verdict.YES,
                certificate=(conjugated(b ** (3 - e2), c), conjugated(b ** e2, c)),
                reason=f"parabolic of power {n:+d}",
                witness=Gen3Witness(z=a, e1=e1, e2=e2, conjugator=c),
            )
        if n % 2:
            reason = f"abelianization obstruction: parabolic power {n} is odd"
        else:
            reason = (f"parabolic of power {n}: only powers +2 and -2 are products "
                      "of two order-3 elements")
        return Gen3Verdict(Verdict.NO, reason=reason)
    if kind != IsometryClass.HYPERBOLIC or sum(
        s.exp for s in g.syllables if s.gen == "a"
    ) % 2:
        return gen3_torsion(g)  # decided before any search, then as now
    core, _ = cyclic_reduce(g)
    for z in enumerate_reduced(PSL2Z, -(-len(core) // 2) + 3):
        if z.syllables and z.syllables[-1].gen == "b":
            continue
        for e1, e2 in itertools.product((1, 2), repeat=2):
            t = z * b ** e1 * invert(z) * b ** e2
            if CyclicWord.from_word(t) == core:
                c = is_conjugate(t, g)
                return Gen3Verdict(
                    Verdict.YES,
                    certificate=(conjugated(b ** (3 - e2), c), conjugated(b ** e2, c)),
                    witness=Gen3Witness(z=z, e1=e1, e2=e2, conjugator=c),
                )
    return None


def test_gen3_matches_the_bounded_search_wherever_it_decided():
    decided = unknown = 0
    for g in enumerate_reduced(PSL2Z, 12):
        if g.is_identity:
            continue
        expected, verdict = reference_gen3(g), gen3_torsion(g)
        if expected is None:
            unknown += 1
            assert verdict.tag == Verdict.NO, str(g)
        else:
            decided += 1
            assert verdict == expected, str(g)
    assert decided > 300 and unknown > 10


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
PSL_WORDS = st.lists(
    st.tuples(st.sampled_from(("a", "b")), st.integers(1, 2)), max_size=10
).map(lambda raw: reduce(raw, PSL2Z))


@PROPERTY
@given(PSL_WORDS, PSL_WORDS)
def test_gen3_agrees_with_brute_force_and_is_a_class_function(g, k):
    if g.is_identity:
        return
    tag = gen3_torsion(g).tag
    if brute_gen3(g, SearchBudget(max_conjugator_syllables=3)) is not None:
        assert tag == Verdict.YES
    assert gen3_torsion(invert(g)).tag == tag
    assert gen3_torsion(conjugated(g, k)).tag == tag


# -- sizes the bounded search could not reach ---------------------------------


def _alternating(rng, syllables, first):
    """A reduced word alternating a and b^(1|2), starting with ``first``."""
    gens = ("a", "b") if first == "a" else ("b", "a")
    return Word(PSL2Z, tuple(
        Syllable("a", 1) if gens[i % 2] == "a" else Syllable("b", rng.choice((1, 2)))
        for i in range(syllables)
    ))


def test_gen3_decides_twenty_thousand_syllable_words():
    rng = random.Random(6)
    z = _alternating(rng, 10_001, "a")
    b = w("b")
    c = _alternating(rng, 500, "b")
    g = conjugated(z * b * invert(z) * b ** 2, c)
    verdict = gen3_torsion(g)
    assert verdict.tag == Verdict.YES and len(cyclic_reduce(g)[0]) == 20_004
    wit = verdict.witness
    assert len(wit.z) == 10_001
    assert conjugated(wit.z * b ** wit.e1 * invert(wit.z) * b ** wit.e2, wit.conjugator) == g

    # flip the b-syllable next to the end of z^-1: the mirror around the
    # first b now breaks three syllables short of full radius
    zi = invert(z).syllables
    zi = zi[:-2] + (Syllable("b", 3 - zi[-2].exp),) + zi[-1:]
    core = z.syllables + (Syllable("b", 1),) + zi + (Syllable("b", 2),)
    n = len(core)

    def mirrored(x, y):
        return x.gen == y.gen and (x.exp + y.exp) % PSL2Z.order(x.gen) == 0

    def arm(centre):
        d = 1
        while d < n // 2 and mirrored(core[(centre + d) % n], core[centre - d]):
            d += 1
        return d - 1

    arms = [arm(i) for i in range(n) if core[i].gen == "b"]
    assert max(arms) == n // 2 - 3 == arm(10_001)
    verdict = gen3_torsion(conjugated(Word(PSL2Z, core), c))
    assert verdict.tag == Verdict.NO and "mirror centre" in verdict.reason


# -- the cyclic-core classifier against the trace it replaced ----------------


def reference_classify(g: Word) -> IsometryClass:
    """classify as the trace trichotomy decided it, the finite orders split by |trace|."""
    if g.is_identity:
        return IsometryClass.IDENTITY
    t = abs(to_matrix(g).trace)
    if t == 0:
        return IsometryClass.ELLIPTIC_ORDER_2
    if t == 1:
        return IsometryClass.ELLIPTIC_ORDER_3
    if t == 2:
        return IsometryClass.PARABOLIC
    return IsometryClass.HYPERBOLIC


def reference_parabolic_power(g: Word) -> tuple[int, Word]:
    """parabolic_power as it tried n = L/2, then -L/2, by conjugacy search."""
    if reference_classify(g) != IsometryClass.PARABOLIC:
        raise NotParabolic(f"{g} is not parabolic")
    n_abs, rem = divmod(len(CyclicWord.from_word(g)), 2)
    if rem:
        raise NotParabolic(f"{g} has odd cyclic length, not a parabolic form")
    for n in (n_abs, -n_abs):
        c = is_conjugate(w("a b") ** n, g)
        if c is not None:
            return n, c
    raise NotParabolic(f"{g} is not conjugate to a power of a*b")


def _random_word(rng, syllables):
    """A random reduced word: alternating, so as long as asked, from a or b."""
    first = rng.randrange(2)
    return Word(PSL2Z, tuple(
        PSL2Z.syllable("a", 1) if (i + first) % 2 == 0
        else PSL2Z.syllable("b", rng.choice((1, 2)))
        for i in range(syllables)
    ))


def _random_cases(rng, count, max_syllables):
    """Random words, and conjugates of random elliptic and parabolic ones."""
    for _ in range(count):
        k = _random_word(rng, rng.randrange(max_syllables // 4))
        yield _random_word(rng, rng.randrange(1, max_syllables + 1))
        yield conjugated(rng.choice((w("a"), w("b"), w("b^2"))), k)
        yield conjugated(rng.choice((w("a b"), w("a b^2"))) ** rng.randrange(1, 100), k)


def test_classify_matches_the_trace_on_every_short_word():
    seen = set()
    for g in enumerate_reduced(PSL2Z, 12):
        kind = classify(g)
        assert kind == reference_classify(g), str(g)
        seen.add(kind)
    assert seen == set(IsometryClass)


def test_classify_matches_the_trace_on_random_long_words():
    rng = random.Random(12)
    for g in _random_cases(rng, 100, 400):
        assert classify(g) == reference_classify(g), str(g)


def test_parabolic_power_matches_the_two_sign_search():
    rng = random.Random(13)
    short = [g for g in enumerate_reduced(PSL2Z, 12) if classify(g) == IsometryClass.PARABOLIC]
    cases = short + [g for g in _random_cases(rng, 60, 400)
                     if classify(g) == IsometryClass.PARABOLIC]
    assert len(short) > 50 and len(cases) > 100
    for g in cases:
        assert parabolic_power(g) == reference_parabolic_power(g), str(g)


def test_no_decider_multiplies_matrices():
    rng = random.Random(320)
    long_hyperbolic = _random_word(rng, 320_000)
    long_parabolic = conjugated(w("a b^2") ** 160_000, w("b a"))
    words = [g for g in enumerate_reduced(PSL2Z, 10) if not g.is_identity]
    with mock.patch("gentorsion.modular.to_matrix", side_effect=AssertionError):
        for g in words + [long_hyperbolic, long_parabolic]:
            kind = classify(g)
            reversible(g)
            gen3_torsion(g)
            if kind == IsometryClass.PARABOLIC:
                parabolic_power(g)
    assert classify(long_hyperbolic) == IsometryClass.HYPERBOLIC
    assert parabolic_power(long_parabolic)[0] == -160_000
