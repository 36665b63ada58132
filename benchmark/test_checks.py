"""Cross-checks of the benchmark's independent checkers on small inputs.

Run from the repository root with ``python3 -m pytest benchmark -q``.
The reference answers come from the brute-force searches in
``gentorsion.oracle``.
"""

import math
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from gentorsion import (  # noqa: E402
    PSL2Z,
    SeifertGroup,
    enumerate_reduced,
    gen3_torsion,
    gen_n_certificate,
    normal_form,
    parse_braid,
    parse_seifert,
    parse_word,
)
from gentorsion.oracle import SearchBudget, brute_gen3, brute_reversible  # noqa: E402

SMALL = SearchBudget(max_conjugator_syllables=4)


def test_mirror_test_agrees_with_search_and_brute_force():
    # on every hyperbolic word of even a-exponent sum up to 10 syllables, a
    # passing mirror test is confirmed by a certificate from gentorsion's
    # search, and a failing one by the brute force finding none
    yes = no = 0
    for w in enumerate_reduced(PSL2Z, 10):
        text = str(w)
        if w.is_identity or checks.psl_trace(text) <= 2 or checks.a_parity(text):
            continue
        if checks.mirror_gen3(text):
            certificate = gen3_torsion(w).certificate
            assert certificate is not None, text
            assert checks.psl_gen3_relation(text, *map(str, certificate))
            yes += 1
        else:
            assert brute_gen3(w, SMALL) is None, text
            no += 1
    assert yes > 10 and no > 0


def test_mirror_test_rejects_the_false_unknowns():
    for text in workloads.GEN3_FALSE_UNKNOWN:
        assert checks.psl_trace(text) > 2 and not checks.a_parity(text)
        assert not checks.mirror_gen3(text)
        assert brute_gen3(parse_word(PSL2Z, text), SMALL) is None


def test_unbalanced_parabolic_products_are_not_reversible():
    budget = SearchBudget(max_conjugator_syllables=6)
    for k in range(1, 4):
        for l in range(1, 4):
            text = " ".join(["a b"] * k + ["a b^2"] * l)
            reverser = brute_reversible(parse_word(PSL2Z, text), budget)
            assert (reverser is not None) == (k == l), text
            if reverser is not None:
                assert checks.psl_conjugates(str(reverser), text, checks.inverse_text(text))


def test_traces_separate_conjugacy_classes():
    rng = random.Random(3)
    for _ in range(50):
        u = workloads.psl(workloads.psl_pairs(rng, 6))
        k = workloads.psl(workloads.psl_pairs(rng, 5, "b"))
        v = f"{k} {u} {checks.inverse_text(k)}"
        assert checks.psl_trace(u) == checks.psl_trace(v)
        assert checks.psl_conjugates(k, u, v)


def test_b3_images_respect_the_relations():
    img = checks.b3_image
    assert img("s1 s2 s1") == img("s2 s1 s2") == img("x")
    assert img("x^2") == img("y^3") == img("h")
    assert img("h s1 H S1") == checks.B3_IDENTITY
    assert img("h^2")[0] == checks.IDENTITY and img("h^2")[1] == 12
    for b in (1, 0, -2):
        tre = lambda text: checks.trefoil_image(text, b)  # noqa: E731
        assert tre("c1^2") == tre("c2^3") == tre("h")
        assert checks.b3_mul(tre("c1 c2 d1"), tre(f"h^{b}")) == checks.B3_IDENTITY


def test_b3_images_match_the_program_normal_form():
    rng = random.Random(5)
    for n in (1, 5, 30, 200):
        text = checks.word_text(workloads.random_braid(rng, n))
        nf = normal_form(parse_braid(text))
        assert checks.b3_of_normal_form(nf.m, str(nf.q)) == checks.b3_image(text)


def test_trefoil_images_match_the_seifert_group():
    group = SeifertGroup(parse_seifert(workloads.TREFOIL))
    rng = random.Random(7)
    for _ in range(30):
        text = checks.word_text(workloads._seifert_word(rng, ("c1", "c2", "d1", "h"), 6))
        pair = group.element(text)
        spelled = group.spell(pair)
        assert checks.trefoil_image(spelled, workloads.TREFOIL_B) == checks.trefoil_image(
            text, workloads.TREFOIL_B)


def test_gen_n_answers_follow_the_fiber_orders():
    for spec, orders in workloads.FIBER_ORDERS.items():
        data = parse_seifert(spec)
        for n in range(2, 61):
            expected = any(math.gcd(n, mu) > 1 for mu in orders)
            assert (gen_n_certificate(data, n) is not None) == expected, (spec, n)


def test_search_instances_are_hyperbolic():
    for item in workloads.make_round("searches", 1):
        if item[0] == "gen3":
            assert checks.psl_trace(item[2]) > 2
        elif item[0] == "b3gen3" and item[1] == "yes":
            m = checks.b3_image(item[2])[0]
            assert abs(m[0] + m[3]) > 2


def test_every_generated_item_is_well_formed():
    for workload in workloads.GENERATORS:
        for seed in (1, 2):
            items = workloads.make_round(workload, seed)
            assert items == workloads.make_round(workload, seed)
            for item in items:
                assert all(isinstance(f, str) and "\t" not in f and "\n" not in f for f in item)
