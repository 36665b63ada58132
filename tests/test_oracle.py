import ast
import importlib
import json
from pathlib import Path

import pytest

import gentorsion
from gentorsion.braid3 import CentralElement, normal_form, parse_braid
from gentorsion.errors import TrivialElement, UnknownSuite
from gentorsion.modular import gen3_product
from gentorsion.oracle import (
    SUITES,
    SWEEP_SEIFERT_DATA,
    SearchBudget,
    SweepReport,
    _candidates,
    brute_conjugate_b3,
    brute_gen3,
    brute_reversible,
    sweep_agreement,
)
from gentorsion.seifert import SeifertGroup, SeifertPair, parse_seifert, reversible_seifert
from gentorsion.words import PSL2Z, _Record, enumerate_reduced, identity, invert, parse_word


def w(text):
    return parse_word(PSL2Z, text)


def nf(text):
    return normal_form(parse_braid(text))


def test_budget_defaults_and_validation():
    b = SearchBudget()
    assert (b.max_conjugator_syllables, b.max_central_exponent, b.max_candidates) == (
        6,
        2,
        10**6,
    )
    for bad in ((0, 2, 10), (6, -1, 10), (6, 2, 0)):
        with pytest.raises(ValueError):
            SearchBudget(*bad)
    assert json.loads(json.dumps(b.to_dict())) == b.to_dict()


def test_brute_reversible_frozen():
    budget = SearchBudget(4, 2, 10**6)
    assert str(brute_reversible(w("a b a b^2"), budget)) == "a"
    # elliptic order-2 elements equal their own inverse
    assert brute_reversible(w("a"), budget).is_identity
    assert brute_reversible(w("a b"), budget) is None
    with pytest.raises(TrivialElement):
        brute_reversible(identity(PSL2Z), budget)


def test_brute_reversible_hits_are_reversers():
    budget = SearchBudget(3, 2, 10**6)
    from gentorsion.words import conjugated, enumerate_reduced, invert

    for word in enumerate_reduced(PSL2Z, 4):
        if word.is_identity:
            continue
        k = brute_reversible(word, budget)
        if k is not None:
            assert conjugated(word, k) == invert(word)


def test_brute_gen3_frozen():
    budget = SearchBudget(3, 2, 10**6)
    hit = brute_gen3(w("a b a b"), budget)
    assert tuple(map(str, hit)) == ("a", "a b^2")
    # the textbook pair is also a valid certificate for the same element
    assert gen3_product(w("a b a b"), w("b^2"), w("b")).is_identity
    assert tuple(map(str, brute_gen3(w("b"), budget))) == ("1", "1")
    assert brute_gen3(w("a"), budget) is None
    with pytest.raises(TrivialElement):
        brute_gen3(identity(PSL2Z), budget)


def test_brute_gen3_respects_candidate_cap():
    assert brute_gen3(w("a b a b"), SearchBudget(3, 2, 1)) is None


def test_brute_conjugate_b3_frozen():
    budget = SearchBudget(3, 2, 10**6)
    c = brute_conjugate_b3(nf("s1"), nf("s2"), budget)
    assert c == nf("s1 s2 s1")
    g = nf("s1 s2")
    assert brute_conjugate_b3(g, g, budget).is_identity
    assert brute_conjugate_b3(nf("h"), nf("s1"), budget) is None
    assert brute_conjugate_b3(nf("h"), nf("s1^6"), budget) is None


def test_sweep_pslz_reversible_agreement():
    report = sweep_agreement("pslz-reversible", SearchBudget(6, 2, 10**6))
    assert report.mismatches == ()
    assert report.checked == 49
    assert report.structural_yes == 11
    assert report.oracle_yes == 11
    assert report.oracle_missed == 0


def test_sweep_pslz_gen3_agreement():
    report = sweep_agreement("pslz-gen3", SearchBudget(3, 2, 10**6))
    assert report.mismatches == ()
    assert report.checked == 13
    assert report.structural_yes == 4


def test_sweep_b3_reversible_agreement():
    report = sweep_agreement("b3-reversible", SearchBudget(4, 2, 10**6))
    assert report.mismatches == ()
    assert report.checked == 109
    assert report.structural_yes == 4
    assert report.oracle_yes == 4
    assert report.oracle_missed == 0


def test_sweep_b3_conjugacy_agreement():
    report = sweep_agreement("b3-conjugacy", SearchBudget(4, 2, 10**6))
    assert report.mismatches == ()
    assert report.checked == 576
    assert report.structural_yes == 36
    assert report.oracle_missed == 0


def test_sweep_seifert_reversible_agreement():
    report = sweep_agreement("seifert-reversible", SearchBudget(3, 1, 10**6))
    assert report.mismatches == ()
    assert report.checked == 26
    assert report.structural_yes == 2
    assert report.oracle_yes == 2


def reference_sweep_seifert_reversible(budget):
    """The sweep as it was, trying every h^s rho for every element, counted by hand."""
    data = parse_seifert(SWEEP_SEIFERT_DATA)
    group = SeifertGroup(data)
    length = max(1, budget.max_conjugator_syllables // 2)
    span = range(-budget.max_central_exponent, budget.max_central_exponent + 1)
    reversers = [
        SeifertPair(s, rho)
        for rho in _candidates(group.scheme, budget, budget.max_conjugator_syllables)
        for s in span
    ]
    checked = structural_yes = oracle_yes = oracle_missed = 0
    mismatches = []
    for q in _candidates(group.scheme, budget, length):
        for m in span:
            g = SeifertPair(m, q)
            if g.is_identity:
                continue
            structural = reversible_seifert(g, data).reversible
            target = group.inv(g)
            oracle = any(group.conjugated(g, r) == target for r in reversers)
            checked += 1
            structural_yes += structural
            oracle_yes += oracle
            if oracle and not structural:
                mismatches.append({"input": group.spell(g), "oracle": "yes", "structural": "no"})
            elif structural and not oracle:
                oracle_missed += 1
    return SweepReport(
        "seifert-reversible", budget, checked, structural_yes, oracle_yes, oracle_missed,
        tuple(mismatches),
    )


@pytest.mark.parametrize("budget", [SearchBudget(3, 1, 10**6), SearchBudget(3, 2, 10**6)])
def test_seifert_sweep_drops_only_reversers_that_cannot_matter(budget):
    """h^s rho and rho conjugate alike unless phi(g) = -1, so the report is unchanged."""
    expected = reference_sweep_seifert_reversible(budget)
    assert sweep_agreement("seifert-reversible", budget) == expected


def _identity_answers(suite):
    """How many inputs of the suite at 3 syllables a central conjugator answers."""
    words = [x for x in enumerate_reduced(PSL2Z, 3) if not x.is_identity]
    if suite == "pslz-reversible":
        return sum(x == invert(x) for x in words)
    if suite == "pslz-gen3":
        return sum((x**3).is_identity for x in words)
    if suite == "b3-conjugacy":
        # the sweep pairs every input with every input, at 1 syllable and |m| <= 1
        inputs = {CentralElement(m, q) for q in enumerate_reduced(PSL2Z, 1) for m in (-1, 0, 1)}
        return len(inputs)
    # a central conjugator fixes a braid, and reverses no element of the seifert sweep
    return 0


@pytest.mark.parametrize("suite", SUITES)
def test_every_suite_honours_the_candidate_cap(suite):
    """With max_candidates=1 every oracle tries one conjugator: the identity, or h^s
    in the seifert sweep when phi(g) = -1."""
    budget = SearchBudget(4, 2, 1) if suite == "b3-reversible" else SearchBudget(3, 1, 1)
    report = sweep_agreement(suite, budget)
    assert report.checked > 0
    assert report.mismatches == ()
    assert report.oracle_yes == _identity_answers(suite)


def test_sweep_report_serializes():
    report = sweep_agreement("pslz-gen3", SearchBudget(2, 1, 10**6))
    payload = report.to_dict()
    assert payload["suite"] == "pslz-gen3"
    assert payload["budget"]["max_conjugator_syllables"] == 2
    assert payload["mismatches"] == []
    assert json.dumps(payload, sort_keys=True) == json.dumps(
        json.loads(json.dumps(payload)), sort_keys=True
    )


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuite):
        sweep_agreement("pslz-everything", SearchBudget())
    assert set(SUITES) == {
        "pslz-reversible",
        "pslz-gen3",
        "b3-reversible",
        "b3-conjugacy",
        "seifert-reversible",
    }


def test_only_the_oracle_enumerates_words():
    """Brute-force search lives in oracle.py; the deciders search nothing."""
    calls, imports = set(), set()
    for path in Path(gentorsion.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        if "enumerate_reduced(" in text:
            calls.add(path.name)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and any(
                alias.name == "enumerate_reduced" for alias in node.names
            ):
                imports.add(path.name)
    assert calls == {"words.py", "oracle.py"}
    assert imports == {"__init__.py", "oracle.py"}


def test_every_record_is_a_words_record():
    """One record idiom: no NamedTuple, and every class with _fields derives from _Record."""
    package = Path(gentorsion.__file__).parent
    named_tuples, loose = set(), set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias) and "NamedTuple" in node.name:
                named_tuples.add(path.name)
            elif isinstance(node, ast.ClassDef) and "NamedTuple" in map(ast.unparse, node.bases):
                named_tuples.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "NamedTuple":
                named_tuples.add(path.name)
        if path.stem.startswith("__"):
            continue
        module = importlib.import_module(f"gentorsion.{path.stem}")
        for name, value in vars(module).items():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and hasattr(value, "_fields")
                and not issubclass(value, _Record)
            ):
                loose.add(f"{path.stem}.{name}")
    assert named_tuples == set()
    assert loose == set()
