"""Brute-force cross-checks for the structural deciders.

Everything here is a correctness oracle: exhaustive scans over bounded
candidate sets, deterministic and reproducible from the budget alone.
Every scan goes through :func:`_first`, which tries at most
``max_candidates`` candidates.  The sweeps enumerate admissible inputs, run
both the structural decider and the brute search, and report
disagreements.  A brute hit with a structural No is a mismatch and must
never happen; a structural Yes the brute search misses only means the
witness lies outside the budget.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, Iterator, Optional

from .braid3 import CentralElement, conjugate_b3, reversible_b3
from .errors import TrivialElement, UnknownSuite
from .modular import Verdict, gen3_torsion, reversible
from .seifert import SeifertPair, parse_seifert, reversible_seifert, seifert_group
from .words import PSL2Z, Word, _Record, conjugated, enumerate_reduced, invert

SWEEP_SEIFERT_DATA = "(O,o,0 | 0; (4,1),(4,1)); boundaries=2; phi: d1=-1,d2=-1"


class SearchBudget(_Record):
    __slots__ = _fields = ("max_conjugator_syllables", "max_central_exponent", "max_candidates")
    _defaults = {"max_conjugator_syllables": 6, "max_central_exponent": 2, "max_candidates": 10**6}

    def __init__(self, *values, **named):
        super().__init__(*values, **named)
        if min(self._key(self)) <= 0:
            raise ValueError("budget fields must be positive")


def _candidates(scheme, budget: SearchBudget, syllables: int):
    cap = None
    if any(order is None for _, order in scheme.generators):
        cap = budget.max_central_exponent
    return enumerate_reduced(scheme, syllables, max_exponent=cap)


def _first(candidates: Iterable, hit: Callable[..., bool], budget: SearchBudget):
    """The first of at most ``budget.max_candidates`` candidates that hit, or None."""
    return next(filter(hit, islice(candidates, budget.max_candidates)), None)


def brute_reversible(w: Word, budget: SearchBudget) -> Optional[Word]:
    """Scan conjugators for k w k^-1 = w^-1 within the budget."""
    if w.is_identity:
        raise TrivialElement("reversibility oracle needs a nontrivial word")
    target = invert(w)
    ks = _candidates(w.scheme, budget, budget.max_conjugator_syllables)
    return _first(ks, lambda k: conjugated(w, k) == target, budget)


def brute_gen3(w: Word, budget: SearchBudget) -> Optional[tuple[Word, Word]]:
    """Scan pairs (h1, k) for w * h1 w h1^-1 * k w k^-1 = 1 within the budget."""
    if w.is_identity:
        raise TrivialElement("torsion oracle needs a nontrivial word")
    pool = list(_candidates(w.scheme, budget, budget.max_conjugator_syllables))
    # w * h1 w h1^-1 is multiplied once per h1, not once per pair
    triples = ((h1, k, middle) for h1 in pool for middle in (w * conjugated(w, h1),) for k in pool)
    hit = _first(triples, lambda t: (t[2] * conjugated(w, t[1])).is_identity, budget)
    return None if hit is None else hit[:2]


def brute_conjugate_b3(
    g1: CentralElement, g2: CentralElement, budget: SearchBudget
) -> Optional[CentralElement]:
    """Scan braid conjugators within the budget.

    Central powers act trivially by conjugation, so only the quotient part
    of the conjugator is scanned and the lift with exponent 0 is returned.
    """
    qs = _candidates(PSL2Z, budget, budget.max_conjugator_syllables)
    cs = (CentralElement(0, q) for q in qs)
    return _first(cs, lambda c: c * g1 * c.inverse() == g2, budget)


class SweepReport(_Record):
    """The counts of one sweep, and its mismatches as JSON-safe dicts."""

    __slots__ = _fields = (
        "suite", "budget", "checked", "structural_yes", "oracle_yes", "oracle_missed", "mismatches"
    )


#: what every sweep yields per input: its label, the structural and the brute answer
_Row = tuple[str, bool, bool]


def _sweep_pslz_reversible(budget: SearchBudget) -> Iterator[_Row]:
    for w in enumerate_reduced(PSL2Z, budget.max_conjugator_syllables):
        if not w.is_identity:
            yield str(w), reversible(w) is not None, brute_reversible(w, budget) is not None


def _sweep_pslz_gen3(budget: SearchBudget) -> Iterator[_Row]:
    for w in enumerate_reduced(PSL2Z, budget.max_conjugator_syllables):
        if not w.is_identity:
            yield str(w), gen3_torsion(w).tag is Verdict.YES, brute_gen3(w, budget) is not None


def _sweep_b3_reversible(budget: SearchBudget) -> Iterator[_Row]:
    span = range(-budget.max_central_exponent, budget.max_central_exponent + 1)
    for q in enumerate_reduced(PSL2Z, budget.max_conjugator_syllables):
        for m in span:
            g = CentralElement(m, q)
            if not g.is_identity:
                oracle = brute_conjugate_b3(g, g.inverse(), budget)
                yield str(g), reversible_b3(g) is not None, oracle is not None


def _sweep_b3_conjugacy(budget: SearchBudget) -> Iterator[_Row]:
    length = max(1, budget.max_conjugator_syllables // 2)
    span = range(-min(1, budget.max_central_exponent), min(1, budget.max_central_exponent) + 1)
    inputs = [
        CentralElement(m, q)
        for q in enumerate_reduced(PSL2Z, length)
        for m in span
    ]
    for g1 in inputs:
        for g2 in inputs:
            structural = conjugate_b3(g1, g2) is not None
            yield f"{g1} ~ {g2}", structural, brute_conjugate_b3(g1, g2, budget) is not None


def _sweep_seifert_reversible(budget: SearchBudget) -> Iterator[_Row]:
    data = parse_seifert(SWEEP_SEIFERT_DATA)
    group = seifert_group(data)
    length = max(1, budget.max_conjugator_syllables // 2)
    span = range(-budget.max_central_exponent, budget.max_central_exponent + 1)
    rhos = list(_candidates(group.scheme, budget, budget.max_conjugator_syllables))
    for q in _candidates(group.scheme, budget, length):
        for m in span:
            g = SeifertPair(m, q)
            if g.is_identity:
                continue
            target = group.inv(g)
            # h q = q h^phi(q): conjugating by h^s fixes g unless phi(g) = -1
            shifts = span if group.phi_word(g.q) == -1 else (0,)
            reversers = (SeifertPair(s, rho) for rho in rhos for s in shifts)
            oracle = _first(reversers, lambda r: group.conjugated(g, r) == target, budget)
            yield group.spell(g), reversible_seifert(g, data).reversible, oracle is not None


_SWEEPS = {
    "pslz-reversible": _sweep_pslz_reversible,
    "pslz-gen3": _sweep_pslz_gen3,
    "b3-reversible": _sweep_b3_reversible,
    "b3-conjugacy": _sweep_b3_conjugacy,
    "seifert-reversible": _sweep_seifert_reversible,
}

SUITES = tuple(_SWEEPS)


def sweep_agreement(suite: str, budget: SearchBudget) -> SweepReport:
    """Compare a structural decider against brute force over a bounded sweep."""
    if suite not in _SWEEPS:
        raise UnknownSuite(f"unknown suite {suite!r}; choose one of {', '.join(SUITES)}")
    rows = list(_SWEEPS[suite](budget))
    mismatches = tuple(
        {"input": label, "oracle": "yes", "structural": "no"}
        for label, structural, oracle in rows
        if oracle and not structural
    )
    return SweepReport(
        suite,
        budget,
        len(rows),
        sum(structural for _, structural, _ in rows),
        sum(oracle for _, _, oracle in rows),
        sum(structural and not oracle for _, structural, oracle in rows),
        mismatches,
    )
