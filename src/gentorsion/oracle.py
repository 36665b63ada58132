"""Brute-force cross-checks for the structural deciders.

Everything here is a correctness oracle: exhaustive scans over bounded
candidate sets, deterministic and reproducible from the budget alone.
The sweeps enumerate admissible inputs, run both the structural decider
and the brute search, and report disagreements.  A brute hit with a
structural No is a mismatch and must never happen; a structural Yes the
brute search misses only means the witness lies outside the budget.
"""

from __future__ import annotations

from typing import Optional

from .braid3 import CentralElement, conjugate_b3, reversible_b3
from .errors import TrivialElement, UnknownSuite
from .modular import gen3_torsion, reversible
from .seifert import SeifertPair, parse_seifert, reversible_seifert, seifert_group
from .words import PSL2Z, Word, _Record, conjugated, enumerate_reduced, invert

SUITES = (
    "pslz-reversible",
    "pslz-gen3",
    "b3-reversible",
    "b3-conjugacy",
    "seifert-reversible",
)

SWEEP_SEIFERT_DATA = "(O,o,0 | 0; (4,1),(4,1)); boundaries=2; phi: d1=-1,d2=-1"


class SearchBudget(_Record):
    __slots__ = _fields = ("max_conjugator_syllables", "max_central_exponent", "max_candidates")

    def __init__(
        self,
        max_conjugator_syllables: int = 6,
        max_central_exponent: int = 2,
        max_candidates: int = 10**6,
    ):
        if min(max_conjugator_syllables, max_central_exponent, max_candidates) <= 0:
            raise ValueError("budget fields must be positive")
        self.max_conjugator_syllables = max_conjugator_syllables
        self.max_central_exponent = max_central_exponent
        self.max_candidates = max_candidates


def _candidates(scheme, budget: SearchBudget, syllables: int):
    cap = None
    if any(order is None for _, order in scheme.generators):
        cap = budget.max_central_exponent
    return enumerate_reduced(scheme, syllables, max_exponent=cap)


def brute_reversible(w: Word, budget: SearchBudget) -> Optional[Word]:
    """Scan conjugators for k w k^-1 = w^-1 within the budget."""
    if w.is_identity:
        raise TrivialElement("reversibility oracle needs a nontrivial word")
    target = invert(w)
    seen = 0
    for k in _candidates(w.scheme, budget, budget.max_conjugator_syllables):
        seen += 1
        if seen > budget.max_candidates:
            return None
        if conjugated(w, k) == target:
            return k
    return None


def brute_gen3(w: Word, budget: SearchBudget) -> Optional[tuple[Word, Word]]:
    """Scan pairs (h1, k) for w * h1 w h1^-1 * k w k^-1 = 1 within the budget."""
    if w.is_identity:
        raise TrivialElement("torsion oracle needs a nontrivial word")
    pool = list(_candidates(w.scheme, budget, budget.max_conjugator_syllables))
    seen = 0
    for h1 in pool:
        middle = w * conjugated(w, h1)
        for k in pool:
            seen += 1
            if seen > budget.max_candidates:
                return None
            if (middle * conjugated(w, k)).is_identity:
                return h1, k
    return None


def brute_conjugate_b3(
    g1: CentralElement, g2: CentralElement, budget: SearchBudget
) -> Optional[CentralElement]:
    """Scan braid conjugators within the budget.

    Central powers act trivially by conjugation, so only the quotient part
    of the conjugator is scanned and the lift with exponent 0 is returned.
    """
    seen = 0
    for q in _candidates(PSL2Z, budget, budget.max_conjugator_syllables):
        seen += 1
        if seen > budget.max_candidates:
            return None
        c = CentralElement(0, q)
        if c * g1 * c.inverse() == g2:
            return c
    return None


class SweepReport(_Record):
    """The counts of one sweep, and its mismatches as JSON-safe dicts."""

    __slots__ = _fields = (
        "suite", "budget", "checked", "structural_yes", "oracle_yes", "oracle_missed", "mismatches"
    )


class _Tally:
    def __init__(self, suite: str, budget: SearchBudget):
        self.suite = suite
        self.budget = budget
        self.checked = 0
        self.structural_yes = 0
        self.oracle_yes = 0
        self.oracle_missed = 0
        self.mismatches: list[dict] = []

    def record(self, label: str, structural: str, oracle_hit: bool):
        self.checked += 1
        if structural == "yes":
            self.structural_yes += 1
        if oracle_hit:
            self.oracle_yes += 1
        if oracle_hit and structural == "no":
            self.mismatches.append(
                {"input": label, "oracle": "yes", "structural": "no"}
            )
        elif not oracle_hit and structural == "yes":
            self.oracle_missed += 1

    def report(self) -> SweepReport:
        return SweepReport(
            self.suite, self.budget, self.checked, self.structural_yes, self.oracle_yes,
            self.oracle_missed, tuple(self.mismatches),
        )


def _sweep_pslz_reversible(budget: SearchBudget) -> SweepReport:
    tally = _Tally("pslz-reversible", budget)
    for w in enumerate_reduced(PSL2Z, budget.max_conjugator_syllables):
        if w.is_identity:
            continue
        structural = "yes" if reversible(w) is not None else "no"
        oracle = brute_reversible(w, budget) is not None
        tally.record(str(w), structural, oracle)
    return tally.report()


def _sweep_pslz_gen3(budget: SearchBudget) -> SweepReport:
    tally = _Tally("pslz-gen3", budget)
    for w in enumerate_reduced(PSL2Z, budget.max_conjugator_syllables):
        if w.is_identity:
            continue
        structural = gen3_torsion(w).tag.value
        oracle = brute_gen3(w, budget) is not None
        tally.record(str(w), structural, oracle)
    return tally.report()


def _sweep_b3_reversible(budget: SearchBudget) -> SweepReport:
    tally = _Tally("b3-reversible", budget)
    span = range(-budget.max_central_exponent, budget.max_central_exponent + 1)
    reversers = list(enumerate_reduced(PSL2Z, budget.max_conjugator_syllables))
    for q in enumerate_reduced(PSL2Z, budget.max_conjugator_syllables):
        for m in span:
            g = CentralElement(m, q)
            if g.is_identity:
                continue
            structural = "yes" if reversible_b3(g) is not None else "no"
            target = g.inverse()
            oracle = any(
                CentralElement(0, rho) * g * CentralElement(0, rho).inverse() == target
                for rho in reversers
            )
            tally.record(str(g), structural, oracle)
    return tally.report()


def _sweep_b3_conjugacy(budget: SearchBudget) -> SweepReport:
    tally = _Tally("b3-conjugacy", budget)
    length = max(1, budget.max_conjugator_syllables // 2)
    span = range(-min(1, budget.max_central_exponent), min(1, budget.max_central_exponent) + 1)
    inputs = [
        CentralElement(m, q)
        for q in enumerate_reduced(PSL2Z, length)
        for m in span
    ]
    for g1 in inputs:
        for g2 in inputs:
            structural = "yes" if conjugate_b3(g1, g2) is not None else "no"
            oracle = brute_conjugate_b3(g1, g2, budget) is not None
            tally.record(f"{g1} ~ {g2}", structural, oracle)
    return tally.report()


def _sweep_seifert_reversible(budget: SearchBudget) -> SweepReport:
    tally = _Tally("seifert-reversible", budget)
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
            structural = "yes" if reversible_seifert(g, data).reversible else "no"
            target = group.inv(g)
            # h q = q h^phi(q): conjugating by h^s fixes g unless phi(g) = -1
            shifts = span if group.phi_word(g.q) == -1 else (0,)
            oracle = any(
                group.conjugated(g, SeifertPair(s, rho)) == target for rho in rhos for s in shifts
            )
            tally.record(group.spell(g), structural, oracle)
    return tally.report()


_SWEEPS = {
    "pslz-reversible": _sweep_pslz_reversible,
    "pslz-gen3": _sweep_pslz_gen3,
    "b3-reversible": _sweep_b3_reversible,
    "b3-conjugacy": _sweep_b3_conjugacy,
    "seifert-reversible": _sweep_seifert_reversible,
}


def sweep_agreement(suite: str, budget: SearchBudget) -> SweepReport:
    """Compare a structural decider against brute force over a bounded sweep."""
    if suite not in _SWEEPS:
        raise UnknownSuite(f"unknown suite {suite!r}; choose one of {', '.join(SUITES)}")
    return _SWEEPS[suite](budget)
