"""Seeded input generators, one per workload.

A generator returns one round of items.  An item is a tuple of strings
``(kind, expect, *args)``: ``kind`` names the operation, ``args`` are the
only thing the program receives, and ``expect`` is what the construction
guarantees (``yes``, ``no``, ``absent``, or ``-`` where the answer is
checked by invariance instead).  Sizes follow fixed ladders and only the
content is random, so that every seed yields the same mix of work.
"""

from __future__ import annotations

import math
import random

from checks import (
    a_parity,
    b3_image,
    braid_pairs,
    inverse_pairs,
    psl_reduce,
    psl_trace,
    tokens,
    trefoil_image,
    word_text,
)

TREFOIL = "(O,o,0 | 1; (2,1),(3,1)); boundaries=1"
TREFOIL_B = 1
TWO_BOUNDARY = "(O,o,0 | 0; (4,1),(4,1)); boundaries=2; phi: d1=-1,d2=-1"
GENUS_ONE = "(O,o,1 | 1; (2,1),(4,1)); boundaries=1"
CROSSCAP = "(N,1 | 0; (2,1),(2,1)); boundaries=1; phi: x1=-1"
THREE_FIBERS = "(O,o,0 | -1; (2,1),(3,1),(5,2)); boundaries=2"
FIBER_ORDERS = {
    TREFOIL: (2, 3),
    TWO_BOUNDARY: (4, 4),
    GENUS_ONE: (2, 4),
    CROSSCAP: (2, 2),
    THREE_FIBERS: (2, 3, 5),
}

#: Gen-3 inputs that gentorsion answers unknown-within-bound although the
#: answer is no: hyperbolic, even a-exponent sum, failing the mirror test.
#: They do not depend on the seed, so every round fails the same share.
GEN3_FALSE_UNKNOWN = tuple(" ".join(["a b a b^2"] * k) for k in (2, 3, 4))


def ladder(count: int, lo: float, hi: float) -> list[int]:
    """``count`` sizes spaced evenly on a log scale over [lo, hi]."""
    ratio = hi / lo
    return [round(lo * ratio ** ((i + 0.5) / count)) for i in range(count)]


def psl_pairs(rng, n: int, first: str = "a") -> list[tuple[str, int]]:
    """A reduced PSL(2,Z) word of n syllables alternating a and b^(1|2)."""
    out, g = [], first
    for _ in range(n):
        out.append(("a", 1) if g == "a" else ("b", rng.choice((1, 2))))
        g = "b" if g == "a" else "a"
    return out


def search_word(n: int, first: str) -> list[tuple[str, int]]:
    """A fixed PSL(2,Z) word of n syllables alternating a and one power of b.

    The searches enumerate words by length and then lexicographically and
    stop at the first witness, read either way round, so a random exponent
    in the witness would move their cost with the seed.
    """
    b = ("b", 2) if first == "a" else ("b", 1)
    return [("a", 1) if (i % 2 == 0) == (first == "a") else b for i in range(n)]


def conj(c, w):
    return c + w + inverse_pairs(c)


def psl(pairs) -> str:
    return word_text(psl_reduce(pairs))


def lift(pairs) -> list[tuple[str, int]]:
    """Braid letters of the section of a PSL(2,Z) word: a -> x, b^e -> y^e."""
    return [("x", 1) if g == "a" else ("y", e) for g, e in pairs]


def random_braid(rng, n: int) -> list[tuple[str, int]]:
    return [(rng.choice(("s1", "s2")), rng.choice((1, -1))) for _ in range(n)]


# -- pslz-long --------------------------------------------------------------

def pslz_long(rng: random.Random) -> list[tuple]:
    items = []
    for size in ladder(8, 250, 2000):
        # conjugate of a product of two distinct involutions p a p^-1, q a q^-1
        n = size * 3 // 16
        p = psl_pairs(rng, n | 1, "b")
        q = psl_pairs(rng, n | 1, "b")
        while q == p:
            q = psl_pairs(rng, n | 1, "b")
        c = psl_pairs(rng, size // 8, rng.choice("ab"))
        items.append(("rev", "yes", psl(conj(c, conj(p, [("a", 1)]) + conj(q, [("a", 1)])))))
    for size in ladder(8, 250, 2000):
        # conjugate of (a b)^k (a b^2)^l with k != l
        total = size // 4
        k = total // 3
        core = [("a", 1), ("b", 1)] * k + [("a", 1), ("b", 2)] * (total - k)
        c = psl_pairs(rng, size // 4, rng.choice("ab"))
        items.append(("rev", "no", psl(conj(c, core))))
    for size in ladder(6, 250, 2000):
        # v is a conjugate of the half-turn rotation of u, so the matching
        # rotation sits mid-way for every seed
        u = psl_pairs(rng, (size // 2) & ~1)
        half = len(u) // 2
        k = psl_pairs(rng, size // 4, rng.choice("ab"))
        items.append(("conj", "yes", psl(u), psl(conj(k, u[half:] + u[:half]))))
    for size in ladder(6, 250, 2000):
        u = psl_pairs(rng, size & ~1)
        while True:
            v = list(u)
            i = rng.randrange(1, len(v), 2)
            v[i] = ("b", 3 - v[i][1])
            if psl_trace(word_text(u)) != psl_trace(word_text(v)):
                break
        items.append(("conj", "no", psl(u), psl(v)))
    for size in ladder(6, 250, 2000):
        t = [("a", 1), ("b", 1)] * 2 if rng.random() < 0.5 else [("b", 2), ("a", 1)] * 2
        c = psl_pairs(rng, size // 2, rng.choice("ab"))
        items.append(("gen3", "yes", psl(conj(c, t))))
    for size, n in zip(ladder(6, 250, 2000), ladder(6, 3, 100)):
        t = [("a", 1), ("b", 1)] * n if rng.random() < 0.5 else [("b", 2), ("a", 1)] * n
        c = psl_pairs(rng, max(1, (size - 2 * n) // 2), rng.choice("ab"))
        items.append(("gen3", "no", psl(conj(c, t))))
    return items


# -- searches ---------------------------------------------------------------

def searches(rng: random.Random) -> list[tuple]:
    items = []
    for zl in (3, 5, 7, 9, 11):
        for e1, e2 in ((1, 2), (2, 1), (2, 2)):
            # c (z b^e1 z^-1 b^e2) c^-1 with z from a to a: a hyperbolic
            # core of 2|z| + 2 syllables
            core = conj(search_word(zl, "a"), [("b", e1)]) + [("b", e2)]
            items.append(("gen3", "yes", psl(conj(psl_pairs(rng, 2, rng.choice("ab")), core))))
    for length in (10, 14, 18, 22, 14):
        # odd a-exponent sum: no product of three conjugates is trivial
        while True:
            g = psl(conj(psl_pairs(rng, 2, "b"), psl_pairs(rng, length)))
            if psl_trace(g) > 2 and a_parity(g):
                break
        items.append(("gen3", "no", g))
    for g in GEN3_FALSE_UNKNOWN:
        items.append(("gen3", "no", g))
    for zl in (3, 5, 7, 9, 11):
        for _ in range(2):
            # conjugate of e1 e2^2 h^-1 with e1 = Z y Z^-1 and e2 = y
            core = conj(lift(search_word(zl, "a")), [("y", 1)]) + [("y", 2), ("h", -1)]
            items.append(("b3gen3", "yes", word_text(conj(random_braid(rng, 3), core))))
    for length in (6, 9):
        while True:
            w = random_braid(rng, length)
            if b3_image(word_text(w))[1]:
                break
        items.append(("b3gen3", "no", word_text(w)))
    for kl in (3, 5, 7, 9, 11, 13, 15):
        # conjugate of the commutator [x, k0]
        k0 = lift(search_word(kl, "b"))
        comm = [("x", 1)] + k0 + [("x", -1)] + inverse_pairs(k0)
        items.append(("b3rev", "yes", word_text(conj(random_braid(rng, 3), comm))))
    for length in (5, 8):
        while True:
            w = random_braid(rng, length)
            if b3_image(word_text(w))[1]:
                break
        items.append(("b3rev", "no", word_text(w)))
    for l in (1, 2):
        # lift of (a b)^k (a b^2)^l with k = l + 6, central part cancelling
        # the exponent sum 5k + 7l; the image is not reversible
        k = l + 6
        w = [("x", 1), ("y", 1)] * k + [("x", 1), ("y", 2)] * l + [("h", -(5 * k + 7 * l) // 6)]
        items.append(("b3rev", "no", word_text(conj(random_braid(rng, 3), w))))
    return items


# -- fibered ----------------------------------------------------------------

def _trefoil_letters(pairs):
    return [("c1", 1) if g == "a" else ("c2", e) for g, e in pairs]


def _seifert_word(rng, gens, n: int) -> list[tuple[str, int]]:
    out = []
    while len(out) < n:
        g = rng.choice(gens)
        if out and out[-1][0] == g:
            continue
        out.append((g, rng.choice((1, -1, 2))))
    return out


def fibered(rng: random.Random) -> list[tuple]:
    items = []
    for n in ladder(6, 100, 3000):
        items.append(("nf", "-", f"s1^{n} s2^-{n}"))
    for n in ladder(4, 100, 10000):
        items.append(("nf", "-", word_text(random_braid(rng, n))))
    for n in ladder(6, 300, 100000):
        items.append(("nf", "-", f"h^{n} x^{n} y^-{n}"))
    for i, m in enumerate(ladder(4, 300, 10000)):
        q = lift(psl_pairs(rng, 6, rng.choice("ab")))
        g1 = [("h", rng.choice((m, -m)))] + q
        g2 = conj(random_braid(rng, 4), g1)
        if i % 2:
            items.append(("b3conj", "no", word_text(g1), word_text(g2 + [("h", 1)])))
        else:
            items.append(("b3conj", "yes", word_text(g1), word_text(g2)))
    for kl in (3, 5):
        k0 = _trefoil_letters(psl_pairs(rng, kl, "b"))
        comm = [("c1", 1)] + k0 + [("c1", -1)] + inverse_pairs(k0)
        c = _seifert_word(rng, ("c1", "c2", "d1"), 2)
        items.append(("srev", "yes", TREFOIL, word_text(conj(c, comm))))
    for n in (4, 6):
        while True:
            w = word_text(_seifert_word(rng, ("c1", "c2", "d1"), n))
            if trefoil_image(w, TREFOIL_B)[1]:
                break
        items.append(("srev", "no", TREFOIL, w))
    for k in ladder(4, 20, 400):
        w = _seifert_word(rng, ("c1", "c2", "d1"), 3)
        items.append(("srev", "-", TWO_BOUNDARY, word_text([("d2", k)] + w)))
    for spec, gens in ((GENUS_ONE, ("c1", "c2", "a1", "b1")), (CROSSCAP, ("c1", "c2", "x1")),
                       (THREE_FIBERS, ("c1", "c2", "c3", "d1"))):
        # a half-twist product c1^(mu/2) k c2^(-mu/2) k^-1, and a random word
        k = _seifert_word(rng, gens, 3)
        mu1, mu2 = FIBER_ORDERS[spec][:2]
        half = [("c1", mu1 // 2)] + conj(k, [("c2", -(mu2 // 2))])
        items.append(("srev", "-", spec, word_text(half)))
        items.append(("srev", "-", spec, word_text(_seifert_word(rng, gens, 5))))
    for spec, degrees in ((TREFOIL, (12, 35)), (TWO_BOUNDARY, (30, 45)), (THREE_FIBERS, (60, 49))):
        orders = FIBER_ORDERS[spec]
        for n in degrees:
            expect = "yes" if any(math.gcd(n, mu) > 1 for mu in orders) else "absent"
            items.append(("genn", expect, spec, str(n)))
    return items


# -- cli ----------------------------------------------------------------------

def cli(rng: random.Random) -> list[tuple]:
    """The README examples, with words replaced by seeded conjugates."""
    def pslz(text):
        return psl(conj(psl_pairs(rng, rng.randrange(1, 4), rng.choice("ab")), tokens(text)))

    def b3(text):
        return word_text(conj(random_braid(rng, rng.randrange(1, 4)), braid_pairs(text)))

    spec = "(O,o,0|1,(2,1),(3,1));boundaries=1"
    k = word_text(_seifert_word(rng, ("c1", "c2"), 2))
    items = [
        ("cli", "yes", "reversible", "--group", "pslz", "--word", pslz("a b a b^2")),
        ("cli", "valid", "verify"),
        ("cli", "yes", "gen-torsion", "--n", "3", "--group", "pslz", "--word", pslz("a b a b")),
        ("cli", "yes", "reversible", "--group", "b3", "--word", b3("s1 S2")),
        ("cli", "yes", "reversible", "--group", "seifert:" + TREFOIL + "; phi: d1=+1",
         "--word", f"{k} c1 c2 c1^-1 c2^-1 {word_text(inverse_pairs(tokens(k)))}"),
        ("cli", "yes", "gen-torsion", "--group", "seifert:" + spec, "--n", str(rng.choice((2, 4, 6)))),
        ("cli", "yes", "conjugate", "--group", "pslz", "--word", "a b", "--other", pslz("b a")),
        ("cli", "parabolic", "classify", "--word", pslz("a b")),
        ("cli", "-", "normalize", "--group", "b3", "--word", b3("s1 s2 s1 s2 s1 s2")),
        ("cli", "-", "braid", "--word", b3("x y H")),
        ("cli", "-", "seifert", "--spec", spec, "families"),
        ("cli", "-", "seifert", "--spec", spec, "presentation"),
        ("cli", "-", "seifert", "--spec", spec, "quotient"),
    ]
    return items


GENERATORS = {
    "pslz-long": pslz_long,
    "searches": searches,
    "fibered": fibered,
    "cli": cli,
}


def make_round(workload: str, seed: int) -> list[tuple]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
