"""The 3-strand braid group as a central extension of PSL(2,Z).

With x = s1 s2 s1 and y = s1 s2 the element h = x^2 = y^3 generates the
center, and B3 / <h> is PSL(2,Z) with x -> a, y -> b.  Every braid word
therefore has a unique normal form h^m * section(q) where q is a reduced
word over ``a:2, b:3`` and the section lifts a to x and b^e to y^e.
B3 is the fundamental group of the trefoil complement, the Seifert group
(O,o,0 | 0; (2,1),(3,1)); boundaries=1 with x, y as c1, c2, so its
arithmetic is that group's engine, :class:`~gentorsion.seifert.CentralExtension`.

The extension makes three decisions exact.  Writing e for the exponent-sum
homomorphism (s1, s2 -> 1), two braids with the same quotient image and the
same exponent sum are equal, since e(h) = 6 separates the central powers.
Hence: conjugacy holds iff exponent sums agree and images are conjugate;
reversibility holds iff the exponent sum is zero and the image is
reversible; and a product of three conjugates of g prescribed by a quotient
certificate equals h^(e(g)/2), so g is generalised 3-torsion iff e(g) = 0
and its image is generalised 3-torsion in PSL(2,Z).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Optional, Union

from .errors import InvalidCertificate, ParseError, TrivialElement
from .modular import Verdict, gen3_torsion
from .seifert import CentralExtension, Piece
from .words import (
    PSL2Z,
    Syllable,
    Word,
    conjugate_to_inverse,
    enumerate_reduced,
    identity,
    invert,
    is_conjugate,
    parse_word,
)

_LETTERS = ("s1", "s2", "x", "y", "h")


@dataclass(frozen=True)
class BraidWord:
    """A braid word: (letter, exponent) pairs with nonzero exponents."""

    letters: tuple[tuple[str, int], ...]

    def __post_init__(self):
        for name, exp in self.letters:
            if name not in _LETTERS:
                raise ValueError(f"unknown braid letter {name!r}")
            if exp == 0:
                raise ValueError("braid letter exponents must be nonzero")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return BraidWord(self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(tuple((name, -exp) for name, exp in reversed(self.letters)))

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(
            name if exp == 1 else f"{name}^{exp}" for name, exp in self.letters
        )


_TOKEN = re.compile(r"^([sS][12]|[xyhXYH])(?:\^(-?\d+))?$")


def parse_braid(text: str) -> BraidWord:
    """Parse tokens s1, s2, x, y, h (capitals invert) with optional ^k.

    The token ``1`` denotes the empty braid.
    """
    letters: list[tuple[str, int]] = []
    pos = 0
    for token in text.split():
        pos = text.index(token, pos)
        if token == "1":
            pos += len(token)
            continue
        m = _TOKEN.match(token)
        if not m:
            raise ParseError(f"bad braid token {token!r}", pos)
        name, exp = m.group(1), int(m.group(2) or 1)
        if exp == 0:
            raise ParseError(f"zero exponent in {token!r}", pos)
        if name[0].isupper():
            name, exp = name.lower(), -exp
        letters.append((name, exp))
        pos += len(token)
    return BraidWord(tuple(letters))


#: B3 as the trefoil group (O,o,0 | 0; (2,1),(3,1)); boundaries=1, with
#: x, y as c1, c2: x^2 = y^3 = h, and h is central.
_B3 = CentralExtension(PSL2Z, beta={"a": 1, "b": 1}, phi={})


@dataclass(frozen=True)
class CentralElement:
    """The normal form h^m * section(q) of a braid."""

    m: int
    q: Word

    @property
    def is_identity(self) -> bool:
        return self.m == 0 and self.q.is_identity

    def __mul__(self, other: "CentralElement") -> "CentralElement":
        return CentralElement(*_B3.product(self.m, self.q, ((other.m, other.q.syllables),)))

    def inverse(self) -> "CentralElement":
        return CentralElement(*_B3.inverse(self.m, self.q))

    def __pow__(self, n: int) -> "CentralElement":
        return CentralElement(*_B3.power(self.m, self.q, n))

    def conjugated_by(self, k: "CentralElement") -> "CentralElement":
        return k * self * k.inverse()

    @property
    def exponent_sum(self) -> int:
        total = 6 * self.m
        for s in self.q.syllables:
            total += 3 if s.gen == "a" else 2 * s.exp
        return total

    def spell(self) -> BraidWord:
        """A braid word that normalises back to this element."""
        letters: list[tuple[str, int]] = []
        if self.m:
            letters.append(("h", self.m))
        for s in self.q.syllables:
            letters.append(("x", 1) if s.gen == "a" else ("y", s.exp))
        return BraidWord(tuple(letters))

    def __str__(self) -> str:
        return f"(h^{self.m}, {self.q})"


def _word(text: str) -> Word:
    return parse_word(PSL2Z, text)


#: the lifts h^m * section(q) of s1, s1^-1, s2 and s2^-1
_LIFT = {
    ("s1", 1): (-1, _word("b^2 a").syllables),
    ("s1", -1): (-1, _word("a b").syllables),
    ("s2", 1): (-1, _word("a b^2").syllables),
    ("s2", -1): (-1, _word("b a").syllables),
}


def _pieces(w: BraidWord) -> Iterator[Piece]:
    for name, exp in w.letters:
        if name == "h":
            yield exp, ()
        elif name in ("x", "y"):
            yield 0, (Syllable("a" if name == "x" else "b", exp),)
        else:
            yield from repeat(_LIFT[name, 1 if exp > 0 else -1], abs(exp))


def normal_form(w: Union[BraidWord, CentralElement]) -> CentralElement:
    """Fold the letters through the extension cocycle in one stack pass.

    A CentralElement is already in normal form and passes through.

    >>> str(normal_form(parse_braid("s1 s2 s1 s2 s1 s2")))
    '(h^1, 1)'
    """
    if isinstance(w, CentralElement):
        return w
    return CentralElement(*_B3.product(0, identity(PSL2Z), _pieces(w)))


def section(m: int, q: Word) -> BraidWord:
    """The braid word h^m * (syllable lifts of q)."""
    return CentralElement(m, q).spell()


def exponent_sum(w: BraidWord) -> int:
    """The homomorphism B3 -> Z with s1, s2 -> 1 (so x -> 3, y -> 2, h -> 6)."""
    weight = {"s1": 1, "s2": 1, "x": 3, "y": 2, "h": 6}
    return sum(weight[name] * exp for name, exp in w.letters)


def conjugate_b3(
    g1: Union[BraidWord, CentralElement], g2: Union[BraidWord, CentralElement]
) -> Optional[BraidWord]:
    """A braid k with k g1 k^-1 = g2, or None.

    Conjugacy holds exactly when the exponent sums agree and the quotient
    images are conjugate; any lift of a quotient conjugator then works on
    the nose, because conjugation cannot move the central part without
    moving the exponent sum.
    """
    n1, n2 = normal_form(g1), normal_form(g2)
    if n1.exponent_sum != n2.exponent_sum:
        return None
    k_q = is_conjugate(n1.q, n2.q)
    if k_q is None:
        return None
    k = CentralElement(0, k_q)
    if n1.conjugated_by(k) != n2:
        raise InvalidCertificate("lifted conjugator failed its check")
    return k.spell()


@dataclass(frozen=True)
class B3Reversibility:
    """A validated reverser, plus a commutator form when the search finds it.

    The witness exhibits g as conjugate to [x, k0] = x k0 x^-1 k0^-1 with
    x = s1 s2 s1: witness_conjugator * [x, k0] * witness_conjugator^-1 = g.
    """

    reverser: BraidWord
    commutator_witness: Optional[BraidWord] = None
    witness_conjugator: Optional[BraidWord] = None


def reversible_b3(
    g: Union[BraidWord, CentralElement], witness_bound: Optional[int] = None
) -> Optional[B3Reversibility]:
    """Decide whether g is conjugate to its inverse in B3.

    The decision (exponent sum zero and reversible image) is exact; the
    commutator witness search is bounded and may come back empty without
    affecting the verdict.
    """
    n = normal_form(g)
    if n.is_identity:
        raise TrivialElement("reversibility is considered for nontrivial braids")
    if n.exponent_sum != 0:
        return None
    rho = conjugate_to_inverse(n.q)
    if rho is None:
        return None
    r = CentralElement(0, rho)
    if n.conjugated_by(r) != n.inverse():
        raise InvalidCertificate("lifted reverser failed its check")

    witness = conjugator = None
    if witness_bound is None:
        witness_bound = len(n.q) + 2
    x = CentralElement(0, _word("a"))
    for q0 in enumerate_reduced(PSL2Z, witness_bound):
        k0 = CentralElement(0, q0)
        comm = x * k0 * x.inverse() * k0.inverse()
        if comm.is_identity:
            continue
        c_q = is_conjugate(comm.q, n.q)
        if c_q is None:
            continue
        c = CentralElement(0, c_q)
        if comm.conjugated_by(c) == n:
            witness, conjugator = k0.spell(), c.spell()
            break
    return B3Reversibility(
        reverser=r.spell(),
        commutator_witness=witness,
        witness_conjugator=conjugator,
    )


def _b_exponent_sum(q: Word) -> int:
    return sum(s.exp for s in q.syllables if s.gen == "b") % 3


def _family_diagnostics(q: Word) -> tuple[str, ...]:
    """Which products of two lifted order-3 torsion factors can match q.

    A factor e_i lifts a conjugate of b and has exponent sum 2, so a
    candidate e-product with a central correction h^x matches only when
    its total exponent sum vanishes.
    """
    s = _b_exponent_sum(q)
    if s == 2:
        return (
            "image b-exponent sum is 2 mod 3: only the e1 e2 h^x family fits, "
            "and 3x + 2 = 0 has no integer solution",
        )
    if s == 1:
        return (
            "image b-exponent sum is 1 mod 3: only the e1^2 e2^2 h^x family fits, "
            "and 3x + 4 = 0 has no integer solution",
        )
    return (
        "image b-exponent sum is 0 mod 3: the e1 e2^2 h^x family fits and its "
        "exponent sum forces x = -1",
    )


@dataclass(frozen=True)
class B3Gen3Witness:
    """The form g = e1 * e2^2 * h^-1 with e1, e2 distinct lifted 3-torsions."""

    e1: CentralElement
    e2: CentralElement
    conjugator: CentralElement


@dataclass(frozen=True)
class B3Gen3Verdict:
    tag: Verdict
    certificate: Optional[tuple[CentralElement, CentralElement]] = None
    reason: Optional[str] = None
    bound_used: Optional[int] = None
    form_witness: Optional[B3Gen3Witness] = None
    diagnostics: tuple[str, ...] = ()


def gen3_relation(g: CentralElement, h1: CentralElement, k: CentralElement) -> CentralElement:
    """The product g * (h1 g h1^-1) * (k g k^-1) in normal form."""
    return g * g.conjugated_by(h1) * g.conjugated_by(k)


def gen3_torsion_b3(
    g: Union[BraidWord, CentralElement], bound: Optional[int] = None
) -> B3Gen3Verdict:
    """Decide generalised 3-torsion in B3.

    The exponent sum must vanish (three conjugates of g have exponent sum
    3 e(g)), and then the question descends to the quotient: a quotient
    certificate lifts to a braid relation equal to h^(e(g)/2) = 1.  The
    quotient witness z b^u z^-1 b^v is reshaped into the distinct-factor
    form e1 e2^2 h^-1 and certified by (e2^-2, e2^2).
    """
    n = normal_form(g)
    if n.is_identity:
        raise TrivialElement("generalised torsion is considered for nontrivial braids")
    diagnostics = _family_diagnostics(n.q)
    e = n.exponent_sum
    if e != 0:
        return B3Gen3Verdict(
            Verdict.NO,
            reason=f"exponent sum {e} is nonzero, so a product of three "
            f"conjugates has exponent sum {3 * e} and cannot be trivial",
            diagnostics=diagnostics,
        )
    image = gen3_torsion(n.q, bound=bound)
    if image.tag == Verdict.NO:
        return B3Gen3Verdict(
            Verdict.NO,
            reason=f"quotient image is not generalised 3-torsion: {image.reason}",
            bound_used=image.bound_used,
            diagnostics=diagnostics,
        )
    if image.tag == Verdict.UNKNOWN_WITHIN_BOUND:
        return B3Gen3Verdict(
            Verdict.UNKNOWN_WITHIN_BOUND,
            reason=f"quotient image undecided: {image.reason}",
            bound_used=image.bound_used,
            diagnostics=diagnostics,
        )

    w = image.witness
    if w is None or (w.e1, w.e2) not in ((1, 2), (2, 1)):
        raise InvalidCertificate(
            "a zero-exponent-sum braid forces an order-3 image witness with "
            "exponents summing to 0 mod 3"
        )
    y = CentralElement(0, _word("b"))
    z = CentralElement(0, w.z)
    if (w.e1, w.e2) == (1, 2):
        # image witness z b z^-1 * b^2 is already in e1 e2^2 shape
        e1, e2 = z * y * z.inverse(), y
        c_img = w.conjugator
    else:
        # rotate z b^2 z^-1 * b to b * z b^2 z^-1 = e1 e2^2 shape
        e1, e2 = y, z * y * z.inverse()
        b = _word("b")
        c_img = w.conjugator * invert(b)
    c = CentralElement(0, c_img)
    e1, e2 = e1.conjugated_by(c), e2.conjugated_by(c)
    if e1 == e2:
        raise InvalidCertificate("the two torsion factors must be distinct")
    h_inv = CentralElement(-1, identity(PSL2Z))
    if e1 * e2 ** 2 * h_inv != n:
        raise InvalidCertificate("form witness does not rebuild the element")
    h1, k = e2 ** -2, e2 ** 2
    if not gen3_relation(n, h1, k).is_identity:
        raise InvalidCertificate(f"certificate ({h1}, {k}) fails for {n}")
    return B3Gen3Verdict(
        Verdict.YES,
        certificate=(h1, k),
        reason="conjugate to e1 e2^2 h^-1 with e1, e2 lifted order-3 torsions",
        bound_used=image.bound_used,
        form_witness=B3Gen3Witness(e1=e1, e2=e2, conjugator=c),
        diagnostics=diagnostics,
    )
