"""The 3-strand braid group as a central extension of PSL(2,Z).

With x = s1 s2 s1 and y = s1 s2 the element h = x^2 = y^3 generates the
center, and B3 / <h> is PSL(2,Z) with x -> a, y -> b.  Every braid word
therefore has a unique normal form h^m * section(q) where q is a reduced
word over ``a:2, b:3`` and the section lifts a to x and b^e to y^e.
B3 is the fundamental group of the trefoil complement, the Seifert group
(O,o,0 | 0; (2,1),(3,1)); boundaries=1 with x, y as c1, c2, so its
arithmetic is that group's engine, :class:`~gentorsion.seifert.CentralExtension`,
and a normal form is that group's :class:`~gentorsion.seifert.SeifertPair`.
A run of letters s_i^+-1 enters that engine five letters at a time, each
block's normal form read from a table of runs filled on first use.

The extension makes three decisions exact.  Writing e for the exponent-sum
homomorphism (s1, s2 -> 1), two braids with the same quotient image and the
same exponent sum are equal, since e(h) = 6 separates the central powers.
Hence conjugacy and reversibility are the Seifert groups' one lift of a
quotient conjugator, whose central defect (e(g1) - e(g2))/6 is the same for
every lift: g1 ~ g2 iff the images are conjugate and e(g1) = e(g2), and g is
reversible iff its image is and e(g) = 0.  And a product of three
conjugates of g prescribed by a quotient certificate equals h^(e(g)/2), so
g is generalised 3-torsion iff e(g) = 0 and its image is generalised
3-torsion in PSL(2,Z).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby, islice
from typing import Iterator, Optional, Union

from .errors import InvalidCertificate, ParseError, TrivialElement
from .modular import Verdict, gen3_torsion
from .seifert import CentralExtension, Piece, SeifertPair
from .words import (
    PSL2Z,
    Word,
    _Record,
    _Table,
    _TOKEN,
    _cyclic_core,
    format_tokens,
    identity,
    mirror_centres,
    parse_word,
    tokens,
)

_LETTERS = ("s1", "s2", "x", "y", "h")


class BraidWord(_Record):
    """A braid word: (letter, exponent) pairs with nonzero exponents."""

    __slots__ = _fields = ("letters",)

    def __init__(self, letters: tuple[tuple[str, int], ...]):
        for name, exp in letters:
            if name not in _LETTERS:
                raise ValueError(f"unknown braid letter {name!r}")
            if exp == 0:
                raise ValueError("braid letter exponents must be nonzero")
        self.letters = letters

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return _checked(self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return _checked(tuple((name, -exp) for name, exp in reversed(self.letters)))

    def __str__(self) -> str:
        return format_tokens(self.letters)


def _checked(letters: tuple[tuple[str, int], ...]) -> BraidWord:
    """A BraidWord of letters that are known to be valid, not checked again."""
    w = object.__new__(BraidWord)
    w.letters = letters
    return w


#: each braid letter and its capital, the inverse, as (letter, sign)
_SIGNED = {
    name: (name.lower(), 1 if name.islower() else -1)
    for name in _LETTERS + tuple(map(str.capitalize, _LETTERS))
}


def _read(text: str) -> Iterator[tuple[str, int]]:
    """The letters of text, read token by token through :func:`tokens`."""
    for i, (name, exp) in enumerate(tokens(text)):
        if name not in _SIGNED or not exp:
            at = next(islice(_TOKEN.finditer(text), i, None)).start()
            raise ParseError(f"zero exponent on {name!r}" if name in _SIGNED
                             else f"bad braid letter {name!r}", at)
        letter, sign = _SIGNED[name]
        yield letter, sign * exp


#: the 40 spellings of those letters with no exponent, ^-1, ^2 or ^-2, each one
#: shared letter; any other token is read alone by :func:`_read`, ``1`` as None
_SPELLED = _Table(lambda token: next(_read(token), None), {
    name + suffix: (letter, sign * exp)
    for name, (letter, sign) in _SIGNED.items()
    for suffix, exp in (("", 1), ("^-1", -1), ("^2", 2), ("^-2", -2))
})


def parse_braid(text: str) -> BraidWord:
    """Parse tokens s1, s2, x, y, h (capitals invert) with optional nonzero ^k.

    The token ``1`` denotes the empty braid.  Each token is one table lookup;
    text with an error is read again whole, for the error's position in it.
    """
    try:
        return _checked(tuple(filter(None, map(_SPELLED.__getitem__, text.split()))))
    except ParseError:
        return _checked(tuple(_read(text)))


#: B3 as the trefoil group (O,o,0 | 0; (2,1),(3,1)); boundaries=1, with
#: x, y as c1, c2: x^2 = y^3 = h, and h is central.
_B3 = CentralExtension(PSL2Z, beta={"a": 1, "b": 1}, phi={})


class CentralElement(SeifertPair):
    """The normal form h^m * section(q) of a braid, with the B3 operators."""

    __slots__ = ()

    def __mul__(self, other: "CentralElement") -> "CentralElement":
        return CentralElement(*_B3.product(self.m, self.q, ((other.m, other.q.syllables),)))

    def inverse(self) -> "CentralElement":
        return CentralElement(*_B3.inverse(self.m, self.q))

    def __pow__(self, n: int) -> "CentralElement":
        return CentralElement(*_B3.power(self.m, self.q, n))

    def conjugated_by(self, k: "CentralElement") -> "CentralElement":
        return CentralElement(*_B3.product(0, identity(PSL2Z), _B3.conjugate_pieces(self, k)))

    @property
    def exponent_sum(self) -> int:
        total = 6 * self.m
        for gen, exp in self.q.syllables:
            total += 3 if gen == "a" else 2 * exp
        return total

    def spell(self) -> BraidWord:
        """A braid word that normalises back to this element."""
        letters: list[tuple[str, int]] = []
        if self.m:
            letters.append(("h", self.m))
        for gen, exp in self.q.syllables:
            letters.append(("x", 1) if gen == "a" else ("y", exp))
        return _checked(tuple(letters))


def _word(text: str) -> Word:
    return parse_word(PSL2Z, text)


#: a code character for each letter s1, s1^-1, s2, s2^-1, and its lift h^m * section(q)
_CODE = {("s1", 1): "s", ("s1", -1): "S", ("s2", 1): "t", ("s2", -1): "T"}
_LIFT = {code: (-1, _word(text)) for code, text in zip("sStT", ("b^2 a", "a b", "a b^2", "b a"))}
#: letters of a run per piece: the table holds at most (4^6 - 4) / 3 = 1364 runs (at 6, 5460)
_BLOCK = 5


@lru_cache(maxsize=None)
def _run(code: str) -> tuple[int, Word]:
    """The normal form of a run of coded letters: one product of its prefix's and a lift."""
    if len(code) == 1:
        return _LIFT[code]
    m, q = _LIFT[code[-1]]
    return _B3.product(*_run(code[:-1]), ((m, q.syllables),))


def _pieces(w: BraidWord) -> Iterator[Piece]:
    for run, letters in groupby(w.letters, _CODE.__contains__):
        if run:
            code = "".join(map(_CODE.__getitem__, letters))
            for i in range(0, len(code), _BLOCK):
                m, q = _run(code[i:i + _BLOCK])
                yield m, q.syllables
            continue
        for name, exp in letters:
            if name == "h":
                yield exp, ()
            elif name in ("x", "y"):
                yield 0, (("a" if name == "x" else "b", exp),)
            else:
                m, q = _B3.power(*_LIFT[_CODE[name, 1]], exp)
                yield m, q.syllables


def normal_form(w: Union[BraidWord, CentralElement]) -> CentralElement:
    """Fold the letters through the extension cocycle, s_i^k as one power.

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


def exponent_sum(w: Union[BraidWord, CentralElement]) -> int:
    """The homomorphism B3 -> Z with s1, s2 -> 1 (so x -> 3, y -> 2, h -> 6)."""
    return normal_form(w).exponent_sum


def conjugate_b3(
    g1: Union[BraidWord, CentralElement], g2: Union[BraidWord, CentralElement]
) -> Optional[BraidWord]:
    """A braid k with k g1 k^-1 = g2, or None.

    The quotient images must be conjugate, and then one lifted quotient
    conjugator (:meth:`~gentorsion.seifert.CentralExtension.lift_conjugator`)
    decides: it leaves the central defect (e(g1) - e(g2)) / 6, as conjugation
    keeps the exponent sum and e(h) = 6, so g1 and g2 are conjugate exactly
    when their exponent sums agree, and then that lift is a conjugator.
    """
    lift = _B3.lift_conjugator(normal_form(g1), normal_form(g2))
    if lift is None or lift[1]:
        return None
    return CentralElement(0, lift[0]).spell()


class B3Reversibility(_Record):
    """A validated reverser and a commutator form of g, all three braid words.

    The witness exhibits g as conjugate to [x, k0] = x k0 x^-1 k0^-1 with
    x = s1 s2 s1: witness_conjugator * [x, k0] * witness_conjugator^-1 = g.
    """

    __slots__ = _fields = ("reverser", "commutator_witness", "witness_conjugator")


def reversible_b3(g: Union[BraidWord, CentralElement]) -> Optional[B3Reversibility]:
    """Decide whether g is conjugate to its inverse in B3.

    B3 is a Seifert group, so the decision is the Seifert groups' one lift
    (:meth:`~gentorsion.seifert.CentralExtension.lift_conjugator`) of a
    quotient reverser: the image must be reversible and the lifted reverser
    must leave defect 0.  That defect is e(g)/3, since conjugation keeps the
    exponent sum and inversion negates it (2m for h^m), so g is reversible
    exactly when e(g) = 0 and its image is reversible.  The image is then a
    product of two involutions, conjugate to [a, k0] = a k0 a k0^-1, so its
    cyclic core mirrors itself to its inverse around an a-syllable out to
    half its length L, and k0 is the L/2 - 1 syllables after that centre.
    Among the centres the witness takes the first k0 in enumerate_reduced
    order, and its conjugator is the same lift from [x, k0] to g.
    """
    n = normal_form(g)
    if n.is_identity:
        raise TrivialElement("reversibility is considered for nontrivial braids")
    lift = _B3.lift_conjugator(n, n.inverse())
    if lift is None or lift[1]:
        return None
    r = CentralElement(0, lift[0])

    cyclic = _cyclic_core(n.q)[0]
    core, half = cyclic.syllables, len(cyclic) // 2
    ring = core + core
    readings = [ring[c + 1:c + half] for c in mirror_centres(cyclic, half) if core[c][0] == "a"]
    if not readings:
        raise InvalidCertificate(f"reversible image {n.q} has no commutator form")
    # every such k0 alternates from b, so its exponents order it as
    # enumerate_reduced does
    k0 = CentralElement(0, Word(PSL2Z, min(readings, key=lambda k: [exp for _, exp in k])))
    x = CentralElement(0, _word("a"))
    witness = _B3.lift_conjugator(x * k0 * x.inverse() * k0.inverse(), n)
    if witness is None or witness[1]:
        raise InvalidCertificate(f"commutator [x, {k0.spell()}] is not conjugate to {n}")
    return B3Reversibility(
        reverser=r.spell(), commutator_witness=k0.spell(),
        witness_conjugator=CentralElement(0, witness[0]).spell(),
    )


def _family_diagnostics(e: int) -> tuple[str, ...]:
    """Which products of two lifted order-3 torsion factors can match a braid of exponent sum e.

    A factor e_i lifts a conjugate of b and has exponent sum 2, so a
    candidate e-product with a central correction h^x matches only when
    its total exponent sum vanishes.  The image's b-exponent sum mod 3 is
    2e mod 3, as e = 6m + 3 #a + 2 (sum of the b-exponents).
    """
    s = 2 * e % 3
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


class B3Gen3Witness(_Record):
    """The form g = e1 * e2^2 * h^-1 with e1, e2 distinct lifted 3-torsions."""

    __slots__ = _fields = ("e1", "e2", "conjugator")


class B3Gen3Verdict(_Record):
    """A tag, and for a yes the certificate (h1, k) and a form witness; notes on the families."""

    __slots__ = _fields = ("tag", "certificate", "reason", "form_witness", "diagnostics")
    _defaults = {"certificate": None, "reason": None, "form_witness": None, "diagnostics": ()}


def gen3_relation(g: CentralElement, *conjugators: CentralElement) -> CentralElement:
    """g (k_1 g k_1^-1) ... (k_r g k_r^-1) in normal form, folded as one product: 1 for
    the conjugators (h1, k) of generalised 3-torsion, and for (r) exactly when r reverses g."""
    pieces = [piece for k in conjugators for piece in _B3.conjugate_pieces(g, k)]
    return CentralElement(*_B3.product(g.m, g.q, pieces))


def gen3_torsion_b3(g: Union[BraidWord, CentralElement]) -> B3Gen3Verdict:
    """Decide generalised 3-torsion in B3.

    The exponent sum must vanish (three conjugates of g have exponent sum
    3 e(g)), and then the question descends to the quotient: a quotient
    certificate lifts to a braid relation equal to h^(e(g)/2) = 1.  A quotient
    witness c (z b^u z^-1 b^v) c^-1 gives the form e1 e2^2 h^-1, certified by
    (e2^-2, e2^2): e1, e2 conjugate y by (c z, c) if u = 1, else by (c, c z)
    with c shifted by b^2.
    """
    n = normal_form(g)
    if n.is_identity:
        raise TrivialElement("generalised torsion is considered for nontrivial braids")
    e = n.exponent_sum
    diagnostics = _family_diagnostics(e)
    if e != 0:
        return B3Gen3Verdict(
            Verdict.NO,
            reason=f"exponent sum {e} is nonzero, so a product of three "
            f"conjugates has exponent sum {3 * e} and cannot be trivial",
            diagnostics=diagnostics,
        )
    image = gen3_torsion(n.q)
    if image.tag == Verdict.NO:
        return B3Gen3Verdict(
            Verdict.NO,
            reason=f"quotient image is not generalised 3-torsion: {image.reason}",
            diagnostics=diagnostics,
        )

    w = image.witness
    if w is None or (w.e1, w.e2) not in ((1, 2), (2, 1)):
        raise InvalidCertificate(
            "a zero-exponent-sum braid forces an order-3 image witness with "
            "exponents summing to 0 mod 3"
        )
    # c (z b^2 z^-1 b) c^-1 is (c b^2) (b z b^2 z^-1) (c b^2)^-1
    c = CentralElement(0, w.conjugator * _word("b^2") if w.e1 == 2 else w.conjugator)
    cz = c * CentralElement(0, w.z)
    y = CentralElement(0, _word("b"))
    e1, e2 = (y.conjugated_by(k) for k in ((cz, c) if w.e1 == 1 else (c, cz)))
    if e1 == e2:
        raise InvalidCertificate("the two torsion factors must be distinct")
    k = e2 ** 2
    if e1 * k * CentralElement(-1, identity(PSL2Z)) != n:
        raise InvalidCertificate("form witness does not rebuild the element")
    h1 = k.inverse()
    if not gen3_relation(n, h1, k).is_identity:
        raise InvalidCertificate(f"certificate ({h1}, {k}) fails for {n}")
    return B3Gen3Verdict(
        Verdict.YES,
        certificate=(h1, k),
        reason="conjugate to e1 e2^2 h^-1 with e1, e2 lifted order-3 torsions",
        form_witness=B3Gen3Witness(e1=e1, e2=e2, conjugator=c),
        diagnostics=diagnostics,
    )
