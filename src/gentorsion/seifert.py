"""Seifert-fibered fundamental groups over a base with boundary.

The data (orientable?, genus | b; (mu_i, beta_i), ...) with a boundary count
and an orientation character phi presents a group on handle generators,
exceptional-fiber generators c_i, boundary generators d_i and the fiber h:

    z h z^-1 = h^phi(z)   for handle and boundary generators z
    c_i h c_i^-1 = h      c_i^mu_i = h^beta_i
    (long relation)       prod [a_i, b_i] prod c_i prod d_i h^b = 1
                          (prod x_i^2 on a non-orientable base)

With at least one boundary component the last boundary generator can be
eliminated from the long relation, the quotient by <h> becomes a free
product of cyclic groups, and every element gets a unique central form
h^m * section(q).  Since h is only phi-twisted central, pushing the fiber
through a word flips its exponent by the product of the phi values it
crosses; merging c-syllables spills beta-weighted fiber powers.  That
arithmetic is :class:`CentralExtension`, which the braid group B3 shares.
Its products cancel only at the seams between reduced pieces, and its
powers repeat the cyclic core, so both take time linear in their output.

Reversibility, and conjugacy in B3, are found in the quotient and lifted
once (:meth:`CentralExtension.lift_conjugator`): every lift of every quotient
conjugator carries g to the same h^t times the target, so the answer is yes
exactly when t = 0.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import islice
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    InvalidCertificate,
    InvalidInvariant,
    ParseError,
    TrivialElement,
    UnknownGenerator,
    UnsupportedBase,
)
from .words import (
    GroupScheme,
    Syllable,
    Word,
    _cyclic_core,
    _Record,
    format_tokens,
    identity,
    invert,
    is_conjugate,
    reduce,
    require_gen_degree,
    tokens,
)


class SeifertData(_Record):
    """Seifert invariants plus the orientation character phi.

    phi holds explicit assignments for handle/crosscap and boundary
    generators; anything unlisted is +1, and the c_i and h are +1 by the
    relations.  With boundary, the phi values on boundary generators must
    multiply to +1, since eliminating the last one forces its twist to
    equal the product of the others; anything else collapses the fiber
    to order two.
    """

    _fields = ("base_orientable", "genus_or_crosscaps", "boundary_count", "b", "exceptional", "phi")
    #: beside the fields: the generator names, and phi of every one of them
    __slots__ = _fields + ("_handles", "_fibres", "_boundary", "_twist")
    _defaults = {"exceptional": (), "phi": ()}

    def __init__(self, *values, **named):
        super().__init__(*values, **named)
        if self.genus_or_crosscaps < 0:
            raise InvalidInvariant("genus / crosscap count must be nonnegative")
        if self.boundary_count < 0:
            raise InvalidInvariant("boundary count must be nonnegative")
        for mu, _ in self.exceptional:
            if mu < 2:
                raise InvalidInvariant(f"exceptional fiber order {mu} is below 2")
        count = range(1, self.genus_or_crosscaps + 1)
        letters = "ab" if self.base_orientable else "x"
        self._handles = tuple(f"{x}{i}" for i in count for x in letters)
        self._fibres = tuple(f"c{i}" for i in range(1, len(self.exceptional) + 1))
        self._boundary = tuple(f"d{i}" for i in range(1, self.boundary_count + 1))
        twist = dict.fromkeys(self._handles + self._boundary, 1)
        seen = set()
        for name, value in self.phi:
            if name not in twist:
                fixed = name == "h" or name in self._fibres
                raise InvalidInvariant(
                    f"phi of {name!r} is fixed at +1 by the relations" if fixed
                    else f"phi assigned to unknown generator {name!r}"
                )
            if name in seen:
                raise InvalidInvariant(f"phi assigned twice to {name!r}")
            seen.add(name)
            if value not in (1, -1):
                raise InvalidInvariant(f"phi values must be +1 or -1, got {value}")
            twist[name] = value
        if prod(twist[name] for name in self._boundary) != 1:
            raise InvalidInvariant(
                "phi must multiply to +1 over the boundary generators; the "
                "long relation forces the last twist to equal the product "
                "of the others"
            )
        self._twist = {**twist, **dict.fromkeys(self._fibres + ("h",), 1)}

    def handle_generators(self) -> tuple[str, ...]:
        return self._handles

    def exceptional_generators(self) -> tuple[str, ...]:
        return self._fibres

    def boundary_generators(self) -> tuple[str, ...]:
        return self._boundary

    def phi_of(self, name: str) -> int:
        try:
            return self._twist[name]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {name!r}") from None

    @property
    def phi_nontrivial(self) -> bool:
        return -1 in self._twist.values()


#: The grammar, compiled on first use through the re module's cache so that
#: importing stays cheap.  A fibre (mu, beta), with its numbers as groups, and
#: without them for _TUPLE, which repeats it in half the time that way:
_FIBRE = r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)"
_PAIR = r"\(\s*-?\d+\s*,\s*-?\d+\s*\)"
#: the invariant tuple up to its ')', with the fibre list (group 4) after ';'
#: or ','.  No other part of the text holds parentheses, so no depth is
#: counted.  Here and in _CLAUSES a match ends past a ``comma`` after an item
#: that no item follows, so that an error points at the bad item; in
#: _CLAUSES only where no ';' follows, or the next clause would go on.
_TUPLE = (
    r"\s*\(\s*(?:O\s*,\s*o|(N))\s*,\s*(-?\d+)\s*\|\s*(-?\d+)\s*(?:[;,]\s*("
    rf"(?:{_PAIR}(?:\s*,\s*{_PAIR})*(?P<comma>\s*,)?)?)\s*)?"
)
_ASSIGN = r"([A-Za-z][A-Za-z0-9]*)\s*=\s*([+-]?1)"
#: the clauses after the tuple, each after a ';' and possibly empty
_CLAUSES = (
    r"(?:\s*;\s*(?:boundaries\s*=\s*-?\d+|phi\s*:(?:\s*"
    rf"{_ASSIGN}(?:\s*,\s*{_ASSIGN})*(?P<comma>\s*,(?!\s*;))?)?)?)*\s*"
)
_BOUNDARIES = r";\s*boundaries\s*=\s*(-?\d+)"
_PHI = rf"[:,]\s*{_ASSIGN}"


def parse_seifert(text: str) -> SeifertData:
    """Parse data like ``(O,o,0 | 1; (2,1),(3,1)); boundaries=1; phi: d1=+1``.

    The grammar is the one README.md gives.  Each expression is matched
    once, from a fixed position.  Only optional parts follow a repeated
    group, so no match backtracks into one, and a run of spaces or digits
    is backed out of at most once: the time is linear in the length of the
    text.  A ParseError gives the position where the text stops fitting.
    """
    head = re.compile(_TUPLE).match(text)
    close = head.end() if head else 0
    if not head or head["comma"] or not text.startswith(")", close):
        raise ParseError("the tuple reads (O,o,genus | b; (mu,beta),...) or (N,crosscaps | ...)",
                         close)
    tail = re.compile(_CLAUSES).match(text, close + 1)
    if tail.end() < len(text) or tail["comma"]:
        raise ParseError("a clause reads '; boundaries=<count>' or '; phi: gen=+1,...'", tail.end())
    boundaries = 0
    for m in re.compile(_BOUNDARIES).finditer(text, close):
        boundaries = _integer(m[1], "boundary count", m.start(1))
    fibres = tuple(
        (_integer(m[1], "fiber order", m.start(1)), _integer(m[2], "fiber pair", m.start(2)))
        for m in re.compile(_FIBRE).finditer(text, *head.span(4))
    )
    count = _integer(head[2], "genus/crosscap count", head.start(2))
    b = _integer(head[3], "b invariant", head.start(3))
    phi = tuple((name, int(sign)) for name, sign in re.compile(_PHI).findall(text, close))
    return SeifertData(not head[1], count, boundaries, b, fibres, phi)


def _integer(text: str, what: str, pos: int) -> int:
    """int(text), with a ParseError for non-integers and past the int/str digit limit."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what} {text[:20]!r}", pos) from None


class Presentation(_Record):
    """Generator names, and relations as (left, right) pairs of element text."""

    __slots__ = _fields = ("generators", "relations")


def presentation(d: SeifertData) -> Presentation:
    """The standard presentation for the data: twists, fiber orders, long relation."""
    handles = d.handle_generators()
    cs = d.exceptional_generators()
    ds = d.boundary_generators()
    generators = handles + cs + ds + ("h",)
    relations: list[tuple[str, str]] = []
    for z in handles + ds + cs:
        twist = format_tokens([("h", d.phi_of(z))])
        relations.append((format_tokens([(z, 1), ("h", 1), (z, -1)]), twist))
    for c, (mu, beta) in zip(cs, d.exceptional):
        fiber = format_tokens([("h", beta)] if beta else [])
        relations.append((format_tokens([(c, mu)]), fiber))
    long = _long_relation(d) + ([("h", d.b)] if d.b else [])
    relations.append((format_tokens(long), "1"))
    return Presentation(generators=generators, relations=tuple(relations))


def _long_relation(d: SeifertData) -> list[tuple[str, int]]:
    """The long relation without its fiber power: commutators or squares, c_i, d_i."""
    handles = d.handle_generators()
    if d.base_orientable:
        pairs = []
        for a, b in zip(handles[::2], handles[1::2]):
            pairs += ((a, 1), (b, 1), (a, -1), (b, -1))
    else:
        pairs = [(x, 2) for x in handles]
    return pairs + [(name, 1) for name in d.exceptional_generators() + d.boundary_generators()]


class QuotientMap(_Record):
    """The quotient by <h> with the last boundary generator eliminated."""

    __slots__ = _fields = ("scheme", "eliminated", "elimination_image")


def quotient_scheme(d: SeifertData) -> Optional[QuotientMap]:
    """The free-product-of-cyclics quotient, present only with boundary.

    Closed bases keep their surface relation in the quotient, which is not
    a free product of cyclics, so exact word computations are not offered.
    """
    if d.boundary_count < 1:
        return None
    gens: list[tuple[str, Optional[int]]] = []
    for name, (mu, _) in zip(d.exceptional_generators(), d.exceptional):
        gens.append((name, mu))
    for name in d.handle_generators():
        gens.append((name, None))
    for name in d.boundary_generators()[:-1]:
        gens.append((name, None))
    scheme = GroupScheme(tuple(gens))
    # the long relation solved for its last boundary generator
    image = invert(reduce(_long_relation(d)[:-1], scheme))
    return QuotientMap(scheme, d.boundary_generators()[-1], image)


class SeifertPair(_Record):
    """The central form h^m * section(q) of a group element."""

    __slots__ = _fields = ("m", "q")

    def __init__(self, m: int, q: Word):
        self.m = m
        self.q = q

    @property
    def is_identity(self) -> bool:
        return self.m == 0 and self.q.is_identity

    def __str__(self) -> str:
        return f"(h^{self.m}, {self.q})"


#: a factor h^k * s_1 ... s_r of a product, as (k, syllables)
Piece = tuple[int, Sequence[Syllable]]


class CentralExtension:
    """Arithmetic of pairs (m, q) = h^m * section(q) over a free product of cyclics.

    Each generator g carries a twist phi(g) = +-1 with g h g^-1 = h^phi(g),
    and each finite-order generator a fiber weight beta(g) with
    g^order = h^beta(g).  Pushing the fiber through a word flips its exponent
    by the product of the phi values it crosses; merging syllables spills
    beta-weighted fiber powers.
    """

    def __init__(self, scheme: GroupScheme, beta: dict[str, int], phi: dict[str, int]):
        self.scheme = scheme
        self._order = dict(scheme.generators)
        self._beta = beta
        self._flips = frozenset(name for name, value in phi.items() if value == -1)

    def phi_word(self, q: Word) -> int:
        odd = sum(exp % 2 for gen, exp in q.syllables if gen in self._flips)
        return -1 if odd % 2 else 1

    def product(self, m: int, q: Word, pieces: Iterable[Piece]) -> tuple[int, Word]:
        """(m, q) times every piece in turn, cancelling only at the seams.

        A piece is a reduced, normalised word, or one syllable of any exponent, which
        wraps; a word's syllables merge while they meet the stack top, the rest go on whole.
        """
        order, beta, flips = self._order, self._beta, self._flips
        interned = self.scheme.interned
        stack = list(q.syllables)
        pend = 0  # the fiber power sitting to the right of the stack
        for k, syllables in pieces:
            pend += k
            i, last = 0, len(syllables) - 1
            for gen, exp in syllables:
                if last and not (stack and stack[-1][0] == gen):
                    break
                i += 1
                # h^pend * g^e = g^e * h^(pend * phi(g)^e)
                if flips and exp % 2 and gen in flips:
                    pend = -pend
                if stack and stack[-1][0] == gen:
                    exp += stack.pop()[1]
                n = order[gen]
                if n is not None:
                    wraps, exp = divmod(exp, n)
                    pend += beta[gen] * wraps
                if exp:
                    stack.append(interned[gen, exp])
                    break
            if i <= last:
                stack += islice(syllables, i, None) if i else syllables
                if flips and pend and sum(e % 2 for g, e in islice(syllables, i, None)
                                          if g in flips) % 2:
                    pend = -pend
        q = Word(self.scheme, tuple(stack))
        if flips and pend:
            pend *= self.phi_word(q)
        return m + pend, q

    def inverse(self, m: int, q: Word) -> tuple[int, Word]:
        """(m, q)^-1 = (-drift, q^-1), where the product (0, q^-1) (m, q) is h^drift.

        That product cancels q^-1 against q: each finite-order syllable wraps once and
        spills beta(g), after an odd power of a flipping letter has negated the fiber.
        """
        beta, flips = self._beta, self._flips
        for gen, exp in q.syllables:
            m = (-m if exp % 2 and gen in flips else m) + beta.get(gen, 0)
        return -m, invert(q)

    def conjugate_pieces(self, p: SeifertPair, k: SeifertPair) -> tuple[Piece, Piece, Piece]:
        """k, p and k^-1 as pieces, whose one product is the conjugate k p k^-1."""
        k_m, k_inv = self.inverse(k.m, k.q)
        return (k.m, k.q.syllables), (p.m, p.q.syllables), (k_m, k_inv.syllables)

    def power(self, m: int, q: Word, n: int) -> tuple[int, Word]:
        """(m, q)^n = P (m_c, c)^n P^-1 with P = (0, p) and c = p^-1 q p the cyclic core of q.

        Copies of (m_c, c) = P^-1 (m, q) P do not cancel, so (m_c, c)^n is h^(m_c n), or
        h^(m_c (n % 2)) when phi(c) = -1, times c repeated, or its one syllable raised.
        """
        if n < 0:
            (m, q), n = self.inverse(m, q), -n
        p = _cyclic_core(q)[1]
        p_m, p_inv = self.inverse(0, p)
        m, c = self.product(p_m, p_inv, ((m, q.syllables), (0, p.syllables)))
        fiber = m * (n if self.phi_word(c) == 1 else n % 2)
        s = c.syllables
        core = ((s[0][0], s[0][1] * n),) if len(s) == 1 else s * n
        if p or len(s) == 1:
            return self.product(0, p, ((fiber, core), (p_m, p_inv.syllables)))
        return fiber, Word(self.scheme, core)

    def lift_conjugator(self, p: SeifertPair, target: SeifertPair) -> Optional[tuple[Word, int]]:
        """A quotient conjugator k of p.q to target.q and the central defect of its lift.

        The defect t is the fiber power with (0, k) p (0, k)^-1 = h^t target,
        so (0, k) conjugates p to target exactly when t = 0.  Returns None
        when the images are not conjugate, and raises InvalidCertificate
        when the conjugate's image is not target.q.

        A nonzero t is a "no" wherever every lift of every quotient
        conjugator leaves the same t.  In B3 the exponent sum e is a class
        function with e(h) = 6, so t = (e(p) - e(target)) / 6 for all of
        them.  For reversal, target = p^-1, with p.q nontrivial over a base
        with boundary: a reversible element of a free product of cyclic
        groups is elliptic or a product of two involutions (Lyndon-Schupp,
        *Combinatorial Group Theory*, IV.1.6), and so is its primitive
        root; elliptics and involutions are conjugate into the finite
        factors c_i, where phi = +1.  The quotient reversers form the coset
        k <root>, whose lifts are (0, k) (0, root)^j h^s, and as phi(p.q) =
        phi(root) = +1 both (0, root) and h^s commute with p.
        """
        k = is_conjugate(p.q, target.q)
        if k is None:
            return None
        m, q = self.product(0, identity(self.scheme), self.conjugate_pieces(p, SeifertPair(0, k)))
        if q != target.q:
            raise InvalidCertificate(f"quotient conjugator {k} does not carry {p.q} to {target.q}")
        return k, m - target.m


class SeifertGroup(CentralExtension):
    """Central-form arithmetic for data with at least one boundary component."""

    def __init__(self, data: SeifertData):
        qmap = quotient_scheme(data)
        if qmap is None:
            raise UnsupportedBase(
                "exact element arithmetic needs at least one boundary component"
            )
        beta = dict(zip(data.exceptional_generators(), (b for _, b in data.exceptional)))
        phi = {name: data.phi_of(name) for name, _ in qmap.scheme.generators}
        super().__init__(qmap.scheme, beta, phi)
        self.data = data
        self.qmap = qmap
        # the long relation gives d_m = (prefix * h^b)^-1
        prefix = invert(qmap.elimination_image)
        self._dm = self.inv(SeifertPair(*self.product(0, prefix, ((data.b, ()),))))

    # -- basic elements ------------------------------------------------

    @property
    def one(self) -> SeifertPair:
        return SeifertPair(0, identity(self.scheme))

    def generator(self, name: str) -> SeifertPair:
        return self._element(((name, 1),))

    def mul(self, p1: SeifertPair, p2: SeifertPair) -> SeifertPair:
        return SeifertPair(*self.product(p1.m, p1.q, ((p2.m, p2.q.syllables),)))

    def inv(self, p: SeifertPair) -> SeifertPair:
        return SeifertPair(*self.inverse(p.m, p.q))

    def pow(self, p: SeifertPair, n: int) -> SeifertPair:
        return SeifertPair(*self.power(p.m, p.q, n))

    def conjugated(self, p: SeifertPair, k: SeifertPair) -> SeifertPair:
        return SeifertPair(*self.product(0, identity(self.scheme), self.conjugate_pieces(p, k)))

    # -- parsing and printing ------------------------------------------

    def element(self, text: str) -> SeifertPair:
        """Parse a word over the presentation alphabet into central form."""
        return self._element(tokens(text))

    def _element(self, pairs: Iterable[tuple[str, int]]) -> SeifertPair:
        """The central form of the (name, exponent) pairs of a text."""
        return SeifertPair(*self.product(0, identity(self.scheme), self._pieces(pairs)))

    def _pieces(self, pairs: Iterable[tuple[str, int]]) -> Iterator[Piece]:
        for name, exp in pairs:
            if name in self._order:
                yield 0, ((name, exp),)
            elif name == "h":
                yield exp, ()
            elif name == self.qmap.eliminated:
                dm = self._dm if exp == 1 else self.pow(self._dm, exp)
                yield dm.m, dm.q.syllables
            else:
                raise UnknownGenerator(f"unknown generator {name!r}")

    def spell(self, p: SeifertPair) -> str:
        fiber = (("h", p.m),) if p.m else ()
        return format_tokens(fiber + p.q.syllables)


#: the one SeifertGroup of each data, built on first use
seifert_group = lru_cache(maxsize=16)(SeifertGroup)


class SeifertReversibility(_Record):
    """The verdict, a reverser or None, the reason and the input's central form."""

    __slots__ = _fields = ("reversible", "reverser", "reason", "normal_form")


def reversible_seifert(
    g: Union[str, SeifertPair], d: SeifertData
) -> SeifertReversibility:
    """Decide reversibility in the fundamental group for boundary data.

    Powers of the fiber are reversible exactly when phi is nontrivial.
    Anything else is decided by one lift
    (:meth:`CentralExtension.lift_conjugator`): the image q must be
    reversible in the quotient, and g is reversible exactly when the lifted
    quotient reverser (0, rho) leaves central defect 0, with (0, rho) as
    reverser.  No other reverser leaves another defect.
    """
    group = seifert_group(d)
    p = group.element(g) if isinstance(g, str) else g
    if p.is_identity:
        raise TrivialElement("reversibility is considered for nontrivial elements")

    if p.q.is_identity:
        for name in _kept_letters(d, -1):
            reverser = group.generator(name)
            if group.conjugated(p, reverser) != group.inv(p):
                raise InvalidCertificate(f"{name} does not invert the fiber power")
            return SeifertReversibility(True, reverser, f"phi({name}) = -1 inverts the fiber", p)
        reason = "phi is trivial, so conjugation preserves every power of the fiber"
        return SeifertReversibility(False, None, reason, p)

    lift = group.lift_conjugator(p, group.inv(p))
    if lift is None:
        reason = "the image is not conjugate to its inverse in the quotient"
        return SeifertReversibility(False, None, reason, p)
    rho, defect = lift
    if defect:
        reason = f"every lifted reverser leaves the central defect h^{defect}"
        return SeifertReversibility(False, None, reason, p)
    return SeifertReversibility(True, SeifertPair(0, rho), "zero-defect lifted reverser", p)


# -- symbolic families ------------------------------------------------


class PowersOfH(_Record):
    __slots__ = ()
    family = "powers-of-h"


class TwoHalfTwists(_Record):
    """Conjugates of c_i^(mu_i/2) k c_j^(sign * mu_j/2) k^-1, phi(k) fixed."""

    __slots__ = _fields = ("i", "j", "second_sign", "phi_k", "beta")
    family = "two-half-twists"


class SurfaceException(_Record):
    __slots__ = _fields = ("surface",)
    family = "surface-exception"


class ReversibleFamilyReport(_Record):
    """The family descriptors, each with its ``family`` name, and notes."""

    __slots__ = _fields = ("families", "notes")


def classify_reversible_families(d: SeifertData) -> ReversibleFamilyReport:
    """The symbolic catalogue of reversible elements for the data.

    With nontrivial phi: powers of the fiber, and for every pair of even
    fiber orders with equal beta the half-twist products with a flipping
    (+ exponent) or preserving (- exponent) conjugating letter.  With
    trivial phi only the preserving family survives.  A closed projective
    plane or Klein bottle base adds its surface generators.
    """
    flips = d.phi_nontrivial
    families: list = []
    notes: list[str] = []
    if flips:
        families.append(PowersOfH())
    pairs = []
    for i, (mu_i, beta_i) in enumerate(d.exceptional, start=1):
        for j, (mu_j, beta_j) in enumerate(d.exceptional, start=1):
            if j < i:
                continue
            if mu_i % 2 or mu_j % 2:
                continue
            if beta_i != beta_j:
                continue
            pairs.append((i, j, beta_i))
    for i, j, beta in pairs:
        if flips:
            families.append(
                TwoHalfTwists(i=i, j=j, second_sign=1, phi_k=-1, beta=beta)
            )
        families.append(TwoHalfTwists(i=i, j=j, second_sign=-1, phi_k=1, beta=beta))
    if pairs and not flips:
        notes.append(
            "trivial phi: the even fiber orders and matching beta constraints "
            "come from the proof of the half-twist lemma"
        )
    if not d.base_orientable and d.boundary_count == 0 and d.genus_or_crosscaps in (1, 2):
        surface = "rp2" if d.genus_or_crosscaps == 1 else "klein-bottle"
        families.append(SurfaceException(surface=surface))
        notes.append(
            "closed non-orientable base with at most two crosscaps contributes "
            "its surface generators as additional reversibles"
        )
    return ReversibleFamilyReport(families=tuple(families), notes=tuple(notes))


# -- generalised n-torsion certificates --------------------------------


class GenNCertificate(_Record):
    """An element c_i^p (k c_j^p' k^-1) h^x with n x + M1 + M2 = 0.

    The powers satisfy c_i^(n p) = h^M1 and c_j^(n p') = h^M2, so the
    product of the n conjugates by the listed conjugators telescopes to
    h^(M1 + M2 + n x) = 1.

    A nonempty ``flipping`` names a letter f with phi(f) = -1 and n is even:
    the element is h, its conjugates by f, f^2, ..., f^(n-1) alternate
    h^-1, h, ..., h^-1, and i, j, p, p', x, M1 and M2 are 0.  The element
    and the conjugators are element text.
    """

    __slots__ = _fields = (
        "n", "i", "j", "p", "p_prime", "x", "m1", "m2", "separating", "element", "conjugators",
        "flipping",
    )
    _defaults = {"flipping": ""}


def _kept_letters(d: SeifertData, phi: int) -> list[str]:
    """Handle and non-eliminated boundary generators with twist phi."""
    kept = d.handle_generators() + d.boundary_generators()[:-1]
    return [g for g in kept if d.phi_of(g) == phi]


def _separating_letter(d: SeifertData, i: int, j: int) -> str:
    """A fiber-preserving letter distinguishing the two conjugates when i = j."""
    if i != j:
        return ""
    names = [f"c{idx}" for idx in range(1, len(d.exceptional) + 1) if idx != j]
    candidates = names + _kept_letters(d, 1)
    return candidates[0] if candidates else ""


def _require_gen_n_base(d: SeifertData) -> None:
    """Refuse a closed base whose orbifold Euler characteristic is positive.

    chi_orb = chi(base) - sum(1 - 1/mu_i) is compared with 0 after scaling
    by lcm(mu_i).  Above 0 the base orbifold is spherical or bad and the
    fiber can have finite order, so an element nontrivial in the drilled
    group can be 1: (O,o,0|0;(4,1),(4,3)) is Z/16, where
    c1^2 c2 c1^2 c2^-1 h^-1 = 1, and in (O,o,0|3) the fiber has order 3.
    """
    # each cone point takes at least 1/2 from chi(base) <= 2, so four give chi_orb <= 0
    if d.boundary_count or len(d.exceptional) > 3:
        return
    scale = lcm(*(mu for mu, _ in d.exceptional))
    chi_base = 2 - (2 if d.base_orientable else 1) * d.genus_or_crosscaps
    chi_orb = chi_base * scale - sum(scale - scale // mu for mu, _ in d.exceptional)
    if chi_orb > 0:
        from fractions import Fraction

        raise UnsupportedBase(
            "gen-n answers on a closed base need orbifold Euler characteristic "
            f"<= 0, got {Fraction(chi_orb, scale)}"
        )


def gen_n_pair(d: SeifertData, n: int) -> Optional[tuple[int, int, int, int]]:
    """The pair (i, j, p, p') of least key (p + p', i, j, p, p'), if any.

    p must be nonzero modulo mu_i with c_i^(n p) a fiber power, so mu_i
    divides n p: p = u mu_i / g_i with g_i = gcd(n, mu_i) and u not
    divisible by g_i.  Shifting u by g_i moves p by mu_i, M1 = beta_i n p / mu_i
    by beta_i n and p + p' by mu_i, which changes neither "p != 0 mod mu_i",
    nor (M1 + M2) mod n, nor the i = j merge test; it only grows the key.
    So the least key has u in [1, g_i) and, likewise, v in [1, g_j).  These
    powers are sorted and indexed by M mod n, and each (p, i) pairs with the
    first (p', j) of residue -M1, skipped if it merges.  Only a lone fiber
    merges, and a pair there needs t | u + v but not g | u + v, t = g /
    gcd(beta, g); so u = 1 with its first v = t - 1 (or 1) is the least key
    if any pair exists.  That is O(sum g_i) steps plus the sort, within the
    n - 1 conjugators of a found certificate.
    """
    require_gen_degree(n)
    _require_gen_n_base(d)
    powers = sorted((u * (mu // g), j, beta * u * (n // g) % n)
                    for j, (mu, beta) in enumerate(d.exceptional, start=1)
                    for g in (gcd(n, mu),) for u in range(1, g))
    first = {power[2]: power for power in reversed(powers)}  # the least power of each M mod n
    lone = not _separating_letter(d, 1, 1)  # one fiber and no letter to separate c1's conjugates
    best = None
    for p, i, m in powers:
        p_prime, j, _ = first.get(-m % n, (0, 0, 0))
        if not p_prime or lone and (p + p_prime) % d.exceptional[0][0] == 0:
            continue  # no partner, or both conjugates merge into a fiber power
        key = (p + p_prime, i, j, p, p_prime)
        if best is None or key < best:
            best = key
    return None if best is None else best[1:]


def gen_n_certificate(d: SeifertData, n: int) -> Optional[GenNCertificate]:
    """A generalised n-torsion element with its n - 1 conjugators, if any.

    The pair (i, j, p, p') comes from :func:`gen_n_pair`, one index of the fiber
    powers by their fiber exponent mod n, in O(sum gcd(n, mu_i)) steps plus a
    sort.  Failing a pair, an even n and a handle or non-eliminated boundary
    generator f with phi(f) = -1 give the element h.  The conjugators are the
    powers K^l, l < n, of K = k c_j^-p' k^-1 or f, so the relation telescopes,
    g * prod K^l g K^-l = (g K)^n K^-n, and is checked in O(|g| + |K| + digits
    of n).  Returns None when neither exists, which covers n coprime to every
    fiber order with no flipping letter; a closed base with positive orbifold
    Euler characteristic raises UnsupportedBase.
    """
    pair = gen_n_pair(d, n)
    if pair is not None:
        i, j, p, p_prime = pair
        (mu_i, beta_i), (mu_j, beta_j) = d.exceptional[i - 1], d.exceptional[j - 1]
        m1 = beta_i * (n * p) // mu_i
        m2 = beta_j * (n * p_prime) // mu_j
        x = -(m1 + m2) // n
        separating, flipping, letter, step = _separating_letter(d, i, j), "", f"c{j}", -p_prime
    else:
        flips = _kept_letters(d, -1)
        if n % 2 or not flips:
            return None
        i = j = p = p_prime = x = m1 = m2 = 0
        separating, flipping, letter, step = "", flips[0], flips[0], 1

    def power(l: int) -> list[tuple[str, int]]:
        """K^l = [k] letter^(l step) [k^-1]."""
        core = [(letter, l * step)]
        return [(separating, 1), *core, (separating, -1)] if separating else core

    element = format_tokens([(f"c{i}", p), *power(-1), ("h", x)]) if pair else "h"
    conjugators = tuple(format_tokens(power(l)) for l in range(1, n))
    cert = GenNCertificate(
        n, i, j, p, p_prime, x, m1, m2, separating, element, conjugators, flipping
    )
    if n * cert.x + cert.m1 + cert.m2 != 0:
        raise InvalidCertificate(f"fiber exponents fail n x + m1 + m2 = 0 for n = {n}")
    group = _gen_n_group(d)
    g, k = group.element(element), group.element(conjugators[0])
    holds = not g.is_identity and group.pow(group.mul(g, k), n) == group.pow(k, n)
    if not (holds and _shown_where_closed(d, element)):
        raise InvalidCertificate(f"gen-{n} relation fails for {element!r}")
    return cert


def gen_n_absent_reason(d: SeifertData, n: int) -> str:
    """Why :func:`gen_n_certificate` found nothing for n."""
    for i, (mu, _) in enumerate(d.exceptional, start=1):
        shared = gcd(n, mu)
        if shared > 1:
            return (
                f"fiber c{i} shares the factor {shared} with n = {n} but no "
                "letter separates its two conjugates, so they merge into a "
                "fiber power"
            )
    return f"no exceptional fiber order shares a factor with n = {n}"


def _shown_nontrivial(d: SeifertData, element: str) -> bool:
    """Whether element is h^x, x != 0, or a two-rotation c_i^p [k] c_j^p' [k^-1] h^x.

    The second shape needs p and p' nonzero modulo the fiber orders and the
    two fixed points kept apart: i != j, a letter k that is a handle
    generator or another c_l, or else p + p' nonzero modulo mu_i.
    """
    try:
        pairs = tokens(element)
    except ParseError:
        return False
    if pairs and pairs[-1][0] == "h":
        if len(pairs) == 1:
            return pairs[0][1] != 0
        pairs.pop()
    k = None
    if len(pairs) == 4 and pairs[1] == (pairs[3][0], 1) and pairs[3][1] == -1:
        k = pairs[1][0]
        del pairs[1::2]
    if len(pairs) != 2:
        return False
    orders = dict(zip(d.exceptional_generators(), (mu for mu, _ in d.exceptional)))
    (ci, p), (cj, p_prime) = pairs
    if ci not in orders or cj not in orders or p % orders[ci] == 0 or p_prime % orders[cj] == 0:
        return False
    separated = k in d.handle_generators() or (k in orders and k != ci)
    return ci != cj or separated or (p + p_prime) % orders[ci] != 0


def _gen_n_group(d: SeifertData) -> SeifertGroup:
    """The group a gen-n relation is multiplied in: d's, or on a closed base, which
    has no exact arithmetic, d drilled along one more fiber (boundaries=1).  That
    maps onto the closed group by d1 -> 1, so a relation that holds there holds in
    the closed group too; d1 itself is not a generator of the closed group.
    """
    _require_gen_n_base(d)
    return seifert_group(d if d.boundary_count else SeifertData(
        d.base_orientable, d.genus_or_crosscaps, 1, d.b, d.exceptional, d.phi))


def _shown_where_closed(d: SeifertData, element: str) -> bool:
    """True, or UnsupportedBase on a closed base for element not :func:`_shown_nontrivial`."""
    if d.boundary_count or _shown_nontrivial(d, element):
        return True
    raise UnsupportedBase(f"{element!r} is not of a shape shown nontrivial on a closed base: "
                          "h^x, or c_i^p [k] c_j^p' [k^-1] h^x")


def gen_n_relation_holds(d: SeifertData, element: str, conjugators: Iterable[str]) -> bool:
    """Whether g = element is nontrivial and g * prod (k g k^-1) over conjugators is 1.

    Each text is read through :func:`tokens` once, and the relation is one
    product, in the group :func:`_gen_n_group` picks, of the pieces k, g, k^-1
    for every conjugator k in turn, k^-1 being k's pairs reversed and negated.
    The conjugators are read in one pass, after g.  With the one conjugator r
    it tests that r reverses g: g (r g r^-1) = 1 exactly when r g r^-1 = g^-1.

    That group cannot show g nontrivial in a closed group, so a closed base
    must have orbifold Euler characteristic <= 0, and g one of the shapes
    :func:`gen_n_certificate` builds; anything else raises
    UnsupportedBase.  The orbifold group then acts on the Euclidean or
    hyperbolic plane, and those shapes are nontrivial in the closed group:

    * h has infinite order (Scott, "The geometries of 3-manifolds", 1983,
      Lemma 3.2).
    * c_i^p [k] c_j^p' [k^-1] h^x maps into the orbifold group as a
      product of two nontrivial rotations, as p and p' are nonzero modulo
      the cone orders.  c_i fixes a lift of cone point i, and k c_j k^-1 a
      lift of cone point j.  When i = j, k is another c_l, which fixes a
      lift of another cone point, or a handle generator, which survives in
      the surface group where <c_i> dies; either way k is not in the
      stabiliser <c_i>, so it moves the fixed point.  Rotations about
      distinct points never multiply to 1.  Without such a k the image is
      the one rotation c_i^(p + p'), nontrivial when p + p' is nonzero
      modulo mu_i.
    """
    group = _gen_n_group(d)
    drilled = not d.boundary_count and group.qmap.eliminated

    def read(text: str) -> list[tuple[str, int]]:
        pairs = tokens(text)
        if drilled and any(name == drilled for name, _ in pairs):
            raise UnknownGenerator(f"unknown generator {drilled!r}")
        return pairs

    g = group._element(read(element))
    if g.is_identity:
        return False

    def conjugates() -> Iterator[Piece]:
        for pairs in map(read, conjugators):
            yield from group._pieces(pairs)
            yield g.m, g.q.syllables
            yield from group._pieces([(name, -exp) for name, exp in reversed(pairs)])

    m, q = group.product(g.m, g.q, conjugates())
    return not (m or q) and _shown_where_closed(d, element)
