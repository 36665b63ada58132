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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import repeat
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
    conjugate_to_inverse,
    cyclic_reduce,
    identity,
    invert,
    primitive_root,
    reduce,
)


@dataclass(frozen=True)
class SeifertData:
    """Seifert invariants plus the orientation character phi.

    phi holds explicit assignments for handle/crosscap and boundary
    generators; anything unlisted is +1, and the c_i and h are +1 by the
    relations.  With boundary, the phi values on boundary generators must
    multiply to +1, since eliminating the last one forces its twist to
    equal the product of the others; anything else collapses the fiber
    to order two.
    """

    base_orientable: bool
    genus_or_crosscaps: int
    boundary_count: int
    b: int
    exceptional: tuple[tuple[int, int], ...] = ()
    phi: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.genus_or_crosscaps < 0:
            raise InvalidInvariant("genus / crosscap count must be nonnegative")
        if self.boundary_count < 0:
            raise InvalidInvariant("boundary count must be nonnegative")
        for mu, _ in self.exceptional:
            if mu < 2:
                raise InvalidInvariant(f"exceptional fiber order {mu} is below 2")
        allowed = set(self.handle_generators()) | set(self.boundary_generators())
        seen = set()
        for name, value in self.phi:
            if name not in allowed:
                raise InvalidInvariant(f"phi assigned to unknown generator {name!r}")
            if name in seen:
                raise InvalidInvariant(f"phi assigned twice to {name!r}")
            seen.add(name)
            if value not in (1, -1):
                raise InvalidInvariant(f"phi values must be +1 or -1, got {value}")
        if self.boundary_count >= 1:
            product = 1
            for name in self.boundary_generators():
                product *= self.phi_of(name)
            if product != 1:
                raise InvalidInvariant(
                    "phi must multiply to +1 over the boundary generators; the "
                    "long relation forces the last twist to equal the product "
                    "of the others"
                )

    def handle_generators(self) -> tuple[str, ...]:
        if self.base_orientable:
            out = []
            for i in range(1, self.genus_or_crosscaps + 1):
                out.extend((f"a{i}", f"b{i}"))
            return tuple(out)
        return tuple(f"x{i}" for i in range(1, self.genus_or_crosscaps + 1))

    def exceptional_generators(self) -> tuple[str, ...]:
        return tuple(f"c{i}" for i in range(1, len(self.exceptional) + 1))

    def boundary_generators(self) -> tuple[str, ...]:
        return tuple(f"d{i}" for i in range(1, self.boundary_count + 1))

    def phi_of(self, name: str) -> int:
        if name in self.exceptional_generators() or name == "h":
            return 1
        if name not in self.handle_generators() and name not in self.boundary_generators():
            raise UnknownGenerator(f"unknown generator {name!r}")
        for key, value in self.phi:
            if key == name:
                return value
        return 1

    @property
    def phi_nontrivial(self) -> bool:
        gens = self.handle_generators() + self.boundary_generators()
        return any(self.phi_of(g) == -1 for g in gens)


_PAIR = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")
_ASSIGN = re.compile(r"^([A-Za-z][A-Za-z0-9]*)\s*=\s*([+-]?1)$")


def parse_seifert(text: str) -> SeifertData:
    """Parse data like ``(O,o,0 | 1; (2,1),(3,1)); boundaries=1; phi: d1=+1``.

    An orientable base reads (O,o,genus | b; pairs); a non-orientable one
    reads (N,crosscaps | b; pairs).  The pair list, the boundaries clause
    and the phi clause may each be omitted.
    """
    s = text.strip()
    if not s.startswith("("):
        raise ParseError("expected '(' to open the invariant tuple", 0)
    depth = 0
    close = -1
    for idx, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                close = idx
                break
    if close < 0:
        raise ParseError("unbalanced parentheses in invariant tuple", 0)
    inner, rest = s[1:close], s[close + 1 :]

    left, bar, after_bar = inner.partition("|")
    if not bar:
        raise ParseError("expected '|' before the b invariant", 1)
    after_bar = after_bar.strip()
    b_match = re.match(r"-?\d+", after_bar)
    if not b_match:
        raise ParseError(f"bad b invariant {after_bar!r}", close)
    b = int(b_match.group(0))
    pairs_text = after_bar[b_match.end() :].lstrip()
    if pairs_text:
        # the fiber list follows after ';' or ','
        if pairs_text[0] not in ";,":
            raise ParseError(f"unexpected text {pairs_text!r} after b", close)
        pairs_text = pairs_text[1:]
    fields = [f.strip() for f in left.split(",")]
    if fields and fields[0] == "O":
        if len(fields) != 3 or fields[1] != "o":
            raise ParseError("orientable base reads (O,o,genus | ...)", 1)
        orientable, count_text = True, fields[2]
    elif fields and fields[0] == "N":
        if len(fields) != 2:
            raise ParseError("non-orientable base reads (N,crosscaps | ...)", 1)
        orientable, count_text = False, fields[1]
    else:
        raise ParseError("base must start with O or N", 1)
    try:
        count = int(count_text)
    except ValueError:
        raise ParseError(f"bad genus/crosscap count {count_text!r}", 1) from None

    exceptional = []
    if pairs_text.strip():
        matches = list(_PAIR.finditer(pairs_text))
        if not matches:
            raise ParseError("exceptional fibers read (mu,beta),...", close)
        leftover = _PAIR.sub("", pairs_text).replace(",", "").strip()
        if leftover:
            raise ParseError(f"unexpected text {leftover!r} in fiber list", close)
        exceptional = [(int(m.group(1)), int(m.group(2))) for m in matches]

    boundaries = 0
    phi: list[tuple[str, int]] = []
    for clause in rest.split(";"):
        chunk = clause.strip()
        if not chunk:
            continue
        if chunk.startswith("boundaries"):
            _, eq, value = chunk.partition("=")
            if not eq:
                raise ParseError("boundaries clause reads boundaries=<count>", s.index(chunk))
            try:
                boundaries = int(value.strip())
            except ValueError:
                raise ParseError(f"bad boundary count {value.strip()!r}", s.index(chunk)) from None
        elif chunk.startswith("phi"):
            _, colon, assigns = chunk.partition(":")
            if not colon:
                raise ParseError("phi clause reads phi: gen=+1,...", s.index(chunk))
            for piece in assigns.split(","):
                item = piece.strip()
                if not item:
                    continue
                m = _ASSIGN.match(item)
                if not m:
                    raise ParseError(f"bad phi assignment {item!r}", s.index(item))
                phi.append((m.group(1), 1 if m.group(2).lstrip("+") == "1" else -1))
        else:
            raise ParseError(f"unknown clause {chunk!r}", s.index(chunk))
    return SeifertData(
        base_orientable=orientable,
        genus_or_crosscaps=count,
        boundary_count=boundaries,
        b=b,
        exceptional=tuple(exceptional),
        phi=tuple(phi),
    )


def _fmt(gen: str, exp: int) -> str:
    return gen if exp == 1 else f"{gen}^{exp}"


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relations: tuple[tuple[str, str], ...]


def presentation(d: SeifertData) -> Presentation:
    """The standard presentation for the data: twists, fiber orders, long relation."""
    handles = d.handle_generators()
    cs = d.exceptional_generators()
    ds = d.boundary_generators()
    generators = handles + cs + ds + ("h",)
    relations: list[tuple[str, str]] = []
    for z in handles + ds:
        rhs = "h" if d.phi_of(z) == 1 else "h^-1"
        relations.append((f"{z} h {z}^-1", rhs))
    for c in cs:
        relations.append((f"{c} h {c}^-1", "h"))
    for c, (mu, beta) in zip(cs, d.exceptional):
        relations.append((_fmt(c, mu), "1" if beta == 0 else _fmt("h", beta)))
    long_parts: list[str] = []
    if d.base_orientable:
        for i in range(1, d.genus_or_crosscaps + 1):
            long_parts.extend((f"a{i}", f"b{i}", f"a{i}^-1", f"b{i}^-1"))
    else:
        long_parts.extend(_fmt(x, 2) for x in handles)
    long_parts.extend(cs)
    long_parts.extend(ds)
    if d.b:
        long_parts.append(_fmt("h", d.b))
    relations.append((" ".join(long_parts) if long_parts else "1", "1"))
    return Presentation(generators=generators, relations=tuple(relations))


@dataclass(frozen=True)
class QuotientMap:
    """The quotient by <h> with the last boundary generator eliminated."""

    scheme: GroupScheme
    eliminated: str
    elimination_image: Word


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
    kept = d.boundary_generators()[:-1]
    for name in kept:
        gens.append((name, None))
    scheme = GroupScheme(tuple(gens))
    prefix: list[tuple[str, int]] = []
    if d.base_orientable:
        for i in range(1, d.genus_or_crosscaps + 1):
            prefix.extend(((f"a{i}", 1), (f"b{i}", 1), (f"a{i}", -1), (f"b{i}", -1)))
    else:
        prefix.extend((x, 2) for x in d.handle_generators())
    prefix.extend((c, 1) for c in d.exceptional_generators())
    prefix.extend((name, 1) for name in kept)
    image = invert(reduce(prefix, scheme))
    return QuotientMap(
        scheme=scheme,
        eliminated=d.boundary_generators()[-1],
        elimination_image=image,
    )


@dataclass(frozen=True)
class SeifertPair:
    """The central form h^m * section(q) of a group element."""

    m: int
    q: Word

    @property
    def is_identity(self) -> bool:
        return self.m == 0 and self.q.is_identity

    def __str__(self) -> str:
        return f"(h^{self.m}, {self.q})"


_ELEMENT_TOKEN = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^(-?\d+))?$")

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
        odd = sum(s.exp % 2 for s in q.syllables if s.gen in self._flips)
        return -1 if odd % 2 else 1

    def product(self, m: int, q: Word, pieces: Iterable[Piece]) -> tuple[int, Word]:
        """(m, q) times every piece in turn, in one stack pass.

        Piece syllables need not be normalised: a finite-order exponent
        outside [1, order) wraps into the fiber on the way in.
        """
        order, beta, flips = self._order, self._beta, self._flips
        stack = list(q.syllables)
        pend = 0  # the fiber power sitting to the right of the stack
        for k, syllables in pieces:
            pend += k
            for s in syllables:
                gen, exp = s.gen, s.exp
                # h^pend * g^e = g^e * h^(pend * phi(g)^e)
                if flips and exp % 2 and gen in flips:
                    pend = -pend
                if stack and stack[-1].gen == gen:
                    exp += stack.pop().exp
                n = order[gen]
                if n is not None:
                    wraps, exp = divmod(exp, n)
                    pend += beta[gen] * wraps
                if exp:
                    stack.append(Syllable(gen, exp))
        q = Word(self.scheme, tuple(stack))
        if flips and pend:
            pend *= self.phi_word(q)
        return m + pend, q

    def inverse(self, m: int, q: Word) -> tuple[int, Word]:
        q_inv = invert(q)
        drift, _ = self.product(0, q_inv, ((m, q.syllables),))
        return -drift, q_inv

    def power(self, m: int, q: Word, n: int) -> tuple[int, Word]:
        if n < 0:
            (m, q), n = self.inverse(m, q), -n
        return self.product(0, identity(self.scheme), repeat((m, q.syllables), n))


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
        if name == "h":
            return SeifertPair(1, identity(self.scheme))
        if name == self.qmap.eliminated:
            return self._dm
        if name in self.scheme:
            return SeifertPair(0, reduce([(name, 1)], self.scheme))
        raise UnknownGenerator(f"unknown generator {name!r}")

    def mul(self, p1: SeifertPair, p2: SeifertPair) -> SeifertPair:
        return SeifertPair(*self.product(p1.m, p1.q, ((p2.m, p2.q.syllables),)))

    def inv(self, p: SeifertPair) -> SeifertPair:
        return SeifertPair(*self.inverse(p.m, p.q))

    def pow(self, p: SeifertPair, n: int) -> SeifertPair:
        return SeifertPair(*self.power(p.m, p.q, n))

    def conjugated(self, p: SeifertPair, k: SeifertPair) -> SeifertPair:
        return self.mul(self.mul(k, p), self.inv(k))

    # -- parsing and printing ------------------------------------------

    def element(self, text: str) -> SeifertPair:
        """Parse a word over the presentation alphabet into central form."""
        return SeifertPair(*self.product(0, identity(self.scheme), self._pieces(text)))

    def _pieces(self, text: str) -> Iterator[Piece]:
        pos = 0
        for token in text.split():
            pos = text.index(token, pos)
            if token == "1":
                pos += len(token)
                continue
            m = _ELEMENT_TOKEN.match(token)
            if not m:
                raise ParseError(f"bad token {token!r}", pos)
            name, exp = m.group(1), int(m.group(2) or 1)
            if name == "h":
                yield exp, ()
            elif name == self.qmap.eliminated:
                dm = self._dm if exp > 0 else self.inv(self._dm)
                yield from repeat((dm.m, dm.q.syllables), abs(exp))
            elif name in self.scheme:
                yield 0, (Syllable(name, exp),)
            else:
                raise UnknownGenerator(f"unknown generator {name!r}")
            pos += len(token)

    def spell(self, p: SeifertPair) -> str:
        parts = []
        if p.m:
            parts.append(_fmt("h", p.m))
        parts.extend(_fmt(s.gen, s.exp) for s in p.q.syllables)
        return " ".join(parts) if parts else "1"


@dataclass(frozen=True)
class SeifertReversibility:
    reversible: bool
    reverser: Optional[SeifertPair]
    reason: str
    normal_form: SeifertPair


def _defect(group: SeifertGroup, p: SeifertPair, rho: Word, p_inv: SeifertPair) -> int:
    got = group.conjugated(p, SeifertPair(0, rho))
    if got.q != p_inv.q:
        raise InvalidCertificate(f"quotient reverser {rho} does not invert the image")
    return got.m - p_inv.m


def _lift_shift(defect: int, phi_q: int) -> Optional[int]:
    """The h-power s making h^s rho a reverser, if any."""
    if phi_q == 1:
        return 0 if defect == 0 else None
    return -defect // 2 if defect % 2 == 0 else None


def reversible_seifert(
    g: Union[str, SeifertPair], d: SeifertData
) -> SeifertReversibility:
    """Decide reversibility in the fundamental group for boundary data.

    Powers of the fiber are reversible exactly when phi is nontrivial.
    Anything else must have an image conjugate to its inverse in the
    quotient; the reversers down there form a coset of the centralizer,
    and the central defect of their lifts moves through that coset in an
    arithmetic progression (period two when the centralizer generator
    flips the fiber), so a zero-defect lift is found or refuted exactly.
    """
    group = SeifertGroup(d)
    p = group.element(g) if isinstance(g, str) else g
    if p.is_identity:
        raise TrivialElement("reversibility is considered for nontrivial elements")

    if p.q.is_identity:
        for name in d.handle_generators() + d.boundary_generators():
            if d.phi_of(name) == -1:
                reverser = group.generator(name)
                flipped = group.conjugated(p, reverser)
                if flipped != group.inv(p):
                    raise InvalidCertificate(f"{name} does not invert the fiber power")
                return SeifertReversibility(
                    True, reverser, f"phi({name}) = -1 inverts the fiber", p
                )
        return SeifertReversibility(
            False,
            None,
            "phi is trivial, so conjugation preserves every power of the fiber",
            p,
        )

    rho0 = conjugate_to_inverse(p.q)
    if rho0 is None:
        return SeifertReversibility(
            False, None, "the image is not conjugate to its inverse in the quotient", p
        )
    p_inv = group.inv(p)
    phi_q = group.phi_word(p.q)
    root = primitive_root(p.q)

    def finish(rho: Word, defect: int) -> Optional[SeifertReversibility]:
        s = _lift_shift(defect, phi_q)
        if s is None:
            return None
        reverser = SeifertPair(s, rho)
        if group.conjugated(p, reverser) != p_inv:
            raise InvalidCertificate("lifted reverser failed its check")
        return SeifertReversibility(True, reverser, "zero-defect lifted reverser", p)

    core, _ = cyclic_reduce(p.q)
    core_order = (
        group._order[core.syllables[0].gen] if len(core.syllables) == 1 else None
    )
    if core_order is not None:
        # finite cyclic centralizer: scan it outright
        defects = []
        for j in range(core_order):
            rho = rho0 * root ** j
            t = _defect(group, p, rho, p_inv)
            defects.append(t)
            result = finish(rho, t)
            if result is not None:
                return result
        return SeifertReversibility(
            False,
            None,
            f"central defects {defects} over the reverser coset never admit a lift",
            p,
        )

    phi_root = group.phi_word(root)
    t0 = _defect(group, p, rho0, p_inv)
    if phi_root == -1:
        # conjugating twice by the root is the identity on p: period two
        for j in (0, 1):
            rho = rho0 * root ** j
            t = _defect(group, p, rho, p_inv)
            result = finish(rho, t)
            if result is not None:
                return result
        return SeifertReversibility(
            False, None, "both defect classes of the period-2 coset obstruct", p
        )
    t1 = _defect(group, p, rho0 * root, p_inv)
    step = t1 - t0
    if phi_q == 1:
        if step == 0:
            j = 0 if t0 == 0 else None
        else:
            j = -t0 // step if t0 % step == 0 else None
    else:
        if step % 2:
            j = 0 if t0 % 2 == 0 else 1
        else:
            j = 0 if t0 % 2 == 0 else None
    if j is not None:
        rho = rho0 * root ** j
        t = _defect(group, p, rho, p_inv)
        result = finish(rho, t)
        if result is not None:
            return result
    return SeifertReversibility(
        False,
        None,
        f"the defect progression {t0} + j*{step} never reaches a liftable value",
        p,
    )


# -- symbolic families ------------------------------------------------


@dataclass(frozen=True)
class PowersOfH:
    pass


@dataclass(frozen=True)
class TwoHalfTwists:
    """Conjugates of c_i^(mu_i/2) k c_j^(sign * mu_j/2) k^-1, phi(k) fixed."""

    i: int
    j: int
    second_sign: int
    phi_k: int
    beta: int


@dataclass(frozen=True)
class SurfaceException:
    surface: str


@dataclass(frozen=True)
class ReversibleFamilyReport:
    families: tuple
    notes: tuple[str, ...]


def classify_reversible_families(d: SeifertData) -> ReversibleFamilyReport:
    """The symbolic catalogue of reversible elements for the data.

    With nontrivial phi: powers of the fiber, and for every pair of even
    fiber orders with equal beta the half-twist products with a flipping
    (+ exponent) or preserving (- exponent) conjugating letter.  With
    trivial phi only the preserving family survives.  A closed projective
    plane or Klein bottle base adds its surface generators.
    """
    families: list = []
    notes: list[str] = []
    if d.phi_nontrivial:
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
        if d.phi_nontrivial:
            families.append(
                TwoHalfTwists(i=i, j=j, second_sign=1, phi_k=-1, beta=beta)
            )
        families.append(TwoHalfTwists(i=i, j=j, second_sign=-1, phi_k=1, beta=beta))
    if pairs and not d.phi_nontrivial:
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


@dataclass(frozen=True)
class GenNCertificate:
    """An element c_i^p (k c_j^p' k^-1) h^x with n x + M1 + M2 = 0.

    The powers satisfy c_i^(n p) = h^M1 and c_j^(n p') = h^M2, so the
    product of the n conjugates by the listed conjugators telescopes to
    h^(M1 + M2 + n x) = 1.
    """

    n: int
    i: int
    j: int
    p: int
    p_prime: int
    x: int
    m1: int
    m2: int
    separating: str
    element: str
    conjugators: tuple[str, ...]


def _separating_letter(d: SeifertData, i: int, j: int) -> str:
    """A fiber-preserving letter distinguishing the two conjugates when i = j."""
    if i != j:
        return ""
    names = [f"c{idx}" for idx in range(1, len(d.exceptional) + 1) if idx != j]
    candidates = names + [
        g
        for g in d.handle_generators() + d.boundary_generators()[:-1]
        if d.phi_of(g) == 1
    ]
    return candidates[0] if candidates else ""


def gen_n_certificate(d: SeifertData, n: int) -> Optional[GenNCertificate]:
    """Search exceptional pairs for a generalised n-torsion element.

    Scans (i, j) with powers p, p' nontrivial modulo the fiber orders such
    that c_i^(n p) and c_j^(n p') are fiber powers whose exponents M1, M2
    allow an integer x with n x + M1 + M2 = 0; the least
    (p + p', i, j, p, p') wins.  Returns None when the data admits no such
    pair, which covers n coprime to every fiber order.
    """
    if n < 2:
        raise InvalidInvariant(f"generalised torsion needs n >= 2, got {n}")
    best = None
    for i, (mu_i, beta_i) in enumerate(d.exceptional, start=1):
        for j, (mu_j, beta_j) in enumerate(d.exceptional, start=1):
            separating = _separating_letter(d, i, j)
            for p in range(1, n * mu_i + 1):
                if (n * p) % mu_i or p % mu_i == 0:
                    continue
                m1 = beta_i * (n * p) // mu_i
                for p_prime in range(1, n * mu_j + 1):
                    if (n * p_prime) % mu_j or p_prime % mu_j == 0:
                        continue
                    if i == j and not separating and (p + p_prime) % mu_i == 0:
                        # both conjugates would merge into a fiber power
                        continue
                    m2 = beta_j * (n * p_prime) // mu_j
                    if (m1 + m2) % n:
                        continue
                    key = (p + p_prime, i, j, p, p_prime)
                    if best is None or key < best[0]:
                        best = (key, (i, j, p, p_prime, m1, m2))
    if best is None:
        return None
    i, j, p, p_prime, m1, m2 = best[1]
    x = -(m1 + m2) // n
    separating = _separating_letter(d, i, j)

    def wrap(core: str) -> str:
        if not separating:
            return core
        return f"{separating} {core} {separating}^-1"

    element = " ".join(
        filter(None, (_fmt(f"c{i}", p), wrap(_fmt(f"c{j}", p_prime)), _fmt("h", x)))
    )
    conjugators = tuple(
        wrap(_fmt(f"c{j}", -l * p_prime)) for l in range(1, n)
    )
    cert = GenNCertificate(
        n=n,
        i=i,
        j=j,
        p=p,
        p_prime=p_prime,
        x=x,
        m1=m1,
        m2=m2,
        separating=separating,
        element=element,
        conjugators=conjugators,
    )
    if n * cert.x + cert.m1 + cert.m2 != 0:
        raise InvalidCertificate(f"fiber exponents fail n x + m1 + m2 = 0 for n = {n}")
    if not gen_n_relation_holds(d, cert.element, cert.conjugators):
        raise InvalidCertificate(f"gen-{n} relation fails for {cert.element!r}")
    return cert


def gen_n_relation_holds(d: SeifertData, element: str, conjugators: Sequence[str]) -> bool:
    """Whether g = element is nontrivial and g * prod (k g k^-1) over conjugators is 1.

    A closed base has no exact arithmetic, so the relation is multiplied in
    the group drilled along one more fiber (boundaries=1).  That group maps
    onto the closed one by d1 -> 1, so a relation that holds there holds in
    the closed group too; d1 itself is not a generator of the closed group.
    """
    if d.boundary_count:
        group = SeifertGroup(d)
    else:
        group = SeifertGroup(replace(d, boundary_count=1))
        drilled = group.qmap.eliminated
        for text in (element, *conjugators):
            if any(token.split("^")[0] == drilled for token in text.split()):
                raise UnknownGenerator(f"unknown generator {drilled!r}")
    g = group.element(element)
    if g.is_identity:
        return False
    total = g
    for text in conjugators:
        total = group.mul(total, group.conjugated(g, group.element(text)))
    return total.is_identity
