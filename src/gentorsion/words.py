"""Words in free products of cyclic groups.

Elements are stored as reduced syllable sequences.  A syllable is a pair
(generator, exponent); in a reduced word adjacent syllables use distinct
generators and no exponent is a multiple of its generator's order.  Exponents
of finite-order generators are normalised into [1, order - 1], so equality of
reduced words is equality of group elements.

Conjugacy is decided through cyclic words: every element is conjugate to a
cyclically reduced one, and two cyclically reduced words of syllable length
at least two are conjugate exactly when one is a rotation of the other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator, Optional

from .errors import ParseError, SchemeMismatch, TrivialElement, UnknownGenerator


@dataclass(frozen=True)
class GroupScheme:
    """A free product of cyclic groups, one (name, order) pair per factor.

    order None means an infinite cyclic factor.

    >>> PSL2Z.order("b")
    3
    """

    generators: tuple[tuple[str, Optional[int]], ...]

    def __post_init__(self):
        seen = set()
        for name, order in self.generators:
            if name in seen:
                raise ValueError(f"duplicate generator {name!r}")
            seen.add(name)
            if order is not None and order < 2:
                raise ValueError(f"order of {name!r} must be >= 2 or None")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    def order(self, name: str) -> Optional[int]:
        for gen, order in self.generators:
            if gen == name:
                return order
        raise UnknownGenerator(f"unknown generator {name!r}")

    def index(self, name: str) -> int:
        for i, (gen, _) in enumerate(self.generators):
            if gen == name:
                return i
        raise UnknownGenerator(f"unknown generator {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(gen == name for gen, _ in self.generators)


#: The modular group PSL(2,Z) as C2 * C3.
PSL2Z = GroupScheme((("a", 2), ("b", 3)))


@dataclass(frozen=True)
class Syllable:
    gen: str
    exp: int


@dataclass(frozen=True)
class Word:
    """A reduced word.  Build with :func:`reduce` or :func:`parse_word`.

    >>> w = parse_word(PSL2Z, "a b a b^2")
    >>> str(w * ~w)
    '1'
    """

    scheme: GroupScheme
    syllables: tuple[Syllable, ...]

    def __len__(self) -> int:
        return len(self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "Word") -> "Word":
        if self.scheme != other.scheme:
            raise SchemeMismatch("cannot multiply words over different schemes")
        return reduce(
            [(s.gen, s.exp) for s in self.syllables]
            + [(s.gen, s.exp) for s in other.syllables],
            self.scheme,
        )

    def __invert__(self) -> "Word":
        return invert(self)

    def inverse(self) -> "Word":
        return invert(self)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return invert(self) ** (-n)
        return reduce(chain.from_iterable(repeat(self.pairs(), n)), self.scheme)

    def __str__(self) -> str:
        return format_word(self)

    def pairs(self) -> tuple[tuple[str, int], ...]:
        return tuple((s.gen, s.exp) for s in self.syllables)


def identity(scheme: GroupScheme) -> Word:
    return Word(scheme, ())


def _norm_exp(order: Optional[int], exp: int) -> int:
    # finite orders keep exponents in [0, order); 0 marks a vanished syllable
    return exp if order is None else exp % order


def reduce(raw: Iterable[tuple[str, int]], scheme: GroupScheme) -> Word:
    """Reduce a raw (generator, exponent) sequence to its normal form.

    Adjacent syllables over the same generator are merged and syllables whose
    exponent is a multiple of the generator order are deleted, repeatedly.

    >>> str(reduce([("a", 1), ("a", 1), ("b", 1)], PSL2Z))
    'b'
    >>> str(reduce([("b", 1), ("b", 1), ("b", 1)], PSL2Z))
    '1'
    """
    stack: list[Syllable] = []
    for gen, exp in raw:
        order = scheme.order(gen)
        if stack and stack[-1].gen == gen:
            combined = _norm_exp(order, stack[-1].exp + exp)
            stack.pop()
            if combined != 0:
                stack.append(Syllable(gen, combined))
        else:
            e = _norm_exp(order, exp)
            if e != 0:
                stack.append(Syllable(gen, e))
    return Word(scheme, tuple(stack))


def invert(w: Word) -> Word:
    """The group inverse: reversed syllables with negated exponents.

    >>> str(invert(parse_word(PSL2Z, "a b a b^2")))
    'b a b^2 a'
    """
    return reduce([(s.gen, -s.exp) for s in reversed(w.syllables)], w.scheme)


def conjugated(w: Word, k: Word) -> Word:
    """reduce(k * w * k^-1)."""
    return k * w * invert(k)


def _cyclic_core(w: Word) -> tuple[Word, Word]:
    """Peel matching end syllables; returns (core, conj) with conj^-1 w conj = core."""
    core = list(w.syllables)
    conj: list[tuple[str, int]] = []
    while len(core) >= 2 and core[0].gen == core[-1].gen:
        first = core[0]
        conj.append((first.gen, first.exp))
        order = w.scheme.order(first.gen)
        merged = _norm_exp(order, core[-1].exp + first.exp)
        core = core[1:-1]
        if merged != 0:
            core.append(Syllable(first.gen, merged))
    return Word(w.scheme, tuple(core)), reduce(conj, w.scheme)


def _rotation_key(scheme: GroupScheme, sylls: tuple[Syllable, ...]):
    return [(scheme.index(s.gen), s.exp) for s in sylls]


def _canonical_rotation(scheme: GroupScheme, sylls: tuple[Syllable, ...]) -> tuple[Syllable, ...]:
    if len(sylls) <= 1:
        return sylls
    rotations = [sylls[i:] + sylls[:i] for i in range(len(sylls))]
    return min(rotations, key=lambda r: _rotation_key(scheme, r))


@dataclass(frozen=True)
class CyclicWord:
    """A conjugacy-class representative: the least rotation of a cyclic core.

    Rotations are ordered lexicographically by (generator index, exponent).
    """

    scheme: GroupScheme
    syllables: tuple[Syllable, ...]

    @classmethod
    def from_word(cls, w: Word) -> "CyclicWord":
        core, _ = _cyclic_core(w)
        return cls(w.scheme, _canonical_rotation(w.scheme, core.syllables))

    def __len__(self) -> int:
        return len(self.syllables)

    def __str__(self) -> str:
        return format_word(Word(self.scheme, self.syllables))


def cyclic_reduce(w: Word) -> tuple[CyclicWord, Word]:
    """Cyclically reduce w.

    Returns (core, conjugator) where conjugator^-1 * w * conjugator reduces to
    a word whose canonical rotation is ``core``.
    """
    core, conj = _cyclic_core(w)
    return CyclicWord(w.scheme, _canonical_rotation(w.scheme, core.syllables)), conj


def is_conjugate(u: Word, v: Word) -> Optional[Word]:
    """A conjugator k with reduce(k * u * k^-1) = v, or None.

    Cores of equal length are compared rotation by rotation; the conjugator is
    assembled from the two peeling conjugators and the rotation prefix, then
    checked by multiplication.

    >>> k = is_conjugate(parse_word(PSL2Z, "a b"), parse_word(PSL2Z, "b a"))
    >>> str(k)
    'a'
    """
    if u.scheme != v.scheme:
        raise SchemeMismatch("conjugacy needs a common scheme")
    cu, pu = _cyclic_core(u)
    cv, pv = _cyclic_core(v)
    if len(cu) != len(cv):
        return None
    n = len(cu)
    if n == 0:
        return identity(u.scheme)
    for t in range(n):
        if cu.syllables[t:] + cu.syllables[:t] == cv.syllables:
            prefix = Word(u.scheme, cu.syllables[:t])
            k = pv * invert(prefix) * invert(pu)
            assert conjugated(u, k) == v, "conjugator failed its multiplication check"
            return k
    return None


def conjugate_to_inverse(w: Word) -> Optional[Word]:
    """A reverser r with reduce(r * w * r^-1) = w^-1, or None.

    Defined for nontrivial elements only.
    """
    if w.is_identity:
        raise TrivialElement("the identity has no meaningful reverser")
    return is_conjugate(w, invert(w))


def abelian_image(w: Word) -> dict[str, int]:
    """Exponent sums per generator, reduced modulo each finite order.

    >>> abelian_image(parse_word(PSL2Z, "a b a b a b^2"))
    {'a': 1, 'b': 1}
    """
    sums = {name: 0 for name in w.scheme.names()}
    for s in w.syllables:
        sums[s.gen] += s.exp
    for name, order in w.scheme.generators:
        if order is not None:
            sums[name] %= order
    return sums


def primitive_root(w: Word) -> Word:
    """The generator of the centralizer of a nontrivial element.

    For w conjugate (by p) to a cyclically reduced core, the centralizer is
    p <root> p^-1: the whole cyclic factor when the core is a single syllable,
    and the shortest block whose repetition is the core otherwise.
    """
    if w.is_identity:
        raise TrivialElement("the identity has no primitive root")
    core, p = _cyclic_core(w)
    sylls = core.syllables
    if len(sylls) == 1:
        root = Word(w.scheme, (Syllable(sylls[0].gen, 1),))
    else:
        n = len(sylls)
        root = Word(w.scheme, sylls)
        for block_len in range(1, n):
            if n % block_len:
                continue
            block = sylls[:block_len]
            if block * (n // block_len) == sylls:
                root = Word(w.scheme, block)
                break
    return p * root * invert(p)


def enumerate_reduced(
    scheme: GroupScheme, max_syllables: int, max_exponent: Optional[int] = None
) -> Iterator[Word]:
    """Yield every reduced word of syllable length <= max_syllables once.

    Ordered by length, then lexicographically by (generator index, exponent
    rank).  Finite factors contribute exponents 1 .. order-1; infinite factors
    contribute 1, -1, 2, -2, ... up to max_exponent, which must be given when
    the scheme has an infinite factor.
    """
    if max_syllables < 0:
        raise ValueError("max_syllables must be >= 0")

    def exps(order: Optional[int]) -> list[int]:
        if order is not None:
            return list(range(1, order))
        if max_exponent is None:
            raise ValueError(
                "enumerating a scheme with infinite-order generators needs max_exponent"
            )
        out = []
        for k in range(1, max_exponent + 1):
            out.extend((k, -k))
        return out

    level: list[tuple[Syllable, ...]] = [()]
    yield identity(scheme)
    for _ in range(max_syllables):
        next_level: list[tuple[Syllable, ...]] = []
        for sylls in level:
            last = sylls[-1].gen if sylls else None
            for name, order in scheme.generators:
                if name == last:
                    continue
                for e in exps(order):
                    grown = sylls + (Syllable(name, e),)
                    next_level.append(grown)
                    yield Word(scheme, grown)
        level = next_level


_TOKEN = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def parse_word(scheme: GroupScheme, text: str) -> Word:
    """Parse whitespace-separated tokens like ``a b^2 a b^-1``.

    The token ``1`` denotes the identity.
    """
    raw: list[tuple[str, int]] = []
    pos = 0
    for token in text.split():
        pos = text.index(token, pos)
        if token == "1":
            pos += len(token)
            continue
        m = _TOKEN.match(token)
        if not m:
            raise ParseError(f"bad token {token!r}", pos)
        name, exp = m.group(1), int(m.group(2) or 1)
        if name not in scheme:
            raise UnknownGenerator(f"unknown generator {name!r}")
        raw.append((name, exp))
        pos += len(token)
    return reduce(raw, scheme)


def format_word(w: Word) -> str:
    if not w.syllables:
        return "1"
    parts = []
    for s in w.syllables:
        parts.append(s.gen if s.exp == 1 else f"{s.gen}^{s.exp}")
    return " ".join(parts)


def parse_scheme(text: str) -> GroupScheme:
    """Parse a scheme literal like ``a:2, b:3, d:inf``."""
    gens: list[tuple[str, Optional[int]]] = []
    pos = 0
    for part in text.split(","):
        chunk = part.strip()
        pos = text.index(chunk, pos) if chunk else pos
        if not chunk:
            raise ParseError("empty scheme entry", pos)
        if ":" not in chunk:
            raise ParseError(f"expected name:order in {chunk!r}", pos)
        name, order_text = (piece.strip() for piece in chunk.split(":", 1))
        if not re.match(r"^[A-Za-z][A-Za-z0-9_]*$", name):
            raise ParseError(f"bad generator name {name!r}", pos)
        if order_text in ("inf", "oo"):
            gens.append((name, None))
        else:
            try:
                order = int(order_text)
            except ValueError:
                raise ParseError(f"bad order {order_text!r}", pos) from None
            gens.append((name, order))
        pos += len(chunk)
    try:
        return GroupScheme(tuple(gens))
    except ValueError as exc:
        raise ParseError(str(exc), 0) from None
