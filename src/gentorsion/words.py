"""Words in free products of cyclic groups.

Elements are stored as reduced syllable sequences.  A syllable is a pair
(generator, exponent); in a reduced word adjacent syllables use distinct
generators and no exponent is a multiple of its generator's order.  Exponents
of finite-order generators are normalised into [1, order - 1], so equality of
reduced words is equality of group elements.

Conjugacy is decided through cyclic words: every element is conjugate to a
cyclically reduced one, and two cyclically reduced words of syllable length
at least two are conjugate exactly when one is a rotation of the other.

Reduction, products, inverses, powers, cyclic reduction and conjugacy take
time linear in input plus output.  Products cancel only at the seam of two
reduced words, the canonical rotation is found by Booth's least-rotation
algorithm, and a rotation of one core onto another is found by substring
search in the doubled core.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .errors import (
    InvalidCertificate,
    ParseError,
    SchemeMismatch,
    TrivialElement,
    UnknownGenerator,
)


@dataclass(frozen=True)
class GroupScheme:
    """A free product of cyclic groups, one (name, order) pair per factor.

    order None means an infinite cyclic factor.

    >>> PSL2Z.order("b")
    3
    """

    generators: tuple[tuple[str, Optional[int]], ...]
    # name -> order and name -> index, derived from ``generators``
    orders: dict[str, Optional[int]] = field(init=False, repr=False, compare=False)
    indices: dict[str, int] = field(init=False, repr=False, compare=False)
    # the shared syllables of finite-order generators, filled on first use
    interned: dict[tuple[str, int], "Syllable"] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        orders: dict[str, Optional[int]] = {}
        for name, order in self.generators:
            if name in orders:
                raise ValueError(f"duplicate generator {name!r}")
            if order is not None and order < 2:
                raise ValueError(f"order of {name!r} must be >= 2 or None")
            orders[name] = order
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "indices", {name: i for i, name in enumerate(orders)})
        object.__setattr__(self, "interned", {})

    def names(self) -> tuple[str, ...]:
        return tuple(self.orders)

    def order(self, name: str) -> Optional[int]:
        try:
            return self.orders[name]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {name!r}") from None

    def index(self, name: str) -> int:
        try:
            return self.indices[name]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.orders

    def syllable(self, gen: str, exp: int) -> "Syllable":
        """Syllable(gen, exp), exp normalised; one shared object per finite-order syllable.

        Shared syllables make equal reduced words equal element by element
        by identity, and spare an allocation per syllable.  A finite factor
        has order - 1 syllables, so the table never outgrows the scheme.
        """
        s = self.interned.get((gen, exp))
        if s is None:
            s = Syllable(gen, exp)
            if self.orders[gen] is not None:
                self.interned[gen, exp] = s
        return s


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
        """The reduced product: both factors are reduced, so only the seam cancels."""
        scheme = self.scheme
        if scheme is not other.scheme and scheme != other.scheme:
            raise SchemeMismatch("cannot multiply words over different schemes")
        left, right = self.syllables, other.syllables
        if not left:
            return other
        if not right:
            return self
        orders = scheme.orders
        i, j, n = len(left), 0, len(right)
        while i and j < n:
            x, y = left[i - 1], right[j]
            if x.gen != y.gen:
                break
            i -= 1
            j += 1
            order = orders[x.gen]
            exp = x.exp + y.exp if order is None else (x.exp + y.exp) % order
            if exp:
                return Word(scheme, left[:i] + (scheme.syllable(x.gen, exp),) + right[j:])
        return Word(scheme, left[:i] + right[j:])

    def __invert__(self) -> "Word":
        return invert(self)

    def inverse(self) -> "Word":
        return invert(self)

    def __pow__(self, n: int) -> "Word":
        """p core^n p^-1 for the cyclic core of self, in time linear in the output."""
        if n < 0:
            return invert(self) ** (-n)
        core, p = _cyclic_core(self)
        sylls = core.syllables
        if len(sylls) == 1:
            # a single syllable: multiply its exponent
            power = reduce(((sylls[0].gen, sylls[0].exp * n),), self.scheme)
        else:
            # a cyclically reduced core repeats without cancelling
            power = Word(self.scheme, sylls * n)
        return p * power * invert(p) if p else power

    def __str__(self) -> str:
        return format_word(self)

    def pairs(self) -> tuple[tuple[str, int], ...]:
        return tuple((s.gen, s.exp) for s in self.syllables)


def identity(scheme: GroupScheme) -> Word:
    return Word(scheme, ())


def reduce(raw: Iterable[tuple[str, int]], scheme: GroupScheme) -> Word:
    """Reduce a raw (generator, exponent) sequence to its normal form.

    Adjacent syllables over the same generator are merged and syllables whose
    exponent is a multiple of the generator order are deleted, repeatedly.

    >>> str(reduce([("a", 1), ("a", 1), ("b", 1)], PSL2Z))
    'b'
    >>> str(reduce([("b", 1), ("b", 1), ("b", 1)], PSL2Z))
    '1'
    """
    orders, interned, syllable = scheme.orders, scheme.interned, scheme.syllable
    stack: list[Syllable] = []
    push, pop = stack.append, stack.pop
    for gen, exp in raw:
        try:
            order = orders[gen]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {gen!r}") from None
        if stack and stack[-1].gen == gen:
            exp += pop().exp
        # finite orders keep exponents in [0, order); 0 marks a vanished syllable
        if order is not None:
            exp %= order
        if exp:
            push(interned.get((gen, exp)) or syllable(gen, exp))
    return Word(scheme, tuple(stack))


def invert(w: Word) -> Word:
    """The group inverse: reversed syllables with negated exponents.

    A reduced word inverts syllable by syllable, with no cancellation:
    a finite-order exponent e becomes order - e.

    >>> str(invert(parse_word(PSL2Z, "a b a b^2")))
    'b a b^2 a'
    """
    orders, interned, syllable = w.scheme.orders, w.scheme.interned, w.scheme.syllable
    out = []
    for s in reversed(w.syllables):
        gen = s.gen
        order = orders[gen]
        exp = -s.exp if order is None else order - s.exp
        out.append(interned.get((gen, exp)) or syllable(gen, exp))
    return Word(w.scheme, tuple(out))


def conjugated(w: Word, k: Word) -> Word:
    """reduce(k * w * k^-1)."""
    return k * w * invert(k)


def _cyclic_core(w: Word) -> tuple[Word, Word]:
    """Peel matching end syllables; returns (core, conj) with conj^-1 w conj = core.

    The peeled syllables are a prefix of w, so conj is that prefix.  Peeling
    stops at the first pair of end syllables that merges into a nontrivial
    one, since the merged syllable then differs in generator from its new
    neighbour.
    """
    sylls = w.syllables
    orders = w.scheme.orders
    i, j = 0, len(sylls)
    tail: tuple[Syllable, ...] = ()
    while j - i >= 2:
        first, last = sylls[i], sylls[j - 1]
        if first.gen != last.gen:
            break
        i += 1
        j -= 1
        order = orders[first.gen]
        exp = last.exp + first.exp
        if order is not None:
            exp %= order
        if exp:
            tail = (w.scheme.syllable(first.gen, exp),)
            break
    return Word(w.scheme, sylls[i:j] + tail), Word(w.scheme, sylls[:i])


def _least_rotation(keys: list) -> int:
    """The start of a lexicographically least rotation (Booth 1980).

    One pass of a failure function over the doubled sequence, so O(n)
    comparisons.
    """
    n = len(keys)
    s = keys + keys
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:  # here i == -1
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def _canonical_rotation(scheme: GroupScheme, sylls: tuple[Syllable, ...]) -> tuple[Syllable, ...]:
    if len(sylls) <= 1:
        return sylls
    indices = scheme.indices
    k = _least_rotation([(indices[s.gen], s.exp) for s in sylls])
    return sylls[k:] + sylls[:k]


def _rotation_offset(text: tuple[Syllable, ...], pattern: tuple[Syllable, ...]) -> int:
    """The least t with text[t:] + text[:t] == pattern, or -1; equal lengths.

    Each distinct syllable of the pattern gets a code, every other syllable
    one more, and ``str.find`` searches the doubled text.  A code is one code
    point, or for an alphabet too large for that two code points from
    disjoint ranges, so that every match starts on a syllable.
    """
    codes: dict[tuple[str, int], int] = {}
    for s in pattern:
        codes.setdefault((s.gen, s.exp), len(codes))
    other = len(codes)
    p = [codes[s.gen, s.exp] for s in pattern]
    t = [codes.get((s.gen, s.exp), other) for s in text]
    t += t[:-1]
    if other <= _MAX_CODE:
        return "".join(map(chr, t)).find("".join(map(chr, p)))
    return _wide(t).find(_wide(p)) // 2


#: the largest code ``_rotation_offset`` writes as a single code point
_MAX_CODE = 0x10FFFF


def _wide(codes: list[int]) -> str:
    # a code point in [0x100000, 0x10FFFF], then one below 0x10000
    return "".join([chr(0x100000 | c >> 16) + chr(c & 0xFFFF) for c in codes])


@dataclass(frozen=True)
class CyclicWord:
    """A conjugacy-class representative: the least rotation of a cyclic core.

    Rotations are ordered lexicographically by (generator index, exponent);
    Booth's algorithm finds the least one in linear time.
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

    The core of v is searched for in the doubled core of u; the first match,
    at the least rotation offset, gives the conjugator, assembled from the
    two peeling conjugators and the rotation prefix.  It is checked by
    multiplication, and a failed check raises InvalidCertificate.

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
    if not cu:
        return identity(u.scheme)
    t = _rotation_offset(cu.syllables, cv.syllables)
    if t < 0:
        return None
    prefix = Word(u.scheme, cu.syllables[:t])
    k = pv * invert(prefix) * invert(pu)
    if conjugated(u, k) != v:
        raise InvalidCertificate("conjugator failed its multiplication check")
    return k


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


_TOKEN = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?")
#: a whole word: whitespace-separated tokens, each ``1`` or a syllable
_WORD = re.compile(r"(?:\s*(?:1|[A-Za-z][A-Za-z0-9_]*(?:\^-?\d+)?)(?!\S))*\s*")


def parse_word(scheme: GroupScheme, text: str) -> Word:
    """Parse whitespace-separated tokens like ``a b^2 a b^-1``.

    The token ``1`` denotes the identity.  A well-formed text is split into
    syllables by one regex pass; a malformed one is walked token by token,
    to report the first bad token and its position.
    """
    if _WORD.fullmatch(text) is None:
        _reject_word(scheme, text)
    return reduce(
        [(name, int(exp) if exp else 1) for name, exp in _TOKEN.findall(text)], scheme
    )


def _reject_word(scheme: GroupScheme, text: str) -> None:
    for found in re.finditer(r"\S+", text):
        token = found.group()
        if token == "1":
            continue
        m = _TOKEN.fullmatch(token)
        if not m:
            raise ParseError(f"bad token {token!r}", found.start())
        if m.group(1) not in scheme:
            raise UnknownGenerator(f"unknown generator {m.group(1)!r}")


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
