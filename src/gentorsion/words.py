"""Words in free products of cyclic groups.

Elements are stored as reduced syllable sequences.  A syllable is the pair
(generator, exponent) itself, the plain tuple that :func:`tokens` reads and
:func:`format_tokens` spells; in a reduced word adjacent syllables use distinct
generators and no exponent is a multiple of its generator's order.  Exponents
of finite-order generators are normalised into [1, order - 1], so equality of
reduced words is equality of group elements.

Conjugacy is decided through cyclic words: every element is conjugate to a
cyclically reduced one, and two cyclically reduced words of syllable length
at least two are conjugate exactly when one is a rotation of the other.

Reduction, products, inverses, powers, cyclic reduction and conjugacy take
time linear in input plus output.  Products cancel only at the seam of two
reduced words, a rotation of one core onto another is found by substring
search in the doubled core, and the centres around which a core mirrors
itself to its inverse are found by Manacher's algorithm.

A word may also hold its inverse's syllables, no part of its value, which
:func:`invert` fills on both words, so inverting either again is O(1).  A
seam whose first pair cancels is a suffix comparison of tuple slices of the
left syllables with the right factor's remembered inverse.  A product of
several words, such as a conjugate or a gen-3 relation, is a left-to-right
chain of ``*`` over the original factors, so each seam reads a factor's memo
and no partial product is ever inverted.

A scheme records each finite-order syllable's inverse, canonical spelling
(``a``, ``b^2``) and code point in plain dicts when it first shares it, so
the kernels invert, spell and code a word by one ``itemgetter`` call; a
word holding an infinite-order syllable, which no table stores, is read by
one shared helper that makes each missing entry without storing it.  A word
parsed from canonical text keeps that text, and ``str`` returns it when it
is already the canonical spelling, so a certificate never spells its input
again.  Text this module writes parses through the spelling table.
"""

from __future__ import annotations

import re
from itertools import count, repeat
from operator import attrgetter, eq, itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    InvalidCertificate,
    InvalidInvariant,
    ParseError,
    SchemeMismatch,
    TrivialElement,
    UnknownGenerator,
)


#: a syllable: the pair (generator, exponent)
Syllable = tuple[str, int]
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class _Record:
    """A value record: a generic constructor, equality, hashing, a repr and JSON data.

    A subclass stores its fields in ``__slots__`` and names the ones that
    make up its value in ``_fields``, in constructor order; ``_defaults``
    maps a trailing field to the value it takes when omitted.  This is
    what ``dataclass(frozen=True)`` provides, without that decorator's
    set-up cost when the module loads; assignment is not blocked, and no
    code assigns a field after ``__init__``.  A record equals only a record
    of its own class, and is neither a tuple nor iterable.  Equality and the
    hash read one key per class, an ``attrgetter`` over ``_fields`` (the
    class itself for a record of no fields).

    A subclass writes its own ``__init__`` in two cases only.  One is a
    record built inside kernel loops (``Word``, ``SeifertPair`` and so
    ``CentralElement``): assigning its slots directly takes about 0.3 us on
    CPython 3.11, the generic constructor 1.2 to 2.2 us.  The other is a
    constructor that validates or derives fields (``GroupScheme``,
    ``SeifertData``, ``BraidWord``, ``SearchBudget``); the last two fill
    their fields through the generic one and then check them.
    A syllable is no record: it is the pair (generator, exponent) itself.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *values, **named):
        """Fill ``_fields`` from values in order, then keywords, then ``_defaults``."""
        fields = self._fields
        if len(values) > len(fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(fields)} values, got {len(values)}"
            )
        for name, value in zip(fields, values):
            setattr(self, name, value)
        for name in fields[len(values):]:
            if name in named:
                setattr(self, name, named.pop(name))
            elif name in self._defaults:
                setattr(self, name, self._defaults[name])
            else:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
        for name in named:
            problem = "got two values for" if name in fields else "has no"
            raise TypeError(f"{type(self).__name__} {problem} field {name!r}")

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields) if cls._fields else type

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def to_dict(self) -> dict:
        """The fields as JSON data: a nested record becomes its dict, a tuple a list."""
        return {name: _json(getattr(self, name)) for name in self._fields}


class _Table(dict):
    """A dict whose missing key is made by ``make(key)`` and not stored."""

    def __init__(self, make, entries=()):
        super().__init__(entries)
        self.make = make

    def __missing__(self, key):
        return self.make(key)


def _json(value):
    if isinstance(value, _Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_json(item) for item in value]
    return value


def _add_generator(orders: dict, name: str, order: Optional[int]) -> None:
    """Record one cyclic factor in orders, after the checks every scheme makes."""
    if name in orders:
        raise ValueError(f"duplicate generator {name!r}")
    if not _NAME.fullmatch(name):
        raise ValueError(f"bad generator name {name!r}")
    if order is not None and order < 2:
        raise ValueError(f"order of {name!r} must be >= 2 or None")
    orders[name] = order


#: the largest code point ``GroupScheme.syllable`` and ``_rotation_offset`` give a syllable
_MAX_CODE = 0x10FFFF


class GroupScheme(_Record):
    """A free product of cyclic groups, one (name, order) pair per factor.

    order None means an infinite cyclic factor.  Each finite-order syllable
    the scheme shares has, in plain dicts that the kernels read in bulk, its
    inverse, its canonical spelling (and back), and a code point of its own
    for the rotation search, until ``_MAX_CODE`` + 1 syllables have one.

    >>> PSL2Z.order("b")
    3
    """

    __slots__ = ("generators", "orders", "indices", "interned", "inverses", "spellings", "spelled",
                 "codes")
    _fields = ("generators",)

    def __init__(self, generators: tuple[tuple[str, Optional[int]], ...]):
        orders: dict[str, Optional[int]] = {}
        for name, order in generators:
            _add_generator(orders, name, order)
        self.generators = generators
        # name -> order and name -> index, derived from ``generators``
        self.orders = orders
        self.indices = {name: i for i, name in enumerate(orders)}
        # shared finite-order syllables, their inverses, spellings and codes, filled by ``syllable``
        self.interned: dict[Syllable, Syllable] = _Table(lambda s: self.syllable(*s))
        self.inverses: dict[Syllable, Syllable] = {}
        self.spellings: dict[Syllable, str] = {}
        self.spelled: dict[str, Syllable] = {}
        self.codes: dict[Syllable, str] = {}

    def names(self) -> tuple[str, ...]:
        return tuple(self.orders)

    def order(self, name: str) -> Optional[int]:
        try:
            return self.orders[name]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.orders

    def syllable(self, gen: str, exp: int) -> Syllable:
        """The pair (gen, exp), exp normalised; one shared tuple per finite-order syllable.

        Shared syllables make equal reduced words equal element by element
        by identity, and spare an allocation per syllable.  Sharing one
        records its inverse, spelling and, while fewer than ``_MAX_CODE`` + 1
        syllables have one, its code point.  A finite factor has order - 1
        syllables, so no table outgrows the scheme.
        """
        s = (gen, exp)
        order = self.orders[gen]
        if s not in self.interned and order is not None and 0 < exp < order:
            self.interned[s] = s
            self.spellings[s] = text = _spelling(s)
            self.spelled[text] = s
            if len(self.codes) <= _MAX_CODE:
                self.codes[s] = chr(len(self.codes))
            self.inverses[s] = self.syllable(gen, order - exp)
        return self.interned.get(s, s)

    def inverse(self, s: Syllable) -> Syllable:
        """The inverse of syllable s, as :meth:`syllable` gives it."""
        gen, exp = s
        order = self.orders[gen]
        return (gen, -exp) if order is None else self.syllable(gen, order - exp)


#: The modular group PSL(2,Z) as C2 * C3.
PSL2Z = GroupScheme((("a", 2), ("b", 3)))


class Word(_Record):
    """A reduced word.  Build with :func:`reduce` or :func:`parse_word`.

    ``str`` reads the spellings in bulk, or returns the text :func:`parse_word`
    read the word from when that text is already the canonical spelling.

    >>> w = parse_word(PSL2Z, "a b a b^2")
    >>> str(w * ~w)
    '1'
    """

    __slots__ = ("scheme", "syllables", "_inverted", "_text")
    _fields = ("scheme", "syllables")

    def __init__(self, scheme: GroupScheme, syllables: tuple[Syllable, ...]):
        self.scheme = scheme
        self.syllables = syllables
        # the syllables of the inverse, once a kernel has needed them; no part of the value
        self._inverted: Optional[tuple[Syllable, ...]] = None
        # the text parse_word read the syllables from, canonical tokens only; no part of the value
        self._text: Optional[str] = None

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
        j = _cancelled(left, other, min(len(left), len(right)))
        i = len(left) - j
        if i and j < len(right) and left[i - 1][0] == right[j][0]:
            merged = _merged(scheme, left[i - 1], right[j])
            return Word(scheme, left[:i - 1] + merged + right[j + 1:])
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
            gen, exp = sylls[0]
            power = reduce(((gen, exp * n),), self.scheme)
        else:
            # a cyclically reduced core repeats without cancelling
            power = Word(self.scheme, sylls * n)
        return p * power * invert(p) if p else power

    def __str__(self) -> str:
        sylls, text = self.syllables, self._text
        # text's tokens are the spellings, and " " is the one printable whitespace
        if text is not None and text.isprintable() and text.count(" ") == len(sylls) - 1:
            return text
        return " ".join(_looked_up(self.scheme.spellings, sylls, _spelling)) or "1"


def _cancelled(left: tuple[Syllable, ...], w: Word, limit: int) -> int:
    """The greatest k <= limit with left[-1 - d] the inverse of w's syllable d for d < k.

    That is the longest common suffix of left and w's inverse syllables.
    When the first pair does not cancel, k is 0 after one lookup at most;
    otherwise the inverse syllables are read from, or remembered on, w, and
    galloping slice comparisons find k in about 2 log2(k) compares, each of
    them a C loop over syllables not compared before.
    """
    if not limit:
        return 0
    inverse = w._inverted
    if inverse is None:
        first, scheme = w.syllables[0], w.scheme
        if left[-1] != (scheme.inverses.get(first) or scheme.inverse(first)):
            return 0
    elif left[-1] != inverse[-1]:
        return 0
    inverse = _inverse_syllables(w)
    a, b = len(left), len(inverse)
    lo, hi = 1, 2  # the last lo pairs cancel; double hi until the last hi do not
    while hi <= limit and left[a - hi:a - lo] == inverse[b - hi:b - lo]:
        lo, hi = hi, 2 * hi
    hi = min(hi, limit + 1)  # now fewer than hi cancel
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if left[a - mid:a - lo] == inverse[b - mid:b - lo]:
            lo = mid
        else:
            hi = mid
    return lo


def _merged(scheme: GroupScheme, s: Syllable, t: Syllable) -> tuple[Syllable]:
    """The one syllable of s t, for s and t on one generator and not inverse."""
    gen, exp = s
    order = scheme.orders[gen]
    return (scheme.interned[gen, exp + t[1] if order is None else (exp + t[1]) % order],)


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
    orders, interned = scheme.orders, scheme.interned
    stack: list[Syllable] = []
    push, pop = stack.append, stack.pop
    for gen, exp in raw:
        try:
            order = orders[gen]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {gen!r}") from None
        if stack and stack[-1][0] == gen:
            exp += pop()[1]
        # finite orders keep exponents in [0, order); 0 marks a vanished syllable
        if order is not None:
            exp %= order
        if exp:
            push(interned[gen, exp])
    return Word(scheme, tuple(stack))


def invert(w: Word) -> Word:
    """The group inverse: reversed syllables with negated exponents.

    A reduced word inverts syllable by syllable, with no cancellation:
    a finite-order exponent e becomes order - e.  w, a CyclicWord too, and
    its inverse, a Word, each remember the other's syllables.

    >>> str(invert(parse_word(PSL2Z, "a b a b^2")))
    'b a b^2 a'
    """
    v = Word(w.scheme, _inverse_syllables(w))
    v._inverted = w.syllables
    return v


def _inverse_syllables(w: Word) -> tuple[Syllable, ...]:
    """The syllables of w^-1, computed once and remembered on w."""
    inverse = w._inverted
    if inverse is None:
        scheme = w.scheme
        inverse = w._inverted = _looked_up(scheme.inverses, w.syllables[::-1], scheme.inverse)
    return inverse


def conjugated(w: Word, k: Word) -> Word:
    """reduce(k * w * k^-1)."""
    return k * w * invert(k)


def gen3_product(g: Word, *conjugators: Word) -> Word:
    """reduce(g (k_1 g k_1^-1) ... (k_r g k_r^-1)): 1 for the conjugators (h1, k) of
    generalised 3-torsion, and for (r) exactly when r reverses g."""
    # a left-to-right chain: each seam cancels against an original factor's memo
    product = g
    for k in conjugators:
        product = product * k * g * invert(k)
    return product


def require_gen_degree(n: int) -> None:
    """Refuse a degree n < 2, for which generalised n-torsion is not defined."""
    if n < 2:
        raise InvalidInvariant(f"generalised torsion needs n >= 2, got {n}")


def _cyclic_core(w: Word) -> tuple[Word, Word]:
    """Peel matching end syllables; returns (core, conj) with conj^-1 w conj = core.

    The peeled syllables are a prefix of w, so conj is that prefix.  Peeling
    stops at the first pair of end syllables that merges into a nontrivial
    one, since the merged syllable then differs in generator from its new
    neighbour.
    """
    sylls, scheme = w.syllables, w.scheme
    # a reduced word cannot peel past its middle, where neighbours never cancel
    i = _cancelled(sylls, w, len(sylls) // 2)
    j = len(sylls) - i
    if j - i >= 2 and sylls[i][0] == sylls[j - 1][0]:
        merged = _merged(scheme, sylls[j - 1], sylls[i])
        return Word(scheme, sylls[i + 1:j - 1] + merged), Word(scheme, sylls[:i + 1])
    return Word(scheme, sylls[i:j]), Word(scheme, sylls[:i])


def _least_rotation(keys: list) -> int:
    """The start of a lexicographically least rotation (Shiloach 1981).

    The rotations from the best start i and the next untried start j > i
    are compared key by key.  Where they first differ, at offset k, the
    start with the larger key loses, and so do the k starts after it.
    i + j + k grows at each comparison and stays below 3 len(keys).
    """
    n = len(keys)
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = keys[(i + k) % n], keys[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j + 1, i + k + 1)
        else:
            j += k + 1
        k = 0
    return i


def _rotation_offset(codes: dict, text: tuple[Syllable, ...], pattern: tuple[Syllable, ...]) -> int:
    """The least t with text[t:] + text[:t] == pattern, or -1; equal lengths.

    Each syllable is written as its code point and ``str.find`` searches
    the doubled text.  The codes are read in bulk from codes, a scheme's
    table, when it holds every syllable of the pattern.  Otherwise, as for
    an infinite-order syllable or once the table is full, each distinct
    syllable of the pattern gets a code of its own.  Either way a text
    syllable without a code is outside the pattern and rules out every
    rotation.  For a pattern alphabet too large for one code point a code
    is two, from disjoint ranges, so that every match starts on a
    syllable, and every other syllable gets one more code.
    """
    try:
        p = "".join(_looked_up(codes, pattern))
    except KeyError:
        distinct = dict.fromkeys(pattern)
        other = len(distinct)
        if other > _MAX_CODE:
            wide = dict(zip(distinct, count()))
            t = list(map(wide.get, text, repeat(other)))
            return _wide(t + t[:-1]).find(_wide(list(map(wide.__getitem__, pattern)))) // 2
        codes = dict(zip(distinct, map(chr, count())))
        p = "".join(_looked_up(codes, pattern))
    try:
        t = "".join(_looked_up(codes, text))
    except KeyError:
        return -1
    return (t + t[:-1]).find(p)


def _looked_up(table: dict, keys: Sequence, make=None) -> tuple:
    """The values of keys in an exact dict, by one ``itemgetter`` call.

    A key the table lacks raises KeyError when no make is given; otherwise
    the values are read again one at a time, and each missing one is
    ``make(key)``, not stored.  A table read with make holds no false value.
    """
    try:
        return itemgetter(*keys)(table) if len(keys) > 1 else tuple(map(table.__getitem__, keys))
    except KeyError:
        if make is None:
            raise
        get = table.get
        return tuple([get(key) or make(key) for key in keys])


def _spelling(s: Syllable) -> str:
    return format_tokens((s,))


def _wide(codes: list[int]) -> str:
    # a code point in [0x100000, 0x10FFFF], then one below 0x10000
    return "".join([chr(0x100000 | c >> 16) + chr(c & 0xFFFF) for c in codes])


class CyclicWord(Word):
    """A conjugacy-class representative: the least rotation of a cyclic core, a reduced word.

    Rotations are ordered lexicographically by (generator index, exponent).
    """

    __slots__ = ()

    @classmethod
    def from_word(cls, w: Word) -> "CyclicWord":
        return cyclic_reduce(w)[0]


def cyclic_reduce(w: Word) -> tuple[CyclicWord, Word]:
    """Cyclically reduce w.

    Returns (core, conjugator) where conjugator^-1 * w * conjugator reduces to
    a word whose canonical rotation is ``core``.
    """
    core, conj = _cyclic_core(w)
    sylls, indices = core.syllables, w.scheme.indices
    k = _least_rotation([(indices[gen], exp) for gen, exp in sylls])
    return CyclicWord(w.scheme, sylls[k:] + sylls[:k]), conj


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
    t = _rotation_offset(u.scheme.codes, cu.syllables, cv.syllables)
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


def _period(codes: dict, sylls: tuple[Syllable, ...]) -> int:
    """The least p > 0 with sylls a power of sylls[:p]; sylls nonempty, codes as
    :func:`_rotation_offset` reads them.

    That is the least rotation above 0 taking sylls to itself: one more
    than the rotation offset from sylls rotated by one back to sylls.
    """
    return 1 + _rotation_offset(codes, sylls[1:] + sylls[:1], sylls)


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
        root = Word(w.scheme, (w.scheme.syllable(sylls[0][0], 1),))
    else:
        root = Word(w.scheme, sylls[:_period(w.scheme.codes, sylls)])
    return p * root * invert(p)


def mirror_centres(core: Word, radius: int) -> list[int]:
    """The centres c < period with core[c + d] = core[c - d]^-1 for d = 1 .. radius.

    core is a cyclically reduced word, in any rotation; the centres index
    its syllables.  Indices are taken mod len(core), 0 <= radius <=
    len(core) / 2, and the centres of a proper power repeat with the
    length of its primitive root.

    The syllable at c is free, and a mirror around a syllable that is not
    its own inverse carries no mirror across its centre, so Manacher's
    algorithm (Manacher 1975) runs on the pairs p[i] = (core[i - radius],
    core[i + 1]), inverted as (x, y) -> (y^-1, x^-1): pair t of the window
    p[c .. c + radius - 1] holds the syllables at distances radius - t and
    t + 1 from c, so c is a centre when that window is its own mirror image.
    Time is O(len(core)).

    >>> mirror_centres(parse_word(PSL2Z, "a b a b^2"), 2)
    [0, 2]
    """
    sylls = core.syllables
    n = len(sylls)
    if not 0 <= 2 * radius <= n:
        raise ValueError(f"radius {radius} is outside [0, {n // 2}]")
    if not n:
        return []
    codes = dict(zip(dict.fromkeys(sylls), count()))
    code = list(map(codes.__getitem__, sylls))
    width = len(codes) + 1  # code len(codes): an inverse absent from the core
    inverse = list(map(codes.get, reversed(invert(core).syllables), repeat(width - 1)))
    # the pairs, each followed by a separator -1, between end sentinels -2 and
    # -3 that match nothing; text[q] must equal mirror[q'] for q, q' to mirror
    text, mirror = [-2, -1], [-3, -1]
    for i in range(n + radius - 1):
        x, y = (i - radius) % n, (i + 1) % n
        text += (code[x] * width + code[y], -1)
        mirror += (inverse[y] * width + inverse[x], -1)
    text.append(-2)
    mirror.append(-3)
    arm = [0] * len(text)
    lo = hi = 0  # the mirror reaching furthest right spans text[lo .. hi]
    for q in range(1, len(text) - 1):
        if text[q] != mirror[q]:
            arm[q] = -1  # not its own mirror image, so no mirror is centred here
            continue
        r = min(arm[lo + hi - q], hi - q) if q < hi else 0
        while r < radius and text[q + r + 1] == mirror[q - r - 1]:
            r += 1
        arm[q] = r
        if q + r > hi:
            lo, hi = q - r, q + r
    period = _period(core.scheme.codes, sylls)
    # the window of centre c is centred at text[2c + radius + 1]
    return [c for c in range(period) if arm[2 * c + radius + 1] >= radius - 1]


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
            last = sylls[-1][0] if sylls else None
            for name, order in scheme.generators:
                if name == last:
                    continue
                for e in exps(order):
                    grown = sylls + ((name, e),)
                    next_level.append(grown)
                    yield Word(scheme, grown)
        level = next_level


_SYLLABLE = rf"({_NAME.pattern})(?:\^(-?\d+))?"
_TOKEN = re.compile(_SYLLABLE)
#: the first token that is neither ``1`` nor a syllable; unlike a fullmatch of
#: the whole text, a search keeps no backtracking state per token
_BAD_TOKEN = re.compile(rf"(?<!\S)(?!(?:1|{_SYLLABLE})(?!\S))\S+")


def tokens(text: str) -> list[tuple[str, int]]:
    """The (name, exponent) pairs of whitespace-separated tokens like ``a b^-2``.

    The one grammar of element text in every group: a token is ``name`` or
    ``name^k``, and ``1`` denotes the identity and is skipped.  The first
    malformed token, or failing that the first exponent past the
    interpreter's int/str digit limit, raises ParseError with its position.

    >>> tokens("a b^-2 1 c")
    [('a', 1), ('b', -2), ('c', 1)]
    >>> tokens("a ^2")
    Traceback (most recent call last):
    ...
    gentorsion.errors.ParseError: bad token '^2' (at position 2)
    """
    bad = _BAD_TOKEN.search(text)
    if bad:
        raise ParseError(f"bad token {bad.group()!r}", bad.start())
    try:
        return [(name, int(exp) if exp else 1) for name, exp in _TOKEN.findall(text)]
    except ValueError:  # an exponent past the int/str digit limit
        for m in _TOKEN.finditer(text):
            try:
                int(m[2] or 1)
            except ValueError:
                raise ParseError(f"exponent of {m[1]!r} is too long", m.start()) from None
        raise


def format_tokens(pairs: Iterable[tuple[str, int]]) -> str:
    """Spell (name, exponent) pairs as :func:`tokens` reads them.

    >>> format_tokens([("a", 1), ("b", -2)])
    'a b^-2'
    >>> format_tokens([])
    '1'
    """
    return " ".join([name if exp == 1 else f"{name}^{exp}" for name, exp in pairs]) or "1"


def parse_word(scheme: GroupScheme, text: str) -> Word:
    """Parse text like ``a b^2 a b^-1`` (see :func:`tokens`) into a reduced word.

    Canonical spellings are read in bulk from the scheme's table, and the
    distinct other tokens by one :func:`tokens` call, each normalised as
    :func:`reduce` does; the word is reduced only if neighbours share a
    generator, and text with an error is read again whole, for the error's
    position.  A word of canonical
    spellings that needs no reduction keeps text itself, not a copy, which
    ``str`` returns when text is single-spaced; that test waits for ``str``.

    >>> parse_word(PSL2Z, "a b^2").syllables == (("a", 1), ("b", 2))
    True
    """
    parts = text.split()
    try:
        sylls = _looked_up(scheme.spelled, parts)
    except KeyError:
        read = {part: scheme.spelled.get(part) for part in set(parts)}
        odd = [part for part, syll in read.items() if syll is None and part != "1"]
        try:  # one call reads every odd part, each one token; one that vanishes reads as None
            for part, (gen, exp) in zip(odd, tokens(" ".join(odd))):
                order = scheme.order(gen)
                exp = exp % order if order else exp
                read[part] = scheme.interned[gen, exp] if exp else None
        except (ParseError, UnknownGenerator):
            return reduce(tokens(text), scheme)
        sylls, text = tuple(filter(None, _looked_up(read, parts))), None
    gens = list(map(itemgetter(0), sylls))
    if any(map(eq, gens, gens[1:])):
        return reduce(sylls, scheme)
    w = Word(scheme, sylls)
    w._text = text  # None for text that is not canonical
    return w


def parse_scheme(text: str) -> GroupScheme:
    """Parse a scheme literal like ``a:2, b:3, d:inf``."""
    orders: dict[str, Optional[int]] = {}
    pos = 0
    for part in text.split(","):
        chunk = part.strip()
        pos = text.index(chunk, pos) if chunk else pos
        if not chunk:
            raise ParseError("empty scheme entry", pos)
        if ":" not in chunk:
            raise ParseError(f"expected name:order in {chunk!r}", pos)
        name, order_text = (piece.strip() for piece in chunk.split(":", 1))
        try:
            order = None if order_text in ("inf", "oo") else int(order_text)
        except ValueError:
            raise ParseError(f"bad order {order_text!r}", pos) from None
        try:
            _add_generator(orders, name, order)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None
        pos += len(chunk)
    return GroupScheme(tuple(orders.items()))
