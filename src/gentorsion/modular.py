"""The modular group PSL(2,Z) = <a, b | a^2, b^3>.

The class of an element, elliptic (order 2 or 3), parabolic or
hyperbolic, is read off its cyclic core.  Integer matrices of determinant
one, taken up to sign, serve the geometry alone: axes and fixed points.
All decisions are made on words, and every positive certificate is
re-multiplied before it is returned.

An element g is generalised 3-torsion when some product of three
conjugates of g is trivial.  After conjugating the first factor to g
itself this reads

    g * (h1 g h1^-1) * (k g k^-1) = 1.
"""

from __future__ import annotations

import enum
from typing import Optional

from .errors import (
    InvalidCertificate,
    NotElliptic,
    NotHyperbolic,
    NotParabolic,
    SchemeMismatch,
    TrivialElement,
)
from .words import (
    PSL2Z,
    Syllable,
    Word,
    _cyclic_core,
    _Record,
    conjugated,
    gen3_product,
    identity,
    invert,
    is_conjugate,
    mirror_centres,
    parse_word,
)


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"


class IsometryClass(enum.Enum):
    IDENTITY = "identity"
    ELLIPTIC_ORDER_2 = "elliptic-order-2"
    ELLIPTIC_ORDER_3 = "elliptic-order-3"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class IntMatrix2(_Record):
    """An integer matrix of determinant 1, normalised up to overall sign.

    The sign is fixed by making the first nonzero entry among
    (m11, m12, m21) positive, so equal group elements compare equal.
    """

    __slots__ = _fields = ("m11", "m12", "m21", "m22")

    @classmethod
    def of(cls, m11: int, m12: int, m21: int, m22: int) -> "IntMatrix2":
        det = m11 * m22 - m12 * m21
        if det != 1:
            raise ValueError(f"determinant is {det}, expected 1")
        for lead in (m11, m12, m21):
            if lead != 0:
                if lead < 0:
                    m11, m12, m21, m22 = -m11, -m12, -m21, -m22
                break
        return cls(m11, m12, m21, m22)

    @classmethod
    def identity(cls) -> "IntMatrix2":
        return cls.of(1, 0, 0, 1)

    def __mul__(self, other: "IntMatrix2") -> "IntMatrix2":
        return IntMatrix2.of(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    @property
    def trace(self) -> int:
        return self.m11 + self.m22

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.m11, self.m12), (self.m21, self.m22))


def to_matrix(w: Word) -> IntMatrix2:
    """The image of a word under a -> [[0,-1],[1,0]], b -> [[0,1],[-1,-1]].

    Right multiplication by A, B or B^2 only permutes, adds and negates the
    four entries; the product is normalised once, at the end.  A^2 and B^3
    are the identity up to sign, so only exponents mod 2 and mod 3 matter.
    A word over any scheme other than ``a:2, b:3`` raises SchemeMismatch.

    >>> to_matrix(parse_word(PSL2Z, "a b")).rows()
    ((1, 1), (0, 1))
    >>> to_matrix(parse_word(PSL2Z, "a b a b^2")).rows()
    ((2, 1), (1, 1))
    """
    if w.scheme is not PSL2Z and w.scheme != PSL2Z:
        raise SchemeMismatch(f"{w} is not a word over the modular group a:2, b:3")
    p, q, r, t = 1, 0, 0, 1
    for gen, exp in w.syllables:
        if gen == "a":
            if exp % 2:
                p, q, r, t = q, -p, t, -r
        else:
            e = exp % 3
            if e == 1:
                p, q, r, t = -q, p - q, -t, r - t
            elif e == 2:
                p, q, r, t = q - p, -p, t - r, -r
    return IntMatrix2.of(p, q, r, t)


def classify(w: Word) -> IsometryClass:
    """The class read off the cyclic core of w.

    A single syllable is elliptic of its generator's order.  A longer core
    alternates a with b^e: with one exponent e it is a power of the
    parabolic a b or a b^2, and with both it is a product of positive
    powers of the two, whose trace exceeds 2.

    >>> classify(parse_word(PSL2Z, "a")).value
    'elliptic-order-2'
    >>> classify(parse_word(PSL2Z, "a b a")).value
    'elliptic-order-3'
    >>> classify(parse_word(PSL2Z, "a b")).value
    'parabolic'
    >>> classify(parse_word(PSL2Z, "a b a b^2")).value
    'hyperbolic'
    """
    if w.scheme is not PSL2Z and w.scheme != PSL2Z:
        raise SchemeMismatch(f"{w} is not a word over the modular group a:2, b:3")
    core = _cyclic_core(w)[0].syllables
    if len(core) > 1:
        return IsometryClass.PARABOLIC if _parabolic_exponent(core) else IsometryClass.HYPERBOLIC
    if not core:
        return IsometryClass.IDENTITY
    return IsometryClass.ELLIPTIC_ORDER_2 if core[0][0] == "a" else IsometryClass.ELLIPTIC_ORDER_3


def _parabolic_exponent(core: tuple[Syllable, ...]) -> int:
    """n with a core of two or more syllables a rotation of (a b)^n or (a b^2)^-n, else 0."""
    # the core alternates a with b^e, so it has period 2 exactly when one e occurs
    return 0 if core[2:] != core[:-2] else len(core) // 2 * (1 if ("b", 1) in core[:2] else -1)


class Reversibility(_Record):
    """A reverser r with r g r^-1 = g^-1 and an involution pair (u, v) of words.

    The pair satisfies u * v = g and u^2 = v^2 = 1, exhibiting strong
    reversibility; v is trivial exactly when g itself is an involution.
    """

    __slots__ = _fields = ("reverser", "involution_pair")


def reversible(g: Word) -> Optional[Reversibility]:
    """Decide whether g is conjugate to its inverse; None means it is not.

    Elliptic elements of order three and parabolics are never conjugate to
    their inverses here, and every reverser of a hyperbolic element is
    automatically an involution: if r g r^-1 = g^-1 then r^2 lies in the
    centralizer of g yet is conjugated to its own inverse by r, which for
    an infinite cyclic centralizer forces r^2 = 1.
    """
    if g.is_identity:
        raise TrivialElement("reversibility is considered for nontrivial elements")
    kind = classify(g)
    if kind == IsometryClass.ELLIPTIC_ORDER_2:
        e = identity(g.scheme)
        return Reversibility(reverser=e, involution_pair=(g, e))
    if kind in (IsometryClass.ELLIPTIC_ORDER_3, IsometryClass.PARABOLIC):
        return None
    r = is_conjugate(g, invert(g))
    if r is None:
        return None
    if not (r * r).is_identity:
        raise InvalidCertificate(f"reverser {r} of {g} is not an involution")
    u, v = r, r * g
    if u * v != g or not (v * v).is_identity:
        raise InvalidCertificate(f"involution pair ({u}, {v}) does not rebuild {g}")
    return Reversibility(reverser=r, involution_pair=(u, v))


def parabolic_power(w: Word) -> tuple[int, Word]:
    """Write a parabolic w as c (ab)^n c^-1; returns (n, c).

    Raises NotParabolic for anything else.
    """
    if classify(w) != IsometryClass.PARABOLIC:
        raise NotParabolic(f"{w} is not parabolic")
    n = _parabolic_exponent(_cyclic_core(w)[0].syllables)
    c = is_conjugate(parse_word(w.scheme, "a b") ** n, w)
    if c is None:
        raise InvalidCertificate(f"{w} has the cyclic form of (a b)^{n} but no conjugator")
    return n, c


class Gen3Witness(_Record):
    """How a hyperbolic instance was found: g = c (z b^e1 z^-1 b^e2) c^-1, c the conjugator."""

    __slots__ = _fields = ("z", "e1", "e2", "conjugator")


class Gen3Verdict(_Record):
    """A tag, and for a yes the certificate (h1, k) and, off the finite orders, a witness."""

    __slots__ = _fields = ("tag", "certificate", "reason", "witness")
    _defaults = {"certificate": None, "reason": None, "witness": None}


#: the verdict on every element whose a-exponent sum is odd
_ODD_A_SUM = Gen3Verdict(
    Verdict.NO,
    reason="abelianization obstruction: the a-exponent sum of g is odd, "
    "so no product of three conjugates of g can be trivial",
)


def _checked(g: Word, h1: Word, k: Word) -> tuple[Word, Word]:
    if not gen3_product(g, h1, k).is_identity:
        raise InvalidCertificate(f"certificate ({h1}, {k}) fails for {g}")
    return (h1, k)


def gen3_torsion(g: Word) -> Gen3Verdict:
    """Decide generalised 3-torsion in PSL(2,Z).

    Finite-order inputs and odd a-exponent sums are decided outright.  Any
    other g is generalised 3-torsion exactly when it is a product of two
    elements of order three, conjugate to z b^e1 z^-1 b^e2 with z from a to
    a: its cyclic core has a length L divisible by four and mirrors itself
    to its inverse around b^e1, out to the L/2 - 1 syllables z before it.
    The witness reads the first such z in enumerate_reduced order, then
    the least e1 and e2.  Of the parabolics (ab)^n, n = +-2 alone pass.
    The word z b^e1 z^-1 b^e2 is its syllables laid end to end, reduced as
    it stands since z runs from a to a; is_conjugate re-multiplies the
    conjugator it finds onto g, and one product checks the certificate.
    """
    if g.is_identity:
        raise TrivialElement("generalised torsion is considered for nontrivial elements")
    scheme = g.scheme
    kind = classify(g)

    if kind == IsometryClass.ELLIPTIC_ORDER_3:
        e = identity(scheme)
        return Gen3Verdict(
            Verdict.YES,
            certificate=_checked(g, e, e),
            reason="order-3 torsion: the cube of g is already trivial",
        )
    if kind == IsometryClass.ELLIPTIC_ORDER_2:
        return _ODD_A_SUM
    cyclic = _cyclic_core(g)[0]
    core, half = cyclic.syllables, len(cyclic) // 2
    if kind == IsometryClass.PARABOLIC:
        n = _parabolic_exponent(core)
        if n % 2:
            return Gen3Verdict(
                Verdict.NO,
                reason=f"abelianization obstruction: parabolic power {n} is odd",
            )
        if abs(n) != 2:
            return Gen3Verdict(
                Verdict.NO,
                reason=f"parabolic of power {n}: only powers +2 and -2 are products "
                "of two order-3 elements",
            )
    if half % 2:
        # the core has half a-syllables, and conjugation keeps the parity
        return _ODD_A_SUM

    # the core alternates a and b, so an even a-exponent sum makes L divisible
    # by four; each z, read before a b-centre c, alternates from a, so its
    # exponents order it as enumerate_reduced does
    ring = core + core
    readings = [
        ([exp for _, exp in ring[c + half + 1:c + 2 * half]], core[c][1], core[c - half][1], c)
        for c in mirror_centres(cyclic, half - 1)
        if core[c][0] == "b"
    ]
    if not readings:
        return Gen3Verdict(
            Verdict.NO,
            reason="no b-syllable of the cyclic core of g is a mirror centre, so g "
            "is not a product z b^e1 z^-1 b^e2 of two order-3 elements",
        )
    _, e1, e2, centre = min(readings)
    z = Word(scheme, ring[centre + half + 1:centre + 2 * half])
    b1, b2 = scheme.syllable("b", e1), scheme.syllable("b", e2)
    # z runs from a to a, so z b^e1 z^-1 b^e2 is reduced as it stands
    t = Word(scheme, (*z.syllables, b1, *invert(z).syllables, b2))
    c = is_conjugate(t, g)
    if c is None:
        raise InvalidCertificate(f"{t} has the cyclic form of {g} but no conjugator")
    k = conjugated(Word(scheme, (b2,)), c)
    h1 = invert(k)  # c b^-e2 c^-1
    return Gen3Verdict(
        Verdict.YES,
        certificate=_checked(g, h1, k),
        reason=f"parabolic of power {n:+d}" if kind == IsometryClass.PARABOLIC else None,
        witness=Gen3Witness(z=z, e1=e1, e2=e2, conjugator=c),
    )


class Axis(_Record):
    """The translation axis of a hyperbolic element.

    Endpoints on the real line are (p - sqrt(disc)) / q and
    (p + sqrt(disc)) / q; as a half-circle in the upper half-plane the
    axis has the given exact center and squared radius, both Fractions.
    """

    __slots__ = _fields = ("p", "q", "disc", "center", "radius_sq")


def axis(w: Word) -> Axis:
    from fractions import Fraction

    if classify(w) != IsometryClass.HYPERBOLIC:
        raise NotHyperbolic(f"{w} has no axis")
    m = to_matrix(w)
    p, q = m.m11 - m.m22, 2 * m.m21
    if q < 0:
        p, q = -p, -q
    disc = m.trace * m.trace - 4
    return Axis(p, q, disc, center=Fraction(p, q), radius_sq=Fraction(disc, q * q))


class EllipticFixedPoint(_Record):
    """The fixed point re + i*sqrt(im_sq) of an elliptic element, re and im_sq Fractions."""

    __slots__ = _fields = ("re", "im_sq")


def elliptic_fixed_point(w: Word) -> EllipticFixedPoint:
    from fractions import Fraction

    if classify(w) not in (
        IsometryClass.ELLIPTIC_ORDER_2,
        IsometryClass.ELLIPTIC_ORDER_3,
    ):
        raise NotElliptic(f"{w} has no elliptic fixed point")
    m = to_matrix(w)
    t = m.trace
    return EllipticFixedPoint(
        re=Fraction(m.m11 - m.m22, 2 * m.m21),
        im_sq=Fraction(4 - t * t, 4 * m.m21 * m.m21),
    )


class AxisResidual(_Record):
    """How far a reverser's fixed point sits from the axis it should lie on.

    The residual is (re - center)^2 + im_sq - radius_sq, computed in exact
    rationals, so the fixed point is on the axis exactly when it is zero;
    the float mirror is for display.
    """

    __slots__ = _fields = ("residual", "residual_float", "within_tolerance")


def reverser_on_axis_check(w: Word, reverser: Word) -> AxisResidual:
    """Check that the reverser's fixed point lies on the axis of w.

    A reverser of a hyperbolic element is an order-2 elliptic whose fixed
    point must land on the invariant axis; the residual is exact, so a
    correct reverser yields exactly zero.
    """
    ax = axis(w)
    if classify(reverser) != IsometryClass.ELLIPTIC_ORDER_2:
        raise NotElliptic(f"reverser {reverser} is not an order-2 elliptic")
    fp = elliptic_fixed_point(reverser)
    residual = (fp.re - ax.center) ** 2 + fp.im_sq - ax.radius_sq
    return AxisResidual(residual, float(residual), within_tolerance=residual == 0)
