"""The modular group PSL(2,Z) = <a, b | a^2, b^3>.

Words over the scheme ``a:2, b:3`` are mapped to integer matrices of
determinant one, taken up to sign.  The trace separates elements into
elliptic (order 2 or 3), parabolic and hyperbolic classes; all decisions
are made on words, and every positive certificate is re-multiplied before
it is returned.

An element g is generalised 3-torsion when some product of three
conjugates of g is trivial.  After conjugating the first factor to g
itself this reads

    g * (h1 g h1^-1) * (k g k^-1) = 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    InvalidCertificate,
    NonpositiveBound,
    NotElliptic,
    NotHyperbolic,
    NotParabolic,
    TrivialElement,
)
from .words import (
    PSL2Z,
    CyclicWord,
    Word,
    conjugated,
    cyclic_reduce,
    enumerate_reduced,
    identity,
    invert,
    is_conjugate,
    parse_word,
)


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN_WITHIN_BOUND = "unknown-within-bound"


class IsometryClass(enum.Enum):
    IDENTITY = "identity"
    ELLIPTIC_ORDER_2 = "elliptic-order-2"
    ELLIPTIC_ORDER_3 = "elliptic-order-3"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class IntMatrix2:
    """An integer matrix of determinant 1, normalised up to overall sign.

    The sign is fixed by making the first nonzero entry among
    (m11, m12, m21) positive, so equal group elements compare equal.
    """

    m11: int
    m12: int
    m21: int
    m22: int

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

    >>> to_matrix(parse_word(PSL2Z, "a b")).rows()
    ((1, 1), (0, 1))
    >>> to_matrix(parse_word(PSL2Z, "a b a b^2")).rows()
    ((2, 1), (1, 1))
    """
    p, q, r, t = 1, 0, 0, 1
    for s in w.syllables:
        if s.gen == "a":
            if s.exp % 2:
                p, q, r, t = q, -p, t, -r
        else:
            e = s.exp % 3
            if e == 1:
                p, q, r, t = -q, p - q, -t, r - t
            elif e == 2:
                p, q, r, t = q - p, -p, t - r, -r
    return IntMatrix2.of(p, q, r, t)


def classify(w: Word) -> IsometryClass:
    """Trace trichotomy, with the finite orders split by |trace|.

    >>> classify(parse_word(PSL2Z, "a")).value
    'elliptic-order-2'
    >>> classify(parse_word(PSL2Z, "a b a")).value
    'elliptic-order-3'
    >>> classify(parse_word(PSL2Z, "a b")).value
    'parabolic'
    >>> classify(parse_word(PSL2Z, "a b a b^2")).value
    'hyperbolic'
    """
    if w.is_identity:
        return IsometryClass.IDENTITY
    t = abs(to_matrix(w).trace)
    if t == 0:
        return IsometryClass.ELLIPTIC_ORDER_2
    if t == 1:
        return IsometryClass.ELLIPTIC_ORDER_3
    if t == 2:
        return IsometryClass.PARABOLIC
    return IsometryClass.HYPERBOLIC


def _a_exponent_parity(w: Word) -> int:
    return sum(s.exp for s in w.syllables if s.gen == "a") % 2


@dataclass(frozen=True)
class Reversibility:
    """A reverser r with r g r^-1 = g^-1 and an involution pair (u, v).

    The pair satisfies u * v = g and u^2 = v^2 = 1, exhibiting strong
    reversibility; v is trivial exactly when g itself is an involution.
    """

    reverser: Word
    involution_pair: tuple[Word, Word]


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
    core = CyclicWord.from_word(w)
    n_abs, rem = divmod(len(core), 2)
    if rem:
        raise NotParabolic(f"{w} has odd cyclic length, not a parabolic form")
    t = parse_word(w.scheme, "a b")
    for n in (n_abs, -n_abs):
        c = is_conjugate(t ** n, w)
        if c is not None:
            return n, c
    raise NotParabolic(f"{w} is not conjugate to a power of a*b")


def gen3_product(g: Word, h1: Word, k: Word) -> Word:
    """The product g * (h1 g h1^-1) * (k g k^-1), reduced."""
    return g * conjugated(g, h1) * conjugated(g, k)


@dataclass(frozen=True)
class Gen3Witness:
    """How a hyperbolic instance was found: g = c (z b^e1 z^-1 b^e2) c^-1."""

    z: Word
    e1: int
    e2: int
    conjugator: Word


@dataclass(frozen=True)
class Gen3Verdict:
    tag: Verdict
    certificate: Optional[tuple[Word, Word]] = None
    reason: Optional[str] = None
    bound_used: Optional[int] = None
    witness: Optional[Gen3Witness] = None


def _checked(g: Word, h1: Word, k: Word) -> tuple[Word, Word]:
    if not gen3_product(g, h1, k).is_identity:
        raise InvalidCertificate(f"certificate ({h1}, {k}) fails for {g}")
    return (h1, k)


def default_gen3_bound(g: Word) -> int:
    core, _ = cyclic_reduce(g)
    return -(-len(core) // 2) + 3


def gen3_torsion(g: Word, bound: Optional[int] = None) -> Gen3Verdict:
    """Decide generalised 3-torsion in PSL(2,Z).

    Finite-order and parabolic inputs are decided outright.  A hyperbolic
    input is generalised 3-torsion exactly when it is a product of two
    elements of order three; the search normalises the second factor to a
    power of b and scans conjugating words z of at most ``bound`` syllables
    for the first, so a miss is only conclusive up to that bound.
    """
    if g.is_identity:
        raise TrivialElement("generalised torsion is considered for nontrivial elements")
    scheme = g.scheme
    e = identity(scheme)
    b = parse_word(scheme, "b")
    kind = classify(g)

    if kind == IsometryClass.ELLIPTIC_ORDER_3:
        return Gen3Verdict(
            Verdict.YES,
            certificate=_checked(g, e, e),
            reason="order-3 torsion: the cube of g is already trivial",
        )
    if kind == IsometryClass.ELLIPTIC_ORDER_2:
        return Gen3Verdict(
            Verdict.NO,
            reason="abelianization obstruction: the a-exponent sum of g is odd, "
            "so no product of three conjugates of g can be trivial",
        )
    if kind == IsometryClass.PARABOLIC:
        n, _ = parabolic_power(g)
        a = parse_word(scheme, "a")
        if n in (2, -2):
            # (ab)^2 = (a b a) b and (ab)^-2 = (a b^2 a) b^2 are products
            # of two order-3 elements, so the hyperbolic recipe applies
            e1 = e2 = 1 if n == 2 else 2
            t = a * b ** e1 * a * b ** e2
            c = is_conjugate(t, g)
            if c is None:
                raise InvalidCertificate(f"{g} is not conjugate to its parabolic form {t}")
            h1 = conjugated(b ** (3 - e2), c)
            k = conjugated(b ** e2, c)
            return Gen3Verdict(
                Verdict.YES,
                certificate=_checked(g, h1, k),
                reason=f"parabolic of power {n:+d}",
                witness=Gen3Witness(z=a, e1=e1, e2=e2, conjugator=c),
            )
        if n % 2:
            return Gen3Verdict(
                Verdict.NO,
                reason=f"abelianization obstruction: parabolic power {n} is odd",
            )
        return Gen3Verdict(
            Verdict.NO,
            reason=f"parabolic of power {n}: only powers +2 and -2 are products "
            "of two order-3 elements",
        )

    # hyperbolic
    if _a_exponent_parity(g) == 1:
        return Gen3Verdict(
            Verdict.NO,
            reason="abelianization obstruction: the a-exponent sum of g is odd, "
            "so no product of three conjugates of g can be trivial",
        )
    if bound is None:
        bound = default_gen3_bound(g)
    if bound <= 0:
        raise NonpositiveBound(f"search bound must be positive, got {bound}")
    target = CyclicWord.from_word(g)
    for z in enumerate_reduced(scheme, bound):
        if z.syllables and z.syllables[-1].gen == "b":
            continue
        left = {1: z * b * invert(z), 2: z * (b * b) * invert(z)}
        for e1 in (1, 2):
            for e2 in (1, 2):
                t = left[e1] * (b ** e2)
                if CyclicWord.from_word(t) != target:
                    continue
                c = is_conjugate(t, g)
                if c is None:
                    raise InvalidCertificate(f"{t} has the cyclic form of {g} but no conjugator")
                h1 = conjugated(b ** (3 - e2), c)
                k = conjugated(b ** e2, c)
                return Gen3Verdict(
                    Verdict.YES,
                    certificate=_checked(g, h1, k),
                    bound_used=bound,
                    witness=Gen3Witness(z=z, e1=e1, e2=e2, conjugator=c),
                )
    return Gen3Verdict(
        Verdict.UNKNOWN_WITHIN_BOUND,
        reason="no product of two order-3 elements matching g was found with "
        f"conjugating words of at most {bound} syllables",
        bound_used=bound,
    )


@dataclass(frozen=True)
class Axis:
    """The translation axis of a hyperbolic element.

    Endpoints on the real line are (p - sqrt(disc)) / q and
    (p + sqrt(disc)) / q; as a half-circle in the upper half-plane the
    axis has the given exact center and squared radius.
    """

    p: int
    q: int
    disc: int
    center: Fraction
    radius_sq: Fraction


def axis(w: Word) -> Axis:
    if classify(w) != IsometryClass.HYPERBOLIC:
        raise NotHyperbolic(f"{w} has no axis")
    m = to_matrix(w)
    p, q = m.m11 - m.m22, 2 * m.m21
    if q < 0:
        p, q = -p, -q
    disc = m.trace * m.trace - 4
    return Axis(
        p=p,
        q=q,
        disc=disc,
        center=Fraction(p, q),
        radius_sq=Fraction(disc, q * q),
    )


@dataclass(frozen=True)
class EllipticFixedPoint:
    """The fixed point re + i*sqrt(im_sq) of an elliptic element."""

    re: Fraction
    im_sq: Fraction


def elliptic_fixed_point(w: Word) -> EllipticFixedPoint:
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


@dataclass(frozen=True)
class AxisResidual:
    """How far a reverser's fixed point sits from the axis it should lie on.

    The residual is (re - center)^2 + im_sq - radius_sq, computed in exact
    rationals; the float mirror is for tolerance reporting.
    """

    residual: Fraction
    residual_float: float
    within_tolerance: bool


def reverser_on_axis_check(
    w: Word, reverser: Word, tolerance: float = 1e-9
) -> AxisResidual:
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
    return AxisResidual(
        residual=residual,
        residual_float=float(residual),
        within_tolerance=abs(float(residual)) < tolerance,
    )
