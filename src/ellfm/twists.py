"""Twist classes of a rational elliptic surface with section, and the
surfaces they produce.

Over a base B that passes ``validate_config`` the group of twists is the
direct sum over base points of H_1(B_t, Q/Z): a finitely supported
assignment of torsion data, (Q/Z)^2 over smooth fibers and Q/Z over I(n)
fibers.  A datum is an instance of the type ``local_twist_group`` names for
its fiber: a ``QZPair``, or a ``QZ`` value.
A class supported at smooth points is realized geometrically by
logarithmic transformations: each supported point acquires a multiple
smooth fiber whose multiplicity is the local order.  The Euler number is
unchanged and the multisection index of the result is the order of the
class.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .errors import (
    AdditiveFiberError,
    BaseMismatchError,
    DuplicatePointError,
    InvalidBaseError,
    NotCoprimeError,
    ShapeError,
    UnknownLambdaError,
    UnsupportedTwistError,
)
from .fibers import CONSTANT_J_AUT, FiberKind, KodairaFiber, local_twist_group
from .projective import BasePoint
from .qz import QZ, QZPair, Torsion
from .surface import EllipticSurface, MarkedConfig
from .value import Value

Datum = QZ | QZPair
SupportEntry = tuple[BasePoint, Datum]


def _check_datum_shape(base: EllipticSurface, point: BasePoint, datum: Datum) -> None:
    # Unmarked points carry a smooth fiber of B, whose H_1 is (Q/Z)^2.
    fiber = base.config.fiber_at(point)
    group = QZPair if fiber is None else local_twist_group(fiber)
    if group is None:
        raise AdditiveFiberError(
            f"fiber at {point} has additive type {fiber.token()}; its local twist group is trivial"
        )
    if not isinstance(datum, group):
        raise ShapeError(
            f"fiber of {base.name or 'base'} at {point} is smooth; the twist datum must be a (Q/Z)^2 pair"
            if group is QZPair
            else f"fiber at {point} has type {fiber.token()}; the twist datum must be a single Q/Z element"
        )


_NOT_RATIONAL = "is not a section-bearing configuration with Euler sum 12"


def _gate_refusal(config: MarkedConfig) -> str | None:
    """The first condition of the base gate that ``config`` fails, as the
    end of a refusal detail, or None when it passes."""
    if config.euler_number != 12 or config.multiplicities:
        return _NOT_RATIONAL
    singular, additive = len(config), config.additive_count
    if singular + additive < 4:
        return (
            f"fails the Shioda-Tate bound s + a >= 4: s = {singular} singular and "
            f"a = {additive} additive fibers give fiber root rank {12 - singular - additive} > 8"
        )
    # A floor of 4 implies additive == singular: that test comes first only because it is cheaper.
    if additive == singular and config._aut_floor == 4 and 6 in {CONSTANT_J_AUT.get(f.kind) for _, f in config}:
        return "has constant j (no I(n) or I*(n) fiber with n >= 1) but both j = 0 and j = 1728 fibers"
    return None


def validate_config(config: MarkedConfig) -> bool:
    """The base gate: necessary conditions for a section-bearing rational
    elliptic surface.

    True iff the Euler contributions sum to 12, every fiber is non-multiple,
    the Shioda-Tate bound holds and the fibers agree on j.  Point
    distinctness is already guaranteed by the config type.  This does not
    certify that the configuration is realizable.

    The bound: a rational elliptic surface has Picard number 10, so the root
    lattices of its fibers have rank sum(e_v - 1) over the s singular I(n)
    fibers plus sum(e_v - 2) over the a additive ones, at most 8 (Shioda,
    Comment. Math. Univ. St. Paul. 39, 1990).  With sum(e_v) = 12 that is
    s + a >= 4.  It is checked after the Euler and multiplicity conditions,
    since the additive count is defined only without multiple fibers, and
    it is read from the configuration's cache.

    The j condition: j has its poles at the I(n) and I*(n) fibers, n >= 1,
    so without one j is constant.  A cached automorphism floor of 4 says
    j = 1728 (``surface.aut_floor``), and then no marked kind may have
    order 6, j = 0, in ``fibers.CONSTANT_J_AUT``.

    Every ``TwistClass`` requires its base to have a section and pass this
    gate.  A section forbids multiple fibers, so for such a surface the first
    two conditions are rationality itself: chi = e / 12 = 1 and deg K = -1.
    Over a rational base the Tate-Shafarevich subgroup of the Weil-Chatelet
    group vanishes, so the group of twists is exactly the direct sum
    ``TwistClass`` models.
    """
    return _gate_refusal(config) is None


class TwistClass(Torsion, defaults=((),)):
    """A finitely supported twist datum over a fixed base surface.

    The base must have a section and pass ``validate_config``, the regime
    where the direct-sum description of the twist group is exact; any other
    base raises ``InvalidBaseError``, whose detail names the failed
    condition.  Each support entry is a ``BasePoint`` with a ``QZPair``
    datum at a smooth fiber or a ``QZ`` datum at an I(n) fiber; any other
    datum, a tuple included, raises ``TypeError``.  Zero local data are
    dropped, so the support always consists of points with nonzero datum.
    The classes over one base form a group under the ``qz.Torsion`` law,
    pointwise on the data: ``b * cls`` takes an ``int`` b, and adding
    classes over different bases raises ``BaseMismatchError``.
    """

    __slots__ = ("base", "support")

    def __post_init__(self) -> None:
        base = self.base
        if not isinstance(base, EllipticSurface):
            raise TypeError("TwistClass base must be an EllipticSurface")
        refusal = _gate_refusal(base.config) if base.has_section else _NOT_RATIONAL
        if refusal is not None:
            label = f"base {base.name!r}" if base.name else "unnamed base"
            raise InvalidBaseError(f"{label} {refusal}")
        kept = []
        seen = set()
        for point, datum in self.support:
            if not isinstance(point, BasePoint):
                raise TypeError("support points must be BasePoint values")
            if not isinstance(datum, (QZ, QZPair)):
                raise TypeError("twist data must be QZ or QZPair values")
            if point in seen:
                raise DuplicatePointError(f"twist datum assigned twice at {point}")
            seen.add(point)
            if not datum:
                continue
            _check_datum_shape(base, point, datum)
            kept.append((point, datum))
        kept.sort(key=lambda item: item[0].sort_key())
        object.__setattr__(self, "support", tuple(kept))

    @property
    def order(self) -> int:
        return math.lcm(*(datum.order for _, datum in self.support))

    def __bool__(self) -> bool:
        return bool(self.support)

    def _plus(self, other: "TwistClass") -> "TwistClass":
        if self.base != other.base:
            raise BaseMismatchError("twist classes live over different base surfaces")
        merged: dict[BasePoint, Datum] = dict(self.support)
        for point, datum in other.support:
            merged[point] = merged[point] + datum if point in merged else datum
        return TwistClass(self.base, tuple(merged.items()))

    def _scaled(self, scalar: int) -> "TwistClass":
        return TwistClass(self.base, tuple((p, scalar * d) for p, d in self.support))


def twist_class(base: EllipticSurface, assignments: Iterable[SupportEntry]) -> TwistClass:
    """Validated twist class from (point, datum) assignments; zeros dropped."""
    return TwistClass(base, tuple(assignments))


class TwistedSurface(Value):
    """An elliptic surface together with the twist class that produced it.

    The pair (surface, identification of its relative Jacobian with the base)
    is remembered through ``twist_class``; two twisted surfaces are equal
    exactly when their classes agree, which is the model's notion of
    isomorphism of pairs.
    """

    __slots__ = ("surface", "twist_class")

    def __post_init__(self) -> None:
        if self.surface.config != _twisted_config(self.twist_class):
            raise ValueError("surface does not match the configuration its twist class dictates")

    @property
    def config(self) -> MarkedConfig:
        return self.surface.config

    @property
    def name(self) -> str:
        return self.surface.name

    @property
    def multisection_index(self) -> int:
        return self.twist_class.order


def _twisted_config(cls: TwistClass) -> MarkedConfig:
    extra = [
        (point, KodairaFiber(FiberKind.SMOOTH, 0, datum.order))
        for point, datum in cls.support
    ]
    return MarkedConfig(cls.base.config.entries + tuple(extra))


def _default_name(cls: TwistClass) -> str:
    if not cls:
        return cls.base.name
    tags = "+".join(f"{datum.order}I0" for _, datum in cls.support)
    return f"{cls.base.name}+{tags}"


def twist(base: EllipticSurface, cls: TwistClass, name: str | None = None) -> TwistedSurface:
    """Apply the logarithmic transformations encoded by a twist class.

    Only classes supported over smooth fibers of the base are realized: the
    result of a logarithmic transformation at an I(n) fiber is outside this
    model and rejected.
    """
    if base != cls.base:
        raise BaseMismatchError("twist class does not belong to this base surface")
    for point, _ in cls.support:
        if (fiber := base.config.fiber_at(point)) is not None:
            raise UnsupportedTwistError(
                f"twisting at the marked {fiber.token()} fiber at "
                f"{point} is not modelled; only smooth points are supported"
            )
    surface = EllipticSurface(
        _twisted_config(cls),
        has_section=not cls,
        name=name if name is not None else _default_name(cls),
    )
    return TwistedSurface(surface, cls)


def jacobian(twisted: TwistedSurface) -> EllipticSurface:
    """The relative Jacobian: the base surface, all multiplicities stripped."""
    return twisted.twist_class.base


def relative_jacobian_power(twisted: TwistedSurface, i: int) -> TwistedSurface:
    """The surface of the i-th multiple of the twist class.

    Index 1 returns the surface itself, index 0 the trivial twist of the
    Jacobian.  Any other index must be coprime to the multisection index for
    the corresponding moduli space to be a smooth elliptic surface.
    """
    if type(i) is not int:
        raise TypeError("partner index must be an integer")
    base = twisted.twist_class.base
    if i == 0:
        return twist(base, TwistClass(base))
    lam = twisted.multisection_index
    if math.gcd(i, lam) != 1:
        raise NotCoprimeError(
            f"index {i} shares a factor with the multisection index {lam}"
        )
    return twist(base, i * twisted.twist_class, name=f"{twisted.name}[{i}]")


def multisection_index(obj) -> int:
    """Multisection index of a section-bearing or twist-constructed surface."""
    if isinstance(obj, TwistedSurface):
        return obj.multisection_index
    if isinstance(obj, EllipticSurface):
        if obj.has_section:
            return 1
        raise UnknownLambdaError(
            "multisection index of a raw surface without a section is not determined "
            "by its fiber configuration"
        )
    raise TypeError(f"expected a surface, got {type(obj).__name__}")


def default_twist_point(base: EllipticSurface) -> BasePoint:
    """Smallest non-negative integer point where the base fiber is smooth.

    It is ``MarkedConfig.least_unmarked_integer``, derived once per
    configuration from its marked integer numerators and cached, so every
    call on one base returns the same point object.
    """
    return base.config.least_unmarked_integer
