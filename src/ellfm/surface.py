"""Relatively minimal elliptic surfaces over P^1, given by marked fiber data.

A surface is a finite configuration of marked points on P^1(Q), each labelled
with a Kodaira fiber type, plus a flag recording whether the fibration has a
section.  All numerical invariants (Euler number, chi of the structure sheaf,
canonical degree, Kodaira dimension, rationality) are derived from that data
by the standard formulas for elliptic fibrations, in exact arithmetic.

Each configuration derives e, the multiplicities, chi, deg K, the number
of additive fibers, the automorphism floor of a partner count over it and
its typed Moebius symmetry group (the search is
``projective.labelled_symmetries``) at most once and caches them, outside
its ``==``, ``hash`` and ``repr``; the Kodaira dimension and rationality
are read off chi and deg K in O(1).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    DegenerateSurfaceError,
    DuplicatePointError,
    InvalidConfigError,
    InvalidDocumentError,
    MultiplicityError,
    NotEllipticError,
)
from .fibers import FiberKind, KodairaFiber, euler_contribution, local_twist_group
from .projective import BasePoint, MobiusMap, labelled_symmetries
from .value import Value, derived

Entry = tuple[BasePoint, KodairaFiber]
_SMOOTH = FiberKind.SMOOTH  # read per entry of every build: a global, not an enum lookup


def _entry(entry) -> Entry:
    """An entry as a ``(BasePoint, KodairaFiber)`` tuple; anything else raises TypeError."""
    # A tuple of exactly these two types, the common case, skips the match's protocol checks.
    if type(entry) is tuple and len(entry) == 2 and type(entry[0]) is BasePoint:
        if type(entry[1]) is KodairaFiber:
            return entry
    match entry:
        case (BasePoint(), KodairaFiber()):
            return tuple(entry)  # a tuple itself, so twisted configs share the base's entries
    raise TypeError("config entries must be (BasePoint, KodairaFiber) pairs")


class MarkedConfig(Value, defaults=((),)):
    """Distinct marked points on P^1, each carrying a fiber type.

    Unmarked points are implicitly smooth non-multiple fibers, so an entry of
    kind smooth with multiplicity 1 is redundant and rejected.  Entries are
    stored sorted by base point, which makes equality and serialization
    canonical; a point written twice shows up as two equal neighbours.

    The Euler number, the multiplicities, chi, deg K, the additive count,
    the automorphism floor behind ``aut_floor``, the point -> fiber map
    behind ``fiber_at``, the ``least_unmarked_integer`` point and the typed
    symmetry group ``symmetries``
    (searched by ``projective.labelled_symmetries``) are ``derived``: each
    is computed at most once per object, on first read, and cached in the
    instance's ``__dict__``; a read that raises caches nothing, so it raises
    again on the next read.  Only ``entries`` is a field: the cache never
    takes part in ``==``, ``hash``, ``repr`` or a pickle.
    """

    __slots__ = ("entries", "__dict__")

    def __post_init__(self) -> None:
        normalized = tuple(sorted(map(_entry, self.entries), key=lambda e: e[0].sort_key()))
        # Points hold reduced coordinates: a point written twice sorts into neighbours with equal ones.
        for (before, _), (point, _) in zip(normalized, normalized[1:]):
            if point.num == before.num and point.den == before.den:
                raise DuplicatePointError(f"base point {point} marked twice")
        for _, fiber in normalized:
            if fiber.kind is _SMOOTH and fiber.multiplicity == 1:
                raise InvalidConfigError(
                    "a smooth non-multiple fiber is the unmarked default; do not mark it"
                )
        object.__setattr__(self, "entries", normalized)

    @derived
    def euler_number(self) -> int:
        return sum(euler_contribution(fiber) for _, fiber in self.entries)

    @derived
    def multiplicities(self) -> tuple[int, ...]:
        """Multiplicities of the multiple fibers, in point order."""
        return tuple(f.multiplicity for _, f in self.entries if f.multiplicity > 1)

    @derived
    def _chi(self) -> int:
        e = self.euler_number
        if e % 12 != 0:
            raise NotEllipticError(
                f"Euler number {e} is not a multiple of 12; no relatively minimal "
                "elliptic fibration over P^1 has this configuration"
            )
        return e // 12

    @derived
    def _canonical_degree(self) -> Fraction:
        # -2 + chi + sum(1 - 1/m) over the common denominator L = lcm(m).
        ms = self.multiplicities
        lcm = math.lcm(*ms)
        return Fraction((self._chi - 2 + len(ms)) * lcm - sum(lcm // m for m in ms), lcm)

    @derived
    def additive_count(self) -> int:
        """How many marked fibers are additive: trivial local twist group.

        Defined only without multiple fibers; otherwise ``local_twist_group``
        raises ``MultiplicityError``, on every read.
        """
        return sum(local_twist_group(f) is None for _, f in self.entries)

    @derived
    def _aut_floor(self) -> int:
        return min((2 if f.index else f.kind.constant_j_aut or 6 for _, f in self.entries), default=6)

    @derived
    def least_unmarked_integer(self) -> BasePoint:
        """The least non-negative integer point that carries no marked fiber."""
        marked = {point.num for point, _ in self.entries if point.den == 1}
        k = 0
        while k in marked:
            k += 1
        return BasePoint(k)

    @derived
    def fiber_map(self) -> Mapping[BasePoint, KodairaFiber]:
        """The marked points and their fibers, as a read-only dict."""
        return MappingProxyType(dict(self.entries))

    @derived
    def symmetries(self) -> tuple[MobiusMap, ...] | None:
        """The typed Moebius symmetry group: ``labelled_symmetries`` of the entries."""
        return labelled_symmetries(self.entries)

    def fiber_at(self, point: BasePoint) -> KodairaFiber | None:
        return self.fiber_map.get(point)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class EllipticSurface(Value, compare=("config", "has_section"), defaults=(False, "")):
    """A relatively minimal elliptic surface over P^1.

    Construction enforces the necessary shape of such a fibration: the Euler
    number is a positive multiple of 12, and a surface with a section carries
    no multiple fibers.  ``has_section`` is a bool; the ``name`` is a string
    label only and never participates in equality.
    """

    __slots__ = ("config", "has_section", "name")

    def __post_init__(self) -> None:
        if type(self.has_section) is not bool or type(self.name) is not str:
            raise TypeError("has_section must be a bool and name a string")
        if self.has_section:
            for point, fiber in self.config:
                if fiber.multiplicity > 1:
                    raise MultiplicityError(
                        f"surface with a section cannot carry the multiple fiber at {point}"
                    )
        if self.config.euler_number == 0:
            raise DegenerateSurfaceError(
                "Euler number 0 means a fiber bundle, not an elliptic surface with singular fibers"
            )
        self.config._chi  # raises NotEllipticError unless 12 divides e


class KodairaDimension(Enum):
    MINUS_INFINITY = "-inf"
    ZERO = "0"
    ONE = "1"


def _config_of(obj) -> MarkedConfig:
    if obj.__class__ is MarkedConfig:
        return obj
    # One read serves both surface types (a twisted one's ``config`` is a property).
    config = getattr(obj, "config", obj)
    if isinstance(config, MarkedConfig):
        return config
    raise TypeError(f"expected a surface or marked configuration, got {type(obj).__name__}")


def euler_number(obj) -> int:
    """Topological Euler number: the sum of the marked fibers' contributions.

    Derived once per configuration and cached, like every reader below.
    """
    return _config_of(obj).euler_number


def chi(obj) -> int:
    """chi(O) = e / 12 for a relatively minimal elliptic surface over P^1.

    Derived once per configuration and cached; raises ``NotEllipticError``,
    on every read, when 12 does not divide e.
    """
    return _config_of(obj)._chi


def canonical_degree(obj) -> Fraction:
    """Degree of the canonical bundle along the base, as an exact rational.

    The canonical bundle formula over P^1 gives
    deg K = -2 + chi + sum over multiple fibers of (1 - 1/m),
    derived once per configuration and cached.
    """
    return _config_of(obj)._canonical_degree


def kodaira_dimension(obj) -> KodairaDimension:
    """Sign of the canonical degree: negative, zero, or positive."""
    numerator = _config_of(obj)._canonical_degree.numerator
    if numerator < 0:
        return KodairaDimension.MINUS_INFINITY
    return KodairaDimension.ZERO if numerator == 0 else KodairaDimension.ONE


def is_rational(obj) -> bool:
    """Rational iff chi(O) = 1 and deg K < 0 (negative Kodaira dimension)."""
    config = _config_of(obj)
    return config._chi == 1 and config._canonical_degree.numerator < 0


def aut_floor(obj) -> int:
    """The least automorphism bound a partner count over this Jacobian may use.

    It bounds the order of the automorphism group of the generic fiber that
    fixes the zero section: the least cap over the marked fibers.  An I(n)
    or I*(n) fiber with n >= 1 is a pole of j, so j varies and the group is
    {+1, -1}: 2.  A fiber whose ``fiber.kind.constant_j_aut`` is set forces j
    and caps the order at that value; any other fiber allows order 6.
    Derived once per configuration and cached.
    """
    return _config_of(obj)._aut_floor


def surface_doc(surface: EllipticSurface) -> dict:
    """Canonical JSON-ready document for a surface."""
    return {
        "name": surface.name,
        "has_section": surface.has_section,
        "fibers": [
            {
                "point": str(point),
                "kind": fiber.token(),
                "multiplicity": fiber.multiplicity,
            }
            for point, fiber in surface.config
        ],
    }


def surface_from_doc(doc: dict) -> EllipticSurface:
    """Rebuild a surface from its document, re-validating every invariant.

    Extra keys are ignored so documents enriched with invariants round-trip.
    """
    try:
        name = doc.get("name", "")
        if not isinstance(name, str):
            raise TypeError("name must be a string")
        has_section = doc["has_section"]
        raw_fibers = doc["fibers"]
        if not isinstance(has_section, bool) or not isinstance(raw_fibers, list):
            raise TypeError("has_section must be a boolean and fibers a list")
        entries = []
        for item in raw_fibers:
            point = BasePoint.parse(item["point"])
            multiplicity = item.get("multiplicity", 1)
            if not isinstance(multiplicity, int) or isinstance(multiplicity, bool):
                raise TypeError("multiplicity must be an integer")
            entries.append((point, KodairaFiber.from_token(item["kind"], multiplicity)))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InvalidDocumentError(f"malformed surface document: {exc}") from exc
    return EllipticSurface(MarkedConfig(entries), has_section=has_section, name=name)
