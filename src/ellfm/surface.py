"""Relatively minimal elliptic surfaces over P^1, given by marked fiber data.

A surface is a finite configuration of marked points on P^1(Q), each labelled
with a Kodaira fiber type, plus a flag recording whether the fibration has a
section.  All numerical invariants (Euler number, chi of the structure sheaf,
canonical degree, Kodaira dimension, rationality) are derived from that data
by the standard formulas for elliptic fibrations, in exact arithmetic.

Each configuration derives e, the multiplicities, chi, deg K and the number
of additive fibers at most once and caches them; the Kodaira dimension and
rationality are read off chi and deg K in O(1).  The cache lives on the
configuration alone and never takes part in its ``==``, ``hash`` or
``repr``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from enum import Enum
from fractions import Fraction
from functools import cached_property
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
from .projective import BasePoint
from .value import Value

Entry = tuple[BasePoint, KodairaFiber]


def _entry(entry) -> Entry:
    """An entry as a ``(BasePoint, KodairaFiber)`` tuple; anything else raises TypeError."""
    match entry:
        case (BasePoint(), KodairaFiber()):
            return tuple(entry)  # a tuple itself, so twisted configs share the base's entries
    raise TypeError("config entries must be (BasePoint, KodairaFiber) pairs")


class MarkedConfig(Value):
    """Distinct marked points on P^1, each carrying a fiber type.

    Unmarked points are implicitly smooth non-multiple fibers, so an entry of
    kind smooth with multiplicity 1 is redundant and rejected.  Entries are
    stored sorted by base point, which makes equality and serialization
    canonical; a point written twice shows up as two equal neighbours.

    The Euler number, the multiplicities, chi, deg K, the additive count and
    the point -> fiber map behind ``fiber_at`` are derived at most once per
    object, on first read, and cached in the instance's ``__dict__``; a read
    that raises caches nothing, so it raises again on the next read.  Only
    ``entries`` is a field: the cache never takes part in ``==``, ``hash``,
    ``repr`` or a pickle.
    """

    __slots__ = ("entries", "__dict__")

    def __init__(self, entries: Iterable[Entry] = ()) -> None:
        normalized = tuple(sorted(map(_entry, entries), key=lambda e: e[0].sort_key()))
        previous = None
        for point, fiber in normalized:
            if point == previous:
                raise DuplicatePointError(f"base point {point} marked twice")
            previous = point
            if fiber.kind is FiberKind.SMOOTH and fiber.multiplicity == 1:
                raise InvalidConfigError(
                    "a smooth non-multiple fiber is the unmarked default; do not mark it"
                )
        object.__setattr__(self, "entries", normalized)

    @property
    def points(self) -> tuple[BasePoint, ...]:
        return tuple(point for point, _ in self.entries)

    @cached_property
    def euler_number(self) -> int:
        return sum(euler_contribution(fiber) for _, fiber in self.entries)

    @cached_property
    def multiplicities(self) -> tuple[int, ...]:
        """Multiplicities of the multiple fibers, in point order."""
        return tuple(f.multiplicity for _, f in self.entries if f.multiplicity > 1)

    @cached_property
    def _chi(self) -> int:
        e = self.euler_number
        if e % 12 != 0:
            raise NotEllipticError(
                f"Euler number {e} is not a multiple of 12; no relatively minimal "
                "elliptic fibration over P^1 has this configuration"
            )
        return e // 12

    @cached_property
    def _canonical_degree(self) -> Fraction:
        # -2 + chi + sum(1 - 1/m) over the common denominator L = lcm(m).
        ms = self.multiplicities
        lcm = math.lcm(*ms)
        return Fraction((self._chi - 2 + len(ms)) * lcm - sum(lcm // m for m in ms), lcm)

    @cached_property
    def additive_count(self) -> int:
        """How many marked fibers are additive: trivial local twist group.

        Defined only without multiple fibers; otherwise ``local_twist_group``
        raises ``MultiplicityError``, on every read.
        """
        return sum(local_twist_group(f) is None for _, f in self.entries)

    @cached_property
    def fiber_map(self) -> Mapping[BasePoint, KodairaFiber]:
        """The marked points and their fibers, as a read-only dict."""
        return MappingProxyType(dict(self.entries))

    def fiber_at(self, point: BasePoint) -> KodairaFiber | None:
        return self.fiber_map.get(point)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class EllipticSurface(Value, compare=("config", "has_section")):
    """A relatively minimal elliptic surface over P^1.

    Construction enforces the necessary shape of such a fibration: the Euler
    number is a positive multiple of 12, and a surface with a section carries
    no multiple fibers.  ``has_section`` is a bool; the ``name`` is a string
    label only and never participates in equality.
    """

    __slots__ = ("config", "has_section", "name")

    def __init__(self, config: MarkedConfig, has_section: bool = False, name: str = "") -> None:
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "has_section", has_section)
        object.__setattr__(self, "name", name)
        self.__post_init__()

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
    if isinstance(obj, MarkedConfig):
        return obj
    config = getattr(obj, "config", None)
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
