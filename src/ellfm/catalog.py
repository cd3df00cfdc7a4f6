"""Built-in singular-fiber configurations for rational elliptic surfaces
with a section.

Each entry records only the necessary numerical condition (Euler sum 12, all
multiplicities 1); realizability on an actual surface is provenance data, not
something this package re-proves.  Entries flagged ``CITED`` are known
configurations from the published classification of such fiber combinations
(Persson's list); ``EULER_CHECKED`` entries pass the numerical gate only.

Concrete base-point coordinates are a choice made here so that symmetry
computations run in exact rational arithmetic; only the multiset of fiber
types is intrinsic.
"""

from __future__ import annotations

from enum import Enum

from .errors import UnknownEntryError
from .fibers import KodairaFiber
from .projective import BasePoint
from .surface import EllipticSurface, MarkedConfig
from .value import Value


class Provenance(Enum):
    CITED = "cited"
    EULER_CHECKED = "euler-checked"


class CatalogEntry(Value):
    __slots__ = ("name", "config", "provenance")

    def __init__(self, name: str, config: MarkedConfig, provenance: Provenance) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "provenance", provenance)

    @property
    def surface(self) -> EllipticSurface:
        """The section-bearing surface this configuration describes."""
        return EllipticSurface(self.config, has_section=True, name=self.name)


def _config(fibers: list[tuple[str, str]]) -> MarkedConfig:
    return MarkedConfig(
        (BasePoint.parse(point), KodairaFiber.from_token(token)) for point, token in fibers
    )


DEFAULT_ENTRY = "persson-III*-I2-I1"

_ENTRIES: dict[str, CatalogEntry] = {}


def _register(name: str, provenance: Provenance, fibers: list[tuple[str, str]]) -> None:
    _ENTRIES[name] = CatalogEntry(name, _config(fibers), provenance)


_register(
    DEFAULT_ENTRY,
    Provenance.CITED,
    [("0", "III*"), ("1", "I(2)"), ("inf", "I(1)")],
)
_register(
    "twelve-I1",
    Provenance.EULER_CHECKED,
    [(str(k), "I(1)") for k in range(12)],
)
_register(
    "II*-I1-I1",
    Provenance.EULER_CHECKED,
    [("0", "II*"), ("1", "I(1)"), ("inf", "I(1)")],
)
_register(
    "IV*-IV",
    Provenance.EULER_CHECKED,
    [("0", "IV*"), ("1", "IV")],
)


def catalog_names() -> tuple[str, ...]:
    return tuple(_ENTRIES)


def catalog_list() -> tuple[CatalogEntry, ...]:
    return tuple(_ENTRIES.values())


def catalog_get(name: str) -> CatalogEntry:
    entry = _ENTRIES.get(name)
    if entry is None:
        known = ", ".join(_ENTRIES)
        raise UnknownEntryError(f"no catalog entry named {name!r} (known: {known})")
    return entry

