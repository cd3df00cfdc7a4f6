"""Kodaira fiber types and their per-type constants.

Carries the two tables every higher layer consumes: the topological Euler
contribution of each degenerate fiber, and the local twist group
H_1(fiber, Q/Z), where a logarithmic transformation may act, as the type of
its elements (``QZPair``, ``QZ``, or ``None`` where the group is trivial).
"""

from __future__ import annotations

import re
from enum import Enum

from .errors import MultiplicityError
from .qz import QZ, QZPair
from .value import Value


class FiberKind(Enum):
    SMOOTH = "smooth"
    I = "I"
    I_STAR = "I*"
    II = "II"
    III = "III"
    IV = "IV"
    II_STAR = "II*"
    III_STAR = "III*"
    IV_STAR = "IV*"


# Euler numbers at index 0; an indexed kind adds its index n.
_EULER_AT_ZERO = {
    FiberKind.SMOOTH: 0,
    FiberKind.I: 0,
    FiberKind.I_STAR: 6,
    FiberKind.II: 2,
    FiberKind.III: 3,
    FiberKind.IV: 4,
    FiberKind.II_STAR: 10,
    FiberKind.III_STAR: 9,
    FiberKind.IV_STAR: 8,
}


# Local twist group of the multiplicative kinds, as the type of its elements;
# every kind missing here is additive, with a trivial local twist group.
_TWIST_GROUP = {FiberKind.SMOOTH: QZPair, FiberKind.I: QZ}

# Token grammar: I(n) and I*(n) carry an index in ASCII digits; every other
# kind is its bare value, and I0 also names the smooth kind.
_INDEXED_RE = re.compile(r"(I\*?)\(([0-9]+)\)")
_PLAIN_TOKENS = {
    kind.value: kind for kind in FiberKind if kind not in (FiberKind.I, FiberKind.I_STAR)
} | {"I0": FiberKind.SMOOTH}


class KodairaFiber(Value):
    """A fiber type tag together with a multiplicity m >= 1.

    ``index`` is the n of the I(n) / I*(n) families and must be 0 for every
    other kind.  Multiple fibers (m > 1) exist only for Smooth and I(n)
    reductions; additive types never occur with multiplicity on a relatively
    minimal elliptic surface and are rejected here.
    """

    __slots__ = ("kind", "index", "multiplicity")

    def __init__(self, kind: FiberKind, index: int = 0, multiplicity: int = 1) -> None:
        if type(index) is not int or type(multiplicity) is not int:
            raise TypeError("fiber index and multiplicity must be integers")
        if multiplicity < 1:
            raise MultiplicityError("fiber multiplicity must be >= 1")
        if kind is FiberKind.I:
            if index < 1:
                raise ValueError("I(n) requires n >= 1; use the smooth kind for n = 0")
        elif kind is FiberKind.I_STAR:
            if index < 0:
                raise ValueError("I*(n) requires n >= 0")
        elif index != 0:
            raise ValueError(f"kind {kind.value} carries no index")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "multiplicity", multiplicity)
        if multiplicity > 1 and kind not in _TWIST_GROUP:
            raise MultiplicityError(
                f"multiple fibers of additive type {self.token()} do not occur"
            )

    def token(self) -> str:
        """Canonical type token without the multiplicity, e.g. ``I*(0)``."""
        if self.kind is FiberKind.SMOOTH:
            return "I(0)"
        if self.kind in (FiberKind.I, FiberKind.I_STAR):
            return f"{self.kind.value}({self.index})"
        return self.kind.value

    @classmethod
    def from_token(cls, token: str, multiplicity: int = 1) -> "KodairaFiber":
        token = token.strip()
        match = _INDEXED_RE.fullmatch(token)
        if match is not None:
            kind, n = FiberKind(match[1]), int(match[2])
            if kind is FiberKind.I and n == 0:
                return cls(FiberKind.SMOOTH, 0, multiplicity)
            return cls(kind, n, multiplicity)
        kind = _PLAIN_TOKENS.get(token)
        if kind is None:
            raise ValueError(f"unknown Kodaira fiber token {token!r}")
        return cls(kind, 0, multiplicity)


def euler_contribution(fiber: KodairaFiber) -> int:
    """Topological Euler number of the fiber; independent of multiplicity."""
    return _EULER_AT_ZERO[fiber.kind] + fiber.index


def local_twist_group(fiber: KodairaFiber) -> type[QZPair] | type[QZ] | None:
    """H_1(fiber, Q/Z) for a non-multiple fiber, as the type of its elements.

    Smooth fibers are genus-one curves (``QZPair``), I(n) fibers are cycles of
    rational curves (``QZ``), additive fibers are simply connected trees
    (trivial, ``None``).  Twisting happens on a section-bearing surface, which
    has no multiple fibers, so m > 1 is a contract violation.
    """
    if fiber.multiplicity > 1:
        raise MultiplicityError("local twist group is defined for non-multiple fibers")
    return _TWIST_GROUP.get(fiber.kind)
