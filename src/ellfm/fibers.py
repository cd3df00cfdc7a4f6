"""Kodaira fiber types and their per-type constants.

Carries the two tables every higher layer consumes: the topological Euler
contribution of each degenerate fiber, and the rank of the local twist group
H_1(fiber, Q/Z) that controls where a logarithmic transformation may act
(rank two over a smooth fiber, rank one over a cycle of rational curves,
trivial at the simply connected additive types).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import MultiplicityError

_I_RE = re.compile(r"^I\((\d+)\)$")
_ISTAR_RE = re.compile(r"^I\*\((\d+)\)$")


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


# Euler numbers of the non-parametric types; I(n) gives n and I*(n) gives n+6.
_EULER_FIXED = {
    FiberKind.SMOOTH: 0,
    FiberKind.II: 2,
    FiberKind.III: 3,
    FiberKind.IV: 4,
    FiberKind.II_STAR: 10,
    FiberKind.III_STAR: 9,
    FiberKind.IV_STAR: 8,
}


class LocalTwistRank(Enum):
    """Shape of the local twist group: (Q/Z)^2, Q/Z, or trivial."""

    TWO = 2
    ONE = 1
    ZERO = 0


# Local twist rank of the multiplicative kinds; every kind missing here is
# additive, with a trivial local twist group.
_TWIST_RANK = {FiberKind.SMOOTH: LocalTwistRank.TWO, FiberKind.I: LocalTwistRank.ONE}

# Kinds written as their bare value; the I(n) and I*(n) families carry an index.
_PLAIN_TOKENS = {
    kind.value: kind for kind in FiberKind if kind not in (FiberKind.I, FiberKind.I_STAR)
}


@dataclass(frozen=True)
class KodairaFiber:
    """A fiber type tag together with a multiplicity m >= 1.

    ``index`` is the n of the I(n) / I*(n) families and must be 0 for every
    other kind.  Multiple fibers (m > 1) exist only for Smooth and I(n)
    reductions; additive types never occur with multiplicity on a relatively
    minimal elliptic surface and are rejected here.
    """

    kind: FiberKind
    index: int = 0
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.index, int) or not isinstance(self.multiplicity, int):
            raise TypeError("fiber index and multiplicity must be integers")
        if self.multiplicity < 1:
            raise MultiplicityError("fiber multiplicity must be >= 1")
        if self.kind is FiberKind.I:
            if self.index < 1:
                raise ValueError("I(n) requires n >= 1; use the smooth kind for n = 0")
        elif self.kind is FiberKind.I_STAR:
            if self.index < 0:
                raise ValueError("I*(n) requires n >= 0")
        elif self.index != 0:
            raise ValueError(f"kind {self.kind.value} carries no index")
        if self.multiplicity > 1 and self.kind not in _TWIST_RANK:
            raise MultiplicityError(
                f"multiple fibers of additive type {self.token()} do not occur"
            )

    def token(self) -> str:
        """Canonical type token without the multiplicity, e.g. ``I*(0)``."""
        if self.kind is FiberKind.SMOOTH:
            return "I(0)"
        if self.kind is FiberKind.I:
            return f"I({self.index})"
        if self.kind is FiberKind.I_STAR:
            return f"I*({self.index})"
        return self.kind.value

    def __str__(self) -> str:
        if self.multiplicity == 1:
            return self.token()
        return f"{self.multiplicity}*{self.token()}"

    @classmethod
    def from_token(cls, token: str, multiplicity: int = 1) -> "KodairaFiber":
        token = token.strip()
        if token == "I0":
            return cls(FiberKind.SMOOTH, 0, multiplicity)
        match = _I_RE.match(token)
        if match is not None:
            n = int(match.group(1))
            if n == 0:
                return cls(FiberKind.SMOOTH, 0, multiplicity)
            return cls(FiberKind.I, n, multiplicity)
        match = _ISTAR_RE.match(token)
        if match is not None:
            return cls(FiberKind.I_STAR, int(match.group(1)), multiplicity)
        kind = _PLAIN_TOKENS.get(token)
        if kind is None:
            raise ValueError(f"unknown Kodaira fiber token {token!r}")
        return cls(kind, 0, multiplicity)


def euler_contribution(fiber: KodairaFiber) -> int:
    """Topological Euler number of the fiber; independent of multiplicity."""
    if fiber.kind is FiberKind.I:
        return fiber.index
    if fiber.kind is FiberKind.I_STAR:
        return fiber.index + 6
    return _EULER_FIXED[fiber.kind]


def local_twist_group(fiber: KodairaFiber) -> LocalTwistRank:
    """Rank of H_1(fiber, Q/Z) for a non-multiple fiber.

    Smooth fibers are genus-one curves (rank two), I(n) fibers are cycles of
    rational curves (rank one), additive fibers are simply connected trees
    (trivial).  Twisting happens on a section-bearing surface, which has no
    multiple fibers, so m > 1 is a contract violation.
    """
    if fiber.multiplicity > 1:
        raise MultiplicityError("local twist group is defined for non-multiple fibers")
    return _TWIST_RANK.get(fiber.kind, LocalTwistRank.ZERO)
