"""Exact arithmetic in the torsion groups Q/Z and (Q/Z)^2.

Elements are kept as canonical reduced fractions a/m with 0 <= a < m and
gcd(a, m) = 1; zero is 0/1.  Everything is integer arithmetic, never floats,
so orders and orbits computed downstream are exact.
"""

from __future__ import annotations

import math

from .value import Value


class QZ(Value, defaults=(0, 1)):
    """An element of Q/Z, stored as the reduced representative in [0, 1)."""

    __slots__ = ("numerator", "denominator")

    def __post_init__(self) -> None:
        if not isinstance(self.numerator, int) or not isinstance(self.denominator, int):
            raise TypeError("QZ components must be integers")
        if self.denominator <= 0:
            raise ValueError("QZ denominator must be positive")
        num = self.numerator % self.denominator
        g = math.gcd(num, self.denominator)
        object.__setattr__(self, "numerator", num // g)
        object.__setattr__(self, "denominator", self.denominator // g)

    @property
    def order(self) -> int:
        """Least n >= 1 with n * self = 0; equals the reduced denominator."""
        return self.denominator

    def __add__(self, other: "QZ") -> "QZ":
        if not isinstance(other, QZ):
            return NotImplemented
        return QZ(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __neg__(self) -> "QZ":
        return QZ(-self.numerator, self.denominator)

    def __mul__(self, scalar: int) -> "QZ":
        if not isinstance(scalar, int):
            return NotImplemented
        return QZ(scalar * self.numerator, self.denominator)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.numerator != 0

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


class QZPair(Value, defaults=(QZ(), QZ())):
    """An element of (Q/Z)^2: the torsion data attached to a smooth fiber."""

    __slots__ = ("first", "second")

    @property
    def order(self) -> int:
        return math.lcm(self.first.order, self.second.order)

    def __add__(self, other: "QZPair") -> "QZPair":
        if not isinstance(other, QZPair):
            return NotImplemented
        return QZPair(self.first + other.first, self.second + other.second)

    def __neg__(self) -> "QZPair":
        return QZPair(-self.first, -self.second)

    def __mul__(self, scalar: int) -> "QZPair":
        if not isinstance(scalar, int):
            return NotImplemented
        return QZPair(scalar * self.first, scalar * self.second)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.first) or bool(self.second)

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"
