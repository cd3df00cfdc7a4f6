"""Exact arithmetic in the torsion groups Q/Z and (Q/Z)^2.

Elements are kept as canonical reduced fractions a/m with 0 <= a < m and
gcd(a, m) = 1; zero is 0/1.  Everything is integer arithmetic, never floats,
so orders and orbits computed downstream are exact.  ``Torsion`` holds the
group law of both, and of the twist classes: ``+`` within one type, ``*`` by
an ``int`` only (a ``bool`` is refused), and ``-x`` is ``(-1) * x``.
"""

from __future__ import annotations

import math

from .value import Value


class Torsion(Value):
    """The group law, once: a subclass supplies ``_plus`` and ``_scaled``."""

    __slots__ = ()

    def __add__(self, other):
        return self._plus(other) if other.__class__ is self.__class__ else NotImplemented

    def __mul__(self, scalar: int):
        return self._scaled(scalar) if type(scalar) is int else NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return self._scaled(-1)


class QZ(Torsion, defaults=(0, 1)):
    """An element of Q/Z, stored as the reduced representative in [0, 1)."""

    __slots__ = ("numerator", "denominator")

    def __post_init__(self) -> None:
        if type(self.numerator) is not int or type(self.denominator) is not int:
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

    def _plus(self, other: "QZ") -> "QZ":
        return QZ(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def _scaled(self, scalar: int) -> "QZ":
        # Zero is kept as it is: every multiple of 0/1 is 0/1 itself.
        return QZ(scalar * self.numerator, self.denominator) if self.numerator else self

    def __bool__(self) -> bool:
        return self.numerator != 0

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


class QZPair(Torsion, defaults=(QZ(), QZ())):
    """An element of (Q/Z)^2: the torsion data attached to a smooth fiber.

    Both components are ``QZ`` values; anything else raises ``TypeError``.
    """

    __slots__ = ("first", "second")

    def __post_init__(self) -> None:
        if type(self.first) is not QZ or type(self.second) is not QZ:
            raise TypeError("QZPair components must be QZ values")

    @property
    def order(self) -> int:
        return math.lcm(self.first.denominator, self.second.denominator)

    def _plus(self, other: "QZPair") -> "QZPair":
        return QZPair(self.first + other.first, self.second + other.second)

    def _scaled(self, scalar: int) -> "QZPair":
        return QZPair(scalar * self.first, scalar * self.second)

    def __bool__(self) -> bool:
        return bool(self.first) or bool(self.second)

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"
