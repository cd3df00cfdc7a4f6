"""Points of the projective line over Q and exact Moebius transformations.

Points are primitive integer pairs [num : den] with den >= 0; infinity is
[1 : 0].  A Moebius map is an invertible integer matrix up to sign, acting on
homogeneous coordinates, so composing, inverting and applying maps never
leaves exact arithmetic.  Canonical scaling (content 1, first nonzero entry
positive) makes maps directly comparable and hashable.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .value import Value

_POINT_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def reduce_pair(num: int, den: int) -> tuple[int, int]:
    """The reduced coordinates of [num : den]: den >= 0, gcd 1, infinity (1, 0).

    ``BasePoint`` stores exactly these, so two integer pairs name the same
    point iff they reduce to the same tuple.
    """
    if den == 0:
        if num == 0:
            raise ValueError("(0 : 0) is not a point of P^1")
        return (1, 0)
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return (num // g, den // g)


def zero_one_inf_entries(
    z1: tuple[int, int], z2: tuple[int, int], z3: tuple[int, int]
) -> tuple[int, int, int, int]:
    """Raw integer entries of a matrix sending [z1], [z2], [z3] to 0, 1, inf.

    The z are (num, den) pairs of three distinct points.  In homogeneous
    coordinates M([p:q]) = [cross(z, z1) * k1 : cross(z, z3) * k2] with
    k1 = cross(z2, z3), k2 = cross(z2, z1), which covers the infinite cases
    without branching.  The entries are not scaled to canonical form.
    """
    (n1, d1), (n2, d2), (n3, d3) = z1, z2, z3
    k1 = n2 * d3 - n3 * d2
    k2 = n2 * d1 - n1 * d2
    return (d1 * k1, -n1 * k1, d3 * k2, -n3 * k2)


class BasePoint(Value):
    """A point of P^1(Q) in reduced homogeneous coordinates."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1) -> None:
        if not isinstance(num, int) or not isinstance(den, int):
            raise TypeError("BasePoint coordinates must be integers")
        num, den = reduce_pair(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def infinity(cls) -> "BasePoint":
        return cls(1, 0)

    @classmethod
    def from_rational(cls, value) -> "BasePoint":
        frac = Fraction(value)
        return cls(frac.numerator, frac.denominator)

    @classmethod
    def parse(cls, text: str) -> "BasePoint":
        """Read ``a``, ``a/b`` (ASCII digits, optional leading minus) or ``inf``."""
        text = text.strip()
        if text in ("inf", "infinity", "oo"):
            return cls.infinity()
        match = _POINT_RE.fullmatch(text)
        if match is None:
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        num, den = int(match[1]), int(match[2] or 1)
        if den == 0:
            raise ValueError(f"zero denominator in point {text!r}")
        return cls(num, den)

    @property
    def is_infinity(self) -> bool:
        return self.den == 0

    @property
    def value(self) -> Fraction | None:
        """The affine coordinate, or None for the point at infinity."""
        if self.is_infinity:
            return None
        return Fraction(self.num, self.den)

    def sort_key(self) -> "BasePoint":
        """The point itself: points sort by value, infinity last (``__lt__``)."""
        return self

    def __lt__(self, other: "BasePoint") -> bool:
        """num * den' < num' * den, exact since finite dens are positive;
        infinity, the one point with den 0, is last."""
        if not isinstance(other, BasePoint):
            return NotImplemented
        if self.den == 0 or other.den == 0:
            return other.den < self.den
        return self.num * other.den < other.num * self.den

    def __str__(self) -> str:
        if self.is_infinity:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"


class MobiusMap(Value):
    """z -> (a z + b) / (c z + d) with integer entries and a d - b c != 0."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        self.__post_init__()

    def __post_init__(self) -> None:
        entries = (self.a, self.b, self.c, self.d)
        if any(not isinstance(x, int) for x in entries):
            raise TypeError("MobiusMap entries must be integers")
        if self.a * self.d - self.b * self.c == 0:
            raise ValueError("degenerate matrix does not define a Moebius map")
        g = math.gcd(*entries)
        scaled = tuple(x // g for x in entries)
        if next(x for x in scaled if x != 0) < 0:
            scaled = tuple(-x for x in scaled)
        for name, value in zip("abcd", scaled):
            object.__setattr__(self, name, value)

    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls(1, 0, 0, 1)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __call__(self, point: BasePoint) -> BasePoint:
        return BasePoint(
            self.a * point.num + self.b * point.den,
            self.c * point.num + self.d * point.den,
        )

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """self after other (matrix product self * other)."""
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    @classmethod
    def to_zero_one_inf(cls, z1: BasePoint, z2: BasePoint, z3: BasePoint) -> "MobiusMap":
        """The unique map sending (z1, z2, z3) to (0, 1, inf); see ``zero_one_inf_entries``."""
        if len({z1, z2, z3}) != 3:
            raise ValueError("the three source points must be distinct")
        return cls(*zero_one_inf_entries((z1.num, z1.den), (z2.num, z2.den), (z3.num, z3.den)))

    @classmethod
    def through_triples(
        cls,
        source: tuple[BasePoint, BasePoint, BasePoint],
        target: tuple[BasePoint, BasePoint, BasePoint],
    ) -> "MobiusMap":
        """The unique map with source[k] -> target[k] for k = 0, 1, 2."""
        return cls.to_zero_one_inf(*target).inverse().compose(cls.to_zero_one_inf(*source))
