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
from dataclasses import dataclass
from fractions import Fraction

_POINT_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


@dataclass(frozen=True)
class BasePoint:
    """A point of P^1(Q) in reduced homogeneous coordinates."""

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.num, int) or not isinstance(self.den, int):
            raise TypeError("BasePoint coordinates must be integers")
        num, den = self.num, self.den
        if num == 0 and den == 0:
            raise ValueError("(0 : 0) is not a point of P^1")
        if den == 0:
            num = 1
        else:
            if den < 0:
                num, den = -num, -den
            g = math.gcd(abs(num), den)
            num, den = num // g, den // g
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

    def sort_key(self) -> tuple[int, Fraction]:
        """Finite points in increasing order, infinity last."""
        if self.is_infinity:
            return (1, Fraction(0))
        return (0, Fraction(self.num, self.den))

    def __str__(self) -> str:
        if self.is_infinity:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"


def _cross(p: BasePoint, q: BasePoint) -> int:
    # Vanishes exactly when p == q.
    return p.num * q.den - q.num * p.den


@dataclass(frozen=True)
class MobiusMap:
    """z -> (a z + b) / (c z + d) with integer entries and a d - b c != 0."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        entries = (self.a, self.b, self.c, self.d)
        if any(not isinstance(x, int) for x in entries):
            raise TypeError("MobiusMap entries must be integers")
        if self.a * self.d - self.b * self.c == 0:
            raise ValueError("degenerate matrix does not define a Moebius map")
        g = math.gcd(math.gcd(abs(self.a), abs(self.b)), math.gcd(abs(self.c), abs(self.d)))
        scaled = tuple(x // g for x in entries)
        lead = next(x for x in scaled if x != 0)
        if lead < 0:
            scaled = tuple(-x for x in scaled)
        for name, value in zip("abcd", scaled):
            object.__setattr__(self, name, value)

    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls(1, 0, 0, 1)

    @property
    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

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

    def __matmul__(self, other: "MobiusMap") -> "MobiusMap":
        return self.compose(other)

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    @classmethod
    def to_zero_one_inf(cls, z1: BasePoint, z2: BasePoint, z3: BasePoint) -> "MobiusMap":
        """The unique map sending (z1, z2, z3) to (0, 1, inf).

        In homogeneous coordinates M([p:q]) = [cross(z, z1) * k1 : cross(z, z3) * k2]
        with k1 = cross(z2, z3), k2 = cross(z2, z1), which covers the infinite
        cases without branching.
        """
        if len({z1, z2, z3}) != 3:
            raise ValueError("the three source points must be distinct")
        k1 = _cross(z2, z3)
        k2 = _cross(z2, z1)
        return cls(z1.den * k1, -z1.num * k1, z3.den * k2, -z3.num * k2)

    @classmethod
    def through_triples(
        cls,
        source: tuple[BasePoint, BasePoint, BasePoint],
        target: tuple[BasePoint, BasePoint, BasePoint],
    ) -> "MobiusMap":
        """The unique map with source[k] -> target[k] for k = 0, 1, 2."""
        return cls.to_zero_one_inf(*target).inverse().compose(cls.to_zero_one_inf(*source))
