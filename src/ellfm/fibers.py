"""Kodaira fiber types.

Each ``FiberKind`` carries its row of Kodaira's table, and every per-kind
fact a higher layer reads is a column derived from that row: the Euler
number at index 0, the local twist group H_1(fiber, Q/Z), where a
logarithmic transformation may act, and the automorphism order at a kind
that forces a constant j.
"""

from __future__ import annotations

import re
from enum import Enum

from .errors import MultiplicityError
from .qz import QZ, QZPair
from .value import Value


class FiberKind(Enum):
    """A Kodaira fiber type, built from its row of Kodaira's table.

    A row is the kind's value, its least index (None for a kind that takes
    no index) and the minimal (ord a, ord b, ord Delta) of a Weierstrass
    model y^2 = x^3 + a x + b at index 0 (Silverman, AEC II, Table 4.1); the
    smooth kind adds its token text, ``I(0)``.  Each column is read off it:
    ``euler_at_zero`` is ord Delta (Ogg's formula), ``twist_group`` is
    ``QZPair`` at good reduction, ``QZ`` at multiplicative and ``None`` at
    additive reduction (a and b both vanish), and ``constant_j_aut`` is 6
    where 3 ord a > ord Delta forces j = 0, 4 where 2 ord b > ord Delta
    forces j = 1728, else None.
    """

    SMOOTH = "smooth", None, 0, 0, 0, "I(0)"
    I = "I", 1, 0, 0, 0
    I_STAR = "I*", 0, 2, 3, 6
    II = "II", None, 1, 1, 2
    III = "III", None, 1, 2, 3
    IV = "IV", None, 2, 2, 4
    II_STAR = "II*", None, 4, 5, 10
    III_STAR = "III*", None, 3, 5, 9
    IV_STAR = "IV*", None, 3, 4, 8

    def __new__(cls, value, least_index, ord_a, ord_b, ord_delta, text=None):
        kind = object.__new__(cls)
        kind._value_, kind.text, kind.least_index = value, text or value, least_index
        kind.euler_at_zero = ord_delta
        # Additive where a and b both vanish; else Delta vanishes at the least index iff multiplicative.
        kind.twist_group = None if ord_a and ord_b else QZ if ord_delta + (least_index or 0) else QZPair
        kind.constant_j_aut = 6 if 3 * ord_a > ord_delta else 4 if 2 * ord_b > ord_delta else None
        return kind

    # Members are singletons that compare by identity, so the identity hash
    # agrees with ==; it runs in C, where Enum's hashes the name in Python.
    __hash__ = object.__hash__


# Token grammar: I(n) and I*(n) carry an index in ASCII digits; every other
# kind is its bare value, and I0 also names the smooth kind.
_INDEXED_RE = re.compile(r"(I\*?)\(([0-9]+)\)")
_PLAIN_TOKENS = {kind.value: kind for kind in FiberKind if kind.least_index is None} | {"I0": FiberKind.SMOOTH}


class KodairaFiber(Value, defaults=(0, 1)):
    """A fiber type tag together with a multiplicity m >= 1.

    ``__post_init__`` checks the fields.  ``kind`` is a ``FiberKind``, else
    ``TypeError``.  ``index`` is the n of the I(n) /
    I*(n) families and must be 0 for every other kind; it and the multiplicity
    are ``int``, never ``bool``.  Multiple fibers (m > 1) exist only for Smooth
    and I(n) reductions; additive types never occur with multiplicity on a
    relatively minimal elliptic surface and are rejected.
    """

    __slots__ = ("kind", "index", "multiplicity")

    def __post_init__(self) -> None:
        kind, index, multiplicity = self.kind, self.index, self.multiplicity
        if kind.__class__ is not FiberKind:
            raise TypeError(f"fiber kind must be a FiberKind, got {kind!r}")
        if type(index) is not int or type(multiplicity) is not int:
            raise TypeError("fiber index and multiplicity must be integers")
        if multiplicity < 1:
            raise MultiplicityError("fiber multiplicity must be >= 1")
        least = kind.least_index
        if least is None:
            if index != 0:
                raise ValueError(f"kind {kind.value} carries no index")
        elif index < least:
            hint = "; use the smooth kind for n = 0" if least else ""
            raise ValueError(f"{kind.value}(n) requires n >= {least}{hint}")
        if multiplicity > 1 and kind.twist_group is None:
            raise MultiplicityError(
                f"multiple fibers of additive type {self.token()} do not occur"
            )

    def token(self) -> str:
        """Canonical type token without the multiplicity, e.g. ``I*(0)``."""
        kind = self.kind
        if kind.least_index is None:
            return kind.text
        return f"{kind.text}({self.index})"

    @classmethod
    def from_token(cls, token: str, multiplicity: int = 1) -> "KodairaFiber":
        token = token.strip()
        match = _INDEXED_RE.fullmatch(token)
        if match is not None:
            kind, n = FiberKind(match[1]), int(match[2])
            if n < kind.least_index:  # I(0), below I's least index, is the smooth kind
                return cls(FiberKind.SMOOTH, 0, multiplicity)
            return cls(kind, n, multiplicity)
        kind = _PLAIN_TOKENS.get(token)
        if kind is None:
            raise ValueError(f"unknown Kodaira fiber token {token!r}")
        return cls(kind, 0, multiplicity)


def euler_contribution(fiber: KodairaFiber) -> int:
    """Topological Euler number of the fiber; independent of multiplicity."""
    return fiber.kind.euler_at_zero + fiber.index


def local_twist_group(fiber: KodairaFiber) -> type[QZPair] | type[QZ] | None:
    """H_1(fiber, Q/Z) for a non-multiple fiber, as the type of its elements.

    Smooth fibers are genus-one curves (``QZPair``), I(n) fibers are cycles of
    rational curves (``QZ``), additive fibers are simply connected trees
    (trivial, ``None``).  Twisting happens on a section-bearing surface, which
    has no multiple fibers, so m > 1 is a contract violation.
    """
    if fiber.multiplicity > 1:
        raise MultiplicityError("local twist group is defined for non-multiple fibers")
    return fiber.kind.twist_group
