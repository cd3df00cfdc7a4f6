"""Points of the projective line over Q, exact Moebius transformations and
the typed symmetry search over them.

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


# The largest prime below 2^30, 2^30 - 35: on 64-bit CPython each residue is
# one 30-bit digit and the product of two fits in two.
SIGNATURE_PRIME = 1073741789


def moment_signatures(pairs: list[tuple[int, int]]) -> list[int | None]:
    """A Moebius invariant of each point of a set, reduced modulo P = SIGNATURE_PRIME.

    The map z -> (x . z) / cross(z, x), a dot product over a cross product of
    coordinates, sends the point x to infinity and the others to affine
    values u; any other such map differs by u -> alpha u + beta, which scales
    the centred moments m2, m3 of the u by alpha^2 and alpha^3.  So
    [m3^2 : m2^3] depends on x alone, and a Moebius map g of the set onto
    itself keeps it: sigma(g(x)) = sigma(x).  The signature is
    m3^2 / m2^3 mod P (P itself where m2^3 vanishes), or None, "unknown",
    where a second point meets x mod P or both coordinates vanish mod P.
    Where alpha is not a unit mod P both sides are unknown, so the size of P
    bears only on accidental coincidences, about n^2 / P per set; P sits
    below 2^30 so that every residue is a single machine digit.
    The dot product is symmetric and the cross antisymmetric, so x seen from y
    is -u where y seen from x is u: one inversion serves both points of a pair.
    Those inversions stay one per pair, since the crosses of small
    coordinates invert quickly; the finish inverts every nonzero bottom
    m2^3 at once with one inversion and prefix products (Montgomery 1987).
    """
    P = SIGNATURE_PRIME
    reduced = [(num % P, den % P) for num, den in pairs]
    k = len(reduced) - 1
    sums1, sums2, sums3, met = [0] * (k + 1), [0] * (k + 1), [0] * (k + 1), [False] * (k + 1)
    for i, (a, b) in enumerate(reduced):
        for j, (p, q) in enumerate(reduced[i + 1 :], i + 1):
            cross = (p * b - a * q) % P
            if not cross:
                met[i] = met[j] = True
                continue
            u = (a * p + b * q) * pow(cross, -1, P) % P
            u2 = u * u % P
            u3 = u2 * u
            sums1[i], sums2[i], sums3[i] = sums1[i] + u, sums2[i] + u2, sums3[i] + u3
            sums1[j], sums2[j], sums3[j] = sums1[j] - u, sums2[j] + u2, sums3[j] - u3
    signatures: list[int | None] = []
    batch = []  # (index, top, bottom, product of the earlier bottoms)
    product = 1
    for m, (s1, s2, s3, meets) in enumerate(zip(sums1, sums2, sums3, met)):
        m2 = (k * s2 - s1 * s1) % P  # k^2 m2
        m3 = (k * k * s3 - 3 * k * s1 * s2 + 2 * s1**3) % P  # k^3 m3
        top, bottom = m3 * m3 % P, m2 * m2 % P * m2 % P
        if meets or not (top or bottom):
            signatures.append(None)
        elif not bottom:
            signatures.append(P)
        else:
            signatures.append(None)  # set below, once the batch is inverted
            batch.append((m, top, bottom, product))
            product = product * bottom % P
    inverse = pow(product, -1, P)  # of every bottom in the batch so far
    for m, top, bottom, before in reversed(batch):
        signatures[m] = top * before % P * inverse % P
        inverse = inverse * bottom % P
    return signatures


class BasePoint(Value, defaults=(1,)):
    """A point of P^1(Q) in reduced homogeneous coordinates."""

    __slots__ = ("num", "den")

    def __post_init__(self) -> None:
        if type(self.num) is not int or type(self.den) is not int:
            raise TypeError("BasePoint coordinates must be integers")
        num, den = reduce_pair(self.num, self.den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def infinity(cls) -> "BasePoint":
        return cls(1, 0)

    @classmethod
    def from_rational(cls, value: int | Fraction) -> "BasePoint":
        if type(value) is not int and not isinstance(value, Fraction):
            raise TypeError("BasePoint.from_rational takes an int or a Fraction")
        return cls(value.numerator, value.denominator)

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
    """z -> (a z + b) / (c z + d) with integer entries and a d - b c != 0.

    The entries are stored divided by their gcd, with the sign that makes the
    first nonzero of a, b positive (not both are 0, as the determinant is
    nonzero), so equal maps have equal entries.
    """

    __slots__ = ("a", "b", "c", "d")

    def __post_init__(self) -> None:
        a, b, c, d = self.a, self.b, self.c, self.d
        if not (type(a) is int and type(b) is int and type(c) is int and type(d) is int):
            raise TypeError("MobiusMap entries must be integers")
        if a * d == b * c:
            raise ValueError("degenerate matrix does not define a Moebius map")
        g = math.gcd(a, b, c, d)
        if (a or b) < 0:
            g = -g
        if g != 1:
            object.__setattr__(self, "a", a // g)
            object.__setattr__(self, "b", b // g)
            object.__setattr__(self, "c", c // g)
            object.__setattr__(self, "d", d // g)

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
    def through_triples(
        cls,
        source: tuple[BasePoint, BasePoint, BasePoint],
        target: tuple[BasePoint, BasePoint, BasePoint],
    ) -> "MobiusMap":
        """The unique map with source[k] -> target[k] for k = 0, 1, 2.

        With S and T the raw ``zero_one_inf_entries`` of the two triples, the
        map is T^-1 S, a scalar multiple of adj(T) S.  That product is formed
        in integers and one map is built from it.  det(adj(T) S) = det(T)
        det(S) vanishes exactly when a triple repeats a point.
        """
        z1, z2, z3 = source
        sa, sb, sc, sd = zero_one_inf_entries((z1.num, z1.den), (z2.num, z2.den), (z3.num, z3.den))
        z1, z2, z3 = target
        ta, tb, tc, td = zero_one_inf_entries((z1.num, z1.den), (z2.num, z2.den), (z3.num, z3.den))
        try:
            return cls(td * sa - tb * sc, td * sb - tb * sd, ta * sc - tc * sa, ta * sd - tc * sb)
        except ValueError:
            raise ValueError("the three source points must be distinct") from None


def labelled_symmetries(entries) -> tuple[MobiusMap, ...] | None:
    """Find every Moebius transformation preserving a typed marked set.

    ``entries`` holds (BasePoint, label) pairs at distinct points, with any
    hashable labels.  Below three points a positive-dimensional family always
    remains and the result is None; otherwise it is the group, sorted by
    ``MobiusMap.entries``.

    A Moebius map is pinned down by the images of three points, so every
    symmetry sends one fixed source triple to a label-compatible target
    triple.  The source x1, x2, x3 is drawn from the rarest labels (a stable
    sort by label-class size, so ties keep entry order), which keeps the
    target triples few.  Labels become small integers, points their
    (num, den) pairs, and the source's (0, 1, inf) normal form N maps the
    whole marked set once, into a dict from reduced pairs to labels.  Each
    target triple y costs only its raw normal-form matrix T: the map T^-1 N
    is a symmetry iff T carries every marked point onto a key of that dict
    with the same label, an O(n) test on ints and tuples that stops at the
    first miss.  Each triple that passes costs one ``MobiusMap`` build.
    On a single label there are n(n-1)(n-2) target triples, but a finite
    subgroup of PGL2(Q) has order at most 12.  So when the distinct triples
    the loops visit outnumber 2 n^2, each point first gets its
    ``moment_signatures`` entry: a symmetry g keeps the set and sends x to
    g(x), so sigma(g(x)) = sigma(x) over Q and hence mod P.  Only targets
    whose signature equals the source point's, or where either is unknown,
    are kept, so the filter never drops a symmetry; the exact test decides.
    The signatures cost n(n-1)/2 + 1 inversions of one-digit residues
    modulo SIGNATURE_PRIME and a rejected triple most often fails within its
    first few points, so the filter pays only beyond a constant times n^2
    triples; 2 is that constant, measured.
    """
    if len(entries) < 3:
        return None
    label_ids: dict = {}
    marked = [(p.num, p.den, label_ids.setdefault(label, len(label_ids))) for p, label in entries]
    classes: dict[int, list] = {}
    for (point, _), (num, den, label) in zip(entries, marked):
        classes.setdefault(label, []).append((point, (num, den)))
    i, j, k = sorted(range(len(marked)), key=lambda m: len(classes[marked[m][2]]))[:3]
    source = (entries[i][0], entries[j][0], entries[k][0])
    a, b, c, d = zero_one_inf_entries(marked[i][:2], marked[j][:2], marked[k][:2])
    normal = {reduce_pair(a * num + b * den, c * num + d * den): label for num, den, label in marked}
    targets = [classes[marked[m][2]] for m in (i, j, k)]
    distinct = math.prod(len(ys) - sum(ys is zs for zs in targets[:m]) for m, ys in enumerate(targets))
    if distinct > 2 * len(marked) ** 2:
        pairs = [(num, den) for num, den, _ in marked]
        sig = dict(zip(pairs, moment_signatures(pairs)))
        targets = [
            [y for y in ys if sig[y[1]] == sig[pairs[m]] or None in (sig[y[1]], sig[pairs[m]])]
            for ys, m in zip(targets, (i, j, k))
        ]
    found = []
    for y1, z1 in targets[0]:
        for y2, z2 in targets[1]:
            if y2 is y1:
                continue
            for y3, z3 in targets[2]:
                if y3 is y1 or y3 is y2:
                    continue
                a, b, c, d = zero_one_inf_entries(z1, z2, z3)
                for num, den, label in marked:
                    if normal.get(reduce_pair(a * num + b * den, c * num + d * den)) != label:
                        break
                else:
                    found.append(MobiusMap.through_triples(source, (y1, y2, y3)))
    return tuple(sorted(found, key=MobiusMap.entries))
