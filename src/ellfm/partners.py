"""Fourier-Mukai partner enumeration and certified non-isomorphism counts.

For a twisted elliptic surface of nonzero Kodaira dimension, the derived
partners are exactly the relative Jacobian powers J^b with b coprime to the
multisection index lambda, so enumeration is index arithmetic.  Separating
the indices into genuinely non-isomorphic surfaces rests on two facts:

* rigidity: when the Jacobian's marked configuration admits no nontrivial
  Moebius symmetry, every isomorphism in the family acts trivially on the
  base, and

* the automorphism bound: an elliptic surface with a section has at most 6
  automorphisms over the base fixing the zero section, so at most 6 indices
  can share an isomorphism class.  The group always contains the fibrewise
  inversion, so its order is even: 2, 4 or 6.

Together these certify at least ceil(|I| / 6) distinct partners, with |I| =
phi(lambda).  The inversion action b -> lambda - b is the one symmetry that
is always present; its orbits are reported as candidate classes, not as a
certified classification.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property

from .catalog import DEFAULT_ENTRY, catalog_get
from .errors import KodairaZeroError, NotPrimeError, NotRigidError, PrimalityRangeError
from .projective import MobiusMap, reduce_pair, zero_one_inf_entries
from .qz import QZ, QZPair
from .surface import EllipticSurface, KodairaDimension, MarkedConfig, kodaira_dimension
from .twists import (
    TwistedSurface,
    default_twist_point,
    jacobian,
    relative_jacobian_power,
    twist,
    twist_class,
)
from .value import Value

AUT_BOUNDS = (2, 4, 6)


# Miller-Rabin over the first twelve prime bases is deterministic below
# psi_12 (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017; OEIS A014233).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic primality for n < 318665857834031151167461 (psi_12).

    Raises ``PrimalityRangeError`` at or above that limit, where the twelve
    bases no longer decide.
    """
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise PrimalityRangeError(f"primality is decided only below {_MR_LIMIT}, not for {n}")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _totient(n: int) -> int:
    """Euler's phi(n) from the factorization of n, with phi(1) taken as 0.

    Trial division stops as soon as the remaining cofactor is prime, so a
    prime n costs one primality test.  n at or above the limit of
    ``is_prime`` raises ``PrimalityRangeError``.
    """
    if n == 1:
        return 0
    phi = rest = n
    f = 2
    while rest > 1 and not is_prime(rest):
        while rest % f:
            f += 1 if f == 2 else 2
        phi -= phi // f
        while rest % f == 0:
            rest //= f
    if rest > 1:
        phi -= phi // rest
    return phi


def partner_indices(lam: int) -> tuple[int, ...]:
    """I = {b : 1 <= b < lambda, gcd(b, lambda) = 1}; empty for lambda = 1."""
    if lam < 1:
        raise ValueError("multisection index must be positive")
    return tuple(b for b in range(1, lam) if math.gcd(b, lam) == 1)


def enumerate_partners(twisted: TwistedSurface) -> list[TwistedSurface]:
    """All Fourier-Mukai partners of a twisted surface, up to isomorphism.

    Only valid away from Kodaira dimension zero, where the classification by
    relative Jacobian powers does not apply.  A surface of index 1 is its own
    unique partner within the family.
    """
    if kodaira_dimension(twisted) is KodairaDimension.ZERO:
        raise KodairaZeroError(
            "partner classification by Jacobian powers requires nonzero Kodaira dimension"
        )
    indices = partner_indices(twisted.multisection_index) or (0,)
    return [relative_jacobian_power(twisted, b) for b in indices]


class RigidityReport(Value):
    """Outcome of the typed Moebius symmetry search.

    ``symmetries`` lists the full (finite) group when at least three points
    are marked; with fewer marked points the stabilizer is a continuum and
    no group is materialized, so it is None.  The rest is derived: ``finite``
    says whether a group was found, ``order`` is its size, and ``rigid`` is
    ``order == 1``, since the search always finds the identity.
    """

    __slots__ = ("symmetries",)

    def __init__(self, symmetries: tuple[MobiusMap, ...] | None) -> None:
        object.__setattr__(self, "symmetries", symmetries)

    @property
    def finite(self) -> bool:
        return self.symmetries is not None

    @property
    def order(self) -> int | None:
        return len(self.symmetries) if self.finite else None

    @property
    def rigid(self) -> bool:
        return self.order == 1


def rigidity_check(config: MarkedConfig) -> RigidityReport:
    """Find every Moebius transformation preserving the typed marked set.

    A Moebius map is pinned down by the images of three points, so with at
    least three marked points every symmetry sends one fixed source triple
    to a label-compatible target triple.  The source x1, x2, x3 is drawn from
    the rarest labels (a stable sort by label-class size, so ties keep config
    order), which keeps the target triples few.  Its (0, 1, inf) normal form
    N maps the whole marked set once, into a dict from reduced pairs to
    labels.  Each of the O(n^3) label-compatible target triples y costs only
    its raw normal-form matrix T: the map T^-1 N is a symmetry iff T carries
    every marked point onto a key of that dict with the same label, an O(n)
    integer test that stops at the first miss.  A ``MobiusMap`` is built,
    through ``MobiusMap.through_triples``, only for the triples that pass.
    With fewer than three marked points a positive-dimensional family always
    remains and the configuration is never rigid.
    """
    if len(config) < 3:
        return RigidityReport(None)
    # Labels become small integers and points their (num, den) pairs, so the
    # inner test compares only ints and tuples.
    label_ids: dict = {}
    marked = [
        (point.num, point.den, label_ids.setdefault(fiber, len(label_ids))) for point, fiber in config
    ]
    classes: dict[int, list] = {}
    for (point, _), (num, den, label) in zip(config, marked):
        classes.setdefault(label, []).append((point, (num, den)))
    i, j, k = sorted(range(len(marked)), key=lambda m: len(classes[marked[m][2]]))[:3]
    source = (config.entries[i][0], config.entries[j][0], config.entries[k][0])
    a, b, c, d = zero_one_inf_entries(marked[i][:2], marked[j][:2], marked[k][:2])
    normal = {
        reduce_pair(a * num + b * den, c * num + d * den): label for num, den, label in marked
    }
    targets1, targets2, targets3 = (classes[marked[m][2]] for m in (i, j, k))
    found = []
    for y1, z1 in targets1:
        for y2, z2 in targets2:
            if y2 is y1:
                continue
            for y3, z3 in targets3:
                if y3 is y1 or y3 is y2:
                    continue
                a, b, c, d = zero_one_inf_entries(z1, z2, z3)
                for num, den, label in marked:
                    if normal.get(reduce_pair(a * num + b * den, c * num + d * den)) != label:
                        break
                else:
                    found.append(MobiusMap.through_triples(source, (y1, y2, y3)))
    found.sort(key=MobiusMap.entries)
    return RigidityReport(tuple(found))


class ClassificationMode(Enum):
    INVERSION = "inversion"
    BOUND = "bound"


class PartnerClassification(Value):
    """A partition of the partner index set with a certified lower bound.

    Only the inputs are stored, checked on construction (an int lambda >= 1,
    a ``ClassificationMode``, a bound in ``AUT_BOUNDS``); the rest is derived.
    ``index_count`` is |I| = phi(lambda) (0 for lambda = 1), from the
    factorization of lambda, and the sound bound ``lower_bound`` = max(1,
    ceil(|I| / aut_bound)) follows from it, so neither builds the index set.
    ``classes`` is built from ``partner_indices`` on first read and cached:
    in BOUND mode they are consecutive blocks of size at most the
    automorphism bound (the coarsest partition compatible with it); in
    INVERSION mode they are the orbits of b -> (lambda - b) mod lambda, which
    are candidate isomorphism classes only.  An index-1 surface has the
    single class (0,).  The cache lives in the instance's ``__dict__``.
    """

    __slots__ = ("multisection_index", "mode", "aut_bound", "__dict__")

    def __init__(self, multisection_index: int, mode: ClassificationMode, aut_bound: int) -> None:
        if type(multisection_index) is not int or multisection_index < 1:
            raise ValueError("multisection index must be a positive integer")
        if not isinstance(mode, ClassificationMode):
            raise TypeError("classification mode must be a ClassificationMode")
        if type(aut_bound) is not int or aut_bound not in AUT_BOUNDS:
            raise ValueError(f"automorphism bound must be one of {AUT_BOUNDS}")
        object.__setattr__(self, "multisection_index", multisection_index)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "aut_bound", aut_bound)

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        lam = self.multisection_index
        indices = partner_indices(lam) or (0,)
        if self.mode is ClassificationMode.INVERSION:
            # Each orbit is listed once, from its smaller member.
            return tuple(tuple(sorted({b, (lam - b) % lam})) for b in indices if 2 * b <= lam)
        k = self.aut_bound
        return tuple(indices[i : i + k] for i in range(0, len(indices), k))

    @cached_property
    def index_count(self) -> int:
        return _totient(self.multisection_index)

    @property
    def lower_bound(self) -> int:
        return max(1, -(-self.index_count // self.aut_bound))


def classify_partners(
    twisted: TwistedSurface,
    mode: ClassificationMode = ClassificationMode.BOUND,
    aut_bound: int = 6,
) -> PartnerClassification:
    """Classify the partner indices of a twisted surface.

    Refuses when the Jacobian's configuration is not rigid: without rigidity
    an isomorphism could move the base points and the counting argument says
    nothing.  The index set itself is not built here: the result's
    ``classes`` are derived when first read, and its count and bound never
    need them.  An index-1 surface yields the single trivial class.
    """
    classification = PartnerClassification(twisted.multisection_index, mode, aut_bound)
    if not rigidity_check(jacobian(twisted).config).rigid:
        raise NotRigidError(
            "the Jacobian's marked configuration admits nontrivial Moebius symmetries; "
            "the partner-counting argument is not certified"
        )
    return classification


def order_p_twist(base: EllipticSurface, p: int) -> TwistedSurface:
    """S(p): the twist of ``base`` by the class (1/p, 0) at its default twist point."""
    cls = twist_class(base, [(default_twist_point(base), QZPair(QZ(1, p), QZ()))])
    return twist(base, cls)


class CertificationVerdict(Value):
    """Result of the end-to-end partner-count certification for S(p).

    ``p`` is the multisection index of the classified twist.  ``certified``
    holds when the certified lower bound reaches the target; for prime p
    that is exactly p > 6(target - 1) + 1.
    """

    __slots__ = ("target", "classification")

    def __init__(self, target: int, classification: PartnerClassification) -> None:
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "classification", classification)

    @property
    def p(self) -> int:
        return self.classification.multisection_index

    @property
    def m_min(self) -> int:
        return self.classification.lower_bound

    @property
    def certified(self) -> bool:
        return self.m_min >= self.target

    @property
    def verdict(self) -> str:
        return "certified" if self.certified else "inconclusive"


def certify_partner_count(p: int, target: int) -> CertificationVerdict:
    """Certify that an order-p twist of the default base has at least
    ``target`` pairwise non-isomorphic Fourier-Mukai partners, when
    p > 6(target - 1) + 1.

    Runs the whole pipeline: decide that p is prime, build the order-p twist
    of the base at an unmarked point, confirm rigidity of the base
    configuration, and take the certified lower bound ceil((p-1)/6).  The
    twist is rational without a further check: the base gate of
    ``TwistClass`` gives chi = 1 and no multiple fibers, and the one fiber of
    multiplicity p leaves deg K = -1/p < 0.  The strict inequality is exactly
    the condition making that bound reach the target.  Nothing of size p is
    built, so the cost is polylogarithmic in p; p at or above the primality
    limit of ``is_prime`` raises ``PrimalityRangeError``.
    """
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if target < 1:
        raise ValueError("target class count must be a positive integer")
    twisted = order_p_twist(catalog_get(DEFAULT_ENTRY).surface, p)
    classification = classify_partners(twisted, ClassificationMode.BOUND, 6)
    return CertificationVerdict(target, classification)

