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
  inversion, so its order is even: 2, 4 or 6.  A bound below the Jacobian's
  ``surface.aut_floor`` (the least cap that ``fibers.CONSTANT_J_AUT`` and
  the poles of j put on it) is refused.

Together these certify at least ceil(|I| / 6) distinct partners, with |I| =
phi(lambda).  The inversion action b -> lambda - b is the one symmetry that
is always present; its orbits are reported as candidate classes, not as a
certified classification.
"""

from __future__ import annotations

import math
from enum import Enum

from .catalog import DEFAULT_ENTRY, catalog_get
from .errors import AutFloorError, KodairaZeroError, NotPrimeError, NotRigidError, PrimalityRangeError
from .qz import QZ, QZPair
from .surface import EllipticSurface, KodairaDimension, MarkedConfig, aut_floor, kodaira_dimension
from .twists import (
    TwistedSurface,
    default_twist_point,
    jacobian,
    relative_jacobian_power,
    twist,
    twist_class,
)
from .value import Value, derived

AUT_BOUNDS = (2, 4, 6)


# psi_k, the least strong pseudoprime to the first k prime bases, k = 1..12
# (Jaeschke, Math. Comp. 61, 1993; Sorenson & Webster, "Strong pseudoprimes
# to twelve prime bases", Math. Comp. 2017; OEIS A014233): Miller-Rabin over
# the first k bases decides every n < psi_k.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
    318665857834031151167461,
)
_MR_LIMIT = _MR_PSI[-1]
_MR_PRODUCT = math.prod(_MR_BASES)  # one gcd with it screens n for all twelve bases


def is_prime(n: int) -> bool:
    """Deterministic primality for n < 318665857834031151167461 (psi_12).

    One gcd with the product of the twelve bases screens out every n with a
    factor among them, which is prime iff it is a base.  Miller-Rabin then
    runs over the first k bases, k the least index with n < psi_k: one base
    below 2047, two below 1373653, all twelve only from 3825123056546413051
    on; s and d of n - 1 = d 2^s come from its lowest set bit.  Raises
    ``PrimalityRangeError`` at or above psi_12, where the twelve bases no
    longer decide, and ``TypeError`` for anything but an ``int`` (a ``bool``
    or a float such as 13.0 included).
    """
    if type(n) is not int:
        raise TypeError(f"primality is decided only for an int, not {type(n).__name__}")
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise PrimalityRangeError(f"primality is decided only below {_MR_LIMIT}, not for {n}")
    if math.gcd(n, _MR_PRODUCT) != 1:
        return n in _MR_BASES
    k = 1
    while n >= _MR_PSI[k - 1]:
        k += 1
    m = n - 1
    s = (m & -m).bit_length() - 1  # the lowest set bit of m = d 2^s, d odd
    d = m >> s
    for a in _MR_BASES[:k]:
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


def family_indices(lam: int) -> tuple[int, ...]:
    """The b of the partners J^b listed for multisection index lambda:
    ``partner_indices(lambda)``, or (0,), the trivial twist, for lambda = 1."""
    return partner_indices(lam) or (0,)


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
    return [relative_jacobian_power(twisted, b) for b in family_indices(twisted.multisection_index)]


class RigidityReport(Value):
    """Outcome of the typed Moebius symmetry search.

    ``symmetries`` lists the full (finite) group when at least three points
    are marked; with fewer marked points the stabilizer is a continuum and
    no group is materialized, so it is None.  The rest is derived: ``finite``
    says whether a group was found, ``order`` is its size, and ``rigid`` is
    ``order == 1``, since the search always finds the identity.
    """

    __slots__ = ("symmetries",)

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
    """The typed Moebius symmetry group of ``config``, as a report.

    The search is ``MarkedConfig.symmetries``, cached on the configuration
    object, so a second check of the same object builds no ``MobiusMap``.
    """
    return RigidityReport(config.symmetries)


class ClassificationMode(Enum):
    INVERSION = "inversion"
    BOUND = "bound"


class PartnerClassification(Value):
    """A partition of the partner index set with a certified lower bound.

    Only the inputs are stored, and ``__post_init__`` checks them (an int
    lambda >= 1, a ``ClassificationMode``, a bound in ``AUT_BOUNDS``); the
    rest is derived.  ``index_count`` is |I| = phi(lambda) (0 for lambda = 1),
    from the factorization of lambda, and the sound bound ``lower_bound`` =
    max(1, ceil(|I| / aut_bound)) follows from it, so neither builds the index
    set.  ``classes`` is built from ``partner_indices`` on first read and
    cached: in BOUND mode they are consecutive blocks of size at most the
    automorphism bound (the coarsest partition compatible with it); in
    INVERSION mode they are the orbits of b -> (lambda - b) mod lambda, which
    are candidate isomorphism classes only.  An index-1 surface has the single
    class (0,).  The cache lives in the instance's ``__dict__``.
    """

    __slots__ = ("multisection_index", "mode", "aut_bound", "__dict__")

    def __post_init__(self) -> None:
        if type(self.multisection_index) is not int or self.multisection_index < 1:
            raise ValueError("multisection index must be a positive integer")
        if not isinstance(self.mode, ClassificationMode):
            raise TypeError("classification mode must be a ClassificationMode")
        if type(self.aut_bound) is not int or self.aut_bound not in AUT_BOUNDS:
            raise ValueError(f"automorphism bound must be one of {AUT_BOUNDS}")

    @derived
    def classes(self) -> tuple[tuple[int, ...], ...]:
        lam = self.multisection_index
        indices = family_indices(lam)
        if self.mode is ClassificationMode.INVERSION:
            # Each orbit is listed once, from its smaller member.
            return tuple(tuple(sorted({b, (lam - b) % lam})) for b in indices if 2 * b <= lam)
        k = self.aut_bound
        return tuple(indices[i : i + k] for i in range(0, len(indices), k))

    @derived
    def index_count(self) -> int:
        return _totient(self.multisection_index)

    @property
    def lower_bound(self) -> int:
        return max(1, -(-self.index_count // self.aut_bound))


def classify_partners(
    twisted: TwistedSurface,
    mode: ClassificationMode = ClassificationMode.BOUND,
    aut_bound: int = AUT_BOUNDS[-1],
) -> PartnerClassification:
    """Classify the partner indices of a twisted surface.

    Refuses an ``aut_bound`` below the Jacobian's ``aut_floor`` with
    ``AutFloorError``: automorphisms of that order may exist, so fewer
    classes would be certified than the mathematics supports.  Refuses when
    the Jacobian's configuration is not rigid: without rigidity an
    isomorphism could move the base points and the counting argument says
    nothing.  The index set itself is not built here: the result's
    ``classes`` are derived when first read, and its count and bound never
    need them.  An index-1 surface yields the single trivial class.
    """
    classification = PartnerClassification(twisted.multisection_index, mode, aut_bound)
    config = jacobian(twisted).config
    if aut_bound < (floor := aut_floor(config)):
        raise AutFloorError(
            f"automorphism bound {aut_bound} is below {floor}, the automorphism floor of the "
            "Jacobian's configuration; the partner-counting argument is not certified"
        )
    if not rigidity_check(config).rigid:
        raise NotRigidError(
            "the Jacobian's marked configuration admits nontrivial Moebius symmetries; "
            "the partner-counting argument is not certified"
        )
    return classification


def order_p_twist(base: EllipticSurface, p: int) -> TwistedSurface:
    """S(p): the twist of ``base`` by the class (1/p, 0) at its default twist point."""
    cls = twist_class(base, [(default_twist_point(base), QZPair(QZ(1, p)))])
    return twist(base, cls)


class CertificationVerdict(Value):
    """Result of the end-to-end partner-count certification for S(p).

    ``p`` is the multisection index of the classified twist.  ``certified``
    holds when the certified lower bound reaches the target; for prime p
    that is exactly p > 6(target - 1) + 1.
    """

    __slots__ = ("target", "classification")

    def __post_init__(self) -> None:
        if type(self.target) is not int or self.target < 1:
            raise ValueError("target class count must be a positive integer")
        if not isinstance(self.classification, PartnerClassification):
            raise TypeError("a certification verdict needs a PartnerClassification")

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
    base surface and its symmetry group are cached on the catalog entry and
    its configuration, so only the first call runs the rigidity search.  The
    twist is rational without a further check: the base gate of
    ``TwistClass`` gives chi = 1 and no multiple fibers, and the one fiber of
    multiplicity p leaves deg K = -1/p < 0.  The strict inequality is exactly
    the condition making that bound reach the target.  Nothing of size p is
    built, so the cost is polylogarithmic in p; p at or above the primality
    limit of ``is_prime`` raises ``PrimalityRangeError``.
    """
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    twisted = order_p_twist(catalog_get(DEFAULT_ENTRY).surface, p)
    classification = classify_partners(twisted)
    return CertificationVerdict(target, classification)

