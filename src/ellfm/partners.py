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
from dataclasses import dataclass
from enum import Enum

from .catalog import DEFAULT_ENTRY, catalog_get
from .errors import InvalidBaseError, KodairaZeroError, NotPrimeError, NotRigidError
from .projective import MobiusMap
from .qz import QZ, QZPair
from .surface import EllipticSurface, KodairaDimension, MarkedConfig, is_rational, kodaira_dimension
from .twists import (
    TwistedSurface,
    default_twist_point,
    jacobian,
    relative_jacobian_power,
    twist,
    twist_class,
)

AUT_BOUNDS = (2, 4, 6)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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
    lam = twisted.multisection_index
    if lam == 1:
        return [relative_jacobian_power(twisted, 0)]
    return [relative_jacobian_power(twisted, b) for b in partner_indices(lam)]


@dataclass(frozen=True)
class RigidityReport:
    """Outcome of the typed Moebius symmetry search.

    ``symmetries`` lists the full (finite) group when at least three points
    are marked; with fewer marked points the stabilizer is a continuum, so
    ``finite`` is False and no group is materialized.
    """

    rigid: bool
    finite: bool
    symmetries: tuple[MobiusMap, ...] | None

    @property
    def order(self) -> int | None:
        return len(self.symmetries) if self.symmetries is not None else None


def _preserves_labels(map_: MobiusMap, labels: dict) -> bool:
    for point, fiber in labels.items():
        if labels.get(map_(point)) != fiber:
            return False
    return True


def rigidity_check(config: MarkedConfig) -> RigidityReport:
    """Find every Moebius transformation preserving the typed marked set.

    A Moebius map is pinned down by the images of three points, so with at
    least three marked points every symmetry is obtained by fixing one source
    triple and ranging over the label-compatible image triples.  With fewer
    than three marked points a positive-dimensional family always remains and
    the configuration is never rigid.
    """
    labels = {point: fiber for point, fiber in config}
    points = list(labels)
    if len(points) < 3:
        return RigidityReport(rigid=False, finite=False, symmetries=None)
    x1, x2, x3 = points[0], points[1], points[2]
    found = []
    for y1 in points:
        if labels[y1] != labels[x1]:
            continue
        for y2 in points:
            if y2 == y1 or labels[y2] != labels[x2]:
                continue
            for y3 in points:
                if y3 == y1 or y3 == y2 or labels[y3] != labels[x3]:
                    continue
                candidate = MobiusMap.through_triples((x1, x2, x3), (y1, y2, y3))
                if _preserves_labels(candidate, labels):
                    found.append(candidate)
    found.sort(key=MobiusMap.entries)
    symmetries = tuple(found)
    return RigidityReport(
        rigid=symmetries == (MobiusMap.identity(),),
        finite=True,
        symmetries=symmetries,
    )


class ClassificationMode(Enum):
    INVERSION = "inversion"
    BOUND = "bound"


@dataclass(frozen=True)
class PartnerClassification:
    """A partition of the partner index set with a certified lower bound.

    ``lower_bound`` is always the sound bound ceil(|I| / aut_bound).  In
    BOUND mode the classes are consecutive blocks of size at most the
    automorphism bound (the coarsest partition compatible with it); in
    INVERSION mode they are the orbits of b -> lambda - b, which are
    candidate isomorphism classes only.
    """

    multisection_index: int
    mode: ClassificationMode
    classes: tuple[tuple[int, ...], ...]
    lower_bound: int
    aut_bound: int

    @property
    def index_count(self) -> int:
        if self.multisection_index == 1:
            return 0
        return sum(len(block) for block in self.classes)


def classify_partners(
    twisted: TwistedSurface,
    mode: ClassificationMode = ClassificationMode.BOUND,
    aut_bound: int = 6,
) -> PartnerClassification:
    """Partition the partner indices of a twisted surface.

    Refuses when the Jacobian's configuration is not rigid: without rigidity
    an isomorphism could move the base points and the counting argument says
    nothing.  An index-1 surface yields the single trivial class.
    """
    if aut_bound not in AUT_BOUNDS:
        raise ValueError(f"automorphism bound must be one of {AUT_BOUNDS}")
    report = rigidity_check(jacobian(twisted).config)
    if not report.rigid:
        raise NotRigidError(
            "the Jacobian's marked configuration admits nontrivial Moebius symmetries; "
            "the partner-counting argument is not certified"
        )
    lam = twisted.multisection_index
    if lam == 1:
        return PartnerClassification(lam, mode, ((0,),), 1, aut_bound)
    indices = partner_indices(lam)
    if mode is ClassificationMode.INVERSION:
        seen = set()
        classes = []
        for i in indices:
            if i in seen:
                continue
            orbit = tuple(sorted({i, lam - i}))
            seen.update(orbit)
            classes.append(orbit)
    else:
        classes = [
            tuple(indices[k : k + aut_bound]) for k in range(0, len(indices), aut_bound)
        ]
    lower = -(-len(indices) // aut_bound)
    return PartnerClassification(lam, mode, tuple(classes), lower, aut_bound)


def order_p_twist(base: EllipticSurface, p: int) -> TwistedSurface:
    """S(p): the twist of ``base`` by the class (1/p, 0) at its default twist point."""
    cls = twist_class(base, [(default_twist_point(base), QZPair(QZ(1, p), QZ()))])
    return twist(base, cls)


@dataclass(frozen=True)
class CertificationVerdict:
    """Result of the end-to-end partner-count certification for S(p).

    ``certified`` holds when the certified lower bound reaches the target;
    for prime p that is exactly p > 6(target - 1) + 1.
    """

    p: int
    target: int
    classification: PartnerClassification

    @property
    def m_min(self) -> int:
        return self.classification.lower_bound

    @property
    def certified(self) -> bool:
        return self.m_min >= self.target

    @property
    def verdict(self) -> str:
        return "certified" if self.certified else "inconclusive"


def certify_partner_count(
    p: int, target: int, base: EllipticSurface | None = None
) -> CertificationVerdict:
    """Certify that an order-p twist has at least ``target`` pairwise
    non-isomorphic Fourier-Mukai partners, when p > 6(target - 1) + 1.

    Runs the whole pipeline: build the order-p twist of the base at an
    unmarked point, confirm rationality, confirm rigidity of the base
    configuration, and take the certified lower bound ceil((p-1)/6).  The
    strict inequality is exactly the condition making that bound reach the
    target.
    """
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if target < 1:
        raise ValueError("target class count must be a positive integer")
    if base is None:
        base = catalog_get(DEFAULT_ENTRY).surface
    twisted = order_p_twist(base, p)
    if not is_rational(twisted):
        # Unreachable for a valid base: chi is 1 and one multiple fiber keeps
        # the canonical degree negative.  Guard anyway.
        raise InvalidBaseError("twisted surface unexpectedly fails the rationality check")
    classification = classify_partners(twisted, ClassificationMode.BOUND, 6)
    return CertificationVerdict(p, target, classification)


def classification_doc(classification: PartnerClassification) -> dict:
    return {
        "lambda": classification.multisection_index,
        "index_count": classification.index_count,
        "mode": classification.mode.value,
        "aut_bound": classification.aut_bound,
        "classes": [list(block) for block in classification.classes],
        "M_min": classification.lower_bound,
    }


def verdict_doc(verdict: CertificationVerdict) -> dict:
    doc = classification_doc(verdict.classification)
    doc.update({"p": verdict.p, "N": verdict.target, "verdict": verdict.verdict})
    return doc
