"""Count Fourier-Mukai partners of an order-p twist and certify how many of
them are pairwise non-isomorphic.

Away from Kodaira dimension zero the derived partners of a twisted surface
are exactly its relative Jacobian powers J^b with b coprime to the
multisection index, so for prime p there are p - 1 of them.  At most 6
indices can share an isomorphism class (the automorphism bound over the
base), so ceil((p-1)/6) classes are certified; whenever p > 6(N-1) + 1 that
bound reaches N.
"""

from ellfm import (
    DEFAULT_ENTRY,
    BasePoint,
    ClassificationMode,
    QZ,
    QZPair,
    catalog_get,
    certify_partner_count,
    classify_partners,
    enumerate_partners,
    twist,
    twist_class,
)

base = catalog_get(DEFAULT_ENTRY).surface
xi = twist_class(base, [(BasePoint(2), QZPair(QZ(1, 11), QZ()))])
surface_11 = twist(base, xi)

partners = enumerate_partners(surface_11)
print(f"{surface_11.name} has {len(partners)} partners in its family:")
for index, partner in zip(range(1, 12), partners):
    print(f"    J^{index:<2} lambda={partner.multisection_index} name={partner.name}")
print()

# Candidate classes under the inversion symmetry b -> p - b (always present).
inversion = classify_partners(surface_11, ClassificationMode.INVERSION)
print(f"inversion orbits: {inversion.classes}")

# Certified lower bound: block partition of size <= 6.
bound = classify_partners(surface_11, ClassificationMode.BOUND)
print(f"certified lower bound on classes: {bound.lower_bound} (blocks {bound.classes})")
print()

# The certification pipeline end to end, for a few (p, N) targets.
# |I| = phi(p) and M_min are closed forms, so the last row costs no more than the first.
print(f"{'p':>9} {'N':>9} {'|I|':>9} {'M_min':>9}  verdict")
for p, n in [
    (5, 2), (7, 2), (11, 2), (13, 3), (31, 6), (101, 17), (103, 17), (293, 40), (998244353, 166374059)
]:
    verdict = certify_partner_count(p, n)
    print(
        f"{p:>9} {n:>9} {verdict.classification.index_count:>9} {verdict.m_min:>9}  {verdict.verdict}"
    )
print()
print("p = 7, N = 2 stays inconclusive: 7 = 6(2-1)+1, and the inequality is strict.")
