import math
import random
import tracemalloc

import pytest

from ellfm import (
    AUT_BOUNDS,
    DEFAULT_ENTRY,
    BasePoint,
    ClassificationMode,
    KodairaDimension,
    KodairaFiber,
    MarkedConfig,
    MobiusMap,
    NotPrimeError,
    NotRigidError,
    KodairaZeroError,
    PartnerClassification,
    PrimalityRangeError,
    QZ,
    QZPair,
    TwistClass,
    catalog_get,
    certify_partner_count,
    classify_partners,
    enumerate_partners,
    euler_number,
    is_prime,
    is_rational,
    kodaira_dimension,
    order_p_twist,
    partner_indices,
    rigidity_check,
    twist,
    twist_class,
)
from _mobius_oracle import oracle_symmetries
from conftest import make_order_p_twist, random_marked_config

PRIMES_BELOW_300 = [p for p in range(2, 300) if is_prime(p)]


def _cfg(entries):
    return MarkedConfig(
        (BasePoint.parse(pt), KodairaFiber.from_token(token)) for pt, token in entries
    )


class TestIndexSet:
    def test_prime_index_count(self):
        for p in (2, 3, 11, 101):
            assert len(partner_indices(p)) == p - 1

    def test_composite(self):
        assert partner_indices(12) == (1, 5, 7, 11)
        assert partner_indices(6) == (1, 5)

    def test_lambda_one_is_empty(self):
        assert partner_indices(1) == ()

    def test_nonpositive_lambda_rejected(self):
        for lam in (0, -1, -12):
            with pytest.raises(ValueError):
                partner_indices(lam)

    def test_totient_size(self):
        def phi(n):
            return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1) if n > 1 else 1

        for lam in range(2, 40):
            assert len(partner_indices(lam)) == phi(lam)


class TestEnumeration:
    def test_prime_order_twist(self):
        s11 = make_order_p_twist(11)
        partners = enumerate_partners(s11)
        assert len(partners) == 10
        for partner in partners:
            assert euler_number(partner) == 12
            assert is_rational(partner)
            assert partner.multisection_index == 11

    def test_index_one_surface_is_its_own_partner(self):
        base = catalog_get("persson-III*-I2-I1").surface
        trivial = twist(base, TwistClass(base))
        partners = enumerate_partners(trivial)
        assert len(partners) == 1
        assert partners[0].surface == base

    def test_kodaira_zero_gate(self):
        base = catalog_get("persson-III*-I2-I1").surface
        xi = twist_class(
            base,
            [
                (BasePoint(2), QZPair(QZ(1, 2), QZ())),
                (BasePoint(3), QZPair(QZ(1, 2), QZ())),
            ],
        )
        halfway = twist(base, xi)
        assert kodaira_dimension(halfway) is KodairaDimension.ZERO
        with pytest.raises(KodairaZeroError):
            enumerate_partners(halfway)

    def test_positive_kodaira_dimension_allowed(self):
        base = catalog_get("persson-III*-I2-I1").surface
        xi = twist_class(
            base,
            [
                (BasePoint(2), QZPair(QZ(1, 2), QZ())),
                (BasePoint(3), QZPair(QZ(1, 3), QZ())),
            ],
        )
        dolgachev = twist(base, xi)
        assert kodaira_dimension(dolgachev) is KodairaDimension.ONE
        partners = enumerate_partners(dolgachev)
        assert len(partners) == 2  # indices 1 and 5
        assert all(p.multisection_index == 6 for p in partners)


class TestRigidity:
    def test_three_distinct_types_are_rigid(self):
        report = rigidity_check(_cfg([("0", "III*"), ("1", "I(2)"), ("inf", "I(1)")]))
        assert report.rigid
        assert report.symmetries == (MobiusMap.identity(),)

    def test_two_points_never_rigid(self):
        report = rigidity_check(_cfg([("0", "I(1)"), ("inf", "I(1)")]))
        assert not report.rigid
        assert not report.finite
        assert report.symmetries is None

    def test_three_equal_types_give_s3(self):
        config = _cfg([("0", "I(1)"), ("1", "I(1)"), ("inf", "I(1)")])
        report = rigidity_check(config)
        assert not report.rigid
        assert report.order == 6
        points = frozenset(config.points)
        perms = set()
        for m in report.symmetries:
            images = tuple(m(p) for p in config.points)
            assert set(images) == points
            perms.add(images)
        assert len(perms) == 6

    def test_symmetries_form_a_group(self):
        config = _cfg([("0", "I(1)"), ("1", "I(1)"), ("inf", "I(1)")])
        group = set(rigidity_check(config).symmetries)
        for g in group:
            assert g.inverse() in group
            for h in group:
                assert g.compose(h) in group

    def test_agrees_with_brute_force_oracle(self):
        rng = random.Random(20240817)
        for _ in range(40):
            config = random_marked_config(rng)
            report = rigidity_check(config)
            oracle_rigid, oracle_group = oracle_symmetries(config)
            assert report.rigid == oracle_rigid
            assert {m.entries() for m in report.symmetries} == set(oracle_group)


class TestClassification:
    def test_inversion_orbits_for_eleven(self):
        s11 = make_order_p_twist(11)
        c = classify_partners(s11, ClassificationMode.INVERSION)
        assert c.classes == ((1, 10), (2, 9), (3, 8), (4, 7), (5, 6))
        assert c.index_count == 10

    def test_bound_mode_for_eleven(self):
        c = classify_partners(make_order_p_twist(11))
        assert c.lower_bound == 2
        assert all(len(block) <= 6 for block in c.classes)

    def test_bound_mode_for_101(self):
        c = classify_partners(make_order_p_twist(101))
        assert c.lower_bound == 17  # ceil(100 / 6)

    def test_lambda_one_trivial_class(self):
        base = catalog_get("persson-III*-I2-I1").surface
        trivial = twist(base, TwistClass(base))
        c = classify_partners(trivial)
        assert c.classes == ((0,),)
        assert c.lower_bound == 1
        assert c.index_count == 0

    def test_refuses_non_rigid_base(self):
        base = catalog_get("II*-I1-I1").surface
        s5 = make_order_p_twist(5, base=base)
        with pytest.raises(NotRigidError):
            classify_partners(s5)

    def test_refuses_two_point_base(self):
        base = catalog_get("IV*-IV").surface
        s5 = make_order_p_twist(5, base=base)
        with pytest.raises(NotRigidError):
            classify_partners(s5)

    def test_aut_bound_validation(self):
        # Fibrewise inversion is always an automorphism, so the group order is even.
        for aut_bound in (1, 3, 5):
            with pytest.raises(ValueError):
                classify_partners(make_order_p_twist(5), aut_bound=aut_bound)

    @pytest.mark.parametrize("aut_bound", [0, 1, 3, 5, 7, 12, -6, 2.0, True, "6"])
    def test_constructor_refuses_unsupported_aut_bound(self, aut_bound):
        # A bound of 1 would let CertificationVerdict(100, ...) certify all 100
        # indices of lambda = 101 as classes; only ceil(100 / 6) = 17 are.
        with pytest.raises(ValueError, match=r"^automorphism bound must be one of \(2, 4, 6\)$"):
            PartnerClassification(101, ClassificationMode.BOUND, aut_bound)

    @pytest.mark.parametrize("lam", [0, -5, True, 11.0, "11", None])
    def test_constructor_refuses_non_positive_index(self, lam):
        with pytest.raises(ValueError, match="^multisection index must be a positive integer$"):
            PartnerClassification(lam, ClassificationMode.BOUND, 6)

    @pytest.mark.parametrize("mode", ["bound", "inversion", None, 0])
    def test_constructor_refuses_mode_that_is_not_a_classification_mode(self, mode):
        with pytest.raises(TypeError, match="^classification mode must be a ClassificationMode$"):
            PartnerClassification(11, mode, 6)
        with pytest.raises(TypeError, match="^classification mode must be a ClassificationMode$"):
            classify_partners(make_order_p_twist(11), mode)

    def test_bad_bound_refused_before_rigidity(self):
        s5 = make_order_p_twist(5, base=catalog_get("II*-I1-I1").surface)
        with pytest.raises(ValueError, match="^automorphism bound must be one of"):
            classify_partners(s5, aut_bound=3)

    def test_lower_bound_never_exceeds_inversion_orbits(self):
        for p in PRIMES_BELOW_300:
            sp = make_order_p_twist(p)
            orbits = len(classify_partners(sp, ClassificationMode.INVERSION).classes)
            for aut_bound in AUT_BOUNDS:
                for mode in ClassificationMode:
                    assert classify_partners(sp, mode, aut_bound).lower_bound <= orbits

    def test_partitions_for_all_primes_below_300(self):
        for p in PRIMES_BELOW_300:
            sp = make_order_p_twist(p)
            indices = set(partner_indices(p))
            inversion = classify_partners(sp, ClassificationMode.INVERSION)
            bound = classify_partners(sp, ClassificationMode.BOUND)
            for c in (inversion, bound):
                flattened = [i for block in c.classes for i in block]
                assert len(flattened) == len(set(flattened))
                assert set(flattened) == indices
            if p > 2:
                assert len(inversion.classes) == (p - 1) // 2
            assert len(bound.classes) == -(-(p - 1) // 6)
            assert len(bound.classes) <= len(inversion.classes)
            assert bound.lower_bound == len(bound.classes)

    def test_every_index_up_to_40_matches_reference(self):
        # Composite lambda included: orbits of b -> -b mod lambda and blocks of the coprime residues.
        base = catalog_get(DEFAULT_ENTRY).surface
        for lam in range(1, 41):
            sp = order_p_twist(base, lam)
            coprime = [b for b in range(1, lam) if math.gcd(b, lam) == 1]
            indices = coprime or [0]
            orbits = sorted({tuple(sorted({b, (-b) % lam})) for b in indices})
            for aut_bound in AUT_BOUNDS:
                blocks = [tuple(indices[k : k + aut_bound]) for k in range(0, len(indices), aut_bound)]
                bound = next(m for m in range(1, lam + 1) if m * aut_bound >= len(coprime))
                for mode, expected in ((ClassificationMode.INVERSION, orbits), (ClassificationMode.BOUND, blocks)):
                    c = classify_partners(sp, mode, aut_bound)
                    assert c.multisection_index == lam
                    assert c.classes == tuple(expected), (lam, mode)
                    assert c.index_count == len(coprime)
                    assert c.lower_bound == bound, (lam, mode, aut_bound)

    def test_derived_count_matches_classes_up_to_500(self):
        for lam in range(1, 501):
            phi = sum(1 for b in range(1, lam) if math.gcd(b, lam) == 1)
            for aut_bound in AUT_BOUNDS:
                for mode in ClassificationMode:
                    c = PartnerClassification(lam, mode, aut_bound)
                    listed = sum(map(len, c.classes))
                    assert c.index_count == (listed if lam > 1 else 0) == phi, (lam, mode, aut_bound)
                    assert c.lower_bound == max(1, -(-phi // aut_bound)), (lam, mode, aut_bound)

    def test_count_needs_no_index_set(self):
        # phi from the factorization: small factors by trial division, then one
        # primality test on the prime cofactor 2^61 - 1.
        m61 = 2**61 - 1
        c = PartnerClassification(3**4 * 5 * m61, ClassificationMode.BOUND, 6)
        assert c.index_count == (3**4 - 3**3) * 4 * (m61 - 1)
        assert PartnerClassification(10007**2, ClassificationMode.BOUND, 2).index_count == 10007 * 10006
        assert "classes" not in vars(c)

    def test_classes_built_on_first_read_only(self):
        c = classify_partners(make_order_p_twist(11))
        assert "classes" not in vars(c)
        assert c.lower_bound == 2
        assert "classes" not in vars(c)
        assert c.classes is c.classes
        assert c.classes == ((1, 2, 3, 4, 5, 6), (7, 8, 9, 10))


class TestOrderPTwist:
    def test_matches_hand_built_twist(self):
        base = catalog_get(DEFAULT_ENTRY).surface
        for p in (1, 2, 11, 101):
            sp = order_p_twist(base, p)
            assert sp == make_order_p_twist(p)
            assert sp.multisection_index == p


class TestCertification:
    def test_reference_verdicts(self):
        expectations = [
            (11, 2, "certified", 2),
            (7, 2, "inconclusive", 1),
            (101, 17, "certified", 17),
            (13, 3, "inconclusive", 2),
        ]
        for p, n, verdict, m_min in expectations:
            result = certify_partner_count(p, n)
            assert result.verdict == verdict
            assert result.m_min == m_min

    def test_non_prime_rejected(self):
        with pytest.raises(NotPrimeError):
            certify_partner_count(12, 2)

    def test_nonpositive_target_rejected(self):
        for target in (0, -1):
            with pytest.raises(ValueError):
                certify_partner_count(11, target)

    def test_certified_iff_bound_reaches_target(self):
        for p in PRIMES_BELOW_300[:25]:
            for n in range(1, 20):
                result = certify_partner_count(p, n)
                assert result.certified == (p > 6 * (n - 1) + 1)
                # soundness: certified means the bound really reaches N
                if result.certified:
                    assert result.m_min >= n

    def test_large_prime_in_bounded_memory(self):
        tracemalloc.start()
        try:
            result = certify_partner_count(998244353, 166374059)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.certified
        assert result.m_min == 166374059
        assert peak < 1 << 20

    def test_primes_past_the_primality_limit_refused(self):
        with pytest.raises(PrimalityRangeError):
            certify_partner_count(318665857834031151167461, 2)

    def test_m_min_matches_greedy_block_partition(self):
        for p in PRIMES_BELOW_300:
            indices = list(partner_indices(p))
            blocks = [indices[k : k + 6] for k in range(0, len(indices), 6)]
            assert certify_partner_count(p, 1).m_min == len(blocks)


class TestPrimality:
    def test_small_values(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(221)  # 13 * 17

    def test_matches_trial_division_below_100000(self):
        def trial_division(n):
            return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

        assert [n for n in range(100000) if is_prime(n)] == [n for n in range(100000) if trial_division(n)]

    def test_strong_pseudoprimes_are_composite(self):
        # OEIS A014233: the least strong pseudoprimes to the first k prime bases, k = 1..8.
        for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
                  3825123056546413051):
            assert not is_prime(n), n

    def test_large_primes(self):
        assert is_prime(2**31 - 1)
        assert is_prime(2**61 - 1)
        assert is_prime(2**64 - 59)
        assert not is_prime((2**31 - 1) ** 2)
        assert not is_prime(2**64 - 1)

    def test_refuses_at_and_above_psi_12(self):
        # psi_12 is itself a strong pseudoprime to the bases 2..37.
        for n in (318665857834031151167461, 2**89 - 1):
            with pytest.raises(PrimalityRangeError):
                is_prime(n)
        assert not is_prime(318665857834031151167461 - 1)
