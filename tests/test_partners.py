import math
import random

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
    QZ,
    QZPair,
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
    trivial_class,
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
        trivial = twist(base, trivial_class(base))
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
                assert (g @ h) in group

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
        trivial = twist(base, trivial_class(base))
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

    def test_certified_iff_bound_reaches_target(self):
        for p in PRIMES_BELOW_300[:25]:
            for n in range(1, 20):
                result = certify_partner_count(p, n)
                assert result.certified == (p > 6 * (n - 1) + 1)
                # soundness: certified means the bound really reaches N
                if result.certified:
                    assert result.m_min >= n

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
