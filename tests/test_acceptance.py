"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines on a passing run.
"""

import functools
import json
import math
import random
import time

import pytest

from ellfm import (
    DEFAULT_ENTRY,
    BasePoint,
    ClassificationMode,
    KodairaDimension,
    KodairaFiber,
    KodairaZeroError,
    MarkedConfig,
    QZ,
    QZPair,
    TwistClass,
    catalog_get,
    catalog_list,
    certify_partner_count,
    classify_partners,
    enumerate_partners,
    euler_number,
    jacobian,
    kodaira_dimension,
    partner_indices,
    rigidity_check,
    twist,
    twist_class,
)
from ellfm.cli import main
from _mobius_oracle import oracle_symmetries
from conftest import make_order_p_twist, random_marked_config

PRIMES_BELOW_300 = [
    p for p in range(2, 300) if all(p % q for q in range(2, int(p**0.5) + 1))
]


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL — {description}")
                raise
            print(f"criterion {number}: PASS — {description}")

        return wrapper

    return decorate


@criterion(1, "order-p twist construction via the CLI, exact invariants, < 1 s")
def test_criterion_1_construction(capsys):
    start = time.perf_counter()
    docs = {}
    for p in (2, 3, 5, 7, 11, 101):
        code = main(["construct", "--p", str(p), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        docs[p] = json.loads(out)
    elapsed = time.perf_counter() - start
    for p, doc in docs.items():
        fibers = sorted((f["kind"], f["multiplicity"]) for f in doc["fibers"])
        assert fibers == [("I(0)", p), ("I(1)", 1), ("I(2)", 1), ("III*", 1)]
        assert doc["euler_number"] == 12
        assert doc["chi"] == 1
        assert doc["canonical_degree"] == f"-1/{p}"
        assert doc["kodaira_dimension"] == "-inf"
        assert doc["rational"] is True
        assert doc["lambda"] == p
    assert elapsed < 1.0, f"construction took {elapsed:.3f}s"


@criterion(2, "partner-count certification verdicts for (11,2), (7,2), (101,17), (13,3), < 1 s")
def test_criterion_2_certification():
    start = time.perf_counter()
    assert certify_partner_count(11, 2).verdict == "certified"
    assert certify_partner_count(11, 2).m_min == 2
    assert certify_partner_count(7, 2).verdict == "inconclusive"
    v = certify_partner_count(101, 17)
    assert v.verdict == "certified" and v.m_min == 17
    v = certify_partner_count(13, 3)
    assert v.verdict == "inconclusive" and v.m_min == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"certification took {elapsed:.3f}s"


@criterion(3, "partner enumeration for p in {5, 11, 31}: p-1 rational partners, < 1 s")
def test_criterion_3_enumeration():
    start = time.perf_counter()
    for p in (5, 11, 31):
        sp = make_order_p_twist(p)
        partners = enumerate_partners(sp)
        assert len(partners) == p - 1
        for partner in partners:
            assert euler_number(partner) == 12
            assert kodaira_dimension(partner) is KodairaDimension.MINUS_INFINITY
            assert partner.multisection_index == p
            assert partner.config.multiplicities == (p,)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"enumeration took {elapsed:.3f}s"


@criterion(4, "bound-mode count <= inversion-orbit count, both true partitions, all p < 300, < 10 s")
def test_criterion_4_claim_bound_consistency():
    start = time.perf_counter()
    for p in PRIMES_BELOW_300:
        sp = make_order_p_twist(p)
        indices = set(partner_indices(p))
        bound = classify_partners(sp, ClassificationMode.BOUND)
        inversion = classify_partners(sp, ClassificationMode.INVERSION)
        assert len(bound.classes) == -(-(p - 1) // 6)
        assert len(bound.classes) <= len(inversion.classes)
        for classification in (bound, inversion):
            flattened = [i for block in classification.classes for i in block]
            assert len(flattened) == len(set(flattened)), "classes overlap"
            assert set(flattened) == indices, "classes do not cover the index set"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"partition suite took {elapsed:.3f}s"


@criterion(5, "rigidity agrees with the independent brute-force oracle on 200+ random configs")
def test_criterion_5_rigidity_oracle():
    hand_built = [
        ([("0", "III*"), ("1", "I(2)"), ("inf", "I(1)")], True),
        ([("0", "I(1)"), ("inf", "I(1)")], False),
        ([("0", "I(1)"), ("1", "I(1)"), ("inf", "I(1)")], False),
    ]
    for entries, expected_rigid in hand_built:
        config = MarkedConfig(
            (BasePoint.parse(pt), KodairaFiber.from_token(tok)) for pt, tok in entries
        )
        report = rigidity_check(config)
        oracle_rigid, oracle_group = oracle_symmetries(config)
        assert report.rigid == expected_rigid == oracle_rigid
        if report.symmetries is None:
            assert oracle_group is None
        else:
            assert {m.entries() for m in report.symmetries} == set(oracle_group)

    rng = random.Random(5_2024)
    agreements = 0
    for _ in range(200):
        config = random_marked_config(rng)
        report = rigidity_check(config)
        oracle_rigid, oracle_group = oracle_symmetries(config)
        assert report.rigid == oracle_rigid
        assert {m.entries() for m in report.symmetries} == set(oracle_group)
        agreements += 1
    assert agreements == 200


@criterion(6, "twist-group laws and order formula on 1000 randomized elements")
def test_criterion_6_group_law_suite():
    base = catalog_get(DEFAULT_ENTRY).surface
    pool = [BasePoint(2), BasePoint(3), BasePoint(-1), BasePoint(1, 2), BasePoint(5, 3), BasePoint(7)]
    rng = random.Random(6_2024)

    def divisor(n):
        return rng.choice([d for d in range(1, n + 1) if n % d == 0])

    def random_element():
        size = rng.randint(0, 4)
        assignments = []
        for point in rng.sample(pool, size):
            local_order = rng.randint(1, 60)
            m, n = divisor(local_order), divisor(local_order)
            assignments.append(
                (point, QZPair(QZ(rng.randrange(m), m), QZ(rng.randrange(n), n)))
            )
        return twist_class(base, assignments)

    zero = TwistClass(base)
    for _ in range(1000):
        a, b, c = random_element(), random_element(), random_element()
        i = rng.randint(-120, 120)
        assert (a + b) + c == a + (b + c)
        assert a + zero == a
        assert not (a + (-a))
        assert (i * a).order == a.order // math.gcd(i, a.order)


@criterion(7, "Euler invariance and Jacobian round trip on 100+ randomized twists")
def test_criterion_7_twist_invariance():
    rng = random.Random(7_2024)
    bases = [entry.surface for entry in catalog_list()]
    candidates = [BasePoint(n) for n in range(13, 40)] + [
        BasePoint(n, 2) for n in range(27, 41, 2)
    ]
    checked = 0
    while checked < 100:
        base = rng.choice(bases)
        pool = [p for p in candidates if base.config.fiber_at(p) is None]
        size = rng.randint(1, 3)
        assignments = []
        for point in rng.sample(pool, size):
            den = rng.randint(2, 12)
            assignments.append((point, QZPair(QZ(rng.randrange(den), den), QZ(rng.randrange(2), 2))))
        xi = twist_class(base, assignments)
        twisted = twist(base, xi)
        assert euler_number(twisted) == euler_number(base)
        assert jacobian(twisted) == base
        checked += 1
    assert checked >= 100


@criterion(8, "enumeration gate: refuses Kodaira dimension zero, accepts -inf and one")
def test_criterion_8_kodaira_gate():
    base = catalog_get(DEFAULT_ENTRY).surface
    two_twos = twist(
        base,
        twist_class(
            base,
            [
                (BasePoint(2), QZPair(QZ(1, 2), QZ())),
                (BasePoint(3), QZPair(QZ(1, 2), QZ())),
            ],
        ),
    )
    assert kodaira_dimension(two_twos) is KodairaDimension.ZERO
    with pytest.raises(KodairaZeroError):
        enumerate_partners(two_twos)

    minus_inf = make_order_p_twist(5)
    assert kodaira_dimension(minus_inf) is KodairaDimension.MINUS_INFINITY
    assert len(enumerate_partners(minus_inf)) == 4

    dolgachev = twist(
        base,
        twist_class(
            base,
            [
                (BasePoint(2), QZPair(QZ(1, 2), QZ())),
                (BasePoint(3), QZPair(QZ(1, 3), QZ())),
            ],
        ),
    )
    assert kodaira_dimension(dolgachev) is KodairaDimension.ONE
    assert len(enumerate_partners(dolgachev)) == 2
