from fractions import Fraction

import pytest

from ellfm import (
    BasePoint,
    DegenerateSurfaceError,
    DuplicatePointError,
    EllipticSurface,
    InvalidConfigError,
    InvalidDocumentError,
    KodairaDimension,
    KodairaFiber,
    MarkedConfig,
    MultiplicityError,
    NotEllipticError,
    UnknownLambdaError,
    canonical_degree,
    chi,
    euler_number,
    is_rational,
    kodaira_dimension,
    surface_doc,
    surface_from_doc,
)
from ellfm.twists import multisection_index


def _fib(token, m=1):
    return KodairaFiber.from_token(token, m)


def base_config():
    return MarkedConfig(
        [
            (BasePoint(0), _fib("III*")),
            (BasePoint(1), _fib("I(2)")),
            (BasePoint.infinity(), _fib("I(1)")),
        ]
    )


def with_multiples(*ms):
    """Base config plus smooth multiple fibers at 2, 3, 4, ..."""
    extra = [(BasePoint(k + 2), _fib("smooth", m)) for k, m in enumerate(ms)]
    return MarkedConfig(tuple(base_config()) + tuple(extra))


def chi2_config(*ms):
    entries = [
        (BasePoint(0), _fib("II*")),
        (BasePoint(1), _fib("II*")),
        (BasePoint(2), _fib("II")),
        (BasePoint.infinity(), _fib("II")),
    ]
    entries += [(BasePoint(k + 3), _fib("smooth", m)) for k, m in enumerate(ms)]
    return MarkedConfig(entries)


class TestEulerAndChi:
    def test_base_euler(self):
        assert euler_number(base_config()) == 9 + 2 + 1

    def test_twisted_euler_unchanged(self):
        assert euler_number(with_multiples(11)) == 12

    def test_empty_config_euler_zero(self):
        assert euler_number(MarkedConfig()) == 0

    def test_chi_values(self):
        assert chi(base_config()) == 1
        assert chi(chi2_config()) == 2  # 10 + 10 + 2 + 2 = 24

    def test_chi_rejects_non_multiple_of_twelve(self):
        bad = MarkedConfig([(BasePoint(0), _fib("III*")), (BasePoint(1), _fib("IV"))])
        assert euler_number(bad) == 13
        with pytest.raises(NotEllipticError):
            chi(bad)


class TestCanonicalDegree:
    def test_section_bearing_base(self):
        assert canonical_degree(base_config()) == Fraction(-1)

    def test_single_multiple_fiber(self):
        for p in (2, 3, 5, 7, 11, 101):
            assert canonical_degree(with_multiples(p)) == Fraction(-1, p)

    def test_dolgachev_type(self):
        assert canonical_degree(with_multiples(2, 3)) == Fraction(1, 6)


class TestKodairaDimension:
    def test_negative(self):
        assert kodaira_dimension(with_multiples(11)) is KodairaDimension.MINUS_INFINITY

    def test_zero(self):
        assert kodaira_dimension(with_multiples(2, 2)) is KodairaDimension.ZERO

    def test_positive(self):
        assert kodaira_dimension(with_multiples(2, 3)) is KodairaDimension.ONE

    def test_trichotomy_matches_sign_on_grid(self):
        vectors = [(), (2,), (3,), (5,), (2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2), (2, 2, 3)]
        for builder in (with_multiples, chi2_config):
            for ms in vectors:
                cfg = builder(*ms)
                degree = canonical_degree(cfg)
                kd = kodaira_dimension(cfg)
                if degree < 0:
                    assert kd is KodairaDimension.MINUS_INFINITY
                elif degree == 0:
                    assert kd is KodairaDimension.ZERO
                else:
                    assert kd is KodairaDimension.ONE


class TestRationality:
    def test_base_and_twist_are_rational(self):
        assert is_rational(base_config())
        assert is_rational(with_multiples(11))

    def test_dolgachev_type_is_not(self):
        assert not is_rational(with_multiples(2, 3))

    def test_chi_two_is_not(self):
        assert not is_rational(chi2_config())


class TestSurfaceConstruction:
    def test_section_forbids_multiple_fibers(self):
        with pytest.raises(MultiplicityError):
            EllipticSurface(with_multiples(2), has_section=True)

    def test_empty_config_is_degenerate(self):
        with pytest.raises(DegenerateSurfaceError):
            EllipticSurface(MarkedConfig())

    def test_euler_must_be_multiple_of_twelve(self):
        bad = MarkedConfig([(BasePoint(0), _fib("III*")), (BasePoint(1), _fib("IV"))])
        with pytest.raises(NotEllipticError):
            EllipticSurface(bad)

    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicatePointError):
            MarkedConfig([(BasePoint(0), _fib("I(1)")), (BasePoint(0), _fib("II"))])

    def test_marked_plain_smooth_rejected(self):
        with pytest.raises(InvalidConfigError):
            MarkedConfig([(BasePoint(0), _fib("smooth", 1))])

    def test_name_does_not_affect_equality(self):
        a = EllipticSurface(base_config(), has_section=True, name="one")
        b = EllipticSurface(base_config(), has_section=True, name="two")
        assert a == b
        assert hash(a) == hash(b)

    def test_multisection_index_of_raw_surfaces(self):
        sectioned = EllipticSurface(base_config(), has_section=True)
        assert multisection_index(sectioned) == 1
        raw = EllipticSurface(with_multiples(2, 3))
        with pytest.raises(UnknownLambdaError):
            multisection_index(raw)


class TestSerialization:
    def test_round_trip(self):
        surface = EllipticSurface(with_multiples(11), name="order-11 twist")
        doc = surface_doc(surface)
        rebuilt = surface_from_doc(doc)
        assert rebuilt == surface
        assert rebuilt.name == "order-11 twist"

    def test_doc_is_sorted_by_point(self):
        doc = surface_doc(EllipticSurface(with_multiples(11)))
        assert [f["point"] for f in doc["fibers"]] == ["0", "1", "2", "inf"]

    def test_extra_keys_ignored(self):
        doc = surface_doc(EllipticSurface(base_config(), has_section=True))
        doc["rational"] = True
        assert surface_from_doc(doc).has_section

    def test_malformed_documents(self):
        with pytest.raises(InvalidDocumentError):
            surface_from_doc({"has_section": True})
        with pytest.raises(InvalidDocumentError):
            surface_from_doc({"has_section": "yes", "fibers": []})
        with pytest.raises(InvalidDocumentError):
            surface_from_doc(
                {"has_section": False, "fibers": [{"point": "0", "kind": "V", "multiplicity": 1}]}
            )

    def test_deserialization_revalidates(self):
        doc = {
            "has_section": False,
            "fibers": [
                {"point": "0", "kind": "III*", "multiplicity": 1},
                {"point": "1", "kind": "IV", "multiplicity": 1},
            ],
        }
        with pytest.raises(NotEllipticError):
            surface_from_doc(doc)
