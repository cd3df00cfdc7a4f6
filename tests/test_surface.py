import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_marked_config
from ellfm import (
    DEFAULT_ENTRY,
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
    catalog_get,
    chi,
    enumerate_partners,
    euler_number,
    is_rational,
    kodaira_dimension,
    order_p_twist,
    surface_doc,
    surface_from_doc,
)
from ellfm.fibers import euler_contribution
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

    @pytest.mark.parametrize(
        "entry",
        [
            (0, _fib("I(1)")),
            (BasePoint(0), "I(1)"),
            (None, _fib("II")),
            (BasePoint(0), None),
            (BasePoint(0), _fib("I(1)"), _fib("II")),
            BasePoint(0),
        ],
    )
    def test_entries_of_the_wrong_type_raise_type_error(self, entry):
        # The types are checked before the entries are sorted by their points.
        with pytest.raises(TypeError, match=r"config entries must be \(BasePoint, KodairaFiber\) pairs"):
            MarkedConfig([(BasePoint(1), _fib("I(2)")), entry])

    def test_list_entries_are_stored_as_tuples(self):
        config = MarkedConfig([[BasePoint(1), _fib("I(2)")], [BasePoint(0), _fib("I(1)")]])
        assert config.entries == ((BasePoint(0), _fib("I(1)")), (BasePoint(1), _fib("I(2)")))
        assert all(type(entry) is tuple for entry in config.entries)
        assert hash(config) == hash(MarkedConfig(tuple(map(tuple, config.entries))))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"has_section": 1},
            {"has_section": 0},
            {"has_section": None},
            {"has_section": "yes"},
            {"name": None},
            {"name": 7},
            {"name": b"x"},
        ],
    )
    def test_section_flag_and_name_have_exact_types(self, kwargs):
        # Anything else would be written into a document that surface_from_doc refuses.
        with pytest.raises(TypeError, match="^has_section must be a bool and name a string$"):
            EllipticSurface(base_config(), **kwargs)

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

    def test_name_is_a_string_or_absent(self):
        doc = surface_doc(EllipticSurface(base_config(), has_section=True))
        del doc["name"]
        assert surface_from_doc(doc).name == ""
        for name in (None, {"a": [1]}, 3, ["x"], True):
            with pytest.raises(InvalidDocumentError, match="^malformed surface document: name must be a string$"):
                surface_from_doc(dict(doc, name=name))
        # The lookup order stands: a non-mapping document fails on its first lookup.
        with pytest.raises(InvalidDocumentError, match="'list' object has no attribute 'get'"):
            surface_from_doc([doc])

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


# -- invariants are derived once per configuration ---------------------------

# Euler numbers of the fixed Kodaira types; I(n) gives n and I*(n) gives n + 6.
_EULER_TABLE = {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}


def _table_euler(fiber):
    token = fiber.token()
    if token.startswith("I*("):
        return int(token[3:-1]) + 6
    if token.startswith("I("):
        return int(token[2:-1])
    return _EULER_TABLE[token]


@st.composite
def _configs(draw):
    """A randomized rigidity configuration plus multiple I(n) and smooth
    fibers, sometimes padded with I(1) fibers to a multiple of 12."""
    config = random_marked_config(random.Random(draw(st.integers(0, 2**32 - 1))))
    multiples = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(2, 7)), max_size=4))
    config = MarkedConfig(
        config.entries
        + tuple((BasePoint(100 + k), _fib(f"I({n})", m)) for k, (n, m) in enumerate(multiples))
    )
    if draw(st.booleans()):
        pad = -sum(_table_euler(f) for _, f in config) % 12
        config = MarkedConfig(
            config.entries + tuple((BasePoint(200 + k), _fib("I(1)")) for k in range(pad))
        )
    return config


def _read_all(config):
    """The five readers' values, with NotEllipticError as a value."""
    values = [euler_number(config)]
    for reader in (chi, canonical_degree, kodaira_dimension, is_rational):
        try:
            values.append(reader(config))
        except NotEllipticError as exc:
            values.append(type(exc))
    return values


class TestDerivedOnce:
    @settings(max_examples=200, deadline=None)
    @given(_configs())
    def test_readers_match_the_formulas_on_every_read(self, config):
        e = sum(_table_euler(fiber) for _, fiber in config)
        ms = [fiber.multiplicity for _, fiber in config if fiber.multiplicity > 1]
        for _ in range(2):
            assert euler_number(config) == e
            if e % 12:
                for reader in (chi, canonical_degree, kodaira_dimension, is_rational):
                    with pytest.raises(NotEllipticError):
                        reader(config)
                continue
            degree = Fraction(e // 12 - 2) + sum(1 - Fraction(1, m) for m in ms)
            kappa = (
                KodairaDimension.MINUS_INFINITY
                if degree < 0
                else KodairaDimension.ZERO if degree == 0 else KodairaDimension.ONE
            )
            assert chi(config) == e // 12
            assert canonical_degree(config) == degree
            assert kodaira_dimension(config) is kappa
            assert is_rational(config) is (e == 12 and degree < 0)

    @settings(max_examples=100, deadline=None)
    @given(_configs())
    def test_cache_stays_out_of_equality_hash_and_repr(self, config):
        twin = MarkedConfig(reversed(config.entries))
        assert twin == config and hash(twin) == hash(config) and repr(twin) == repr(config)
        values = _read_all(config)
        assert twin == config and hash(twin) == hash(config) and repr(twin) == repr(config)
        assert _read_all(twin) == values
        assert twin == config and hash(twin) == hash(config) and repr(twin) == repr(config)

    @pytest.mark.parametrize("entry", [DEFAULT_ENTRY, "twelve-I1"])
    def test_partner_invariants_sum_the_euler_table_once(self, monkeypatch, entry):
        twisted = order_p_twist(catalog_get(entry).surface, 101)
        calls = []

        def counting(fiber):
            calls.append(fiber)
            return euler_contribution(fiber)

        monkeypatch.setattr("ellfm.surface.euler_contribution", counting)
        partners = enumerate_partners(twisted)
        for partner in partners:
            euler_number(partner)
            chi(partner)
            canonical_degree(partner)
            kodaira_dimension(partner)
            is_rational(partner)
        assert len(partners) == 100
        assert len(calls) <= sum(len(partner.config) for partner in partners)


class TestDocumentRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_configs(), st.booleans(), st.text())
    def test_every_written_document_reads_back(self, config, has_section, name):
        e = euler_number(config)
        assume(e > 0 and e % 12 == 0)
        surface = EllipticSurface(config, has_section=has_section and not config.multiplicities, name=name)
        rebuilt = surface_from_doc(json.loads(json.dumps(surface_doc(surface))))
        assert rebuilt == surface
        assert rebuilt.name == name
