import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_key
from ellfm import BasePoint, MobiusMap
from ellfm.projective import reduce_pair, zero_one_inf_entries

_HUGE = 10**400  # past float range, so a float shortcut would lose the order


# Small coordinates make equal values (and (k, 0) infinities) common; huge ones
# differ only far past the precision of a float.
_COORDINATES = st.one_of(
    st.integers(-6, 6),
    st.integers(-_HUGE - 3, -_HUGE + 3),
    st.integers(_HUGE - 3, _HUGE + 3),
    st.integers(-(2 * _HUGE), 2 * _HUGE),
)
points = st.tuples(_COORDINATES, _COORDINATES).filter(lambda pair: pair != (0, 0)).map(lambda pair: BasePoint(*pair))

# Matrix entries up to 10**40 as a common factor times entries: zeros and
# small values make degenerate and negative-lead matrices common.
_ENTRY = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**20), 10**20))
_FACTOR = st.one_of(st.integers(-6, 6), st.integers(-(10**20), 10**20)).filter(bool)
_BIG = 10**40


def _reference_normal_form(entries):
    """Divide by the gcd, then make the first nonzero entry positive."""
    g = math.gcd(*entries)
    scaled = [x // g for x in entries]
    sign = -1 if next(x for x in scaled if x) < 0 else 1
    return tuple(sign * x for x in scaled)


class TestBasePoint:
    def test_reduction(self):
        assert BasePoint(2, 4) == BasePoint(1, 2)
        assert BasePoint(-1, -2) == BasePoint(1, 2)
        assert BasePoint(3, -6) == BasePoint(-1, 2)

    def test_infinity_is_canonical(self):
        assert BasePoint(5, 0) == BasePoint.infinity()
        assert BasePoint.infinity().is_infinity
        assert (BasePoint.infinity().num, BasePoint.infinity().den) == (1, 0)

    def test_zero_zero_rejected(self):
        with pytest.raises(ValueError):
            BasePoint(0, 0)

    def test_parse_and_str(self):
        assert BasePoint.parse("inf") == BasePoint.infinity()
        assert BasePoint.parse("3/6") == BasePoint(1, 2)
        assert str(BasePoint.parse("-3/2")) == "-3/2"
        assert str(BasePoint(7)) == "7"
        assert str(BasePoint.infinity()) == "inf"

    @settings(max_examples=300, deadline=None)
    @given(points)
    def test_parse_reads_back_the_text_of_every_point(self, point):
        assert BasePoint.parse(str(point)) == point

    def test_parse_zero_denominator_is_value_error(self):
        for text in ("1/0", "0/0", "-3/0"):
            with pytest.raises(ValueError):
                BasePoint.parse(text)

    def test_parse_accepts_only_integer_and_ratio_forms(self):
        # Fraction would read all of these; exponent forms also cost time super-linear in the exponent.
        for text in ("1e4000000", "1e5", "0.5", "+3", "1_000"):
            with pytest.raises(ValueError, match=r"^Invalid literal for Fraction: "):
                BasePoint.parse(text)

    def test_sort_key_puts_infinity_last(self):
        pts = [BasePoint.infinity(), BasePoint(1), BasePoint(-2), BasePoint(1, 2)]
        ordered = sorted(pts, key=BasePoint.sort_key)
        assert ordered == [BasePoint(-2), BasePoint(1, 2), BasePoint(1), BasePoint.infinity()]

    @settings(max_examples=500, deadline=None)
    @given(points, points)
    def test_less_than_agrees_with_the_reference_key(self, a, b):
        assert (a < b) is (reference_key(a) < reference_key(b))
        assert (b < a) is (reference_key(b) < reference_key(a))
        assert not a < a

    def test_less_than_on_huge_and_infinite_points(self):
        assert BasePoint(_HUGE, _HUGE + 1) < BasePoint(_HUGE + 1, _HUGE + 2)
        assert BasePoint(-_HUGE) < BasePoint(-1, _HUGE) < BasePoint(0) < BasePoint(1, _HUGE) < BasePoint(_HUGE)
        assert BasePoint(_HUGE) < BasePoint(-5, 0)
        assert not BasePoint(1, 0) < BasePoint(-5, 0) and not BasePoint(-5, 0) < BasePoint(1, 0)

    def test_sort_key_is_the_point_itself(self):
        point = BasePoint(-3, 2)
        assert point.sort_key() is point

    def test_less_than_refuses_other_types(self):
        for other in (2, Fraction(1, 2), None, (1, 1)):
            with pytest.raises(TypeError):
                BasePoint(1) < other
            with pytest.raises(TypeError):
                other < BasePoint(1)

    def test_bool_coordinates_are_refused(self):
        # A bool is an int subclass; accepted, BasePoint(True, 2) would be 1/2.
        for coordinates in ((True, 2), (1, True), (False,), (2.0, 1), (Fraction(1), 1)):
            with pytest.raises(TypeError, match=r"^BasePoint coordinates must be integers$"):
                BasePoint(*coordinates)

    def test_from_rational_takes_an_int_or_a_fraction(self):
        assert BasePoint.from_rational(-3) == BasePoint(-3)
        assert BasePoint.from_rational(Fraction(6, -4)) == BasePoint(-3, 2)

    @pytest.mark.parametrize("value", [True, False, 0.1, 2.0, "2/4", None])
    def test_from_rational_refuses_anything_else(self, value):
        # Through Fraction(value), True was the point 1, 0.1 the float's binary
        # value and "2/4" a parsed string.
        with pytest.raises(TypeError, match=r"^BasePoint.from_rational takes an int or a Fraction$"):
            BasePoint.from_rational(value)

    def test_reduce_pair_agrees_with_the_constructor(self):
        rng = random.Random(11)
        pairs = [(0, 1), (0, -5), (7, 0), (-7, 0), (6, -4), (-6, -4)]
        pairs += [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(500)]
        for u, v in pairs:
            if u == v == 0:
                continue
            point = BasePoint(u, v)
            assert reduce_pair(u, v) == (point.num, point.den), (u, v)
        with pytest.raises(ValueError):
            reduce_pair(0, 0)


ZERO = BasePoint(0)
ONE = BasePoint(1)
INF = BasePoint.infinity()


def _to_zero_one_inf(*triple):
    """The map sending the three points to (0, 1, inf), from its raw normal form."""
    return MobiusMap(*zero_one_inf_entries(*((z.num, z.den) for z in triple)))


class TestMobiusMap:
    def test_identity(self):
        ident = MobiusMap.identity()
        assert ident == MobiusMap.identity()
        assert ident(BasePoint(5, 7)) == BasePoint(5, 7)
        assert ident(INF) == INF

    def test_scaling_normalizes(self):
        assert MobiusMap(2, 0, 0, 2) == MobiusMap.identity()
        assert MobiusMap(-1, 0, 0, -1) == MobiusMap.identity()

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            MobiusMap(1, 2, 2, 4)

    def test_to_zero_one_inf(self):
        for triple in [
            (ZERO, ONE, INF),
            (INF, ZERO, ONE),
            (BasePoint(2), BasePoint(1, 2), BasePoint(-3)),
            (BasePoint(5), INF, BasePoint(7)),
        ]:
            m = _to_zero_one_inf(*triple)
            assert m(triple[0]) == ZERO
            assert m(triple[1]) == ONE
            assert m(triple[2]) == INF

    def test_to_zero_one_inf_entries_are_unchanged(self):
        # Canonical entries recorded before the formula moved to zero_one_inf_entries.
        recorded = {
            (ZERO, ONE, INF): (1, 0, 0, 1),
            (INF, ZERO, ONE): (0, 1, -1, 1),
            (BasePoint(2), BasePoint(1, 2), BasePoint(-3)): (7, -14, -3, -9),
            (BasePoint(5), INF, BasePoint(7)): (1, -5, 1, -7),
        }
        for triple, entries in recorded.items():
            assert _to_zero_one_inf(*triple).entries() == entries
            assert MobiusMap.through_triples(triple, (ZERO, ONE, INF)).entries() == entries

    def test_through_triples(self):
        src = (ZERO, ONE, INF)
        dst = (ONE, INF, ZERO)
        m = MobiusMap.through_triples(src, dst)
        for s, d in zip(src, dst):
            assert m(s) == d

    def test_inverse_and_compose(self):
        rng = random.Random(7)
        pool = [BasePoint(n, d) for n in range(-4, 5) for d in (1, 2, 3)] + [INF]
        pool = sorted(set(pool), key=BasePoint.sort_key)
        for _ in range(200):
            z = tuple(rng.sample(pool, 3))
            w = tuple(rng.sample(pool, 3))
            m = MobiusMap.through_triples(z, w)
            assert m.inverse().compose(m) == MobiusMap.identity()
            assert m.compose(m.inverse()) == MobiusMap.identity()
            # composition acts as function composition
            n = MobiusMap.through_triples(w, z)
            assert n.compose(m) == MobiusMap.identity()

    def test_apply_matches_affine_formula(self):
        m = MobiusMap(1, -1, 2, 3)  # z -> (z - 1)/(2z + 3)
        z = Fraction(5, 4)
        expected = (z - 1) / (2 * z + 3)
        assert m(BasePoint.from_rational(z)) == BasePoint.from_rational(expected)
        # pole goes to infinity
        assert m(BasePoint.from_rational(Fraction(-3, 2))) == INF
        assert m(INF) == BasePoint(1, 2)

    def test_triples_must_be_distinct(self):
        with pytest.raises(ValueError, match=r"^the three source points must be distinct$"):
            MobiusMap.through_triples((ZERO, ZERO, ONE), (ZERO, ONE, INF))

    @settings(max_examples=500, deadline=None)
    @given(st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY), _FACTOR)
    def test_entries_are_the_reference_normal_form(self, entries, factor):
        entries = tuple(factor * x for x in entries)
        a, b, c, d = entries
        if a * d == b * c:
            with pytest.raises(ValueError, match=r"^degenerate matrix does not define a Moebius map$"):
                MobiusMap(*entries)
        else:
            assert MobiusMap(*entries).entries() == _reference_normal_form(entries)

    def test_construction_errors_keep_their_messages(self):
        for entries in ((1.0, 0, 0, 1), (1, 0, 0, Fraction(1)), (1, "0", 0, 1), (0, 0, 0, None)):
            with pytest.raises(TypeError, match=r"^MobiusMap entries must be integers$"):
                MobiusMap(*entries)
        for entries in ((0, 0, 0, 0), (1, 2, 2, 4), (-(10**40), 10**40, 3, -3)):
            with pytest.raises(ValueError, match=r"^degenerate matrix does not define a Moebius map$"):
                MobiusMap(*entries)

    def test_bool_entries_are_refused(self):
        # A bool is an int subclass; accepted, it would stay in the repr and entries as True.
        for entries in ((True, 0, 0, True), (True, 0, 0, 1), (1, False, 0, 1), (2, 0, True, 1), (1, 0, 0, True)):
            with pytest.raises(TypeError, match=r"^MobiusMap entries must be integers$"):
                MobiusMap(*entries)

    def test_through_triples_equals_the_composed_normal_forms(self):
        rng = random.Random(17)

        def coordinate():
            return rng.choice((rng.randint(-5, 5), rng.randint(-_BIG, _BIG)))

        def triple():
            while True:
                pool = [INF] if rng.random() < 0.5 else []
                while len(pool) < 3:
                    num, den = coordinate(), coordinate()
                    if (num, den) != (0, 0):
                        pool.append(BasePoint(num, den))
                if len(set(pool)) == 3:
                    rng.shuffle(pool)
                    return tuple(pool)

        for _ in range(300):
            source, target = triple(), triple()
            m = MobiusMap.through_triples(source, target)
            expected = _to_zero_one_inf(*target).inverse().compose(_to_zero_one_inf(*source))
            assert m == expected
            assert tuple(m(z) for z in source) == target

    def test_through_triples_refuses_a_repeated_point_in_either_triple(self):
        distinct = (ZERO, ONE, INF)
        huge = BasePoint(_BIG + 1, 3)
        for repeated in ((ZERO, ZERO, ONE), (ONE, INF, INF), (INF, ONE, INF), (huge, BasePoint(2 * _BIG + 2, 6), ONE)):
            for source, target in ((repeated, distinct), (distinct, repeated), (repeated, repeated)):
                with pytest.raises(ValueError, match=r"^the three source points must be distinct$"):
                    MobiusMap.through_triples(source, target)
