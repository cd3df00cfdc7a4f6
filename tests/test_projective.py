import random
from fractions import Fraction

import pytest

from ellfm import BasePoint, MobiusMap


class TestBasePoint:
    def test_reduction(self):
        assert BasePoint(2, 4) == BasePoint(1, 2)
        assert BasePoint(-1, -2) == BasePoint(1, 2)
        assert BasePoint(3, -6) == BasePoint(-1, 2)

    def test_infinity_is_canonical(self):
        assert BasePoint(5, 0) == BasePoint.infinity()
        assert BasePoint.infinity().is_infinity
        assert BasePoint.infinity().value is None

    def test_zero_zero_rejected(self):
        with pytest.raises(ValueError):
            BasePoint(0, 0)

    def test_parse_and_str(self):
        assert BasePoint.parse("inf") == BasePoint.infinity()
        assert BasePoint.parse("3/6") == BasePoint(1, 2)
        assert str(BasePoint.parse("-3/2")) == "-3/2"
        assert str(BasePoint(7)) == "7"
        assert str(BasePoint.infinity()) == "inf"

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

    def test_value(self):
        assert BasePoint(3, 4).value == Fraction(3, 4)


ZERO = BasePoint(0)
ONE = BasePoint(1)
INF = BasePoint.infinity()


class TestMobiusMap:
    def test_identity(self):
        ident = MobiusMap.identity()
        assert ident.is_identity
        assert ident(BasePoint(5, 7)) == BasePoint(5, 7)
        assert ident(INF) == INF

    def test_scaling_normalizes(self):
        assert MobiusMap(2, 0, 0, 2).is_identity
        assert MobiusMap(-1, 0, 0, -1).is_identity

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
            m = MobiusMap.to_zero_one_inf(*triple)
            assert m(triple[0]) == ZERO
            assert m(triple[1]) == ONE
            assert m(triple[2]) == INF

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
            assert (m.inverse() @ m).is_identity
            assert (m @ m.inverse()).is_identity
            # composition acts as function composition
            n = MobiusMap.through_triples(w, z)
            assert (n @ m).is_identity

    def test_apply_matches_affine_formula(self):
        m = MobiusMap(1, -1, 2, 3)  # z -> (z - 1)/(2z + 3)
        z = Fraction(5, 4)
        expected = (z - 1) / (2 * z + 3)
        assert m(BasePoint.from_rational(z)).value == expected
        # pole goes to infinity
        assert m(BasePoint.from_rational(Fraction(-3, 2))) == INF
        assert m(INF) == BasePoint(1, 2)

    def test_triples_must_be_distinct(self):
        with pytest.raises(ValueError):
            MobiusMap.to_zero_one_inf(ZERO, ZERO, ONE)
