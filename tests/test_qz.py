import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellfm import DEFAULT_ENTRY, BasePoint, QZ, QZPair, TwistClass, catalog_get
from ellfm.qz import Torsion


def brute_order(a):
    """Independent order oracle: repeated addition until the identity."""
    n, acc = 1, a
    while acc:
        acc = acc + a
        n += 1
    return n


@st.composite
def qz_elements(draw, max_den=1000):
    den = draw(st.integers(min_value=1, max_value=max_den))
    num = draw(st.integers(min_value=0, max_value=den - 1))
    return QZ(num, den)


class TestBasics:
    def test_small_denominator_addition(self):
        assert QZ(1, 3) + QZ(1, 3) == QZ(2, 3)

    def test_order_two_element_doubles_to_identity(self):
        assert QZ(1, 2) + QZ(1, 2) == QZ(0, 1)

    def test_addition_matches_integer_arithmetic(self):
        # oracle: (3 + 9) mod 11 = 1
        assert QZ(3, 11) + QZ(9, 11) == QZ((3 + 9) % 11, 11)

    def test_reduction_at_construction(self):
        a = QZ(4, 6)
        assert (a.numerator, a.denominator) == (2, 3)
        assert a.order == 3 == brute_order(a)

    def test_orders(self):
        assert QZ(0, 1).order == 1
        assert QZ(1, 11).order == 11

    def test_scalar_multiples(self):
        assert 2 * QZ(1, 11) == QZ(2, 11)
        assert 11 * QZ(1, 11) == QZ(0, 1)
        assert 5 * QZ(3, 11) == QZ(15 % 11, 11)

    def test_negative_numerator_normalizes(self):
        assert QZ(-1, 3) == QZ(2, 3)

    def test_bool_components_are_refused(self):
        # A bool is an int subclass; accepted, QZ(True, 3) would be 1/3.
        for components in ((True, 3), (1, True), (False,), (1.0, 3), (Fraction(1), 3)):
            with pytest.raises(TypeError, match=r"^QZ components must be integers$"):
                QZ(*components)

    def test_pair_components_must_be_qz_values(self):
        # Accepted, a pair with a string component would fail only inside
        # twist, reading the component's order.
        for components in ((QZ(1, 3), "x"), ("x", QZ()), (True, QZ()), (QZ(), 0), (QZ(), Fraction(1, 3))):
            with pytest.raises(TypeError, match=r"^QZPair components must be QZ values$"):
                QZPair(*components)

    def test_invalid_denominator(self):
        with pytest.raises(ValueError):
            QZ(1, 0)
        with pytest.raises(ValueError):
            QZ(1, -2)

    def test_str_is_reduced_fraction(self):
        # Twist data print as "a/m" with 0 <= a < m and gcd(a, m) = 1.
        assert str(QZ(3, 11)) == "3/11"
        assert str(QZ(-1, 3)) == "2/3"
        assert str(QZ(4, 6)) == "2/3"
        assert str(QZ(5, 5)) == "0/1"
        assert str(QZPair(QZ(1, 11), QZ())) == "(1/11, 0/1)"


class TestGroupAxioms:
    @given(qz_elements(), qz_elements(), qz_elements())
    def test_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(qz_elements(), qz_elements())
    def test_commutative(self, a, b):
        assert a + b == b + a

    @given(qz_elements())
    def test_identity_and_inverse(self, a):
        assert a + QZ(0, 1) == a
        assert a + (-a) == QZ(0, 1)
        inv = -a
        if a:
            assert (inv.numerator, inv.denominator) == (
                a.denominator - a.numerator,
                a.denominator,
            )

    @settings(max_examples=200)
    @given(qz_elements(max_den=200), st.integers(min_value=-400, max_value=400))
    def test_scalar_order_formula(self, a, i):
        expected = a.order // math.gcd(i, a.order)
        scaled = i * a
        assert scaled.order == expected
        assert brute_order(scaled) == expected


class TestPairs:
    def test_order_is_lcm(self):
        pair = QZPair(QZ(1, 4), QZ(1, 6))
        assert pair.order == 12

    def test_zero_pair(self):
        assert not QZPair()
        assert QZPair().order == 1

    @given(qz_elements(max_den=60), qz_elements(max_den=60), st.integers(-100, 100))
    def test_componentwise_scalar(self, x, y, i):
        pair = QZPair(x, y)
        assert i * pair == QZPair(i * x, i * y)
        assert pair + (-pair) == QZPair()

    @given(qz_elements(max_den=60), qz_elements(max_den=60), st.integers(-150, 150))
    def test_pair_order_formula(self, x, y, i):
        pair = QZPair(x, y)
        assert (i * pair).order == pair.order // math.gcd(i, pair.order)

    @given(
        st.one_of(st.just(QZ()), qz_elements(max_den=60)),
        st.one_of(st.just(QZ()), qz_elements(max_den=60)),
        st.integers(-60, 60),
        st.integers(-3, 3),
    )
    @example(QZ(1, 7), QZ(), 0, 0)
    @example(QZ(), QZ(2, 9), -4, 0)
    @example(QZ(1, 4), QZ(5, 6), 0, -2)
    @example(QZ(), QZ(), 5, 0)
    def test_scaling_and_order_match_fractions(self, x, y, k, multiple):
        # The reference is Fraction arithmetic mod 1; ``multiple`` != 0 makes k a multiple of the order.
        first, second = Fraction(x.numerator, x.denominator), Fraction(y.numerator, y.denominator)
        order = math.lcm(first.denominator, second.denominator)
        k = multiple * order if multiple else k
        pair = QZPair(x, y)
        assert pair.order == order
        a, b = k * first % 1, k * second % 1
        scaled = k * pair
        assert scaled == QZPair(QZ(a.numerator, a.denominator), QZ(b.numerator, b.denominator))
        assert scaled.order == math.lcm(a.denominator, b.denominator)
        assert bool(scaled) == (k % order != 0)
        # A zero component is kept as it is, not rebuilt.
        assert (scaled.first is x) == (not x) and (scaled.second is y) == (not y)


# One sample of each torsion type; the class lives on the default base, with
# a QZ datum at its I(2) fiber and a QZPair datum at a smooth point.
TORSION_SAMPLES = {
    "QZ": lambda: QZ(3, 7),
    "QZPair": lambda: QZPair(QZ(1, 4), QZ(5, 6)),
    "TwistClass": lambda: TwistClass(
        catalog_get(DEFAULT_ENTRY).surface,
        ((BasePoint(1), QZ(1, 2)), (BasePoint(2), QZPair(QZ(1, 3), QZ(2, 5)))),
    ),
}


@pytest.mark.parametrize("make", TORSION_SAMPLES.values(), ids=TORSION_SAMPLES.keys())
class TestTorsionLaw:
    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(-40, 40), n=st.integers(-40, 40))
    def test_identities(self, make, m, n):
        x = make()
        assert -x == (-1) * x == x * -1
        assert not x + (-x)
        assert n * x == x * n
        assert (m + n) * x == m * x + n * x

    def test_other_operands_are_refused(self, make):
        x = make()
        for other in TORSION_SAMPLES.values():
            if type(y := other()) is not type(x):
                with pytest.raises(TypeError):
                    x + y
        for scalar in (2.0, True, False, Fraction(2), "2"):
            with pytest.raises(TypeError):
                scalar * x
            with pytest.raises(TypeError):
                x * scalar


def test_the_group_law_is_written_once():
    for cls in (QZ, QZPair, TwistClass):
        assert issubclass(cls, Torsion)
        assert not {"__add__", "__neg__", "__mul__", "__rmul__"} & set(vars(cls))
