import pytest

from ellfm import (
    FiberKind,
    KodairaFiber,
    MultiplicityError,
    QZ,
    QZPair,
    euler_contribution,
    local_twist_group,
)


class TestEulerTable:
    def test_rigid_base_configuration_forces_table_values(self):
        # e(I_1) and e(III*) are forced by e(III*) + e(I_2) + e(I_1) = 12
        # together with e(I_n) = n.
        assert euler_contribution(KodairaFiber.from_token("I(1)")) == 1
        assert euler_contribution(KodairaFiber.from_token("III*")) == 12 - 2 - 1

    def test_multiple_smooth_fiber_contributes_nothing(self):
        assert euler_contribution(KodairaFiber.from_token("smooth", 11)) == 0

    def test_in_is_linear(self):
        for n in range(1, 51):
            assert euler_contribution(KodairaFiber(FiberKind.I, n)) == n

    def test_istar_is_n_plus_six(self):
        for n in range(0, 20):
            assert euler_contribution(KodairaFiber(FiberKind.I_STAR, n)) == n + 6

    def test_fixed_types(self):
        expected = {"II": 2, "III": 3, "IV": 4, "II*": 10, "III*": 9, "IV*": 8}
        for token, value in expected.items():
            assert euler_contribution(KodairaFiber.from_token(token)) == value

    def test_multiplicity_independent(self):
        assert euler_contribution(KodairaFiber(FiberKind.I, 3, 5)) == euler_contribution(
            KodairaFiber(FiberKind.I, 3, 1)
        )
        assert euler_contribution(KodairaFiber(FiberKind.SMOOTH, 0, 7)) == 0


class TestLocalTwistGroups:
    def test_smooth_has_rank_two(self):
        assert local_twist_group(KodairaFiber(FiberKind.SMOOTH)) is QZPair

    def test_cycle_has_rank_one(self):
        # H_1 of a cycle of rational curves is Z, so H_1(., Q/Z) = Q/Z.
        assert local_twist_group(KodairaFiber(FiberKind.I, 3)) is QZ

    def test_additive_is_trivial(self):
        for token in ("II", "III", "IV", "II*", "III*", "IV*", "I*(0)", "I*(4)"):
            fiber = KodairaFiber.from_token(token)
            assert local_twist_group(fiber) is None

    def test_multiple_fiber_rejected(self):
        with pytest.raises(MultiplicityError):
            local_twist_group(KodairaFiber(FiberKind.SMOOTH, 0, 2))


class TestConstruction:
    def test_multiple_additive_fiber_rejected(self):
        with pytest.raises(MultiplicityError):
            KodairaFiber(FiberKind.III_STAR, 0, 2)
        with pytest.raises(MultiplicityError):
            KodairaFiber(FiberKind.I_STAR, 1, 3)

    def test_multiple_i_and_smooth_allowed(self):
        assert KodairaFiber(FiberKind.I, 2, 4).multiplicity == 4
        assert KodairaFiber(FiberKind.SMOOTH, 0, 11).multiplicity == 11

    def test_index_rules(self):
        with pytest.raises(ValueError):
            KodairaFiber(FiberKind.I, 0)
        with pytest.raises(ValueError):
            KodairaFiber(FiberKind.II, 1)
        assert KodairaFiber(FiberKind.I_STAR, 0).index == 0

    @pytest.mark.parametrize(
        "kind, index, multiplicity",
        [
            (FiberKind.I, True, 1),
            (FiberKind.I, 1, True),
            (FiberKind.SMOOTH, 0, True),
            (FiberKind.SMOOTH, False, 2),
            (FiberKind.I, 1.0, 1),
            (FiberKind.I, 1, 2.0),
        ],
    )
    def test_index_and_multiplicity_are_exact_ints(self, kind, index, multiplicity):
        # A bool would be written as the token "I(True)" or the JSON value true,
        # which the surface document reader refuses.
        with pytest.raises(TypeError, match="^fiber index and multiplicity must be integers$"):
            KodairaFiber(kind, index, multiplicity)

    def test_multiplicity_must_be_positive(self):
        with pytest.raises(MultiplicityError):
            KodairaFiber(FiberKind.I, 1, 0)

    def test_token_round_trip(self):
        for token in ("I(1)", "I(7)", "I*(0)", "I*(3)", "II", "III", "IV", "II*", "III*", "IV*"):
            assert KodairaFiber.from_token(token).token() == token
        assert KodairaFiber.from_token("smooth").token() == "I(0)"
        assert KodairaFiber.from_token("I(0)").kind is FiberKind.SMOOTH

    def test_unknown_token(self):
        for token in ("V", "I(\u0662)", "I*(\u0662)"):  # Arabic-Indic digit two is not ASCII
            with pytest.raises(ValueError):
                KodairaFiber.from_token(token)
