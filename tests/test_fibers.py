import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        with pytest.raises(ValueError, match=r"^I\*\(n\) requires n >= 0$"):
            KodairaFiber(FiberKind.I_STAR, -1)

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

    @pytest.mark.parametrize("kind, index", [("II", 0), (None, 0), ("I", 1)])
    def test_kind_must_be_a_fiber_kind(self, kind, index):
        # Built, such a fiber would fail only when read: its token and its
        # Euler contribution look the kind up in the per-kind tables.
        with pytest.raises(TypeError, match="^fiber kind must be a FiberKind, got "):
            KodairaFiber(kind, index)

    def test_multiplicity_must_be_positive(self):
        with pytest.raises(MultiplicityError):
            KodairaFiber(FiberKind.I, 1, 0)

    def test_token_round_trip(self):
        for token in ("I(1)", "I(7)", "I*(0)", "I*(3)", "II", "III", "IV", "II*", "III*", "IV*"):
            assert KodairaFiber.from_token(token).token() == token
        assert KodairaFiber.from_token("smooth").token() == "I(0)"
        assert KodairaFiber.from_token("I(0)").kind is FiberKind.SMOOTH

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_every_fiber_reads_back_from_its_token(self, data):
        # Every kind, index 0-50 where the kind takes one, and multiplicity
        # where it may occur: from_token parses what the token table writes.
        kind = data.draw(st.sampled_from(FiberKind))
        indexed = kind in (FiberKind.I, FiberKind.I_STAR)
        index = data.draw(st.integers(1 if kind is FiberKind.I else 0, 50)) if indexed else 0
        multiple = kind in (FiberKind.SMOOTH, FiberKind.I)
        multiplicity = data.draw(st.integers(1, 10**6)) if multiple else 1
        fiber = KodairaFiber(kind, index, multiplicity)
        read = KodairaFiber.from_token(fiber.token(), multiplicity)
        assert read == fiber and hash(read) == hash(fiber)

    def test_kinds_hash_by_identity_and_survive_pickling(self):
        for kind in FiberKind:
            assert hash(kind) == object.__hash__(kind)
            assert pickle.loads(pickle.dumps(kind)) is kind is FiberKind(kind.value)

    def test_unknown_token(self):
        for token in ("V", "I(\u0662)", "I*(\u0662)"):  # Arabic-Indic digit two is not ASCII
            with pytest.raises(ValueError):
                KodairaFiber.from_token(token)
