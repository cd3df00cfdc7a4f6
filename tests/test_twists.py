import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ellfm import (
    DEFAULT_ENTRY,
    AdditiveFiberError,
    BaseMismatchError,
    BasePoint,
    ClassificationMode,
    DuplicatePointError,
    EllfmError,
    EllipticSurface,
    InvalidBaseError,
    KodairaDimension,
    KodairaFiber,
    MarkedConfig,
    MobiusMap,
    NotCoprimeError,
    NotRigidError,
    QZ,
    QZPair,
    ShapeError,
    TwistClass,
    TwistedSurface,
    UnknownLambdaError,
    UnsupportedTwistError,
    aut_floor,
    canonical_degree,
    catalog_get,
    catalog_names,
    chi,
    classify_partners,
    enumerate_partners,
    euler_contribution,
    euler_number,
    is_rational,
    jacobian,
    kodaira_dimension,
    local_twist_group,
    multisection_index,
    order_p_twist,
    relative_jacobian_power,
    rigidity_check,
    surface_doc,
    surface_from_doc,
    twist,
    twist_class,
    validate_config,
)
from ellfm.twists import default_twist_point

from conftest import J_PROBE, J_PROBE_DETAIL, SHIODA_TATE_PROBE
from test_rigidity_search import _BIG

B = catalog_get(DEFAULT_ENTRY).surface
T0 = BasePoint(2)


def _probed_twist_point(base):
    """The reference: probe 0, 1, 2, ... against the marked points until one is free."""
    marked = base.config.fiber_map
    k = 0
    while BasePoint(k) in marked:
        k += 1
    return BasePoint(k)


def _i1_surface(points):
    """I(1) fibers at ``points``, padded with I(1) fibers at -100, -101, ... to Euler sum 12 or 24."""
    pad = -len(points) % 12 if points else 12
    points = list(points) + [BasePoint(-100 - k) for k in range(pad)]
    return EllipticSurface(MarkedConfig([(point, KodairaFiber.from_token("I(1)")) for point in points]))


@st.composite
def _twist_point_bases(draw):
    """A run 0..k-1 of marked integers (all of 0..11 at k = 12), some marked
    integers past it, negative integers, halves such as 1/2, and maybe inf."""
    points = {BasePoint(k) for k in range(draw(st.integers(0, 12)))}
    points |= {BasePoint(k) for k in draw(st.lists(st.integers(0, 14), max_size=3))}
    points |= {BasePoint(k) for k in draw(st.lists(st.integers(-20, -1), max_size=3))}
    points |= {BasePoint(2 * k + 1, 2) for k in draw(st.lists(st.integers(-20, 20), max_size=3))}
    if draw(st.booleans()):
        points.add(BasePoint.infinity())
    return _i1_surface(sorted(points))


# Points where the fiber of B is smooth (not marked: 0, 1, inf are taken).
SMOOTH_POOL = [
    BasePoint(2),
    BasePoint(3),
    BasePoint(4),
    BasePoint(-1),
    BasePoint(1, 2),
    BasePoint(5, 2),
    BasePoint(-2, 3),
]


def order_eleven_class():
    return twist_class(B, [(T0, QZPair(QZ(1, 11), QZ()))])


@st.composite
def small_qz(draw, max_den=60):
    den = draw(st.integers(min_value=1, max_value=max_den))
    num = draw(st.integers(min_value=0, max_value=den - 1))
    return QZ(num, den)


@st.composite
def twist_classes(draw):
    size = draw(st.integers(min_value=0, max_value=4))
    points = draw(st.permutations(SMOOTH_POOL))[:size]
    assignments = []
    for point in points:
        assignments.append((point, QZPair(draw(small_qz()), draw(small_qz()))))
    # occasionally support at the I(2) fiber of B as well
    if draw(st.booleans()):
        assignments.append((BasePoint(1), draw(small_qz())))
    return TwistClass(B, tuple(assignments))


class TestClassConstruction:
    def test_trivial_class(self):
        zero = TwistClass(B)
        assert not zero
        assert zero.order == 1
        assert zero.support == ()

    def test_order_eleven_element(self):
        xi = order_eleven_class()
        assert xi.order == 11
        assert len(xi.support) == 1

    def test_zero_datum_dropped(self):
        xi = twist_class(B, [(T0, QZPair(QZ(0), QZ(0)))])
        assert xi == TwistClass(B)

    def test_additive_point_rejected(self):
        with pytest.raises(AdditiveFiberError):
            twist_class(B, [(BasePoint(0), QZPair(QZ(1, 2), QZ()))])

    def test_shape_mismatch_at_smooth_point(self):
        with pytest.raises(ShapeError):
            twist_class(B, [(T0, QZ(1, 2))])

    def test_shape_mismatch_at_nodal_point(self):
        # the fiber of B at 1 has type I(2): its twist datum is a single Q/Z value
        with pytest.raises(ShapeError):
            twist_class(B, [(BasePoint(1), QZPair(QZ(1, 2), QZ()))])

    @pytest.mark.parametrize("name", catalog_names())
    def test_every_catalog_point_accepts_exactly_its_local_group(self, name):
        # At each marked fiber and at the default twist point, the one datum type
        # local_twist_group names is accepted and the other refused.
        base = catalog_get(name).surface
        data = {QZPair: QZPair(QZ(1, 3), QZ()), QZ: QZ(1, 3)}
        for point, fiber in (*base.config, (default_twist_point(base), None)):
            group = QZPair if fiber is None else local_twist_group(fiber)
            for kind, datum in data.items():
                if group is None:
                    with pytest.raises(AdditiveFiberError):
                        TwistClass(base, ((point, datum),))
                elif kind is group:
                    assert TwistClass(base, ((point, datum),)).support == ((point, datum),)
                else:
                    with pytest.raises(ShapeError):
                        TwistClass(base, ((point, datum),))

    def test_catalog_marks_cycle_and_additive_fibers(self):
        # Unmarked points, the default twist point included, carry the QZPair group.
        groups = {
            local_twist_group(fiber) for name in catalog_names() for _, fiber in catalog_get(name).surface.config
        }
        assert groups == {QZ, None}

    def test_tuple_datum_rejected(self):
        # A datum is a QZPair or QZ value; a bare tuple is not coerced.
        with pytest.raises(TypeError, match="^twist data must be QZ or QZPair values$"):
            twist_class(B, [(BasePoint(2), (QZ(1, 11), QZ()))])

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.sampled_from([BasePoint(0), BasePoint(1), BasePoint.infinity(), BasePoint(2), BasePoint(-1, 2)]),
                st.one_of(small_qz(12), st.builds(QZPair, small_qz(12), small_qz(12))),
            ),
            max_size=4,
        )
    )
    def test_constructor_builds_or_refuses(self, entries):
        # Any QZ/QZPair support over marked and unmarked points either builds
        # or raises an EllfmError (duplicate point, additive fiber, shape).
        try:
            xi = twist_class(B, entries)
        except EllfmError:
            return
        assert isinstance(xi, TwistClass)
        assert all(datum for _, datum in xi.support)

    def test_base_and_points_of_the_wrong_type(self):
        with pytest.raises(TypeError, match=r"^TwistClass base must be an EllipticSurface$"):
            TwistClass(B.config)
        with pytest.raises(TypeError, match=r"^support points must be BasePoint values$"):
            twist_class(B, [(2, QZPair(QZ(1, 11), QZ()))])

    def test_duplicate_support_point(self):
        with pytest.raises(DuplicatePointError):
            twist_class(B, [(T0, QZPair(QZ(1, 2), QZ())), (T0, QZPair(QZ(1, 3), QZ()))])

    def test_base_must_have_section(self):
        raw = EllipticSurface(
            MarkedConfig(tuple(B.config) + ((T0, KodairaFiber.from_token("smooth", 2)),))
        )
        with pytest.raises(InvalidBaseError):
            TwistClass(raw)

    def test_base_must_be_rational(self):
        chi2 = EllipticSurface(
            MarkedConfig(
                [
                    (BasePoint(0), KodairaFiber.from_token("II*")),
                    (BasePoint(1), KodairaFiber.from_token("II*")),
                    (BasePoint(2), KodairaFiber.from_token("II")),
                    (BasePoint(3), KodairaFiber.from_token("II")),
                ]
            ),
            has_section=True,
        )
        with pytest.raises(InvalidBaseError):
            TwistClass(chi2)

    def test_refusal_of_a_nameless_base_says_unnamed(self):
        # Named bases keep the corpus's `base '<name>'` detail (test_golden.py).
        kinds = ["II*", "II*", "II", "II"]
        doc = {"has_section": True, "fibers": [{"point": str(k), "kind": t} for k, t in enumerate(kinds)]}
        with pytest.raises(InvalidBaseError) as refusal:
            order_p_twist(surface_from_doc(doc), 5)
        assert str(refusal.value) == (
            "unnamed base is not a section-bearing configuration with Euler sum 12"
        )


# Fiber root lattice rank (components not meeting the zero section) per
# Kodaira type, from the dual graphs: A(n-1), D(n+4), 0, A1, A2, E6, E7, E8.
_ROOT_RANK = {"II": 0, "III": 1, "IV": 2, "IV*": 6, "III*": 7, "II*": 8}


def _root_rank(config):
    total = 0
    for _, fiber in config:
        token = fiber.token()
        if token.startswith("I*("):
            total += fiber.index + 4
        elif token.startswith("I("):
            total += fiber.index - 1
        else:
            total += _ROOT_RANK[token]
    return total


_GATE_TOKENS = [f"I({n})" for n in range(1, 10)] + [f"I*({n})" for n in range(5)] + list(_ROOT_RANK)


@st.composite
def euler_twelve_configs(draw):
    """One to five fibers padded with I(1) to Euler sum 12, or past it."""
    kinds = draw(st.lists(st.sampled_from(_GATE_TOKENS), min_size=1, max_size=5))
    fibers = [KodairaFiber.from_token(kind) for kind in kinds]
    euler = sum(euler_contribution(fiber) for fiber in fibers)
    fibers += [KodairaFiber.from_token("I(1)")] * max(0, 12 - euler)
    points = [BasePoint(k) for k in range(len(fibers) - 1)] + [BasePoint.infinity()]
    return MarkedConfig(zip(points, fibers))


class TestShiodaTateGate:
    def test_probe_is_refused_through_the_library(self):
        base = surface_from_doc(SHIODA_TATE_PROBE)
        assert not validate_config(base.config)
        with pytest.raises(InvalidBaseError) as refusal:
            order_p_twist(base, 11)
        assert str(refusal.value) == (
            "base 'probe' fails the Shioda-Tate bound s + a >= 4: "
            "s = 3 singular and a = 0 additive fibers give fiber root rank 9 > 8"
        )

    def test_j_probe_is_refused_through_the_library(self):
        base = surface_from_doc(J_PROBE)
        assert len(base.config) + base.config.additive_count >= 4  # passes Shioda-Tate
        assert not validate_config(base.config)
        with pytest.raises(InvalidBaseError) as refusal:
            order_p_twist(base, 11)
        assert str(refusal.value) == J_PROBE_DETAIL

    def test_constant_j_of_one_kind_passes(self):
        # An I*(0) fiber takes any j, so it sits beside III fibers (j = 1728).
        fibers = [KodairaFiber.from_token(kind) for kind in ("I*(0)", "III", "III")]
        assert validate_config(MarkedConfig(zip((BasePoint(0), BasePoint(1), BasePoint.infinity()), fibers)))

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_entries_pass(self, name):
        config = catalog_get(name).surface.config
        assert validate_config(config)
        assert _root_rank(config) <= 8

    def test_additive_count_is_derived_once_per_base(self, monkeypatch):
        import ellfm.surface

        calls = []
        original = ellfm.surface.local_twist_group
        monkeypatch.setattr(ellfm.surface, "local_twist_group", lambda f: calls.append(f) or original(f))
        base = surface_from_doc(surface_doc(B))  # a fresh configuration, nothing cached
        partners = enumerate_partners(order_p_twist(base, 101))
        assert len(partners) == 100
        assert len(calls) == len(base.config)

    @settings(max_examples=300, deadline=None)
    @given(config=euler_twelve_configs())
    @example(config=surface_from_doc(SHIODA_TATE_PROBE).config)
    def test_no_accepted_configuration_has_root_rank_above_eight(self, config):
        if validate_config(config):
            assert _root_rank(config) <= 8


# Every multiset of singular types with Euler sum 12, I(n) up to n = 12 and
# I*(n) up to n = 6, against the gate's rules written out here: Shioda-Tate
# s + a >= 4, and a constant j (no I(n) or I*(n) with n >= 1) that cannot be
# both 0 and 1728.  The counts live here, so a rewrite of the gate or of the
# automorphism floor cannot move them unnoticed.
_EULER = {f"I({n})": n for n in range(1, 13)} | {f"I*({n})": 6 + n for n in range(7)}
_EULER |= {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}
_J_ZERO, _J_1728 = {"II", "IV", "IV*", "II*"}, {"III", "III*"}


def _multisets(total, tokens=tuple(_EULER)):
    if total == 0:
        yield ()
        return
    for i, token in enumerate(tokens):
        if _EULER[token] <= total:
            yield from ((token,) + rest for rest in _multisets(total - _EULER[token], tokens[i:]))


EULER_TWELVE = list(_multisets(12))


def _census_config(tokens, points=None):
    points = points or [BasePoint(k) for k in range(len(tokens))]
    return MarkedConfig(zip(points, map(KodairaFiber.from_token, tokens)))


def _expected_verdict(tokens):
    """(accepted, floor) by the rules above, never by the library's tables."""
    singular, additive = len(tokens), sum(not token.startswith("I(") for token in tokens)
    varying_j = any(token.startswith("I(") or (token.startswith("I*(") and token != "I*(0)") for token in tokens)
    floor = 2 if varying_j else 4 if _J_1728 & set(tokens) else 6
    mixed_j = not varying_j and _J_ZERO & set(tokens) and _J_1728 & set(tokens)
    return singular + additive >= 4 and not mixed_j, floor


def _refusal(config):
    """The gate's detail for a section-bearing base on ``config``, or None."""
    try:
        TwistClass(EllipticSurface(config, has_section=True))
    except InvalidBaseError as refusal:
        return str(refusal)
    return None


class TestEveryEulerTwelveMultiset:
    def test_each_verdict_follows_the_rules(self):
        assert len(EULER_TWELVE) == 386
        floors = []
        for tokens in EULER_TWELVE:
            config = _census_config(tokens)
            accepted, floor = _expected_verdict(tokens)
            assert validate_config(config) == accepted, tokens
            assert aut_floor(config) == floor, tokens
            if accepted:
                floors.append(floor)
        assert len(floors) == 352
        assert (floors.count(2), floors.count(6), floors.count(4)) == (339, 10, 3)

    @settings(max_examples=200, deadline=None)
    @given(
        tokens=st.sampled_from(EULER_TWELVE),
        points=st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 9)), min_size=12, max_size=12),
        entries=st.tuples(_BIG, _BIG, _BIG, _BIG),
    )
    def test_moving_by_pgl2_keeps_the_invariants_and_the_refusal(self, tokens, points, entries):
        a, b, c, d = entries
        assume(a * d != b * c)
        g = MobiusMap(a, b, c, d)
        distinct = list(dict.fromkeys(BasePoint(*z) for z in points if z != (0, 0)))
        assume(len(distinct) >= len(tokens))
        config = _census_config(tokens, distinct[: len(tokens)])
        moved = MarkedConfig((g(point), fiber) for point, fiber in config)

        def read(c):
            return aut_floor(c), c.additive_count, euler_number(c), chi(c), canonical_degree(c), _refusal(c)

        assert read(moved) == read(config)


class TestCoordinateFree:
    """Twisting the base moved by g at g(k) answers as twisting the base at k."""

    @pytest.mark.parametrize("name", catalog_names())
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.tuples(st.integers(-40, 40), st.integers(0, 9)).filter(lambda z: z != (0, 0)),
        p=st.sampled_from([2, 3, 5, 7, 11, 13, 97, 101]),
        entries=st.tuples(_BIG, _BIG, _BIG, _BIG),
    )
    def test_moving_base_and_twist_point_keeps_the_answers(self, name, k, p, entries):
        a, b, c, d = entries
        assume(a * d != b * c)
        g, base, point = MobiusMap(a, b, c, d), catalog_get(name).surface, BasePoint(*k)
        assume(base.config.fiber_at(point) is None)
        moved = EllipticSurface(MarkedConfig((g(x), fiber) for x, fiber in base.config), has_section=True, name=name)
        datum = QZPair(QZ(1, p))
        here, there = (
            twist(surface, twist_class(surface, [(t, datum)])) for surface, t in ((base, point), (moved, g(point)))
        )

        def invariants(s):
            return euler_number(s), chi(s), canonical_degree(s), kodaira_dimension(s), multisection_index(s)

        assert invariants(there) == invariants(here)
        rigid = rigidity_check(base.config).rigid
        for mode in ClassificationMode:
            if rigid:
                ours, theirs = (classify_partners(s, mode) for s in (here, there))
                assert (theirs.lower_bound, theirs.classes) == (ours.lower_bound, ours.classes)
            else:
                for s in (here, there):
                    with pytest.raises(NotRigidError) as refusal:
                        classify_partners(s, mode)
                    assert refusal.value.code == "not-rigid"


class TestGroupStructure:
    def test_annihilation_and_inverse(self):
        xi = order_eleven_class()
        assert not (11 * xi)
        assert not (xi + (-1) * xi)
        assert xi + (-xi) == TwistClass(B)

    def test_order_of_multiples_prime(self):
        xi = order_eleven_class()
        for i in range(1, 11):
            assert (i * xi).order == 11

    def test_bool_scalar_is_refused(self):
        # A bool is an int subclass; accepted, True * xi would be xi.
        xi = order_eleven_class()
        for scalar in (True, False):
            with pytest.raises(TypeError):
                scalar * xi
            with pytest.raises(TypeError):
                xi * scalar

    def test_base_mismatch(self):
        other = catalog_get("II*-I1-I1").surface
        eta = twist_class(other, [(T0, QZPair(QZ(1, 2), QZ()))])
        with pytest.raises(BaseMismatchError):
            order_eleven_class() + eta

    @settings(max_examples=150, deadline=None)
    @given(twist_classes(), twist_classes(), twist_classes())
    def test_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @settings(max_examples=150, deadline=None)
    @given(twist_classes())
    def test_identity_and_inverse(self, a):
        assert a + TwistClass(B) == a
        assert not (a + (-a))

    @settings(max_examples=150, deadline=None)
    @given(twist_classes(), st.integers(min_value=-120, max_value=120))
    def test_order_formula(self, a, i):
        assert (i * a).order == a.order // math.gcd(i, a.order)


class TestTwist:
    def test_order_eleven_twist(self):
        s11 = twist(B, order_eleven_class())
        tokens = sorted(f.token() for _, f in s11.config)
        assert tokens == ["I(0)", "I(1)", "I(2)", "III*"]
        assert s11.config.fiber_at(T0).multiplicity == 11
        assert euler_number(s11) == 12
        assert is_rational(s11)
        assert kodaira_dimension(s11) is KodairaDimension.MINUS_INFINITY
        assert s11.multisection_index == 11

    def test_trivial_twist_returns_base(self):
        assert twist(B, TwistClass(B)).surface == B

    def test_two_point_twist(self):
        xi = twist_class(
            B,
            [
                (BasePoint(2), QZPair(QZ(1, 2), QZ())),
                (BasePoint(3), QZPair(QZ(1, 3), QZ())),
            ],
        )
        dolgachev = twist(B, xi)
        assert sorted(dolgachev.config.multiplicities) == [2, 3]
        assert dolgachev.multisection_index == 6
        assert euler_number(dolgachev) == 12
        assert canonical_degree(dolgachev) == Fraction(1, 6)
        assert kodaira_dimension(dolgachev) is KodairaDimension.ONE

    def test_twist_at_nodal_fiber_unsupported(self):
        xi = twist_class(B, [(BasePoint(1), QZ(1, 5))])
        assert xi.order == 5  # the class itself is fine
        with pytest.raises(UnsupportedTwistError):
            twist(B, xi)

    def test_twist_base_mismatch(self):
        other = catalog_get("II*-I1-I1").surface
        with pytest.raises(BaseMismatchError):
            twist(other, order_eleven_class())

    def test_surface_must_match_its_class(self):
        xi = order_eleven_class()
        assert TwistedSurface(twist(B, xi).surface, xi) == twist(B, xi)
        order_five = twist(B, twist_class(B, [(T0, QZPair(QZ(1, 5), QZ()))]))
        for surface in (B, order_five.surface):
            with pytest.raises(ValueError, match="does not match"):
                TwistedSurface(surface, xi)

    @settings(max_examples=150, deadline=None)
    @given(twist_classes())
    def test_euler_preserved_and_jacobian_round_trip(self, xi):
        if any(B.config.fiber_at(p) is not None for p, _ in xi.support):
            return  # not realizable by a twist; covered by the unsupported test
        t = twist(B, xi)
        assert euler_number(t) == euler_number(B)
        assert jacobian(t) == B
        assert t.multisection_index == xi.order


class TestRelativeJacobianPowers:
    def test_power_one_is_the_surface(self):
        s11 = twist(B, order_eleven_class())
        assert relative_jacobian_power(s11, 1) == s11

    def test_power_zero_is_trivial_twist(self):
        s11 = twist(B, order_eleven_class())
        j0 = relative_jacobian_power(s11, 0)
        assert j0.surface == B
        assert j0.multisection_index == 1

    def test_non_coprime_rejected(self):
        s11 = twist(B, order_eleven_class())
        with pytest.raises(NotCoprimeError):
            relative_jacobian_power(s11, 22)

    def test_index_must_be_an_int(self):
        # A bool index would otherwise name the partner "...[True]".
        s11 = twist(B, order_eleven_class())
        for index in (True, False, 2.0, "2"):
            with pytest.raises(TypeError, match=r"^partner index must be an integer$"):
                relative_jacobian_power(s11, index)

    def test_negative_index_is_inversion(self):
        s11 = twist(B, order_eleven_class())
        assert relative_jacobian_power(s11, -1) == relative_jacobian_power(s11, 10)

    def test_family_rationality(self):
        primes = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
        for p in primes:
            xi = twist_class(B, [(T0, QZPair(QZ(1, p), QZ()))])
            sp = twist(B, xi)
            for i in range(1, p):
                ji = relative_jacobian_power(sp, i)
                assert is_rational(ji)
                assert kodaira_dimension(ji) is KodairaDimension.MINUS_INFINITY
                assert ji.multisection_index == p


class TestIndexAndSerialization:
    def test_multisection_index_dispatch(self):
        assert multisection_index(B) == 1
        s11 = twist(B, order_eleven_class())
        assert multisection_index(s11) == 11
        raw = EllipticSurface(
            MarkedConfig(tuple(B.config) + ((T0, KodairaFiber.from_token("smooth", 2)),))
        )
        with pytest.raises(UnknownLambdaError):
            multisection_index(raw)
        with pytest.raises(TypeError, match=r"^expected a surface, got MarkedConfig$"):
            multisection_index(B.config)

    def test_multiplicities_divide_index(self):
        xi = twist_class(
            B,
            [
                (BasePoint(2), QZPair(QZ(1, 4), QZ(1, 6))),
                (BasePoint(3), QZPair(QZ(1, 9), QZ())),
            ],
        )
        t = twist(B, xi)
        lam = t.multisection_index
        for m in t.config.multiplicities:
            assert lam % m == 0

    def test_default_twist_point(self):
        assert default_twist_point(B) == BasePoint(2)
        assert default_twist_point(catalog_get("twelve-I1").surface) == BasePoint(12)

    @pytest.mark.parametrize("name", catalog_names())
    def test_default_twist_point_on_every_catalog_base(self, name):
        # The first non-negative integer point with no marked fiber.
        base = catalog_get(name).surface
        k = next(k for k in range(len(base.config) + 1) if base.config.fiber_at(BasePoint(k)) is None)
        assert default_twist_point(base) == BasePoint(k) == _probed_twist_point(base)

    @given(_twist_point_bases())
    @example(_i1_surface([BasePoint(k) for k in range(12)]))
    @settings(max_examples=200, deadline=None)
    def test_default_twist_point_matches_the_probing_loop(self, base):
        assert default_twist_point(base) == _probed_twist_point(base)

    def test_default_twist_point_is_cached_per_configuration(self):
        base = _i1_surface([BasePoint(k) for k in range(12)])
        first = default_twist_point(base)
        assert first == BasePoint(12) and default_twist_point(base) is first

    def test_default_twist_point_scans_the_marked_points_once(self, monkeypatch):
        # 1,200 I(1) fibers at 0..1199: the scan reads the config's entries
        # once, not through 1,201 fiber_at calls.
        fibers = [(BasePoint(k), KodairaFiber.from_token("I(1)")) for k in range(1200)]
        base = EllipticSurface(MarkedConfig(fibers), has_section=True)
        calls = []
        original = MarkedConfig.fiber_at
        monkeypatch.setattr(MarkedConfig, "fiber_at", lambda self, point: calls.append(point) or original(self, point))
        assert default_twist_point(base) == BasePoint(1200)
        assert calls == []
