"""The rigidity search against the search it replaced, and what it builds.

``rigidity_check`` fixes a source triple from the rarest labels, maps the
marked set through its (0, 1, inf) normal form once and tests each target
triple in integer arithmetic, building a ``MobiusMap`` only for symmetries.
The group is cached on the configuration object, so a second check of the
same object builds no map.  ``_reference_symmetries`` below is the earlier
search, kept here as a reference: the first three sorted points as the
source, one composed map through (0, 1, inf) per label-compatible target
triple, then a label check on ``BasePoint`` images.  Both must give the same
tuple, entry for entry.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ellfm import (
    BasePoint,
    KodairaFiber,
    MarkedConfig,
    MobiusMap,
    RigidityReport,
    catalog_get,
    is_prime,
    rigidity_check,
)
from ellfm.projective import SIGNATURE_PRIME, moment_signatures

from _mobius_oracle import oracle_symmetries

I1 = KodairaFiber.from_token("I(1)")
LABELS = [KodairaFiber.from_token(t) for t in ("I(1)", "I(2)", "II", "III", "IV*")]
_POOL = sorted({Fraction(a, b) for b in (1, 2, 3) for a in range(-5, 6)})


def _reference_symmetries(config):
    labels = {point: fiber for point, fiber in config}
    points = list(labels)
    if len(points) < 3:
        return None
    x1, x2, x3 = points[0], points[1], points[2]
    found = []
    for y1 in points:
        if labels[y1] != labels[x1]:
            continue
        for y2 in points:
            if y2 == y1 or labels[y2] != labels[x2]:
                continue
            for y3 in points:
                if y3 == y1 or y3 == y2 or labels[y3] != labels[x3]:
                    continue
                candidate = MobiusMap.through_triples((x1, x2, x3), (y1, y2, y3))
                if all(labels.get(candidate(point)) == fiber for point, fiber in labels.items()):
                    found.append(candidate)
    found.sort(key=MobiusMap.entries)
    return tuple(found)


def _config(values, labels=None):
    points = [BasePoint.infinity() if v is None else BasePoint.from_rational(v) for v in values]
    return MarkedConfig(zip(points, labels or [I1] * len(points)))


def _seeded_configs(seed, count):
    """9 to 12 points, infinity often among them, carrying 1 to 3 labels."""
    rng = random.Random(seed)
    for i in range(count):
        n = 9 + i % 4
        values = rng.sample(_POOL, n)
        if rng.random() < 0.5:
            values[0] = None
        kinds = rng.sample(LABELS, 1 + (i // 4) % 3)
        yield _config(values, [rng.choice(kinds) for _ in values])


# Finite groups given by generators: <-z>, <1/z>, <-z, 1/z> of order 4,
# <1/(1 - z)> of order 3 and <1/z, 1 - z> of order 6.
_GROUPS = [
    [MobiusMap(-1, 0, 0, 1)],
    [MobiusMap(0, 1, 1, 0)],
    [MobiusMap(-1, 0, 0, 1), MobiusMap(0, 1, 1, 0)],
    [MobiusMap(0, 1, -1, 1)],
    [MobiusMap(0, 1, 1, 0), MobiusMap(-1, 1, 0, 1)],
]


def _symmetric_configs(seed, count):
    """Unions of orbits of a finite group, 9 to 12 points, one label per orbit."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        generators = _GROUPS[made % len(_GROUPS)]
        kinds = rng.sample(LABELS, 1 + made % 3)
        marked = {}
        for _ in range(40):
            orbit = {BasePoint.from_rational(rng.choice(_POOL))}
            while (grown := orbit | {g(z) for g in generators for z in orbit}) != orbit:
                orbit = grown
            if len(marked) + len(orbit) <= 12 and not orbit & marked.keys():
                label = rng.choice(kinds)
                marked.update((z, label) for z in orbit)
        if len(marked) >= 9:
            made += 1
            yield MarkedConfig(marked.items())


SYMMETRIC = {
    # z -> -z, 1/z and (z + 1)/(1 - z) generate the dihedral group of order 8.
    "square": ([0, None, 1, -1], 8),
    # z -> -z and 1/z still act; (z + 1)/(1 - z) sends 2 to -3, so order 4.
    "ladder": ([0, None, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)], 4),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_configurations_match_the_reference(seed):
    for config in _seeded_configs(seed, 12):
        assert rigidity_check(config).symmetries == _reference_symmetries(config), config


@pytest.mark.parametrize("seed", [4, 5])
def test_symmetric_configurations_match_the_reference(seed):
    rng = random.Random(seed)
    for config in _symmetric_configs(seed, 10):
        report = rigidity_check(config)
        assert report.order > 1
        assert report.symmetries == _reference_symmetries(config), config
        # The same points labelled one by one: symmetries of the bare set that
        # mix labels must now be rejected.
        for _ in range(3):
            relabelled = MarkedConfig((point, rng.choice(LABELS[:2])) for point, _ in config)
            expected = _reference_symmetries(relabelled)
            assert rigidity_check(relabelled).symmetries == expected, relabelled


def test_rarest_label_away_from_the_first_three_points():
    # The rare labels II and III sit after five I(1) points in sorted order.
    ii, iii = KodairaFiber.from_token("II"), KodairaFiber.from_token("III")
    config = _config([0, 1, 2, 3, 4, 5, None], [I1] * 5 + [ii, iii])
    report = rigidity_check(config)
    assert report.symmetries == _reference_symmetries(config)
    assert {m.entries() for m in report.symmetries} == set(oracle_symmetries(config)[1])


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_large_groups_match_the_reference_and_the_oracle(name):
    values, order = SYMMETRIC[name]
    config = _config(values)
    report = rigidity_check(config)
    assert report.order == order
    assert report.symmetries == _reference_symmetries(config)
    assert {m.entries() for m in report.symmetries} == set(oracle_symmetries(config)[1])


def _single_label_twelve():
    return _config([None] + _POOL[::2][:11])


# Each test builds its own configuration: the group is cached on the object,
# so a shared one would be searched by the first test only.
_FRESH_TWELVE = [lambda: MarkedConfig(catalog_get("twelve-I1").config.entries), _single_label_twelve]


@pytest.mark.parametrize("make", _FRESH_TWELVE, ids=["twelve-I1", "single-label-12"])
def test_maps_are_built_only_for_symmetries(make, monkeypatch):
    config = make()
    calls = {"through_triples": 0, "builds": 0}
    through_triples = MobiusMap.__dict__["through_triples"].__func__
    post_init = MobiusMap.__post_init__

    def counted_through_triples(cls, source, target):
        calls["through_triples"] += 1
        return through_triples(cls, source, target)

    def counted_post_init(self):
        calls["builds"] += 1
        post_init(self)

    monkeypatch.setattr(MobiusMap, "through_triples", classmethod(counted_through_triples))
    monkeypatch.setattr(MobiusMap, "__post_init__", counted_post_init)
    report = rigidity_check(config)
    assert len(config) == 12
    assert calls["through_triples"] == report.order
    # A loose bound; test_each_symmetry_costs_one_build pins the exact count.
    assert calls["builds"] <= 4 * report.order


@pytest.mark.parametrize("make", _FRESH_TWELVE, ids=["twelve-I1", "single-label-12"])
def test_each_symmetry_costs_one_build(make, monkeypatch):
    config = make()
    builds = []
    post_init = MobiusMap.__post_init__

    def counted_post_init(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(MobiusMap, "__post_init__", counted_post_init)
    report = rigidity_check(config)
    assert len(builds) == report.order


def _counted_builds(monkeypatch):
    builds = []
    post_init = MobiusMap.__post_init__

    def counted_post_init(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(MobiusMap, "__post_init__", counted_post_init)
    return builds


def test_a_second_check_of_one_config_builds_no_map(monkeypatch):
    config = MarkedConfig(catalog_get("twelve-I1").config.entries)
    builds = _counted_builds(monkeypatch)
    first = rigidity_check(config)
    assert len(builds) == first.order == 2
    second = rigidity_check(config)
    assert len(builds) == 2
    assert second == first and second.symmetries is first.symmetries is config.symmetries


def test_fewer_than_three_points_cache_none():
    config = _config([0, 1])
    assert rigidity_check(config) == RigidityReport(None)
    assert config.__dict__ == {"symmetries": None}


def test_equal_configs_built_separately_give_equal_reports():
    for config in _seeded_configs(7, 40):
        report = rigidity_check(config)
        twin = MarkedConfig(reversed(config.entries))
        assert twin == config and "symmetries" not in twin.__dict__
        assert rigidity_check(twin) == report


# --- the signature filter ---------------------------------------------------
#
# ``projective.labelled_symmetries`` drops target points whose
# ``moment_signatures`` entry differs from the source point's, once the
# distinct label-compatible triples the loops visit outnumber 2 n^2.  The
# filter is sound only if a symmetry never moves a point to one of
# incompatible signature; these tests pin that, and that the groups still
# equal the reference search.

P = SIGNATURE_PRIME


def _compatible(s, t):
    return s is None or t is None or s == t


def _orbit_union(generators, seeds, labels):
    marked = {}
    for seed, label in zip(seeds, labels):
        orbit = {seed}
        while (grown := orbit | {g(z) for g in generators for z in orbit}) != orbit:
            orbit = grown
        if not orbit & marked.keys():
            marked.update((z, label) for z in orbit)
    return MarkedConfig(marked.items())


_SEED_POINTS = st.builds(BasePoint, st.integers(-40, 40), st.integers(1, 9))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    group=st.integers(0, len(_GROUPS) - 1),
    seeds=st.lists(_SEED_POINTS, min_size=1, max_size=4),
    labels=st.lists(st.sampled_from(LABELS[:2]), min_size=4, max_size=4),
)
def test_symmetries_keep_the_signature(group, seeds, labels):
    config = _orbit_union(_GROUPS[group], seeds, labels)
    assume(len(config) >= 3)
    points = [p for p, _ in config]
    signature = dict(zip(points, moment_signatures([(p.num, p.den) for p in points])))
    symmetries = rigidity_check(config).symmetries
    assert set(_GROUPS[group]) <= set(symmetries)
    for g in symmetries:
        for x in points:
            assert _compatible(signature[g(x)], signature[x]), (g, x)


def _line(n):
    return _config(range(n))


def _moved(config, rng):
    """The image of ``config`` under an integer map with entries up to 10^40."""
    while True:
        entries = [rng.randint(-10**40, 10**40) for _ in range(4)]
        if entries[0] * entries[3] != entries[1] * entries[2]:
            g = MobiusMap(*entries)
            return MarkedConfig((g(point), fiber) for point, fiber in config)


@pytest.mark.parametrize("n", [12, 24])
def test_points_on_a_line_match_the_reference_where_moved(n):
    rng = random.Random(n)
    for config in [_line(n)] + [_moved(_line(n), rng) for _ in range(2)]:
        report = rigidity_check(config)
        assert report.order == 2
        assert report.symmetries == _reference_symmetries(config), config


@pytest.mark.parametrize("n, calls", [(3, 0), (4, 0), (5, 1)])
def test_signatures_wait_for_more_distinct_triples_than_2n2(n, calls, monkeypatch):
    # n single-label points give n(n-1)(n-2) distinct target triples: 6 and 24
    # stay within 2 n^2 (18 and 32), 60 exceeds 50.  The class sizes alone
    # (n^3 = 27, 64, 125) would have exceeded it at every n.
    import ellfm.projective

    spied = []
    signatures = ellfm.projective.moment_signatures
    monkeypatch.setattr(ellfm.projective, "moment_signatures", lambda pairs: spied.append(pairs) or signatures(pairs))
    rng = random.Random(n)
    for values in ([0, None, 1, -1, 2][:n], list(range(n)), rng.sample(_POOL, n)):
        spied.clear()
        config = _config(values)
        assert rigidity_check(config).symmetries == _reference_symmetries(config), config
        assert len(spied) == calls, config


# Sets with points that meet modulo P, so their signatures are unknown and
# the filter must keep them as targets.  On the first, z -> -z permutes the
# three points that meet, 0 and +-P.  On the second, z -> P/z has a
# determinant divisible by P and sends the points 1, 2, 3 of known signature
# onto P, P/2, P/3, which meet 0 mod P.
_COLLISIONS = {
    "minus-z": ([0, P, -P, 1, -1, 2, -2], MobiusMap(-1, 0, 0, 1), 3),
    "P-over-z": (
        [0, None, 1, 2, 3, P, Fraction(P, 2), Fraction(P, 3)],
        MobiusMap(0, P, 1, 0),
        4,
    ),
}


@pytest.mark.parametrize("name", sorted(_COLLISIONS))
def test_points_equal_mod_the_prime_match_the_reference(name):
    values, symmetry, unknown = _COLLISIONS[name]
    config = _config(values)
    signatures = moment_signatures([(p.num, p.den) for p, _ in config])
    assert signatures.count(None) == unknown
    report = rigidity_check(config)
    assert symmetry in report.symmetries
    assert report.symmetries == _reference_symmetries(config)


# --- the signature kernel ----------------------------------------------------
#
# ``moment_signatures`` computes u once per unordered pair and gives -u to the
# second point, then inverts the bottoms m2^3 of all points at once.
# ``_reference_signatures`` is the earlier kernel, kept as the reference: it
# visits every ordered pair and inverts each cross product and each bottom.


def _reference_signatures(pairs):
    reduced = [(num % P, den % P) for num, den in pairs]
    k = len(reduced) - 1
    signatures = []
    for a, b in reduced:
        s1 = s2 = s3 = meets = 0
        for p, q in reduced:
            cross = (p * b - a * q) % P
            if not cross:
                meets += 1  # x itself, and any point equal to x mod P
                continue
            u = (a * p + b * q) * pow(cross, -1, P) % P
            u2 = u * u % P
            s1, s2, s3 = s1 + u, s2 + u2, s3 + u2 * u
        m2 = (k * s2 - s1 * s1) % P  # k^2 m2
        m3 = (k * k * s3 - 3 * k * s1 * s2 + 2 * s1**3) % P  # k^3 m3
        top, bottom = m3 * m3 % P, pow(m2, 3, P)
        if meets > 1 or not (top or bottom):
            signatures.append(None)
        else:
            signatures.append(top * pow(bottom, -1, P) % P if bottom else P)
    return signatures


def _pairs(config):
    return [(p.num, p.den) for p, _ in config]


def _kernel_inputs():
    rng = random.Random(24)
    for n in range(31):
        points = [BasePoint(a, rng.randint(1, 99)) for a in rng.sample(range(-10**4, 10**4), n)]
        if n and rng.random() < 0.5:
            points[0] = BasePoint.infinity()
        yield [(p.num, p.den) for p in points]
    for n in (3, 7, 12):
        for _ in range(4):
            yield _pairs(_moved(_line(n), rng))
    for values, _, _ in _COLLISIONS.values():
        yield _pairs(_config(values))
    # Raw pairs, as the kernel takes them: 0, 1 and 2 points, points whose
    # coordinates both vanish mod P, and two points that meet mod P.
    yield from ([], [(1, 0)], [(0, 1)], [(0, 1), (1, 0)], [(P, 2 * P)], [(P, 0), (3, 1)])
    yield [(0, 1), (1, 1), (P + 1, 1), (5, 2)]


def test_signatures_match_the_ordered_pair_kernel():
    inputs = list(_kernel_inputs())
    assert len(inputs) == 52
    for pairs in inputs:
        assert moment_signatures(pairs) == _reference_signatures(pairs), pairs


_BIG = st.integers(-(10**40), 10**40)
# Small heights, heights up to 10^40, and coordinates near multiples of P,
# so that points meet or vanish mod P.
_COORDINATES = {
    "small": st.integers(-60, 60),
    "big": _BIG,
    "near-P": st.sampled_from([0, 1, -1, 2, P, -P, 2 * P, P + 1, P - 1]),
}


@pytest.mark.parametrize("heights", sorted(_COORDINATES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_signatures_match_the_ordered_pair_kernel_on_random_sets(heights, data):
    coordinate = _COORDINATES[heights]
    pairs = data.draw(st.lists(st.tuples(coordinate, coordinate).filter(lambda z: z != (0, 0)), max_size=12))
    assert moment_signatures(pairs) == _reference_signatures(pairs)


# Seen from infinity the others sit at u = -z, so m2 vanishes there when
# 4 sum(z^2) = (sum(z))^2 mod P.  On 0, 1, 2, t that is 3t^2 - 6t + 11 = 0.
_M2_ROOT = 235492710


@pytest.mark.parametrize("at", [0, 2])
def test_a_vanishing_m2_gives_the_signature_P(at):
    assert (3 * _M2_ROOT**2 - 6 * _M2_ROOT + 11) % P == 0
    pairs = [(0, 1), (1, 1), (2, 1), (_M2_ROOT, 1)]
    pairs.insert(at, (1, 0))
    signatures = moment_signatures(pairs)
    assert signatures[at] == P
    assert None not in signatures and signatures.count(P) == 1
    assert signatures == _reference_signatures(pairs)


def test_the_signature_prime_is_a_prime_below_2_to_the_30():
    assert is_prime(SIGNATURE_PRIME) and SIGNATURE_PRIME < 2**30


@settings(max_examples=60, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(-60, 60), st.integers(0, 9)), min_size=3, max_size=12),
    entries=st.tuples(_BIG, _BIG, _BIG, _BIG),
)
def test_signatures_are_moebius_invariant_pointwise(points, entries):
    a, b, c, d = entries
    assume((a * d - b * c) % P)
    xs = list(dict.fromkeys(BasePoint(*z) for z in points if z != (0, 0)))
    g = MobiusMap(a, b, c, d)
    moved = [g(x) for x in xs]
    assert moment_signatures([(y.num, y.den) for y in moved]) == moment_signatures([(x.num, x.den) for x in xs])


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(st.tuples(_BIG, _BIG).filter(lambda z: z != (0, 0)), max_size=12),
    data=st.data(),
)
def test_signatures_follow_a_permutation_of_the_input(pairs, data):
    order = data.draw(st.permutations(range(len(pairs))))
    signatures = moment_signatures(pairs)
    assert moment_signatures([pairs[m] for m in order]) == [signatures[m] for m in order]


def test_normal_forms_stay_constant_in_n(monkeypatch):
    # One normal form, the target triples that survive the filter and two
    # inside ``through_triples`` per symmetry; the unfiltered search made
    # 103,777 calls at n = 48 and 857,281 at n = 96.
    import ellfm.projective

    calls = []
    entries = ellfm.projective.zero_one_inf_entries
    monkeypatch.setattr(ellfm.projective, "zero_one_inf_entries", lambda *z: calls.append(z) or entries(*z))
    counts = {}
    for n in (12, 24, 48, 96):
        calls.clear()
        assert rigidity_check(_line(n)).order == 2
        counts[n] = len(calls)
    assert counts[48] == counts[96] < 50, counts


# --- PGL2(Z) equivariance ----------------------------------------------------
#
# Moving a configuration by g conjugates its group: the moved set has exactly
# the symmetries g s g^-1.  Large entries stress the integer test and the
# modular signatures alike.


def _seeded_config(seed):
    """3 to 12 points, infinity half the time, carrying 1 to 4 labels."""
    rng = random.Random(seed)
    values = rng.sample(_POOL, rng.randint(3, 12))
    if rng.random() < 0.5:
        values[0] = None
    kinds = rng.sample(LABELS, rng.randint(1, 4))
    return _config(values, [rng.choice(kinds) for _ in values])


_CONFIGS = st.one_of(
    st.builds(
        _orbit_union,
        st.sampled_from(_GROUPS),
        st.lists(_SEED_POINTS, min_size=1, max_size=4),
        st.lists(st.sampled_from(LABELS[:2]), min_size=4, max_size=4),
    ),
    st.builds(_seeded_config, st.integers(0, 2**32 - 1)),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=_CONFIGS, entries=st.tuples(_BIG, _BIG, _BIG, _BIG))
def test_moving_a_configuration_conjugates_its_group(config, entries):
    a, b, c, d = entries
    assume(a * d != b * c)
    g = MobiusMap(a, b, c, d)
    moved = MarkedConfig((g(point), fiber) for point, fiber in config)
    group = rigidity_check(config).symmetries
    assume(group is not None)
    assert MobiusMap.identity() in group
    conjugates = sorted((g.compose(s).compose(g.inverse()) for s in group), key=MobiusMap.entries)
    assert rigidity_check(moved).symmetries == tuple(conjugates)
