import random
from fractions import Fraction

from ellfm import (
    DEFAULT_ENTRY,
    BasePoint,
    KodairaFiber,
    MarkedConfig,
    QZ,
    QZPair,
    catalog_get,
    twist,
    twist_class,
)


def reference_key(point):
    """The order ``BasePoint.__lt__`` must reproduce: values, infinity last."""
    return (True, 0) if point.is_infinity else (False, Fraction(point.num, point.den))


def make_order_p_twist(p, base=None, point="2"):
    """The order-p twist of the default base at a fixed unmarked point."""
    if base is None:
        base = catalog_get(DEFAULT_ENTRY).surface
    cls = twist_class(base, [(BasePoint.parse(point), QZPair(QZ(1, p), QZ()))])
    return twist(base, cls)


# Label pool for randomized rigidity configurations: distinct as
# (kind, index, multiplicity) triples, multiplicities included.
LABEL_POOL = [
    KodairaFiber.from_token("I(1)"),
    KodairaFiber.from_token("I(2)"),
    KodairaFiber.from_token("I(3)"),
    KodairaFiber.from_token("II"),
    KodairaFiber.from_token("III"),
    KodairaFiber.from_token("IV*"),
    KodairaFiber.from_token("III*"),
    KodairaFiber.from_token("I*(0)"),
    KodairaFiber.from_token("I(1)", 2),
    KodairaFiber.from_token("smooth", 3),
]

_COORDINATE_POOL = [Fraction(n) for n in range(-6, 7)] + [
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 2),
    Fraction(1, 3),
    Fraction(-2, 3),
    Fraction(5, 2),
]


def random_marked_config(rng: random.Random) -> MarkedConfig:
    """3 to 8 distinct marked points on P^1(Q) carrying 1 to 4 fiber labels."""
    n_points = rng.randint(3, 8)
    n_types = rng.randint(1, 4)
    types = rng.sample(LABEL_POOL, n_types)
    coords = rng.sample(_COORDINATE_POOL, n_points)
    points = [BasePoint.from_rational(c) for c in coords]
    if rng.random() < 0.3:
        points[0] = BasePoint.infinity()
    return MarkedConfig((pt, rng.choice(types)) for pt in points)


# I(9) at 0, I(2) at 1, I(1) at inf: a section and Euler sum 12, but its fiber
# root lattices A8 + A1 have rank 9 > 8, so no rational elliptic surface has it.
SHIODA_TATE_PROBE = {
    "name": "probe",
    "has_section": True,
    "fibers": [{"point": "0", "kind": "I(9)"}, {"point": "1", "kind": "I(2)"}, {"point": "inf", "kind": "I(1)"}],
}

# IV at 0, III at 1 and 3, II at inf: a section, Euler sum 12 and s + a = 8,
# but with no I(n) or I*(n) fiber (n >= 1) j is constant, and IV and II need
# j = 0 where III needs j = 1728, so no elliptic surface has it.
J_PROBE = {
    "name": "j-probe",
    "has_section": True,
    "fibers": [
        {"point": "0", "kind": "IV"},
        {"point": "1", "kind": "III"},
        {"point": "3", "kind": "III"},
        {"point": "inf", "kind": "II"},
    ],
}
J_PROBE_DETAIL = (
    "base 'j-probe' has constant j (no I(n) or I*(n) fiber with n >= 1) "
    "but both j = 0 and j = 1728 fibers"
)

# I*(0) at 0, IV at 1, II at inf: it passes the base gate and is rigid, but
# with no I(n) or I*(n) fiber (n >= 1) and no III or III* fiber j may be 0,
# where automorphisms of order 6 fix the zero section: only aut_bound 6 holds.
AUT_FLOOR_PROBE = {
    "name": "aut-probe",
    "has_section": True,
    "fibers": [{"point": "0", "kind": "I*(0)"}, {"point": "1", "kind": "IV"}, {"point": "inf", "kind": "II"}],
}
AUT_FLOOR_PROBE_DETAIL = (
    "automorphism bound 2 is below 6, the automorphism floor of the Jacobian's configuration; "
    "the partner-counting argument is not certified"
)
