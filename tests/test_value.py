"""The value types share one immutable base class, ``ellfm.value.Value``.

For one pinned sample of each of the 13 value types: ``==`` and ``hash``
follow the compared fields, values of other types are never equal, fields
cannot be assigned or deleted, the repr keeps its ``Type(field=value, ...)``
text, and ``pickle`` and ``copy.deepcopy`` rebuild an equal value, also once
a ``MarkedConfig`` has cached its read-only ``fiber_map`` and its symmetry
group or a ``CatalogEntry`` its surface; the rebuilt value carries no
cache.  The constructor takes the fields in slot order with the pinned
defaults, also by keyword; ``Value`` generates it for every type, refuses a
subclass that writes its own ``__init__``, and ``__post_init__`` runs once
per build.  Every ``derived`` attribute reads on its class as the
descriptor, is computed once, stays out of ``==``, ``hash``, ``repr`` and a
pickle, and after a read that raises caches nothing and raises again.
Importing the CLI loads none of ``dataclasses``, ``inspect`` and ``typing``.
"""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import ellfm
from ellfm import (
    DEFAULT_ENTRY,
    QZ,
    BasePoint,
    CatalogEntry,
    CertificationVerdict,
    ClassificationMode,
    EllipticSurface,
    FiberKind,
    KodairaFiber,
    MarkedConfig,
    MobiusMap,
    PartnerClassification,
    Provenance,
    QZPair,
    RigidityReport,
    TwistClass,
    TwistedSurface,
    EllfmError,
    Value,
    catalog_get,
    order_p_twist,
    twist,
)
from ellfm.value import derived

BOUND, INVERSION = ClassificationMode.BOUND, ClassificationMode.INVERSION


def _i12(has_section=True, name="i12"):
    config = MarkedConfig([(BasePoint(0), KodairaFiber(FiberKind.I, 12))])
    return EllipticSurface(config, has_section=has_section, name=name)


def _small_config(kind=FiberKind.III_STAR):
    return MarkedConfig([(BasePoint(1), KodairaFiber(FiberKind.I, 2)), (BasePoint(0), KodairaFiber(kind))])


def _base():
    return catalog_get("IV*-IV").surface


def _class(numerator=1):
    return TwistClass(_base(), ((BasePoint(2), QZPair(QZ(numerator, 3))),))


def _warm(value, *reads):
    """The value after reading the named cached attributes."""
    for name in reads:
        getattr(value, name)
    return value


# type -> (sample, an equal value built another way, a value differing in a
# compared field).  Every sample of the equal column reads differently or
# carries warm caches where its type has them.
CASES = {
    QZ: (lambda: QZ(3, 12), lambda: QZ(1, 4), lambda: QZ(1, 3)),
    QZPair: (lambda: QZPair(QZ(1, 2)), lambda: QZPair(QZ(3, 6), QZ(5, 5)), lambda: QZPair(QZ(1, 2), QZ(1, 2))),
    BasePoint: (lambda: BasePoint(2, -4), lambda: BasePoint(-1, 2), lambda: BasePoint(1, 2)),
    MobiusMap: (lambda: MobiusMap(-2, 0, 0, -4), lambda: MobiusMap(1, 0, 0, 2), lambda: MobiusMap(1, 0, 0, 3)),
    KodairaFiber: (
        lambda: KodairaFiber(FiberKind.I, 2, 3),
        lambda: KodairaFiber.from_token("I(2)", 3),
        lambda: KodairaFiber(FiberKind.I, 2),
    ),
    MarkedConfig: (
        _small_config,
        lambda: _warm(_small_config(), "euler_number", "multiplicities", "additive_count", "fiber_map"),
        lambda: _small_config(FiberKind.II_STAR),
    ),
    EllipticSurface: (_i12, lambda: _i12(name="renamed"), lambda: _i12(has_section=False)),
    TwistClass: (_class, lambda: TwistClass(_base(), ((BasePoint(2), QZPair(QZ(4, 3))),)), lambda: _class(2)),
    TwistedSurface: (
        lambda: order_p_twist(_base(), 3),
        lambda: twist(_base(), _class(), name="other name"),
        lambda: order_p_twist(_base(), 5),
    ),
    CatalogEntry: (
        lambda: catalog_get("IV*-IV"),
        lambda: CatalogEntry("IV*-IV", _base().config, Provenance.EULER_CHECKED),
        lambda: CatalogEntry("IV*-IV", _base().config, Provenance.CITED),
    ),
    RigidityReport: (
        lambda: RigidityReport((MobiusMap.identity(),)),
        lambda: RigidityReport((MobiusMap(2, 0, 0, 2),)),
        lambda: RigidityReport(None),
    ),
    PartnerClassification: (
        lambda: PartnerClassification(7, BOUND, 6),
        lambda: _warm(PartnerClassification(7, BOUND, 6), "classes", "index_count"),
        lambda: PartnerClassification(7, INVERSION, 6),
    ),
    CertificationVerdict: (
        lambda: CertificationVerdict(2, PartnerClassification(11, BOUND, 6)),
        lambda: CertificationVerdict(2, _warm(PartnerClassification(11, BOUND, 6), "classes")),
        lambda: CertificationVerdict(3, PartnerClassification(11, BOUND, 6)),
    ),
}

_IV_CONFIG = (
    "MarkedConfig(entries=((BasePoint(num=0, den=1), KodairaFiber(kind=<FiberKind.IV_STAR: 'IV*'>, index=0, "
    "multiplicity=1)), (BasePoint(num=1, den=1), KodairaFiber(kind=<FiberKind.IV: 'IV'>, index=0, multiplicity=1))))"
)
_IV_STAR_IV = f"EllipticSurface(config={_IV_CONFIG}, has_section=True, name='IV*-IV')"
_CLASS_1_3 = (
    f"TwistClass(base={_IV_STAR_IV}, support=((BasePoint(num=2, den=1), QZPair(first=QZ(numerator=1, denominator=3), "
    "second=QZ(numerator=0, denominator=1))),))"
)
_CONFIG_I12 = (
    "MarkedConfig(entries=((BasePoint(num=0, den=1), KodairaFiber(kind=<FiberKind.I: 'I'>, index=12, "
    "multiplicity=1)),))"
)
_PC_11 = "PartnerClassification(multisection_index=11, mode=<ClassificationMode.BOUND: 'bound'>, aut_bound=6)"

# The reprs of the samples as frozen dataclasses printed them.
REPRS = {
    QZ: "QZ(numerator=1, denominator=4)",
    QZPair: "QZPair(first=QZ(numerator=1, denominator=2), second=QZ(numerator=0, denominator=1))",
    BasePoint: "BasePoint(num=-1, den=2)",
    MobiusMap: "MobiusMap(a=1, b=0, c=0, d=2)",
    KodairaFiber: "KodairaFiber(kind=<FiberKind.I: 'I'>, index=2, multiplicity=3)",
    MarkedConfig: (
        "MarkedConfig(entries=((BasePoint(num=0, den=1), KodairaFiber(kind=<FiberKind.III_STAR: 'III*'>, index=0, "
        "multiplicity=1)), (BasePoint(num=1, den=1), KodairaFiber(kind=<FiberKind.I: 'I'>, index=2, "
        "multiplicity=1))))"
    ),
    EllipticSurface: f"EllipticSurface(config={_CONFIG_I12}, has_section=True, name='i12')",
    TwistClass: _CLASS_1_3,
    TwistedSurface: (
        "TwistedSurface(surface=EllipticSurface(config=MarkedConfig(entries=((BasePoint(num=0, den=1), "
        "KodairaFiber(kind=<FiberKind.IV_STAR: 'IV*'>, index=0, multiplicity=1)), (BasePoint(num=1, den=1), "
        "KodairaFiber(kind=<FiberKind.IV: 'IV'>, index=0, multiplicity=1)), (BasePoint(num=2, den=1), "
        "KodairaFiber(kind=<FiberKind.SMOOTH: 'smooth'>, index=0, multiplicity=3)))), has_section=False, "
        f"name='IV*-IV+3I0'), twist_class={_CLASS_1_3})"
    ),
    CatalogEntry: (
        f"CatalogEntry(name='IV*-IV', config={_IV_CONFIG}, provenance=<Provenance.EULER_CHECKED: 'euler-checked'>)"
    ),
    RigidityReport: "RigidityReport(symmetries=(MobiusMap(a=1, b=0, c=0, d=1),))",
    PartnerClassification: (
        "PartnerClassification(multisection_index=7, mode=<ClassificationMode.BOUND: 'bound'>, aut_bound=6)"
    ),
    CertificationVerdict: f"CertificationVerdict(target=2, classification={_PC_11})",
}

TYPES = list(CASES)

# The constructor defaults, by field; every other field is required.
DEFAULTS = {
    QZ: {"numerator": 0, "denominator": 1},
    QZPair: {"first": QZ(), "second": QZ()},
    BasePoint: {"den": 1},
    KodairaFiber: {"index": 0, "multiplicity": 1},
    MarkedConfig: {"entries": ()},
    EllipticSurface: {"has_section": False, "name": ""},
    TwistClass: {"support": ()},
}

# No type writes its own __init__; these check or normalise their fields after storing them.
OWN_INIT = set()
POST_INIT = {
    QZ,
    QZPair,
    BasePoint,
    MobiusMap,
    KodairaFiber,
    MarkedConfig,
    EllipticSurface,
    TwistClass,
    TwistedSurface,
    PartnerClassification,
    CertificationVerdict,
}


def test_every_value_type_is_covered():
    exported = {v for v in vars(ellfm).values() if isinstance(v, type) and issubclass(v, Value) and v is not Value}
    assert set(TYPES) == exported and len(TYPES) == 13


def _fields(cls):
    return [name for name in cls.__slots__ if name != "__dict__"]


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_eq_and_hash_follow_the_compared_fields(cls):
    make, equal, different = CASES[cls]
    value, twin, other = make(), equal(), different()
    assert type(value) is type(twin) is type(other) is cls
    assert value == twin and hash(value) == hash(twin)
    assert not value != twin
    assert value != other and not value == other
    assert len({value, twin, other}) == 2


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_a_value_of_another_type_is_never_equal(cls):
    value = CASES[cls][0]()
    stranger = CASES[QZ if cls is not QZ else BasePoint][0]()
    fields = tuple(getattr(value, name) for name in _fields(cls))
    assert value != stranger and value != fields and value != None  # noqa: E711
    assert value.__eq__(fields) is NotImplemented


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = CASES[cls][0]()
    before = repr(value)
    for name in _fields(cls):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.note = "ad hoc"
    assert repr(value) == before


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_repr_is_the_dataclass_repr(cls):
    assert repr(CASES[cls][0]()) == REPRS[cls]


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_pickle_and_deepcopy_rebuild_an_equal_value(cls):
    for make in CASES[cls][:2]:
        value = make()
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(clone) is cls
            assert clone == value and hash(clone) == hash(value) and repr(clone) == repr(value)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_the_signature_is_the_fields_with_their_defaults(cls):
    params = inspect.signature(cls).parameters
    assert list(params) == _fields(cls)
    assert all(param.kind is param.POSITIONAL_OR_KEYWORD for param in params.values())
    defaults = {name: param.default for name, param in params.items() if param.default is not param.empty}
    # repr tells False from 0 and "" from ().
    assert repr(defaults) == repr(DEFAULTS.get(cls, {}))


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_keyword_construction_rebuilds_the_value(cls):
    value = CASES[cls][0]()
    fields = {name: getattr(value, name) for name in _fields(cls)}
    clone = cls(**fields)
    assert clone == value and repr(clone) == repr(value)
    with pytest.raises(TypeError):
        cls(**fields, extra=None)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


def test_only_the_normalising_types_write_their_own_init():
    def written_in_module(cls):
        return cls.__init__.__code__.co_filename == sys.modules[cls.__module__].__file__

    assert {cls for cls in TYPES if written_in_module(cls)} == OWN_INIT
    assert all(cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__" for cls in TYPES)
    assert {cls for cls in TYPES if hasattr(cls, "__post_init__")} == POST_INIT


def test_a_subclass_that_writes_its_own_init_is_refused():
    with pytest.raises(TypeError, match="Point defines __init__"):

        class Point(Value):
            __slots__ = ("x",)

            def __init__(self, x):
                object.__setattr__(self, "x", x)

    class Point(Value):
        __slots__ = ("x",)

    assert Point(3).x == 3 and Point.__init__.__qualname__ == f"{Point.__qualname__}.__init__"


@pytest.mark.parametrize("cls", sorted(POST_INIT, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_post_init_runs_once_per_build(cls, monkeypatch):
    fields = [getattr(CASES[cls][0](), name) for name in _fields(cls)]
    builds = []
    post_init = cls.__post_init__

    def counted_post_init(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(cls, "__post_init__", counted_post_init)
    positional = cls(*fields)
    by_keyword = cls(**dict(zip(_fields(cls), fields)))
    assert len(builds) == 2 and builds[0] is positional and builds[1] is by_keyword
    pickle.loads(pickle.dumps(positional))
    assert len(builds) == 3


@pytest.mark.parametrize(
    "make, cache",
    [
        (lambda: MarkedConfig(catalog_get(DEFAULT_ENTRY).config.entries), "symmetries"),
        (lambda: CatalogEntry("IV*-IV", _base().config, Provenance.EULER_CHECKED), "surface"),
    ],
    ids=["MarkedConfig.symmetries", "CatalogEntry.surface"],
)
def test_a_cached_derivation_is_no_part_of_the_value(make, cache):
    value, cold = make(), make()
    before = (hash(value), repr(value))
    derived = getattr(value, cache)
    assert value.__dict__ == {cache: derived} and derived is not None
    assert value == cold and (hash(value), repr(value)) == before
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert clone == value and (hash(clone), repr(clone)) == before
        assert clone.__dict__ == {}
        assert getattr(clone, cache) == derived


# Every derived attribute of the value types, as (type, name).
DERIVED = [(cls, name) for cls in TYPES for name, attr in vars(cls).items() if isinstance(attr, derived)]


def test_derived_attributes_are_found():
    names = {f"{cls.__name__}.{name}" for cls, name in DERIVED}
    assert {"MarkedConfig.symmetries", "MarkedConfig._chi", "CatalogEntry.surface"} <= names
    assert {"PartnerClassification.classes", "PartnerClassification.index_count"} <= names
    assert all(cls.__dictoffset__ for cls, _ in DERIVED)  # each type keeps a "__dict__" slot


@pytest.mark.parametrize("cls, name", DERIVED, ids=[f"{cls.__name__}.{name}" for cls, name in DERIVED])
def test_a_derived_attribute_reads_on_its_class_as_the_descriptor(cls, name):
    descriptor = getattr(cls, name)
    assert type(descriptor) is derived and descriptor is vars(cls)[name]
    assert descriptor.name == name and descriptor.__doc__ == descriptor.func.__doc__


@pytest.mark.parametrize("cls, name", DERIVED, ids=[f"{cls.__name__}.{name}" for cls, name in DERIVED])
def test_a_derived_attribute_is_no_part_of_the_value(cls, name):
    # The MarkedConfig sample has e = 11, so its chi and deg K raise (after
    # caching e); a read that raises caches nothing and raises again.
    value, cold = CASES[cls][0](), CASES[cls][0]()
    before = (hash(value), repr(value), pickle.dumps(value))
    try:
        first = getattr(value, name)
    except EllfmError as exc:
        assert name not in value.__dict__
        with pytest.raises(type(exc)):
            getattr(value, name)
        assert name not in value.__dict__
    else:
        assert value.__dict__[name] is first and getattr(value, name) is first
    assert value == cold and (hash(value), repr(value), pickle.dumps(value)) == before
    assert pickle.loads(pickle.dumps(value)).__dict__ == {}


def test_derived_computes_once_per_instance():
    calls = []

    class Ratio(Value):
        __slots__ = ("num", "den", "__dict__")

        @derived
        def quotient(self):
            """num / den."""
            calls.append(self)
            return self.num / self.den

    value, broken = Ratio(3, 4), Ratio(1, 0)
    assert value.quotient == value.quotient == 0.75 and calls == [value]
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            broken.quotient
    assert calls == [value, broken, broken] and broken.__dict__ == {}
    assert Ratio.quotient.__doc__ == "num / den." and vars(copy.copy(value)) == {}


def test_a_twisted_surface_pickles_after_fiber_at():
    # fiber_at caches a read-only mapping on the configurations, which pickle
    # cannot serialize; a rebuilt value leaves it behind.
    twisted = order_p_twist(catalog_get(DEFAULT_ENTRY).surface, 11)
    assert twisted.config.fiber_at(BasePoint(2)) == KodairaFiber(FiberKind.SMOOTH, 0, 11)
    for clone in (pickle.loads(pickle.dumps(twisted)), copy.deepcopy(twisted)):
        assert clone == twisted and clone.name == twisted.name
        assert clone.config.fiber_at(BasePoint(2)) == KodairaFiber(FiberKind.SMOOTH, 0, 11)
        assert clone.twist_class.base.config.fiber_at(BasePoint(0)) == KodairaFiber(FiberKind.III_STAR)


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site-packages .pth hooks, which may import typing, out of the check.
    src = Path(ellfm.__file__).resolve().parent.parent
    code = "import ellfm.cli, sys; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"
