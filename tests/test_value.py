"""The value types share one immutable base class, ``ellfm.value.Value``.

For one pinned sample of each of the 13 value types: ``==`` and ``hash``
follow the compared fields, values of other types are never equal, fields
cannot be assigned or deleted, the repr keeps its ``Type(field=value, ...)``
text, and ``pickle`` and ``copy.deepcopy`` rebuild an equal value, also once
a ``MarkedConfig`` has cached its read-only ``fiber_map``.  Importing the CLI
loads none of ``dataclasses``, ``inspect`` and ``typing``.
"""

import copy
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
    Value,
    catalog_get,
    order_p_twist,
    twist,
)

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


def test_a_twisted_surface_pickles_after_fiber_at():
    # default_twist_point and fiber_at cache a read-only mapping on the
    # configurations, which pickle cannot serialize; a rebuilt value leaves it behind.
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
