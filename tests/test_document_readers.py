"""The document reader's contract: any JSON value either rebuilds or raises an EllfmError.

``surface_from_doc`` reads documents from outside the program (``--base``
files), so no input may escape as a bare ``KeyError``, ``TypeError`` or
``ValueError`` (which the CLI would turn into a traceback).
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellfm import (
    EllfmError,
    EllipticSurface,
    FiberKind,
    InvalidBaseError,
    KodairaFiber,
    TwistClass,
    catalog_get,
    catalog_names,
    euler_contribution,
    surface_doc,
    surface_from_doc,
    validate_config,
)

from conftest import J_PROBE, SHIODA_TATE_PROBE

# Keys the reader looks up, mixed with arbitrary ones so lookups both hit and miss.
_KEYS = st.one_of(
    st.sampled_from(["name", "has_section", "fibers", "point", "kind", "multiplicity"]),
    st.text(max_size=3),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(allow_nan=False),
    st.sampled_from(["0", "1", "2", "inf", "1/2", "1/0", "1/\u0662", "I(1)", "I(\u0662)", "III*", "smooth", "1/11"]),
    st.text(max_size=4),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_KEYS, inner, max_size=5)),
    max_leaves=16,
)

# Surface documents: fibers with point, kind and optional multiplicity, so
# duplicate points, bad multiplicities and invalid configurations are reached.
_FIBERS = st.fixed_dictionaries(
    {
        "point": st.sampled_from(["0", "1", "2", "inf", "4/2", "1/0"]),
        "kind": st.sampled_from(["I(1)", "I(2)", "I(9)", "II", "III*", "II*", "smooth", "V"]),
    },
    optional={"multiplicity": st.one_of(st.integers(-1, 3), _SCALARS)},
)
_SURFACE_DOCS = st.fixed_dictionaries(
    {"has_section": st.booleans(), "fibers": st.lists(_FIBERS, max_size=5)},
    optional={"name": _SCALARS},
)
_CATALOG_DOCS = [surface_doc(catalog_get(name).surface) for name in catalog_names()]


@settings(max_examples=200, deadline=None)
@given(doc=st.one_of(_JSON, _SURFACE_DOCS, st.sampled_from(_CATALOG_DOCS)))
def test_surface_reader_rebuilds_or_refuses(doc):
    try:
        surface = surface_from_doc(doc)
    except EllfmError:
        return
    assert isinstance(surface, EllipticSurface)


_ADDITIVE_KINDS = ("II", "III", "IV", "I*(0)", "IV*", "III*", "II*")


def _euler(kinds):
    return sum(euler_contribution(KodairaFiber.from_token(kind)) for kind in kinds)


# Every multiset of at most four additive fibers with Euler sum 12, so bases
# with constant j (and those mixing j = 0 and j = 1728) are drawn, not only given.
_ALL_ADDITIVE_BASES = [
    kinds
    for n in range(1, 5)
    for kinds in itertools.combinations_with_replacement(_ADDITIVE_KINDS, n)
    if _euler(kinds) == 12
]


@st.composite
def _readable_surface_docs(draw):
    """Surface documents that read: up to four fibers, or an all-additive
    multiset with Euler sum 12, padded with I(1) to a positive multiple of 12
    (no padding where they already reach one), maybe multiple smooth fibers,
    with or without a section."""
    kinds = list(
        draw(
            st.one_of(
                st.lists(st.sampled_from(("I(2)",) + _ADDITIVE_KINDS), max_size=4),
                st.sampled_from(_ALL_ADDITIVE_BASES),
            )
        )
    )
    euler = _euler(kinds)
    pad = (-euler) % 12 + draw(st.sampled_from([0, 12]))
    kinds += ["I(1)"] * (pad if euler + pad else 12)
    fibers = [{"point": str(k), "kind": kind} for k, kind in enumerate(kinds)]
    for m in draw(st.lists(st.integers(2, 5), max_size=2)):
        fibers.append({"point": f"-{len(fibers)}", "kind": "I(0)", "multiplicity": m})
    return {"name": draw(st.sampled_from(["", "b", "chi-two"])), "has_section": draw(st.booleans()), "fibers": fibers}


@settings(max_examples=200, deadline=None)
@given(doc=st.one_of(_SURFACE_DOCS, st.sampled_from(_CATALOG_DOCS), _readable_surface_docs()))
@example(doc=SHIODA_TATE_PROBE)
@example(doc=J_PROBE)
def test_twist_model_enforces_the_base_gate(doc):
    # A surface that reads is a base of the twist model iff it has a section
    # and passes validate_config; any other base is refused, also through the
    # library, with the invalid-base detail of the condition it fails (a
    # nameless base is "unnamed").  A section-bearing base with Euler sum 12
    # and no multiple fibers can only fail the Shioda-Tate bound s + a >= 4
    # or, past it, mix j = 0 and j = 1728 fibers with no fiber to vary j.
    try:
        base = surface_from_doc(doc)
    except EllfmError:
        return
    if base.has_section and validate_config(base.config):
        assert not TwistClass(base)
        return
    with pytest.raises(InvalidBaseError) as refusal:
        TwistClass(base)
    assert refusal.value.code == "invalid-base"
    label = f"base {base.name!r}" if base.name else "unnamed base"
    config = base.config
    if base.has_section and config.euler_number == 12 and not config.multiplicities:
        s = len(config)
        a = sum(fiber.kind not in (FiberKind.I, FiberKind.SMOOTH) for _, fiber in config)
        if s + a < 4:
            detail = (
                f"fails the Shioda-Tate bound s + a >= 4: s = {s} singular and "
                f"a = {a} additive fibers give fiber root rank {12 - s - a} > 8"
            )
        else:
            kinds = {fiber.token() for _, fiber in config}
            assert s == a and all(fiber.index == 0 for _, fiber in config)
            assert kinds & {"II", "IV", "IV*", "II*"} and kinds & {"III", "III*"}
            detail = (
                "has constant j (no I(n) or I*(n) fiber with n >= 1) "
                "but both j = 0 and j = 1728 fibers"
            )
    else:
        detail = "is not a section-bearing configuration with Euler sum 12"
    assert str(refusal.value) == f"{label} {detail}"
