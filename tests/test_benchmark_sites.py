"""The traced benchmark run wraps named lookup sites in the library.

``perfbench/tracing.py`` replaces module globals (such as
``ellfm.partners.twist_class``) and class attributes (such as
``MarkedConfig.__init__``) with counting wrappers.  If one of those names is
deleted or no longer looked up where the wrapper sits, ``--trace 1`` breaks or
silently counts nothing.  This test installs the tracer, checks that every
site was replaced and that a certification is seen through the wrappers, and
uninstalls it again.  It reads ``perfbench/`` and changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

import ellfm

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sites(tracing):
    sites = [(importlib.import_module(m), attr) for m, attr, _ in tracing._SPAN_SITES + tracing._CALL_SITES]
    sites += [(getattr(importlib.import_module(m), cls), attr) for m, cls, attr, _ in tracing._CLASS_SITES]
    return sites


def test_tracer_wraps_every_lookup_site():
    tracing = _load_tracing()
    sites = _sites(tracing)
    originals = [owner.__dict__[attr] for owner, attr in sites]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not orig for (owner, attr), orig in zip(sites, originals))
        ellfm.certify_partner_count(11, 2)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is orig for (owner, attr), orig in zip(sites, originals))
    for span in (
        "catalog.get",
        "twists.twist_class",
        "twists.twist",
        "partners.is_prime",
        "partners.partner_indices",
        "partners.classify",
        "partners.rigidity",
    ):
        assert tracer.spans[span].calls >= 1, span
    assert tracer.counts["surface.MarkedConfig.builds"] > 0
    assert tracer.counts["qz.QZ.builds"] > 0
