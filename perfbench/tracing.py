"""Layer tracing for the traced benchmark run, done entirely from outside the package.

Spans are opened by the benchmark around its own calls into ``ellfm`` and by
wrappers installed at the sites where the library looks a name up (a module
global such as ``ellfm.partners.rigidity_check``, or a class attribute such as
``MarkedConfig.__init__``).  Each span records calls, self time (its duration
minus the part covered by spans opened inside it) and the calls that raised.
Counters record work done inside the lower layers.

Nothing here is installed in an untraced run: the untraced run uses
``NULL_TRACER``, whose spans are a shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

# Spans whose counts are divided by the partners built, on ``census``.  They
# are the stages that run once per partner; the order-p twist an operation
# starts from is counted per operation instead.
PER_PARTNER_STAGES = frozenset({"partners.enumerate", "surface.invariants", "surface.doc"})

# (module, global name) -> span name; wrapped where the caller looks the name up.
_SPAN_SITES = (
    ("ellfm.partners", "catalog_get", "catalog.get"),
    ("ellfm.partners", "twist_class", "twists.twist_class"),
    ("ellfm.partners", "twist", "twists.twist"),
    ("ellfm.twists", "twist", "twists.twist"),
    ("ellfm.partners", "is_prime", "partners.is_prime"),
    ("ellfm.partners", "partner_indices", "partners.partner_indices"),
    ("ellfm.partners", "classify_partners", "partners.classify"),
    ("ellfm.partners", "rigidity_check", "partners.rigidity"),
)

# (module, global name) -> counter name, bumped once per call.
_CALL_SITES = (("ellfm.surface", "euler_contribution", "fibers.euler_contribution.calls"),)

# (module, class, attribute) -> counter name, bumped once per call.
_CLASS_SITES = (
    ("ellfm.surface", "MarkedConfig", "__init__", "surface.MarkedConfig.builds"),
    ("ellfm.surface", "EllipticSurface", "__post_init__", "surface.EllipticSurface.builds"),
    ("ellfm.twists", "TwistedSurface", "__post_init__", "twists.TwistedSurface.builds"),
    ("ellfm.qz", "QZ", "__post_init__", "qz.QZ.builds"),
    ("ellfm.projective", "BasePoint", "sort_key", "projective.BasePoint.sort_key.calls"),
    ("ellfm.projective", "MobiusMap", "__post_init__", "projective.MobiusMap.builds"),
    ("ellfm.projective", "MobiusMap", "through_triples", "partners.rigidity.candidates"),
)

# Counters fed from a span's return value: span name -> (counter, size of result).
_RESULT_SIZES = {
    "partners.partner_indices": ("partners.partner_indices.elements", len),
    "partners.classify": ("partners.classify.blocks", lambda c: len(c.classes)),
    "partners.rigidity": ("partners.rigidity.symmetries", lambda r: r.order or 0),
}


class SpanStats:
    __slots__ = ("calls", "busy_s", "fails")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.fails = 0


class _Span:
    __slots__ = ("tracer", "name", "start", "child_s")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.child_s = 0.0
        self.tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self.start
        tracer = self.tracer
        tracer._stack.pop()
        if tracer._stack:
            tracer._stack[-1].child_s += elapsed
        stats = tracer.spans.get(self.name)
        if stats is None:
            stats = tracer.spans[self.name] = SpanStats()
        stats.calls += 1
        stats.busy_s += elapsed - self.child_s
        tracer.count(self.name + ".calls")
        if exc_type is not None:
            stats.fails += 1
            tracer.count(self.name + ".fails")


class Tracer:
    """Spans and counters for one traced run.

    ``spans`` accumulates over the whole run.  ``counts`` holds the counters
    and each span's ``<name>.calls`` / ``<name>.fails`` tallies, but only while
    ``counting`` is on: the runner turns it off after a fixed number of
    operations, so that counts depend on the seed alone and repeat exactly.
    ``partner_counts`` is the part of ``counts`` recorded inside the
    ``PER_PARTNER_STAGES``.
    """

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        self.partner_counts: Counter = Counter()
        self.counting = True
        self._stack: list[_Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        if not self.counting:
            return
        self.counts[name] += n
        if self._stack and self._stack[0].name in PER_PARTNER_STAGES:
            self.partner_counts[name] += n

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        import importlib

        for module_name, attr, span_name in _SPAN_SITES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._span_wrapper(getattr(module, attr), span_name))
        for module_name, attr, counter in _CALL_SITES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._count_wrapper(getattr(module, attr), counter))
        for module_name, class_name, attr, counter in _CLASS_SITES:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._count_wrapper(original.__func__, counter))
            else:
                wrapped = self._count_wrapper(original, counter)
            self._patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _count_wrapper(self, func, counter: str):
        tracer = self

        def counted(*args, **kwargs):
            tracer.count(counter)
            return func(*args, **kwargs)

        counted.__wrapped__ = func
        return counted

    def _span_wrapper(self, func, span_name: str):
        tracer = self
        sized = _RESULT_SIZES.get(span_name)

        def spanned(*args, **kwargs):
            with tracer.span(span_name):
                result = func(*args, **kwargs)
            if sized is not None:
                tracer.count(sized[0], sized[1](result))
            return result

        spanned.__wrapped__ = func
        return spanned


class _NullTracer:
    counting = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = _NullTracer()
