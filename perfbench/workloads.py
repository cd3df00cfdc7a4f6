"""The four benchmark workloads: seeded inputs, one operation, and its output check.

Every workload is a closed loop with a single caller: ``Workload.inputs``
yields inputs forever from the seed, the runner times ``Workload.run`` on one
input at a time, then calls ``Workload.check`` outside the timed region.
``check`` returns None for a correct answer or a short reason for a wrong one.

Inputs follow a fixed schedule of slots (sizes, bases, label counts, CLI
commands) and the seed picks the concrete values inside each slot.  Any
prefix of the schedule then has nearly the same mix of costs, so runs with
different seeds are comparable while still getting different inputs.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import ellfm
from ellfm.qz import QZ, QZPair


def next_prime(n: int) -> int:
    """Smallest prime >= n, by trial division (kept apart from ``ellfm.is_prime``)."""
    n = max(n, 2)
    while True:
        if n == 2 or (n % 2 and all(n % f for f in range(3, math.isqrt(n) + 1, 2))):
            return n
        n += 1


def order_p_class(base, p: int):
    """The class xi of order p at the base's default twist point."""
    return ellfm.twist_class(base, [(ellfm.default_twist_point(base), QZPair(QZ(1, p), QZ()))])


@dataclass(frozen=True)
class Workload:
    name: str
    bases: tuple[str, ...]  # catalog entries fetched at set-up
    tail_pct: float  # preferred tail percentile; lowered if fewer than 10 samples lie beyond
    count_ops: int  # traced runs count work over this many first operations
    inputs: Callable[[int, dict], Iterator]
    run: Callable
    check: Callable
    partners: Callable[[object], int] = lambda result: 0


# -- census -------------------------------------------------------------------

def grid(i: int, order: tuple[int, ...], rng: random.Random) -> float:
    """A point of [0, 1): slot ``order[i % len(order)]`` of an even grid, seeded jitter.

    The jitter is 30% of a slot, so every run sees nearly the same sizes
    while the seed still changes the concrete inputs.  ``order`` spreads
    consecutive slots apart, so any prefix of the schedule covers the range.
    """
    return (order[i % len(order)] + 0.5 + 0.3 * (rng.random() - 0.5)) / len(order)


# Seven slots of log10(p) in [3, log10(5000)).  The top is kept at 5000, not
# 10^4, so that a run completes enough operations for a p75 tail.
CENSUS_SLOTS = (0, 4, 2, 6, 1, 5, 3)
CENSUS_LOG10_P = (3.0, math.log10(5000))


def census_inputs(seed: int, bases: dict) -> Iterator:
    rng = random.Random(seed)
    names = list(bases)
    lo, hi = CENSUS_LOG10_P
    i = 0
    while True:
        name = names[i % len(names)]
        u = grid(i // len(names), CENSUS_SLOTS, rng)
        yield name, bases[name], next_prime(int(10 ** (lo + (hi - lo) * u)))
        i += 1


def census_run(inp, tracer):
    _, base, p = inp
    with tracer.span("twists.twist_class"):
        cls = order_p_class(base, p)
    with tracer.span("twists.twist"):
        twisted = ellfm.twist(base, cls)
    with tracer.span("partners.enumerate"):
        partners = ellfm.enumerate_partners(twisted)
    listing = []
    for partner in partners:
        with tracer.span("surface.invariants"):
            invariants = (
                ellfm.euler_number(partner),
                ellfm.chi(partner),
                ellfm.canonical_degree(partner),
                ellfm.kodaira_dimension(partner),
                ellfm.is_rational(partner),
            )
        with tracer.span("surface.doc"):
            doc = ellfm.surface_doc(partner.surface)
        doc.update(
            euler_number=invariants[0],
            chi=invariants[1],
            canonical_degree=str(invariants[2]),
            kodaira_dimension=invariants[3].value,
            rational=invariants[4],
            **{"lambda": partner.multisection_index},
        )
        listing.append((partner, invariants, json.dumps(doc, sort_keys=True)))
    return listing


def census_check(inp, listing) -> str | None:
    _, base, p = inp
    if len(listing) != p - 1:
        return f"p={p}: {len(listing)} partners, expected phi(p) = {p - 1}"
    point = ellfm.default_twist_point(base)
    expected = (12, 1, Fraction(-1, p), ellfm.KodairaDimension.MINUS_INFINITY, True)
    for b, (partner, invariants, text) in enumerate(listing, start=1):
        if partner.multisection_index != p or partner.config.multiplicities != (p,):
            return f"p={p} b={b}: lambda {partner.multisection_index}, multiplicities {partner.config.multiplicities}"
        if invariants != expected:
            return f"p={p} b={b}: invariants {invariants}"
        support = partner.twist_class.support
        if len(support) != 1 or support[0][0] != point:
            return f"p={p} b={b}: twist class supported at {support}"
        datum = support[0][1]
        if (datum.first.numerator, datum.first.denominator, bool(datum.second)) != (b, p, False):
            return f"p={p} b={b}: twist class datum {datum}, expected b * xi"
    for _, _, text in (listing[0], listing[-1]):
        doc = json.loads(text)
        if doc["lambda"] != p or [f["multiplicity"] for f in doc["fibers"]].count(p) != 1:
            return f"p={p}: partner document {text[:80]}"
    return None


# -- certify ------------------------------------------------------------------

# Five slots of log10(p) in [5, 6): one decade, small enough that the O(p)
# index set and blocks built today stay far from exhausting memory.  With
# five slots the median and the p90 tail each fall mid-slot, not on a boundary.
CERTIFY_SLOTS = (0, 3, 1, 4, 2)


def certify_inputs(seed: int, bases: dict) -> Iterator:
    rng = random.Random(seed)
    i = 0
    while True:
        p = next_prime(int(10 ** (5 + grid(i, CERTIFY_SLOTS, rng))))
        m_min = -(-(p - 1) // 6)
        # N on both sides of the threshold: certified exactly when N <= m_min.
        yield p, max(1, m_min + rng.choice((-50, -2, -1, 0, 1, 2, 50)))
        i += 1


def certify_run(inp, tracer):
    p, target = inp
    with tracer.span("partners.certify"):
        return ellfm.certify_partner_count(p, target)


def certify_check(inp, verdict) -> str | None:
    p, target = inp
    m_min = -(-(p - 1) // 6)
    certified = p > 6 * (target - 1) + 1
    got = (verdict.p, verdict.target, verdict.m_min, verdict.certified, verdict.verdict)
    want = (p, target, m_min, certified, "certified" if certified else "inconclusive")
    return None if got == want else f"certify({p}, {target}) = {got}, expected {want}"


# -- rigidity -----------------------------------------------------------------

# Finite points of height <= 4 with denominator <= 3; infinity is always marked.
_SMALL_POINTS = sorted({Fraction(a, b) for b in (1, 2, 3) for a in range(-4, 5)})
_LABELS = tuple(
    ellfm.KodairaFiber.from_token(t) for t in ("I(1)", "I(2)", "II", "III", "IV", "I*(0)", "III*", "II*")
)
RIGIDITY_SIZES = tuple(range(3, 13))
RIGIDITY_LABEL_COUNTS = (1, 2, 3, 4)  # a quarter of the configurations carry one label


def rigidity_inputs(seed: int, bases: dict) -> Iterator:
    rng = random.Random(seed)
    i = 0
    while True:
        n = RIGIDITY_SIZES[i % len(RIGIDITY_SIZES)]
        k = min(n, RIGIDITY_LABEL_COUNTS[(i // len(RIGIDITY_SIZES)) % len(RIGIDITY_LABEL_COUNTS)])
        points = [ellfm.BasePoint.infinity()]
        points += [ellfm.BasePoint.from_rational(x) for x in rng.sample(_SMALL_POINTS, n - 1)]
        labels = rng.sample(_LABELS, k)
        fibers = labels + [rng.choice(labels) for _ in range(n - k)]
        rng.shuffle(fibers)
        yield ellfm.MarkedConfig(zip(points, fibers))
        i += 1


def rigidity_run(config, tracer):
    # Called through the module global so that the traced run's wrapper (span
    # ``partners.rigidity`` plus the symmetry count) sees this call too.
    return ellfm.partners.rigidity_check(config)


def rigidity_group_check(config, report) -> str | None:
    if not report.finite or report.symmetries is None:
        return f"{len(config)} marked points but no finite group"
    group = set(report.symmetries)
    if len(group) != len(report.symmetries):
        return "symmetry list repeats a map"
    if ellfm.MobiusMap.identity() not in group:
        return "group lacks the identity"
    labels = dict(config)
    for g in group:
        if g.inverse() not in group:
            return f"group not closed under inverse at {g.entries()}"
        if any(labels.get(g(point)) != fiber for point, fiber in labels.items()):
            return f"map {g.entries()} does not preserve the typed labels"
        for h in group:
            if g.compose(h) not in group:
                return f"group not closed under composition at {g.entries()}, {h.entries()}"
    if report.rigid != (len(group) == 1):
        return f"rigid={report.rigid} with group order {len(group)}"
    return None


# -- cli ----------------------------------------------------------------------

# (argv, expected exit code, expectation): for exit 0 with --json a dict of
# top-level fields, for exit 0 as a table a list of substrings, for exit 1
# the error code, for exit 2 nothing.  Twenty entries, because four are
# heavy (partners at p = 1009, the 12-point rigidity search twice, partners
# on twelve-I1): the p90 tail then falls on the two near-equal rigidity
# entries, not on a boundary between unequal ones.
CLI_MIX = (
    (["catalog"], 0, ["default           persson-III*-I2-I1"]),
    (["catalog", "--json"], 0, {"default": "persson-III*-I2-I1"}),
    (["catalog", "no-such-entry", "--json"], 1, "unknown-entry"),
    (["rigidity", "--json"], 0, {"rigid": True, "group_order": 1, "points": 3}),
    (["rigidity", "--base", "twelve-I1", "--json"], 0, {"rigid": False, "group_order": 2}),
    (["rigidity", "--base", "IV*-IV"], 0, ["finite            False"]),
    (["construct", "--p", "2", "--json"], 0, {"lambda": 2, "canonical_degree": "-1/2", "rational": True}),
    (["construct", "--p", "11", "--i", "3", "--base", "II*-I1-I1"], 0, ["name              II*-I1-I1+11I0[3]"]),
    (["construct", "--p", "11", "--i", "11"], 2, None),
    (["invariants", "--base", "IV*-IV", "--json"], 0, {"lambda": 1, "chi": 1, "rational": True}),
    (["partners", "--p", "1009", "--json"], 0, {"lambda": 1009, "count": 1008}),
    (["partners", "--p", "101", "--base", "twelve-I1", "--json"], 0, {"lambda": 101, "count": 100}),
    (["partners", "--p", "11", "--base", "IV*-IV"], 0, ["count             10"]),
    (["partners", "--p", "3", "--base", "II*-I1-I1", "--json"], 0, {"lambda": 3, "count": 2}),
    (["classify", "--p", "101", "--json"], 0, {"lambda": 101, "M_min": 17, "index_count": 100}),
    (["classify", "--p", "11", "--mode", "inversion", "--aut-bound", "2"], 0, ["M_min             5"]),
    (["classify", "--p", "11", "--base", "twelve-I1"], 1, "not-rigid"),
    (["verify", "--p", "1009", "--n", "168", "--json"], 0, {"M_min": 168, "verdict": "certified"}),
    (["verify", "--p", "101", "--n", "18", "--json"], 0, {"M_min": 17, "verdict": "inconclusive"}),
    (["verify", "--p", "100", "--n", "3"], 2, None),
)

CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
_SPLIT_TAG = "perfbench-cli "


@dataclass
class ChildRun:
    exit_code: int
    stdout: bytes
    stderr: str
    wall_s: float
    maxrss_kb: int
    split: dict | None  # import_s / main_s reported by cli_child.py


def child_env(src: str) -> dict:
    """The environment for a child that must import ``ellfm`` from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict, cwd: str) -> ChildRun:
    """Run one child to completion and return its output, wall time and peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    stderr = err[0].decode("utf-8", "replace")
    split = None
    lines = stderr.splitlines()
    if lines and lines[-1].startswith(_SPLIT_TAG):
        import_s, main_s = (float(x) for x in lines[-1][len(_SPLIT_TAG):].split())
        split = {"import_s": import_s, "main_s": main_s}
        stderr = "\n".join(lines[:-1])
    return ChildRun(proc.returncode, out, stderr, wall, usage.ru_maxrss, split)


def cli_inputs(seed: int, bases: dict) -> Iterator:
    rng = random.Random(seed)
    while True:
        for entry in rng.sample(CLI_MIX, len(CLI_MIX)):
            yield entry


class CliRunner:
    """Runs CLI invocations as child processes and checks their answers.

    Untraced runs start ``python -m ellfm``; traced runs start
    ``cli_child.py``, which also reports the time spent importing
    ``ellfm.cli`` and inside ``main``.  Output bytes of every argv are kept so
    that a repeated invocation must reproduce them exactly.
    """

    def __init__(self, src: str, root: str, traced: bool) -> None:
        self.env = child_env(src)
        self.root = root
        self.prefix = [sys.executable, CLI_CHILD] if traced else [sys.executable, "-m", "ellfm"]
        self.seen: dict[tuple[str, ...], bytes] = {}

    def run(self, entry, tracer) -> ChildRun:
        return run_child(self.prefix + entry[0], self.env, self.root)

    def check(self, entry, child: ChildRun) -> str | None:
        argv, code, expect = entry
        cmd = " ".join(argv)
        if "Traceback" in child.stderr:
            return f"{cmd}: traceback on stderr"
        if child.exit_code != code:
            return f"{cmd}: exit {child.exit_code}, expected {code}"
        previous = self.seen.setdefault(tuple(argv), child.stdout)
        if previous != child.stdout:
            return f"{cmd}: output differs from an earlier identical invocation"
        text = child.stdout.decode("utf-8", "replace")
        if code == 2:
            return None if "error" in child.stderr else f"{cmd}: no usage message"
        if code == 1 or "--json" in argv:
            try:
                doc = json.loads(text)
            except ValueError:
                return f"{cmd}: stdout is not JSON"
            if code == 1:
                if set(doc) != {"error", "detail"} or doc["error"] != expect:
                    return f"{cmd}: error object {doc}"
                return None
            wrong = {k: doc.get(k) for k, v in expect.items() if doc.get(k) != v}
            if wrong:
                return f"{cmd}: fields {wrong}, expected {expect}"
            if argv[0] == "partners" and any(p["lambda"] != doc["lambda"] for p in doc["partners"]):
                return f"{cmd}: a partner has the wrong multisection index"
            return None
        missing = [s for s in expect if s not in text]
        return f"{cmd}: table lacks {missing}" if missing else None


# -- registry -------------------------------------------------------------------

def make_workloads(src: str, root: str, traced: bool) -> dict[str, Workload]:
    cli = CliRunner(src, root, traced)
    return {
        "census": Workload(
            "census", tuple(ellfm.catalog_names()), 75, 8, census_inputs, census_run, census_check,
            partners=len,
        ),
        "certify": Workload("certify", (ellfm.DEFAULT_ENTRY,), 90, 16, certify_inputs, certify_run, certify_check),
        "rigidity": Workload("rigidity", (), 99, 40, rigidity_inputs, rigidity_run, rigidity_group_check),
        "cli": Workload("cli", tuple(ellfm.catalog_names()), 90, len(CLI_MIX), cli_inputs, cli.run, cli.check),
    }
