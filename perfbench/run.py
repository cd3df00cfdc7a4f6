"""The ellfm benchmark: one seeded closed-loop workload per run, every answer checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads are ``census``, ``certify``, ``rigidity`` and ``cli`` (see
``workloads.py`` and ``README.md``).  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics from a separate traced run.
Human-readable lines starting with ``#`` come first; the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from ``src/`` next to this directory; the benchmark
exits with status 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9
# A fresh interpreter's ``import ellfm`` plus fetching the workload's bases.
SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import ellfm\n"
    "bases = [ellfm.catalog_get(name).surface for name in sys.argv[1:]]\n"
    "print(repr(time.perf_counter() - start))\n"
)
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

PER_PARTNER_COUNTERS = (
    "surface.MarkedConfig.builds",
    "surface.EllipticSurface.builds",
    "projective.BasePoint.sort_key.calls",
    "qz.QZ.builds",
    "fibers.euler_contribution.calls",
    "twists.TwistedSurface.builds",
)
PER_OP_COUNTERS = (
    "partners.partner_indices.elements",
    "partners.classify.blocks",
    "partners.rigidity.candidates",
    "projective.MobiusMap.builds",
)
SPANS = (
    "catalog.get",
    "twists.twist_class",
    "twists.twist",
    "partners.enumerate",
    "surface.invariants",
    "surface.doc",
    "partners.certify",
    "partners.is_prime",
    "partners.partner_indices",
    "partners.classify",
    "partners.rigidity",
)


class TooFewOperations(Exception):
    pass


def rank(n: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``n`` sorted samples."""
    return max(1, math.ceil(n * pct / 100))


def tail_percentile(n: int, preferred: float) -> float | None:
    """Highest ladder percentile <= ``preferred`` with at least 10 samples beyond it."""
    for pct in TAIL_LADDER:
        if pct <= preferred and n - rank(n, pct) >= 10:
            return pct
    return None


def measure_setup(workload, env: dict) -> list[float]:
    from workloads import run_child

    argv = [sys.executable, "-c", SETUP_CODE, *workload.bases]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        child = run_child(argv, env, str(ROOT))
        if child.exit_code != 0:
            raise RuntimeError(f"set-up child failed: {child.stderr.strip()}")
        if i:  # the first child warms the bytecode cache and is not counted
            samples.append(float(child.stdout))
    return samples


def measure(name: str, seed: int, seconds: float, traced: bool, max_ops: int | None = None) -> dict:
    """Run one workload and return everything it measured.

    Runs until ``seconds`` have passed (or exactly ``max_ops`` operations).
    A traced run runs at least the workload's ``count_ops`` operations, over
    which its counts are taken.
    """
    import ellfm
    from tracing import NULL_TRACER, Tracer
    from workloads import ChildRun, child_env, make_workloads

    workload = make_workloads(str(SRC), str(ROOT), traced)[name]
    setup_samples = measure_setup(workload, child_env(str(SRC)))

    tracer = Tracer() if traced else NULL_TRACER
    if traced:
        tracer.install()
    try:
        tracer.counting = False
        with tracer.span("catalog.get"):
            bases = {n: ellfm.catalog_get(n).surface for n in workload.bases}
        setup_spans = tracer.spans if traced else {}
        if traced:
            tracer.spans = {}
        inputs = workload.inputs(seed, bases)
        latencies: list[float] = []
        failures: list[str] = []
        partners = 0
        window = {"ops": 0, "partners": 0, "labels": {}}
        children = []
        deadline = time.perf_counter() + seconds
        while True:
            done = len(latencies)
            if max_ops is not None:
                if done >= max_ops:
                    break
            elif time.perf_counter() >= deadline and not (traced and done < workload.count_ops):
                break
            inp = next(inputs)
            in_window = traced and done < workload.count_ops
            before = Counter(tracer.partner_counts) if in_window else None
            tracer.counting = in_window
            start = time.perf_counter()
            try:
                result = workload.run(inp, tracer)
                error = None
            except Exception as exc:  # an operation that raises is a failed operation
                result, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
            tracer.counting = False
            try:
                problem = error or workload.check(inp, result)
            except Exception as exc:  # a check that cannot read the answer fails it
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                failures.append(problem)
            built = workload.partners(result) if result is not None else 0
            partners += built
            if in_window:
                window["ops"] += 1
                window["partners"] += built
                if built:  # census inputs start with the base name; keep counts per base too
                    label = window["labels"].setdefault(inp[0], {"partners": 0, "counts": Counter()})
                    label["partners"] += built
                    label["counts"].update(Counter(tracer.partner_counts) - before)
            if isinstance(result, ChildRun):
                children.append(result)
    finally:
        if traced:
            tracer.uninstall()

    return {
        "workload": workload,
        "setup_samples": setup_samples,
        "setup_spans": setup_spans,
        "latencies": latencies,
        "failures": failures,
        "partners": partners,
        "children": children,
        "window": window,
        "tracer": tracer if traced else None,
        "self_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def end_to_end(m: dict) -> tuple[dict, list[str]]:
    lat = sorted(m["latencies"])
    busy = sum(lat)
    workload = m["workload"]
    pct = tail_percentile(len(lat), workload.tail_pct)
    if pct is None:
        raise TooFewOperations(f"only {len(lat)} operations; too few for a tail percentile")
    if m["children"]:
        peak_kb = max(c.maxrss_kb for c in m["children"])
    else:
        peak_kb = m["self_maxrss_kb"]
    metrics = {
        "setup_s": (statistics.median(m["setup_samples"]), "s"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "latency_ms.p50": (statistics.median(lat) * 1e3, "ms"),
        "latency_ms.tail": (lat[rank(len(lat), pct) - 1] * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    beyond = len(lat) - rank(len(lat), pct)
    notes = [
        f"latency_ms.tail is p{pct:g} over {len(lat)} operations ({beyond} beyond it)",
        f"fail_ratio {len(m['failures']) / len(lat):.6g} ({len(m['failures'])}/{len(lat)})",
        "setup_s samples " + " ".join(f"{s:.4f}" for s in m["setup_samples"]),
        f"wall over operations: {busy:.6f} s",
    ]
    if m["partners"]:
        notes.append(f"partners_per_s {m['partners'] / busy:.6g} ({m['partners']} partners)")
    return metrics, notes


def per_layer(m: dict) -> tuple[dict, list[str]]:
    tracer = m["tracer"]
    window = m["window"]
    ops = max(window["ops"], 1)
    busy = sum(m["latencies"])
    counts = tracer.counts
    metrics = {}
    for name in PER_PARTNER_COUNTERS:
        per = tracer.partner_counts[name] / window["partners"] if window["partners"] else 0.0
        metrics[name] = (per, "1/partner")
    for name in PER_OP_COUNTERS:
        metrics[name] = (counts[name] / ops, "1/op")
    candidates = counts["partners.rigidity.candidates"]
    useful = counts["partners.rigidity.symmetries"] / candidates if candidates else 0.0
    metrics["partners.rigidity.useful_ratio"] = (useful, "ratio")
    for name in SPANS:
        stats = tracer.spans.get(name)
        metrics[name + ".calls"] = (counts[name + ".calls"] / ops, "1/op")
        metrics[name + ".fails"] = (counts[name + ".fails"], "count")
        metrics[name + ".busy_pct"] = (100 * stats.busy_s / busy if stats else 0.0, "%")
    children = m["children"]
    wall = sum(c.wall_s for c in children)
    imp = sum(c.split["import_s"] for c in children if c.split)
    main = sum(c.split["main_s"] for c in children if c.split)
    window_children = children[: window["ops"]]
    metrics["cli.import_pct"] = (100 * imp / wall if wall else 0.0, "%")
    metrics["cli.main_pct"] = (100 * main / wall if wall else 0.0, "%")
    metrics["cli.interp_pct"] = (100 * (wall - imp - main) / wall if wall else 0.0, "%")
    metrics["cli.stdout_bytes"] = (
        sum(len(c.stdout) for c in window_children) / ops if window_children else 0.0,
        "B/op",
    )

    notes = [f"traced: {len(m['latencies'])} operations, counts over the first {window['ops']}"]
    for name in SPANS:
        stats = tracer.spans.get(name)
        if stats:
            notes.append(f"span {name}: calls {stats.calls} busy_s {stats.busy_s:.6f} fails {stats.fails}")
    for name, stats in m["setup_spans"].items():
        notes.append(f"set-up span {name}: calls {stats.calls} busy_s {stats.busy_s:.6f} fails {stats.fails}")
    for name in sorted(counts):
        notes.append(f"count {name}: {counts[name]} ({counts[name] / ops:.6g}/op)")
    for label, data in sorted(window["labels"].items()):
        per = " ".join(f"{n}={data['counts'][n] / data['partners']:.6g}" for n in PER_PARTNER_COUNTERS)
        notes.append(f"per partner on {label}: {per}")
    if children:
        n = len(children)
        notes.append(
            f"cli.import_s {imp / n:.6f} cli.main_s {main / n:.6f} "
            f"cli.interp_s {(wall - imp - main) / n:.6f} (means over {n} invocations)"
        )
    notes.append(f"traced wall over operations: {busy:.6f} s")
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census", "certify", "rigidity", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None, help="run exactly this many operations")
    args = parser.parse_args(argv)

    if not (SRC / "ellfm" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no ellfm package under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import ellfm

    if Path(ellfm.__file__).resolve().parent != SRC / "ellfm":
        sys.stderr.write(f"perfbench: imported ellfm from {ellfm.__file__}, not from {SRC}\n")
        return 2

    m = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.max_ops)
    try:
        metrics, notes = per_layer(m) if args.trace else end_to_end(m)
    except TooFewOperations as exc:
        sys.stderr.write(f"perfbench: {exc}; run for longer\n")
        return 1
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in notes + [f"failure: {f}" for f in m["failures"][:10]]:
        print("# " + line)
    result = {
        "correct": not m["failures"],
        "attempted": len(m["latencies"]),
        "failed": len(m["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
