"""Reproduce the single-point baseline timings quoted in ROADMAP.md.

Usage (from the repository root): python3 perfbench/baseline.py

Times, with the benchmark's own operations and child runner, the median of
several repetitions of:

* ``enumerate_partners`` on the order-10007 twist of the default base;
* ``certify_partner_count(999983, 5)`` on the default base;
* one ``python -m ellfm verify --p 101 --n 5`` invocation, and a bare
  ``python3 -c pass`` for comparison.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ellfm  # noqa: E402
from tracing import NULL_TRACER  # noqa: E402
from workloads import certify_run, child_env, order_p_class, run_child  # noqa: E402


def median_s(fn, repeat: int) -> float:
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main() -> int:
    base = ellfm.catalog_get(ellfm.DEFAULT_ENTRY).surface
    twisted = ellfm.twist(base, order_p_class(base, 10007))
    env = child_env(str(ROOT / "src"))
    cli = [sys.executable, "-m", "ellfm", "verify", "--p", "101", "--n", "5"]
    rows = [
        ("enumerate_partners, p=10007, default base", median_s(lambda: ellfm.enumerate_partners(twisted), 5)),
        ("certify_partner_count(999983, 5)", median_s(lambda: certify_run((999983, 5), NULL_TRACER), 5)),
        ("python -m ellfm verify --p 101 --n 5", median_s(lambda: run_child(cli, env, str(ROOT)), 15)),
        ("python3 -c pass", median_s(lambda: run_child([sys.executable, "-c", "pass"], env, str(ROOT)), 15)),
    ]
    for name, seconds in rows:
        print(f"{name:45s} {seconds * 1e3:9.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
