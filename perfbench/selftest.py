"""Fast self-test of the benchmark (about a minute on two cores).

Usage (from the repository root): python3 perfbench/selftest.py

Runs every workload briefly through ``run.py`` with a fixed number of
operations and checks that:

* the last stdout line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, every answer was correct (fail_ratio 0), and the
  metrics are exactly those of ``BENCHMARK.json`` with their units;
* the traced run attempts the same operations as the untraced run, and two
  traced runs with the same seed report identical counts;
* on ``census`` the default base costs exactly 2 ``MarkedConfig`` builds and
  9 ``BasePoint.sort_key`` calls per partner;
* ``rigidity`` groups agree with the independent oracle in
  ``tests/_mobius_oracle.py`` on a sample of small configurations.

It also prints the tracing overhead: traced minus untraced wall time over
the same operations.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
OPS = {"census": 20, "certify": 20, "rigidity": 200, "cli": 20}
COUNT_UNITS = {"1/partner", "1/op", "count", "ratio", "B/op"}


def run(workload: str, trace: int) -> tuple[dict, str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--max-ops", str(OPS[workload])]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, f"{workload}: {proc.stdout}"
    assert result["attempted"] == OPS[workload], result["attempted"]
    return result, proc.stdout


def note(stdout: str, prefix: str) -> str:
    for line in stdout.splitlines():
        if line.startswith("# " + prefix):
            return line
    raise AssertionError(f"no line starting with {prefix!r}")


def wall(stdout: str, prefix: str) -> float:
    return float(re.search(r"([0-9.]+) s$", note(stdout, prefix)).group(1))


def check_metrics(result: dict, declared: list[dict]) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"metric names/units differ: {set(got) ^ set(want)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def check_oracle() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    from _mobius_oracle import oracle_symmetries

    import ellfm
    from workloads import rigidity_inputs

    inputs = rigidity_inputs(SEED, {})
    checked = 0
    for _ in range(120):
        config = next(inputs)
        if len(config) > 6:  # the oracle is O(n^6)
            continue
        report = ellfm.rigidity_check(config)
        rigid, group = oracle_symmetries(config)
        assert report.rigid == rigid and {m.entries() for m in report.symmetries} == set(group), config
        checked += 1
    return checked


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in OPS:
        plain, plain_out = run(workload, 0)
        check_metrics(plain, spec["end_to_end"])
        traced, traced_out = run(workload, 1)
        check_metrics(traced, spec["per_layer"])
        again, _ = run(workload, 1)
        counts = {k: v["value"] for k, v in traced["metrics"].items() if v["unit"] in COUNT_UNITS}
        repeat = {k: v["value"] for k, v in again["metrics"].items() if v["unit"] in COUNT_UNITS}
        assert counts == repeat, {k: (counts[k], repeat[k]) for k in counts if counts[k] != repeat[k]}
        if workload == "census":
            line = note(traced_out, "per partner on persson-III*-I2-I1:")
            assert "surface.MarkedConfig.builds=2 " in line and "sort_key.calls=9 " in line, line
        untraced_s = wall(plain_out, "wall over operations")
        traced_s = wall(traced_out, "traced wall over operations")
        print(f"{workload}: ok ({OPS[workload]} operations); tracing overhead "
              f"{traced_s - untraced_s:+.3f} s on {untraced_s:.3f} s ({100 * (traced_s / untraced_s - 1):+.0f}%)")
    print(f"rigidity oracle: {check_oracle()} configurations agree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
