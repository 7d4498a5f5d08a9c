"""Smoke check of the benchmark itself; not part of the test suite.

Run from the repository root (about a minute):

    python3 perfbench/smoke.py

For every workload at tiny size it runs the benchmark untraced once and
traced twice, and checks that each run exits 0 with every oracle passing,
that the result names every metric of BENCHMARK.json with its unit, and
that the computed counts of the two traced runs are identical. It also
checks the reference-row oracle against the committed rows, and that the
benchmark exits non-zero without a result when the package is absent.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNT_STATS = ("calls", "values", "rows", "flops_computed", "bytes_computed", "steps", "diverged")


def run(workload, trace, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc, spec_metrics):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"oracle failures: {proc.stderr}")
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise AssertionError(f"{name} value {m['value']!r}")
        printed = f"{name} {m['value']!r} {m['unit']}"
        if printed not in proc.stdout.splitlines():
            raise AssertionError(f"{name} not printed with its unit")
    return result


def check_reference_oracle():
    sys.path.insert(0, str(BENCH))
    from workloads import _read_csv, reference_match

    rows = _read_csv(ROOT / "reference" / "phase_transition_records.csv")
    if not all(reference_match(r, r) for r in rows):
        raise AssertionError("reference oracle rejects the committed rows")
    bumped = dict(rows[0], gap=repr(math.nextafter(float(rows[0]["gap"]), 1.0)))
    if reference_match(bumped, rows[0]):
        raise AssertionError("reference oracle accepts a gap one ulp off")


def check_fails_without_package():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("analyze-large", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("benchmark ran without the package")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_reference_oracle()
    print("ok reference oracle")
    check_fails_without_package()
    print("ok fails without the package")
    for wl in spec["workloads"]:
        name = wl["name"]
        result_of(run(name, 0), spec["end_to_end"])
        first, second = (result_of(run(name, 1), spec["per_layer"])["metrics"] for _ in range(2))
        drift = [k for k in first if k.rpartition(".")[2] in COUNT_STATS
                 and first[k]["value"] != second[k]["value"]]
        if drift:
            raise AssertionError(f"{name}: computed counts differ between runs: {drift}")
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
