"""levybound benchmark: one workload per run, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload ref-grid --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched:
operations run back to back for ``--seconds`` (at least one) while a
machine-speed probe (speed.py) times a fixed kernel that resembles the
workload's own work every 0.2 s, and the times are reported in reference
seconds (wall time scaled by the kernel's reference speed over its speed
during the same stretch).
``--trace 1`` ignores ``--seconds``: it runs a fixed number of operations
untraced, then the same operations with spans recorded at every module
boundary (see spans.py), and prints the per-layer metrics plus
``trace_overhead_frac``. Every operation's output is checked against an
oracle outside the timed region (see workloads.py). The last stdout line
is the JSON result; the lines before it repeat each metric with its
unit, the failure fraction and an environment manifest. Results and
spans are also written under ``.perfbench/``.

End-to-end metrics, printed on every workload:

- ``cells_per_s`` / ``records_per_s``: one cell is one records row, so
  both count rows per reference second of operation time: rows the
  ``grid`` calls produced, or rows the ``analyze`` + ``regress-alpha``
  passes consumed, over the operations' summed reference seconds (the
  probe's handler time taken out). They are the same number on each
  workload. The same rate in wall seconds is printed as ``wall_rows_per_s``
  on a text line; on a shared 2-core machine it swings by up to 2.5x
  between runs of the same code, the reference rate by a few percent.
- ``setup_s``: median wall time of a fresh interpreter that imports
  levybound, parses the workload's config and builds its dataset (or
  writes its records CSV); 7 repeats per run. It stays in wall seconds:
  the kernel timed in this process right before and after a child
  process reads up to 4x slow (cold caches, the child's teardown), so
  scaling by it spread set-up times more than it steadied them.
- ``peak_rss_mb``: peak resident set size of this process plus the
  largest child.
- ``ok_frac``: 1 - failed_frac, the share of checks that passed; a check
  fails when its call raised, exited non-zero or disagreed with the
  oracle. It is reported this way round so that it is never zero.

BLAS is pinned to one thread, and glibc's malloc thresholds to where its
own dynamic adjustment takes them at most (mmap threshold 32 MiB, trim
threshold twice that). Unpinned, the same ``grid`` call runs in one of
two heap states decided by incidental allocation sizes, down to the
length of its output path: in one, malloc hands the top of the heap back
to the kernel after every training step and faults it in again
(ref-grid, 10 cells in a fresh interpreter: 2.6 million page faults and
19.9 s, against 6 thousand and 11.8 s with a 20 characters longer path;
pinned, 6 thousand and 10.7-11.5 s at every length). glibc reads the
thresholds at process start, so the benchmark re-executes itself with
them set. LEVYBOUND_WORKERS is left as the environment sets it. The
manifest records all of these.
"""

import os
import sys

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20),
}
if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import PER_LAYER, Tracer, per_layer_metrics  # noqa: E402
from speed import Sampler  # noqa: E402
from workloads import WORKLOADS, timed_cli  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 7
END_TO_END_UNITS = {
    "cells_per_s": "cells/s",
    "records_per_s": "records/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def import_levybound():
    """Import levybound from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import levybound
        import levybound.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import levybound from {src}: {exc}")
    if Path(levybound.__file__).resolve().parent != src / "levybound":
        sys.exit(f"perfbench: levybound resolved to {levybound.__file__}, not {src}")
    return levybound


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def manifest():
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        blas_name = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "pinned_env": PINNED_ENV,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "levybound_workers": os.environ.get("LEVYBOUND_WORKERS", "unset"),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def measure_setup(args, workdir):
    """Median wall time of fresh interpreters running the workload's setup."""
    walls = []
    for i in range(SETUP_REPEATS):
        target = workdir / f"setup-{i}"
        target.mkdir()
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only", str(target)]
        if args.size == "tiny":
            argv += ["--size", "tiny"]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=150)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup probe failed ({proc.returncode}): {proc.stderr}")
        shutil.rmtree(target)
    return statistics.median(walls)


def run_untraced(lb, wl, seconds):
    """Operations back to back for ``seconds`` under the speed probe."""
    with Sampler(wl.probe_kernel) as sampler:
        def run_calls(argv_list):
            ok, start, wall = timed_cli(lb, argv_list)
            return (ok, *sampler.reference_seconds(start, start + wall))

        ops = []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            ops.append(wl.op(len(ops), run_calls))
    return ops


def run_traced(lb, wl, run_id):
    """Same operations untraced, then traced; returns (ops, tracer, overhead)."""
    def run_calls(argv_list):
        ok, _, wall = timed_cli(lb, argv_list)
        return ok, wall, None

    untraced = [wl.op(k, run_calls) for k in range(wl.n_trace_ops)]
    tracer = Tracer(run_id)
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            wl.setup()
        traced = []
        for k in range(wl.n_trace_ops):
            with tracer.span("bench.op"):
                traced.append(wl.op(k, run_calls))
    finally:
        tracer.uninstall()
    overhead = sum(op.wall for op in traced) / sum(op.wall for op in untraced) - 1.0
    return untraced + traced, tracer, overhead


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke check's shrunken inputs")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="internal: run the workload's setup in DIR and exit")
    args = parser.parse_args(argv)

    lb = import_levybound()
    tiny = args.size == "tiny"
    if args.setup_only:
        WORKLOADS[args.workload](lb, ROOT, Path(args.setup_only), args.seed, tiny).setup()
        return 0

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{run_id}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](lb, ROOT, workdir, args.seed, tiny)
        if args.trace:
            wl.setup()
            ops, tracer, overhead = run_traced(lb, wl, run_id)
            tracer.write(out_dir / f"{run_id}-spans.csv")
        else:
            setup_s = measure_setup(args, workdir)
            wl.setup()
            ops = run_untraced(lb, wl, args.seconds)
        attempted = len(ops) * wl.checks_per_op
        failed = sum(wl.verify(op) for op in ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, units = per_layer_metrics(tracer, overhead), dict(PER_LAYER)
    else:
        rows = sum(op.units for op in ops)
        wall = sum(op.wall for op in ops)
        rate = rows / sum(op.ref for op in ops)
        values = {
            "cells_per_s": rate,
            "records_per_s": rate,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    env = manifest()
    with open(out_dir / f"{run_id}.json", "w") as f:
        json.dump({"manifest": env, "metrics": metrics, "attempted": attempted,
                   "failed": failed, "op_walls_s": [op.wall for op in ops]}, f, indent=1)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(ops)} op_wall_s_min={min(op.wall for op in ops):.4g} "
          f"op_wall_s_median={statistics.median(op.wall for op in ops):.4g}")
    print("manifest " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    if not args.trace:
        print(f"wall_rows_per_s {rows / wall!r} rows/s (wall-clock seconds)")
    print(f"failed_frac {failed / attempted!r} frac ({failed} of {attempted} checks)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
