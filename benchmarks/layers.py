"""Per-layer timings of a reference training step and of a whole group.

Run from the repository root:

    python3 benchmarks/layers.py --out BENCH_layers.json

The profile is the committed reference (``reference/phase_transition.cfg``:
ReLU 25 -> 32 -> 2, d = 864, 500 full-batch rows) at alpha = 1.6 in the
sigma1 * sqrt(d) = 0.1 group, seed 0. Layers timed, each over REPEATS
repeats of a batch of calls, reported per call as min / median / quartiles
/ IQR:

- ``loop.*``: what one step of ``run_training`` executes: the full-batch
  gradient, the stable term (the subordinator's uniforms and G, drawn
  once per group, then the alpha's scale sqrt(A) and its multiply into
  the group's draw buffer), one EM update, and what an eval step adds:
  one ``ModelKernel.error_rates`` call each on the train and test sets.
- ``data.generate_synthetic``: building the data set of the MNIST-shaped
  profile of ``perfbench``'s ``mnist-linear-minibatch`` workload
  (``SyntheticSpec(313, 784, 10, 3.0, 1.0, seed=0)``: 2504 train rows of
  784 inputs), as every grid start does, min / median wall time over
  GENERATE_REPEATS calls, and the peak bytes ``tracemalloc`` sees
  allocated during one more call next to the bytes of the features it
  returns.
- ``eval.group_mnist``: one eval step of a 10-alpha group of that
  MNIST-shaped profile (linear softmax, 784 -> 10, d = 7840, batch 64,
  sigma2 = 0.01, evals every 10 steps, window 150, 200 steps), train and
  test sets together: one ``ModelKernel.error_rates`` call per data set,
  as ``run_group`` makes it.
- ``group.ref`` and ``group.mnist``: one (sigma1, width, seed) group of
  the 10 reference alphas through ``execute_grid`` on a fresh records
  file, data set-up included: the reference profile's first sigma1 at
  seed 0, and the MNIST-shaped profile above. This is the sweep's unit
  of work; a tree that trains a group's alphas one cell at a time is
  timed the same way. Both run as a user's ``levybound grid`` does: the
  reference group's full-batch alphas are split across the usable CPUs,
  and the MNIST-shaped minibatch group trains in this process, its evals
  on ``run_group``'s helper thread.
- ``group.ref.one_core`` and ``group.mnist.one_core``: ``group.ref`` and
  ``group.mnist`` with this process pinned to its first usable CPU
  (``os.sched_setaffinity``, restored afterwards), as under ``taskset -c
  0``: the reference group trains serially, and the eval helper thread
  shares the one CPU with the training loop.
- ``group.ref.tracemalloc``: the peak bytes ``tracemalloc`` sees
  allocated during one ``grid.evaluate_group`` call of that reference
  group, its data set loaded before tracing starts, measured before any
  other layer runs. It runs pinned to one CPU, since ``tracemalloc``
  does not see a forked worker's allocations.
- ``records.*`` and ``analysis.*``: ``write_records``, ``read_records``
  and ``read_table`` on a seeded RECORD_ROWS-row d-scan records file,
  then ``build_report`` (group key d) and ``alpha_regression`` on the
  table ``read_table`` returns, as ``analyze`` and ``regress-alpha`` run
  them.
- ``analysis.taus.small``: the Kendall tau engine ``analysis._block_taus``
  as a group-key-d scan of that table calls it: once on every (d, seed)
  block of alphas and gaps (at most 20 rows each), once on every d
  group's (alpha, mean gap) rows.
- ``analysis.taus.big``: ``_block_taus`` on BIG_BLOCKS blocks of
  BIG_BLOCK_ROWS rows (alphas from 10 values, gaps from 50), blocks over
  the 256 rows up to which a block's pairs are counted all at once.

BLAS is pinned to one thread (the script re-executes itself with the
variables set); glibc's malloc is left at its defaults, as a user's
``levybound grid`` runs. The JSON also records the BLAS thread count the
library reports, the numpy version, ``os.cpu_count()``, the usable CPU
count (``os.sched_getaffinity``) and a digest of the ``src/`` tree
measured.
"""

import os
import sys

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import levybound as lb  # noqa: E402
from levybound import analysis, models, sde, stable  # noqa: E402
from levybound.cli import _grid_spec  # noqa: E402
from levybound.data import parse_config  # noqa: E402
from levybound.grid import (  # noqa: E402
    _model_for,
    evaluate_group,
    load_grid_datasets,
)

REPEATS = 25
GROUP_REPEATS = 5
MNIST_GROUP_REPEATS = 10
GENERATE_REPEATS = 15
ALPHA = 1.6
RECORD_ROWS = 10_000
BIG_BLOCKS = 100
BIG_BLOCK_ROWS = 300


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


def git(*args):
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "pinned_env": PINNED_ENV,
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "git_head": git("rev-parse", "HEAD"),
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "src_sha256": digest.hexdigest(),
    }


def summary(samples, unit, scale):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "unit": unit, "repeats": len(samples),
        "min": min(samples) * scale, "median": median * scale,
        "q1": q1 * scale, "q3": q3 * scale, "iqr": (q3 - q1) * scale,
    }


def time_calls(fn, number):
    """Per-call microseconds of ``number`` back-to-back calls, REPEATS times."""
    fn()
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return {**summary(samples, "us", 1e6), "calls_per_repeat": number}


def step_layers(spec, train, test, cfg, params):
    """(name, callable, calls per repeat) for one training step as ``run_training`` runs it."""
    d = params.size
    rng = lb.RngStream(0, 1)
    rows = np.arange(train.n)
    kernel = models.ModelKernel(spec, train.n)
    x, label_index = train.features[rows], kernel.row_starts + train.labels[rows]
    eval_sets = [(models.ModelKernel(spec, data.n), data) for data in (train, test)]

    def gradient():
        return kernel.gradient(params, x, label_index)

    def errors():
        return [k.error_rates((params,), data.features, data.labels) for k, data in eval_sets]

    noise, gaussian, buffer = stable.StableNoise(cfg.alpha), np.empty(d), np.empty(d)

    def stable_draw():
        u, w = stable.cms_uniforms(rng)
        rng.gen.standard_normal(out=gaussian)
        return np.multiply(gaussian, noise.scale(u, w), out=buffer)

    grad, draw = gradient().copy(), stable_draw().copy()
    update, out = sde.EulerMaruyama(cfg, d), np.empty(d)
    return [
        ("gradient", gradient, 200),
        ("stable_draw", stable_draw, 1000),
        ("em_update", lambda: update(params, grad, draw, None, out), 2000),
        ("eval", errors, 500),
    ]


def mnist_grid():
    """One alpha of perfbench's mnist-linear-minibatch profile."""
    return lb.GridSpec(
        alphas=(ALPHA,), sigma1s=(0.01,), widths=(0,), seeds=(0,),
        train=lb.TrainConfig(gamma=0.01, eta=0.001, alpha=ALPHA, sigma1=0.01, sigma2=0.01,
                             steps=200, batch_size=64, eval_interval=10),
        data=lb.SyntheticSpec(313, 784, 10, 3.0, 1.0, seed=0), out=os.devnull,
        window=150, trim=0.15,
    )


def group_eval_step(grid):
    """One eval step of a group of ``grid``'s alphas, both data sets."""
    train, test = load_grid_datasets(grid)
    spec = _model_for(grid.widths[0], train)
    rng = lb.RngStream(0, 3)
    ps = [lb.init_params(spec, grid.init_scale, rng) for _ in grid.alphas]
    sets = [(models.ModelKernel(spec, data.n), data) for data in (train, test)]

    def step():
        for kernel, data in sets:
            kernel.error_rates(ps, data.features, data.labels)
    return step


def time_generate(spec, repeats):
    """Wall time of ``generate_synthetic(spec)`` and its tracemalloc peak."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        lb.generate_synthetic(spec)
        walls.append(time.perf_counter() - t0)
    tracemalloc.start()
    train, test = lb.generate_synthetic(spec)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {**summary(walls, "ms", 1e3), "tracemalloc_peak_bytes": peak,
            "output_bytes": train.features.nbytes + test.features.nbytes}


def time_group(grid, repeats):
    """Wall time of ``execute_grid`` on a one-group grid, a new file each repeat."""
    walls = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(repeats):
            out = str(Path(tmp) / f"group-{i}.csv")
            t0 = time.perf_counter()
            lb.execute_grid(replace(grid, out=out))
            walls.append(time.perf_counter() - t0)
    return summary(walls, "s", 1.0)


@contextlib.contextmanager
def one_core():
    """Pin this process, its threads and any worker it forks to its first usable CPU."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def group_peak(grid, train, test):
    """tracemalloc peak of one ``evaluate_group`` call of ``grid``'s first
    (sigma1, width, seed) group on data loaded before tracing starts."""
    with one_core():
        tracemalloc.start()
        evaluate_group(grid, train, test, grid.alphas, grid.sigma1s[0], grid.widths[0],
                       grid.seeds[0])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return {"unit": "B", "tracemalloc_peak_bytes": peak}


def d_scan_records(rows):
    """Seeded records shaped like a d-scan sweep: 10 alphas x 2 sigma1 x
    50 seeds per width, gap ~ d^(1/2 - alpha/4) with lognormal noise and
    1% diverged rows."""
    rng = np.random.default_rng(0)
    alphas = np.linspace(1.6, 2.0, 10).tolist()
    records = []
    for w in range(8, 8 + rows // 1000):
        d = 27 * w  # ReLU 25 -> w -> 2
        for alpha in alphas:
            for sigma1 in (0.003, 0.3):
                for seed in range(50):
                    if rng.random() < 0.01:
                        records.append(lb.RunRecord(alpha, sigma1, d, w, 500, seed,
                                                    np.nan, np.nan, np.nan, True))
                        continue
                    gap = 0.02 * d ** (0.5 - alpha / 4) * float(np.exp(0.2 * rng.standard_normal()))
                    i_hat = float(rng.lognormal(0.0, 0.5))
                    records.append(lb.RunRecord(alpha, sigma1, d, w, 500, seed,
                                                gap, i_hat, 5.0 * i_hat, False))
    return records


def records_layers(path):
    """(name, callable, calls per repeat) for the records file and its analysis."""
    records = d_scan_records(RECORD_ROWS)
    lb.write_records(path, records)
    table = lb.read_table(path)
    return [
        ("records.write", lambda: lb.write_records(path, records), 1),
        ("records.read", lambda: lb.read_records(path), 1),
        ("records.read_table", lambda: lb.read_table(path), 1),
        ("analysis.build_report", lambda: lb.build_report(table, "d"), 1),
        ("analysis.alpha_regression", lambda: lb.alpha_regression(table), 5),
    ]


def tau_layers(table):
    """(name, callable, calls per repeat) for the Kendall tau engine."""
    live = ~table.diverged
    d, alpha, gap, seed = (getattr(table, f)[live] for f in ("d", "alpha", "gap", "seed"))
    by_seed = np.lexsort((seed, d))
    seed_bounds = analysis._run_bounds(d[by_seed], seed[by_seed])
    by_alpha = np.lexsort((alpha, d))
    alpha_bounds = analysis._run_bounds(d[by_alpha], alpha[by_alpha])
    group_runs = np.searchsorted(alpha_bounds, analysis._run_bounds(d[by_alpha]))
    run_alphas = alpha[by_alpha][alpha_bounds[:-1]]
    means = np.array([np.mean(s) for s in np.split(gap[by_alpha], alpha_bounds[1:-1])])

    def small():
        analysis._block_taus(alpha[by_seed], gap[by_seed], seed_bounds)
        analysis._block_taus(run_alphas, means, group_runs)

    rng = np.random.default_rng(1)
    rows = BIG_BLOCKS * BIG_BLOCK_ROWS
    x, y = rng.integers(0, 10, rows) / 10.0, rng.integers(0, 50, rows) / 8.0
    bounds = np.arange(0, rows + 1, BIG_BLOCK_ROWS)
    return [
        ("analysis.taus.small", small, 20),
        ("analysis.taus.big", lambda: analysis._block_taus(x, y, bounds), 1),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()

    grid = _grid_spec(parse_config(ROOT / "reference" / "phase_transition.cfg"), os.devnull)
    train, test = load_grid_datasets(grid)
    spec = _model_for(grid.widths[0], train)
    cfg = replace(grid.train, alpha=ALPHA, sigma1=grid.sigma1s[0])
    params = lb.init_params(spec, grid.init_scale, lb.RngStream(0))
    ref_group = replace(grid, sigma1s=grid.sigma1s[:1], seeds=(0,))

    # first, so that no earlier layer's allocations move the peak
    layers = {"group.ref.tracemalloc": group_peak(ref_group, train, test)}
    peak = layers["group.ref.tracemalloc"]["tracemalloc_peak_bytes"]
    print(f"group.ref.tracemalloc: peak {peak} B", flush=True)
    for name, fn, number in step_layers(spec, train, test, cfg, params):
        key = f"loop.{name}"
        layers[key] = time_calls(fn, number)
        print(f"{key}: median {layers[key]['median']:.2f} us", flush=True)
    mnist = mnist_grid()
    layers["data.generate_synthetic"] = time_generate(mnist.data, GENERATE_REPEATS)
    print(f"data.generate_synthetic: median {layers['data.generate_synthetic']['median']:.1f} ms,"
          f" peak {layers['data.generate_synthetic']['tracemalloc_peak_bytes']} B", flush=True)
    layers["eval.group_mnist"] = time_calls(group_eval_step(replace(mnist, alphas=grid.alphas)), 4)
    print(f"eval.group_mnist: median {layers['eval.group_mnist']['median']:.0f} us", flush=True)
    for key, group, repeats, cores in (
        ("group.ref", ref_group, GROUP_REPEATS, contextlib.nullcontext()),
        ("group.ref.one_core", ref_group, GROUP_REPEATS, one_core()),
        ("group.mnist", replace(mnist, alphas=grid.alphas), MNIST_GROUP_REPEATS,
         contextlib.nullcontext()),
        ("group.mnist.one_core", replace(mnist, alphas=grid.alphas), MNIST_GROUP_REPEATS,
         one_core()),
    ):
        with cores:
            layers[key] = time_group(group, repeats)
        print(f"{key}: median {layers[key]['median']:.3f} s", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        for key, fn, number in records_layers(path) + tau_layers(lb.read_table(path)):
            layers[key] = time_calls(fn, number)
            print(f"{key}: median {layers[key]['median']:.0f} us", flush=True)

    result = {"profile": {"config": "reference/phase_transition.cfg", "alpha": ALPHA,
                          "sigma1": grid.sigma1s[0], "width": grid.widths[0], "seed": 0,
                          "d": params.size, "n": train.n, "record_rows": RECORD_ROWS,
                          "big_blocks": BIG_BLOCKS, "big_block_rows": BIG_BLOCK_ROWS},
              "environment": environment(), "layers": layers}
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
