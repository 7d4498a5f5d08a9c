"""Experiment grid execution.

A grid is the cartesian product (alpha values) x (sigma1 values) x
(widths) x (seeds) over one shared dataset. Cells run group by group:
the pending alphas of one (sigma1, width, seed) group train together in
lockstep through ``evaluate_group``, and each row is, bit for bit, the
row of that alpha's one-alpha group (``simulate``'s one cell), up to
the eval's rounding noted below. A full-batch group's alphas are split
into contiguous chunks, one per usable core (``os.sched_getaffinity``):
this process trains the first and a forked worker each other one, so
``taskset -c 0`` runs a sweep serially, as does a platform without
``os.sched_getaffinity`` or ``os.fork``. A group's rows are appended to the
output CSV when the group finishes, so an interrupted sweep loses at
most one group's unfinished cells and resumes by skipping rows already
on disk (a row torn by the interruption is dropped and recomputed). A
resumed file may hold only this grid's cells, each once, with this
grid's d and n. The final file is rewritten sorted by (alpha, sigma1, d,
seed) so its content does not depend on execution order.

A cell evaluates only what its row reads: ``run_group(after=steps -
window)`` skips the eval steps before the trailing ``window``, and the
row is reduced from the cell's ``RunTrace`` by ``robust_gap``,
``integral_estimate`` and ``bound_estimate``. At an eval step the
group's live alphas are evaluated together, in one forward pass over
each data set (``ModelKernel.error_rates``). The wider product can round
differently from one alpha's own, so a row is its one-alpha row bit for
bit unless one of the window's test (or minibatch train) rows has two
logits within rounding of each other; the reference and MNIST-shaped
profiles' rows are identical.

Each cell's random stream is keyed by the cell seed plus the (sigma,
width) grid indices only. Alpha is deliberately excluded from the key:
noise-free cells then share their trajectory across alpha, and noisy
cells see common underlying randomness, which makes the correlation
between alpha and the gap less noisy. It is also what lets a group
draw its stream once for all its alphas.
"""

import math
import os
import pickle
from dataclasses import dataclass, replace
from itertools import product

from .analysis import robust_gap
from .bounds import BoundInputs, bound_estimate, integral_estimate
from .data import (
    RunRecord,
    SyntheticSpec,
    append_records,
    complete_lines,
    drop_torn_row,
    generate_synthetic,
    load_idx,
    parse_records,
    write_records,
)
from .errors import DataFormatError, InvalidParameterError
from .models import Dataset, ModelSpec, param_count
from .rng import RngStream, mix64
from .sde import RunTrace, TrainConfig, run_group


@dataclass(frozen=True)
class IdxSource:
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str
    subsample_fraction: float = 1.0
    subsample_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise InvalidParameterError(
                f"subsample must be in (0, 1], got {self.subsample_fraction}"
            )


@dataclass(frozen=True)
class GridSpec:
    """One experiment sweep; width 0 denotes the linear model."""

    alphas: tuple[float, ...]
    sigma1s: tuple[float, ...]
    widths: tuple[int, ...]
    seeds: tuple[int, ...]
    train: TrainConfig
    data: SyntheticSpec | IdxSource
    out: str
    init_scale: float = 1.0
    window: int = 2000
    trim: float = 0.15
    radius: float = 1.0

    def __post_init__(self):
        for name in ("alphas", "sigma1s", "widths", "seeds"):
            values = getattr(self, name)
            if not values:
                raise InvalidParameterError(f"grid list {name} must be nonempty")
            # a repeated value names a cell twice, and resume would skip the second
            if len(set(values)) != len(values):
                raise InvalidParameterError(f"grid list {name} repeats a value: {values}")
        if any(not 1.0 < a <= 2.0 for a in self.alphas):
            raise InvalidParameterError("grid alphas must be in (1, 2]")
        if any(not s >= 0.0 for s in self.sigma1s):
            raise InvalidParameterError("grid sigma1 values must be >= 0")
        if any(w < 0 for w in self.widths):
            raise InvalidParameterError("grid widths must be >= 0 (0 = linear)")
        if not self.init_scale >= 0.0:
            raise InvalidParameterError(f"init_scale must be >= 0, got {self.init_scale}")
        if not self.radius > 0.0:
            raise InvalidParameterError(f"radius R must be > 0, got {self.radius}")
        if self.window < 1:
            raise InvalidParameterError(f"window must be >= 1, got {self.window}")
        if not 0.0 <= self.trim < 1.0:
            raise InvalidParameterError(f"trim must be in [0, 1), got {self.trim}")
        # robust_gap averages the evals (every eval_interval steps, and the
        # last step) in the window, less the ceil(trim * count) largest
        steps, every = self.train.steps, self.train.eval_interval
        evals = steps // every - max(steps - self.window, 0) // every + (steps % every > 0)
        if math.ceil(self.trim * evals) >= evals:
            raise InvalidParameterError(
                f"window {self.window} holds {evals} eval(s) at eval_interval {every}, "
                f"and trim {self.trim} removes all of them"
            )

    @property
    def cell_count(self) -> int:
        return len(self.alphas) * len(self.sigma1s) * len(self.widths) * len(self.seeds)


def load_grid_datasets(grid: GridSpec) -> tuple[Dataset, Dataset]:
    if isinstance(grid.data, SyntheticSpec):
        return generate_synthetic(grid.data)
    src = grid.data
    train = load_idx(src.train_images, src.train_labels,
                     fraction=src.subsample_fraction, seed=src.subsample_seed)
    test = load_idx(src.test_images, src.test_labels, num_classes=train.num_classes)
    if test.input_dim != train.input_dim:
        raise DataFormatError(
            f"{src.test_images}: {test.input_dim} pixels per image, but "
            f"{src.train_images} has {train.input_dim}"
        )
    return train, test


def _model_for(width: int, train: Dataset) -> ModelSpec:
    if width == 0:
        return ModelSpec((train.input_dim, train.num_classes))
    return ModelSpec((train.input_dim, width, train.num_classes))


def evaluate_group(
    grid: GridSpec, train: Dataset, test: Dataset,
    alphas, sigma1: float, width: int, seed: int, i_sigma: int, i_width: int,
) -> list[tuple[RunRecord, RunTrace]]:
    """Train the cells of ``alphas`` in one (sigma1, width, seed) group in
    lockstep (``run_group``) on the stream keyed by the seed and the
    (sigma1, width) grid indices; return each cell's records row and
    trace, in the order of ``alphas``.

    A full-batch group's alphas are split into contiguous chunks, one per
    usable core, each trained by ``run_group`` on a fresh stream of the
    same key (see ``_run_split``); since each trace is its alpha's own,
    the split changes no row. A trace is the cell's ``run_training``
    trace less the evals before the window, which ``robust_gap`` does not
    read. Only numerical divergence of a run yields a diverged row; any
    other error, in this process or a worker, propagates to the caller.
    """
    spec = _model_for(width, train)
    d = param_count(spec)
    cfg = replace(grid.train, sigma1=sigma1, seed=seed)

    def train_chunk(chunk):
        return run_group(
            spec, train, test, cfg, chunk, grid.init_scale,
            rng=RngStream(seed, mix64(i_sigma, i_width)), after=cfg.steps - grid.window,
        )

    # A minibatch group stays serial: a forked worker's peak RSS starts from
    # this process's resident set, data set included, and on the MNIST-shaped
    # minibatch profile a split raised the measured peak RSS by 8% (146 -> 158 MB).
    # A platform without os.sched_getaffinity or os.fork runs every group serially.
    workers = 1
    if (cfg.batch_size is None and len(alphas) > 1
            and hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        workers = min(len(os.sched_getaffinity(0)), len(alphas))
    bounds = [len(alphas) * i // workers for i in range(workers + 1)]
    traces = _run_split(train_chunk, [alphas[a:b] for a, b in zip(bounds, bounds[1:])])
    return [(_row(grid, train.n, d, width, trace), trace) for trace in traces]


def _run_split(train_chunk, chunks) -> list[RunTrace]:
    """The traces of ``train_chunk`` over ``chunks``, concatenated: the
    first chunk trains here, each other one in a child made by ``os.fork``
    that pickles back its traces, or its exception, which is raised here.
    No worker outlives the call."""
    reads, running = [], []  # read ends not yet closed; pids not yet reaped
    try:
        for chunk in chunks[1:]:
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(train_chunk, chunk, write, reads)
            finally:
                os.close(write)
            running.append(pid)
        traces = train_chunk(chunks[0])
        for pid, read in zip(list(running), list(reads)):
            reads.remove(read)
            with open(read, "rb") as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            running.remove(pid)
            if status != 0 or not payload:
                raise RuntimeError(f"grid worker {pid} ended with no result (wait status {status})")
            kind, value = pickle.loads(payload)
            if kind == "error":
                raise value
            for trace in value:
                trace.grad_sq.flags.writeable = False
            traces += value
        return traces
    finally:
        for read in reads:
            os.close(read)
        if running:
            import signal  # only to stop a worker left running

            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _worker(train_chunk, chunk, write, reads):
    """A forked worker's whole life: send ("ok", traces) or ("error",
    exception) through ``write`` and end the process. ``os._exit`` keeps it
    out of the caller's stack, ``atexit`` handlers and unflushed buffers;
    closing the inherited read ends makes a write to a dead reader fail."""
    code = 1
    try:
        for read in reads:
            os.close(read)
        try:
            payload = pickle.dumps(("ok", train_chunk(chunk)))
        except BaseException as exc:  # the parent re-raises it
            try:
                payload = pickle.dumps(("error", exc))
                pickle.loads(payload)
            except Exception:
                import traceback  # only in a worker whose exception does not pickle

                text = "".join(traceback.format_exception(exc))
                payload = pickle.dumps(("error", RuntimeError(f"grid worker failed:\n{text}")))
        with open(write, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _row(grid: GridSpec, n: int, d: int, width: int, trace: RunTrace) -> RunRecord:
    cfg = trace.config
    alpha, sigma1, seed = cfg.alpha, cfg.sigma1, cfg.seed
    nan = float("nan")
    if trace.diverged:
        return RunRecord(alpha, sigma1, d, width, n, seed, nan, nan, nan, True)
    gap = robust_gap(trace, grid.window, grid.trim)
    i_hat = integral_estimate(trace)
    g_hat = nan
    if sigma1 > 0.0:
        inputs = BoundInputs(
            alpha=alpha, d=d, n=n, sigma1=sigma1,
            gamma=cfg.gamma, eta=cfg.eta, radius=grid.radius,
        )
        g_hat = bound_estimate(i_hat, inputs)
    return RunRecord(alpha, sigma1, d, width, n, seed, gap, i_hat, g_hat, False)


def sort_key(r: RunRecord):
    return (r.alpha, r.sigma1, r.d, r.seed)


def execute_grid(grid: GridSpec, progress=None) -> list[RunRecord]:
    """Run every pending cell, persist incrementally, return the sorted records.

    Rows already in ``grid.out`` that this grid would not write (a cell
    outside it, a repeated cell, a stale d or n) are an
    ``InvalidParameterError`` raised before any cell trains or the file
    changes.
    """
    train, test = load_grid_datasets(grid)
    if grid.train.batch_size is not None and grid.train.batch_size > train.n:
        raise InvalidParameterError(
            f"batch_size {grid.train.batch_size} exceeds training rows {train.n}"
        )

    # a resumed row must be a cell of this grid, once, with this grid's d and n
    cells = set(product(grid.alphas, grid.sigma1s, grid.widths, grid.seeds))
    dims = {width: param_count(_model_for(width, train)) for width in grid.widths}
    done: dict[tuple, RunRecord] = {}
    if os.path.exists(grid.out):
        # the complete rows are checked before the torn one is cut, so a
        # refused resume leaves the file as it was
        lines = complete_lines(grid.out).decode().splitlines(keepends=True)
        for r in parse_records(lines, grid.out) if lines else ():
            key = (r.alpha, r.sigma1, r.width, r.seed)
            cell = "alpha={}, sigma1={}, width={}, seed={}".format(*key)
            if key not in cells:
                raise InvalidParameterError(f"{grid.out} holds a row outside this grid: {cell}")
            if key in done:
                raise InvalidParameterError(f"{grid.out} holds the cell {cell} twice")
            if (r.d, r.n) != (dims[r.width], train.n):
                raise InvalidParameterError(
                    f"{grid.out} holds the cell {cell} with d={r.d}, n={r.n}, but this grid "
                    f"gives d={dims[r.width]}, n={train.n}"
                )
            done[key] = r
        drop_torn_row(grid.out)
    append_records(grid.out, [])  # the header: an unwritable path fails before any cell trains

    groups = product(enumerate(grid.sigma1s), enumerate(grid.widths), grid.seeds)
    for (i_sigma, sigma1), (i_width, width), seed in groups:
        pending = [a for a in grid.alphas if (a, sigma1, width, seed) not in done]
        if not pending:
            continue
        rows = evaluate_group(grid, train, test, pending, sigma1, width, seed, i_sigma, i_width)
        append_records(grid.out, [record for record, _ in rows])
        for record, _ in rows:
            done[(record.alpha, sigma1, width, seed)] = record
            if progress is not None:
                progress(record)

    records = sorted(done.values(), key=sort_key)
    write_records(grid.out, records)
    return records
