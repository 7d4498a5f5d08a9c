"""Experiment grid execution.

A grid is the cartesian product (alpha values) x (sigma1 values) x
(widths) x (seeds) over one shared dataset. Cells run group by group:
the pending alphas of one (sigma1, width, seed) group train together in
lockstep through ``evaluate_group``, and each row is, bit for bit, the
row of that alpha's one-alpha group (``simulate``'s one cell), up to the
eval's rounding (``run_group``). A full-batch group's alphas are split
into contiguous chunks, one per usable core (``os.sched_getaffinity``):
this process trains the first and a forked worker each other one, so
``taskset -c 0`` runs a sweep in one process, as does a platform without
``os.sched_getaffinity`` or ``os.fork``. A minibatch group trains in
this process and uses a second core through ``run_group``'s eval helper
thread, which shares the data set, not through a fork. No thread
outlives its ``run_group``, so a group forks with no helper running.

A group's rows are appended to the output CSV when the group finishes,
so an interrupted sweep loses at most one group's unfinished cells and
resumes by skipping rows already on disk (a row torn by the
interruption is cut off and recomputed). A resumed file may hold only
this grid's cells, each once, with this grid's d and n. The final file
is rewritten sorted by cell (alpha, sigma1, d, width, n, seed) so its
content does not depend on execution order.

A cell evaluates only what its row reads: ``run_group(after=steps -
window)`` skips the eval steps before the trailing ``window``, and
where it trained the row is reduced from its ``RunTrace`` by
``robust_gap``, ``integral_estimate`` and ``bound_estimate`` (of
``GridSpec.bound_inputs``), so a worker sends back rows, not traces.
The reference and MNIST-shaped profiles' rows equal their one-alpha
rows bit for bit. Each cell trains on ``run_group``'s default stream,
keyed by its seed alone (see ``sde``), so the records do not depend
on list order.
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
    generate_synthetic,
    load_idx,
    parse_records,
    write_records,
)
from .errors import DataFormatError, InvalidParameterError
from .models import Dataset, ModelSpec, param_count
from .rng import check_seed
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
        check_seed(self.subsample_seed, "subsample_seed")


@dataclass(frozen=True)
class GridSpec:
    """One experiment sweep; width 0 denotes the linear model. The bound constants
    s, zeta and lam (Lambda) feed only ``simulate``'s bound columns, never a record."""

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
    s: float = 0.5
    zeta: float = 0.05
    lam: float = 0.0

    def __post_init__(self):
        for name in ("alphas", "sigma1s", "widths", "seeds"):
            values = getattr(self, name)
            if not values:
                raise InvalidParameterError(f"grid list {name} must be nonempty")
            # a repeated value names a cell twice, and resume would skip the second
            if len(set(values)) != len(values):
                raise InvalidParameterError(f"grid list {name} repeats a value: {values}")
        # each cell's run is the template with these replaced: TrainConfig checks them
        for name, field in (("alphas", "alpha"), ("sigma1s", "sigma1"), ("seeds", "seed")):
            for value in getattr(self, name):
                try:
                    replace(self.train, **{field: value})
                except InvalidParameterError as exc:
                    raise InvalidParameterError(f"grid {name}: {exc}") from None
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
        # the bound constants, checked once with the first cell; d and n stand in
        first = replace(self.train, alpha=self.alphas[0], sigma1=self.sigma1s[0])
        self.bound_inputs(first, d=1, n=1).validate()

    def bound_inputs(self, cfg: TrainConfig, d: int, n: int) -> BoundInputs:
        """The bound inputs of the cell ``cfg`` runs, with ``d`` parameters and ``n`` rows."""
        return BoundInputs(alpha=cfg.alpha, d=d, n=n, sigma1=cfg.sigma1, sigma2=cfg.sigma2,
                           gamma=cfg.gamma, eta=cfg.eta, radius=self.radius, s=self.s,
                           zeta=self.zeta, lam=self.lam)

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
    alphas, sigma1: float, width: int, seed: int,
) -> list[RunRecord]:
    """Train the cells of ``alphas`` in one (sigma1, width, seed) group in
    lockstep (``run_group``) on the seed's stream; return each cell's
    records row, in the order of ``alphas``.

    A full-batch group's alphas are split into contiguous chunks, one per
    usable core, each trained by ``run_group`` on a fresh stream of the
    seed and reduced to rows where it trained (see ``_run_split``); since
    each trace is its alpha's own, the split changes no row. Only
    numerical divergence of a run yields a diverged row; any other error,
    in this process or a worker, propagates to the caller.
    """
    spec = _model_for(width, train)
    d = param_count(spec)
    cfg = replace(grid.train, sigma1=sigma1, seed=seed)

    def train_chunk(chunk):
        traces = run_group(spec, train, test, cfg, chunk, grid.init_scale,
                           after=cfg.steps - grid.window)
        return [_row(grid, train.n, d, width, trace) for trace in traces]

    # A minibatch group is not split: a forked worker's peak RSS starts from
    # this process's resident set, data set included, and on the MNIST-shaped
    # minibatch profile a split raised the measured peak RSS by 8% (146 -> 158 MB).
    # Its evals take the second core instead, on run_group's helper thread.
    # A platform without os.sched_getaffinity or os.fork splits no group.
    workers = 1
    if (cfg.batch_size is None and len(alphas) > 1
            and hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        workers = min(len(os.sched_getaffinity(0)), len(alphas))
    bounds = [len(alphas) * i // workers for i in range(workers + 1)]
    return _run_split(train_chunk, [alphas[a:b] for a, b in zip(bounds, bounds[1:])])


def _run_split(train_chunk, chunks) -> list:
    """The lists ``train_chunk`` returns over ``chunks``, concatenated: the
    first chunk trains here, each other one in a child made by ``os.fork``
    that pickles back its list, or its exception, which is raised here.
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
        results = train_chunk(chunks[0])
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
            results += value
        return results
    finally:
        for read in reads:
            os.close(read)
        if running:
            import signal  # only to stop a worker left running

            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _worker(train_chunk, chunk, write, reads):
    """A forked worker's whole life: send ("ok", results) or ("error",
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
    g_hat = bound_estimate(i_hat, grid.bound_inputs(cfg, d, n)) if sigma1 > 0.0 else nan
    return RunRecord(alpha, sigma1, d, width, n, seed, gap, i_hat, g_hat, False)


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
        # a row torn by a kill in mid-append is cut only after the complete
        # rows pass their checks, so a refused resume leaves the file as it was
        kept, size = complete_lines(grid.out)
        for r in parse_records(kept, grid.out) if kept else ():
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
        os.truncate(grid.out, size)
    append_records(grid.out, [])  # the header: an unwritable path fails before any cell trains

    for sigma1, width, seed in product(grid.sigma1s, grid.widths, grid.seeds):
        pending = [a for a in grid.alphas if (a, sigma1, width, seed) not in done]
        if not pending:
            continue
        rows = evaluate_group(grid, train, test, pending, sigma1, width, seed)
        append_records(grid.out, rows)
        for record in rows:
            done[(record.alpha, sigma1, width, seed)] = record
            if progress is not None:
                progress(record)

    records = sorted(done.values())  # a record's first six fields name its cell
    write_records(grid.out, records)
    return records
