import os
import struct
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from levybound import (
    BoundInputs,
    GridSpec,
    IdxSource,
    RngStream,
    RunRecord,
    SyntheticSpec,
    TrainConfig,
    bound_estimate,
    discrete_bound,
    execute_grid,
    integral_estimate,
    mix64,
    param_count,
    read_records,
    robust_gap,
    run_training,
)
from levybound.cli import _grid_spec
from levybound.data import _ROW, parse_config, write_idx_images, write_idx_labels, write_records
from levybound.errors import DataFormatError, InvalidParameterError
from levybound.grid import (
    _model_for,
    _row,
    evaluate_group,
    load_grid_datasets,
    sort_key,
)
from levybound.models import ModelKernel
from levybound.sde import run_group


def tiny_grid(out, alphas=(1.6, 2.0), sigma1s=(0.1,), widths=(0,), seeds=(0, 1, 2)):
    return GridSpec(
        alphas=alphas,
        sigma1s=sigma1s,
        widths=widths,
        seeds=seeds,
        train=TrainConfig(
            gamma=0.05, eta=0.001, alpha=2.0, sigma1=0.0, steps=40, eval_interval=5
        ),
        data=SyntheticSpec(30, 5, 2, 2.0, 1.0, seed=7),
        out=str(out),
        window=30,
        trim=0.15,
    )


def test_single_cell_grid(tmp_path):
    grid = tiny_grid(tmp_path / "r.csv", alphas=(1.7,), seeds=(0,))
    assert grid.cell_count == 1
    records = execute_grid(grid)
    assert len(records) == 1
    assert read_records(grid.out) == records


def test_rerun_is_no_op(tmp_path):
    grid = tiny_grid(tmp_path / "r.csv")
    execute_grid(grid)
    first = (tmp_path / "r.csv").read_bytes()
    executed = []
    execute_grid(grid, progress=executed.append)
    assert executed == []  # nothing recomputed
    assert (tmp_path / "r.csv").read_bytes() == first


def test_partial_file_resumes(tmp_path):
    grid = tiny_grid(tmp_path / "r.csv")
    full = execute_grid(grid)
    # keep only half the rows and resume
    write_records(grid.out, full[: len(full) // 2])
    executed = []
    resumed = execute_grid(grid, progress=executed.append)
    assert len(executed) == len(full) - len(full) // 2
    assert resumed == full


def test_noise_free_grid_ignores_alpha(tmp_path):
    grid = tiny_grid(tmp_path / "r.csv", alphas=(1.6, 2.0), sigma1s=(0.0,), seeds=(0, 1, 2))
    records = execute_grid(grid)
    assert len(records) == 6
    by_seed = {}
    for r in records:
        by_seed.setdefault(r.seed, []).append(r)
    for seed, rows in by_seed.items():
        gaps = {r.gap for r in rows}
        i_hats = {r.i_hat for r in rows}
        assert len(gaps) == 1, f"seed {seed} gaps differ across alpha: {gaps}"
        assert len(i_hats) == 1
        assert all(np.isnan(r.g_hat) for r in rows)  # no stable noise, no estimator


def test_output_sorted(tmp_path):
    grid = tiny_grid(tmp_path / "r.csv", alphas=(2.0, 1.6), sigma1s=(0.2, 0.1), seeds=(1, 0))
    records = execute_grid(grid)
    assert records == sorted(records, key=sort_key)


def test_cell_failure_propagates_and_resumes(tmp_path, monkeypatch):
    # a bug in a cell is an error, never a diverged row; rows written
    # before it stay on disk and a re-run finishes the sweep
    import levybound.grid as grid_mod

    real_run_group = grid_mod.run_group
    calls = []

    def fail_on_second_cell(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("synthetic cell failure")
        return real_run_group(*args, **kwargs)

    monkeypatch.setattr(grid_mod, "run_group", fail_on_second_cell)
    grid = tiny_grid(tmp_path / "r.csv", alphas=(1.7,), seeds=(0, 1, 2))
    with pytest.raises(RuntimeError, match="synthetic cell failure"):
        execute_grid(grid)
    on_disk = read_records(grid.out)
    assert [r.seed for r in on_disk] == [0]
    assert not any(r.diverged for r in on_disk)

    monkeypatch.setattr(grid_mod, "run_group", real_run_group)
    executed = []
    records = execute_grid(grid, progress=executed.append)
    assert [r.seed for r in executed] == [1, 2]
    assert [r.seed for r in records] == [0, 1, 2]
    assert not any(r.diverged for r in records)
    assert records == execute_grid(tiny_grid(tmp_path / "fresh.csv", alphas=(1.7,), seeds=(0, 1, 2)))


@pytest.mark.parametrize("whole_lines, cut", [(3, 17), (0, 9), (5, -1)])
def test_torn_last_row_is_dropped_on_resume(tmp_path, whole_lines, cut):
    # a kill in mid-append leaves a last line without its terminator: a
    # cut row, a cut header, or a whole row missing only its line end
    grid = tiny_grid(tmp_path / "r.csv")
    execute_grid(grid)
    fresh = (tmp_path / "r.csv").read_bytes()
    lines = fresh.splitlines(keepends=True)
    torn = lines[whole_lines][:cut]
    (tmp_path / "r.csv").write_bytes(b"".join(lines[:whole_lines]) + torn)
    executed = []
    execute_grid(grid, progress=executed.append)
    assert len(executed) == len(lines) - max(whole_lines, 1)
    assert (tmp_path / "r.csv").read_bytes() == fresh


@pytest.mark.parametrize("where", ["middle", "last"])
def test_malformed_terminated_row_still_raises(tmp_path, where):
    grid = tiny_grid(tmp_path / "r.csv")
    execute_grid(grid)
    lines = (tmp_path / "r.csv").read_bytes().splitlines(keepends=True)
    bad = b"1.6,0.1,10,0,24,0,0.5,1.0\r\n"
    at = 2 if where == "middle" else len(lines)
    (tmp_path / "r.csv").write_bytes(b"".join(lines[:at]) + bad + b"".join(lines[at:]))
    with pytest.raises(DataFormatError, match=f":{at + 1}:"):
        execute_grid(grid)


def test_grid_validation():
    with pytest.raises(InvalidParameterError):
        tiny_grid("x.csv", alphas=())
    with pytest.raises(InvalidParameterError):
        tiny_grid("x.csv", alphas=(1.0,))
    with pytest.raises(InvalidParameterError):
        tiny_grid("x.csv", widths=(-1,))


def test_idx_source_end_to_end(tmp_path):
    # tiny image dataset through the full IDX -> subsample -> grid path
    rng = RngStream(99)
    def make_pair(n, stem):
        images = rng.gen.integers(0, 256, size=(n, 3, 3)).astype(np.uint8)
        labels = rng.gen.integers(0, 2, size=n).astype(np.uint8)
        # plant a signal: label-1 images get a bright corner
        images[labels == 1, 0, 0] = 255
        write_idx_images(tmp_path / f"{stem}-images.idx", images)
        write_idx_labels(tmp_path / f"{stem}-labels.idx", labels)
        return tmp_path / f"{stem}-images.idx", tmp_path / f"{stem}-labels.idx"

    tr_img, tr_lab = make_pair(120, "train")
    te_img, te_lab = make_pair(40, "test")
    grid = GridSpec(
        alphas=(1.8,),
        sigma1s=(0.05,),
        widths=(0,),
        seeds=(0,),
        train=TrainConfig(gamma=0.1, eta=0.001, alpha=2.0, sigma1=0.0, steps=30, eval_interval=5),
        data=IdxSource(str(tr_img), str(tr_lab), str(te_img), str(te_lab),
                       subsample_fraction=0.5, subsample_seed=1),
        out=str(tmp_path / "records.csv"),
        window=25,
    )
    records = execute_grid(grid)
    assert len(records) == 1
    assert records[0].n == 60  # half of 120 training rows
    assert records[0].d == 9 * 2
    assert not records[0].diverged


def _idx_grid(tmp_path, train_shape, test_shape, test_labels):
    rng = RngStream(5)
    paths = []
    for stem, (n, side), labels in (
        ("train", train_shape, rng.gen.integers(0, 3, size=train_shape[0])),
        ("test", test_shape, test_labels),
    ):
        images = rng.gen.integers(0, 256, size=(n, side, side)).astype(np.uint8)
        write_idx_images(tmp_path / f"{stem}-images.idx", images)
        write_idx_labels(tmp_path / f"{stem}-labels.idx", np.asarray(labels))
        paths += [str(tmp_path / f"{stem}-images.idx"), str(tmp_path / f"{stem}-labels.idx")]
    return GridSpec(
        alphas=(1.8,), sigma1s=(0.05,), widths=(0,), seeds=(0,),
        train=TrainConfig(gamma=0.1, eta=0.001, alpha=2.0, sigma1=0.0, steps=20, eval_interval=5),
        data=IdxSource(*paths),
        out=str(tmp_path / "records.csv"),
        window=15,
    )


def test_idx_test_images_of_another_size_are_a_data_error(tmp_path):
    grid = _idx_grid(tmp_path, (60, 4), (20, 3), np.zeros(20))
    with pytest.raises(DataFormatError, match="pixels per image") as info:
        execute_grid(grid)
    assert "train-images.idx" in str(info.value) and "test-images.idx" in str(info.value)
    assert not (tmp_path / "records.csv").exists()


def test_idx_test_labels_without_the_top_class_run(tmp_path):
    grid = _idx_grid(tmp_path, (60, 3), (20, 3), np.zeros(20))
    (record,) = execute_grid(grid)
    assert record.d == 9 * 3 and not record.diverged


def test_idx_test_label_beyond_train_classes_is_a_data_error(tmp_path):
    grid = _idx_grid(tmp_path, (60, 3), (20, 3), np.full(20, 3))
    with pytest.raises(DataFormatError, match="test-labels.idx: label value 3 out of range for 3"):
        execute_grid(grid)


# --- The cell reducer against the default trace: a one-alpha group skips
# the evals robust_gap never reads, so its row and trace are checked against
# run_training's full RunTrace and the row the public reducers give it.


def _reducer_grid(batch_size=None, width=0, steps=40, eval_interval=5, window=30,
                  trim=0.15, sigma2=0.0, init_scale=1.0):
    return GridSpec(
        alphas=(1.7,), sigma1s=(0.1,), widths=(width,), seeds=(3,),
        train=TrainConfig(gamma=0.05, eta=0.001, alpha=2.0, sigma1=0.0, sigma2=sigma2,
                          steps=steps, batch_size=batch_size, eval_interval=eval_interval),
        data=SyntheticSpec(20, 5, 3, 1.0, 1.0, seed=7), out="", init_scale=init_scale,
        window=window, trim=trim,
    )


def _bits(record):
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in record]


def _row_from_trace(grid, train, test, alpha, sigma1, width, seed):
    """The records row and the run_training trace of grid index (0, 0)."""
    spec = _model_for(width, train)
    d = param_count(spec)
    cfg = replace(grid.train, alpha=alpha, sigma1=sigma1, seed=seed)
    trace = run_training(spec, train, test, cfg, grid.init_scale, RngStream(seed, mix64(0, 0)))
    nan = float("nan")
    if trace.diverged:
        return RunRecord(alpha, sigma1, d, width, train.n, seed, nan, nan, nan, True), trace
    i_hat = integral_estimate(trace)
    g_hat = nan
    if sigma1 > 0.0:
        inputs = BoundInputs(alpha=alpha, d=d, n=train.n, sigma1=sigma1, gamma=cfg.gamma,
                             eta=cfg.eta, radius=grid.radius)
        g_hat = bound_estimate(i_hat, inputs)
    gap = robust_gap(trace, grid.window, grid.trim)
    return RunRecord(alpha, sigma1, d, width, train.n, seed, gap, i_hat, g_hat, False), trace


# window 23 of 40 steps holds the evals at steps 20, 25, ..., 40; trim 0.8
# drops 4 of the 5, and the next float up would drop all 5
LARGEST_TRIM = 0.8

REDUCER_CASES = {
    "window-covers-run": dict(window=40),
    "window-beyond-run": dict(window=100),
    "ragged-last-eval": dict(steps=43),
    "ragged-window": dict(window=23),
    "largest-trim": dict(window=23, trim=LARGEST_TRIM),
    "sigma1-zero": dict(sigma1=0.0),
    "both-noises": dict(sigma2=0.05),
    "diverged": dict(init_scale=1e13),
}


@pytest.mark.parametrize("case", REDUCER_CASES)
@pytest.mark.parametrize("batch_size", [None, 16], ids=["full", "batch16"])
@pytest.mark.parametrize("width", [0, 4], ids=["linear", "relu"])
def test_evaluate_cell_matches_trace_reducers(case, batch_size, width):
    settings = dict(REDUCER_CASES[case])
    sigma1 = settings.pop("sigma1", 0.1)
    grid = _reducer_grid(batch_size=batch_size, width=width, **settings)
    train, test = load_grid_datasets(grid)
    ((record, cell_trace),) = evaluate_group(grid, train, test, (1.7,), sigma1, width, 3, 0, 0)
    expected, trace = _row_from_trace(grid, train, test, 1.7, sigma1, width, 3)
    assert _bits(record) == _bits(expected)
    assert record.diverged == (case == "diverged") == trace.diverged == cell_trace.diverged
    # the cell's trace is run_training's, less the evals before the window
    assert cell_trace.grad_sq.tobytes() == trace.grad_sq.tobytes()
    after = grid.train.steps - grid.window
    assert cell_trace.evals == tuple(e for e in trace.evals if e[0] > after)
    assert cell_trace.final_params_hash == trace.final_params_hash
    if not trace.diverged and sigma1 > 0.0:
        inputs = BoundInputs(alpha=1.7, d=record.d, n=record.n, sigma1=sigma1,
                             gamma=0.05, eta=0.001)
        assert discrete_bound(cell_trace, inputs) == discrete_bound(trace, inputs)


@pytest.mark.parametrize("case", REDUCER_CASES)
@pytest.mark.parametrize("batch_size", [None, 16], ids=["full", "batch16"])
def test_row_does_not_read_the_evals_before_the_window(case, batch_size):
    # a run that evaluates every eval step from step 1 gives the row of the
    # grid's run, which skips the evals before the window
    settings = dict(REDUCER_CASES[case])
    sigma1 = settings.pop("sigma1", 0.1)
    grid = _reducer_grid(batch_size=batch_size, **settings)
    train, test = load_grid_datasets(grid)
    spec = _model_for(0, train)
    cfg = replace(grid.train, sigma1=sigma1, seed=3)
    rows, evals = [], []
    for after in (0, cfg.steps - grid.window):
        (trace,) = run_group(spec, train, test, cfg, (1.7,), grid.init_scale,
                             RngStream(3, mix64(0, 0)), after=after)
        rows.append(_bits(_row(grid, train.n, param_count(spec), 0, trace)))
        evals.append(len(trace.evals))
    assert rows[0] == rows[1]
    if grid.window < cfg.steps and case != "diverged":
        assert evals[0] > evals[1]


def test_largest_trim_is_the_boundary():
    _reducer_grid(window=23, trim=LARGEST_TRIM)
    with pytest.raises(InvalidParameterError, match="removes all of them"):
        _reducer_grid(window=23, trim=float(np.nextafter(LARGEST_TRIM, 1.0)))


@pytest.mark.parametrize("batch_size", [None, 16], ids=["full", "batch16"])
@pytest.mark.parametrize("steps, window", [(40, 30), (43, 23), (40, 100)])
def test_evaluate_cell_evaluates_only_in_window_eval_steps(monkeypatch, batch_size, steps,
                                                             window):
    # count the 0-1 evaluations: the eval entry point on either data set,
    # called before the step's gradient, and a full-batch gradient asked
    # for its argmax, each tagged with its step
    grid = _reducer_grid(batch_size=batch_size, steps=steps, window=window)
    train, test = load_grid_datasets(grid)
    step, evals = [0], []
    real_gradient, real_error_rates = ModelKernel.gradient, ModelKernel.error_rates

    def gradient(self, params, x, label_index, preds=None):
        step[0] += 1
        if preds is not None:
            evals.append((step[0], "train"))
        return real_gradient(self, params, x, label_index, preds)

    def error_rates(self, params_list, x, labels):
        assert len(params_list) == 1
        evals.append((step[0] + 1, "train" if x is train.features else "test"))
        return real_error_rates(self, params_list, x, labels)

    monkeypatch.setattr(ModelKernel, "gradient", gradient)
    monkeypatch.setattr(ModelKernel, "error_rates", error_rates)
    evaluate_group(grid, train, test, (1.7,), 0.1, 0, 3, 0, 0)
    in_window = [k for k in range(1, steps + 1)
                 if k > steps - window and (k % 5 == 0 or k == steps)]
    assert step[0] == steps
    # a full-batch step's test eval comes before its gradient's train argmax
    assert sorted(evals) == sorted([(k, data) for k in in_window for data in ("train", "test")])


# --- Groups: the alphas of one (sigma1, width, seed) group train in
# lockstep on one stream; each row must be its one-alpha cell's row.

GROUP_ALPHAS = (1.3, 1.6, 1.8, 2.0)

# (width, sigma1, seed, settings, diverged flags of GROUP_ALPHAS)
GROUP_CASES = {
    "relu-mixed-divergence": (4, 1e11, 0, {}, [True, True, False, False]),
    "linear-mixed-divergence": (0, 5e10, 0, {}, [True, True, True, False]),
    "linear-all-diverged": (0, 1.5e11, 2, {}, [True] * 4),
    "linear-sigma1-zero": (0, 0.0, 3, {}, [False] * 4),
    "relu-sigma1-zero": (4, 0.0, 3, {}, [False] * 4),
    "linear-minibatch-brownian": (0, 0.1, 3, dict(batch_size=16, sigma2=0.05), [False] * 4),
    "relu-minibatch-brownian": (4, 0.1, 3, dict(batch_size=16, sigma2=0.05), [False] * 4),
}


@pytest.mark.parametrize("case", GROUP_CASES)
def test_group_rows_are_the_one_alpha_cell_rows(monkeypatch, case):
    width, sigma1, seed, settings, diverged = GROUP_CASES[case]
    grid = _reducer_grid(width=width, **settings)
    _pin_cores(monkeypatch, 1)  # the four alphas in one lockstep group, on any host
    train, test = load_grid_datasets(grid)
    rows = evaluate_group(grid, train, test, GROUP_ALPHAS, sigma1, width, seed, 1, 2)
    assert [record.diverged for record, _ in rows] == diverged
    for alpha, (record, trace) in zip(GROUP_ALPHAS, rows):
        ((alone, alone_trace),) = evaluate_group(grid, train, test, (alpha,), sigma1, width,
                                                 seed, 1, 2)
        assert _bits(record) == _bits(alone)
        assert trace.grad_sq.tobytes() == alone_trace.grad_sq.tobytes()
    if sigma1 == 0.0:  # no stable noise: alpha changes nothing but the alpha field
        assert all(_bits(record)[1:] == _bits(rows[0][0])[1:] for record, _ in rows)


@pytest.mark.parametrize("batch_size", [None, 16], ids=["full", "batch16"])
@pytest.mark.parametrize("width", [0, 4], ids=["linear", "relu"])
@pytest.mark.parametrize("group_size", [1, 4])
def test_group_evaluates_each_data_set_once_per_eval_step(monkeypatch, batch_size, width,
                                                          group_size):
    # every eval call, tagged with its step (it comes before the step's
    # gradients), its data set and the number of runs it evaluates
    steps = 40
    grid = _reducer_grid(width=width, batch_size=batch_size, steps=steps)
    train, test = load_grid_datasets(grid)
    gradients, calls = [0], []
    real_gradient, real_error_rates = ModelKernel.gradient, ModelKernel.error_rates
    _pin_cores(monkeypatch, 1)  # the calls are counted in this process

    def gradient(self, *args):
        gradients[0] += 1
        return real_gradient(self, *args)

    def error_rates(self, params_list, x, labels):
        data = "train" if x is train.features else "test"
        calls.append((gradients[0] // group_size + 1, data, len(params_list)))
        return real_error_rates(self, params_list, x, labels)

    monkeypatch.setattr(ModelKernel, "gradient", gradient)
    monkeypatch.setattr(ModelKernel, "error_rates", error_rates)
    rows = evaluate_group(grid, train, test, GROUP_ALPHAS[:group_size], 0.1, width, 3, 0, 0)
    assert not any(record.diverged for record, _ in rows)
    assert gradients[0] == steps * group_size
    in_window = [k for k in range(1, steps + 1)
                 if k > steps - grid.window and (k % 5 == 0 or k == steps)]
    # a full-batch run's train error is its gradient's own argmax
    data_sets = ("test",) if batch_size is None else ("train", "test")
    assert calls == [(k, data, group_size) for k in in_window for data in data_sets]


# --- Split groups: a full-batch group's alphas train in contiguous chunks,
# one per usable core, the first here and each other in a forked worker.

def _pin_cores(monkeypatch, count):
    import levybound.grid as grid_mod

    monkeypatch.setattr(grid_mod.os, "sched_getaffinity", lambda pid: set(range(count)))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [2, 3])
def test_split_group_is_the_one_process_group(monkeypatch, workers):
    import levybound.grid as grid_mod

    # relu-mixed-divergence with the alphas reversed: 1.6 and 1.3 diverge,
    # and both sit in a worker's chunk at 2 and at 3 workers
    width, sigma1, seed, _, diverged = GROUP_CASES["relu-mixed-divergence"]
    alphas = GROUP_ALPHAS[::-1]
    grid = _reducer_grid(width=width)
    train, test = load_grid_datasets(grid)
    _pin_cores(monkeypatch, 1)
    serial = evaluate_group(grid, train, test, alphas, sigma1, width, seed, 1, 2)

    forks, real_fork = [], os.fork
    monkeypatch.setattr(grid_mod.os, "fork", lambda: forks.append(1) or real_fork())
    _pin_cores(monkeypatch, workers)
    split = evaluate_group(grid, train, test, alphas, sigma1, width, seed, 1, 2)
    assert len(forks) == workers - 1
    _no_child_left()
    assert [record.diverged for record, _ in split] == diverged[::-1]
    for (record, trace), (alone, alone_trace) in zip(split, serial, strict=True):
        assert _bits(record) == _bits(alone)
        assert trace.config == alone_trace.config
        assert trace.grad_sq.tobytes() == alone_trace.grad_sq.tobytes()
        assert trace.evals == alone_trace.evals
        assert trace.final_params_hash == alone_trace.final_params_hash
        assert trace.diverged == alone_trace.diverged
        assert not trace.grad_sq.flags.writeable  # also on a trace a worker pickled


class _NotUnpicklable(Exception):
    # pickle rebuilds an exception as cls(*args), and args holds one string
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def _exit_without_result():
    os._exit(3)


def _raise_not_unpicklable():
    raise _NotUnpicklable(7, "worker detail")


@pytest.mark.parametrize("fail, message", [
    (_exit_without_result, r"ended with no result \(wait status 768\)"),
    (_raise_not_unpicklable, r"grid worker failed:\n(.|\n)*_NotUnpicklable: 7: worker detail"),
], ids=["no-result", "unpicklable-error"])
def test_failed_worker_is_an_error(monkeypatch, fail, message):
    import levybound.grid as grid_mod

    parent, real_run_group = os.getpid(), grid_mod.run_group

    def fail_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            fail()
        return real_run_group(*args, **kwargs)

    monkeypatch.setattr(grid_mod, "run_group", fail_in_worker)
    _pin_cores(monkeypatch, 2)
    grid = _reducer_grid()
    train, test = load_grid_datasets(grid)
    with pytest.raises(RuntimeError, match=message):
        evaluate_group(grid, train, test, GROUP_ALPHAS, 0.1, 0, 3, 0, 0)
    _no_child_left()


def test_error_in_this_process_stops_the_workers(monkeypatch):
    import levybound.grid as grid_mod

    parent = os.getpid()

    def fail_here(*args, **kwargs):
        if os.getpid() != parent:
            time.sleep(60)
        raise RuntimeError("chunk failure in this process")

    monkeypatch.setattr(grid_mod, "run_group", fail_here)
    _pin_cores(monkeypatch, 3)
    grid = _reducer_grid()
    train, test = load_grid_datasets(grid)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="chunk failure in this process"):
        evaluate_group(grid, train, test, GROUP_ALPHAS, 0.1, 0, 3, 0, 0)
    assert time.monotonic() - start < 30  # the sleeping workers were killed, not awaited
    _no_child_left()


def test_minibatch_group_never_forks(monkeypatch):
    import levybound.grid as grid_mod

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(grid_mod.os, "fork", no_fork)
    _pin_cores(monkeypatch, 4)
    grid = _reducer_grid(batch_size=16)
    train, test = load_grid_datasets(grid)
    rows = evaluate_group(grid, train, test, GROUP_ALPHAS, 0.1, 0, 3, 0, 0)
    assert len(rows) == len(GROUP_ALPHAS)
    with pytest.raises(AssertionError, match="os.fork called"):  # the same group at full batch
        evaluate_group(_reducer_grid(), train, test, GROUP_ALPHAS, 0.1, 0, 3, 0, 0)


@pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
def test_group_is_serial_where_the_platform_cannot_split(monkeypatch, missing):
    import levybound.grid as grid_mod

    grid = _reducer_grid()
    train, test = load_grid_datasets(grid)
    _pin_cores(monkeypatch, 1)
    serial = evaluate_group(grid, train, test, GROUP_ALPHAS, 0.1, 0, 3, 0, 0)

    _pin_cores(monkeypatch, 4)
    monkeypatch.delattr(grid_mod.os, missing)
    if missing != "fork":
        monkeypatch.setattr(grid_mod.os, "fork", lambda: pytest.fail("os.fork called"))
    rows = evaluate_group(grid, train, test, GROUP_ALPHAS, 0.1, 0, 3, 0, 0)
    assert [_bits(record) for record, _ in rows] == [_bits(record) for record, _ in serial]


def test_resume_runs_only_the_pending_alphas_of_each_group(tmp_path, monkeypatch):
    import levybound.grid as grid_mod

    alphas, sigma1s, seeds = (1.6, 1.8, 2.0), (0.1, 0.2), (0, 1)
    fresh = execute_grid(tiny_grid(tmp_path / "fresh.csv", alphas, sigma1s, seeds=seeds))
    dropped = {(1.8, 0.1, 0), (1.6, 0.1, 1), (2.0, 0.1, 1), (1.6, 0.2, 1), (1.8, 0.2, 1),
               (2.0, 0.2, 1)}
    kept = [r for r in fresh if (r.alpha, r.sigma1, r.seed) not in dropped]
    write_records(tmp_path / "r.csv", kept)

    real_evaluate_group, calls = grid_mod.evaluate_group, []

    def evaluate_group_spy(grid, train, test, alphas, sigma1, width, seed, *indices):
        calls.append((sigma1, seed, tuple(alphas)))
        return real_evaluate_group(grid, train, test, alphas, sigma1, width, seed, *indices)

    monkeypatch.setattr(grid_mod, "evaluate_group", evaluate_group_spy)
    executed = []
    records = execute_grid(tiny_grid(tmp_path / "r.csv", alphas, sigma1s, seeds=seeds),
                           progress=executed.append)
    assert calls == [(0.1, 0, (1.8,)), (0.1, 1, (1.6, 2.0)), (0.2, 1, alphas)]
    assert {(r.alpha, r.sigma1, r.seed) for r in executed} == dropped
    assert records == fresh
    assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


class _CountingGenerator:
    """Forwards to a numpy Generator and counts each method's calls."""

    def __init__(self, gen):
        self._gen, self.calls = gen, Counter()

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("width", [0, 4], ids=["linear", "relu"])
@pytest.mark.parametrize("group_size", [1, 4])
def test_group_draws_its_stream_once_per_step(monkeypatch, width, group_size):
    import levybound.grid as grid_mod

    streams = []

    class CountingStream(RngStream):
        def __init__(self, *key):
            super().__init__(*key)
            self.gen = _CountingGenerator(self.gen)
            streams.append(self)

    monkeypatch.setattr(grid_mod, "RngStream", CountingStream)
    steps = 40
    grid = _reducer_grid(width=width, batch_size=16, sigma2=0.05, steps=steps)
    train, test = load_grid_datasets(grid)
    rows = evaluate_group(grid, train, test, GROUP_ALPHAS[:group_size], 0.1, width, 3, 0, 0)
    assert not any(record.diverged for record, _ in rows)
    (stream,) = streams
    layers = 1 if width == 0 else 2  # init_params draws one Gaussian block per layer
    # per step: the batch indices, the two subordinator uniforms, G and the
    # Brownian vector, whatever the group size
    assert stream.gen.calls == Counter(
        standard_normal=layers + 2 * steps, choice=steps, random=2 * steps)


def test_reference_light_noise_group_reproduces_committed_rows():
    # the committed reference profile's sigma1 index 1 (sigma1 * sqrt(d) =
    # 10), seed 0: all 10 alphas in one group, each written line equal to
    # its line in the committed records
    reference = Path(__file__).resolve().parent.parent / "reference"
    grid = _grid_spec(parse_config(reference / "phase_transition.cfg"), "")
    train, test = load_grid_datasets(grid)
    rows = evaluate_group(grid, train, test, grid.alphas, grid.sigma1s[1], grid.widths[0],
                          0, 1, 0)
    committed = (reference / "phase_transition_records.csv").read_bytes().splitlines(True)
    for record, _ in rows:
        written = _ROW.format(*record[:9], "true" if record.diverged else "false").encode()
        assert committed.count(written) == 1, written
    assert len(rows) == 10 and not any(record.diverged for record, _ in rows)
