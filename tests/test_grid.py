import math
import os
import struct
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import levybound.sde as sde_mod
from levybound import (
    BoundInputs,
    GridSpec,
    IdxSource,
    RngStream,
    RunRecord,
    SyntheticSpec,
    TrainConfig,
    bound_estimate,
    execute_grid,
    integral_estimate,
    mix64,
    param_count,
    read_records,
    robust_gap,
    run_training,
)
from levybound.cli import DEFAULTS, _grid_spec
from levybound.data import _ROW, parse_config, write_records
from levybound.errors import DataFormatError, InvalidParameterError
from levybound.grid import (
    _model_for,
    _row,
    _run_split,
    evaluate_group,
    load_grid_datasets,
)
from levybound.models import ModelKernel
from levybound.sde import run_group

import oracles
from helpers import write_idx_images, write_idx_labels


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
    assert records == sorted(records, key=lambda r: (r.alpha, r.sigma1, r.d, r.width, r.seed))


def test_widths_with_one_d_write_the_same_file_in_either_order(tmp_path):
    # with 2 inputs and 2 classes the linear model (width 0) and width 1
    # both have d = 4, so only the width orders their rows
    grid = replace(tiny_grid(tmp_path / "a.csv", alphas=(1.7,), seeds=(0,), widths=(0, 1)),
                   data=SyntheticSpec(20, 2, 2, 2.0, 1.0, seed=7))
    assert {param_count(_model_for(w, load_grid_datasets(grid)[0])) for w in (0, 1)} == {4}
    execute_grid(grid)
    execute_grid(replace(grid, widths=(1, 0), out=str(tmp_path / "b.csv")))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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


def test_written_records_resume_without_the_row_parser(tmp_path, monkeypatch):
    import levybound.data as data_mod

    grid = tiny_grid(tmp_path / "r.csv")
    execute_grid(grid)
    fresh = (tmp_path / "r.csv").read_bytes()
    lines = fresh.splitlines(keepends=True)
    (tmp_path / "r.csv").write_bytes(b"".join(lines[:4]) + lines[4][:9])

    def refuse(lines, path):
        raise AssertionError("the resume fell back to parse_records")

    monkeypatch.setattr(data_mod, "parse_records", refuse)
    executed = []
    execute_grid(grid, progress=executed.append)
    assert len(executed) == len(lines) - 4
    assert (tmp_path / "r.csv").read_bytes() == fresh


def test_resume_keeps_a_seed_beyond_int64(tmp_path):
    # the resumed rows' seed column holds Python ints (an object column)
    grid = tiny_grid(tmp_path / "r.csv", seeds=(0, 2**63))
    execute_grid(grid)
    fresh = (tmp_path / "r.csv").read_bytes()
    lines = fresh.splitlines(keepends=True)
    assert lines[2].split(b",")[5] == str(2**63).encode()
    (tmp_path / "r.csv").write_bytes(b"".join(lines[:4]))
    executed = []
    execute_grid(grid, progress=executed.append)
    assert len(executed) == len(lines) - 4
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
# the evals robust_gap never reads, so its row is checked against the row
# the public reducers give run_training's full RunTrace.


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
    """The records row and the run_training trace of one cell, on run_training's
    default stream."""
    spec = _model_for(width, train)
    d = param_count(spec)
    cfg = replace(grid.train, alpha=alpha, sigma1=sigma1, seed=seed)
    trace = run_training(spec, train, test, cfg, grid.init_scale)
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
    (record,) = evaluate_group(grid, train, test, (1.7,), sigma1, width, 3)
    expected, trace = _row_from_trace(grid, train, test, 1.7, sigma1, width, 3)
    assert _bits(record) == _bits(expected)
    assert record.diverged == (case == "diverged") == trace.diverged


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


@pytest.mark.parametrize("batch_size", [None, 16], ids=["full", "batch16"])
def test_run_training_default_stream_gives_the_records_row(tmp_path, batch_size):
    # run_training with no rng, reduced by the public estimators, is the
    # row the grid writes for the cell, bit for bit
    grid = replace(_reducer_grid(batch_size=batch_size), out=str(tmp_path / "r.csv"))
    execute_grid(grid)
    train, test = load_grid_datasets(grid)
    expected, trace = _row_from_trace(grid, train, test, 1.7, 0.1, 0, 3)
    assert not trace.diverged
    assert [_bits(r) for r in read_records(grid.out)] == [_bits(expected)]


def test_seeds_must_fit_64_bits():
    tiny_grid("", seeds=(0, 2**64 - 1))
    for seed in (-1, 2**64):
        with pytest.raises(InvalidParameterError,
                           match=r"grid seeds: seed must be in \[0, 2\*\*64\)"):
            tiny_grid("", seeds=(seed,))


def test_largest_trim_is_the_boundary():
    _reducer_grid(window=23, trim=LARGEST_TRIM)
    with pytest.raises(InvalidParameterError, match="removes all of them"):
        _reducer_grid(window=23, trim=float(np.nextafter(LARGEST_TRIM, 1.0)))


def test_window_eval_count_matches_the_steps_run_group_evaluates():
    # GridSpec counts the window's evals in closed form; the oracle lists the
    # steps run_group(after=steps - window) evaluates and counts them
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.integers(1, 120), st.integers(1, 40), st.integers(1, 150), st.data())
    def check(steps, every, window, data):
        count = len(oracles.eval_steps(steps, every, steps - window))
        edge = (count - 1) / count  # the largest trim that keeps one eval, up to rounding
        trim = data.draw(st.one_of(
            st.floats(0.0, 1.0, exclude_max=True),
            st.sampled_from([edge, float(np.nextafter(edge, 0.0)),
                             float(np.nextafter(edge, 1.0))]),
        ))
        train = TrainConfig(gamma=0.05, eta=0.001, alpha=2.0, sigma1=0.0, steps=steps,
                            eval_interval=every)

        def make():
            return replace(tiny_grid("", seeds=(0,)), train=train, window=window, trim=trim)

        if math.ceil(trim * count) < count:
            make()
        else:
            with pytest.raises(InvalidParameterError,
                               match=rf"holds {count} eval\(s\) .* removes all of them"):
                make()

    check()


@pytest.mark.parametrize("batch_size", [None, 16], ids=["full", "batch16"])
@pytest.mark.parametrize("steps, window", [(40, 30), (43, 23), (40, 100)])
def test_evaluate_cell_evaluates_only_in_window_eval_steps(monkeypatch, batch_size, steps,
                                                             window):
    # count the 0-1 evaluations: one error_rates call per data set, train
    # and test, on the parameters the step's gradient takes, and tagged
    # with that step; the gradient takes no eval output and makes no eval
    # call. The evals run on run_group's helper thread, alongside the
    # gradients, so a call is tagged by its parameters once the run is over.
    grid = _reducer_grid(batch_size=batch_size, steps=steps, window=window)
    train, test = load_grid_datasets(grid)
    step, evals, in_gradient, step_of = [0], [], threading.local(), {}
    real_gradient, real_error_rates = ModelKernel.gradient, sde_mod.error_rates

    def gradient(self, params, x, label_index):
        step[0] += 1
        step_of[params.tobytes()] = step[0]
        in_gradient.on = True
        try:
            return real_gradient(self, params, x, label_index)
        finally:
            in_gradient.on = False

    def error_rates(spec, params, x, labels):
        assert len(params) == 1 and not getattr(in_gradient, "on", False)
        evals.append((params[0].tobytes(), "train" if x is train.features else "test"))
        return real_error_rates(spec, params, x, labels)

    monkeypatch.setattr(ModelKernel, "gradient", gradient)
    monkeypatch.setattr(sde_mod, "error_rates", error_rates)
    evaluate_group(grid, train, test, (1.7,), 0.1, 0, 3)
    in_window = oracles.eval_steps(steps, 5, steps - window)
    assert step[0] == steps
    assert [(step_of[params], data) for params, data in evals] == [
        (k, data) for k in in_window for data in ("train", "test")]


# --- Groups: the alphas of one (sigma1, width, seed) group train in
# lockstep on one stream; each row must be its one-alpha cell's row.

GROUP_ALPHAS = (1.3, 1.6, 1.8, 2.0)

# (width, sigma1, seed, settings, diverged flags of GROUP_ALPHAS); the
# mixed cases' seeds are ones whose stream diverges some alphas, not all
GROUP_CASES = {
    "relu-mixed-divergence": (4, 1e11, 4, {}, [True, True, False, False]),
    "linear-mixed-divergence": (0, 5e10, 12, {}, [True, True, True, False]),
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
    rows = evaluate_group(grid, train, test, GROUP_ALPHAS, sigma1, width, seed)
    assert [record.diverged for record in rows] == diverged
    for alpha, record in zip(GROUP_ALPHAS, rows):
        (alone,) = evaluate_group(grid, train, test, (alpha,), sigma1, width, seed)
        assert _bits(record) == _bits(alone)
    if sigma1 == 0.0:  # no stable noise: alpha changes nothing but the alpha field
        assert all(_bits(record)[1:] == _bits(rows[0])[1:] for record in rows)


@pytest.mark.parametrize("batch_size", [None, 16], ids=["full", "batch16"])
@pytest.mark.parametrize("width", [0, 4], ids=["linear", "relu"])
@pytest.mark.parametrize("group_size", [1, 4])
def test_group_evaluates_each_data_set_once_per_eval_step(monkeypatch, batch_size, width,
                                                          group_size):
    # every eval call, tagged with its step (the step whose gradients take
    # the parameters it evaluates, found once the run is over, since the
    # evals run on run_group's helper thread), its data set and the number
    # of runs it evaluates; the gradient takes no eval output and makes no
    # eval call
    steps = 40
    grid = _reducer_grid(width=width, batch_size=batch_size, steps=steps)
    train, test = load_grid_datasets(grid)
    gradients, calls, in_gradient, step_of = [0], [], threading.local(), {}
    real_gradient, real_error_rates = ModelKernel.gradient, sde_mod.error_rates
    _pin_cores(monkeypatch, 1)  # the calls are counted in this process

    def gradient(self, params, x, label_index):
        step_of[params.tobytes()] = gradients[0] // group_size + 1
        gradients[0] += 1
        in_gradient.on = True
        try:
            return real_gradient(self, params, x, label_index)
        finally:
            in_gradient.on = False

    def error_rates(spec, params, x, labels):
        assert not getattr(in_gradient, "on", False)
        data = "train" if x is train.features else "test"
        calls.append(([run_params.tobytes() for run_params in params], data))
        return real_error_rates(spec, params, x, labels)

    monkeypatch.setattr(ModelKernel, "gradient", gradient)
    monkeypatch.setattr(sde_mod, "error_rates", error_rates)
    rows = evaluate_group(grid, train, test, GROUP_ALPHAS[:group_size], 0.1, width, 3)
    assert not any(record.diverged for record in rows)
    assert gradients[0] == steps * group_size
    in_window = oracles.eval_steps(steps, 5, steps - grid.window)
    # one train and one test call per eval step, in either batch mode
    tagged = [(sorted({step_of[params] for params in ps}), data, len(ps)) for ps, data in calls]
    assert tagged == [([k], data, group_size) for k in in_window for data in ("train", "test")]


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
    serial = evaluate_group(grid, train, test, alphas, sigma1, width, seed)

    forks, real_fork = [], os.fork
    monkeypatch.setattr(grid_mod.os, "fork", lambda: forks.append(1) or real_fork())
    _pin_cores(monkeypatch, workers)
    split = evaluate_group(grid, train, test, alphas, sigma1, width, seed)
    assert len(forks) == workers - 1
    _no_child_left()
    assert [record.diverged for record in split] == diverged[::-1]
    assert [_bits(record) for record in split] == [_bits(record) for record in serial]

    # the traces behind the rows: run_group over the same chunks, the later
    # ones pickled back by forked workers, gives the one-process group's traces
    spec, cfg = _model_for(width, train), replace(grid.train, sigma1=sigma1, seed=seed)

    def run_chunk(chunk):
        return run_group(spec, train, test, cfg, chunk, grid.init_scale,
                         after=cfg.steps - grid.window)

    bounds = [len(alphas) * i // workers for i in range(workers + 1)]
    traces = _run_split(run_chunk, [alphas[a:b] for a, b in zip(bounds, bounds[1:])])
    assert len(forks) == 2 * (workers - 1)
    _no_child_left()
    for trace, alone in zip(traces, run_chunk(alphas), strict=True):
        assert trace.config == alone.config
        assert trace.grad_sq.tobytes() == alone.grad_sq.tobytes()
        assert trace.evals == alone.evals
        assert trace.final_params.tobytes() == alone.final_params.tobytes()
        assert trace.diverged == alone.diverged


def test_no_thread_is_alive_when_a_group_forks(monkeypatch, tmp_path):
    # each group's run_group joins its eval helper before it returns, so
    # every group forks with only the threads there were before the grid ran
    import levybound.grid as grid_mod

    counts, real_fork = [], os.fork
    monkeypatch.setattr(grid_mod.os, "fork",
                        lambda: counts.append(threading.active_count()) or real_fork())
    _pin_cores(monkeypatch, 2)
    before = threading.active_count()
    execute_grid(tiny_grid(tmp_path / "r.csv"))
    assert counts == [before] * 3  # one worker for each of the three seeds' groups
    assert threading.active_count() == before
    _no_child_left()


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
        evaluate_group(grid, train, test, GROUP_ALPHAS, 0.1, 0, 3)
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
        evaluate_group(grid, train, test, GROUP_ALPHAS, 0.1, 0, 3)
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
    rows = evaluate_group(grid, train, test, GROUP_ALPHAS, 0.1, 0, 3)
    assert len(rows) == len(GROUP_ALPHAS)
    with pytest.raises(AssertionError, match="os.fork called"):  # the same group at full batch
        evaluate_group(_reducer_grid(), train, test, GROUP_ALPHAS, 0.1, 0, 3)


@pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
def test_group_is_serial_where_the_platform_cannot_split(monkeypatch, missing):
    import levybound.grid as grid_mod

    grid = _reducer_grid()
    train, test = load_grid_datasets(grid)
    _pin_cores(monkeypatch, 1)
    serial = evaluate_group(grid, train, test, GROUP_ALPHAS, 0.1, 0, 3)

    _pin_cores(monkeypatch, 4)
    monkeypatch.delattr(grid_mod.os, missing)
    if missing != "fork":
        monkeypatch.setattr(grid_mod.os, "fork", lambda: pytest.fail("os.fork called"))
    rows = evaluate_group(grid, train, test, GROUP_ALPHAS, 0.1, 0, 3)
    assert [_bits(record) for record in rows] == [_bits(record) for record in serial]


def test_resume_runs_only_the_pending_alphas_of_each_group(tmp_path, monkeypatch):
    import levybound.grid as grid_mod

    alphas, sigma1s, seeds = (1.6, 1.8, 2.0), (0.1, 0.2), (0, 1)
    fresh = execute_grid(tiny_grid(tmp_path / "fresh.csv", alphas, sigma1s, seeds=seeds))
    dropped = {(1.8, 0.1, 0), (1.6, 0.1, 1), (2.0, 0.1, 1), (1.6, 0.2, 1), (1.8, 0.2, 1),
               (2.0, 0.2, 1)}
    kept = [r for r in fresh if (r.alpha, r.sigma1, r.seed) not in dropped]
    write_records(tmp_path / "r.csv", kept)

    real_evaluate_group, calls = grid_mod.evaluate_group, []

    def evaluate_group_spy(grid, train, test, alphas, sigma1, width, seed):
        calls.append((sigma1, seed, tuple(alphas)))
        return real_evaluate_group(grid, train, test, alphas, sigma1, width, seed)

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
    import levybound.sde as sde_mod

    streams = []

    class CountingStream(RngStream):
        def __init__(self, *key):
            super().__init__(*key)
            self.gen = _CountingGenerator(self.gen)
            streams.append(self)

    monkeypatch.setattr(sde_mod, "RngStream", CountingStream)
    steps = 40
    grid = _reducer_grid(width=width, batch_size=16, sigma2=0.05, steps=steps)
    train, test = load_grid_datasets(grid)
    rows = evaluate_group(grid, train, test, GROUP_ALPHAS[:group_size], 0.1, width, 3)
    assert not any(record.diverged for record in rows)
    (stream,) = streams
    layers = 1 if width == 0 else 2  # init_params draws one Gaussian block per layer
    # per step: the batch indices, the two subordinator uniforms, G and the
    # Brownian vector, whatever the group size
    assert stream.gen.calls == Counter(
        standard_normal=layers + 2 * steps, choice=steps, random=2 * steps)


def test_reference_light_noise_group_reproduces_committed_rows():
    # the committed reference profile's light noise group (sigma1 * sqrt(d)
    # = 10), seed 0: all 10 alphas in one group, each written line equal to
    # its line in the committed records
    reference = Path(__file__).resolve().parent.parent / "reference"
    grid = _grid_spec({**DEFAULTS, **parse_config(reference / "phase_transition.cfg")}, "")
    train, test = load_grid_datasets(grid)
    rows = evaluate_group(grid, train, test, grid.alphas, grid.sigma1s[1], grid.widths[0], 0)
    committed = (reference / "phase_transition_records.csv").read_bytes().splitlines(True)
    for record in rows:
        written = _ROW.format(*record[:9], "true" if record.diverged else "false").encode()
        assert committed.count(written) == 1, written
    assert len(rows) == 10 and not any(record.diverged for record in rows)
