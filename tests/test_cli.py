import math
import os
from pathlib import Path

import numpy as np
import pytest

import levybound.cli
import levybound.grid
from levybound import (
    BoundInputs,
    GridSpec,
    IdxSource,
    ModelSpec,
    RecordTable,
    RngStream,
    RunRecord,
    StableParams,
    SyntheticSpec,
    TrainConfig,
    alpha_regression,
    brownian_bound,
    comparison_rate,
    discrete_bound,
    execute_grid,
    init_params,
    k_alpha_d,
    p_alpha,
    phase_regime,
    read_records,
    read_table,
    sample_isotropic_stable,
    sample_skewed_stable,
    sphere_area,
    stable_bound,
    stable_levy_constant,
    write_records,
)
from levybound.cli import CONFIG_KEYS, main
from levybound.constants import log_sphere_area, log_stable_levy_constant
from levybound.data import parse_config
from levybound.errors import DataFormatError, InvalidParameterError
from levybound.grid import evaluate_group, load_grid_datasets

from helpers import write_idx_images, write_idx_labels

REFERENCE = Path(__file__).resolve().parent.parent / "reference"

# two orders of the same sigma1 and width lists: the same four (sigma1, width) pairs
LIST_ORDERS = (["sigma1s=0.1,0.2", "widths=32,8"], ["sigma1s=0.2,0.1", "widths=8,32"])


def tiny_reference_grid(settings, out):
    """``grid`` argv for a 60-step cut of the reference profile."""
    argv = ["grid", "--config", str(REFERENCE / "phase_transition.cfg"), "--out", str(out)]
    for setting in ["steps=60", "window=40", "seeds=0", "alphas=1.6,2", *settings]:
        argv += ["--set", setting]
    return argv


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def no_training(monkeypatch):
    """Fail the test if a cell trains."""
    def fail(*args, **kwargs):
        raise AssertionError("a cell was trained")

    monkeypatch.setattr(levybound.grid, "run_group", fail)


@pytest.fixture
def no_data(monkeypatch):
    """Fail the test if a data set is generated or loaded."""
    def fail(*args, **kwargs):
        raise AssertionError("data were loaded")

    for name in ("generate_synthetic", "load_idx", "load_grid_datasets"):
        monkeypatch.setattr(levybound.grid, name, fail)
    monkeypatch.setattr(levybound.cli, "load_grid_datasets", fail)


BASE_CFG = """
# tiny profile for tests
gamma=0.05
eta=0.001
steps=40
eval_interval=5
window=30
n_per_class=30
input_dim=5
classes=2
separation=2.0
noise_std=1.0
data_seed=7
"""


class TestConstantsCommand:
    def test_row_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "constants", "--alpha", "1.5", "--d", "100", "--radius", "1.0",
            "--sigma1", "0.05",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["k"]) == pytest.approx(k_alpha_d(1.5, 100, 1.0), rel=1e-12)
        assert cols["regime"] == "Heavy"
        assert cols["regime_refined"] == "LightRefined"
        assert float(cols["xi_ours"]) == 0.25

    def test_large_dimension_record(self, capsys):
        # k stays moderate at any d; c and sphere saturate but their logs
        # remain informative
        code, out, _ = run_cli(
            capsys, "constants", "--alpha", "1.7", "--d", "79400", "--sigma1", "0.01"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert 0.0 < float(cols["k"]) < 10.0
        assert float(cols["c"]) == float("inf")
        assert float(cols["sphere_area"]) == 0.0
        assert float(cols["log_c"]) > 0.0 > float(cols["log_sphere_area"])

    def test_bad_domain_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--alpha", "2.5", "--d", "10")
        assert code == 1 and "config error" in err


class TestSampleCommand:
    def test_scalar_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--alpha", "1.5", "--count", "5", "--seed", "3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        floats = [float(v) for v in lines]
        code2, out2, _ = run_cli(
            capsys, "sample", "--alpha", "1.5", "--count", "5", "--seed", "3"
        )
        assert [float(v) for v in out2.strip().splitlines()] == floats

    def test_vector_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--alpha", "1.8", "--dim", "3", "--count", "4"
        )
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        assert len(rows) == 4 and all(len(r) == 3 for r in rows)

    def test_usage_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--alpha", "1.5")
        assert code == 1

    @pytest.mark.parametrize("dim", [[], ["--dim", "3"]], ids=["scalar", "vector"])
    def test_negative_count_is_a_config_error(self, capsys, dim):
        code, out, err = run_cli(capsys, "sample", "--alpha", "1.5", "--count", "-1", *dim)
        assert (code, out, err) == (1, "", "config error: size must be >= 0, got -1\n")
        code, out, err = run_cli(capsys, "sample", "--alpha", "1.5", "--count", "0", *dim)
        assert (code, out, err) == (0, "", "")


    @pytest.mark.parametrize("options, flags", [
        (["--beta", "0.9"], "--beta"),
        (["--scale", "5"], "--scale"),
        (["--loc", "0"], "--loc"),
        (["--loc", "100", "--scale", "1", "--beta", "0.9"], "--beta, --scale, --loc"),
    ])
    def test_scalar_law_options_are_a_config_error_with_dim(self, capsys, options, flags):
        code, out, err = run_cli(capsys, "sample", "--alpha", "1.5", "--count", "2",
                                 "--dim", "2", "--seed", "1", *options)
        assert (code, out) == (1, "")
        assert err == f"config error: {flags} apply to the scalar law, not --dim\n"

    def test_scalar_defaults_are_beta_0_scale_1_loc_0(self, capsys):
        argv = ["sample", "--alpha", "1.5", "--count", "6", "--seed", "3"]
        _, out, _ = run_cli(capsys, *argv)
        _, explicit, _ = run_cli(capsys, *argv, "--beta", "0", "--scale", "1", "--loc", "0")
        draws = sample_skewed_stable(StableParams(1.5, 0.0, 1.0, 0.0), RngStream(3, 0), size=6)
        assert out == explicit == "".join(_f(v) + "\n" for v in draws)


REFERENCE_RECORDS = str(Path(__file__).resolve().parent.parent / "reference"
                        / "phase_transition_records.csv")


@pytest.mark.parametrize(
    "argv, flag, option",
    [(["constants", "--alpha", "1.7", "--d", "100"], "--sigma1", "--sigma1"),
     (["constants", "--alpha", "1.7", "--d", "100"], "--radius", "--radius/--R"),
     (["constants", "--d", "100"], "--alpha", "--alpha"),
     (["sample", "--count", "2"], "--alpha", "--alpha"),
     (["sample", "--alpha", "1.5", "--count", "2"], "--beta", "--beta"),
     (["sample", "--alpha", "1.5", "--count", "2"], "--scale", "--scale"),
     (["sample", "--alpha", "1.5", "--count", "2"], "--loc", "--loc"),
     (["analyze", "--records", REFERENCE_RECORDS], "--radius", "--radius")],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "two"])
def test_float_options_must_be_finite_numbers(capsys, argv, flag, option, value):
    code, out, err = run_cli(capsys, *argv, f"{flag}={value}")
    assert (code, out) == (1, "")
    assert err == f"error: argument {option}: must be a finite number, got '{value}'\n"


@pytest.mark.parametrize("radius", ["0", "-1"])
def test_analyze_radius_must_be_positive(capsys, radius):
    code, out, err = run_cli(capsys, "analyze", "--records", REFERENCE_RECORDS,
                             "--group-key", "sigma1", "--radius", radius)
    assert (code, out) == (1, "")
    assert err == f"config error: radius must be > 0, got {float(radius)}\n"


class TestSimulateCommand:
    def test_row_layout(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.7\nsigma1s=0.1\nseeds=2\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["alpha"] == "1.7"
        assert cols["d"] == "10"
        assert cols["diverged"] == "false"
        assert float(cols["i_hat"]) > 0.0
        assert float(cols["g_hat"]) > 0.0
        assert float(cols["stable_bound"]) > 0.0
        assert float(cols["discrete_bound"]) > 0.0
        assert cols["brownian_bound"] == ""

    def test_set_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.7\nsigma1s=0.0\n")
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--set", "sigma2=0.1"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["g_hat"] == ""  # sigma1 = 0
        assert float(cols["brownian_bound"]) > 0.0

    def test_missing_key_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG)  # no sigma1s
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1 and "missing config key 'sigma1s'" in err

    @pytest.mark.parametrize(
        "command, setting, message",
        [
            ("simulate", "alphas=heavy", "config key 'alphas' is not a number list: 'heavy'"),
            ("simulate", "steps=1.5", "config key 'steps' is not an integer: '1.5'"),
            ("grid", "alphas=1.6,x", "config key 'alphas' is not a number list: '1.6,x'"),
            ("grid", "seeds=0,one", "config key 'seeds' is not an integer list: '0,one'"),
        ],
        ids=["number", "integer", "number-list", "integer-list"],
    )
    def test_bad_values_exit_1(self, capsys, tmp_path, command, setting, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.7\nsigma1s=0.1\n")
        code, _, err = run_cli(
            capsys, command, "--config", str(cfg), "--set", setting,
            "--out", str(tmp_path / "out.csv"),
        )
        assert code == 1 and message in err

    @pytest.mark.parametrize("width", [0, 4])
    def test_matches_one_cell_grid(self, capsys, tmp_path, width):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + f"alphas=1.7\nsigma1s=0.1\nseeds=2\nwidths={width}\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        records_csv = tmp_path / "records.csv"
        code, _, _ = run_cli(capsys, "grid", "--config", str(cfg), "--out", str(records_csv))
        assert code == 0
        (record,) = read_records(records_csv)
        assert not record.diverged and cols["diverged"] == "false"
        assert (int(cols["d"]), int(cols["n"])) == (record.d, record.n)
        for key in ("gap", "i_hat", "g_hat"):
            assert float(cols[key]) == getattr(record, key), key


    @pytest.mark.parametrize("sigma1, estimates", [
        ("0.0034020690871988586",
         ["0.090029691876750681", "0.58096342019176539", "5.1327548657940909"]),
        ("0.34020690871988585",
         ["0.044372922502334253", "121.02239817069908", "1.8608398868660028"]),
    ], ids=["heavy", "light"])
    def test_reference_cell_reproduces_committed_row(self, capsys, sigma1, estimates):
        # a cell's stream is keyed by its seed alone, so simulate reproduces
        # the reference row of any sigma1 and width
        code, out, err = run_cli(
            capsys, "simulate", "--config", str(REFERENCE / "phase_transition.cfg"),
            "--set", "alphas=1.6", "--set", f"sigma1s={sigma1}", "--set", "seeds=0",
        )
        assert (code, err) == (0, "")
        row = out.splitlines()[1].split(",")
        key = ",".join(row[:6]) + ","  # alpha, sigma1, d, width, n, seed
        records = (REFERENCE / "phase_transition_records.csv").read_text().splitlines()
        (committed,) = [line.split(",") for line in records if line.startswith(key)]
        assert row[2:9] == committed[2:9] == ["864", "32", "500", "0", *estimates]

    def test_out_in_missing_directory_exits_2_before_training(self, capsys, tmp_path,
                                                               no_training):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.7\nsigma1s=0.1\n")
        out_csv = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_csv))
        assert (code, out) == (2, "")
        assert f"i/o error: [Errno 2] No such file or directory: '{out_csv}'" in err

    def test_failed_run_keeps_an_existing_out(self, capsys, tmp_path):
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.7\nsigma1s=0.1\ndata=idx\n"
                       + "".join(f"{stem}={tmp_path / 'missing.idx'}\n" for stem in
                                 ("train_images", "train_labels", "test_images", "test_labels")))
        out_csv = tmp_path / "keep.csv"
        out_csv.write_bytes(b"kept,row\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_csv))
        assert (code, out) == (2, "")
        assert "i/o error: [Errno 2] No such file or directory" in err
        assert out_csv.read_bytes() == b"kept,row\n"

    def test_failed_run_removes_the_out_it_created(self, capsys, tmp_path):
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.7\nsigma1s=0.1\ndata=idx\n"
                       + "".join(f"{stem}={tmp_path / 'missing.idx'}\n" for stem in
                                 ("train_images", "train_labels", "test_images", "test_labels")))
        out_csv = tmp_path / "new.csv"
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_csv))
        assert (code, out) == (2, "")
        assert "i/o error: [Errno 2] No such file or directory" in err
        assert not out_csv.exists()

    def test_config_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(BASE_CFG.encode() + b"alphas=1.7\nsigma1s=0.1\nsteps=\xff\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"i/o error: {cfg}: not UTF-8 text") and "Traceback" not in err


class TestConfigKeys:
    """A simulate config names one cell, and a key no subcommand reads is a
    config error; both exit 1 before any cell trains."""

    @pytest.mark.parametrize(
        "command, settings, message",
        [
            ("simulate", ["alphas=1.6,2.0"],
             "simulate runs one cell, but alphas, sigma1s, widths and seeds name 2 cells"),
            ("simulate", ["widths=0,4", "seeds=0,1"],
             "simulate runs one cell, but alphas, sigma1s, widths and seeds name 4 cells"),
            ("simulate", ["step=30", "windw=20"], "unknown config key(s): 'step', 'windw'"),
            ("grid", ["windw=20"], "unknown config key(s): 'windw'"),
            ("simulate", ["alpha=1.7"], "unknown config key(s): 'alpha'"),
            ("simulate", ["sigma1=0.1", "width=4", "seed=2"],
             "unknown config key(s): 'seed', 'sigma1', 'width'"),
        ],
        ids=["several-cells", "several-widths-and-seeds", "typo", "typo-grid", "removed-alpha",
             "removed-cell-keys"],
    )
    def test_rejected_before_training(self, capsys, tmp_path, no_training, command, settings,
                                      message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.7\nsigma1s=0.1\n")
        out_csv = tmp_path / "out.csv"
        argv = [command, "--config", str(cfg), "--out", str(out_csv)]
        for setting in settings:
            argv += ["--set", setting]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"config error: {message}\n")
        assert not out_csv.exists()

    def test_unknown_key_in_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.7\nsigma1s=0.1\nwindw=20\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, out, err) == (1, "", "config error: unknown config key(s): 'windw'\n")

    def test_benchmark_and_reference_keys_are_known(self):
        # the keys the benchmark's configs write or set, and the reference config's
        keys = {
            "alphas", "sigma1s", "widths", "seeds", "gamma", "eta", "sigma2", "steps",
            "batch_size", "eval_interval", "window", "trim", "init_scale", "R", "data",
            "n_per_class", "input_dim", "classes", "separation", "noise_std", "data_seed",
        }
        assert keys | set(parse_config(REFERENCE / "phase_transition.cfg")) <= CONFIG_KEYS


class TestGridResume:
    """A resumed records file may hold only rows this grid would write: anything
    else exits 1 before a cell trains and leaves the file as it was."""

    @pytest.fixture
    def grid_run(self, capsys, tmp_path, request):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.6,2.0\nsigma1s=0.1\n")
        out_csv = tmp_path / "records.csv"
        code, _, _ = run_cli(capsys, "grid", "--config", str(cfg), "--out", str(out_csv))
        assert code == 0
        request.getfixturevalue("no_training")
        return cfg, out_csv

    @pytest.mark.parametrize(
        "settings, message",
        [
            (["alphas=1.6"], "holds a row outside this grid: alpha=2.0, sigma1=0.1, width=0, "
                             "seed=0"),
            (["n_per_class=31"], "holds the cell alpha=1.6, sigma1=0.1, width=0, seed=0 with "
                                 "d=10, n=48, but this grid gives d=10, n=49"),
            (["input_dim=6"], "holds the cell alpha=1.6, sigma1=0.1, width=0, seed=0 with "
                              "d=10, n=48, but this grid gives d=12, n=48"),
        ],
        ids=["outside-grid", "stale-n", "stale-d"],
    )
    def test_foreign_row_exits_1(self, capsys, grid_run, settings, message):
        cfg, out_csv = grid_run
        before = out_csv.read_bytes()
        argv = ["grid", "--config", str(cfg), "--out", str(out_csv)]
        for setting in settings:
            argv += ["--set", setting]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert f"config error: {out_csv} {message}" in err
        assert out_csv.read_bytes() == before

    def test_resume_in_another_list_order_is_a_fresh_run(self, capsys, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        for order, out_csv in zip(LIST_ORDERS, (first, second)):
            assert run_cli(capsys, *tiny_reference_grid(order, out_csv))[0] == 0
        header, row, *_ = first.read_bytes().split(b"\r\n")
        first.write_bytes(header + b"\r\n" + row + b"\r\n")
        assert run_cli(capsys, *tiny_reference_grid(LIST_ORDERS[1], first))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_repeated_cell_exits_1(self, capsys, grid_run):
        cfg, out_csv = grid_run
        header, first, *rest = out_csv.read_bytes().split(b"\r\n")
        out_csv.write_bytes(b"\r\n".join([header, first, first, *rest]))
        before = out_csv.read_bytes()
        code, out, err = run_cli(capsys, "grid", "--config", str(cfg), "--out", str(out_csv))
        assert (code, out) == (1, "")
        assert (f"config error: {out_csv} holds the cell alpha=1.6, sigma1=0.1, width=0, "
                "seed=0 twice") in err
        assert out_csv.read_bytes() == before

    def test_refused_resume_keeps_a_torn_row(self, capsys, grid_run):
        cfg, out_csv = grid_run
        with open(out_csv, "ab") as f:
            f.write(b"1.8,0.1,10,0,")  # a row torn in mid-append
        before = out_csv.read_bytes()
        code, out, err = run_cli(capsys, "grid", "--config", str(cfg), "--out", str(out_csv),
                                 "--set", "alphas=1.6")
        assert (code, out) == (1, "")
        assert f"config error: {out_csv} holds a row outside this grid" in err
        assert out_csv.read_bytes() == before

    # str.splitlines breaks a line at each of these too; the readers'
    # newline="" streams break only at \r and \n. float() strips the
    # first five from a field and refuses the last three, so read_records,
    # the row parser the resume shares, refuses that file.
    @pytest.mark.parametrize("separator", ["\v", "\f", "\x85", "\u2028", "\u2029",
                                           "\x1c", "\x1d", "\x1e"])
    def test_resume_splits_lines_as_the_readers_do(self, capsys, grid_run, separator):
        cfg, out_csv = grid_run
        before = out_csv.read_bytes()
        header, first, second, *rest = before.split(b"\r\n")
        fields = second.split(b",")
        fields[6] += separator.encode()  # the gap of the second row
        edited = b"\r\n".join([header, first, b",".join(fields), *rest])
        out_csv.write_bytes(edited)
        if separator in "\x1c\x1d\x1e":
            with pytest.raises(DataFormatError) as refused:
                read_records(out_csv)
            want, after = (2, "", f"cells: 2\ni/o error: {refused.value}\n"), edited
        else:
            assert len(read_records(out_csv)) == len(read_table(out_csv)) == 2
            want, after = (0, "", f"cells: 2\nwrote 2 records to {out_csv}\n"), before
        assert run_cli(capsys, "grid", "--config", str(cfg), "--out", str(out_csv)) == want
        assert out_csv.read_bytes() == after

    def test_records_file_that_is_not_utf8_exits_2(self, capsys, grid_run):
        cfg, out_csv = grid_run
        header, first, *rest = out_csv.read_bytes().split(b"\r\n")
        out_csv.write_bytes(b"\r\n".join([header, first + b"\xff", *rest]))
        before = out_csv.read_bytes()
        code, out, err = run_cli(capsys, "grid", "--config", str(cfg), "--out", str(out_csv))
        assert (code, out) == (2, "")
        assert f"i/o error: {out_csv}: not UTF-8 text" in err and "Traceback" not in err
        assert out_csv.read_bytes() == before


class TestGridCommand:
    def test_minibatch_reference_is_byte_identical(self, capsys, tmp_path):
        # the committed records of the minibatch smoke profile (784 inputs,
        # 10 classes, batch 64, Brownian noise; see reference/RUN_LOG.md)
        out = tmp_path / "minibatch_smoke_records.csv"
        code, _, err = run_cli(capsys, "grid", "--config", str(REFERENCE / "minibatch_smoke.cfg"),
                               "--out", str(out))
        assert (code, err) == (0, f"cells: 8\nwrote 8 records to {out}\n")
        assert out.read_bytes() == (REFERENCE / "minibatch_smoke_records.csv").read_bytes()

    def test_worker_error_exits_1_and_leaves_no_process(self, capsys, tmp_path, monkeypatch):
        parent, real_run_group = os.getpid(), levybound.grid.run_group

        def fail_in_worker(spec, train, test, cfg, alphas, *args, **kwargs):
            if os.getpid() != parent:
                raise InvalidParameterError(f"failed in a worker at alphas {tuple(alphas)}")
            return real_run_group(spec, train, test, cfg, alphas, *args, **kwargs)

        monkeypatch.setattr(levybound.grid, "run_group", fail_in_worker)
        monkeypatch.setattr(levybound.grid.os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.6,1.8,2.0\nsigma1s=0.1\n")
        out_csv = tmp_path / "records.csv"
        code, out, err = run_cli(capsys, "grid", "--config", str(cfg), "--out", str(out_csv))
        assert (code, out) == (1, "")
        assert "config error: failed in a worker at alphas (1.8, 2.0)\n" in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_list_order_does_not_change_the_records(self, capsys, tmp_path):
        files = []
        for k, order in enumerate(LIST_ORDERS):
            out_csv = tmp_path / f"records{k}.csv"
            assert run_cli(capsys, *tiny_reference_grid(order, out_csv))[0] == 0
            files.append(out_csv.read_bytes())
        assert files[0] == files[1]

    def test_out_in_missing_directory_exits_2(self, capsys, tmp_path, no_training):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.6,2.0\nsigma1s=0.1\n")
        out_csv = tmp_path / "missing" / "records.csv"
        code, out, err = run_cli(capsys, "grid", "--config", str(cfg), "--out", str(out_csv))
        assert (code, out) == (2, "")
        assert f"i/o error: [Errno 2] No such file or directory: '{out_csv}'" in err

    def test_grid_and_resume(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        out_csv = tmp_path / "records.csv"
        cfg.write_text(
            BASE_CFG + "alphas=1.6,2.0\nsigma1s=0.1\nwidths=0\nseeds=0,1\n"
        )
        code, _, err = run_cli(capsys, "grid", "--config", str(cfg), "--out", str(out_csv))
        assert code == 0
        assert "cells: 4" in err
        from levybound import read_records

        records = read_records(out_csv)
        assert len(records) == 4
        first = out_csv.read_bytes()
        code, _, _ = run_cli(capsys, "grid", "--config", str(cfg), "--out", str(out_csv))
        assert code == 0 and out_csv.read_bytes() == first

    def test_missing_out_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.6,2.0\nsigma1s=0.1\n")
        code, _, err = run_cli(capsys, "grid", "--config", str(cfg))
        assert code == 1


class TestAnalyzeCommand:
    def write_power_law_records(self, path, alpha=1.6):
        records = []
        for d in (100, 1000, 10000):
            for a in (1.6, 1.8, 2.0):
                for seed in (0, 1):
                    records.append(
                        RunRecord(a, 0.01, d, 0, 500, seed, a * d ** (0.5 - alpha / 4),
                                  1.0, 1.0, False)
                    )
        write_records(path, records)

    def test_report_and_long_output(self, capsys, tmp_path):
        records_csv = tmp_path / "records.csv"
        self.write_power_law_records(records_csv)
        long_csv = tmp_path / "long.csv"
        code, out, err = run_cli(
            capsys, "analyze", "--records", str(records_csv), "--group-key", "d",
            "--long-out", str(long_csv),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + 3 groups
        cols = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(cols["tau_mean_gap"]) == 1.0  # gap increases with alpha here
        assert cols["group_key"] == "d"
        long_lines = long_csv.read_text().strip().splitlines()
        assert long_lines[0] == "group,alpha,mean_gap,std_gap"
        assert len(long_lines) == 1 + 9

    def test_reference_report_and_long_reproduce(self, capsys, tmp_path):
        reference = Path(__file__).resolve().parent.parent / "reference"
        report, long_csv = tmp_path / "report.csv", tmp_path / "long.csv"
        code, _, _ = run_cli(
            capsys, "analyze", "--records", str(reference / "phase_transition_records.csv"),
            "--group-key", "sigma1", "--out", str(report), "--long-out", str(long_csv),
        )
        assert code == 0
        assert report.read_bytes() == (reference / "phase_transition_report.csv").read_bytes()
        assert long_csv.read_bytes() == (reference / "phase_transition_long.csv").read_bytes()

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", "--records", str(tmp_path / "nope.csv"))
        assert code == 2

    def test_records_file_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        records_csv = tmp_path / "records.csv"
        self.write_power_law_records(records_csv)
        records_csv.write_bytes(records_csv.read_bytes().replace(b"false", b"f\xffalse", 1))
        code, out, err = run_cli(capsys, "analyze", "--records", str(records_csv))
        assert (code, out) == (2, "")
        assert err.startswith(f"i/o error: {records_csv}: not UTF-8 text")

    def test_single_alpha_exits_3(self, capsys, tmp_path):
        records_csv = tmp_path / "records.csv"
        write_records(
            records_csv,
            [RunRecord(1.8, 0.1, 10, 0, 50, s, 0.1 * s, 1.0, 1.0, False) for s in range(3)],
        )
        code, _, err = run_cli(capsys, "analyze", "--records", str(records_csv))
        assert code == 3 and "analysis error" in err

    def test_nan_gap_exits_3(self, capsys, tmp_path):
        records_csv = tmp_path / "records.csv"
        records = [RunRecord(a, 0.1, 10, 0, 50, 0, a, 1.0, 1.0, False) for a in (1.6, 1.8, 2.0)]
        records.append(RunRecord(1.7, 0.1, 10, 0, 50, 0, math.nan, 1.0, 1.0, False))
        write_records(records_csv, records)
        code, _, err = run_cli(capsys, "analyze", "--records", str(records_csv))
        assert code == 3 and "NaN gap: alpha=1.7 seed=0 d=10" in err

    @pytest.mark.parametrize("group_key", ["d", "sigma1"])
    @pytest.mark.parametrize("field", ["alpha", "sigma1"])
    def test_nan_alpha_or_sigma1_exits_3(self, capsys, tmp_path, group_key, field):
        # two NaN rows, which read as distinct values, and a third live row after them
        records_csv = tmp_path / "records.csv"
        records = [RunRecord(a, 0.1, 10, 0, 50, 0, a, 1.0, 1.0, False) for a in (1.6, 1.8, 2.0)]
        records[1:1] = [records[0]._replace(seed=s, **{field: math.nan}) for s in (4, 5)]
        write_records(records_csv, records)
        code, out, err = run_cli(capsys, "analyze", "--records", str(records_csv),
                                 "--group-key", group_key)
        named = "nan" if group_key == field else {"d": "10", "sigma1": "0.1"}[group_key]
        assert (code, out) == (3, "")
        assert err == (f"analysis error: non-diverged record with NaN {field}: "
                       f"alpha={records[1].alpha} seed=4 {group_key}={named}\n")


class TestRegressAlphaCommand:
    def test_recovers_exponent(self, capsys, tmp_path):
        records_csv = tmp_path / "records.csv"
        alpha = 1.6
        records = [
            RunRecord(alpha, 0.01, d, 0, 500, 0, d ** (0.5 - alpha / 4), 1.0, 1.0, False)
            for d in (100, 1000, 10000)
        ]
        write_records(records_csv, records)
        code, out, _ = run_cli(capsys, "regress-alpha", "--records", str(records_csv))
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["alpha_hat"]) == pytest.approx(alpha, abs=1e-10)

    def test_non_positive_gap_exits_3(self, capsys, tmp_path):
        records_csv = tmp_path / "records.csv"
        write_records(
            records_csv,
            [
                RunRecord(1.6, 0.01, 100, 0, 500, 0, -0.1, 1.0, 1.0, False),
                RunRecord(1.6, 0.01, 200, 0, 500, 0, 0.1, 1.0, 1.0, False),
            ],
        )
        code, _, _ = run_cli(capsys, "regress-alpha", "--records", str(records_csv))
        assert code == 3

    def test_no_live_row_exits_3(self, capsys, tmp_path):
        records_csv = tmp_path / "records.csv"
        write_records(records_csv, [RunRecord(1.6, 0.01, d, 0, 500, 0, math.nan, math.nan,
                                              math.nan, True) for d in (100, 200)])
        code, out, err = run_cli(capsys, "regress-alpha", "--records", str(records_csv))
        assert (code, out, err) == (3, "", "analysis error: no non-diverged records\n")


def scan_rows(*cells):
    """A diverged row with d = 0, which the analysis skips, then one live
    row at sigma1 0.01 and seed 0 for each (alpha, d, gap)."""
    skipped = RunRecord(1.7, 0.01, 0, 0, 500, 1, math.nan, math.nan, math.nan, True)
    return [skipped] + [RunRecord(a, 0.01, d, 0, 500, 0, gap, 1.0, 1.0, False)
                        for a, d, gap in cells]


RISING = [(1.6, 100, 0.1), (1.8, 100, 0.2), (2.0, 100, 0.3)]
# Records files that break the live-row rule, each with the row and the
# flaw the analysis names. The d = -300 group's tau is opposite to the
# d = 100 group's, so a d-scan would locate a crossing at a negative d.
LIVE_RULE_PROBES = {
    "inf-gap": (RISING + [(1.6, 1000, 0.1), (1.8, 1000, math.inf), (2.0, 1000, 0.3)],
                "inf gap: alpha=1.8 seed=0 d=1000"),
    "inf-alpha": (RISING + [(math.inf, 1000, 0.2), (1.6, 1000, 0.1)],
                  "inf alpha: alpha=inf seed=0 d=1000"),
    "nan-gap": ([(1.6, 100, math.nan)] + RISING[1:] + [(1.6, 1000, 0.1), (2.0, 1000, 0.2)],
                "NaN gap: alpha=1.6 seed=0 d=100"),
    "d-zero": ([(1.6, 0, 0.1), (2.0, 0, 0.2)] + RISING, "d < 1: alpha=1.6 seed=0 d=0"),
    "d-negative": ([(1.6, -300, 0.3), (1.8, -300, 0.2), (2.0, -300, 0.1)] + RISING,
                   "d < 1: alpha=1.6 seed=0 d=-300"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["analyze", "regress-alpha"])
@pytest.mark.parametrize("probe", LIVE_RULE_PROBES)
def test_both_analysis_commands_refuse_a_row_that_breaks_the_live_row_rule(
        capsys, tmp_path, probe, command):
    cells, named = LIVE_RULE_PROBES[probe]
    records_csv = tmp_path / "records.csv"
    write_records(records_csv, scan_rows(*cells))
    code, out, err = run_cli(capsys, command, "--records", str(records_csv))
    assert (code, out) == (3, "")
    assert err == f"analysis error: non-diverged record with {named}\n"
    assert "Traceback" not in err


def test_unknown_command_exits_1(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_out_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "constants.csv"
    code, out, _ = run_cli(
        capsys, "constants", "--alpha", "1.5", "--d", "10", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("alpha,")


def _f(v):
    return format(v, ".17g")


class TestTablesMatchLibrary:
    """Each CLI table, byte for byte, against the row rebuilt from the library API.

    Column names, the .17g float format, the empty not-applicable fields
    and the true/false flag are spelled out here, apart from the CLI code.
    """

    @pytest.mark.parametrize(
        "alpha, d, radius, sigma1", [(1.5, 100, 1.0, 0.05), (1.7, 79400, 2.5, 0.01)]
    )
    def test_constants(self, capsys, alpha, d, radius, sigma1):
        code, out, err = run_cli(
            capsys, "constants", "--alpha", str(alpha), "--d", str(d), "--radius", str(radius),
            "--sigma1", str(sigma1),
        )
        k = k_alpha_d(alpha, d, radius)
        coarse, refined = phase_regime(sigma1, d, radius)
        prior, xi_ours, xi_prior = comparison_rate(alpha, d)
        row = [_f(alpha), str(d), _f(radius), _f(sigma1)]
        row += map(_f, [
            k, k * radius ** (2 - alpha), p_alpha(alpha), stable_levy_constant(alpha, d),
            sphere_area(d), log_stable_levy_constant(alpha, d), log_sphere_area(d),
        ])
        row += [coarse, refined, _f(prior), _f(xi_ours), _f(xi_prior)]
        header = (
            "alpha,d,radius,sigma1,k,k_bar,p,c,sphere_area,log_c,log_sphere_area,"
            "regime,regime_refined,prior_constant,xi_ours,xi_prior"
        )
        assert (code, err) == (0, "")
        assert out == header + "\n" + ",".join(row) + "\n"
        if d == 79400:
            assert (row[7], row[8]) == ("inf", "0")

    def test_sample_scalar(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--alpha", "1.5", "--count", "6", "--seed", "3", "--stream", "2",
            "--beta", "0.5", "--scale", "2", "--loc", "-1",
        )
        draws = sample_skewed_stable(StableParams(1.5, 0.5, 2.0, -1.0), RngStream(3, 2), size=6)
        assert code == 0
        assert out == "".join(_f(v) + "\n" for v in draws)

    @pytest.mark.parametrize("alpha", [1.8, 2.0])
    def test_sample_vector(self, capsys, alpha):
        code, out, _ = run_cli(
            capsys, "sample", "--alpha", str(alpha), "--dim", "3", "--count", "4", "--seed", "5"
        )
        draws = sample_isotropic_stable(alpha, 3, RngStream(5, 0), size=4)
        assert code == 0
        assert out == "".join(" ".join(map(_f, row)) + "\n" for row in draws)

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--seed", "18446744073709551616"), ("--stream", "-1"),
    ])
    def test_sample_key_outside_64_bits_exits_1(self, capsys, flag, value):
        # -1 would alias 2**64 - 1, and 2**64 would alias 0
        code, out, err = run_cli(capsys, "sample", "--alpha", "1.5", "--count", "2", flag, value)
        name = flag.lstrip("-")
        assert (code, out, err) == (1, "", f"config error: {name} must be in [0, 2**64), got {value}\n")

    def test_sample_largest_seed_runs(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--alpha", "1.5", "--count", "2",
                               "--seed", "18446744073709551615", "--stream", "18446744073709551615")
        draws = sample_skewed_stable(StableParams(1.5), RngStream(2**64 - 1, 2**64 - 1), size=2)
        assert code == 0
        assert out == "".join(_f(v) + "\n" for v in draws)

    @pytest.mark.parametrize(
        "sigma1, sigma2, eta, width, init_scale",
        [
            (0.1, 0.0, 0.001, 0, 1.0),
            (0.0, 0.1, 0.001, 0, 1.0),
            (0.2, 0.1, 0.001, 4, 1.0),
            (0.1, 0.0, 0.0, 0, 1.0),
            (0.1, 0.0, 0.001, 0, 1e13),
        ],
        ids=["sigma1", "sigma2-only", "both-noises", "eta-zero", "diverged"],
    )
    def test_simulate(self, capsys, tmp_path, sigma1, sigma2, eta, width, init_scale):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.7\nseeds=2\n")
        code, out, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--set", f"sigma1s={sigma1}",
            "--set", f"sigma2={sigma2}", "--set", f"eta={eta}", "--set", f"widths={width}",
            "--set", f"init_scale={init_scale}",
        )
        grid = GridSpec(
            alphas=(1.7,), sigma1s=(sigma1,), widths=(width,), seeds=(2,),
            train=TrainConfig(gamma=0.05, eta=eta, alpha=2.0, sigma1=0.0, sigma2=sigma2,
                              steps=40, eval_interval=5),
            data=SyntheticSpec(30, 5, 2, 2.0, 1.0, seed=7), out="", init_scale=init_scale,
            window=30,
        )
        train, test = load_grid_datasets(grid)
        (r,) = evaluate_group(grid, train, test, (1.7,), sigma1, width, 2)
        row = [_f(1.7), _f(sigma1), str(r.d), str(width), str(r.n), "2"]
        if r.diverged:
            row += [""] * 6 + ["true"]
        else:
            inputs = BoundInputs(1.7, r.d, r.n, sigma1, sigma2, 0.05, eta, radius=1.0, s=0.5,
                                 zeta=0.05, lam=0.0)
            row += [_f(r.gap), _f(r.i_hat)]
            row += [_f(r.g_hat), _f(stable_bound(r.i_hat, inputs))] if sigma1 > 0 else ["", ""]
            row += [_f(discrete_bound(r.i_hat, inputs)) if sigma1 > 0 and eta > 0 else ""]
            row += [_f(brownian_bound(r.i_hat, inputs)) if sigma2 > 0 else "", "false"]
        header = (
            "alpha,sigma1,d,width,n,seed,gap,i_hat,g_hat,"
            "stable_bound,discrete_bound,brownian_bound,diverged"
        )
        assert (code, err) == (0, "")
        assert r.diverged == (init_scale > 1.0)
        assert out == header + "\n" + ",".join(row) + "\n"

    def test_regress_alpha(self, capsys, tmp_path):
        records_csv = tmp_path / "records.csv"
        records = [
            RunRecord(1.7, 0.01, d, 0, 500, seed, d ** (0.5 - 1.7 / 4) * (1 + 0.1 * seed),
                      1.0, 1.0, False)
            for d in (100, 300, 1000) for seed in (0, 1)
        ]
        write_records(records_csv, records)
        code, out, _ = run_cli(capsys, "regress-alpha", "--records", str(records_csv))
        assert code == 0
        assert out == "r_hat,intercept,alpha_hat\n" + ",".join(
            map(_f, alpha_regression(RecordTable.from_records(records)))) + "\n"


class TestDivergedRows:
    def test_grid_diverged_rows_end_to_end(self, capsys, tmp_path, request):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.6,1.8,2.0\nsigma1s=0.1\nwidths=0\nseeds=0,1\n")
        live_csv, diverged_csv = tmp_path / "live.csv", tmp_path / "diverged.csv"
        code, _, _ = run_cli(capsys, "grid", "--config", str(cfg), "--out", str(live_csv))
        assert code == 0
        code, _, _ = run_cli(
            capsys, "grid", "--config", str(cfg), "--set", "seeds=7",
            "--set", "init_scale=1e13", "--out", str(diverged_csv),
        )
        assert code == 0
        diverged = diverged_csv.read_bytes()
        rows = diverged.split(b"\r\n")
        assert rows[-1] == b"" and len(rows) == 1 + 3 + 1
        for alpha, row in zip(("1.6000000000000001", "1.8", "2"), rows[1:4]):
            assert row == f"{alpha},0.10000000000000001,10,0,48,7,nan,nan,nan,true".encode()

        # a re-run resumes: no cell is trained again and the file is unchanged
        request.getfixturevalue("no_training")
        code, _, _ = run_cli(
            capsys, "grid", "--config", str(cfg), "--set", "seeds=7",
            "--set", "init_scale=1e13", "--out", str(diverged_csv),
        )
        assert code == 0 and diverged_csv.read_bytes() == diverged

        # analyze skips diverged rows in a file that also has live rows
        mixed_csv = tmp_path / "mixed.csv"
        live = live_csv.read_bytes()
        mixed_csv.write_bytes(live + diverged.split(b"\r\n", 1)[1])
        assert len(read_records(mixed_csv)) == 6 + 3
        code, live_out, live_err = run_cli(capsys, "analyze", "--records", str(live_csv))
        assert code == 0
        code, mixed_out, mixed_err = run_cli(capsys, "analyze", "--records", str(mixed_csv))
        assert code == 0 and (mixed_out, mixed_err) == (live_out, live_err)


class TestConfigErrors:
    """Values that cannot describe a run are rejected before any cell trains."""

    @pytest.mark.parametrize(
        "command, setting, message",
        [
            ("grid", "R=-1", "radius R must be > 0"),
            ("grid", "R=0", "radius R must be > 0"),
            ("grid", "R=nan", "radius R must be > 0"),
            ("grid", "sigma1s=nan", "grid sigma1s: noise scales must be >= 0"),
            ("grid", "sigma2=nan", "noise scales must be >= 0"),
            ("grid", "eta=nan", "eta must be >= 0"),
            ("grid", "init_scale=nan", "init_scale must be >= 0"),
            ("grid", "init_scale=-1", "init_scale must be >= 0"),
            ("simulate", "R=-1", "radius R must be > 0"),
            ("simulate", "sigma1s=nan", "grid sigma1s: noise scales must be >= 0"),
            ("simulate", "init_scale=nan", "init_scale must be >= 0"),
            ("simulate", "s=0", "s must be > 0"),
            ("simulate", "zeta=1", "zeta must be in (0, 1)"),
            ("simulate", "Lambda=-1", "Lambda must be >= 0"),
            ("simulate", "Lambda=nan", "Lambda must be >= 0"),
            ("grid", "zeta=2", "zeta must be in (0, 1), got 2.0"),
            ("grid", "s=-1", "s must be > 0"),
            ("grid", "s=0", "s must be > 0"),
            ("grid", "zeta=1", "zeta must be in (0, 1), got 1.0"),
            ("grid", "Lambda=nan", "Lambda must be >= 0"),
        ],
    )
    def test_rejected_before_training(self, capsys, tmp_path, no_training, command, setting,
                                      message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.7\nsigma1s=0.1\n")
        out_csv = tmp_path / "records.csv"
        code, out, err = run_cli(
            capsys, command, "--config", str(cfg), "--set", setting, "--out", str(out_csv),
        )
        assert code == 1
        assert err.startswith("config error:") and message in err
        assert "Traceback" not in err and out == ""
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["simulate", "grid"])
    @pytest.mark.parametrize("settings, message", [
        (["data_seed=-1"], "data_seed must be in [0, 2**64), got -1"),
        (["data_seed=18446744073709551616"],
         "data_seed must be in [0, 2**64), got 18446744073709551616"),
        (["data=idx", "subsample_seed=-1", "train_images=missing", "train_labels=missing",
          "test_images=missing", "test_labels=missing"],
         "subsample_seed must be in [0, 2**64), got -1"),
    ], ids=["data-seed-negative", "data-seed-2**64", "subsample-seed-negative"])
    def test_data_seed_outside_64_bits_rejected_before_data_loads(
            self, capsys, tmp_path, no_data, command, settings, message):
        # RngStream refuses such a seed too, but only once the data load
        # begins: the spec's check fails first
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.7\nsigma1s=0.1\n")
        out_csv = tmp_path / "records.csv"
        argv = [command, "--config", str(cfg), "--out", str(out_csv)]
        for setting in settings:
            argv += ["--set", setting]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"config error: {message}\n")
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["simulate", "grid"])
    def test_class_count_above_input_dim_rejected_before_data_loads(
            self, capsys, tmp_path, no_data, command):
        # grid used to print its cell count and simulate to create --out first
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.7\nsigma1s=0.1\n")
        out_csv = tmp_path / "records.csv"
        code, out, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out_csv),
                                 "--set", "classes=30")
        assert (code, out, err) == (1, "", "config error: class count 30 exceeds input dim 5\n")
        assert not out_csv.exists()

    def test_nan_init_scale_rejected_by_init_params(self):
        with pytest.raises(InvalidParameterError):
            init_params(ModelSpec((3, 2)), math.nan, RngStream(0))


def _write_idx_files(tmp_path):
    """A 3x3 two-class IDX train/test pair; returns the four config lines."""
    rng = RngStream(41)
    lines = []
    for stem, n in (("train", 48), ("test", 20)):
        images = rng.gen.integers(0, 256, size=(n, 3, 3)).astype(np.uint8)
        labels = rng.gen.integers(0, 2, size=n).astype(np.uint8)
        images[labels == 1, 0, 0] = 255
        write_idx_images(tmp_path / f"{stem}-images.idx", images)
        write_idx_labels(tmp_path / f"{stem}-labels.idx", labels)
        lines += [f"{stem}_images={tmp_path / f'{stem}-images.idx'}",
                  f"{stem}_labels={tmp_path / f'{stem}-labels.idx'}"]
    return lines


class TestRunConfigErrors:
    """Config numbers that cannot describe a run exit 1 before data loads or a cell trains."""

    @pytest.mark.parametrize(
        "command, settings, message",
        [
            ("grid", ["init_scale=inf"], "config key 'init_scale' must be finite, got 'inf'"),
            ("grid", ["sigma1s=0.1,inf"], "config key 'sigma1s' must be finite"),
            ("grid", ["sigma2=inf"], "config key 'sigma2' must be finite"),
            ("grid", ["separation=inf"], "config key 'separation' must be finite"),
            ("grid", ["noise_std=-inf"], "config key 'noise_std' must be finite"),
            ("grid", ["R=inf"], "config key 'R' must be finite"),
            ("grid", ["separation=nan"], "separation must be >= 0"),
            ("grid", ["noise_std=nan"], "noise_std > 0"),
            ("grid", ["data=idx", "subsample=nan"], "subsample must be in (0, 1], got nan"),
            ("grid", ["data=idx", "subsample=2"], "subsample must be in (0, 1], got 2.0"),
            ("grid", ["data=idx", "subsample=inf"], "config key 'subsample' must be finite"),
            ("grid", ["trim=2"], "trim must be in [0, 1), got 2.0"),
            ("grid", ["trim=nan"], "trim must be in [0, 1), got nan"),
            ("grid", ["window=0"], "window must be >= 1, got 0"),
            ("grid", ["steps=20", "window=10"], "window 10 holds 1 eval(s) at eval_interval 10"),
            ("simulate", ["sigma1s=inf"], "config key 'sigma1s' must be finite"),
            ("simulate", ["trim=1"], "trim must be in [0, 1), got 1.0"),
            ("grid", ["alphas=1.6,2.0,1.6"], "grid list alphas repeats a value"),
            ("grid", ["sigma1s=0.1,0.1"], "grid list sigma1s repeats a value"),
            ("grid", ["widths=0,3,3"], "grid list widths repeats a value"),
            ("grid", ["seeds=4,4"], "grid list seeds repeats a value"),
            # -1 and 2**64 - 1 have the same low 64 bits, the whole of a stream's key
            ("grid", ["seeds=-1,18446744073709551615"],
             "grid seeds: seed must be in [0, 2**64), got -1"),
            ("simulate", ["seeds=18446744073709551616"],
             "grid seeds: seed must be in [0, 2**64), got 18446744073709551616"),
            # each list value is checked by the TrainConfig its cells run
            ("grid", ["alphas=1.7,2.5"], "grid alphas: alpha must be in (1, 2], got 2.5"),
            ("simulate", ["sigma1s=-1"],
             "grid sigma1s: noise scales must be >= 0, got sigma1=-1.0"),
        ],
    )
    def test_rejected_before_data_or_training(self, capsys, tmp_path, no_training, command,
                                              settings, message):
        cfg = tmp_path / "run.cfg"
        lines = _write_idx_files(tmp_path)
        cfg.write_text(BASE_CFG.replace("eval_interval=5", "eval_interval=10")
                       + "alphas=1.7\nsigma1s=0.1\n" + "\n".join(lines) + "\n")
        out_csv = tmp_path / "records.csv"
        argv = [command, "--config", str(cfg), "--out", str(out_csv)]
        for setting in settings:
            argv += ["--set", setting]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("config error:") and message in err
        assert "Traceback" not in err and out == ""
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["simulate", "grid"])
    def test_config_key_set_twice_exits_1_before_data(self, capsys, tmp_path, no_data,
                                                      no_training, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.7\nsigma1s=0.1\nsteps=30\n")
        out_csv = tmp_path / "records.csv"
        code, out, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out_csv))
        assert code == 1 and out == ""
        assert err == f"config error: {cfg}:16: key 'steps' is already set on line 5\n"
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["simulate", "grid"])
    def test_repeated_set_keeps_the_last_value(self, capsys, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.7\nsigma1s=0.1\n")
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "records.csv")]
        code, _, err = run_cli(capsys, *argv, "--set", "trim=0.15", "--set", "trim=2")
        assert code == 1 and "trim must be in [0, 1), got 2.0" in err
        code, _, _ = run_cli(capsys, *argv, "--set", "trim=2", "--set", "trim=0.15")
        assert code == 0

    def test_trim_that_keeps_one_eval_runs(self, capsys, tmp_path):
        # the boundary of the check above: two evals in the window, one trimmed
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.6\nsigma1s=0.1\n")
        out_csv = tmp_path / "records.csv"
        code, _, err = run_cli(
            capsys, "grid", "--config", str(cfg), "--out", str(out_csv),
            "--set", "steps=20", "--set", "window=10", "--set", "eval_interval=5",
            "--set", "trim=0.5",
        )
        assert (code, err) == (0, "cells: 1\nwrote 1 records to " + str(out_csv) + "\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--set", "alphas"], "--set needs key=value, got 'alphas'"),
            (["--set", "batch_size=abc"], "batch_size must be an integer or 'full', got 'abc'"),
            (["--set", "batch_size=999"], "batch_size 999 exceeds training rows 48"),
        ],
        ids=["set-without-equals", "batch-not-integer", "batch-too-large"],
    )
    def test_malformed_input_exits_1(self, capsys, tmp_path, no_training, argv, message):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.6\nsigma1s=0.1\n")
        out_csv = tmp_path / "records.csv"
        code, out, err = run_cli(capsys, "grid", "--config", str(cfg), "--out", str(out_csv),
                                 *argv)
        assert code == 1 and out == ""
        assert err.endswith(f"config error: {message}\n") and "Traceback" not in err
        assert not out_csv.exists()

    def test_unparsable_config_exits_1(self, capsys, tmp_path, no_training):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(BASE_CFG + "alphas 1.6\n")
        code, out, err = run_cli(capsys, "grid", "--config", str(cfg),
                                 "--out", str(tmp_path / "records.csv"))
        assert code == 1 and out == ""
        assert err.startswith("config error: ") and "expected key=value" in err


class TestGridInputs:
    @pytest.mark.parametrize("stem", ["train", "test"])
    def test_idx_file_with_no_images_is_an_io_error(self, capsys, tmp_path, stem):
        # an empty set would fail the label check (train) or divide an
        # error count by zero rows (test); it stops before any cell trains
        lines = _write_idx_files(tmp_path)
        images = tmp_path / f"{stem}-images.idx"
        write_idx_images(images, np.zeros((0, 3, 3), dtype=np.uint8))
        write_idx_labels(tmp_path / f"{stem}-labels.idx", np.zeros(0, dtype=np.uint8))
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(BASE_CFG + "data=idx\nalphas=1.6,2.0\nsigma1s=0.1\n"
                       + "\n".join(lines) + "\n")
        out_csv = tmp_path / "records.csv"
        code, out, err = run_cli(capsys, "grid", "--config", str(cfg), "--out", str(out_csv))
        assert code == 2 and out == ""
        assert err.endswith(f"i/o error: {images}: no images\n") and "Traceback" not in err
        assert not out_csv.exists()

    def test_idx_data_matches_library_grid(self, capsys, tmp_path):
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(BASE_CFG + "data=idx\nsubsample=0.5\nsubsample_seed=3\n"
                       "alphas=1.6,2.0\nsigma1s=0.1\nseeds=0,1\n"
                       + "\n".join(_write_idx_files(tmp_path)) + "\n")
        out_csv = tmp_path / "records.csv"
        code, _, _ = run_cli(capsys, "grid", "--config", str(cfg), "--out", str(out_csv))
        assert code == 0
        paths = [str(tmp_path / f"{s}-{k}.idx") for s in ("train", "test")
                 for k in ("images", "labels")]
        grid = GridSpec(
            alphas=(1.6, 2.0), sigma1s=(0.1,), widths=(0,), seeds=(0, 1),
            train=TrainConfig(gamma=0.05, eta=0.001, alpha=2.0, sigma1=0.0, steps=40,
                              eval_interval=5),
            data=IdxSource(*paths, subsample_fraction=0.5, subsample_seed=3),
            out=str(tmp_path / "library.csv"), window=30,
        )
        expected = execute_grid(grid)
        assert [r.n for r in expected] == [24] * 4
        assert read_records(out_csv) == expected
        assert out_csv.read_bytes() == (tmp_path / "library.csv").read_bytes()

    def test_integer_batch_size_matches_library_grid(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(BASE_CFG + "alphas=1.6,2.0\nsigma1s=0.1\nbatch_size=8\n")
        out_csv = tmp_path / "records.csv"
        code, _, _ = run_cli(capsys, "grid", "--config", str(cfg), "--out", str(out_csv))
        assert code == 0
        grid = GridSpec(
            alphas=(1.6, 2.0), sigma1s=(0.1,), widths=(0,), seeds=(0,),
            train=TrainConfig(gamma=0.05, eta=0.001, alpha=2.0, sigma1=0.0, steps=40,
                              batch_size=8, eval_interval=5),
            data=SyntheticSpec(30, 5, 2, 2.0, 1.0, seed=7),
            out=str(tmp_path / "library.csv"), window=30,
        )
        assert read_records(out_csv) == execute_grid(grid)
        assert out_csv.read_bytes() == (tmp_path / "library.csv").read_bytes()
