import csv
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from levybound import (
    Dataset,
    ModelSpec,
    RngStream,
    RunRecord,
    SyntheticSpec,
    TrainConfig,
    generate_synthetic,
    load_idx,
    parse_config,
    read_records,
    read_table,
    run_training,
    subsample,
    write_records,
)
from levybound import data as data_module
from levybound.data import RECORD_HEADER, RecordTable, append_records
from levybound.errors import DataFormatError, InvalidParameterError

import oracles
from helpers import write_idx_images, write_idx_labels

REFERENCE_CFG = Path(__file__).resolve().parent.parent / "reference" / "phase_transition.cfg"


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(50, 8, 2, 2.0, 1.0, seed=5)
        a_train, a_test = generate_synthetic(spec)
        b_train, b_test = generate_synthetic(spec)
        assert (a_train.features == b_train.features).all()
        assert (a_train.labels == b_train.labels).all()
        assert (a_test.features == b_test.features).all()

    def test_seed_must_fit_64_bits(self):
        # RngStream keeps a seed's low 64 bits: -1 and 2**64 - 1 would alias
        SyntheticSpec(10, 3, 2, 1.0, 1.0, seed=2**64 - 1)
        for seed in (-1, 2**64):
            with pytest.raises(InvalidParameterError,
                               match=r"data_seed must be in \[0, 2\*\*64\)"):
                SyntheticSpec(10, 3, 2, 1.0, 1.0, seed=seed)
        for seed in (1.5, True):
            with pytest.raises(InvalidParameterError, match="data_seed must be an integer"):
                SyntheticSpec(10, 3, 2, 1.0, 1.0, seed=seed)

    def test_split_sizes(self):
        train, test = generate_synthetic(SyntheticSpec(50, 8, 2, 2.0, 1.0, seed=1))
        assert train.n == 80 and test.n == 20

    def test_class_count_exceeding_dim_errors(self):
        with pytest.raises(InvalidParameterError, match="class count 3 exceeds input dim 2"):
            SyntheticSpec(10, 2, 3, 1.0, 1.0, seed=0)

    def test_separable_data_trains_to_zero_error(self):
        train, test = generate_synthetic(SyntheticSpec(40, 6, 2, 100.0, 1.0, seed=2))
        cfg = TrainConfig(gamma=0.5, eta=0.0, alpha=1.5, sigma1=0.0, steps=200, seed=0)
        spec = ModelSpec((6, 2))
        trace = run_training(spec, train, test, cfg, init_scale=0.0)
        final = trace.records[-1]
        assert final.train_error == 0.0

    def test_zero_separation_is_chance_level(self):
        errors = []
        for seed in range(5):
            train, test = generate_synthetic(SyntheticSpec(150, 6, 2, 0.0, 1.0, seed=seed))
            cfg = TrainConfig(gamma=0.2, eta=0.0, alpha=1.5, sigma1=0.0, steps=300, seed=seed)
            # the stream this threshold was set on, not the run's default
            trace = run_training(ModelSpec((6, 2)), train, test, cfg, init_scale=0.5,
                                 rng=RngStream(cfg.seed))
            errors.append(trace.records[-1].test_error)
        assert abs(np.mean(errors) - 0.5) <= 0.05


def reference_spec():
    cfg = parse_config(REFERENCE_CFG)
    return SyntheticSpec(int(cfg["n_per_class"]), int(cfg["input_dim"]), int(cfg["classes"]),
                         float(cfg["separation"]), float(cfg["noise_std"]),
                         int(cfg["data_seed"]))


MNIST_SPEC = SyntheticSpec(313, 784, 10, 3.0, 1.0, seed=0)  # perfbench's MNIST profile


@pytest.mark.parametrize("spec", [
    MNIST_SPEC,
    reference_spec(),
    SyntheticSpec(20, 5, 5, 1.5, 1.0, seed=3),
    SyntheticSpec(1, 6, 4, 2.0, 1.0, seed=4),
    SyntheticSpec(1, 3, 2, 2.0, 1.0, seed=8),
    SyntheticSpec(50, 8, 3, 0.0, 1.0, seed=5),
    SyntheticSpec(50, 8, 3, 2.0, 0.37, seed=6),
], ids=["mnist", "reference", "classes-eq-dim", "one-per-class", "two-rows",
        "no-separation", "noise-std"])
def test_generate_synthetic_matches_frozen_two_copy_version(spec):
    # oracles.blobs builds the features with two more copies (the scaled
    # normals and the permuted gather) on its own Philox stream
    train, test = generate_synthetic(spec)
    want = oracles.blobs(spec.n_per_class, spec.input_dim, spec.classes, spec.separation,
                         spec.noise_std, spec.seed)
    for got, (x, y) in zip((train, test), want):
        assert got.features.shape == x.shape
        assert (got.features.view(np.int64) == x.view(np.int64)).all()
        assert (got.labels == y).all()
    assert train.features.base is not None and train.features.base is test.features.base


def test_generate_synthetic_peak_memory_is_its_output():
    (train, test), peak = traced_peak(generate_synthetic, MNIST_SPEC)
    assert peak <= 1.05 * (train.features.nbytes + test.features.nbytes)


class TestIdx:
    def fixture_paths(self, tmp_path):
        images = np.array(
            [[[0, 255], [128, 64]], [[255, 0], [0, 255]]], dtype=np.uint8
        )
        labels = np.array([1, 0], dtype=np.uint8)
        img_path = tmp_path / "images.idx"
        lab_path = tmp_path / "labels.idx"
        write_idx_images(img_path, images)
        write_idx_labels(lab_path, labels)
        return img_path, lab_path

    def test_hand_built_fixture(self, tmp_path):
        img_path, lab_path = self.fixture_paths(tmp_path)
        data = load_idx(img_path, lab_path)
        assert data.n == 2
        assert data.features.shape == (2, 4)
        assert data.features[0].tolist() == [0.0, 1.0, 128 / 255, 64 / 255]
        assert data.labels.tolist() == [1, 0]

    def test_roundtrip_byte_identical(self, tmp_path):
        img_path, lab_path = self.fixture_paths(tmp_path)
        data = load_idx(img_path, lab_path)
        img2 = tmp_path / "images2.idx"
        lab2 = tmp_path / "labels2.idx"
        pixels = np.round(data.features * 255.0).astype(np.uint8).reshape(2, 2, 2)
        write_idx_images(img2, pixels)
        write_idx_labels(lab2, data.labels)
        assert img2.read_bytes() == img_path.read_bytes()
        assert lab2.read_bytes() == lab_path.read_bytes()

    def test_wrong_magic_named(self, tmp_path):
        img_path, lab_path = self.fixture_paths(tmp_path)
        with pytest.raises(DataFormatError, match="images magic"):
            load_idx(lab_path, lab_path)

    def test_truncated_pixels(self, tmp_path):
        img_path, lab_path = self.fixture_paths(tmp_path)
        raw = img_path.read_bytes()
        img_path.write_bytes(raw[:-3])
        with pytest.raises(DataFormatError,
                           match="truncated pixel data, expected 8 bytes, found 5$"):
            load_idx(img_path, lab_path)

    def test_peak_memory_is_file_and_output(self, tmp_path):
        # the image file's bytes are read once and converted without a copy
        rng = np.random.default_rng(0)
        img_path, lab_path = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx_images(img_path, rng.integers(0, 256, size=(300, 28, 28), dtype=np.uint8))
        write_idx_labels(lab_path, rng.integers(0, 10, size=300, dtype=np.uint8))
        data, peak = traced_peak(load_idx, img_path, lab_path)
        assert data.features.shape == (300, 784)
        assert peak <= 1.05 * (data.features.nbytes + img_path.stat().st_size)

    def test_count_mismatch(self, tmp_path):
        img_path, _ = self.fixture_paths(tmp_path)
        lab3 = tmp_path / "labels3.idx"
        write_idx_labels(lab3, np.array([0, 1, 1], dtype=np.uint8))
        with pytest.raises(DataFormatError, match="count mismatch"):
            load_idx(img_path, lab3)

    def test_label_out_of_class_bound(self, tmp_path):
        img_path, lab_path = self.fixture_paths(tmp_path)
        with pytest.raises(DataFormatError, match="out of range"):
            load_idx(img_path, lab_path, num_classes=1)

    def test_no_images_is_a_data_error(self, tmp_path):
        img_path, lab_path = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx_images(img_path, np.zeros((0, 28, 28), dtype=np.uint8))
        write_idx_labels(lab_path, np.zeros(0, dtype=np.uint8))
        with pytest.raises(DataFormatError, match="images.idx: no images$"):
            load_idx(img_path, lab_path)
        with pytest.raises(DataFormatError, match="images.idx: no images$"):
            load_idx(img_path, lab_path, num_classes=10)

    def idx_files(self, tmp_path, count, labels=None):
        rng = np.random.default_rng(count)
        img_path, lab_path = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx_images(img_path, rng.integers(0, 256, size=(count, 28, 28), dtype=np.uint8))
        if labels is None:
            labels = rng.integers(0, 10, size=count, dtype=np.uint8)
        write_idx_labels(lab_path, labels)
        return img_path, lab_path

    @pytest.mark.parametrize("fraction, seed", [(0.1, 0), (0.37, 5), (0.999, 2), (1.0, 0)])
    def test_subsampled_load_is_subsample_of_full_load(self, tmp_path, fraction, seed):
        # label 9 sits only in the last row, which a small fraction drops:
        # the class count still comes from the whole label file
        labels = np.zeros(500, dtype=np.uint8)
        labels[100:] = 3
        labels[-1] = 9
        paths = self.idx_files(tmp_path, 500, labels)
        got = load_idx(*paths, fraction=fraction, seed=seed)
        want = subsample(load_idx(*paths), fraction, seed)
        assert got.features.view(np.int64).tolist() == want.features.view(np.int64).tolist()
        assert got.labels.dtype == want.labels.dtype
        assert got.labels.tolist() == want.labels.tolist()
        assert got.num_classes == want.num_classes == 10

    def test_subsampled_load_checks_every_label(self, tmp_path):
        labels = np.zeros(50, dtype=np.uint8)
        labels[-1] = 4
        paths = self.idx_files(tmp_path, 50, labels)
        # the subsample drops the one row labelled 4, and the check still sees it
        assert 4 not in subsample(load_idx(*paths), 0.1, 0).labels.tolist()
        with pytest.raises(DataFormatError,
                           match="labels.idx: label value 4 out of range for 3 classes$"):
            load_idx(*paths, num_classes=3, fraction=0.1, seed=0)
        with pytest.raises(InvalidParameterError, match="fraction yields an empty subset"):
            load_idx(*paths, fraction=1e-3, seed=0)

    def test_subsampled_load_peak_memory_is_file_and_kept_rows(self, tmp_path):
        # the rows are picked from the 8-bit pixels; the file's bytes alone
        # are 1.25x the float features kept at fraction 0.1
        img_path, lab_path = self.idx_files(tmp_path, 20000)
        data, peak = traced_peak(lambda: load_idx(img_path, lab_path, fraction=0.1, seed=0))
        assert data.features.shape == (2000, 784)
        assert peak <= 2.5 * data.features.nbytes


class TestSubsample:
    def full_data(self, n=60):
        rng = RngStream(0)
        return Dataset(
            rng.gen.standard_normal((n, 3)),
            rng.gen.integers(0, 2, size=n).astype(np.int64),
            2,
        )

    def test_full_fraction_is_identity(self):
        data = self.full_data()
        out = subsample(data, 1.0, seed=3)
        assert (out.features == data.features).all()
        assert (out.labels == data.labels).all()

    def test_exact_row_count(self):
        data = self.full_data(n=6000 // 100)  # keep test light; rounding rule is the point
        assert subsample(data, 0.1, seed=1).n == 6
        rng = RngStream(1)
        big = Dataset(rng.gen.standard_normal((6000, 2)), np.zeros(6000, dtype=np.int64), 2)
        assert subsample(big, 0.1, seed=1).n == 600

    def test_deterministic_and_subset(self):
        data = self.full_data()
        a = subsample(data, 0.3, seed=9)
        b = subsample(data, 0.3, seed=9)
        assert (a.features == b.features).all()
        rows = {tuple(r) for r in data.features}
        assert all(tuple(r) in rows for r in a.features)
        assert len({tuple(r) for r in a.features}) == a.n

    def test_empty_result_errors(self):
        with pytest.raises(InvalidParameterError):
            subsample(self.full_data(), 1e-9, seed=0)


class TestRecordsCsv:
    def random_records(self, count=100):
        rng = RngStream(5)
        out = []
        for i in range(count):
            out.append(
                RunRecord(
                    alpha=float(rng.gen.uniform(1, 2)),
                    sigma1=float(rng.gen.uniform(0, 1)),
                    d=int(rng.gen.integers(1, 10**6)),
                    width=int(rng.gen.integers(0, 300)),
                    n=int(rng.gen.integers(1, 10**5)),
                    seed=int(rng.gen.integers(0, 2**31)),
                    gap=float(rng.gen.standard_normal()),
                    i_hat=float(np.exp(rng.gen.uniform(-20, 20))),
                    g_hat=float(np.exp(rng.gen.uniform(-20, 20))),
                    diverged=bool(rng.gen.random() < 0.2),
                )
            )
        return out

    def test_roundtrip_field_exact(self, tmp_path):
        path = tmp_path / "records.csv"
        records = self.random_records()
        write_records(path, records)
        assert read_records(path) == records

    def test_header_exact(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(path, [])
        assert path.read_text().splitlines()[0] == ",".join(RECORD_HEADER)

    def test_failed_rewrite_keeps_the_old_file(self, tmp_path):
        # a row that cannot be formatted fails the rewrite in mid-write; the
        # rows already on disk stay, and no temporary file is left
        path = tmp_path / "records.csv"
        old = self.random_records(3)
        write_records(path, old)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_records(path, [old[0], old[1]._replace(gap=None), old[2]])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["records.csv"]

    def test_shuffled_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        cols = list(RECORD_HEADER)
        cols[0], cols[1] = cols[1], cols[0]
        path.write_text(",".join(cols) + "\n")
        with pytest.raises(DataFormatError, match="header mismatch"):
            read_records(path)

    def test_diverged_literal(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(path, [RunRecord(1.5, 0.1, 10, 0, 50, 0, 0.1, 1.0, 1.0, True)])
        assert path.read_text().splitlines()[1].endswith(",true")
        assert read_records(path)[0].diverged is True

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(path, self.random_records(2))
        with open(path, "a") as f:
            f.write("1.5,0.1,10,0,50,0,not_a_number,1.0,1.0,false\n")
        with pytest.raises(DataFormatError, match=":4:"):
            read_records(path)

    def test_append_resumes_file(self, tmp_path):
        path = tmp_path / "records.csv"
        records = self.random_records(4)
        append_records(path, records[:2])
        append_records(path, records[2:])
        assert read_records(path) == records


def reference_read_records(path):
    """The row-by-row reader records were first read with, kept verbatim
    as the oracle for ``read_records``."""
    diverged_literal = {"true": True, "false": False}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty records file") from None
        if header != RECORD_HEADER:
            raise DataFormatError(
                f"{path}: header mismatch, expected {','.join(RECORD_HEADER)}"
            )
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(RECORD_HEADER):
                raise DataFormatError(f"{path}:{lineno}: expected {len(RECORD_HEADER)} fields")
            try:
                records.append(
                    RunRecord(
                        alpha=float(row[0]),
                        sigma1=float(row[1]),
                        d=int(row[2]),
                        width=int(row[3]),
                        n=int(row[4]),
                        seed=int(row[5]),
                        gap=float(row[6]),
                        i_hat=float(row[7]),
                        g_hat=float(row[8]),
                        diverged=diverged_literal[row[9]],
                    )
                )
            except (ValueError, KeyError) as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        return records


def same_field(a, b) -> bool:
    """Equal type and value; floats bit for bit, except that any NaN matches any NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def same_records(got, want) -> bool:
    return len(got) == len(want) and all(
        type(g) is RunRecord and all(map(same_field, g, w)) for g, w in zip(got, want)
    )


def table_rows(table) -> list:
    """A ``RecordTable``'s rows as ``RunRecord``s, after checking its column types."""
    for field, kind in RunRecord.__annotations__.items():
        column = getattr(table, field)
        assert column.shape == (len(table),)
        if kind is int:
            assert column.dtype in (np.int64, object)
        else:
            assert column.dtype == {float: np.float64, bool: np.bool_}[kind]
    return list(map(RunRecord, *(getattr(table, f).tolist() for f in RECORD_HEADER)))


def test_records_roundtrip_matches_reference_reader():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    floats = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072014e-308]),
    )
    ints = st.one_of(st.integers(-(2**70), 2**70), st.sampled_from([2**63, 2**64 + 1, -(2**63) - 1]))
    record = st.builds(RunRecord, floats, floats, ints, ints, ints, ints,
                       floats, floats, floats, st.booleans())

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.lists(record, max_size=12), st.lists(record, max_size=6))
    def check(written, appended):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            write_records(path, written)
            append_records(path, appended)
            got = read_records(path)
            assert same_records(got, written + appended)
            assert same_records(got, reference_read_records(path))
            assert same_records(table_rows(read_table(path)), got)

    check()


GOOD_ROW = "1.5,0.1,10,0,50,0,0.25,1.0,2.0,false"
HEAD = ",".join(RECORD_HEADER) + "\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(HEAD + GOOD_ROW + "\n1.5,0.1,10,0,50,0,0.25,1.0,2.0\n", id="too-few-fields"),
        pytest.param(HEAD + GOOD_ROW + ",extra\n", id="too-many-fields"),
        pytest.param(HEAD + "1.5,0.1,1.5,0,50,0,0.25,1.0,2.0,false\n", id="float-in-int-field"),
        pytest.param(HEAD + GOOD_ROW[: -len("false")] + "True\n", id="python-bool-literal"),
        pytest.param(HEAD + "1.5,0.1,10,0,50,0,0.25,one,2.0,false\n", id="non-numeric-float"),
        pytest.param(HEAD + GOOD_ROW + "\n\n" + GOOD_ROW + "\n", id="blank-line-mid-file"),
        pytest.param(HEAD + '"1.5",0.1,1_0,0,50,0,-0,inf,nan,true\n',
                     id="quoted-underscore-specials"),
        pytest.param(HEAD + GOOD_ROW + "\n#\n" + GOOD_ROW + "\n", id="comment-line"),
        pytest.param(HEAD + GOOD_ROW + "\n \t\n" + GOOD_ROW + "\n", id="whitespace-line"),
        pytest.param(HEAD + GOOD_ROW[: -len("false")] + "true \n", id="flag-trailing-space"),
        pytest.param(HEAD + GOOD_ROW[: -len("false")] + " false\n", id="flag-leading-space"),
        pytest.param(HEAD + GOOD_ROW.replace(",0,50,", ",0\r,50,") + "\n", id="bare-cr-in-line"),
        pytest.param(HEAD + GOOD_ROW + "\r" + GOOD_ROW + "\r\n", id="bare-cr-between-rows"),
        pytest.param("\ufeff" + HEAD + GOOD_ROW + "\n", id="bom-before-header"),
        pytest.param(HEAD, id="header-only"),
        pytest.param(HEAD + GOOD_ROW.replace(",10,", ",9223372036854775808,") + "\n",
                     id="int-above-int64"),
        pytest.param(HEAD + GOOD_ROW.replace(",0,50,", ",-9223372036854775809,50,") + "\n",
                     id="int-below-int64"),
        pytest.param(HEAD + "-nan,Infinity,10,0,50,0,-Infinity,+inf,-NaN,false\n",
                     id="nan-infinity-spellings"),
        pytest.param(HEAD + " 1.5 ,0.1,+10, 0,50\t,0,.25,1.,2e0,false\n",
                     id="padded-and-signed-numbers"),
        pytest.param(HEAD.replace("\n", "\r\n") + GOOD_ROW + "\r\n" + GOOD_ROW, id="crlf-torn"),
    ],
)
def test_malformed_records_match_reference_reader(tmp_path, text):
    """``read_records`` and ``read_table`` read what the reference reads,
    and fail with its message where it fails."""
    path = tmp_path / "records.csv"
    path.write_bytes(text.encode())
    try:
        want = reference_read_records(path)
    except DataFormatError as exc:
        for read in (read_records, read_table):
            with pytest.raises(DataFormatError) as got:
                read(path)
            assert str(got.value) == str(exc)
    else:
        assert same_records(read_records(path), want)
        assert same_records(table_rows(read_table(path)), want)


def test_written_records_take_the_fast_path(tmp_path, monkeypatch):
    """A file ``write_records`` made is read without the row parser, so a
    silent fallback cannot hide a lost speed-up."""
    path = tmp_path / "records.csv"
    records = TestRecordsCsv().random_records(50)
    records += [RunRecord(math.nan, -0.0, -3, 0, 1, 2**63 - 1, math.inf, -math.inf, 0.0, True)]
    write_records(path, records)

    def refuse(path):
        raise AssertionError("read_table fell back to read_records")

    monkeypatch.setattr(data_module, "read_records", refuse)
    assert same_records(table_rows(read_table(path)), records)


def test_record_table_from_records():
    records = TestRecordsCsv().random_records(5)
    table = RecordTable.from_records(iter(records))
    assert len(table) == 5 and same_records(table_rows(table), records)
    assert table.seed.dtype == np.int64
    wide = RecordTable.from_records([records[0]._replace(d=2**64 + 1), records[1]])
    assert wide.d.dtype == object and wide.d.tolist() == [2**64 + 1, records[1].d]
    assert wide.seed.dtype == np.int64
    assert len(RecordTable.from_records([])) == 0


def test_records_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "records.csv"
    path.write_bytes(f"{','.join(RECORD_HEADER)}\r\n{GOOD_ROW}".encode() + b"\xff\r\n")
    for read in (read_records, read_table):
        with pytest.raises(DataFormatError, match=f"{path}: not UTF-8 text"):
            read(path)


class TestParseConfig:
    def test_basic(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\ngamma = 0.01\nalphas=1.6,2.0\n")
        assert parse_config(path) == {"gamma": "0.01", "alphas": "1.6,2.0"}

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("gamma 0.01\n")
        with pytest.raises(InvalidParameterError, match=":1:"):
            parse_config(path)

    def test_key_set_twice_names_both_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("steps=50\n# comment\ngamma=0.01\n steps = 40\n")
        with pytest.raises(InvalidParameterError, match=r":4: key 'steps' is already set on line 1"):
            parse_config(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"gamma=0.01\nsteps=\xff\n")
        with pytest.raises(DataFormatError, match=f"{path}: not UTF-8 text"):
            parse_config(path)
