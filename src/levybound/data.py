"""Dataset generation and loading, sub-sampling, and record persistence.

Synthetic data are Gaussian blobs with class centers on orthogonal axes,
split 80/20 by seed. Real image data come in through the big-endian IDX
container (magic 0x00000803 for images, 0x00000801 for labels). Grid
results persist as a plain CSV with a fixed header and 17-significant-
digit floats, so a write/read roundtrip is lossless for finite values.
Run configs are flat ``key=value`` text files.

Records are read two ways. ``parse_records`` is the row parser: it
defines what a records file is and words every error about one, and
``grid`` resumes through it. ``read_table`` reads a whole file into a
``RecordTable``, one numpy array per field, for the analysis. Its fast
path is one ``np.loadtxt`` over the body, which takes only what the row
parser reads to the same values: the exact header, numbers numpy parses
(a subset of what ``float`` and ``int`` take, to the same values), and
flags that are exactly ``true`` or ``false``. Anything else, a malformed
file included, goes to the row parser. So the two readers give the same
values and the same errors, and a file the writer made never leaves the
fast path.
"""

import csv
import math
import os
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataFormatError, InvalidParameterError
from .models import Dataset
from .rng import RngStream, check_seed

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class RunRecord(NamedTuple):
    """One persisted grid cell; the row format all analysis consumes.

    A named tuple: records compare and order as tuples of their fields.
    """

    alpha: float
    sigma1: float
    d: int
    width: int
    n: int
    seed: int
    gap: float
    i_hat: float
    g_hat: float
    diverged: bool


RECORD_HEADER = list(RunRecord._fields)
_DIVERGED = {"true": True, "false": False}
# A row as read_table's fast path reads it: float64 and int64 fields, and
# the flag as text one character longer than "false", so that a longer
# field, cut to fit, never reads as a flag.
_TABLE_ROW = np.dtype([
    (name, {float: "f8", int: "i8", bool: "U6"}[kind])
    for name, kind in RunRecord.__annotations__.items()
])
# One records row: floats at 17 significant digits (lossless), ints as
# str, the flag as true/false. Lines end in CRLF, the csv module's
# default, so records files stay byte-identical across versions.
_ROW = "{:.17g},{:.17g},{},{},{},{},{:.17g},{:.17g},{:.17g},{}\r\n"


@dataclass(frozen=True)
class SyntheticSpec:
    n_per_class: int
    input_dim: int
    classes: int
    separation: float
    noise_std: float
    seed: int

    def __post_init__(self):
        if self.n_per_class < 1 or self.input_dim < 1:
            raise InvalidParameterError("n_per_class and input_dim must be positive")
        if self.classes < 2:
            raise InvalidParameterError("need at least 2 classes")
        if not (self.separation >= 0.0 and self.noise_std > 0.0):
            raise InvalidParameterError("separation must be >= 0 and noise_std > 0")
        check_seed(self.seed, "data_seed")


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """Gaussian blobs with centers separation * e_c; returns (train, test).

    The features are built in one (total, input dim) buffer: the normals
    are drawn into it, scaled and shifted in place, and shuffled in place
    by the permutation drawn next. Train and test are views of that
    buffer, so the data set exists once in memory.
    """
    if spec.classes > spec.input_dim:
        raise InvalidParameterError(
            f"class count {spec.classes} exceeds input dim {spec.input_dim}"
        )
    rng = RngStream(spec.seed)
    n = spec.n_per_class
    total = spec.classes * n
    features = rng.gen.standard_normal((total, spec.input_dim))
    features *= spec.noise_std
    for c in range(spec.classes):  # labels are repeat(arange(classes), n)
        features[c * n:(c + 1) * n, c] += spec.separation
    perm = rng.gen.permutation(total)
    _permute_rows(features, perm)
    labels = np.repeat(np.arange(spec.classes), n)[perm]
    n_train = 4 * total // 5
    train = Dataset(features[:n_train], labels[:n_train], spec.classes)
    test = Dataset(features[n_train:], labels[n_train:], spec.classes)
    return train, test


def _permute_rows(a: np.ndarray, perm: np.ndarray) -> None:
    """``a[:] = a[perm]`` in place, one row copy per row, by walking the
    cycles of ``perm``."""
    perm = perm.tolist()
    done = bytearray(len(perm))
    held = np.empty_like(a[0])
    for start, src in enumerate(perm):
        if done[start] or src == start:
            continue
        held[...] = a[start]
        dst = start
        while src != start:
            a[dst] = a[src]
            done[dst] = 1
            dst, src = src, perm[src]
        a[dst] = held
        done[dst] = 1


def _read_be32(buf: bytes, offset: int, path: str, field: str) -> int:
    if offset + 4 > len(buf):
        raise DataFormatError(f"{path}: truncated while reading {field}")
    return struct.unpack_from(">i", buf, offset)[0]


def _read_idx(path: str, magic: int, kind: str, data_name: str, fields):
    """Read an IDX file: check its ``kind`` magic, read the header's
    ``fields``, and check that the data after the header holds their
    product in bytes. Returns the file's bytes and the field values."""
    buf = Path(path).read_bytes()
    found = _read_be32(buf, 0, path, f"{kind} magic")
    if found != magic:
        raise DataFormatError(f"{path}: bad {kind} magic {found:#010x}, expected {magic:#010x}")
    values = [_read_be32(buf, 4 * i, path, field) for i, field in enumerate(fields, start=1)]
    size, header = math.prod(values), 4 * (len(fields) + 1)
    if len(buf) - header != size:
        raise DataFormatError(
            f"{path}: truncated {data_name}, expected {size} bytes, found {len(buf) - header}"
        )
    return buf, values


def load_idx(
    images_path, labels_path, num_classes: int | None = None,
    fraction: float = 1.0, seed: int = 0,
) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset with pixels in [0, 1].

    A ``fraction`` other than 1 keeps the rows of ``subsample(data,
    fraction, seed)``, picked before the pixels are converted; the class
    count and the label range check read the whole label file. An image
    file with no images is a ``DataFormatError``.
    """
    images_path, labels_path = str(images_path), str(labels_path)
    img, (count, rows, cols) = _read_idx(images_path, IDX_IMAGES_MAGIC, "images", "pixel data",
                                         ("image count", "row count", "column count"))
    if count == 0:
        raise DataFormatError(f"{images_path}: no images")
    lab, (lcount,) = _read_idx(labels_path, IDX_LABELS_MAGIC, "labels", "label data",
                               ("label count",))
    if lcount != count:
        raise DataFormatError(
            f"count mismatch: {count} images but {lcount} labels"
        )

    labels = np.frombuffer(lab, dtype=np.uint8, offset=8).astype(np.int64)
    classes = num_classes if num_classes is not None else int(labels.max()) + 1
    if labels.size and labels.max() >= classes:
        raise DataFormatError(
            f"{labels_path}: label value {int(labels.max())} out of range for "
            f"{classes} classes"
        )
    pixels = Dataset(np.frombuffer(img, np.uint8, offset=16).reshape(count, rows * cols),
                     labels, classes)
    if fraction != 1.0:
        pixels = subsample(pixels, fraction, seed)
    features = pixels.features.astype(float)
    features /= 255.0
    return Dataset(features, pixels.labels, classes)


def subsample(data: Dataset, fraction: float, seed: int) -> Dataset:
    """Uniform without-replacement row subset of size round(fraction * n).

    Kept rows preserve their original order.
    """
    if not 0.0 < fraction <= 1.0:
        raise InvalidParameterError(f"fraction must be in (0, 1], got {fraction}")
    m = int(round(fraction * data.n))
    if m < 1:
        raise InvalidParameterError("fraction yields an empty subset")
    rng = RngStream(seed)
    idx = np.sort(rng.gen.choice(data.n, size=m, replace=False))
    return Dataset(data.features[idx], data.labels[idx], data.num_classes)


def write_records(path, records) -> None:
    """Replace ``path`` through a sibling file, so a failed write leaves it whole."""
    tmp = f"{path}.tmp"
    try:
        _write_rows(tmp, "w", records)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def append_records(path, records) -> None:
    """Append rows, writing the header first if the file is new or empty."""
    _write_rows(path, "a", records)


def _write_rows(path, mode: str, records) -> None:
    with open(path, mode, newline="") as f:
        if f.tell() == 0:
            f.write(",".join(RECORD_HEADER) + "\r\n")
        for r in records:
            f.write(_ROW.format(*r[:9], "true" if r.diverged else "false"))


@contextmanager
def _utf8(path):
    """Report a UnicodeDecodeError met reading ``path`` as a DataFormatError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def complete_lines(path) -> tuple[list[str], int]:
    """A records file's decoded lines up to its last line terminator, and their byte count.

    Rows are appended a whole line at a time, so a last line without its
    line terminator is a row torn by a kill in mid-append; the caller
    recomputes that row.
    """
    with open(path, "rb") as f:
        text = f.read()
    kept = text[:text.rfind(b"\n") + 1]
    with _utf8(path):
        return kept.decode().splitlines(True), len(kept)


def read_records(path) -> list[RunRecord]:
    with _utf8(path), open(path, encoding="utf-8", newline="") as f:
        return parse_records(f, path)


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Records as columns: one array per ``RunRecord`` field, row i of
    every array from the i-th record.

    Float fields are float64 and ``diverged`` is bool. An int field is
    int64 when every value fits, else an object array of Python ints.
    """

    alpha: np.ndarray
    sigma1: np.ndarray
    d: np.ndarray
    width: np.ndarray
    n: np.ndarray
    seed: np.ndarray
    gap: np.ndarray
    i_hat: np.ndarray
    g_hat: np.ndarray
    diverged: np.ndarray

    def __len__(self) -> int:
        return len(self.diverged)

    @classmethod
    def from_records(cls, records) -> "RecordTable":
        """The table of any iterable of ``RunRecord``s."""
        rows = list(records)
        columns = list(zip(*rows)) if rows else [()] * len(RECORD_HEADER)
        return cls(*map(_column, columns, RunRecord.__annotations__.values()))


def _column(values, kind) -> np.ndarray:
    if kind is int:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return np.array(values, dtype=object)
    return np.array(values, dtype=kind)


def read_table(path) -> RecordTable:
    """The records of ``path`` as a ``RecordTable``: the values and the
    errors of ``read_records``, read by ``np.loadtxt`` where it can."""
    try:
        table = _load_table(path)
    except (ValueError, Warning):  # a UnicodeDecodeError is a ValueError
        table = None
    return table if table is not None else RecordTable.from_records(read_records(path))


def _load_table(path) -> RecordTable | None:
    """The fast path of ``read_table``: None, or an exception, where it
    cannot vouch for the row parser's reading."""
    with open(path, encoding="utf-8", newline="") as f:
        if f.readline().removesuffix("\n").removesuffix("\r") != ",".join(RECORD_HEADER):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body only warns
            rows = np.loadtxt(f, dtype=_TABLE_ROW, delimiter=",", comments=None, ndmin=1)
    flags = rows["diverged"]
    diverged = flags == "true"
    if not (diverged | (flags == "false")).all():
        return None
    return RecordTable(*(np.ascontiguousarray(rows[f]) for f in RECORD_HEADER[:-1]), diverged)


def parse_records(lines, path) -> list[RunRecord]:
    """The rows of a records file's ``lines``; ``path`` names the file in
    errors."""
    reader = csv.reader(lines)
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
            records.append(RunRecord(
                float(row[0]), float(row[1]), int(row[2]), int(row[3]), int(row[4]),
                int(row[5]), float(row[6]), float(row[7]), float(row[8]), _DIVERGED[row[9]],
            ))
        except (ValueError, KeyError) as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    return records


def parse_config(path) -> dict[str, str]:
    """Flat key=value config; '#' starts a comment, blank lines are skipped.
    A line that is not key=value, or a key set twice, is an
    InvalidParameterError; a file that is not UTF-8 is a DataFormatError."""
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    with _utf8(path), open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidParameterError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in lines:
                raise InvalidParameterError(
                    f"{path}:{lineno}: key {key!r} is already set on line {lines[key]}"
                )
            out[key], lines[key] = value, lineno
    return out
