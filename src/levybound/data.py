"""Dataset generation and loading, sub-sampling, and record persistence.

Synthetic data are Gaussian blobs with class centers on orthogonal axes,
split 80/20 by seed. Real image data come in through the big-endian IDX
container (magic 0x00000803 for images, 0x00000801 for labels). Grid
results persist as a plain CSV with a fixed header and 17-significant-
digit floats, so a write/read roundtrip is lossless for finite values.
Run configs are flat ``key=value`` text files.

Records are read one way. ``read_table`` reads a file into a
``RecordTable``, one numpy array per field; ``read_records`` is its rows
as ``RunRecord``s, and ``grid`` resumes from ``read_complete``, the rows
of the file's complete lines. ``np.loadtxt`` reads the body only when
the header is exact, every byte is printable ASCII (0x20-0x7E), CR or
LF, and every flag is exactly ``true`` or ``false``; the writer makes no
other bytes, so its files never leave that path. Every other file, and
a body ``np.loadtxt`` refuses, goes to the row parser,
``parse_records``, which defines what a records file is and words every
error about one. The byte rule keeps out numpy's three misreads: its
integer parser takes non-ASCII digits such as U+0968 and U+2460 as
digits (``0\u0968`` read 2360), its string dtype drops a trailing NUL
(``false\x00`` read as a flag), and its number parser strips
``\x1c``-``\x1f``, which ``float`` refuses. So every reader gives the
row parser's values and errors.
"""

import csv
import io
import math
import os
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
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
_HEADER_LINES = tuple(",".join(RECORD_HEADER).encode() + end for end in (b"\n", b"\r\n"))
_BLOCK = 1 << 16  # bytes per read of a records file's byte check
# A row as np.loadtxt reads it: float64 and int64 fields, and
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
        if self.classes > self.input_dim:  # class c's center is separation * e_c
            raise InvalidParameterError(
                f"class count {self.classes} exceeds input dim {self.input_dim}"
            )
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

    def records(self) -> list[RunRecord]:
        """The rows as ``RunRecord``s of Python floats, ints and bools."""
        return list(map(RunRecord, *(getattr(self, f).tolist() for f in RECORD_HEADER)))


def _column(values, kind) -> np.ndarray:
    if kind is int:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return np.array(values, dtype=object)
    return np.array(values, dtype=kind)


def read_table(path) -> RecordTable:
    """The records of ``path`` as a ``RecordTable``."""
    return _read(path, torn_tail=False)[0]


def read_records(path) -> list[RunRecord]:
    """The rows of ``read_table(path)``."""
    return read_table(path).records()


def read_complete(path) -> tuple[list[RunRecord], int]:
    """The records on ``path``'s complete lines and their byte count. Rows
    are appended a whole line at a time, so a last line without its line
    terminator is a row torn by a kill in mid-append, which the caller
    recomputes."""
    table, size = _read(path, torn_tail=True)
    return table.records(), size


def _read(path, torn_tail: bool) -> tuple[RecordTable, int]:
    """The table of ``path``, or of its complete lines if ``torn_tail``,
    and the byte count it read."""
    with open(path, "rb") as f:
        end, length, ends, plain = _scan(f)
        size = end if torn_tail else length
        if not size and torn_tail:
            return RecordTable.from_records(()), 0
        f.seek(0)
        if plain and f.readline() in _HEADER_LINES:
            lines = ends - 1 + (size > end)  # and an unterminated last line
            table = _load_table(islice(f, lines)) if lines else RecordTable.from_records(())
            if table is not None:
                return table, size
        f.seek(0)
        data = f.read(size)
    with _utf8(path):
        text = data.decode()
    return RecordTable.from_records(parse_records(io.StringIO(text, newline=""), path)), size


def _scan(f) -> tuple[int, int, int, bool]:
    """Read ``f`` to its end in blocks, so the whole file is never held:
    the byte count up to its last LF, its length, its LF count, and
    whether every byte is printable ASCII (0x20-0x7E), CR or LF."""
    end = length = ends = 0
    plain = True
    for block in iter(lambda: f.read(_BLOCK), b""):
        codes = np.frombuffer(block, np.uint8)
        lf = np.count_nonzero(codes == 0x0A)
        plain = plain and block.isascii() and b"\x7f" not in block and (
            np.count_nonzero(codes < 0x20) == lf + np.count_nonzero(codes == 0x0D))
        if lf:
            end = length + block.rfind(b"\n") + 1
        length, ends = length + len(block), ends + lf
    return end, length, ends, plain


def _load_table(lines) -> RecordTable | None:
    """The body ``lines`` read by ``np.loadtxt``, or None where it refuses
    them or a flag is not exactly ``true`` or ``false``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a body of blank lines only warns
            rows = np.loadtxt(lines, dtype=_TABLE_ROW, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
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
