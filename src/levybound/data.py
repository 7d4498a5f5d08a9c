"""Dataset generation and loading, sub-sampling, and record persistence.

Synthetic data are Gaussian blobs with class centers on orthogonal axes,
split 80/20 by seed. Real image data come in through the big-endian IDX
container (magic 0x00000803 for images, 0x00000801 for labels). Grid
results persist as a plain CSV with a fixed header and 17-significant-
digit floats, so a write/read roundtrip is lossless for finite values.
Run configs are flat ``key=value`` text files.
"""

import csv
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataFormatError, InvalidParameterError
from .models import Dataset
from .rng import RngStream

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


def write_idx_images(path, images: np.ndarray) -> None:
    """Serialize a (count, rows, cols) uint8 array as an IDX image file."""
    images = np.asarray(images, dtype=np.uint8)
    count, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGES_MAGIC, count, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABELS_MAGIC, labels.size))
        f.write(labels.tobytes())


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
    _write_rows(path, "w", records)


def append_records(path, records) -> None:
    """Append rows, writing the header first if the file is new or empty."""
    _write_rows(path, "a", records)


def _write_rows(path, mode: str, records) -> None:
    with open(path, mode, newline="") as f:
        if f.tell() == 0:
            f.write(",".join(RECORD_HEADER) + "\r\n")
        for r in records:
            f.write(_ROW.format(*r[:9], "true" if r.diverged else "false"))


def complete_lines(path) -> bytes:
    """A records file's bytes up to its last line terminator.

    Rows are appended a whole line at a time, so a last line without its
    line terminator is a row torn by a kill in mid-append; the caller
    recomputes that row.
    """
    with open(path, "rb") as f:
        text = f.read()
    return text[:text.rfind(b"\n") + 1]


def drop_torn_row(path) -> None:
    """Cut a records file to its ``complete_lines``. A file left without a
    complete line (a torn header) is removed."""
    keep = len(complete_lines(path))
    if keep == 0:
        Path(path).unlink()
    elif keep < os.path.getsize(path):
        os.truncate(path, keep)


def read_records(path) -> list[RunRecord]:
    with open(path, newline="") as f:
        return parse_records(f, path)


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
    """Flat key=value config; '#' starts a comment, blank lines are skipped."""
    out: dict[str, str] = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
