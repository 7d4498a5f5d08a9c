"""Test-side tools that no command needs: the empirical characteristic
function, which the stable-law tests compare with the exact one, and IDX
file writers that build fixture datasets for ``load_idx``. The
plain-numpy references of the sweep's layers are in ``oracles.py``."""

import struct

import numpy as np

from levybound.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from levybound.errors import DimensionMismatchError, InvalidParameterError


def empirical_char_fn(samples, xi) -> tuple[float, float]:
    """Empirical characteristic function at frequency ``xi``.

    Returns (mean cos(xi . x), mean sin(xi . x)) over the sample rows.
    """
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    f = np.asarray(xi, dtype=float).reshape(-1)
    if x.shape[0] == 0:
        raise InvalidParameterError("empty sample list")
    if x.shape[1] != f.shape[0]:
        raise DimensionMismatchError(
            f"samples have dim {x.shape[1]} but xi has dim {f.shape[0]}"
        )
    t = x @ f
    return float(np.cos(t).mean()), float(np.sin(t).mean())


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
