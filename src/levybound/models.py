"""Small bias-free differentiable classifiers.

Two kinds: a linear softmax predictor (two widths) and fully-connected
ReLU networks (three or more widths). Parameters live in one flat
float64 vector, laid out layer-major and row-major within each weight
matrix, so the optimizer can treat the model as a point in R^d.

Two unchecked kernels serve the training loop: ``ModelKernel``, the loss
gradient over arrays it allocates once, and ``error_rates``, the 0-1
errors of many parameter vectors in one pass, which allocates per call
and keeps nothing. The public functions validate and then call them.
"""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError
from .rng import RngStream


@dataclass(frozen=True)
class ModelSpec:
    """Layer widths: (input dim, hidden widths..., class count)."""

    widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.widths) < 2:
            raise InvalidParameterError("need at least input and output widths")
        if any(w < 1 for w in self.widths):
            raise InvalidParameterError(f"widths must be positive, got {self.widths}")

    @property
    def num_classes(self) -> int:
        return self.widths[-1]

    @property
    def input_dim(self) -> int:
        return self.widths[0]


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, input dim) with integer labels in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.features.ndim != 2:
            raise InvalidParameterError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise DimensionMismatchError(
                f"{self.features.shape[0]} feature rows but {self.labels.shape[0]} labels"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise InvalidParameterError("labels out of range for num_classes")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]


def param_count(spec: ModelSpec) -> int:
    return sum(a * b for a, b in zip(spec.widths[:-1], spec.widths[1:]))


def init_params(spec: ModelSpec, scale: float, rng: RngStream) -> np.ndarray:
    """Gaussian init with per-layer std scale / sqrt(fan-in); scale 0 gives zeros."""
    if not scale >= 0.0:
        raise InvalidParameterError(f"scale must be >= 0, got {scale}")
    d = param_count(spec)
    if scale == 0.0:
        return np.zeros(d)
    blocks = []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        std = scale / np.sqrt(fan_in)
        blocks.append(std * rng.gen.standard_normal(fan_in * fan_out))
    return np.concatenate(blocks)


def _check_inputs(spec: ModelSpec, params: np.ndarray, data: Dataset) -> None:
    if not np.isfinite(params).all():
        raise InvalidParameterError("non-finite parameters")
    if data.input_dim != spec.input_dim or data.num_classes != spec.num_classes:
        raise DimensionMismatchError("dataset shape does not match model spec")
    if params.shape != (param_count(spec),):
        raise DimensionMismatchError(
            f"params has shape {params.shape}, spec needs ({param_count(spec)},)"
        )


def _row_reduce(ufunc, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=1, keepdims=True)`` into ``out``.

    Below 8 columns numpy's reduction adds the columns in order, so a
    column-by-column loop gives the same bits without the reduction's
    set-up cost; from 8 columns on its pairwise order takes over.
    """
    if a.shape[1] >= 8:
        return ufunc.reduce(a, axis=1, keepdims=True, out=out)
    col = out[:, 0]
    np.copyto(col, a[:, 0])
    for j in range(1, a.shape[1]):
        ufunc(col, a[:, j], out=col)
    return out


def error_rates(spec: ModelSpec, params: np.ndarray, x: np.ndarray,
                labels: np.ndarray) -> list[float]:
    """Fraction of rows whose argmax logit (lowest index on ties) is not
    the label, for each row of the (runs, d) array ``params``, in one pass
    over ``x``. Does no validation and keeps nothing between calls.

    The first-layer weight matrices are copied side by side into one
    (fan-in, runs * fan-out) matrix, so one matmul reads the rows of
    ``x``; each later layer is one batched matmul over the runs' column
    blocks, and one argmax covers every run.

    Each run's block of the first product is ``x @ w1`` of that run
    alone up to the GEMM kernel BLAS picks for the wider product; the
    later layers are the one-run products. On OpenBLAS 0.3.31 the
    blocks are bit-identical to the one-run products at 2504x784x10,
    626x784x10, 500x25x32 and 126x25x32, but small products (for
    example 60x784x10 or 64x25x10) can differ in the last bits. So
    what holds is that each run's error rate is the one a call with
    that vector alone gives it unless two of a row's logits lie within
    rounding of each other (60x784x10: 0 of 120,000 rows changed their
    argmax); the logits themselves may differ.
    """
    params = np.ascontiguousarray(params, dtype=np.float64)
    runs, rows = params.shape[0], x.shape[0]
    fan_in, fan_out = spec.widths[:2]
    lo = fan_in * fan_out
    first = params[:, :lo].reshape(runs, fan_in, fan_out)
    stacked = first.transpose(1, 0, 2).reshape(fan_in, runs * fan_out)
    z = (x @ stacked).reshape(rows, runs, fan_out).transpose(1, 0, 2)  # (run, row, unit)
    for a, b in zip(spec.widths[1:-1], spec.widths[2:]):
        z = np.maximum(z, 0.0, out=z) @ params[:, lo:lo + a * b].reshape(runs, a, b)
        lo += a * b
    if z.flags.c_contiguous:
        wrong = np.argmax(z, axis=2) != labels
    else:  # a linear model's logits: argmax would first copy this view whole
        wrong = (np.argmax(z.transpose(1, 0, 2), axis=2) != labels[:, None]).T
    return (wrong.sum(axis=1) / rows).tolist()


class ModelKernel:
    """Forward pass and loss gradient of one model over a fixed row count,
    with the layer layout and every array set up once.

    Calls do no validation and overwrite the previous call's results: the
    returned gradient is the kernel's own buffer. ``surrogate_loss_and_grad``
    validates its inputs and then calls a fresh kernel; the training loop
    keeps one for all the runs of a group. The gradient computes no 0-1
    error: ``error_rates`` is the one eval path.
    """

    def __init__(self, spec: ModelSpec, rows: int):
        shapes = list(zip(spec.widths[:-1], spec.widths[1:]))
        ends = list(accumulate(a * b for a, b in shapes))
        self.slices = [(lo, hi, shape) for lo, hi, shape in zip([0] + ends, ends, shapes)]
        hidden, classes = spec.widths[1:-1], spec.num_classes
        self.rows = rows
        self.row_starts = np.arange(rows) * classes  # flat index of each row's class 0
        self.grad = np.empty(ends[-1])
        self.grads = [self.grad[lo:hi].reshape(shape) for lo, hi, shape in self.slices]
        self.hidden = [np.empty((rows, w)) for w in hidden]
        self.active = [np.empty((rows, w), dtype=bool) for w in hidden]
        self.back = [np.empty((rows, w)) for w in hidden]
        self.logits = np.empty((rows, classes))
        self.log_p = np.empty((rows, classes))
        self.delta = np.empty((rows, classes))
        self.row_stat = np.empty((rows, 1))

    def gradient(self, params: np.ndarray, x: np.ndarray, label_index: np.ndarray) -> np.ndarray:
        """Gradient of the mean cross-entropy over the rows; ``log_p`` keeps
        the log-softmax. Same arithmetic, in the same order, as the
        unbuffered formulation in ``surrogate_loss_and_grad``'s docstring.

        ``label_index`` is ``row_starts + y``, the flat index of each row's
        label in the logits.
        """
        mats = [params[lo:hi].reshape(shape) for lo, hi, shape in self.slices]
        a = x  # the forward pass keeps each layer's activations in ``hidden``
        for w, h in zip(mats, self.hidden):
            np.matmul(a, w, out=h)
            np.maximum(h, 0.0, out=h)
            a = h
        logits = np.matmul(a, mats[-1], out=self.logits)
        logits -= _row_reduce(np.maximum, logits, self.row_stat)
        np.exp(logits, out=self.delta)
        log_z = np.log(_row_reduce(np.add, self.delta, self.row_stat), out=self.row_stat)
        np.subtract(logits, log_z, out=self.log_p)

        delta = np.exp(self.log_p, out=self.delta)
        delta.reshape(-1)[label_index] -= 1.0  # delta[i, y_i] -= 1
        delta /= self.rows
        for layer in range(len(mats) - 1, -1, -1):
            a = self.hidden[layer - 1] if layer > 0 else x
            np.matmul(a.T, delta, out=self.grads[layer])
            if layer > 0:
                back = np.matmul(delta, mats[layer].T, out=self.back[layer - 1])
                back *= np.greater(a, 0.0, out=self.active[layer - 1])
                delta = back
        return self.grad


def surrogate_loss_and_grad(
    spec: ModelSpec, params: np.ndarray, data: Dataset, indices
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the given rows and its exact gradient.

    Softmax is computed on max-shifted logits; the ReLU subgradient at 0
    is 0. The mean makes the result invariant to the order of ``indices``
    up to float summation error. In array terms, with ``acts`` the
    layer inputs (rows first) and ``mats`` the weight matrices:

        shifted = logits - logits.max(axis=1, keepdims=True)
        log_p = shifted - log(exp(shifted).sum(axis=1, keepdims=True))
        delta = exp(log_p); delta[i, y_i] -= 1; delta /= rows
        grad[l] = acts[l].T @ delta
        delta = (delta @ mats[l].T) * (acts[l] > 0)      for l > 0
    """
    idx = np.asarray(indices, dtype=np.intp).reshape(-1)
    if idx.size == 0:
        raise InvalidParameterError("indices must be nonempty")
    if idx.min() < 0 or idx.max() >= data.n:
        raise IndexError(f"batch index out of range [0, {data.n})")
    _check_inputs(spec, params, data)

    kernel = ModelKernel(spec, idx.size)
    label_index = kernel.row_starts + data.labels[idx]
    grad = kernel.gradient(params, data.features[idx], label_index)
    loss = -float(np.mean(kernel.log_p.reshape(-1)[label_index]))
    return loss, grad


def zero_one_error(spec: ModelSpec, params: np.ndarray, data: Dataset) -> float:
    """Fraction of misclassified rows; argmax ties go to the lowest class index.
    Refuses the inputs ``surrogate_loss_and_grad`` refuses."""
    _check_inputs(spec, params, data)
    return error_rates(spec, params[None], data.features, data.labels)[0]
