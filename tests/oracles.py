"""Plain-numpy references for the layers a sweep runs: the model's forward
pass, loss and gradient, the 0-1 error, the stable subordinator, the
Kendall tau-b count and the eval schedule.

Each is written from its formula alone and imports nothing from
``levybound``, so a test that compares the package with one of them
cannot pass because both share a bug. ``tests/test_package.py`` checks
the imports. The callers draw any random input (the subordinator's
uniforms, a data set) from the package's streams and pass it in.
"""

import math
from collections import Counter

import numpy as np

# --- The model: a flat parameter vector holds the weight matrices of
# widths[0] -> widths[1] -> ... -> widths[-1], layer after layer, each
# (fan_in, fan_out) in row-major order, no biases; ReLU between layers.


def forward(widths, params, x):
    """The weight matrices (views of ``params``), each layer's input (``x``
    first) and the logits."""
    mats, offset = [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        mats.append(params[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
    acts = [x]
    for w in mats[:-1]:
        acts.append(np.maximum(acts[-1] @ w, 0.0))
    return mats, acts, acts[-1] @ mats[-1]


def log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy(widths, params, x, labels):
    """Mean cross-entropy of the softmax of the logits over the rows."""
    log_p = log_softmax(forward(widths, params, x)[2])
    return float(-log_p[np.arange(labels.size), labels].mean())


def gradient(widths, params, x, labels):
    """Backprop gradient of ``cross_entropy``, flat in the layout of ``params``."""
    mats, acts, logits = forward(widths, params, x)
    delta = np.exp(log_softmax(logits))
    delta[np.arange(labels.size), labels] -= 1.0
    delta /= labels.size
    grads = [None] * len(mats)
    for layer in range(len(mats) - 1, -1, -1):
        grads[layer] = acts[layer].T @ delta
        if layer > 0:
            delta = (delta @ mats[layer].T) * (acts[layer] > 0.0)
    return np.concatenate([g.reshape(-1) for g in grads])


def finite_difference(widths, params, x, labels, h=1e-5):
    """Central differences of ``cross_entropy``, one parameter at a time."""
    grad = np.zeros_like(params)
    for i in range(params.size):
        up, down = params.copy(), params.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (cross_entropy(widths, up, x, labels)
                   - cross_entropy(widths, down, x, labels)) / (2 * h)
    return grad


def zero_one_error(widths, params, x, labels):
    """Share of rows whose lowest-index largest logit is not their label."""
    return float(np.mean(np.argmax(forward(widths, params, x)[2], axis=1) != labels))


# --- The noise: an isotropic alpha-stable draw is sqrt(A) G, with A the
# positive (alpha/2)-stable subordinator.


def subordinator(alpha, u, w):
    """A = S(alpha/2, 1, 2 cos(pi alpha / 4)^(2/alpha), 0) by the
    Chambers-Mallows-Stuck transform of a uniform ``u`` on (0, 1) and an
    exponential ``w``: scalars give a numpy scalar, arrays an array."""
    a = alpha / 2.0
    tan_half = np.tan(np.pi * a / 2.0)
    b = np.arctan(tan_half) / a
    sfac = (1.0 + tan_half * tan_half) ** (1.0 / (2.0 * a))
    theta = np.pi * (u - 0.5)
    x = (
        sfac
        * np.sin(a * (theta + b))
        / np.cos(theta) ** (1.0 / a)
        * (np.cos(theta - a * (theta + b)) / w) ** ((1.0 - a) / a)
    )
    return 2.0 * np.cos(np.pi * alpha / 4.0) ** (2.0 / alpha) * x


# --- The analysis and the schedule.


def kendall_tau_b(xs, ys):
    """Kendall's tau-b by the O(n^2) concordance count, with the tie correction."""
    x, y = list(map(float, xs)), list(map(float, ys))
    n = len(x)
    num = 0
    for i in range(n):
        for j in range(i + 1, n):
            num += ((x[i] > x[j]) - (x[i] < x[j])) * ((y[i] > y[j]) - (y[i] < y[j]))
    n0 = n * (n - 1) // 2

    def ties(v):
        return sum(c * (c - 1) // 2 for c in Counter(v).values())

    return num / math.sqrt((n0 - ties(x)) * (n0 - ties(y)))


def eval_steps(steps, eval_interval, after=0):
    """The steps of a ``steps``-step run that are evaluated: each k > ``after``
    that is a multiple of ``eval_interval`` or the last step."""
    return [k for k in range(max(after, 0) + 1, steps + 1)
            if k % eval_interval == 0 or k == steps]
