"""Plain-numpy references for the layers a sweep runs: the random streams,
the open-interval uniforms, the synthetic blobs, the initial parameters,
the model's forward pass, loss and gradient, the 0-1 error, the stable
subordinator, the eval schedule, the whole training run and records row
(gap, i_hat and G_hat), and the Kendall tau-b count.

Each is written from its documented rule alone and imports nothing from
``levybound``, so a test that compares the package with one of them
cannot pass because both share a bug. ``tests/test_package.py`` checks
the imports.
"""

import math
from collections import Counter

import numpy as np

# --- Streams and data: every draw comes from numpy's Philox generator
# under a two-word key [seed, stream].


def splitmix64(*parts):
    """One 64-bit stream id mixed from integers: start from the word
    0x9E3779B97F4A7C15; for each part, xor it in (its low 64 bits),
    multiply by 0xBF58476D1CE4E5B9, xor in the word shifted right by 27,
    multiply by 0x94D049BB133111EB and xor in the word shifted right by
    31, all modulo 2**64."""
    h = 0x9E3779B97F4A7C15
    for part in parts:
        h = (h ^ (part % 2**64)) * 0xBF58476D1CE4E5B9 % 2**64
        h ^= h >> 27
        h = h * 0x94D049BB133111EB % 2**64
        h ^= h >> 31
    return h


def philox(seed, stream=0):
    """The generator of the key [seed, stream]."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def unit_open(gen, size=None):
    """Uniforms on the open interval (0, 1): ``gen.random`` draws on [0, 1),
    and every exact 0 is drawn again, an array's zeros in one call a round."""
    if size is None:
        u = gen.random()
        while u == 0.0:
            u = gen.random()
        return u
    u = gen.random(size)
    while (u == 0.0).any():
        u[u == 0.0] = gen.random(np.count_nonzero(u == 0.0))
    return u


def blobs(n_per_class, input_dim, classes, separation, noise_std, seed):
    """Gaussian blobs drawn on the key [seed, 0]: noise_std times a
    (classes * n_per_class, input_dim) block of standard normals, whose
    c-th block of n_per_class rows (label c) moves by ``separation`` along
    axis c; then the rows are shuffled by the permutation drawn next, and
    the first 4/5 (rounded down) are the train set. Returns ((train x,
    train y), (test x, test y))."""
    gen = philox(seed)
    total = classes * n_per_class
    x = noise_std * gen.standard_normal((total, input_dim))
    y = np.repeat(np.arange(classes), n_per_class)
    x[np.arange(total), y] += separation
    perm = gen.permutation(total)
    x, y = x[perm], y[perm]
    cut = 4 * total // 5
    return (x[:cut], y[:cut]), (x[cut:], y[cut:])


def init_params(widths, scale, gen):
    """The flat initial parameters: for each layer in turn, fan_in * fan_out
    standard normals times scale / sqrt(fan_in); zeros, with no draw, at
    scale 0."""
    shapes = list(zip(widths[:-1], widths[1:]))
    if scale == 0.0:
        return np.zeros(sum(a * b for a, b in shapes))
    return np.concatenate([scale / math.sqrt(a) * gen.standard_normal(a * b) for a, b in shapes])


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


# --- The schedule, the run and its records row.


def eval_steps(steps, eval_interval, after=0):
    """The steps of a ``steps``-step run that are evaluated: each k > ``after``
    that is a multiple of ``eval_interval`` or the last step."""
    return [k for k in range(max(after, 0) + 1, steps + 1)
            if k % eval_interval == 0 or k == steps]


def run(widths, train, test, cfg, init_scale, gen, after=0):
    """The Euler-Maruyama training run, every draw on ``gen``.

    ``cfg`` has the fields gamma, eta, alpha, sigma1, sigma2, steps,
    batch_size (None for the full batch) and eval_interval; ``train`` and
    ``test`` are (x, y) pairs. From ``init_params``, step k = 1, 2, ...
    draws the batch rows (``gen.choice`` without replacement) and takes
    the gradient there; on the steps of ``eval_steps(steps, eval_interval,
    after)`` it notes the train and test 0-1 errors of the parameters the
    gradient used. The update is

        w - gamma grad - eta gamma w + gamma^(1/alpha) sigma1 sqrt(A) G
          + sqrt(2 gamma) sigma2 B,

    drawn in this order: the subordinator A of a uniform u and an
    exponential -log u' (two ``unit_open`` draws, u first; A = 2 at alpha
    = 2, the uniforms still drawn), the standard normal G, the standard
    normal B. A term whose sigma is 0 draws nothing. A non-finite w, or
    one of norm above 1e12, ends the run as diverged. Returns (the squared
    gradient norms, the (k, train error, test error) evals, the last w,
    diverged).
    """
    (x, y), (test_x, test_y) = train, test
    params = init_params(widths, init_scale, gen)
    grad_sq, evals = [], []
    evaluated = set(eval_steps(cfg.steps, cfg.eval_interval, after))
    for k in range(1, cfg.steps + 1):
        if cfg.batch_size is None:
            idx = np.arange(y.size)
        else:
            idx = gen.choice(y.size, size=cfg.batch_size, replace=False)
        grad = gradient(widths, params, x[idx], y[idx])
        grad_sq.append(float(grad @ grad))
        if k in evaluated:
            evals.append((k, zero_one_error(widths, params, x, y),
                          zero_one_error(widths, params, test_x, test_y)))
        new = params - cfg.gamma * grad - cfg.eta * cfg.gamma * params
        if cfg.sigma1 > 0.0:
            u = unit_open(gen)
            expo = -np.log(unit_open(gen))
            a = 2.0 if cfg.alpha == 2.0 else subordinator(cfg.alpha, u, expo)
            draw = np.sqrt(a) * gen.standard_normal(params.size)
            new = new + cfg.gamma ** (1.0 / cfg.alpha) * cfg.sigma1 * draw
        if cfg.sigma2 > 0.0:
            new = new + np.sqrt(2.0 * cfg.gamma) * cfg.sigma2 * gen.standard_normal(params.size)
        params = new
        if not np.isfinite(params).all() or np.linalg.norm(params) > 1e12:
            return grad_sq, evals, params, True
    return grad_sq, evals, params, False


def trimmed_mean(values, trim):
    """The mean of ``values`` less the ceil(trim * count) largest, summed
    exactly (``math.fsum``)."""
    kept = sorted(values)[: len(values) - math.ceil(trim * len(values))]
    return math.fsum(kept) / len(kept)


def cell(widths, train, test, cfg, init_scale, seed, window, trim):
    """A records row's (gap, i_hat), or None if the run diverged.

    The cell's run is ``run`` on the key [seed, splitmix64(0, 0)] (alpha
    and sigma1 are not part of it), evaluated only in its last ``window``
    steps. gap is the ``trimmed_mean`` of the test minus train errors
    there, and i_hat is gamma times the exact sum of the squared gradient
    norms.
    """
    grad_sq, evals, _, diverged = run(widths, train, test, cfg, init_scale,
                                      philox(seed, splitmix64(0, 0)), after=cfg.steps - window)
    if diverged:
        return None
    return trimmed_mean([te - tr for _, tr, te in evals], trim), cfg.gamma * math.fsum(grad_sq)


def g_hat(alpha, d, n, sigma1, radius, i_hat):
    """G_hat = sqrt(P(alpha) d^(1 - alpha/2) i_hat / (n sigma1^alpha
    R^(2 - alpha))), with P(alpha) = (2 - alpha) Gamma(1 - alpha/2) /
    (alpha 2^(alpha/2)) and its limit P(2) = 1/2."""
    p = 0.5
    if alpha < 2.0:
        p = (2.0 - alpha) * math.exp(math.lgamma(1.0 - alpha / 2.0))
        p /= alpha * 2.0 ** (alpha / 2.0)
    return math.sqrt(p * d ** (1.0 - alpha / 2.0) * i_hat
                     / (n * sigma1**alpha * radius ** (2.0 - alpha)))


# --- The analysis.


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
