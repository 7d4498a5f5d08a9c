import math
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from levybound import (
    Dataset,
    ModelSpec,
    RngStream,
    TrainConfig,
    em_step,
    init_params,
    mix64,
    run_training,
    sample_isotropic_stable,
    zero_one_error,
)
from levybound.errors import DimensionMismatchError, InvalidParameterError
from levybound.models import ModelKernel
from levybound.sde import EulerMaruyama, RunTrace, StepRecord, run_group
from levybound.stable import StableNoise, cms_uniforms

from helpers import empirical_char_fn


def blob_data(seed=0, n=120, dim=6, classes=2, sep=2.0):
    rng = RngStream(seed)
    features = rng.gen.standard_normal((n, dim))
    labels = rng.gen.integers(0, classes, size=n).astype(np.int64)
    for c in range(classes):
        features[labels == c, c] += sep
    return Dataset(features, labels, classes)


def _same(a, b):
    """Traces compare by what they recorded, their final parameters and flag."""
    return (a.records, a.final_params.tobytes(), a.diverged) == (
        b.records, b.final_params.tobytes(), b.diverged)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            TrainConfig(gamma=0.0, eta=0.0, alpha=1.5, sigma1=0.1)
        with pytest.raises(InvalidParameterError):
            TrainConfig(gamma=2.0, eta=1.0, alpha=1.5, sigma1=0.1)  # gamma*eta >= 1
        with pytest.raises(InvalidParameterError):
            TrainConfig(gamma=0.1, eta=0.0, alpha=1.0, sigma1=0.1)
        with pytest.raises(InvalidParameterError):
            TrainConfig(gamma=0.1, eta=0.0, alpha=1.5, sigma1=-0.1)
        TrainConfig(gamma=0.1, eta=0.0, alpha=1.5, sigma1=0.1, seed=2**64 - 1)
        # a stream keeps a seed's low 64 bits: -1 would alias 2**64 - 1, and 2**64 alias 0
        for seed in (-1, 2**64):
            with pytest.raises(InvalidParameterError, match=r"seed must be in \[0, 2\*\*64\)"):
                TrainConfig(gamma=0.1, eta=0.0, alpha=1.5, sigma1=0.1, seed=seed)
        for seed in (2.5, True):
            with pytest.raises(InvalidParameterError, match="seed must be an integer"):
                TrainConfig(gamma=0.1, eta=0.0, alpha=1.5, sigma1=0.1, seed=seed)


class TestEmStep:
    def test_pure_gradient_descent(self):
        cfg = TrainConfig(gamma=0.05, eta=0.0, alpha=1.5, sigma1=0.0)
        w = np.array([1.0, -2.0, 3.0])
        g = np.array([0.5, 0.5, -1.0])
        assert (em_step(w, g, cfg) == w - 0.05 * g).all()

    def test_weight_decay_contraction(self):
        cfg = TrainConfig(gamma=0.01, eta=0.001, alpha=1.5, sigma1=0.0)
        w = np.ones(5)
        out = em_step(w, np.zeros(5), cfg)
        assert np.allclose(out, 0.99999, atol=1e-12)

    def test_stable_passthrough(self):
        cfg = TrainConfig(gamma=1.0, eta=0.37, alpha=1.5, sigma1=1.0)
        xi = np.array([0.3, -4.0, 2.5])
        out = em_step(np.zeros(3), np.zeros(3), cfg, stable_draw=xi)
        assert (out == xi).all()

    def test_shape_errors(self):
        cfg = TrainConfig(gamma=0.1, eta=0.0, alpha=1.5, sigma1=1.0)
        with pytest.raises(DimensionMismatchError):
            em_step(np.zeros(3), np.zeros(4), cfg, stable_draw=np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            em_step(np.zeros(3), np.zeros(3), cfg, stable_draw=None)


class TestRunTraining:
    def test_matches_independent_gd_oracle_bit_exact(self):
        data = blob_data(1)
        test = blob_data(2)
        spec = ModelSpec((6, 4, 2))
        cfg = TrainConfig(
            gamma=0.05, eta=0.001, alpha=1.5, sigma1=0.0, sigma2=0.0, steps=200, seed=3
        )
        trace = run_training(spec, data, test, cfg, init_scale=1.0)

        # independently coded GD-with-decay loop, on the run's stream
        rng = RngStream(cfg.seed, mix64(0, 0))
        w = init_params(spec, 1.0, rng)
        for _ in range(cfg.steps):
            g, _ = _frozen_gradient(spec, w, data, np.arange(data.n))
            w = w - cfg.gamma * g - cfg.eta * cfg.gamma * w
        assert trace.final_params.tobytes() == w.tobytes()
        assert trace.final_params.dtype == np.float64
        assert not trace.final_params.flags.writeable
        assert not trace.diverged

    def test_full_integer_batch_equals_full_batch(self):
        data = blob_data(4)
        test = blob_data(5)
        spec = ModelSpec((6, 2))
        base = dict(gamma=0.05, eta=0.0, alpha=1.5, sigma1=0.0, steps=30, seed=7)
        full = run_training(spec, data, test, TrainConfig(**base), init_scale=0.5)
        batched = run_training(
            spec, data, test, TrainConfig(**base, batch_size=data.n), init_scale=0.5
        )
        for a, b in zip(full.records, batched.records):
            assert a.grad_sq == pytest.approx(b.grad_sq, rel=1e-12)

    def test_same_seed_reproduces_trace(self):
        data = blob_data(8)
        test = blob_data(9)
        spec = ModelSpec((6, 3, 2))
        cfg = TrainConfig(
            gamma=0.02, eta=0.001, alpha=1.7, sigma1=0.1, sigma2=0.05, steps=60,
            batch_size=32, seed=11,
        )
        t1 = run_training(spec, data, test, cfg)
        t2 = run_training(spec, data, test, cfg)
        assert _same(t1, t2)

    def test_eval_interval_does_not_perturb_dynamics(self):
        data = blob_data(10)
        test = blob_data(11)
        spec = ModelSpec((6, 2))
        base = dict(gamma=0.02, eta=0.001, alpha=1.6, sigma1=0.2, steps=50, seed=13)
        t1 = run_training(spec, data, test, TrainConfig(**base, eval_interval=3))
        t2 = run_training(spec, data, test, TrainConfig(**base, eval_interval=1000))
        assert [r.grad_sq for r in t1.records] == [r.grad_sq for r in t2.records]
        assert t1.final_params.tobytes() == t2.final_params.tobytes()

    def test_eval_cadence_fields(self):
        data = blob_data(12)
        test = blob_data(13)
        cfg = TrainConfig(
            gamma=0.02, eta=0.0, alpha=1.5, sigma1=0.0, steps=25, eval_interval=10, seed=0
        )
        trace = run_training(ModelSpec((6, 2)), data, test, cfg)
        evaluated = [r.step for r in trace.records if r.test_error is not None]
        assert evaluated == [10, 20, 25]
        assert len(trace.records) == 25
        assert all(r.grad_sq >= 0.0 for r in trace.records)

    def test_divergence_flag(self):
        data = blob_data(14)
        test = blob_data(15)
        # absurd noise scale pushes ||params|| past the guard immediately
        cfg = TrainConfig(gamma=0.01, eta=0.0, alpha=1.5, sigma1=1e14, steps=50, seed=1)
        trace = run_training(ModelSpec((6, 2)), data, test, cfg, init_scale=1.0)
        assert trace.diverged
        assert len(trace.records) < 50

    def test_batch_size_validation(self):
        data = blob_data(16)
        cfg = TrainConfig(gamma=0.1, eta=0.0, alpha=1.5, sigma1=0.0, batch_size=999)
        with pytest.raises(InvalidParameterError):
            run_training(ModelSpec((6, 2)), data, data, cfg)

    @pytest.mark.parametrize("classes", [3, 10])
    @pytest.mark.parametrize("hidden", [(), (5,)], ids=["linear", "relu"])
    def test_full_batch_train_error_breaks_ties_like_zero_one_error(self, monkeypatch,
                                                                    hidden, classes):
        # zero init ties every logit at step 1; a zero ReLU net stays at
        # zero, so its logits tie at every step. The train error taken from
        # the gradient's forward pass must still pick the lowest class.
        train = blob_data(60 + classes, n=50, dim=12, classes=classes)
        test = blob_data(70 + classes, n=20, dim=12, classes=classes)
        spec = ModelSpec((12, *hidden, classes))
        cfg = TrainConfig(gamma=0.05, eta=0.01, alpha=1.5, sigma1=0.0, steps=12,
                          eval_interval=1)
        step_params = []
        real_gradient = ModelKernel.gradient

        def gradient(self, params, *args):
            step_params.append(params.copy())
            return real_gradient(self, params, *args)

        monkeypatch.setattr(ModelKernel, "gradient", gradient)
        trace = run_training(spec, train, test, cfg, init_scale=0.0)
        assert len(step_params) == len(trace.records) == cfg.steps
        assert trace.records[0].train_error == float(np.mean(train.labels != 0))
        for record, params in zip(trace.records, step_params):
            assert record.train_error == zero_one_error(spec, params, train)
        if hidden:
            assert not step_params[-1].any()


class TestNoiseScaleLaws:
    def test_alpha_two_injection_variance(self):
        # at alpha = 2 the stable injection gamma^(1/2) sigma1 sqrt(2) G has
        # per-coordinate variance 2 gamma sigma1^2, the Brownian term's form
        gamma, sigma1, dim = 0.04, 0.7, 4
        rng = RngStream(21)
        draws = sample_isotropic_stable(2.0, dim, rng, size=100_000)
        injected = gamma ** (1.0 / 2.0) * sigma1 * draws
        target = 2.0 * gamma * sigma1**2
        assert np.allclose(injected.var(axis=0), target, rtol=0.02)

    def test_heavier_tails_make_larger_max_jumps(self):
        gamma, sigma1, dim = 0.01, 1.0, 3
        wins = 0
        for seed in range(10):
            heavy = sample_isotropic_stable(1.2, dim, RngStream(seed, 1), size=10_000)
            light = sample_isotropic_stable(1.9, dim, RngStream(seed, 2), size=10_000)
            m_heavy = np.linalg.norm(gamma ** (1 / 1.2) * sigma1 * heavy, axis=1).max()
            m_light = np.linalg.norm(gamma ** (1 / 1.9) * sigma1 * light, axis=1).max()
            wins += m_heavy > m_light
        assert wins >= 9


# --- Frozen reference: the training loop as it was before its loop
# invariants were hoisted (per-step validation, allocation and constant
# recomputation). run_training must reproduce it bit for bit.


def _frozen_gradient(spec, params, data, idx):
    mats, offset = [], 0
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        mats.append(params[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
    x = data.features[idx]
    y = data.labels[idx]
    acts = [x]
    a = x
    for w in mats[:-1]:
        a = np.maximum(a @ w, 0.0)
        acts.append(a)
    logits = acts[-1] @ mats[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    delta = np.exp(log_p)
    delta[np.arange(idx.size), y] -= 1.0
    delta /= idx.size
    grads = [None] * len(mats)
    for layer in range(len(mats) - 1, -1, -1):
        grads[layer] = acts[layer].T @ delta
        if layer > 0:
            delta = (delta @ mats[layer].T) * (acts[layer] > 0.0)
    return np.concatenate([g.reshape(-1) for g in grads]), mats


def _frozen_error(spec, params, data):
    mats, offset = [], 0
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        mats.append(params[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
    a = data.features
    for w in mats[:-1]:
        a = np.maximum(a @ w, 0.0)
    return float(np.mean(np.argmax(a @ mats[-1], axis=1) != data.labels))


def _frozen_subordinator(alpha, rng):
    """Scalar CMS draw of S(alpha/2, 1, 2 cos(pi alpha/4)^(2/alpha), 0) in numpy scalars."""
    a_s = alpha / 2.0
    u = rng.unit_open()
    w = -np.log(rng.unit_open())
    theta = np.pi * (u - 0.5)
    tan_half = np.tan(np.pi * a_s / 2.0)
    b = np.arctan(1.0 * tan_half) / a_s
    sfac = (1.0 + 1.0 * 1.0 * tan_half * tan_half) ** (1.0 / (2.0 * a_s))
    x = (
        sfac
        * np.sin(a_s * (theta + b))
        / np.cos(theta) ** (1.0 / a_s)
        * (np.cos(theta - a_s * (theta + b)) / w) ** ((1.0 - a_s) / a_s)
    )
    scale = 2.0 * np.cos(np.pi * alpha / 4.0) ** (2.0 / alpha)
    return float(0.0 + scale * x)


def _frozen_run(spec, train, test, cfg, init_scale, rng):
    d = sum(a * b for a, b in zip(spec.widths[:-1], spec.widths[1:]))
    params = init_params(spec, init_scale, rng)
    records = []
    diverged = False
    for k in range(1, cfg.steps + 1):
        if cfg.batch_size is None:
            idx = np.arange(train.n)
        else:
            idx = rng.gen.choice(train.n, size=cfg.batch_size, replace=False)
        grad, _ = _frozen_gradient(spec, params, train, idx)
        train_err = test_err = None
        if k % cfg.eval_interval == 0 or k == cfg.steps:
            train_err = _frozen_error(spec, params, train)
            test_err = _frozen_error(spec, params, test)
        records.append(StepRecord(k, float(grad @ grad), train_err, test_err))
        new = params - cfg.gamma * grad - cfg.eta * cfg.gamma * params
        if cfg.sigma1 > 0.0:
            if cfg.alpha == 2.0:
                rng.unit_open()  # the two subordinator uniforms, drawn and discarded
                rng.unit_open()
                draw = np.sqrt(2.0) * rng.gen.standard_normal((d,))
            else:
                a = _frozen_subordinator(cfg.alpha, rng)
                draw = np.sqrt(a) * rng.gen.standard_normal((d,))
            new = new + cfg.gamma ** (1.0 / cfg.alpha) * cfg.sigma1 * draw
        if cfg.sigma2 > 0.0:
            new = new + np.sqrt(2.0 * cfg.gamma) * cfg.sigma2 * rng.gen.standard_normal(d)
        params = new
        if not np.isfinite(params).all() or np.linalg.norm(params) > 1e12:
            diverged = True
            break
    return RunTrace(cfg, np.array([r.grad_sq for r in records]),
                    tuple((r.step, r.train_error, r.test_error) for r in records
                          if r.train_error is not None),
                    params, diverged)


@pytest.mark.parametrize("alpha", [1.6, 1.95, 2.0])
@pytest.mark.parametrize("sigma2", [0.0, 0.05])
@pytest.mark.parametrize("sigma1", [0.0, 0.3])
@pytest.mark.parametrize("classes", [2, 10])
@pytest.mark.parametrize("batch_size", [None, 16])
@pytest.mark.parametrize("hidden", [(), (5,)], ids=["linear", "relu"])
def test_run_training_matches_frozen_loop(hidden, batch_size, classes, sigma1, sigma2, alpha):
    train = blob_data(30 + classes, n=60, dim=12, classes=classes)
    test = blob_data(40 + classes, n=25, dim=12, classes=classes)
    spec = ModelSpec((12, *hidden, classes))
    cfg = TrainConfig(
        gamma=0.05, eta=0.01, alpha=alpha, sigma1=sigma1, sigma2=sigma2, steps=25,
        batch_size=batch_size, eval_interval=4,
    )
    trace = run_training(spec, train, test, cfg, 1.0, RngStream(5, 9))
    assert _same(trace, _frozen_run(spec, train, test, cfg, 1.0, RngStream(5, 9)))
    assert not trace.diverged


@pytest.mark.parametrize("hidden", [(), (5,)], ids=["linear", "relu"])
def test_diverging_run_matches_frozen_loop(hidden):
    train = blob_data(50, n=60, dim=12)
    test = blob_data(51, n=25, dim=12)
    spec = ModelSpec((12, *hidden, 2))
    cfg = TrainConfig(gamma=0.5, eta=0.0, alpha=1.3, sigma1=3e10, steps=40, eval_interval=3)
    trace = run_training(spec, train, test, cfg, 1.0, RngStream(6))
    frozen = _frozen_run(spec, train, test, cfg, 1.0, RngStream(6))
    assert trace.diverged and frozen.diverged
    assert 0 < len(trace.records) < cfg.steps
    assert trace.records == frozen.records
    assert trace.final_params.tobytes() == frozen.final_params.tobytes()


def test_subordinator_draws_match_frozen_scalar_cms():
    alphas = [float(a) for a in np.linspace(1.6, 2.0, 10)[:-1]]
    mismatches = 0
    for seed in range(10_000):
        new, old = RngStream(seed), RngStream(seed)
        for alpha in alphas:
            a = StableNoise(alpha).mix(*cms_uniforms(new))
            assert type(a) is float
            mismatches += a != _frozen_subordinator(alpha, old)
    assert mismatches == 0


# --- Kernel oracles: the loop's gradient and update against the plain
# numpy lines they compute, byte for byte.


@pytest.mark.parametrize("widths", [(6, 4, 2), (25, 32, 2), (784, 10), (20, 8, 3)])
def test_model_kernel_gradient_matches_plain_numpy(widths):
    spec = ModelSpec(widths)
    data = blob_data(80 + len(widths), n=60, dim=widths[0], classes=widths[-1])
    params = init_params(spec, 1.0, RngStream(7))
    kernel = ModelKernel(spec, data.n)
    grad = kernel.gradient(params, data.features, kernel.row_starts + data.labels)
    want, _ = _frozen_gradient(spec, params, data, np.arange(data.n))
    assert grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha", [1.3, 1.7, 2.0])
@pytest.mark.parametrize("noisy", [True, False])
def test_euler_maruyama_matches_plain_numpy(alpha, noisy):
    gamma, eta, sigma1, sigma2 = 0.05, 0.01, 0.3, 0.07
    cfg = TrainConfig(gamma=gamma, eta=eta, alpha=alpha, sigma1=sigma1, sigma2=sigma2)
    p, g, s, b = RngStream(8).gen.standard_normal((4, 50))
    want = p - gamma * g - (eta * gamma) * p
    if noisy:
        want = (want + (gamma ** (1 / alpha) * sigma1) * s
                + (np.sqrt(2 * gamma) * sigma2) * b)
    else:
        s = b = None
    got = EulerMaruyama(cfg, p.size)(p, g, s, b, np.empty(p.size))
    assert got.tobytes() == want.tobytes()


# --- Exact-law oracle: with a zero gradient and eta > 0 the update is the
# Euler-Maruyama chain of the Levy-driven Ornstein-Uhlenbeck process
# dX = -eta X dt + sigma1 dL + sqrt(2) sigma2 dB, whose law after k steps is
# known in closed form. The chain's characteristic function is
#   exp(i xi . x0 c^k - s^alpha |xi|^alpha - v |xi|^2 / 2),  c = 1 - eta gamma,
# with s^alpha = gamma sigma1^alpha sum_{j<k} c^(alpha j) from the stable
# draws and v = 2 gamma sigma2^2 sum_{j<k} c^(2j) from the Brownian ones.

EXACT_LAW_CHAINS = 20_000
# cos and sin of a law's phase have a standard deviation of at most
# sqrt(0.5), so the empirical characteristic function's parts are off by
# at most sqrt(0.5 / chains) per sd; the oracle allows 5 of those
EXACT_LAW_TOL = 5.0 * math.sqrt(0.5 / EXACT_LAW_CHAINS)


def _exact_law_misfit(x, x0, c, steps, alpha, stable_power, variance):
    """Largest gap between the empirical characteristic function of the
    chains ``x`` and the exact law with s^alpha = ``stable_power``, over a
    few frequencies and both parts."""
    mean = x0 * c**steps
    worst = 0.0
    for xi in (np.array([0.8, 0.0, 0.0]), np.array([0.0, 1.5, -0.5]),
               np.array([1.0, -1.2, 0.6])):
        r = np.linalg.norm(xi)
        modulus = math.exp(-stable_power * r**alpha - 0.5 * variance * r**2)
        cos_part, sin_part = empirical_char_fn(x, xi)
        worst = max(worst, abs(cos_part - modulus * math.cos(xi @ mean)),
                    abs(sin_part - modulus * math.sin(xi @ mean)))
    return worst


def _zero_gradient_chains(gamma, eta, sigma1, sigma2, steps, alphas, x0, seed):
    """EXACT_LAW_CHAINS copies of the update from ``x0`` with a zero
    gradient, ``steps`` steps per alpha; one (chains, dim) array per alpha."""
    chains = EXACT_LAW_CHAINS
    # the chains side by side in one flat vector: the update is coordinate-wise
    d = chains * x0.size
    updates = [EulerMaruyama(TrainConfig(gamma=gamma, eta=eta, alpha=alpha, sigma1=sigma1,
                                         sigma2=sigma2, steps=steps), d) for alpha in alphas]
    noises = [StableNoise(alpha) for alpha in alphas]
    xs = [np.tile(x0, chains) for _ in alphas]
    zero, spare = np.zeros(d), np.empty(d)
    rng = RngStream(seed)
    for _ in range(steps):
        # the noise as run_group composes it: the uniforms and G once for
        # every alpha, then each alpha's scale sqrt(A)
        u, w = cms_uniforms(rng, chains)
        gaussian = rng.gen.standard_normal((chains, x0.size))
        brownian = rng.gen.standard_normal(d) if sigma2 > 0.0 else None
        for i, (update, noise) in enumerate(zip(updates, noises)):
            stable = (np.reshape(noise.scale(u, w), (-1, 1)) * gaussian).reshape(-1)
            xs[i], spare = update(xs[i], zero, stable, brownian, spare), xs[i]
    return [x.reshape(chains, x0.size) for x in xs]


@pytest.mark.parametrize("sigma2", [0.0, 0.3])
def test_zero_gradient_chain_matches_exact_levy_ou_law(sigma2):
    gamma, eta, sigma1, steps = 0.01, 1.0, 0.7, 200
    x0 = np.array([1.0, -0.5, 0.25])
    alphas = (1.3, 1.6, 1.9, 2.0)
    c = 1.0 - eta * gamma
    xs = _zero_gradient_chains(gamma, eta, sigma1, sigma2, steps, alphas, x0, 61)
    variance = 2.0 * gamma * sigma2**2 * sum(c ** (2 * j) for j in range(steps))
    for alpha, x in zip(alphas, xs):
        decay_sum = sum(c ** (alpha * j) for j in range(steps))
        power = gamma * sigma1**alpha * decay_sum
        assert _exact_law_misfit(x, x0, c, steps, alpha, power, variance) < EXACT_LAW_TOL
        if alpha < 2.0:
            # the same statistic rejects a stable term scaled by sqrt(gamma),
            # not gamma^(1/alpha)
            wrong = gamma ** (alpha / 2.0) * sigma1**alpha * decay_sum
            assert _exact_law_misfit(x, x0, c, steps, alpha, wrong, variance) > EXACT_LAW_TOL


@pytest.mark.slow
@pytest.mark.parametrize("eta_gamma", [0.9, 0.01])
def test_zero_gradient_chain_settles_at_its_stationary_law(eta_gamma):
    """Run the chain until (1 - eta gamma)^k < 1e-6, so it has forgotten
    x0, then compare it with two stationary laws: the chain's own,
    scale^alpha = gamma sigma1^alpha / (1 - (1 - eta gamma)^alpha), and the
    continuous-time process's, scale = sigma1 (alpha eta)^(-1/alpha). They
    differ by the chain's O(eta gamma) bias. Exact misfit of the
    continuous law over these alphas and frequencies:
    - eta gamma = 0.01 (1375 steps, the slow case): 0.0006-0.0017, far
      inside the tolerance, so the statistic accepts it;
    - eta gamma = 0.9 (6 steps): 0.077-0.216, over three tolerances, so
      the statistic must read at least twice the tolerance.
    """
    eta, sigma1 = 1.0, 0.7
    gamma, c = eta_gamma / eta, 1.0 - eta_gamma
    steps = math.ceil(math.log(1e-6) / math.log(c))
    alphas = (1.3, 1.6, 1.9, 2.0)
    x0, mean = np.array([1.0, -0.5, 0.25]), np.zeros(3)
    xs = _zero_gradient_chains(gamma, eta, sigma1, 0.0, steps, alphas, x0, 62)
    for alpha, x in zip(alphas, xs):
        stationary = gamma * sigma1**alpha / (1.0 - c**alpha)
        assert _exact_law_misfit(x, mean, c, steps, alpha, stationary, 0.0) < EXACT_LAW_TOL
        continuous = _exact_law_misfit(x, mean, c, steps, alpha, sigma1**alpha / (alpha * eta), 0.0)
        if eta_gamma == 0.01:
            assert continuous < EXACT_LAW_TOL
        else:
            assert continuous >= 2.0 * EXACT_LAW_TOL


# --- The group runner: alphas of one stream trained in lockstep, each
# checked against the frozen loop run alone on a fresh stream of the key.


@pytest.mark.parametrize("sigma2", [0.0, 0.05])
@pytest.mark.parametrize("sigma1", [0.0, 0.3])
@pytest.mark.parametrize("batch_size", [None, 16])
@pytest.mark.parametrize("hidden", [(), (5,)], ids=["linear", "relu"])
def test_run_group_matches_frozen_loop_per_alpha(hidden, batch_size, sigma1, sigma2):
    train = blob_data(32, n=60, dim=12, classes=3)
    test = blob_data(42, n=25, dim=12, classes=3)
    spec = ModelSpec((12, *hidden, 3))
    cfg = TrainConfig(gamma=0.05, eta=0.01, alpha=2.0, sigma1=sigma1, sigma2=sigma2,
                      steps=25, batch_size=batch_size, eval_interval=4)
    alphas = (1.6, 1.95, 2.0)
    traces = run_group(spec, train, test, cfg, alphas, 1.0, RngStream(5, 9))
    assert len(traces) == len(alphas)
    for alpha, trace in zip(alphas, traces):
        alone = replace(cfg, alpha=alpha)
        assert _same(trace, _frozen_run(spec, train, test, alone, 1.0, RngStream(5, 9)))
        assert not trace.diverged


@pytest.mark.parametrize(
    "hidden, sigma1, diverged",
    [((), 3e10, [True, True, False, False]),
     ((5,), 1e10, [True, False, False, False]),
     ((5,), 3e10, [True, True, True, True])],
    ids=["linear-mixed", "relu-mixed", "relu-all"],
)
def test_run_group_diverging_alphas_match_frozen_loop(hidden, sigma1, diverged):
    # a run that diverges stops; the others go on drawing the same stream
    train = blob_data(50, n=60, dim=12)
    test = blob_data(51, n=25, dim=12)
    spec = ModelSpec((12, *hidden, 2))
    cfg = TrainConfig(gamma=0.5, eta=0.0, alpha=2.0, sigma1=sigma1, steps=40, eval_interval=3)
    alphas = (1.3, 1.6, 1.95, 2.0)
    traces = run_group(spec, train, test, cfg, alphas, 1.0, RngStream(6))
    assert [t.diverged for t in traces] == diverged
    for alpha, trace in zip(alphas, traces):
        frozen = _frozen_run(spec, train, test, replace(cfg, alpha=alpha), 1.0, RngStream(6))
        assert trace.diverged == frozen.diverged
        assert trace.records == frozen.records
        assert trace.final_params.tobytes() == frozen.final_params.tobytes()


@pytest.mark.parametrize("after", [0, 4, 7, 21, 39, 40])
@pytest.mark.parametrize(
    "hidden, batch_size, sigma1",
    [((), None, 3e10), ((5,), 16, 3e9)],
    ids=["linear-full", "relu-batch16"],
)
def test_after_k_trace_has_one_record_per_step_and_evals_above_k(hidden, batch_size, sigma1,
                                                                 after):
    # 1.3 and 1.6 diverge at step 6; only the eval steps above k are evaluated
    train = blob_data(50, n=60, dim=12)
    test = blob_data(51, n=25, dim=12)
    spec = ModelSpec((12, *hidden, 2))
    cfg = TrainConfig(gamma=0.5, eta=0.0, alpha=2.0, sigma1=sigma1, steps=40, eval_interval=3,
                      batch_size=batch_size)
    alphas = (1.3, 1.6, 1.95, 2.0)
    every_eval = run_group(spec, train, test, cfg, alphas, 1.0, RngStream(6))
    traces = run_group(spec, train, test, cfg, alphas, 1.0, RngStream(6), after=after)
    assert [t.diverged for t in traces] == [True, True, False, False]
    for trace, whole in zip(traces, every_eval):
        steps = len(whole.grad_sq)
        assert [r.step for r in trace.records] == list(range(1, steps + 1))
        assert trace.grad_sq.tolist() == whole.grad_sq.tolist()
        assert not trace.grad_sq.flags.writeable
        evaluated = [r.step for r in trace.records if r.train_error is not None]
        assert evaluated == [r.step for r in trace.records if r.test_error is not None]
        assert evaluated == [k for k in range(after + 1, steps + 1)
                             if k % 3 == 0 or k == cfg.steps]
        assert [e[0] for e in trace.evals] == evaluated
        assert trace.evals == tuple(e for e in whole.evals if e[0] > after)
        assert (trace.final_params.tobytes(), trace.diverged) == (
            whole.final_params.tobytes(), whole.diverged)


@pytest.mark.parametrize("hidden", [(), (5,)], ids=["linear", "relu"])
def test_full_batch_run_ignores_train_feature_layout(hidden):
    # a C-ordered train set is used as it is, any other layout as a C copy
    train = blob_data(60, n=50, dim=8, classes=3)
    test = blob_data(61, n=20, dim=8, classes=3)
    fortran = Dataset(np.asfortranarray(train.features), train.labels, train.num_classes)
    assert not fortran.features.flags.c_contiguous
    spec = ModelSpec((8, *hidden, 3))
    cfg = TrainConfig(gamma=0.05, eta=0.01, alpha=2.0, sigma1=0.3, sigma2=0.05,
                      steps=30, eval_interval=4)
    alphas = (1.6, 2.0)
    want = run_group(spec, train, test, cfg, alphas, 1.0, RngStream(3))
    got = run_group(spec, fortran, test, cfg, alphas, 1.0, RngStream(3))
    assert all(_same(a, b) for a, b in zip(got, want, strict=True))
    assert all(t.records for t in want)


# --- The eval helper: run_group hands each eval step to one helper thread
# and goes on training; it must evaluate the parameters of the step, keep
# the evals in step order and leave no thread behind.


def _slow_error_rates(monkeypatch, seconds=0.02):
    """Make every eval wait before it reads its parameters, so the training
    loop runs ahead of it by the steps to the next eval step."""
    real = ModelKernel.error_rates

    def error_rates(self, params_list, x, labels):
        time.sleep(seconds)
        return real(self, params_list, x, labels)

    monkeypatch.setattr(ModelKernel, "error_rates", error_rates)


@pytest.mark.parametrize(
    "hidden, batch_size, sigma1, diverged",
    [((5,), None, 1e10, [True, False, False, False]),
     ((5,), 16, 3e9, [True, True, False, False])],
    ids=["relu-full", "relu-batch16"],
)
def test_slow_eval_still_matches_frozen_loop_per_alpha(monkeypatch, hidden, batch_size, sigma1,
                                                       diverged):
    # each eval sleeps while the loop takes the steps up to the next eval
    # step, whose updates overwrite the arrays of the evaluated parameters:
    # an eval that read the runs' arrays instead of a snapshot taken before
    # the step's update would see later parameters
    train = blob_data(50, n=60, dim=12)
    test = blob_data(51, n=25, dim=12)
    spec = ModelSpec((12, *hidden, 2))
    cfg = TrainConfig(gamma=0.5, eta=0.0, alpha=2.0, sigma1=sigma1, steps=40, eval_interval=3,
                      batch_size=batch_size)
    alphas = (1.3, 1.6, 1.95, 2.0)
    _slow_error_rates(monkeypatch)
    traces = run_group(spec, train, test, cfg, alphas, 1.0, RngStream(6))
    assert [t.diverged for t in traces] == diverged
    for alpha, trace in zip(alphas, traces):
        frozen = _frozen_run(spec, train, test, replace(cfg, alpha=alpha), 1.0, RngStream(6))
        assert _same(trace, frozen)
        assert trace.evals


def test_group_matches_frozen_loop_under_a_short_switch_interval():
    # the interpreter switches threads every microsecond, so the helper's
    # eval interleaves with every step's updates at a fine grain
    train, test = blob_data(56, n=60, dim=12, classes=3), blob_data(57, n=25, dim=12, classes=3)
    spec = ModelSpec((12, 5, 3))
    cfg = TrainConfig(gamma=0.05, eta=0.01, alpha=2.0, sigma1=0.3, sigma2=0.05, steps=60,
                      batch_size=16, eval_interval=2)
    alphas = (1.3, 1.6, 1.95, 2.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        traces = _run_within(60, lambda: run_group(spec, train, test, cfg, alphas, 1.0,
                                                   RngStream(8)))
    finally:
        sys.setswitchinterval(interval)
    for alpha, trace in zip(alphas, traces):
        frozen = _frozen_run(spec, train, test, replace(cfg, alpha=alpha), 1.0, RngStream(8))
        assert _same(trace, frozen)


def _run_within(seconds, fn):
    """``fn()``'s result or exception, failing if it takes over ``seconds``."""
    outcome = []

    def call():
        try:
            outcome.append(("ok", fn()))
        except BaseException as exc:  # re-raised in the test's thread
            outcome.append(("error", exc))

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(seconds)
    assert not caller.is_alive(), f"run_group did not return within {seconds} s"
    kind, value = outcome[0]
    if kind == "error":
        raise value
    return value


@pytest.mark.parametrize("sigma1, diverged", [(0.3, [False, False]), (1e14, [True, True])],
                         ids=["normal", "all-diverged"])
def test_no_thread_outlives_run_group(sigma1, diverged):
    train, test = blob_data(52, n=60, dim=12), blob_data(53, n=25, dim=12)
    cfg = TrainConfig(gamma=0.05, eta=0.0, alpha=2.0, sigma1=sigma1, steps=30, eval_interval=1)
    before = threading.active_count()
    traces = run_group(ModelSpec((12, 5, 2)), train, test, cfg, (1.5, 2.0), 1.0, RngStream(7))
    assert threading.active_count() == before
    assert [t.diverged for t in traces] == diverged
    assert all(t.evals for t in traces)


@pytest.mark.parametrize("failing_call", [1, 6])
def test_eval_exception_reaches_the_caller(monkeypatch, failing_call):
    # the first eval, or one in mid-run while the loop trains ahead of it
    train, test = blob_data(54, n=60, dim=12), blob_data(55, n=25, dim=12)
    cfg = TrainConfig(gamma=0.05, eta=0.0, alpha=2.0, sigma1=0.3, steps=30, eval_interval=2,
                      batch_size=16)
    calls, real = [0], ModelKernel.error_rates

    def error_rates(self, params_list, x, labels):
        calls[0] += 1
        if calls[0] == failing_call:
            raise RuntimeError("eval failed")
        return real(self, params_list, x, labels)

    monkeypatch.setattr(ModelKernel, "error_rates", error_rates)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="eval failed"):
        _run_within(60, lambda: run_group(ModelSpec((12, 2)), train, test, cfg, (1.5, 2.0)))
    assert threading.active_count() == before
