"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime (run with ``pytest -s`` to see them inline).

The final criterion is qualitative: it checks the committed reference
run's report rather than re-running the ~minutes-long grid;
reference/RUN_LOG.md has the recipe that regenerates it.
"""

import csv
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from levybound import (
    BoundInputs,
    Dataset,
    ModelSpec,
    RngStream,
    TrainConfig,
    RecordTable,
    RunRecord,
    alpha_regression,
    bound_estimate,
    discrete_prefactor,
    init_params,
    k_alpha_d,
    kendall_tau,
    mix64,
    p_alpha,
    run_training,
    sample_isotropic_stable,
    sphere_area,
    stable_levy_constant,
    surrogate_loss_and_grad,
)

from helpers import empirical_char_fn

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "reference"


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s < {budget_seconds:g}s): {label}")


def test_01_prefactor_endpoints_and_monotonicity():
    with criterion(1, "P(1), P(2), monotone decreasing prefactor", 1.0):
        assert p_alpha(1.0) == pytest.approx(1.2533, abs=1e-3)
        assert p_alpha(2.0) == 0.5
        grid = [1.0 + 0.01 * i for i in range(100)]
        values = [p_alpha(a) for a in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.5 <= v <= math.sqrt(math.pi / 2) for v in values)


def test_02_light_tail_limit_of_k():
    with criterion(2, "K(2-1e-4, d, 1) = 0.5 +/- 1e-2 across d", 1.0):
        for d in (1, 10, 10**3, 10**6):
            assert k_alpha_d(2.0 - 1e-4, d, 1.0) == pytest.approx(0.5, abs=1e-2)


def test_03_large_dimension_asymptote():
    with criterion(3, "K_bar ~ P(alpha) d^(1-alpha/2) at d = 1e5", 1.0):
        d = 10**5
        for alpha in (1.2, 1.5, 1.8):
            ratio = k_alpha_d(alpha, d, 1.0) / (p_alpha(alpha) * d ** (1 - alpha / 2))
            assert abs(ratio - 1.0) <= 0.01


def test_04_cross_identity():
    with criterion(4, "K C sigma R^(2-alpha) = d (2-alpha) to 1e-10", 1.0):
        radius = 1.7
        for alpha in (1.1, 1.3, 1.5, 1.7, 1.9):
            for d in (1, 5, 20, 100, 300):
                product = (
                    k_alpha_d(alpha, d, radius)
                    * stable_levy_constant(alpha, d)
                    * sphere_area(d)
                    * radius ** (2 - alpha)
                )
                assert product == pytest.approx(d * (2 - alpha), rel=1e-10)


def test_05_stable_sampler_characteristic_function():
    with criterion(5, "ECF within 0.005 of exp(-||xi||^alpha), N=1e6", 60.0):
        n = 10**6
        for alpha in (1.2, 1.5, 1.8, 2.0):
            for dim in (1, 3, 10):
                rng = RngStream(2024, int(alpha * 100) * 1000 + dim)
                draws = sample_isotropic_stable(alpha, dim, rng, size=n)
                freq_rng = RngStream(7, dim)
                for norm in (0.25, 0.6, 1.0, 1.5, 2.0):
                    xi = freq_rng.gen.standard_normal(dim)
                    xi *= norm / np.linalg.norm(xi)
                    cos_part, sin_part = empirical_char_fn(draws, xi)
                    assert abs(cos_part - math.exp(-(norm**alpha))) <= 0.005
                    assert abs(sin_part) <= 0.005


def test_06_gaussian_endpoint_variance():
    with criterion(6, "alpha=2 draws have per-coordinate variance 2 +/- 0.02", 10.0):
        draws = sample_isotropic_stable(2.0, 3, RngStream(31), size=10**6)
        for v in draws.var(axis=0):
            assert v == pytest.approx(2.0, abs=0.02)


def _finite_difference(spec, params, data, idx, h=1e-5):
    grad = np.zeros_like(params)
    for i in range(params.size):
        up, down = params.copy(), params.copy()
        up[i] += h
        down[i] -= h
        l_up, _ = surrogate_loss_and_grad(spec, up, data, idx)
        l_down, _ = surrogate_loss_and_grad(spec, down, data, idx)
        grad[i] = (l_up - l_down) / (2 * h)
    return grad


def test_07_gradient_oracle():
    with criterion(7, "backprop matches central differences to 1e-5", 10.0):
        for widths in ((784, 10), (8, 8, 4)):
            for seed in range(5):
                spec = ModelSpec(widths)
                rng = RngStream(seed, widths[0])
                features = rng.gen.standard_normal((3, widths[0]))
                labels = rng.gen.integers(0, widths[-1], size=3).astype(np.int64)
                data = Dataset(features, labels, widths[-1])
                params = init_params(spec, 1.0, rng)
                idx = np.arange(3)
                _, grad = surrogate_loss_and_grad(spec, params, data, idx)
                fd = _finite_difference(spec, params, data, idx)
                scale = max(np.abs(grad).max(), np.abs(fd).max())
                assert np.abs(grad - fd).max() / scale <= 1e-5


def test_08_noise_free_run_is_gradient_descent():
    with criterion(8, "sigma=0 run equals independent GD loop bit-exactly", 5.0):
        rng = RngStream(77)
        features = rng.gen.standard_normal((100, 10))
        labels = rng.gen.integers(0, 3, size=100).astype(np.int64)
        train = Dataset(features, labels, 3)
        test = Dataset(features[:20], labels[:20], 3)
        spec = ModelSpec((10, 3))
        cfg = TrainConfig(
            gamma=0.05, eta=0.002, alpha=1.5, sigma1=0.0, sigma2=0.0,
            steps=1000, eval_interval=200, seed=5,
        )
        trace = run_training(spec, train, test, cfg, init_scale=1.0)

        # plain numpy softmax regression, on the run's stream
        oracle_rng = RngStream(cfg.seed, mix64(0, 0))
        w = init_params(spec, 1.0, oracle_rng)
        for _ in range(cfg.steps):
            logits = features @ w.reshape(10, 3)
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            delta = np.exp(log_p)
            delta[np.arange(train.n), labels] -= 1.0
            delta /= train.n
            g = (features.T @ delta).reshape(-1)
            w = w - cfg.gamma * g - cfg.eta * cfg.gamma * w
        assert trace.final_params.tobytes() == w.tobytes()
        assert not trace.diverged


def test_09_discrete_prefactor_asymptote():
    with criterion(9, "Delta/gamma -> 1 at gamma*eta = 1e-6", 1.0):
        gamma, eta = 1e-3, 1e-3
        for alpha in (1.2, 1.8, 2.0):
            assert abs(discrete_prefactor(gamma, eta, alpha) / gamma - 1.0) <= 1e-3


def test_10_tail_index_regression_exact():
    with criterion(10, "alpha_hat = alpha on noiseless power-law gaps", 1.0):
        for alpha in (1.2, 1.6, 1.9):
            records = RecordTable.from_records(
                RunRecord(alpha, 0.01, d, 0, 500, 0, d ** (0.5 - alpha / 4), 1.0, 1.0, False)
                for d in (100, 1000, 10000)
            )
            _, _, alpha_hat = alpha_regression(records)
            assert alpha_hat == pytest.approx(alpha, abs=1e-10)


def test_11_kendall_tau_equals_brute_force():
    with criterion(11, "tau-b equals O(n^2) concordance count exactly", 5.0):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.integers(0, 15, size=200).astype(float).tolist()
            y = rng.integers(0, 15, size=200).astype(float).tolist()
            num = 0
            for i in range(200):
                for j in range(i + 1, 200):
                    a = (x[i] > x[j]) - (x[i] < x[j])
                    b = (y[i] > y[j]) - (y[i] < y[j])
                    num += a * b
            n0 = 200 * 199 // 2

            def tie_sum(v):
                _, counts = np.unique(v, return_counts=True)
                return int((counts * (counts - 1) // 2).sum())

            brute = num / math.sqrt((n0 - tie_sum(x)) * (n0 - tie_sum(y)))
            assert kendall_tau(x, y) == brute


def test_12_bound_level_phase_transition():
    with criterion(12, "G_hat endpoint comparison flips across 1/sqrt(2 pi)", 1.0):
        d, i_hat = 100, 1.0
        signs = {}
        for ratio in (0.3, 0.5):
            sigma1 = ratio / math.sqrt(d)
            lo = bound_estimate(i_hat, BoundInputs(alpha=1.01, d=d, n=500, sigma1=sigma1))
            hi = bound_estimate(i_hat, BoundInputs(alpha=1.99, d=d, n=500, sigma1=sigma1))
            signs[ratio] = math.copysign(1.0, hi - lo)
        assert signs[0.3] == 1.0 and signs[0.5] == -1.0
        assert 0.3 < 1.0 / math.sqrt(2 * math.pi) < 0.5


def _report_taus(report_path):
    with open(report_path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert all(r["group_key"] == "sigma1" for r in rows)
    return {float(r["group"]): float(r["tau_mean_gap"]) for r in rows}


def test_13_reference_phase_transition_report():
    # qualitative, desk scale: the committed reference run's tau of the
    # seed-averaged gap must carry opposite signs between the two sigma groups
    report = REFERENCE_DIR / "phase_transition_report.csv"
    assert report.exists(), "committed reference report is missing"
    taus = _report_taus(report)
    assert len(taus) == 2
    heavy_sigma, light_sigma = sorted(taus)
    heavy_tau, light_tau = taus[heavy_sigma], taus[light_sigma]
    print(
        f"ACCEPTANCE 13 PASS (reference run): tau[sigma1*sqrt(d)=0.1] = {heavy_tau:+.3f}, "
        f"tau[sigma1*sqrt(d)=10] = {light_tau:+.3f}"
    )
    assert heavy_tau > 0.0 > light_tau, "reference report lost the sign split"
