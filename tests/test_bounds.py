import math

import numpy as np
import pytest

from levybound import (
    BoundInputs,
    RunTrace,
    TrainConfig,
    bound_estimate,
    brownian_bound,
    discrete_bound,
    integral_estimate,
    k_alpha_d,
    p_alpha,
    stable_bound,
)
from levybound.constants import REFINED_THRESHOLD
from levybound.errors import DivergedTraceError, InvalidParameterError

ZETA_E = 3.0 / math.e  # log(3/zeta) = 1


def make_trace(grad_sqs, gamma=0.1, diverged=False):
    cfg = TrainConfig(gamma=gamma, eta=0.001, alpha=1.5, sigma1=0.1, steps=max(len(grad_sqs), 1))
    return RunTrace(cfg, np.array(grad_sqs, dtype=float), (), 0, diverged)


def inputs(**kw):
    base = dict(alpha=1.5, d=10, n=100, sigma1=0.5, gamma=0.01, eta=0.001)
    base.update(kw)
    return BoundInputs(**base)


class TestIntegralEstimate:
    def test_zero_gradients(self):
        assert integral_estimate(make_trace([0.0, 0.0, 0.0])) == 0.0

    def test_hand_value(self):
        assert integral_estimate(make_trace([1.0, 4.0, 9.0], gamma=0.1)) == pytest.approx(
            1.4, rel=1e-14
        )

    def test_additive_over_halves(self):
        first, second = [0.5, 2.5, 1.25], [3.0, 0.125]
        total = integral_estimate(make_trace(first + second))
        assert total == pytest.approx(
            integral_estimate(make_trace(first)) + integral_estimate(make_trace(second)),
            rel=1e-14,
        )

    def test_diverged_trace_rejected(self):
        with pytest.raises(DivergedTraceError):
            integral_estimate(make_trace([1.0], diverged=True))


class TestBoundEstimate:
    def test_zero_integral(self):
        assert bound_estimate(0.0, inputs()) == 0.0

    def test_hand_value_alpha_one(self):
        n = 250
        got = bound_estimate(float(n), inputs(alpha=1.0, d=1, sigma1=1.0, n=n))
        assert got == pytest.approx(math.sqrt(p_alpha(1.0)), rel=1e-12)
        assert got == pytest.approx(1.1195, abs=1e-4)

    def test_inverse_sqrt_n_scaling_exact(self):
        i_hat = 3.7
        assert bound_estimate(i_hat, inputs(n=400)) == bound_estimate(i_hat, inputs(n=100)) / 2.0

    def test_sqrt_homogeneity_in_integral(self):
        i_hat = 0.9
        assert bound_estimate(4.0 * i_hat, inputs()) == pytest.approx(
            2.0 * bound_estimate(i_hat, inputs()), rel=1e-14
        )

    def test_sigma1_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            bound_estimate(1.0, inputs(sigma1=0.0))


class TestStableBound:
    def test_hand_value_confidence_term(self):
        got = stable_bound(0.0, inputs(n=100, zeta=ZETA_E, lam=0.0))
        assert got == pytest.approx(0.1, rel=1e-12)

    def test_monotonicities(self):
        base = inputs()
        assert stable_bound(2.0, base) > stable_bound(1.0, base)
        assert stable_bound(1.0, inputs(lam=5.0)) > stable_bound(1.0, inputs(lam=0.0))
        assert stable_bound(1.0, inputs(zeta=0.01)) > stable_bound(1.0, inputs(zeta=0.1))

    def test_zeta_halved_strictly_increases(self):
        assert stable_bound(1.0, inputs(zeta=0.025)) > stable_bound(1.0, inputs(zeta=0.05))

    def test_alpha_two_uses_limit_constant(self):
        got = stable_bound(1.0, inputs(alpha=2.0, zeta=ZETA_E))
        want = 2 * 0.5 * math.sqrt(0.5 * 1.0 / (100 * 0.5**2) + 1.0 / 100)
        assert got == pytest.approx(want, rel=1e-12)


class TestBrownianBound:
    def test_reduction_at_zero_integral(self):
        got = brownian_bound(0.0, inputs(sigma2=1.0, zeta=0.05))
        assert got == pytest.approx(0.5 * 2 * math.sqrt(math.log(3 / 0.05) / 100), rel=1e-12)

    def test_sigma2_doubling_decreases(self):
        assert brownian_bound(1.0, inputs(sigma2=2.0)) < brownian_bound(1.0, inputs(sigma2=1.0))

    def test_numeric_spot(self):
        got = brownian_bound(1.0, inputs(sigma2=1.0, n=100, zeta=ZETA_E, lam=0.0))
        assert got == pytest.approx(0.5 * math.sqrt(0.05), rel=1e-12)
        assert got == pytest.approx(0.11180, abs=1e-5)

    def test_sigma2_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            brownian_bound(1.0, inputs(sigma2=0.0))


class TestDiscreteBound:
    def test_zero_gradients(self):
        got = discrete_bound(0.0, inputs(zeta=ZETA_E, lam=0.0))
        assert got == pytest.approx(2 * 0.5 * math.sqrt(1.0 / 100), rel=1e-12)

    def test_prefactor_term_matches_integral_at_tiny_gamma_eta(self):
        # as gamma*eta -> 0 the Delta-weighted sum approaches gamma * sum
        trace = make_trace([1.0, 2.0, 3.0], gamma=1e-3)
        inp = inputs(gamma=1e-3, eta=1e-3)
        from levybound.constants import discrete_prefactor

        delta_term = discrete_prefactor(inp.gamma, inp.eta, inp.alpha) * 6.0
        assert delta_term == pytest.approx(integral_estimate(trace), rel=1e-3)

    def test_gradient_sum_is_i_hat_over_gamma(self):
        # the trace's I_hat gives the bound on its own gradient sum, 1 + 4 + 9
        from levybound.constants import discrete_prefactor

        inp = inputs(gamma=0.1, zeta=ZETA_E, lam=0.0)
        i_hat = integral_estimate(make_trace([1.0, 4.0, 9.0], gamma=0.1))
        k = k_alpha_d(inp.alpha, inp.d, inp.radius)
        delta = discrete_prefactor(inp.gamma, inp.eta, inp.alpha)
        want = 2 * 0.5 * math.sqrt(k / 0.5**1.5 * delta * 14.0 + 1.0 / 100)
        assert discrete_bound(i_hat, inp) == pytest.approx(want, rel=1e-14)

    def test_monotone_in_gradient_sum(self):
        assert discrete_bound(0.05, inputs()) > discrete_bound(0.01, inputs())

    def test_diverged_rejected(self):
        # a diverged row's i_hat is NaN
        with pytest.raises(InvalidParameterError, match="i_hat must be >= 0, got nan"):
            discrete_bound(math.nan, inputs())


@pytest.mark.parametrize("bound", [bound_estimate, stable_bound, brownian_bound, discrete_bound])
@pytest.mark.parametrize("i_hat", [math.nan, -1.0])
def test_every_bound_refuses_a_bad_i_hat(bound, i_hat):
    with pytest.raises(InvalidParameterError, match="i_hat must be >= 0"):
        bound(i_hat, inputs(sigma2=1.0))


class TestValidation:
    def test_bound_inputs_validate(self):
        inputs(zeta=0.05).validate()
        for bad in (dict(zeta=0.0), dict(zeta=1.0), dict(zeta=3.0), dict(n=0), dict(s=0.0), dict(lam=-1.0)):
            with pytest.raises(InvalidParameterError):
                inputs(**bad).validate()


class TestAlgebraicConsistency:
    def test_full_bound_vs_estimator_identity(self):
        # with Lambda = 0 and log(3/zeta) = 0 (zeta = 3 bypasses validation
        # on purpose), stable_bound = 2 s sqrt(K R^(2-alpha) / (P d^(1-alpha/2))) G_hat
        for alpha in (1.2, 1.5, 1.9):
            for d in (3, 50, 400):
                inp = inputs(alpha=alpha, d=d, sigma1=0.7, radius=2.0, zeta=3.0, lam=0.0)
                i_hat = 1.7
                g_hat = bound_estimate(i_hat, inp)
                k = k_alpha_d(alpha, d, inp.radius)
                factor = 2 * inp.s * math.sqrt(
                    k * inp.radius ** (2 - alpha) / (p_alpha(alpha) * d ** (1 - alpha / 2))
                )
                assert stable_bound(i_hat, inp) == pytest.approx(factor * g_hat, rel=1e-10)

    def test_phase_transition_endpoint_sign(self):
        # with I_hat, d, n, R fixed, the alpha -> 2 vs alpha -> 1 comparison of
        # G_hat flips exactly at sigma1 sqrt(d/R^2) = 1/sqrt(2 pi)
        d, radius, i_hat = 100, 1.0, 1.0
        for ratio in (0.1, 0.3, 0.39):
            sigma1 = ratio / math.sqrt(d)
            lo = bound_estimate(i_hat, inputs(alpha=1.0, d=d, sigma1=sigma1, radius=radius))
            hi = bound_estimate(i_hat, inputs(alpha=2.0, d=d, sigma1=sigma1, radius=radius))
            assert hi > lo, f"heavy side at ratio {ratio}"
        for ratio in (0.41, 0.5, 10.0):
            sigma1 = ratio / math.sqrt(d)
            lo = bound_estimate(i_hat, inputs(alpha=1.0, d=d, sigma1=sigma1, radius=radius))
            hi = bound_estimate(i_hat, inputs(alpha=2.0, d=d, sigma1=sigma1, radius=radius))
            assert hi < lo, f"light side at ratio {ratio}"
        assert 0.39 < REFINED_THRESHOLD < 0.41

    def test_bounds_nonnegative_finite(self):
        for i_hat in (0.0, 1e-8, 1.0, 1e8):
            for inp in (inputs(), inputs(alpha=1.99, d=10**6), inputs(alpha=2.0)):
                v = stable_bound(i_hat, inp)
                assert v >= 0.0 and math.isfinite(v)
                v = bound_estimate(i_hat, inp)
                assert v >= 0.0 and math.isfinite(v)
