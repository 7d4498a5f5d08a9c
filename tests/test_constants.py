import math
import sys

import numpy as np
import pytest

from levybound import (
    REFINED_THRESHOLD,
    comparison_rate,
    discrete_prefactor,
    k_alpha_d,
    log_gamma,
    p_alpha,
    phase_regime,
    sphere_area,
    stable_levy_constant,
)
from levybound.constants import log_k_alpha_d, log_sphere_area, log_stable_levy_constant
from levybound.errors import InvalidParameterError


class TestLogGamma:
    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-12)

    def test_factorial(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-12)

    def test_one_is_zero(self):
        assert abs(log_gamma(1.0)) < 1e-13

    def test_domain(self):
        for x in (0.0, -1.0, -0.5):
            with pytest.raises(InvalidParameterError):
                log_gamma(x)

    def test_accuracy_against_stdlib(self):
        # sweep (0.001, 5e6); relative budget 1e-12 away from the zeros of
        # ln Gamma, absolute there (stdlib lgamma is the independent oracle)
        rng = np.random.default_rng(0)
        xs = np.exp(rng.uniform(math.log(1e-3), math.log(5e6), size=20_000))
        for x in xs:
            ours, ref = log_gamma(float(x)), math.lgamma(float(x))
            if abs(ref) >= 0.1:
                assert abs(ours - ref) <= 1e-12 * abs(ref)
            else:
                assert abs(ours - ref) <= 1e-13


class TestLevyMeasureConstant:
    def test_hand_value_d1(self):
        # alpha=1, d=1: 1 * 2^0 * pi^(-1/2) * Gamma(1) / Gamma(1/2) = 1/pi
        assert stable_levy_constant(1.0, 1) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_vanishes_toward_gaussian_limit(self):
        # Gamma(1 - alpha/2) sits in the denominator, so its pole at
        # alpha = 2 kills the jump measure: C -> 0, monotonically here.
        # (Consistent with K -> 1/2 through the cross-identity, where the
        # (2 - alpha) factor also vanishes.)
        assert stable_levy_constant(1.999, 5) < stable_levy_constant(1.9, 5)
        ref = math.exp(
            math.log(1.999)
            + 0.999 * math.log(2)
            - 2.5 * math.log(math.pi)
            + math.lgamma((1.999 + 5) / 2)
            - math.lgamma(1 - 1.999 / 2)
        )
        assert stable_levy_constant(1.999, 5) == pytest.approx(ref, rel=1e-10)

    def test_against_lgamma_oracle(self):
        alpha, d = 1.0, 3
        ref = math.exp(
            math.log(alpha)
            + (alpha - 1) * math.log(2)
            - d / 2 * math.log(math.pi)
            + math.lgamma((alpha + d) / 2)
            - math.lgamma(1 - alpha / 2)
        )
        assert stable_levy_constant(alpha, d) == pytest.approx(ref, rel=1e-10)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            stable_levy_constant(2.0, 3)
        with pytest.raises(InvalidParameterError):
            stable_levy_constant(0.0, 3)


class TestSphereArea:
    def test_circle(self):
        assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_sphere(self):
        assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-12)

    def test_two_endpoints(self):
        assert sphere_area(1) == pytest.approx(2.0, rel=1e-12)


class TestKAlphaD:
    @pytest.mark.parametrize("d", [1, 10, 1000])
    def test_light_tail_limit(self, d):
        assert k_alpha_d(2.0 - 1e-4, d, 1.0) == pytest.approx(0.5, abs=1e-2)

    def test_r_scaling_gives_k_bar(self):
        alpha, d = 1.4, 50
        for radius in (0.5, 1.0, 3.0, 10.0):
            assert k_alpha_d(alpha, d, radius) * radius ** (2 - alpha) == pytest.approx(
                k_alpha_d(alpha, d, 1.0), rel=1e-12
            )

    def test_large_d_asymptote(self):
        d = 10**5
        assert k_alpha_d(1.5, d, 1.0) == pytest.approx(
            p_alpha(1.5) * d**0.25, rel=0.01
        )

    def test_domain(self):
        for bad in ((1.0, 5, 1.0), (2.0, 5, 1.0), (1.5, 0, 1.0), (1.5, 5, 0.0)):
            with pytest.raises(InvalidParameterError):
                k_alpha_d(*bad)

    def test_continuity_in_alpha(self):
        for d in (1, 10, 1000):
            for alpha in np.linspace(1.01, 1.99, 25):
                k0 = k_alpha_d(float(alpha), d, 1.0)
                k1 = k_alpha_d(float(alpha) + 1e-6, d, 1.0)
                assert abs(k1 - k0) <= 1e-3 * k0


class TestPAlpha:
    def test_left_endpoint(self):
        assert p_alpha(1.0) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)
        assert p_alpha(1.0) == pytest.approx(1.2533, abs=1e-4)

    def test_right_limit(self):
        assert p_alpha(2.0) == 0.5

    def test_between_and_decreasing(self):
        assert 0.5 < p_alpha(1.5) < 1.2533141373155003
        assert p_alpha(1.4) > p_alpha(1.5) > p_alpha(1.6)

    def test_monotone_grid(self):
        grid = [1.0 + 0.01 * i for i in range(100)]
        values = [p_alpha(a) for a in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.5 <= v <= math.sqrt(math.pi / 2) for v in values)

    def test_domain(self):
        for bad in (0.9, 2.1):
            with pytest.raises(InvalidParameterError):
                p_alpha(bad)


class TestDiscretePrefactor:
    def test_small_product_approaches_gamma(self):
        gamma = 1e-3
        assert discrete_prefactor(gamma, 1e-3, 1.8) == pytest.approx(gamma, rel=1e-3)

    def test_ratio_monotone_to_one(self):
        gamma = 1.0
        ratios = [
            discrete_prefactor(gamma, eta, 1.5) / gamma for eta in (1e-2, 1e-4, 1e-6)
        ]
        deviations = [abs(r - 1.0) for r in ratios]
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[2] < 1e-5

    def test_closed_form_cross_check(self):
        gamma, eta, alpha = 0.01, 0.001, 2.0
        x = gamma * eta
        direct = (1 / x) * math.log(1 / (1 - x)) * (1 - (1 - x) ** alpha) / (alpha * eta)
        assert discrete_prefactor(gamma, eta, alpha) == pytest.approx(direct, rel=1e-12)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            discrete_prefactor(1.0, 1.0, 1.5)
        with pytest.raises(InvalidParameterError):
            discrete_prefactor(1.0, 0.0, 1.5)


class TestComparisonRate:
    def test_rate_ratios(self):
        _, xi_ours, xi_prior = comparison_rate(1.5, 10)
        assert xi_ours == 0.25 and xi_prior == 1.25

    def test_rate_ratio_endpoints(self):
        _, xi_ours, xi_prior = comparison_rate(2.0 - 1e-9, 10)
        assert xi_ours == pytest.approx(0.0, abs=1e-8)
        assert xi_prior == pytest.approx(1.5, abs=1e-8)

    def test_dimension_growth_rate(self):
        alpha = 1.5
        scaled = [
            comparison_rate(alpha, d)[0] / d ** ((1 + alpha) / 2)
            for d in (10**2, 10**3, 10**4, 10**5)
        ]
        for a, b in zip(scaled, scaled[1:]):
            assert abs(b / a - 1.0) < 0.01


def test_mixing_and_prior_constants_against_scipy_gammaln():
    # oracle: the defining Gamma-ratio formulas, built from scipy's gammaln
    gammaln = pytest.importorskip("scipy.special").gammaln

    def log_k(alpha, d, radius):
        return (
            math.log(2.0 - alpha) + gammaln(1.0 - alpha / 2.0) + math.log(d)
            + gammaln(0.5 * d) - math.log(alpha) - alpha * math.log(2.0)
            - gammaln((d + alpha) / 2.0) - (2.0 - alpha) * math.log(radius)
        )

    for alpha in np.linspace(1.01, 1.999, 12):
        for d in (1, 2, 3, 10, 864, 7840, 10**5):
            prior = math.exp(
                0.5 * math.log(d) + gammaln((alpha + d) / 2.0) - math.log(2.0 - alpha)
                - gammaln(1.0 - alpha / 2.0) - gammaln(0.5 * d)
            )
            assert comparison_rate(alpha, d)[0] == pytest.approx(prior, rel=1e-9)
            for radius in (1.0, 2.5):
                k = math.exp(log_k(alpha, d, radius))
                assert k_alpha_d(alpha, d, radius) == pytest.approx(k, rel=1e-9)


class TestPhaseRegime:
    def test_heavy(self):
        assert phase_regime(0.01, 100, 1.0) == ("Heavy", "HeavyRefined")

    def test_light(self):
        assert phase_regime(1.0, 100, 1.0) == ("Light", "LightRefined")

    def test_between_thresholds(self):
        assert phase_regime(0.05, 100, 1.0) == ("Heavy", "LightRefined")

    @pytest.mark.parametrize("sigma1, radius", [(math.nan, 1.0), (0.0, 1.0), (-0.1, 1.0),
                                                (0.1, math.nan), (0.1, 0.0), (0.1, -1.0)])
    def test_rejects_a_geometry_that_is_not_positive(self, sigma1, radius):
        with pytest.raises(InvalidParameterError, match="positive sigma1"):
            phase_regime(sigma1, 100, radius)


class TestCrossIdentity:
    def test_linear_space_grid(self):
        for alpha in (1.1, 1.3, 1.5, 1.7, 1.9):
            for d in (1, 5, 20, 100, 300):
                radius = 2.0
                product = (
                    k_alpha_d(alpha, d, radius)
                    * stable_levy_constant(alpha, d)
                    * sphere_area(d)
                    * radius ** (2 - alpha)
                )
                assert product == pytest.approx(d * (2 - alpha), rel=1e-10)

    def test_log_space_to_large_d(self):
        # C and the sphere area individually leave double range long before
        # d = 1e7; the identity still holds in logs
        for alpha in (1.1, 1.5, 1.9):
            for d in (10**3, 10**5, 10**7):
                total = (
                    log_k_alpha_d(alpha, d, 2.0)
                    + log_stable_levy_constant(alpha, d)
                    + log_sphere_area(d)
                    + (2 - alpha) * math.log(2.0)
                )
                assert total == pytest.approx(math.log(d * (2 - alpha)), abs=1e-8)


def test_endpoint_comparison_flips_at_refined_threshold():
    # F(alpha) = P(alpha) x^(-alpha): the alpha=1 vs alpha->2 comparison flips
    # exactly at x = 1/sqrt(2 pi)
    def endpoint_diff(x):
        f1 = p_alpha(1.0) * x**-1.0
        f2 = p_alpha(2.0 - 1e-6) * x ** -(2.0 - 1e-6)
        return f2 - f1

    assert endpoint_diff(0.3) > 0  # heavy side: bound grows toward alpha = 2
    assert endpoint_diff(0.5) < 0  # light side
    assert 0.3 < REFINED_THRESHOLD < 0.5


def test_levy_constant_stays_finite_up_to_the_double_limit():
    # log C = 709.065 lies between 709 and log(DBL_MAX) = 709.78, so C ~ 1.1e308
    log_c = log_stable_levy_constant(1.1, 437)
    assert 709.0 < log_c < math.log(sys.float_info.max)
    c = stable_levy_constant(1.1, 437)
    assert math.isfinite(c) and c == math.exp(log_c)
    assert stable_levy_constant(1.7, 79400) == math.inf
