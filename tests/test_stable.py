import math

import numpy as np
import pytest

from levybound import RngStream, StableParams, sample_isotropic_stable, sample_skewed_stable
from levybound.errors import DimensionMismatchError, InvalidParameterError
from levybound.stable import StableNoise, cms_uniforms, subordinator_scale

import oracles
from helpers import empirical_char_fn

# Monte-Carlo tolerance: 5 / sqrt(N) on both ECF parts.
N_MC = 200_000
TOL = 5.0 / math.sqrt(N_MC)


def test_totally_skewed_positive_support():
    rng = RngStream(42)
    draws = sample_skewed_stable(StableParams(0.9, 1.0, 1.0, 0.0), rng, size=100_000)
    assert (draws > 0.0).all()


def test_symmetric_median_near_zero():
    rng = RngStream(7)
    draws = sample_skewed_stable(StableParams(1.5, 0.0, 1.0, 0.0), rng, size=1_000_000)
    assert abs(np.median(draws)) < 0.01


def test_symmetric_scalar_char_fn():
    rng = RngStream(8)
    draws = sample_skewed_stable(StableParams(1.5, 0.0, 1.0, 0.0), rng, size=1_000_000)
    assert abs(np.cos(draws).mean() - math.exp(-1.0)) < 0.005


@pytest.mark.parametrize(
    "alpha,beta,scale",
    [(0.0, 0.0, 1.0), (2.5, 0.0, 1.0), (1.0, 0.0, 1.0), (1.5, 1.5, 1.0), (1.5, 0.0, 0.0)],
)
def test_invalid_stable_params(alpha, beta, scale):
    with pytest.raises(InvalidParameterError):
        StableParams(alpha, beta, scale, 0.0)


@pytest.mark.parametrize("alpha", [1.1, 1.2, 1.5, 1.8, 1.9])
def test_subordinator_positivity(alpha):
    rng = RngStream(3, int(alpha * 10))
    draws = StableNoise(alpha).mix(*cms_uniforms(rng, 100_000))
    assert (draws > 0.0).all()


def test_isotropic_domain():
    with pytest.raises(InvalidParameterError):
        sample_isotropic_stable(1.0, 3, RngStream(0))
    with pytest.raises(InvalidParameterError):
        sample_isotropic_stable(2.1, 3, RngStream(0))
    with pytest.raises(InvalidParameterError):
        sample_isotropic_stable(1.5, 0, RngStream(0))


def test_gaussian_endpoint_variance():
    rng = RngStream(5)
    draws = sample_isotropic_stable(2.0, 3, rng, size=1_000_000)
    assert np.allclose(draws.var(axis=0), 2.0, atol=0.02)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
@pytest.mark.parametrize("dim", [1, 3, 10])
def test_isotropic_char_fn_grid(alpha, dim):
    rng = RngStream(11, int(alpha * 100) * 100 + dim)
    draws = sample_isotropic_stable(alpha, dim, rng, size=N_MC)
    freq_rng = RngStream(99, dim)
    for norm in (0.25, 0.6, 1.0, 1.5, 2.0):
        xi = freq_rng.gen.standard_normal(dim)
        xi *= norm / np.linalg.norm(xi)
        cos_part, sin_part = empirical_char_fn(draws, xi)
        assert abs(cos_part - math.exp(-(norm**alpha))) < TOL
        assert abs(sin_part) < TOL


def test_zero_frequency_char_fn_is_one():
    rng = RngStream(17)
    draws = sample_isotropic_stable(1.7, 5, rng, size=1000)
    cos_part, sin_part = empirical_char_fn(draws, np.zeros(5))
    assert cos_part == 1.0 and sin_part == 0.0


def test_self_similarity_scaling():
    # scaling by t^(1/alpha) turns unit-time draws into time-t increments
    alpha, t = 1.5, 0.7
    rng = RngStream(23)
    draws = t ** (1.0 / alpha) * sample_isotropic_stable(alpha, 2, rng, size=N_MC)
    xi = np.array([1.0, 0.0])
    cos_part, sin_part = empirical_char_fn(draws, xi)
    assert abs(cos_part - math.exp(-t)) < TOL
    assert abs(sin_part) < TOL


def test_isotropy_under_frequency_permutation():
    alpha = 1.6
    rng = RngStream(31)
    draws = sample_isotropic_stable(alpha, 3, rng, size=N_MC)
    xi = np.array([1.2, -0.3, 0.4])
    target = math.exp(-np.linalg.norm(xi) ** alpha)
    c1, _ = empirical_char_fn(draws, xi)
    c2, _ = empirical_char_fn(draws, xi[[2, 0, 1]])
    assert abs(c1 - target) < TOL
    assert abs(c2 - target) < TOL


def test_char_fn_exact_cases():
    zeros = np.zeros((10, 4))
    assert empirical_char_fn(zeros, np.ones(4)) == (1.0, 0.0)
    sym = np.concatenate([np.ones((5, 2)), -np.ones((5, 2))])
    _, sin_part = empirical_char_fn(sym, np.array([0.3, 0.9]))
    assert sin_part == 0.0


def test_char_fn_errors():
    with pytest.raises(DimensionMismatchError):
        empirical_char_fn(np.ones((3, 2)), np.ones(3))
    with pytest.raises(InvalidParameterError):
        empirical_char_fn(np.empty((0, 2)), np.ones(2))


def test_streams_are_deterministic():
    a = sample_skewed_stable(StableParams(1.5, 0.3), RngStream(123, 4), size=1000)
    b = sample_skewed_stable(StableParams(1.5, 0.3), RngStream(123, 4), size=1000)
    assert (a == b).all()
    c = sample_skewed_stable(StableParams(1.5, 0.3), RngStream(123, 5), size=1000)
    assert (a != c).any()


@pytest.mark.parametrize("seed, stream", [(2.9, 0), (2.0, 0), (True, 0), (np.bool_(True), 0),
                                          ("2", 0), (2, 1.5), (2, False)],
                         ids=["float", "integral-float", "bool", "numpy-bool", "str",
                              "float-stream", "bool-stream"])
def test_stream_key_must_be_integers(seed, stream):
    # int() would truncate 2.9 to 2 and True to 1: another key's stream
    with pytest.raises(InvalidParameterError, match="must be an integer, got"):
        RngStream(seed, stream)


def test_numpy_integer_key_is_the_int_key():
    a = RngStream(np.uint64(2**64 - 1), np.int64(3))
    assert (a.seed, a.stream) == (2**64 - 1, 3)
    assert a.gen.random() == RngStream(2**64 - 1, 3).gen.random()


def test_scalar_draws_are_floats():
    x = sample_skewed_stable(StableParams(1.5, 0.0), RngStream(0))
    assert isinstance(x, float)
    v = sample_isotropic_stable(1.5, 4, RngStream(0))
    assert v.shape == (4,)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.7])
def test_scalar_subordinator_matches_scipy_levy_stable(alpha):
    # independent oracle: scipy's S1 stable law S(alpha/2, 1, scale, 0)
    stats = pytest.importorskip("scipy.stats")
    assert stats.levy_stable.parameterization == "S1"
    rng, noise = RngStream(11, 3), StableNoise(alpha)
    draws = np.array([noise.mix(*cms_uniforms(rng)) for _ in range(2000)])
    scale = subordinator_scale(alpha)
    assert stats.kstest(draws, stats.levy_stable(alpha / 2, 1.0, scale=scale).cdf).pvalue > 0.01
    # the same test rejects a law 20% wider
    wide = stats.levy_stable(alpha / 2, 1.0, scale=1.2 * scale)
    assert stats.kstest(draws, wide.cdf).pvalue < 1e-3


@pytest.mark.parametrize("alpha", [1.2, 1.6, 1.9, 2.0])
def test_isotropic_projection_matches_scipy(alpha):
    # independent oracle: u . X for a unit vector u is S(alpha, 0, 1, 0) in
    # scipy's S1 parameterization, and N(0, 2) at alpha = 2
    stats = pytest.importorskip("scipy.stats")
    u = np.array([0.5, -0.1, 0.3, 0.8, -0.2])
    u /= np.linalg.norm(u)
    projected = sample_isotropic_stable(alpha, 5, RngStream(13, 7), size=2000) @ u

    def law(scale):
        if alpha == 2.0:
            return stats.norm(scale=math.sqrt(2.0) * scale)
        return stats.levy_stable(alpha, 0.0, scale=scale)

    assert stats.kstest(projected, law(1.0).cdf).pvalue > 0.01
    # the same test rejects a law 20% wider
    assert stats.kstest(projected, law(1.2).cdf).pvalue < 1e-3


@pytest.mark.parametrize("size", [None, 4])
def test_alpha_two_uses_the_gaussians_of_alpha_below_two(size):
    # common random numbers: one stream key gives the same Gaussian vector at
    # alpha = 2 and alpha = 1.6, scaled by sqrt(2) and sqrt(A) respectively
    heavy_rng, gauss_rng = RngStream(21, 5), RngStream(21, 5)
    for _ in range(3):
        heavy = sample_isotropic_stable(1.6, 6, heavy_rng, size=size)
        gauss = sample_isotropic_stable(2.0, 6, gauss_rng, size=size)
        ratio = np.atleast_2d(heavy / gauss)
        assert (ratio > 0.0).all()
        np.testing.assert_allclose(ratio / ratio[:, :1], 1.0, rtol=1e-12)
    # and both streams stand at the same position afterwards
    assert heavy_rng.gen.random() == gauss_rng.gen.random()


def _frozen_stable_noise_draw(alpha, dim, gen):
    """One isotropic draw as the earlier per-alpha sampler made it, with one
    noise object and buffer per alpha: the subordinator's two uniforms, the
    scale sqrt(A) (sqrt(2) at alpha = 2), then G written into that buffer
    and scaled in place; every draw from the oracles' generator ``gen``."""
    out = np.empty(dim)
    u = oracles.unit_open(gen)
    w = -np.log(oracles.unit_open(gen))
    scale = np.sqrt(2.0) if alpha == 2.0 else np.sqrt(float(oracles.subordinator(alpha, u, w)))
    return np.multiply(gen.standard_normal(out=out), scale, out=out)


def _frozen_batched_draws(alpha, dim, gen, size):
    """``size`` isotropic draws as the earlier batched sampler made them:
    ``size`` uniforms u, then ``size`` exponentials w, the scales sqrt(A)
    (sqrt(2) at alpha = 2, the uniforms drawn all the same), then the
    (size, dim) block of G scaled row by row; on the oracles' ``gen``."""
    u = oracles.unit_open(gen, size)
    w = -np.log(oracles.unit_open(gen, size))
    if alpha == 2.0:
        scale = np.sqrt(2.0)
    else:
        scale = np.sqrt(oracles.subordinator(alpha, u, w))[:, None]
    return scale * gen.standard_normal((size, dim))


@pytest.mark.parametrize("dim", [1, 7, 864])
@pytest.mark.parametrize("alpha", [1.3, 1.6, 1.95, 2.0])
def test_isotropic_draw_matches_frozen_per_alpha_buffer_draw(alpha, dim):
    for seed in range(40):
        new, old = RngStream(seed, 11), oracles.philox(seed, 11)
        for _ in range(3):
            draw = sample_isotropic_stable(alpha, dim, new)
            assert draw.tobytes() == _frozen_stable_noise_draw(alpha, dim, old).tobytes()
        assert new.gen.random() == old.random()


@pytest.mark.parametrize("dim", [1, 7])
@pytest.mark.parametrize("alpha", [1.3, 1.6, 2.0])
def test_batched_draws_match_frozen_batched_draws(alpha, dim):
    for seed in range(40):
        new, old = RngStream(seed, 12), oracles.philox(seed, 12)
        for _ in range(3):
            draws = sample_isotropic_stable(alpha, dim, new, size=4)
            assert draws.tobytes() == _frozen_batched_draws(alpha, dim, old, 4).tobytes()
            if alpha < 2.0:
                a = StableNoise(alpha).mix(*cms_uniforms(new, 4))
                assert a.tobytes() == oracles.subordinator(
                    alpha, oracles.unit_open(old, 4),
                    -np.log(oracles.unit_open(old, 4))).tobytes()
        assert new.gen.random() == old.random()


@pytest.mark.parametrize("u, w", [(1e-300, 1.0), (np.array([0.5, 1e-300]), np.ones(2))],
                         ids=["float", "array"])
def test_noise_refuses_a_non_positive_subordinator_draw(u, w):
    # u far below any unit_open draw puts theta at -pi/2, where A rounds to 0
    for method in (StableNoise(1.5).mix, StableNoise(1.5).scale):
        with pytest.raises(RuntimeError, match="non-positive subordinator draw"):
            method(u, w)


@pytest.mark.parametrize("dim", [1, 5])
@pytest.mark.parametrize("alpha", [1.3, 1.7, 2.0])
def test_one_at_a_time_draws_match_char_fn(alpha, dim):
    # the per-step path: each draw made alone, as a training step makes it
    n = 20_000
    rng = RngStream(41, int(alpha * 100) * 100 + dim)
    draws = np.array([sample_isotropic_stable(alpha, dim, rng) for _ in range(n)])
    tol = 5.0 / math.sqrt(n)
    freq_rng = RngStream(98, dim)
    for norm in (0.5, 1.0, 1.5):
        xi = freq_rng.gen.standard_normal(dim)
        xi *= norm / np.linalg.norm(xi)
        cos_part, sin_part = empirical_char_fn(draws, xi)
        assert abs(cos_part - math.exp(-(norm**alpha))) < tol
        assert abs(sin_part) < tol


def test_cms_uniforms_size():
    u, w = cms_uniforms(RngStream(0), 0)
    assert u.shape == w.shape == (0,)
    with pytest.raises(InvalidParameterError, match="size must be >= 0, got -1"):
        cms_uniforms(RngStream(0), -1)
    with pytest.raises(InvalidParameterError, match="size must be >= 0"):
        sample_isotropic_stable(1.5, 3, RngStream(0), size=-2)
