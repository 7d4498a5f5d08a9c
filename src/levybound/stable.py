"""Exact sampling of one-dimensional skewed stable laws and isotropic
symmetric alpha-stable vectors.

The scalar sampler is the Chambers-Mallows-Stuck transform in the
1-parameterization (location added after scaling), restricted to
alpha != 1. Isotropic d-dimensional vectors are built by Gaussian
subordination: X = sqrt(A) * G with A a totally skewed positive
(alpha/2)-stable variable and G standard normal. Every isotropic draw,
single or batched, is ``StableNoise(alpha).scale(u, w)`` times G, with
the subordinator's uniforms ``(u, w)`` drawn first at every alpha.
The tests check both samplers by comparing the empirical characteristic
function of their draws with the exact one: for a unit-time isotropic
alpha-stable increment, E[cos(xi . X)] = exp(-||xi||^alpha) and
E[sin(xi . X)] = 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .rng import RngStream


@dataclass(frozen=True)
class StableParams:
    """Parameters of the one-dimensional stable law S(alpha, beta, scale, location)."""

    alpha: float
    beta: float = 0.0
    scale: float = 1.0
    location: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise InvalidParameterError(f"alpha must be in (0, 2], got {self.alpha}")
        if self.alpha == 1.0:
            raise InvalidParameterError("alpha = 1 branch is not supported")
        if not -1.0 <= self.beta <= 1.0:
            raise InvalidParameterError(f"beta must be in [-1, 1], got {self.beta}")
        if not self.scale > 0.0:
            raise InvalidParameterError(f"scale must be > 0, got {self.scale}")


def cms_uniforms(rng: RngStream, size: int | None = None):
    """The stream's part of a CMS draw: u uniform on (0, 1) and the
    exponential w = -log(u'), floats when ``size`` is None."""
    if size is not None and size < 0:
        raise InvalidParameterError(f"size must be >= 0, got {size}")
    u = rng.unit_open(size)
    return u, -np.log(rng.unit_open(size))


class _ChambersMallowsStuck:
    """The CMS transform of one law, with its per-law constants computed once.

    A single draw goes through numpy's scalar functions, not ``math``: on
    some builds ``np.log`` of a scalar differs from ``math.log`` in the
    last ulp, and the draws must not depend on which one ran.
    """

    __slots__ = ("alpha", "b", "sfac", "inv_alpha", "expo", "scale", "location")

    def __init__(self, params: StableParams):
        alpha, beta = params.alpha, params.beta
        tan_half = np.tan(np.pi * alpha / 2.0)
        self.alpha = alpha
        self.b = float(np.arctan(beta * tan_half) / alpha)
        self.sfac = float((1.0 + beta * beta * tan_half * tan_half) ** (1.0 / (2.0 * alpha)))
        self.inv_alpha = 1.0 / alpha
        self.expo = (1.0 - alpha) / alpha
        self.scale = float(params.scale)
        self.location = float(params.location)

    def transform(self, u, w):
        """The draw that uniforms ``(u, w)`` from ``cms_uniforms`` give."""
        theta = np.pi * (u - 0.5)  # uniform on the open interval (-pi/2, pi/2)
        at = self.alpha * (theta + self.b)
        x = (
            self.sfac
            * np.sin(at)
            / np.cos(theta) ** self.inv_alpha
            * (np.cos(theta - at) / w) ** self.expo
        )
        return self.location + self.scale * x


def sample_skewed_stable(params: StableParams, rng: RngStream, size: int | None = None):
    """Draw from S(alpha, beta, scale, location) via the CMS transform.

    Returns a float when ``size`` is None, else an array of ``size`` draws.
    """
    out = _ChambersMallowsStuck(params).transform(*cms_uniforms(rng, size))
    return float(out) if size is None else out


def subordinator_scale(alpha: float) -> float:
    """Scale 2 cos(pi alpha / 4)^(2/alpha) of the positive (alpha/2)-stable mixer."""
    return 2.0 * np.cos(np.pi * alpha / 4.0) ** (2.0 / alpha)


class StableNoise:
    """The (alpha/2)-stable subordinator A of isotropic alpha-stable draws
    sqrt(A) G, their only part that depends on alpha. ``mix`` and ``scale``
    give A and sqrt(A) of the uniforms ``cms_uniforms`` draws at every alpha
    (floats for floats, arrays for arrays), so a caller may draw the uniforms
    and G once for several alphas. Inputs are not validated; the samplers do."""

    def __init__(self, alpha: float):
        self.law = None if alpha == 2.0 else _ChambersMallowsStuck(
            StableParams(alpha / 2.0, 1.0, subordinator_scale(alpha), 0.0))

    def mix(self, u, w):
        """A of uniforms ``(u, w)``, checked strictly positive; alpha < 2 only."""
        a = self.law.transform(u, w)
        if isinstance(a, float):  # one draw: stay in Python floats
            a = float(a)
            if not a > 0.0:
                raise RuntimeError(f"non-positive subordinator draw {a}: sampler bug")
        elif not (a > 0.0).all():
            raise RuntimeError("non-positive subordinator draw: sampler bug")
        return a

    def scale(self, u, w):
        """sqrt(A) of uniforms ``(u, w)``; sqrt(2) at alpha = 2."""
        if self.law is None:
            return np.sqrt(2.0)
        a = self.mix(u, w)
        # IEEE sqrt is correctly rounded, so math.sqrt gives np.sqrt's bits
        # on one float at a fraction of its call cost
        return math.sqrt(a) if isinstance(a, float) else np.sqrt(a)


def sample_isotropic_stable(alpha: float, dim: int, rng: RngStream, size: int | None = None):
    """Draw isotropic symmetric alpha-stable vectors in R^dim.

    sqrt(A) * G subordination through ``StableNoise``; at alpha = 2 the
    subordinator degenerates and sqrt(A) is sqrt(2). The uniforms are
    drawn before G at every alpha, so one stream key gives the same G at
    every alpha. Output shape is (dim,) or (size, dim).
    """
    if not 1.0 < alpha <= 2.0:
        raise InvalidParameterError(f"alpha must be in (1, 2], got {alpha}")
    if dim < 1:
        raise InvalidParameterError(f"dim must be >= 1, got {dim}")
    scale = StableNoise(alpha).scale(*cms_uniforms(rng, size))
    if size is None:
        return rng.gen.standard_normal(dim) * scale
    return np.reshape(scale, (-1, 1)) * rng.gen.standard_normal((size, dim))
