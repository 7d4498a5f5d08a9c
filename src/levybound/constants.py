"""Log-Gamma and the closed-form constants of the generalization bounds.

Everything is evaluated in log space and exponentiated once, because the
Gamma ratios involved (Gamma(d/2), Gamma((d+alpha)/2)) overflow double
precision for d of a few hundred while the constants themselves stay
moderate. The key quantities:

  stable_levy_constant  C(alpha, d) = alpha 2^(alpha-1) pi^(-d/2)
                                      Gamma((alpha+d)/2) / Gamma(1-alpha/2)
  sphere_area           sigma(d-1)  = 2 pi^(d/2) / Gamma(d/2)
  k_alpha_d             K(alpha, d) = (2-alpha) Gamma(1-alpha/2) d Gamma(d/2)
                                      / (alpha 2^alpha Gamma((d+alpha)/2) R^(2-alpha))
  p_alpha               P(alpha)    = (2-alpha) Gamma(1-alpha/2) / (alpha 2^(alpha/2))

K, C and the sphere area satisfy the exact identity
K * C * sigma * R^(2-alpha) = d (2-alpha); P is the dimension-free factor
in the large-d asymptote K_bar ~ P(alpha) d^(1-alpha/2), decreasing from
sqrt(pi/2) at alpha=1 to the limit 1/2 at alpha=2.
"""

import math

from .errors import InvalidParameterError

# Lanczos approximation, g = 7, 9 coefficients. Relative accuracy of the
# reconstructed Gamma is a few ulps across (0, inf), well inside the
# 1e-12 budget every downstream constant assumes.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Refined heavy/light threshold 1/sqrt(2 pi), kept analytic.
REFINED_THRESHOLD = 1.0 / math.sqrt(2.0 * math.pi)


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if not x > 0.0:
        raise InvalidParameterError(f"log_gamma needs x > 0, got {x}")
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    ser = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        ser += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(ser)


def _check_alpha_open(alpha: float, lo: float = 0.0, hi: float = 2.0) -> None:
    if not lo < alpha < hi:
        raise InvalidParameterError(f"alpha must be in ({lo}, {hi}), got {alpha}")


def log_stable_levy_constant(alpha: float, d: int) -> float:
    """log C(alpha, d); the constant itself leaves double range for d above ~350."""
    _check_alpha_open(alpha)
    if d < 1:
        raise InvalidParameterError(f"d must be >= 1, got {d}")
    return (
        math.log(alpha)
        + (alpha - 1.0) * math.log(2.0)
        - 0.5 * d * math.log(math.pi)
        + log_gamma((alpha + d) / 2.0)
        - log_gamma(1.0 - alpha / 2.0)
    )


def stable_levy_constant(alpha: float, d: int) -> float:
    """C(alpha, d), the density constant of the isotropic stable Levy measure.

    Saturates to inf once the true value exceeds double range (d above
    ~350); use the log variant there.
    """
    try:
        return math.exp(log_stable_levy_constant(alpha, d))
    except OverflowError:
        return math.inf


def log_sphere_area(d: int) -> float:
    """log of the unit-sphere surface area in R^d."""
    if d < 1:
        raise InvalidParameterError(f"d must be >= 1, got {d}")
    return math.log(2.0) + 0.5 * d * math.log(math.pi) - log_gamma(0.5 * d)


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d (e.g. 2 pi for d=2, 4 pi for d=3).

    Underflows to 0.0 for d above ~1300; use the log variant there.
    """
    return math.exp(log_sphere_area(d))


def log_k_alpha_d(alpha: float, d: int, radius: float) -> float:
    _check_alpha_open(alpha, lo=1.0)
    if d < 1:
        raise InvalidParameterError(f"d must be >= 1, got {d}")
    if not radius > 0.0:
        raise InvalidParameterError(f"radius must be > 0, got {radius}")
    return (
        math.log(2.0 - alpha)
        + log_gamma(1.0 - alpha / 2.0)
        + math.log(d)
        + log_gamma(0.5 * d)
        - math.log(alpha)
        - alpha * math.log(2.0)
        - log_gamma((d + alpha) / 2.0)
        - (2.0 - alpha) * math.log(radius)
    )


def k_alpha_d(alpha: float, d: int, radius: float) -> float:
    """K(alpha, d), the prefactor multiplying the gradient-energy integral."""
    return math.exp(log_k_alpha_d(alpha, d, radius))


def p_alpha(alpha: float) -> float:
    """Dimension-free prefactor P(alpha) on [1, 2]; P(2) is the analytic limit 1/2."""
    if not 1.0 <= alpha <= 2.0:
        raise InvalidParameterError(f"alpha must be in [1, 2], got {alpha}")
    if alpha == 2.0:
        return 0.5
    log_p = (
        math.log(2.0 - alpha)
        + log_gamma(1.0 - alpha / 2.0)
        - math.log(alpha)
        - 0.5 * alpha * math.log(2.0)
    )
    return math.exp(log_p)


def discrete_prefactor(gamma: float, eta: float, alpha: float) -> float:
    """Step-size factor of the discrete-time bound.

    Delta(gamma, eta, alpha) = (1/(gamma eta)) log(1/(1 - gamma eta))
                               (1 - (1 - gamma eta)^alpha) / (alpha eta),
    which behaves like gamma as gamma eta -> 0.
    """
    x = gamma * eta
    if not 0.0 < x < 1.0:
        raise InvalidParameterError(f"gamma*eta must be in (0, 1), got {x}")
    log1m = math.log1p(-x)
    return (-log1m / x) * (-math.expm1(alpha * log1m)) / (alpha * eta)


def comparison_rate(alpha: float, d: int) -> tuple[float, float, float]:
    """Dimension factor of the prior-art bound and the rate ratios of both bounds.

    Returns (prior_constant, xi_ours, xi_prior) where the first grows like
    d^((1+alpha)/2) and the ratios are 1 - alpha/2 and (1+alpha)/2.
    """
    log_k_bar = log_k_alpha_d(alpha, d, 1.0)
    log_r = 1.5 * math.log(d) - math.log(alpha) - alpha * math.log(2.0) - log_k_bar
    return math.exp(log_r), 1.0 - alpha / 2.0, (1.0 + alpha) / 2.0


def phase_regime(sigma1: float, d: int, radius: float) -> tuple[str, str]:
    """Classify the noise geometry by sigma1 * sqrt(d / R^2).

    Coarse split at 1; refined split at 1/sqrt(2 pi), which accounts for
    the decreasing prefactor P(alpha). Returns (coarse, refined) labels.
    """
    if not sigma1 > 0.0 or d < 1 or not radius > 0.0:
        raise InvalidParameterError("phase_regime needs positive sigma1, d, radius")
    ratio = sigma1 * math.sqrt(d) / radius
    coarse = "Heavy" if ratio < 1.0 else "Light"
    refined = "HeavyRefined" if ratio < REFINED_THRESHOLD else "LightRefined"
    return coarse, refined

