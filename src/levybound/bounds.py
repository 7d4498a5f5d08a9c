"""Generalization-bound estimators, each computable from a records row.

The gradient-energy integral is estimated by I_hat = gamma * sum_k
||grad_k||^2 (a row's ``i_hat``), and the headline estimator is

    G_hat = sqrt( P(alpha) d^(1 - alpha/2) I_hat / (n sigma1^alpha R^(2-alpha)) ).

The full high-probability forms are also provided: the stable-noise
bound 2 s sqrt(K I_hat / (n sigma1^alpha) + (log(3/zeta) + Lambda) / n),
its Brownian counterpart, and the discrete-time variant whose gradient
sum I_hat / gamma is multiplied by the step-size factor Delta(gamma, eta,
alpha). Every bound refuses an I_hat that is not >= 0 (a diverged row's NaN).

Note G_hat divides by sigma1^alpha, and the discrete-time bound carries
no 1/n on its gradient term; both conventions are deliberate and the
algebraic-consistency tests pin them.
"""

import math
from dataclasses import dataclass

from .constants import discrete_prefactor, k_alpha_d, p_alpha
from .errors import DivergedTraceError, InvalidParameterError
from .sde import RunTrace


@dataclass(frozen=True)
class BoundInputs:
    """Everything the bound formulas need besides I_hat.

    Defaults: R = 1 (the radius is unknown a priori), s = 1/2 (0-1 loss),
    zeta = 0.05, Lambda = 0 (dynamics initialized at the prior).
    """

    alpha: float
    d: int
    n: int
    sigma1: float
    sigma2: float = 0.0
    gamma: float = 0.0
    eta: float = 0.0
    radius: float = 1.0
    s: float = 0.5
    zeta: float = 0.05
    lam: float = 0.0

    def validate(self) -> None:
        if not 1.0 <= self.alpha <= 2.0:
            raise InvalidParameterError(f"alpha must be in [1, 2], got {self.alpha}")
        if self.d < 1 or self.n < 1:
            raise InvalidParameterError("d and n must be >= 1")
        if not (self.sigma1 >= 0.0 and self.sigma2 >= 0.0):
            raise InvalidParameterError("noise scales must be >= 0")
        if not self.radius > 0.0:
            raise InvalidParameterError("radius must be > 0")
        if not self.s > 0.0:
            raise InvalidParameterError("s must be > 0")
        if not 0.0 < self.zeta < 1.0:
            raise InvalidParameterError(f"zeta must be in (0, 1), got {self.zeta}")
        if not self.lam >= 0.0:
            raise InvalidParameterError("Lambda must be >= 0")


def _k_with_limit(inputs: BoundInputs) -> float:
    # K(alpha, d) -> 1/2 as alpha -> 2, independent of d and R
    if inputs.alpha == 2.0:
        return 0.5
    return k_alpha_d(inputs.alpha, inputs.d, inputs.radius)


def _check(bound: str, i_hat: float, scale: float, scale_name: str = "sigma1") -> None:
    if not scale > 0.0:
        raise InvalidParameterError(f"{bound} needs {scale_name} > 0")
    if not i_hat >= 0.0:
        raise InvalidParameterError(f"i_hat must be >= 0, got {i_hat}")


def integral_estimate(trace: RunTrace) -> float:
    """gamma times the compensated sum of the trace's squared gradient norms."""
    if trace.diverged:
        raise DivergedTraceError("cannot estimate the integral of a diverged trace")
    return trace.config.gamma * math.fsum(trace.grad_sq.tolist())


def bound_estimate(i_hat: float, inputs: BoundInputs) -> float:
    """The asymptotic-constant estimator G_hat."""
    _check("bound_estimate", i_hat, inputs.sigma1)
    log_factor = (
        (1.0 - inputs.alpha / 2.0) * math.log(inputs.d)
        - (2.0 - inputs.alpha) * math.log(inputs.radius)
        - inputs.alpha * math.log(inputs.sigma1)
    )
    return math.sqrt(p_alpha(inputs.alpha) * math.exp(log_factor) * i_hat / inputs.n)


def stable_bound(i_hat: float, inputs: BoundInputs) -> float:
    """High-probability bound for the purely heavy-tailed dynamics."""
    _check("stable_bound", i_hat, inputs.sigma1)
    k = _k_with_limit(inputs)
    grad_term = k * i_hat / (inputs.n * inputs.sigma1**inputs.alpha)
    conf_term = (math.log(3.0 / inputs.zeta) + inputs.lam) / inputs.n
    return 2.0 * inputs.s * math.sqrt(grad_term + conf_term)


def brownian_bound(i_hat: float, inputs: BoundInputs) -> float:
    """High-probability bound when the Brownian part dominates (sigma2 > 0)."""
    _check("brownian_bound", i_hat, inputs.sigma2, "sigma2")
    grad_term = i_hat / (inputs.n * inputs.sigma2**2)
    conf_term = 4.0 * (math.log(3.0 / inputs.zeta) + inputs.lam) / inputs.n
    return inputs.s * math.sqrt(grad_term + conf_term)


def discrete_bound(i_hat: float, inputs: BoundInputs) -> float:
    """Discrete-time bound; its gradient term (sum i_hat / gamma) deliberately has no 1/n."""
    _check("discrete_bound", i_hat, inputs.sigma1)
    delta = discrete_prefactor(inputs.gamma, inputs.eta, inputs.alpha)
    k = _k_with_limit(inputs)
    grad_term = (k / inputs.sigma1**inputs.alpha) * delta * (i_hat / inputs.gamma)
    conf_term = (inputs.lam + math.log(3.0 / inputs.zeta)) / inputs.n
    return 2.0 * inputs.s * math.sqrt(grad_term + conf_term)
