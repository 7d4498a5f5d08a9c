"""Euler-Maruyama discretization of the heavy-tailed training dynamics.

One step moves the flat parameter vector by

    w <- w - gamma * grad - eta * gamma * w
           + gamma^(1/alpha) * sigma1 * L   (isotropic alpha-stable draw)
           + sqrt(2 gamma)   * sigma2 * G   (standard Gaussian draw)

Full-batch gradients reproduce the continuous model; an integer batch
size draws a fresh without-replacement subset each step, so batch = n
matches full batch up to summation order. Each run consumes a single
RngStream in the fixed order (indices, stable, gaussian) per step; terms
whose scale is zero are skipped entirely, which keeps noise-free runs
bit-identical to plain gradient descent with weight decay. No draw
depends on alpha, so ``run_group`` trains several alphas of one stream
in lockstep and draws each step once for all of them.

A run's stream is keyed by its seed alone, ``RngStream(seed,
CELL_STREAM)``, so a grid's records are a function of the set of cells,
not of the order of its lists. Alpha is deliberately left out of the
key: noise-free runs then share their trajectory across alpha, and noisy
runs see common underlying randomness (across sigma1 too, at one width),
which makes the correlation between alpha and the gap less noisy.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError
from .models import Dataset, ModelKernel, ModelSpec, error_rates, init_params, param_count
from .rng import RngStream, check_seed, mix64
from .stable import StableNoise, cms_uniforms

DIVERGENCE_NORM = 1e12
# Not stream 0: generate_synthetic and subsample draw stream 0 at their
# seeds, and seed and data_seed both default to 0, so a run on stream 0
# would replay its data's draws.
CELL_STREAM = mix64(0, 0)


@dataclass(frozen=True)
class TrainConfig:
    """All knobs of one discretized run; batch_size None means full batch."""

    gamma: float
    eta: float
    alpha: float
    sigma1: float
    sigma2: float = 0.0
    steps: int = 1000
    batch_size: int | None = None
    eval_interval: int = 10
    seed: int = 0

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise InvalidParameterError(f"gamma must be > 0, got {self.gamma}")
        if not self.eta >= 0.0:
            raise InvalidParameterError(f"eta must be >= 0, got {self.eta}")
        if not self.gamma * self.eta < 1.0:
            raise InvalidParameterError("gamma * eta must be < 1")
        if not 1.0 < self.alpha <= 2.0:
            raise InvalidParameterError(f"alpha must be in (1, 2], got {self.alpha}")
        if not (self.sigma1 >= 0.0 and self.sigma2 >= 0.0):
            raise InvalidParameterError(
                f"noise scales must be >= 0, got sigma1={self.sigma1}, sigma2={self.sigma2}"
            )
        if self.steps < 1:
            raise InvalidParameterError("steps must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise InvalidParameterError("batch_size must be >= 1 or None")
        if self.eval_interval < 1:
            raise InvalidParameterError("eval_interval must be >= 1")
        check_seed(self.seed)


@dataclass(frozen=True)
class StepRecord:
    step: int
    grad_sq: float
    train_error: float | None = None
    test_error: float | None = None


@dataclass(frozen=True, eq=False)
class RunTrace:
    """What one run measured: ``grad_sq`` holds the squared gradient norm
    of each step run, ``evals`` the (step, train_error, test_error) of each
    evaluated step, in order, and ``final_params`` the last step's parameters
    (non-finite if the run diverged). Both arrays are read-only float64."""

    config: TrainConfig
    grad_sq: np.ndarray
    evals: tuple[tuple[int, float, float], ...]
    final_params: np.ndarray
    diverged: bool = False

    @property
    def records(self) -> tuple[StepRecord, ...]:
        """One StepRecord per step run, errors on the evaluated steps."""
        errors = {k: (train, test) for k, train, test in self.evals}
        return tuple(StepRecord(k, g, *errors.get(k, (None, None)))
                     for k, g in enumerate(self.grad_sq.tolist(), 1))


class EulerMaruyama:
    """The Euler-Maruyama update of one TrainConfig, step constants computed once.

    Evaluates params - gamma grad - (eta gamma) params
    + (gamma^(1/alpha) sigma1) stable + (sqrt(2 gamma) sigma2) gaussian
    left to right into ``out``, through one scratch array; a draw passed
    as None drops its term.
    """

    def __init__(self, cfg: TrainConfig, d: int):
        self.gamma = cfg.gamma
        self.decay = cfg.eta * cfg.gamma
        self.stable_scale = cfg.gamma ** (1.0 / cfg.alpha) * cfg.sigma1
        self.gaussian_scale = math.sqrt(2.0 * cfg.gamma) * cfg.sigma2
        self.scratch = np.empty(d)

    def __call__(self, params, grad, stable_draw, gaussian_draw, out) -> np.ndarray:
        np.multiply(grad, self.gamma, out=out)
        np.subtract(params, out, out=out)
        out -= np.multiply(params, self.decay, out=self.scratch)
        if stable_draw is not None:
            out += np.multiply(stable_draw, self.stable_scale, out=self.scratch)
        if gaussian_draw is not None:
            out += np.multiply(gaussian_draw, self.gaussian_scale, out=self.scratch)
        return out


def em_step(
    params: np.ndarray,
    grad: np.ndarray,
    cfg: TrainConfig,
    stable_draw: np.ndarray | None = None,
    gaussian_draw: np.ndarray | None = None,
) -> np.ndarray:
    """One Euler-Maruyama update; pure function of its inputs."""
    if grad.shape != params.shape:
        raise DimensionMismatchError("grad shape does not match params")
    if cfg.sigma1 > 0.0 and (stable_draw is None or stable_draw.shape != params.shape):
        raise DimensionMismatchError("stable draw missing or mis-shaped")
    if cfg.sigma2 > 0.0 and (gaussian_draw is None or gaussian_draw.shape != params.shape):
        raise DimensionMismatchError("gaussian draw missing or mis-shaped")
    return EulerMaruyama(cfg, params.size)(
        params,
        grad,
        stable_draw if cfg.sigma1 > 0.0 else None,
        gaussian_draw if cfg.sigma2 > 0.0 else None,
        np.empty(params.shape),
    )


class _Run:
    """One alpha's own state in a group: parameters, update, noise scale,
    and what the run measured so far."""

    __slots__ = ("cfg", "params", "spare", "update", "noise", "grad_sq", "evals", "steps", "diverged")

    def __init__(self, cfg: TrainConfig, params: np.ndarray):
        self.cfg, self.params, self.spare = cfg, params, np.empty(params.size)
        self.update = EulerMaruyama(cfg, params.size)
        self.noise = StableNoise(cfg.alpha)
        self.grad_sq = np.empty(cfg.steps)
        self.evals: list[tuple[int, float, float]] = []
        self.steps = 0
        self.diverged = False

    def trace(self) -> RunTrace:
        self.grad_sq.flags.writeable = self.params.flags.writeable = False
        return RunTrace(self.cfg, self.grad_sq[: self.steps], tuple(self.evals),
                        self.params, self.diverged)


def _record(pending) -> None:
    """Append the errors of the eval step ``pending`` (if any) to its runs,
    once the helper has them; the helper's exception is raised here."""
    if pending is not None:
        k, runs, (train_errors, test_errors) = pending
        for run, train_err, test_err in zip(runs, train_errors.result(), test_errors.result()):
            run.evals.append((k, train_err, test_err))


def run_group(
    spec: ModelSpec,
    train: Dataset,
    test: Dataset,
    cfg: TrainConfig,
    alphas,
    init_scale: float = 1.0,
    rng: RngStream | None = None,
    after: int = 0,
) -> list[RunTrace]:
    """Run ``cfg`` at each of ``alphas`` in lockstep on one random stream,
    ``rng`` or by default the stream of ``cfg.seed``.

    The runs differ only in alpha, and alpha changes no draw: each step
    draws the batch indices, the subordinator's uniforms, the Gaussian G
    and the Brownian vector once, and only the scale sqrt(A) of the
    stable draw is computed per alpha. Step k is evaluated when k >
    ``after`` and k is a multiple of ``eval_interval`` or the last step:
    the live runs get their train and test errors from one
    ``error_rates`` call per data set, in either batch mode, on the
    parameters the step's gradient will use. Every live run then takes
    its gradient, update and divergence check in turn; a run that
    diverges stops while the others go on. Each run keeps its own
    parameters, update and measurements; the gradient kernel and draw
    buffers are the group's, and the evals keep nothing between steps.

    The evals run on one helper thread while the loop goes on with the
    step's gradients and updates (numpy's matmul and argmax release the
    GIL, so a second core does the eval, on the same data set). Before any
    update, the calling thread copies the live runs' parameters into one
    snapshot, which both of the step's evals read, and notes which runs
    they are; it collects the previous eval step's errors before it hands
    over the next, so each run's ``evals`` stay in step order, and
    collects the last before it returns, also when every run has
    diverged. An eval's exception is
    raised here. No thread outlives the call, on any path out: a process
    forked with a live thread (``grid``'s split forks between groups) can
    deadlock on the locks that thread held.

    Each returned trace is the trace ``run_training`` gives its alpha
    alone on a stream of the same key, less its evals up to ``after``:
    the dynamics bit for bit, and the errors as ``error_rates`` promises
    them (the same rates unless two of a row's logits lie within rounding
    of each other).
    """
    # imported here, not with the module, so that loading levybound does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    if train.input_dim != test.input_dim or train.num_classes != test.num_classes:
        raise DimensionMismatchError("train and test datasets do not match")
    if cfg.batch_size is not None and cfg.batch_size > train.n:
        raise InvalidParameterError(
            f"batch_size {cfg.batch_size} exceeds training rows {train.n}"
        )
    if rng is None:
        rng = RngStream(cfg.seed, CELL_STREAM)

    d = param_count(spec)
    init = init_params(spec, init_scale, rng)
    runs = [_Run(replace(cfg, alpha=alpha), init.copy()) for alpha in alphas]
    n = train.n
    full_batch = cfg.batch_size is None
    model = ModelKernel(spec, n if full_batch else cfg.batch_size)
    gaussian, stable = (np.empty(d), np.empty(d)) if cfg.sigma1 > 0.0 else (None, None)
    brownian = np.empty(d) if cfg.sigma2 > 0.0 else None
    if full_batch:
        x = np.ascontiguousarray(train.features)
        label_index = model.row_starts + train.labels
    live = runs
    pending = None  # the eval step on the helper: (step, its runs, train and test errors to come)

    with ThreadPoolExecutor(max_workers=1) as helper:
        for k in range(1, cfg.steps + 1):
            if not full_batch:
                idx = rng.gen.choice(n, size=cfg.batch_size, replace=False)
                x = train.features[idx]
                label_index = model.row_starts + train.labels[idx]
            if gaussian is not None:
                u, w = cms_uniforms(rng)
                rng.gen.standard_normal(out=gaussian)
            if brownian is not None:
                rng.gen.standard_normal(out=brownian)

            if k > after and (k % cfg.eval_interval == 0 or k == cfg.steps):
                _record(pending)
                # a copy: the next step's update writes into these arrays
                snapshot = np.array([run.params for run in live])
                pending = (k, live, [helper.submit(error_rates, spec, snapshot, data.features,
                                                   data.labels) for data in (train, test)])

            for run in live:
                grad = model.gradient(run.params, x, label_index)
                run.grad_sq[k - 1] = grad @ grad
                run.steps = k
                stable_draw = None
                if gaussian is not None:
                    stable_draw = np.multiply(gaussian, run.noise.scale(u, w), out=stable)
                params = run.update(run.params, grad, stable_draw, brownian, run.spare)
                run.params, run.spare = params, run.params
                # a NaN or overflowed coordinate makes the norm NaN or inf
                run.diverged = not math.sqrt(params @ params) <= DIVERGENCE_NORM

            if any(run.diverged for run in live):
                live = [run for run in live if not run.diverged]
                if not live:
                    break
        _record(pending)

    return [run.trace() for run in runs]


def run_training(
    spec: ModelSpec,
    train: Dataset,
    test: Dataset,
    cfg: TrainConfig,
    init_scale: float = 1.0,
    rng: RngStream | None = None,
) -> RunTrace:
    """Run the discretized dynamics and report per-step instrumentation.

    The trace holds the squared norm of the gradient actually used
    (batch or full) at every step, and the train/test 0-1 errors every
    ``eval_interval`` steps and at the last step. A non-finite parameter
    or a norm above 1e12 stops the run early with the diverged flag set;
    that is a recorded outcome, not an error.

    This is ``run_group`` with the one alpha ``cfg.alpha``. The gradient
    kernel and draw buffers are set up once, before the loop. Parameters
    that reach a step passed the previous step's divergence check, so the
    loop skips the validation the public gradient, sampler, update and
    eval functions do. Both errors come from ``models.error_rates``, the
    one eval path of every run.
    """
    (trace,) = run_group(spec, train, test, cfg, (cfg.alpha,), init_scale, rng)
    return trace
