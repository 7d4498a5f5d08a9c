"""Heavy-tailed SDE training dynamics and generalization-bound estimation.

The package simulates the Euler-Maruyama discretization of gradient
dynamics driven by isotropic alpha-stable noise on small classifiers,
evaluates the closed-form constants and estimators of the associated
high-probability generalization bounds, and runs the grid / correlation
/ regression pipelines that probe the heavy-vs-light phase transition.
"""

from .analysis import (
    AnalysisReport,
    GroupScan,
    alpha_regression,
    build_report,
    correlation_scan,
    estimate_radius,
    kendall_tau,
    pearson,
    robust_gap,
)
from .bounds import (
    BoundInputs,
    bound_estimate,
    brownian_bound,
    discrete_bound,
    integral_estimate,
    stable_bound,
)
from .constants import (
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
from .data import (
    RecordTable,
    RunRecord,
    SyntheticSpec,
    generate_synthetic,
    load_idx,
    parse_config,
    read_records,
    read_table,
    subsample,
    write_records,
)
from .grid import GridSpec, IdxSource, execute_grid
from .models import (
    Dataset,
    ModelSpec,
    init_params,
    param_count,
    surrogate_loss_and_grad,
    zero_one_error,
)
from .rng import RngStream, mix64
from .sde import RunTrace, StepRecord, TrainConfig, em_step, run_training
from .stable import (
    StableParams,
    sample_isotropic_stable,
    sample_skewed_stable,
)

__all__ = [
    "AnalysisReport",
    "BoundInputs",
    "Dataset",
    "GridSpec",
    "GroupScan",
    "IdxSource",
    "ModelSpec",
    "REFINED_THRESHOLD",
    "RecordTable",
    "RngStream",
    "RunRecord",
    "RunTrace",
    "StableParams",
    "StepRecord",
    "SyntheticSpec",
    "TrainConfig",
    "alpha_regression",
    "build_report",
    "bound_estimate",
    "brownian_bound",
    "comparison_rate",
    "correlation_scan",
    "discrete_bound",
    "discrete_prefactor",
    "em_step",
    "estimate_radius",
    "execute_grid",
    "generate_synthetic",
    "init_params",
    "integral_estimate",
    "k_alpha_d",
    "kendall_tau",
    "load_idx",
    "log_gamma",
    "mix64",
    "p_alpha",
    "param_count",
    "parse_config",
    "pearson",
    "phase_regime",
    "read_records",
    "read_table",
    "robust_gap",
    "run_training",
    "sample_isotropic_stable",
    "sample_skewed_stable",
    "sphere_area",
    "stable_levy_constant",
    "subsample",
    "surrogate_loss_and_grad",
    "stable_bound",
    "write_records",
    "zero_one_error",
]
