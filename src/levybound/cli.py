"""Command-line entry point.

Subcommands: constants, sample, simulate, grid, analyze, regress-alpha.
Each reads a flat key=value config (where applicable) plus ``--set``
flag overrides, and emits CSV to stdout or ``--out``. ``_grid_spec``
reads every config value into a ``GridSpec``, which refuses one that
cannot describe a run before data load or an output file is created.
Exit codes: 0 success, 1 config error, 2 I/O error, 3 analysis
precondition failure.
"""

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import analysis as an
from . import constants as co
from .bounds import brownian_bound, discrete_bound, stable_bound
from .data import SyntheticSpec, parse_config, read_table
from .errors import (
    AnalysisPreconditionError,
    DataFormatError,
    InvalidParameterError,
)
from .grid import GridSpec, IdxSource, evaluate_group, execute_grid, load_grid_datasets
from .rng import RngStream
from .sde import TrainConfig
from .stable import StableParams, sample_isotropic_stable, sample_skewed_stable

# Standard experiment profile: gamma 1e-2, eta 1e-3, trailing window of
# 2000 iterations with the top 15% trimmed, 10 alphas linear in [1.6, 2].
DEFAULTS = {
    "gamma": "0.01",
    "eta": "0.001",
    "sigma2": "0",
    "steps": "3000",
    "batch_size": "full",
    "eval_interval": "10",
    "widths": "0",
    "seeds": "0",
    "init_scale": "1.0",
    "window": "2000",
    "trim": "0.15",
    "R": "1.0",
    "s": "0.5",
    "zeta": "0.05",
    "Lambda": "0.0",
    "alphas": ",".join(format(a, ".17g") for a in np.linspace(1.6, 2.0, 10)),
    "data": "synthetic",
    "n_per_class": "250",
    "input_dim": "20",
    "classes": "2",
    "separation": "2.0",
    "noise_std": "1.0",
    "data_seed": "0",
    "subsample": "1.0",
    "subsample_seed": "0",
}
# Every key a subcommand reads: the defaulted ones, the grid's sigma1
# list, its output path and the IDX data paths.
CONFIG_KEYS = frozenset(DEFAULTS) | {
    "sigma1s", "out", "train_images", "train_labels", "test_images", "test_labels",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _finite(text: str) -> float:
    """The argparse type of every float option: a number, not NaN or infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _cfg_from(args) -> dict[str, str]:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(parse_config(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise InvalidParameterError(f"--set needs key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg[key.strip()] = value.strip()
    unknown = sorted(cfg.keys() - CONFIG_KEYS)
    if unknown:
        raise InvalidParameterError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    return cfg


def _value(cfg, key, convert, many=False):
    """Config value ``key`` through ``convert`` (float or int); a tuple if ``many``.

    An infinite float is rejected here; a NaN is left to the check of the
    spec that receives it, which names the field's valid range.
    """
    try:
        raw = cfg[key]
    except KeyError:
        raise InvalidParameterError(f"missing config key {key!r}") from None
    try:
        values = tuple(convert(v) for v in raw.split(",")) if many else (convert(raw),)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        kind += " list" if many else ""
        raise InvalidParameterError(f"config key {key!r} is not {kind}: {raw!r}") from None
    if any(math.isinf(v) for v in values):
        raise InvalidParameterError(f"config key {key!r} must be finite, got {raw!r}")
    return values if many else values[0]


def _train_config(cfg) -> TrainConfig:
    """The grid's training template; each cell replaces alpha, sigma1 and seed."""
    batch = cfg["batch_size"].strip().lower()
    if batch in ("full", ""):
        batch_size = None
    else:
        try:
            batch_size = int(batch)
        except ValueError:
            raise InvalidParameterError(
                f"batch_size must be an integer or 'full', got {batch!r}"
            ) from None
    return TrainConfig(
        gamma=_value(cfg, "gamma", float),
        eta=_value(cfg, "eta", float),
        alpha=2.0,
        sigma1=0.0,
        sigma2=_value(cfg, "sigma2", float),
        steps=_value(cfg, "steps", int),
        batch_size=batch_size,
        eval_interval=_value(cfg, "eval_interval", int),
    )


def _data_source(cfg):
    kind = cfg["data"].strip().lower()
    if kind == "synthetic":
        return SyntheticSpec(
            n_per_class=_value(cfg, "n_per_class", int),
            input_dim=_value(cfg, "input_dim", int),
            classes=_value(cfg, "classes", int),
            separation=_value(cfg, "separation", float),
            noise_std=_value(cfg, "noise_std", float),
            seed=_value(cfg, "data_seed", int),
        )
    if kind == "idx":
        paths = ("train_images", "train_labels", "test_images", "test_labels")
        for key in paths:
            if key not in cfg:
                raise InvalidParameterError(f"idx data source needs config key {key!r}")
        return IdxSource(*(cfg[key] for key in paths),
                         subsample_fraction=_value(cfg, "subsample", float),
                         subsample_seed=_value(cfg, "subsample_seed", int))
    raise InvalidParameterError(f"data must be 'synthetic' or 'idx', got {cfg['data']!r}")


def _grid_spec(cfg, out: str) -> GridSpec:
    return GridSpec(
        alphas=_value(cfg, "alphas", float, many=True),
        sigma1s=_value(cfg, "sigma1s", float, many=True),
        widths=_value(cfg, "widths", int, many=True),
        seeds=_value(cfg, "seeds", int, many=True),
        train=_train_config(cfg),
        data=_data_source(cfg),
        out=out,
        init_scale=_value(cfg, "init_scale", float),
        window=_value(cfg, "window", int),
        trim=_value(cfg, "trim", float),
        radius=_value(cfg, "R", float),
        s=_value(cfg, "s", float),
        zeta=_value(cfg, "zeta", float),
        lam=_value(cfg, "Lambda", float),
    )


def _field(v) -> str:
    """One table field: floats at 17 significant digits, None (not applicable) empty."""
    if isinstance(v, float):
        return format(v, ".17g")
    return "" if v is None else str(v)


def _emit(path, header, rows, sep=",") -> None:
    """Write ``header`` (None for none), then one line per row, to ``path`` or stdout."""
    lines = [] if header is None else [header]
    lines += [sep.join(map(_field, row)) for row in rows]
    text = "".join(line + "\n" for line in lines)
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


CONSTANTS_HEADER = (
    "alpha,d,radius,sigma1,k,k_bar,p,c,sphere_area,log_c,log_sphere_area,"
    "regime,regime_refined,prior_constant,xi_ours,xi_prior"
)


def _cmd_constants(args) -> int:
    alpha, d, radius = args.alpha, args.d, args.radius
    k = co.k_alpha_d(alpha, d, radius)  # first: its checks decide what a bad input reports
    row = (
        alpha, d, radius, args.sigma1, k, k * radius ** (2.0 - alpha), co.p_alpha(alpha),
        co.stable_levy_constant(alpha, d), co.sphere_area(d),
        co.log_stable_levy_constant(alpha, d), co.log_sphere_area(d),
        *co.phase_regime(args.sigma1, d, radius), *co.comparison_rate(alpha, d),
    )
    _emit(args.out, CONSTANTS_HEADER, [row])
    return 0


def _cmd_sample(args) -> int:
    rng = RngStream(args.seed, args.stream)
    scalar = {"--beta": args.beta, "--scale": args.scale, "--loc": args.loc}
    if args.dim is not None:
        given = [flag for flag, value in scalar.items() if value is not None]
        if given:
            raise InvalidParameterError(f"{', '.join(given)} apply to the scalar law, not --dim")
        draws = sample_isotropic_stable(args.alpha, args.dim, rng, size=args.count)
    else:
        beta, scale, loc = (default if value is None else value
                            for value, default in zip(scalar.values(), (0.0, 1.0, 0.0)))
        params = StableParams(args.alpha, beta, scale, loc)
        draws = sample_skewed_stable(params, rng, size=args.count)[:, None]
    _emit(args.out, None, draws, sep=" ")
    return 0


SIMULATE_HEADER = (
    "alpha,sigma1,d,width,n,seed,gap,i_hat,g_hat,"
    "stable_bound,discrete_bound,brownian_bound,diverged"
)


def _cmd_simulate(args) -> int:
    cfg = _cfg_from(args)
    grid = _grid_spec(cfg, out="")
    if grid.cell_count != 1:
        raise InvalidParameterError(f"simulate runs one cell, but alphas, sigma1s, widths "
                                    f"and seeds name {grid.cell_count} cells")
    (alpha,), (sigma1,), (width,), (seed,) = grid.alphas, grid.sigma1s, grid.widths, grid.seeds
    created = False
    if args.out:
        # an unwritable --out fails before the cell trains; an existing one
        # keeps its bytes, and one made here is removed if the run fails
        created = not os.path.exists(args.out)
        open(args.out, "a").close()
    try:
        train, test = load_grid_datasets(grid)
        (record,) = evaluate_group(grid, train, test, (alpha,), sigma1, width, seed)

        # fields that do not apply to the cell stay None (empty)
        gap = i_hat = g_hat = thm = disc = brown = None
        if not record.diverged:
            gap, i_hat = record.gap, record.i_hat
            cell = replace(grid.train, alpha=alpha, sigma1=sigma1)
            inputs = grid.bound_inputs(cell, record.d, record.n)
            if sigma1 > 0.0:
                g_hat, thm = record.g_hat, stable_bound(i_hat, inputs)
                if inputs.eta > 0.0:
                    disc = discrete_bound(i_hat, inputs)
            if inputs.sigma2 > 0.0:
                brown = brownian_bound(i_hat, inputs)
        row = (*record[:6], gap, i_hat, g_hat, thm, disc, brown,
               "true" if record.diverged else "false")
        _emit(args.out, SIMULATE_HEADER, [row])
    except BaseException:
        if created:
            os.remove(args.out)
        raise
    return 0


def _cmd_grid(args) -> int:
    cfg = _cfg_from(args)
    out = args.out or cfg.get("out")
    if not out:
        raise InvalidParameterError("grid needs an output path (config key 'out' or --out)")
    grid = _grid_spec(cfg, out)
    print(f"cells: {grid.cell_count}", file=sys.stderr)
    records = execute_grid(grid)
    print(f"wrote {len(records)} records to {grid.out}", file=sys.stderr)
    return 0


REPORT_HEADER = (
    "group_key,group,n_seeds,tau_seed_mean,tau_seed_std,tau_mean_gap,"
    "pearson_mean_gap,regime,regime_refined,r_hat,intercept,alpha_hat,radius_estimate"
)


def _cmd_analyze(args) -> int:
    report = an.build_report(read_table(args.records), args.group_key, radius=args.radius)
    if report.regression_note:
        print(f"alpha regression unavailable: {report.regression_note}", file=sys.stderr)
    if report.radius_note:
        print(f"radius estimate unavailable: {report.radius_note}", file=sys.stderr)

    estimates = (report.r_hat, report.intercept, report.alpha_hat, report.radius_estimate)
    rows = [
        (report.group_key, s.group, s.n_seeds, s.tau_seed_mean, s.tau_seed_std, s.tau_mean_gap,
         s.pearson_mean_gap, *regime, *estimates)
        for s, regime in zip(report.groups, report.regimes)
    ]
    _emit(args.out, REPORT_HEADER, rows)
    if args.long_out:
        long_rows = [(s.group, *row) for s in report.groups for row in s.alpha_gaps]
        _emit(args.long_out, "group,alpha,mean_gap,std_gap", long_rows)
    return 0


def _cmd_regress_alpha(args) -> int:
    _emit(args.out, "r_hat,intercept,alpha_hat", [an.alpha_regression(read_table(args.records))])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="levybound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="evaluate the bound constants at one (alpha, d, R)")
    p.add_argument("--alpha", type=_finite, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--radius", "--R", type=_finite, default=1.0)
    p.add_argument("--sigma1", type=_finite, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("sample", help="emit stable draws, one sample per line")
    p.add_argument("--alpha", type=_finite, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--dim", type=int, help="isotropic vector dimension; omit for the scalar law")
    p.add_argument("--beta", type=_finite, help="scalar law only (default 0)")
    p.add_argument("--scale", type=_finite, help="scalar law only (default 1)")
    p.add_argument("--loc", type=_finite, help="scalar law only (default 0)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("simulate", help="run one training cell and print its estimators")
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("grid", help="run an experiment grid, resumable")
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", help="records CSV path (overrides config key 'out')")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("analyze", help="correlation scan over a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--group-key", choices=an.GROUP_KEYS, default="d")
    p.add_argument("--radius", type=_finite, default=1.0)
    p.add_argument("--out")
    p.add_argument("--long-out", help="plot-ready long-format CSV path")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("regress-alpha", help="tail-index regression from a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_regress_alpha)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvalidParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, DataFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except AnalysisPreconditionError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:  # pragma: no cover
    sys.exit(main())
