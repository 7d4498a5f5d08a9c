"""Post-processing: robust gap estimation, rank correlations,
phase-transition scans, tail-index regression, and radius estimation.

The accuracy gap of a run is the trimmed mean of (test error - train
error) over a trailing window, discarding the largest values so that
isolated stable-noise jumps do not bias the estimate. Scans group run
records by dimension or noise scale and correlate the gap with the tail
index; the tail-index regression inverts the d^(1/2 - alpha/4) scaling
of the bound; the radius estimate reads off where the correlation
changes sign.

The scan, the regression and the report take a ``RecordTable`` and
read only the rows ``_live_rows`` picks; a table it refuses exits 3 in
the CLI. Groups come from stable sorts, so each (group, alpha) is one
contiguous slice of gaps in record order: its mean and std are
``np.mean`` and ``np.std`` of that slice, the same pairwise sums as over
a list of those gaps. A group or an alpha takes the value of its first
row in record order, which tells -0.0 from 0.0. Every Kendall tau,
``kendall_tau``'s included, comes from one engine, ``_block_taus``, which
counts the signs of every pair: a scan makes one call for all its
per-seed taus and one for all its groups' mean-gap taus.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import phase_regime
from .data import RecordTable
from .errors import (
    AnalysisPreconditionError,
    DimensionMismatchError,
    InvalidParameterError,
)
from .sde import RunTrace

# The record fields a correlation scan can group by.
GROUP_KEYS = ("d", "sigma1")


@dataclass(frozen=True)
class GroupScan:
    """Correlations between alpha and the gap within one group, plus the
    (alpha, mean gap, std gap) rows they are computed from, by ascending alpha."""

    group: float
    n_seeds: int
    tau_seed_mean: float
    tau_seed_std: float
    tau_mean_gap: float
    pearson_mean_gap: float
    alpha_gaps: tuple[tuple[float, float, float], ...] = ()


@dataclass(frozen=True)
class AnalysisReport:
    """Correlation scan plus the report-level estimates derived from it.

    Optional fields are None when the records cannot support them (a
    single d value, no tau sign change); the notes say why.
    """

    group_key: str
    groups: tuple[GroupScan, ...]
    regimes: tuple[tuple[str, str], ...]
    r_hat: float | None = None
    intercept: float | None = None
    alpha_hat: float | None = None
    radius_estimate: float | None = None
    regression_note: str | None = None
    radius_note: str | None = None


def robust_gap(trace: RunTrace, window: int = 2000, trim: float = 0.15) -> float:
    """Trimmed mean gap over the last ``window`` steps of a trace.

    Removes the ceil(trim * count) largest gaps before averaging.
    """
    if window < 1:
        raise InvalidParameterError("window must be >= 1")
    if not 0.0 <= trim < 1.0:
        raise InvalidParameterError(f"trim must be in [0, 1), got {trim}")
    last_step = trace.grad_sq.size
    gaps = [test - train for k, train, test in trace.evals if k > last_step - window]
    if not gaps:
        raise AnalysisPreconditionError("no evaluated gaps in the window")
    drop = math.ceil(trim * len(gaps))
    kept = sorted(gaps)[: len(gaps) - drop] if drop else gaps
    if not kept:
        raise AnalysisPreconditionError("trimming removed every gap in the window")
    return math.fsum(kept) / len(kept)


def kendall_tau(xs, ys) -> float:
    """Tie-adjusted Kendall tau-b, counted from the signs of every pair
    (``_block_taus`` on one block).

    The count is quadratic in the length: up to 256 pairs it is one
    broadcast, and a longer input is counted in bands of rows. At 300,
    1000 and 3000 pairs of few distinct values it took 0.39, 3.7 and 12 ms
    (min of 15 calls on one Xeon core); no scan of a sweep's records has
    seeds or groups that long.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatchError(f"shapes {x.shape} and {y.shape} do not pair up")
    n = x.size
    if n < 2:
        raise AnalysisPreconditionError("need at least 2 pairs")
    if np.isnan(x).any() or np.isnan(y).any():
        raise AnalysisPreconditionError("tau undefined: NaN input")
    tau = float(_block_taus(x, y, np.array([0, n]))[0])
    if math.isnan(tau):
        raise AnalysisPreconditionError("tau undefined: a variable is constant")
    return tau


def pearson(xs, ys) -> float:
    """Product-moment correlation coefficient."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatchError(f"shapes {x.shape} and {y.shape} do not pair up")
    if x.size < 2:
        raise AnalysisPreconditionError("need at least 2 pairs")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        raise AnalysisPreconditionError("pearson undefined: a variable is constant")
    return float(dx @ dy) / math.sqrt(sx * sy)


def _live_rows(table: RecordTable, key: str) -> np.ndarray:
    """The indices of the non-diverged rows. Refuses a table with none, and
    the first whose gap, alpha or sigma1 is not finite or whose d is below
    1, naming it by alpha, seed and ``key``."""
    live = np.flatnonzero(~table.diverged)
    if not live.size:
        raise AnalysisPreconditionError("no non-diverged records")
    fine = table.diverged | (np.isfinite(table.gap) & np.isfinite(table.alpha)
                             & np.isfinite(table.sigma1) & (table.d >= 1))
    if not fine.all():
        i = fine.argmin()
        values = {f: getattr(table, f).item(i) for f in ("gap", "alpha", "sigma1")}
        what = next((f"{'NaN' if math.isnan(v) else v} {f}"
                     for f, v in values.items() if not math.isfinite(v)), "d < 1")
        raise AnalysisPreconditionError(
            f"non-diverged record with {what}: alpha={table.alpha.item(i)} "
            f"seed={table.seed.item(i)} {key}={getattr(table, key).item(i)}"
        )
    return live


def _run_bounds(*columns) -> np.ndarray:
    """Where each run of equal rows of sorted ``columns`` starts, then their length."""
    n = len(columns[0])
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for c in columns:
        new[1:] |= c[1:] != c[:-1]
    return np.append(np.flatnonzero(new), n)


def _signs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a > b).view(np.int8) - (a < b).view(np.int8)


def _pair_counts(sx: np.ndarray, sy: np.ndarray, axis):
    """Pairs untied in x, pairs untied in y, and concordant minus
    discordant pairs, from the pairs' signs in x and in y."""
    return np.count_nonzero(sx, axis), np.count_nonzero(sy, axis), (sx * sy).sum(axis)


# Pairs counted at once, about 60 bytes of temporaries each.
_PAIR_BUDGET = 1 << 15


def _block_taus(x: np.ndarray, y: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Kendall tau-b of (x, y) over each block ``bounds[b]:bounds[b + 1]``;
    NaN where tau is undefined (one row, or x or y constant). NaN values
    count as ties, so callers reject them first.

    Each tau is (concordant - discordant) / sqrt((n0 - x ties) * (n0 - y
    ties)), all integers counted from the signs of every pair and the
    product rounded once to a float, so equal counts give equal bits.
    Blocks of one size of at most _PAIR_BUDGET pairs share their pair
    indices and are counted together, at most _PAIR_BUDGET pairs at a
    time; a larger block (over 256 rows) is counted in bands of rows
    against all its rows, each pair in both orders, at most _PAIR_BUDGET
    ordered pairs a band (one row if the block is larger still).
    """
    starts, sizes = bounds[:-1], np.diff(bounds)
    x_free, y_free, cmd = np.zeros((3, sizes.size), dtype=np.int64)
    for m in np.unique(sizes[sizes > 1]).tolist():
        blocks = np.flatnonzero(sizes == m)
        n0 = m * (m - 1) // 2
        if n0 <= _PAIR_BUDGET:
            first, second = np.triu_indices(m, 1)
            per_chunk = _PAIR_BUDGET // n0
            for lo in range(0, blocks.size, per_chunk):
                chunk = blocks[lo:lo + per_chunk]
                i, j = starts[chunk, None] + first, starts[chunk, None] + second
                x_free[chunk], y_free[chunk], cmd[chunk] = _pair_counts(
                    _signs(x[i], x[j]), _signs(y[i], y[j]), 1)
            continue
        band = max(1, _PAIR_BUDGET // m)
        for b in blocks.tolist():
            xb, yb = x[starts[b]:starts[b] + m], y[starts[b]:starts[b] + m]
            counts = np.zeros(3, dtype=np.int64)
            for lo in range(0, m, band):
                counts += _pair_counts(_signs(xb[lo:lo + band, None], xb),
                                       _signs(yb[lo:lo + band, None], yb), None)
            x_free[b], y_free[b], cmd[b] = counts // 2
    taus = np.full(sizes.size, np.nan)
    ok = (x_free > 0) & (y_free > 0)
    taus[ok] = cmd[ok] / np.sqrt(x_free[ok].astype(float) * y_free[ok])
    return taus


def correlation_scan(table: RecordTable, group_key: str) -> list[GroupScan]:
    """Per-group correlation between alpha and the gap over the live rows.

    Two variants per group: the per-seed tau (mean and std across seeds;
    seeds whose gaps are degenerate for tau are skipped) and the tau on
    seed-averaged gaps.
    """
    if group_key not in GROUP_KEYS:
        raise InvalidParameterError(f"group_key must be 'd' or 'sigma1', got {group_key!r}")
    live = _live_rows(table, group_key)
    key, alpha, gap, seed = (getattr(table, f)[live] for f in (group_key, "alpha", "gap", "seed"))

    by_seed = np.lexsort((seed, key))
    seed_bounds = _run_bounds(key[by_seed], seed[by_seed])
    taus = _block_taus(alpha[by_seed], gap[by_seed], seed_bounds)
    seed_runs = np.searchsorted(seed_bounds, _run_bounds(key[by_seed]))

    by_alpha = np.lexsort((alpha, key))
    alpha_bounds = _run_bounds(key[by_alpha], alpha[by_alpha])
    group_bounds = _run_bounds(key[by_alpha])
    alpha_runs = np.searchsorted(alpha_bounds, group_bounds)
    run_alphas = alpha[by_alpha][alpha_bounds[:-1]]
    slices = np.split(gap[by_alpha], alpha_bounds[1:-1])
    means = np.array([np.mean(s) for s in slices])
    stds = [float(np.std(s)) for s in slices]
    mean_gap_taus = _block_taus(run_alphas, means, alpha_runs)
    # a group, like an alpha, takes the value of its first row in record order
    groups = key[np.minimum.reduceat(by_alpha, group_bounds[:-1])].tolist()

    scans = []
    for k, g in enumerate(groups):
        lo, hi = alpha_runs[k], alpha_runs[k + 1]
        if hi - lo < 2:
            raise AnalysisPreconditionError(
                f"group {group_key}={g} has fewer than 2 distinct alpha values"
            )
        seed_taus = taus[seed_runs[k]:seed_runs[k + 1]]
        seed_taus = seed_taus[~np.isnan(seed_taus)]
        alphas, mean_gaps = run_alphas[lo:hi].tolist(), means[lo:hi].tolist()
        tau_mean_gap = float(mean_gap_taus[k])
        if math.isnan(tau_mean_gap) or np.isnan(means[lo:hi]).any():
            kendall_tau(alphas, mean_gaps)  # raises why tau is undefined
        scans.append(
            GroupScan(
                group=float(g),
                n_seeds=seed_taus.size,
                tau_seed_mean=float(np.mean(seed_taus)) if seed_taus.size else float("nan"),
                tau_seed_std=float(np.std(seed_taus)) if seed_taus.size else float("nan"),
                tau_mean_gap=tau_mean_gap,
                pearson_mean_gap=pearson(alphas, mean_gaps),
                alpha_gaps=tuple(zip(alphas, mean_gaps, stds[lo:hi])),
            )
        )
    return scans


def alpha_regression(table: RecordTable) -> tuple[float, float, float]:
    """OLS of log(seed-averaged gap) on log(d) over the live rows;
    returns (r_hat, intercept, alpha_hat).

    alpha_hat = 2 - 4 r_hat inverts the d^(1/2 - alpha/4) scaling.
    """
    live = _live_rows(table, "d")
    d, gap = table.d[live], table.gap[live]
    order = np.argsort(d, kind="stable")
    d, gap = d[order], gap[order]
    bounds = _run_bounds(d)
    dims = d[bounds[:-1]].tolist()
    if len(dims) < 2:
        raise AnalysisPreconditionError("need at least 2 distinct d values")
    mean_gaps = []
    for dim, lo, hi in zip(dims, bounds[:-1], bounds[1:]):
        g = float(np.mean(gap[lo:hi]))
        if not g > 0.0:
            raise AnalysisPreconditionError(f"non-positive mean gap {g} at d={dim}")
        mean_gaps.append(g)
    x = np.log(np.asarray(dims, dtype=float))
    y = np.log(np.asarray(mean_gaps))
    dx = x - x.mean()
    denom = float(dx @ dx)
    if denom == 0.0:
        raise AnalysisPreconditionError("degenerate design: all d equal")
    slope = float(dx @ (y - y.mean())) / denom
    intercept = float(y.mean() - slope * x.mean())
    return slope, intercept, 2.0 - 4.0 * slope


def estimate_radius(scan, sigma1: float | None = None, d: int | None = None) -> float:
    """Radius estimate from the first sign change of the seed-averaged tau.

    Give exactly one fixed value: ``sigma1`` for a d-scan, ``d`` for a
    sigma1-scan. The crossing is interpolated linearly along ``scan``, a
    sequence of GroupScans by ascending group, and sigma1 * sqrt(d) is
    returned there.
    """
    if (sigma1 is None) == (d is None):
        raise InvalidParameterError("give exactly one of sigma1 (a d-scan) or d (a sigma1-scan)")
    if len(scan) < 2:
        raise AnalysisPreconditionError("need at least 2 groups to locate a crossing")
    xs = [s.group for s in scan]
    taus = [s.tau_mean_gap for s in scan]
    crossing = None
    for i in range(len(xs)):
        if taus[i] == 0.0:
            crossing = xs[i]
            break
        if i + 1 < len(xs) and taus[i] * taus[i + 1] < 0.0:
            t = taus[i] / (taus[i] - taus[i + 1])
            crossing = xs[i] + t * (xs[i + 1] - xs[i])
            break
    if crossing is None:
        raise AnalysisPreconditionError("tau never changes sign along the scan")
    if d is None:
        return sigma1 * math.sqrt(crossing)
    return crossing * math.sqrt(d)


def _regime(radius: float, sigma1: float, d) -> tuple[str, str]:
    """``phase_regime``'s labels; empty for a sigma1 = 0 group, which has no regime."""
    try:
        return phase_regime(sigma1, int(d), radius)
    except InvalidParameterError:
        return ("", "")


def build_report(table: RecordTable, group_key: str, radius: float = 1.0) -> AnalysisReport:
    """Assemble the full analysis report over the live rows.

    Regime labels need the scan axis isolated (one sigma1 for a d-scan,
    one d for a sigma1-scan) and a positive noise scale; the regression
    needs at least two dimensions; the radius estimate needs a tau sign
    change. Whatever is unavailable is reported as None with a note.
    """
    if not radius > 0.0:
        raise InvalidParameterError(f"radius must be > 0, got {radius}")
    scans = tuple(correlation_scan(table, group_key))
    # the scan axis is isolated when the other axis holds one value over the
    # live rows; that value is its first live row's
    other = "sigma1" if group_key == "d" else "d"
    fixed = getattr(table, other)[_live_rows(table, group_key)]
    regimes = [("", "")] * len(scans)
    radius_estimate, radius_note = None, "scan axis is not isolated"
    if (fixed == fixed[0]).all():
        at = {other: fixed.item(0)}
        regimes = [_regime(radius, **{group_key: s.group}, **at) for s in scans]
        try:
            radius_estimate, radius_note = estimate_radius(scans, **at), None
        except AnalysisPreconditionError as exc:
            radius_note = str(exc)

    r_hat = intercept = alpha_hat = None
    regression_note = None
    try:
        r_hat, intercept, alpha_hat = alpha_regression(table)
    except AnalysisPreconditionError as exc:
        regression_note = str(exc)

    return AnalysisReport(
        group_key=group_key,
        groups=scans,
        regimes=tuple(regimes),
        r_hat=r_hat,
        intercept=intercept,
        alpha_hat=alpha_hat,
        radius_estimate=radius_estimate,
        regression_note=regression_note,
        radius_note=radius_note,
    )
