"""Post-processing: robust gap estimation, rank correlations,
phase-transition scans, tail-index regression, and radius estimation.

The accuracy gap of a run is the trimmed mean of (test error - train
error) over a trailing window, discarding the largest values so that
isolated stable-noise jumps do not bias the estimate. Scans group run
records by dimension or noise scale and correlate the gap with the tail
index; the tail-index regression inverts the d^(1/2 - alpha/4) scaling
of the bound; the radius estimate reads off where the correlation
changes sign.

The scan, the regression and the report work on the columns of a
``RecordTable``; an iterable of ``RunRecord``s is converted once on
entry. Groups come from stable sorts, so each (group, alpha) is one
contiguous slice of gaps in record order: its mean and std are
``np.mean`` and ``np.std`` of that slice, the same pairwise sums as over
a list of those gaps. A group or an alpha takes the value of its first
row in record order, which tells -0.0 from 0.0. Each seed's tau is
formed from the integers ``kendall_tau`` forms, counted from pair signs
for all seeds of one size at once, so it has the same bits.
"""

import math
from bisect import bisect_right
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


def _tie_pairs(values: list) -> int:
    """Pairs of equal values in a sorted list: c(c-1)/2 summed over runs."""
    pairs = run = 0
    for i in range(1, len(values)):
        if values[i] == values[i - 1]:
            run += 1
            pairs += run
        else:
            run = 0
    return pairs


def _count_inversions(a: list[float]) -> int:
    """Number of strictly decreasing pairs; sorts ``a`` in place.

    Binary insertion: each value's inversions are the larger values already
    placed. The list insert's memmove makes it O(n^2), but in Python it
    beats a merge sort's per-element loop at the lengths ``correlation_scan``
    passes (a group's distinct alphas, tens of pairs, or a seed of more
    than 256 rows in one group, which is rare). Counted on random values on a Xeon core, against
    a merge sort with insertion below 256: 0.11 against 0.15 ms at 300
    pairs and 2.5 against 3.7 ms at 3000, but 104 against 48 ms at 30000
    and 1.4 against 0.18 s at 100000.
    """
    done: list[float] = []
    inv = 0
    for v in a:
        k = bisect_right(done, v)
        inv += len(done) - k
        done.insert(k, v)
    a[:] = done
    return inv


def kendall_tau(xs, ys) -> float:
    """Tie-adjusted Kendall tau-b via inversion counting."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatchError(f"shapes {x.shape} and {y.shape} do not pair up")
    n = x.size
    if n < 2:
        raise AnalysisPreconditionError("need at least 2 pairs")
    if np.isnan(x).any() or np.isnan(y).any():
        raise AnalysisPreconditionError("tau undefined: NaN input")

    order = np.lexsort((y, x))
    xs_ = x[order].tolist()
    ys_ = y[order].tolist()
    n0 = n * (n - 1) // 2
    n1 = _tie_pairs(xs_)
    joint = _tie_pairs(list(zip(xs_, ys_)))
    swaps = _count_inversions(ys_)  # sorts ys_ in place
    n2 = _tie_pairs(ys_)
    if n1 == n0 or n2 == n0:
        raise AnalysisPreconditionError("tau undefined: a variable is constant")
    concordant_minus_discordant = n0 - n1 - n2 + joint - 2 * swaps
    return concordant_minus_discordant / math.sqrt((n0 - n1) * (n0 - n2))


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


def _as_table(records) -> RecordTable:
    return records if isinstance(records, RecordTable) else RecordTable.from_records(records)


def _sorted_by(*keys) -> np.ndarray:
    """Row order by the first key, ties by the next, ..., then record order."""
    order = np.arange(len(keys[0]))
    for key in reversed(keys):
        order = order[np.argsort(key[order], kind="stable")]
    return order


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


# Pairs the per-seed taus of one chunk of seeds hold at once, about 60
# bytes of temporaries each; a seed with more pairs goes through kendall_tau.
_PAIR_BUDGET = 1 << 15


def _block_taus(x: np.ndarray, y: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Kendall tau of (x, y) over each block ``bounds[b]:bounds[b + 1]``;
    NaN where tau is undefined (one row, or x or y constant).

    Each tau is formed from the integers ``kendall_tau`` forms, so it has
    the same bits: the pair count n0, the x and the y tie pairs, and
    concordant minus discordant, here counted from the signs of every
    pair. Blocks of one size share their pair indices and are counted
    together, at most _PAIR_BUDGET pairs at a time.
    """
    starts, sizes = bounds[:-1], np.diff(bounds)
    taus = np.full(sizes.size, np.nan)
    for m in np.unique(sizes[sizes > 1]).tolist():
        blocks = np.flatnonzero(sizes == m)
        n0 = m * (m - 1) // 2
        if n0 > _PAIR_BUDGET:
            for b in blocks.tolist():
                rows = slice(starts[b], starts[b] + m)
                try:
                    taus[b] = kendall_tau(x[rows], y[rows])
                except AnalysisPreconditionError:
                    pass
            continue
        first, second = np.triu_indices(m, 1)
        per_chunk = _PAIR_BUDGET // n0
        for lo in range(0, blocks.size, per_chunk):
            chunk = blocks[lo:lo + per_chunk]
            i, j = starts[chunk, None] + first, starts[chunk, None] + second
            sx, sy = _signs(x[i], x[j]), _signs(y[i], y[j])
            x_free = np.count_nonzero(sx, axis=1)  # n0 - x tie pairs
            y_free = np.count_nonzero(sy, axis=1)
            ok = (x_free > 0) & (y_free > 0)
            concordant_minus_discordant = (sx * sy).sum(axis=1)
            taus[chunk[ok]] = concordant_minus_discordant[ok] / np.sqrt(
                (x_free[ok] * y_free[ok]).astype(float))
    return taus


def correlation_scan(records, group_key: str) -> list[GroupScan]:
    """Per-group correlation between alpha and the gap.

    Two variants per group: the per-seed tau (mean and std across seeds;
    seeds whose gaps are degenerate for tau are skipped) and the tau on
    seed-averaged gaps. Diverged records never enter; a non-diverged
    record with a NaN gap, alpha or sigma1 is an error. ``records`` is a
    ``RecordTable`` or an iterable of ``RunRecord``s.
    """
    if group_key not in GROUP_KEYS:
        raise InvalidParameterError(f"group_key must be 'd' or 'sigma1', got {group_key!r}")
    table = _as_table(records)
    live = np.flatnonzero(~table.diverged)
    if not live.size:
        raise AnalysisPreconditionError("no non-diverged records")
    bad = np.isnan(table.gap[live]) | np.isnan(table.alpha[live]) | np.isnan(table.sigma1[live])
    if bad.any():
        r = table.record(live[bad.argmax()])
        field = next(f for f in ("gap", "alpha", "sigma1") if math.isnan(getattr(r, f)))
        raise AnalysisPreconditionError(
            f"non-diverged record with NaN {field}: alpha={r.alpha} seed={r.seed} "
            f"{group_key}={getattr(r, group_key)}"
        )
    key, alpha, gap, seed = (getattr(table, f)[live] for f in (group_key, "alpha", "gap", "seed"))

    by_seed = _sorted_by(key, seed)
    seed_bounds = _run_bounds(key[by_seed], seed[by_seed])
    taus = _block_taus(alpha[by_seed], gap[by_seed], seed_bounds)
    seed_runs = np.searchsorted(seed_bounds, _run_bounds(key[by_seed]))

    by_alpha = _sorted_by(key, alpha)
    alpha_bounds = _run_bounds(key[by_alpha], alpha[by_alpha])
    group_bounds = _run_bounds(key[by_alpha])
    alpha_runs = np.searchsorted(alpha_bounds, group_bounds)
    gap = gap[by_alpha]
    run_alphas = alpha[by_alpha][alpha_bounds[:-1]].tolist()
    # a group, like an alpha, takes the value of its first row in record order
    groups = key[np.minimum.reduceat(by_alpha, group_bounds[:-1])].tolist()

    scans = []
    for k, g in enumerate(groups):
        runs = range(alpha_runs[k], alpha_runs[k + 1])
        if len(runs) < 2:
            raise AnalysisPreconditionError(
                f"group {group_key}={g} has fewer than 2 distinct alpha values"
            )
        seed_taus = taus[seed_runs[k]:seed_runs[k + 1]]
        seed_taus = seed_taus[~np.isnan(seed_taus)]
        slices = [gap[alpha_bounds[r]:alpha_bounds[r + 1]] for r in runs]
        alpha_gaps = tuple(
            (run_alphas[r], float(np.mean(s)), float(np.std(s))) for r, s in zip(runs, slices)
        )
        alphas = [a for a, _, _ in alpha_gaps]
        mean_gaps = [m for _, m, _ in alpha_gaps]
        scans.append(
            GroupScan(
                group=float(g),
                n_seeds=seed_taus.size,
                tau_seed_mean=float(np.mean(seed_taus)) if seed_taus.size else float("nan"),
                tau_seed_std=float(np.std(seed_taus)) if seed_taus.size else float("nan"),
                tau_mean_gap=kendall_tau(alphas, mean_gaps),
                pearson_mean_gap=pearson(alphas, mean_gaps),
                alpha_gaps=alpha_gaps,
            )
        )
    return scans


def alpha_regression(records) -> tuple[float, float, float]:
    """OLS of log(seed-averaged gap) on log(d); returns (r_hat, intercept, alpha_hat).

    alpha_hat = 2 - 4 r_hat inverts the d^(1/2 - alpha/4) scaling.
    ``records`` is a ``RecordTable`` or an iterable of ``RunRecord``s.
    """
    table = _as_table(records)
    live = ~table.diverged
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


def build_report(records, group_key: str, radius: float = 1.0) -> AnalysisReport:
    """Assemble the full analysis report for a ``RecordTable`` or an
    iterable of ``RunRecord``s.

    Regime labels need the scan axis isolated (one sigma1 for a d-scan,
    one d for a sigma1-scan) and a positive noise scale; the regression
    needs at least two dimensions; the radius estimate needs a tau sign
    change. Whatever is unavailable is reported as None with a note.
    """
    if not radius > 0.0:
        raise InvalidParameterError(f"radius must be > 0, got {radius}")
    table = _as_table(records)
    scans = tuple(correlation_scan(table, group_key))
    # the scan axis is isolated when the other axis holds one value over the
    # live rows; that value is its first live row's
    other = "sigma1" if group_key == "d" else "d"
    fixed = getattr(table, other)[~table.diverged]
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
