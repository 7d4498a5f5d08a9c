import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from levybound import (
    AnalysisReport,
    BoundInputs,
    GroupScan,
    RecordTable,
    RunRecord,
    RunTrace,
    TrainConfig,
    alpha_regression,
    bound_estimate,
    build_report,
    correlation_scan,
    estimate_radius,
    kendall_tau,
    pearson,
    read_table,
    robust_gap,
    write_records,
)
from levybound.analysis import GROUP_KEYS, _block_taus, _regime
from levybound.errors import (
    AnalysisPreconditionError,
    DimensionMismatchError,
    InvalidParameterError,
)


def trace_with_gaps(gaps, steps_per_gap=1):
    """A trace whose evaluated steps carry the given test-train gaps."""
    cfg = TrainConfig(gamma=0.1, eta=0.0, alpha=1.5, sigma1=0.0, steps=len(gaps), eval_interval=1)
    evals = tuple((k + 1, 0.0, g) for k, g in enumerate(gaps))
    return RunTrace(cfg, np.zeros(len(gaps)), evals, 0, False)


def rec(alpha, gap, sigma1=0.1, d=100, width=0, n=500, seed=0, diverged=False):
    return RunRecord(alpha, sigma1, d, width, n, seed, gap, 1.0, 1.0, diverged)


def kendall_brute_force(xs, ys):
    """O(n^2) concordance count with the tau-b tie correction."""
    x = list(map(float, xs))
    y = list(map(float, ys))
    n = len(x)
    num = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = (x[i] > x[j]) - (x[i] < x[j])
            b = (y[i] > y[j]) - (y[i] < y[j])
            num += a * b
    n0 = n * (n - 1) // 2

    def ties(v):
        from collections import Counter

        return sum(c * (c - 1) // 2 for c in Counter(v).values())

    return num / math.sqrt((n0 - ties(x)) * (n0 - ties(y)))


class TestRobustGap:
    def test_trimmed_mean_removes_upper_tail(self):
        gaps = [0.1] * 17 + [1.0] * 3
        assert robust_gap(trace_with_gaps(gaps), window=2000, trim=0.15) == pytest.approx(
            0.1, rel=1e-12
        )

    def test_zero_trim_is_plain_mean(self):
        gaps = [0.1, 0.2, 0.3, 0.4]
        assert robust_gap(trace_with_gaps(gaps), trim=0.0) == pytest.approx(0.25, rel=1e-14)

    def test_constant_gaps(self):
        for trim in (0.0, 0.15, 0.5):
            assert robust_gap(trace_with_gaps([0.07] * 40), trim=trim) == pytest.approx(
                0.07, rel=1e-14
            )

    def test_window_restricts_steps(self):
        gaps = [1.0] * 50 + [0.2] * 50
        assert robust_gap(trace_with_gaps(gaps), window=50, trim=0.0) == pytest.approx(0.2)

    def test_monotone_in_each_gap(self):
        base = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        v0 = robust_gap(trace_with_gaps(base), trim=0.2)
        bumped = base.copy()
        bumped[2] += 0.05
        assert robust_gap(trace_with_gaps(bumped), trim=0.2) >= v0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        gaps = rng.uniform(-0.2, 0.8, size=37).tolist()
        v = robust_gap(trace_with_gaps(gaps))
        perm = rng.permutation(37)
        assert robust_gap(trace_with_gaps([gaps[i] for i in perm])) == v

    def test_empty_window_errors(self):
        cfg = TrainConfig(gamma=0.1, eta=0.0, alpha=1.5, sigma1=0.0, steps=5)
        trace = RunTrace(cfg, np.zeros(5), (), 0, False)
        with pytest.raises(AnalysisPreconditionError):
            robust_gap(trace)


class TestKendallTau:
    def test_identical_ranks(self):
        assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0

    def test_reversed_ranks(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            x = rng.integers(0, 12, size=200).astype(float)
            y = rng.integers(0, 12, size=200).astype(float)
            assert kendall_tau(x, y) == kendall_brute_force(x, y), f"trial {trial}"

    def test_invariant_under_strictly_increasing_transforms(self):
        rng = np.random.default_rng(3)
        x = rng.integers(-5, 6, size=80).astype(float)
        y = rng.integers(-5, 6, size=80).astype(float)
        assert kendall_tau(np.exp(x), y**3) == kendall_tau(x, y)

    def test_antisymmetry_for_tie_free_y(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 10, size=60).astype(float)
        y = rng.permutation(60).astype(float)
        assert kendall_tau(x, -y) == -kendall_tau(x, y)

    def test_errors(self):
        with pytest.raises(DimensionMismatchError):
            kendall_tau([1, 2, 3], [1, 2])
        with pytest.raises(AnalysisPreconditionError):
            kendall_tau([1.0, 1.0, 1.0], [1, 2, 3])

    def test_merge_path_matches_brute_force(self):
        # a long input with many ties: 700 pairs, longer than any group's
        rng = np.random.default_rng(8)
        x = rng.integers(0, 30, size=700).astype(float)
        y = rng.integers(0, 30, size=700).astype(float)
        assert kendall_tau(x, y) == kendall_brute_force(x, y)

    def test_nan_input_errors(self):
        nan = float("nan")
        with pytest.raises(AnalysisPreconditionError, match="NaN"):
            kendall_tau([1, 2, 3, 4], [nan, nan, 3, 2])
        with pytest.raises(AnalysisPreconditionError, match="NaN"):
            kendall_tau([1, nan, 3], [1, 2, 3])


def test_small_n_kendall_tau_matches_oracles():
    """n = 2..25 drawn from a few values, so x, y and joint ties are common."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    stats = pytest.importorskip("scipy.stats")
    values = st.sampled_from([-math.inf, -1.5, -0.0, 0.0, 0.25, 1.0, 3.0, math.inf])

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.integers(2, 25).flatmap(
        lambda n: st.tuples(st.lists(values, min_size=n, max_size=n),
                            st.lists(values, min_size=n, max_size=n))))
    def check(pair):
        x, y = pair
        if len(set(x)) == 1 or len(set(y)) == 1:
            with pytest.raises(AnalysisPreconditionError):
                kendall_tau(x, y)
            return
        tau = kendall_tau(x, y)
        assert tau == kendall_brute_force(x, y)
        assert abs(tau - stats.kendalltau(x, y, variant="b").statistic) <= 1e-12

    check()


class TestPearson:
    def test_affine_positive(self):
        x = np.arange(10.0)
        assert pearson(x, 2.0 * x + 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_negation(self):
        x = np.arange(10.0)
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(100)
        y = rng.standard_normal(100)
        mx = math.fsum(x) / 100
        my = math.fsum(y) / 100
        cov = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
        vx = math.fsum((a - mx) ** 2 for a in x)
        vy = math.fsum((b - my) ** 2 for b in y)
        assert pearson(x, y) == pytest.approx(cov / math.sqrt(vx * vy), abs=1e-12)

    def test_constant_errors(self):
        with pytest.raises(AnalysisPreconditionError):
            pearson([1.0, 1.0], [1.0, 2.0])


class TestCorrelationScan:
    def test_gap_equal_alpha_gives_tau_one(self):
        records = [
            rec(alpha, gap=alpha, d=d, seed=seed)
            for alpha in (1.6, 1.7, 1.8, 1.9)
            for d in (10, 100)
            for seed in (0, 1, 2)
        ]
        for scan in correlation_scan(RecordTable.from_records(records), "d"):
            assert scan.tau_seed_mean == 1.0 and scan.tau_seed_std == 0.0
            assert scan.tau_mean_gap == 1.0

    def test_gap_equal_minus_alpha_gives_tau_minus_one(self):
        records = [rec(a, gap=-a, seed=s) for a in (1.6, 1.8, 2.0) for s in (0, 1)]
        (scan,) = correlation_scan(RecordTable.from_records(records), "sigma1")
        assert scan.tau_mean_gap == -1.0

    def test_bound_factor_transition_between_groups(self):
        # deterministic oracle: the estimator itself, at fixed I_hat, is
        # monotone increasing in alpha for sigma1 sqrt(d) = 0.1 and
        # decreasing for 10; tau on those gaps is exactly +/-1
        d, i_hat, n = 100, 1.0, 500
        alphas = np.linspace(1.6, 2.0, 10)
        for ratio, want in ((0.1, 1.0), (10.0, -1.0)):
            sigma1 = ratio / math.sqrt(d)
            gaps = [
                bound_estimate(i_hat, BoundInputs(alpha=float(a), d=d, n=n, sigma1=sigma1))
                for a in alphas
            ]
            diffs = np.diff(gaps)
            assert (diffs > 0).all() if want > 0 else (diffs < 0).all()
            records = [
                rec(float(a), gap=g, sigma1=sigma1, seed=s)
                for a, g in zip(alphas, gaps)
                for s in (0, 1, 2)
            ]
            (scan,) = correlation_scan(RecordTable.from_records(records), "sigma1")
            assert scan.tau_mean_gap == want
            assert scan.tau_seed_mean == want

    def test_diverged_records_excluded(self):
        records = [rec(a, gap=a, seed=0) for a in (1.6, 1.8, 2.0)]
        records.append(rec(1.7, gap=-99.0, seed=0, diverged=True))
        (scan,) = correlation_scan(RecordTable.from_records(records), "d")
        assert scan.tau_mean_gap == 1.0

    def test_alpha_gaps_are_per_alpha_mean_and_std(self):
        records = [
            rec(a, gap=a * (seed + 1), d=d, seed=seed)
            for a in (1.8, 1.6)
            for d in (10, 100)
            for seed in (0, 1)
        ]
        records.append(rec(1.7, gap=-99.0, d=10, seed=0, diverged=True))
        scans = correlation_scan(RecordTable.from_records(records), "d")
        assert [s.group for s in scans] == [10.0, 100.0]
        for scan in scans:
            assert [a for a, _, _ in scan.alpha_gaps] == [1.6, 1.8]
            flat = [v for row in scan.alpha_gaps for v in row]
            assert flat == pytest.approx([1.6, 2.4, 0.8, 1.8, 2.7, 0.9], rel=1e-12)

    def test_nan_gap_in_live_record_errors(self):
        records = [rec(a, gap=a, d=10, seed=s) for a in (1.6, 1.8, 2.0) for s in (0, 1)]
        records.append(rec(1.7, gap=float("nan"), d=10, seed=1))
        with pytest.raises(AnalysisPreconditionError, match="alpha=1.7 seed=1 d=10"):
            correlation_scan(RecordTable.from_records(records), "d")

    def test_single_alpha_group_errors(self):
        records = [rec(1.8, gap=0.1, seed=s) for s in range(3)]
        with pytest.raises(AnalysisPreconditionError):
            correlation_scan(RecordTable.from_records(records), "d")

    def test_bad_group_key(self):
        with pytest.raises(InvalidParameterError):
            correlation_scan(RecordTable.from_records([rec(1.6, 0.1), rec(1.8, 0.2)]), "width")


class TestAlphaRegression:
    @pytest.mark.parametrize("alpha", [1.2, 1.6, 1.9])
    def test_exact_power_law(self, alpha):
        dims = (100, 1000, 10_000)
        records = [rec(alpha, gap=d ** (0.5 - alpha / 4), d=d) for d in dims]
        r_hat, _, alpha_hat = alpha_regression(RecordTable.from_records(records))
        assert r_hat == pytest.approx(0.5 - alpha / 4, abs=1e-10)
        assert alpha_hat == pytest.approx(alpha, abs=1e-10)

    def test_constant_gaps_give_alpha_two(self):
        records = [rec(1.5, gap=0.25, d=d) for d in (10, 100, 1000)]
        r_hat, _, alpha_hat = alpha_regression(RecordTable.from_records(records))
        assert r_hat == pytest.approx(0.0, abs=1e-12)
        assert alpha_hat == pytest.approx(2.0, abs=1e-10)

    def test_scale_invariance_of_slope(self):
        alpha, dims = 1.6, (100, 400, 1600)
        base = [rec(alpha, gap=d ** (0.5 - alpha / 4), d=d) for d in dims]
        scaled = [rec(alpha, gap=7.3 * d ** (0.5 - alpha / 4), d=d) for d in dims]
        assert alpha_regression(RecordTable.from_records(base))[2] == pytest.approx(
            alpha_regression(RecordTable.from_records(scaled))[2], abs=1e-10
        )

    def test_errors(self):
        with pytest.raises(AnalysisPreconditionError):
            alpha_regression(RecordTable.from_records([rec(1.5, gap=0.1, d=100)]))
        with pytest.raises(AnalysisPreconditionError):
            alpha_regression(RecordTable.from_records(
                [rec(1.5, gap=-0.1, d=100), rec(1.5, gap=0.1, d=200)]))


def scan_points(pairs):
    return [
        GroupScan(group=g, n_seeds=1, tau_seed_mean=t, tau_seed_std=0.0,
                  tau_mean_gap=t, pearson_mean_gap=t)
        for g, t in pairs
    ]


class TestEstimateRadius:
    def test_hand_interpolated_crossing(self):
        scan = scan_points([(1e4, 0.5), (6.4e4, 0.1), (1e5, -0.2)])
        # zero of the segment (6.4e4, 0.1) -> (1e5, -0.2) is at d* = 7.6e4
        got = estimate_radius(scan, sigma1=0.01)
        assert got == pytest.approx(0.01 * math.sqrt(7.6e4), rel=1e-12)
        assert estimate_radius(tuple(scan), sigma1=0.01) == got

    def test_all_positive_errors(self):
        scan = scan_points([(10.0, 0.5), (100.0, 0.4), (1000.0, 0.1)])
        with pytest.raises(AnalysisPreconditionError):
            estimate_radius(scan, sigma1=0.01)

    def test_synthetic_transition_within_one_cell(self):
        # tau flips where sigma1 sqrt(d) crosses 1
        sigma1 = 0.01
        dims = [2000.0 * 2**k for k in range(8)]  # sigma1 sqrt(d): 0.45 ... 5.1
        scan = scan_points([(d, 0.8 if sigma1 * math.sqrt(d) < 1.0 else -0.8) for d in dims])
        got = estimate_radius(scan, sigma1=sigma1)
        below = max(d for d in dims if sigma1 * math.sqrt(d) < 1.0)
        above = min(d for d in dims if sigma1 * math.sqrt(d) >= 1.0)
        assert sigma1 * math.sqrt(below) <= got <= sigma1 * math.sqrt(above)

    @pytest.mark.parametrize("taus, x", [
        ([0.0, 0.5], 100.0), ([0.5, 0.0, -0.5], 400.0), ([0.5, 0.0], 400.0),
    ], ids=["first", "middle", "last"])
    def test_zero_tau_is_the_crossing_at_any_group(self, taus, x):
        scan = scan_points(zip((100.0, 400.0, 900.0), taus))
        assert estimate_radius(scan, sigma1=0.1) == 0.1 * math.sqrt(x)

    def test_sigma_axis(self):
        scan = scan_points([(0.01, 0.6), (0.1, -0.6)])
        got = estimate_radius(scan, d=400)
        assert got == pytest.approx(0.055 * 20.0, rel=1e-12)

    def test_axis_validation(self):
        scan = scan_points([(1.0, 0.5), (2.0, -0.5)])
        with pytest.raises(InvalidParameterError):
            estimate_radius(scan)
        with pytest.raises(InvalidParameterError):
            estimate_radius(scan, sigma1=0.1, d=400)


class TestBuildReport:
    def test_d_scan_report(self):
        alpha0 = 1.6
        records = [
            rec(a, gap=a * d ** (0.5 - alpha0 / 4), sigma1=0.01, d=d, seed=s)
            for d in (100, 1000, 10000)
            for a in (1.6, 1.8, 2.0)
            for s in (0, 1)
        ]
        report = build_report(RecordTable.from_records(records), "d")
        assert report.group_key == "d"
        assert len(report.groups) == len(report.regimes) == 3
        assert report.regimes[0][0] in ("Heavy", "Light")
        assert report.alpha_hat is not None and report.regression_note is None
        # gap grows with alpha in every group, so tau never changes sign
        assert report.radius_estimate is None and "sign" in report.radius_note

    @pytest.mark.parametrize("radius", [math.nan, 0.0, -1.0])
    def test_rejects_a_radius_that_is_not_positive(self, radius):
        table = RecordTable.from_records(
            rec(a, gap=a, sigma1=s1, d=10, seed=0) for a in (1.6, 2.0) for s1 in (0.0, 0.1))
        with pytest.raises(InvalidParameterError, match="radius must be > 0"):
            build_report(table, "sigma1", radius=radius)
        # a sigma1 = 0 group still has no regime at a valid radius
        assert build_report(table, "sigma1").regimes[0] == ("", "")

    def test_notes_when_axis_not_isolated(self):
        records = [
            rec(a, gap=a, sigma1=s1, d=d, seed=0)
            for a in (1.6, 2.0)
            for s1 in (0.01, 0.1)
            for d in (10, 20)
        ]
        report = build_report(RecordTable.from_records(records), "sigma1")
        assert report.radius_estimate is None
        assert report.radius_note == "scan axis is not isolated"
        assert report.regimes == (("", ""), ("", ""))


# The row-by-row analysis the columnar one replaced, kept as its oracle:
# the scan, the regression, and the report's isolation set. Its taus come
# from the brute-force count, not from kendall_tau.


def reference_tau(xs, ys):
    """``kendall_brute_force``, with ``kendall_tau``'s errors where tau is undefined."""
    if any(map(math.isnan, [*xs, *ys])):
        raise AnalysisPreconditionError("tau undefined: NaN input")
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        raise AnalysisPreconditionError("tau undefined: a variable is constant")
    return kendall_brute_force(xs, ys)


def reference_live(records, key: str) -> list[RunRecord]:
    """The non-diverged records. None is an error, and so is the first
    whose gap, alpha or sigma1 is not finite or whose d is below 1."""
    live = [r for r in records if not r.diverged]
    if not live:
        raise AnalysisPreconditionError("no non-diverged records")
    for r in live:
        flaws = [f"{'NaN' if math.isnan(v) else repr(v)} {field}"
                 for field, v in (("gap", r.gap), ("alpha", r.alpha), ("sigma1", r.sigma1))
                 if not math.isfinite(v)]
        if r.d < 1:
            flaws.append("d < 1")
        if flaws:
            raise AnalysisPreconditionError(
                f"non-diverged record with {flaws[0]}: alpha={r.alpha} seed={r.seed} "
                f"{key}={getattr(r, key)}"
            )
    return live


def reference_correlation_scan(records, group_key: str) -> list[GroupScan]:
    if group_key not in GROUP_KEYS:
        raise InvalidParameterError(f"group_key must be 'd' or 'sigma1', got {group_key!r}")
    groups: dict[float, list[RunRecord]] = {}
    for r in reference_live(records, group_key):
        groups.setdefault(getattr(r, group_key), []).append(r)
    scans = []
    for g in sorted(groups):
        by_alpha: dict[float, list[float]] = {}
        by_seed: dict[int, list[tuple[float, float]]] = {}
        for r in groups[g]:
            by_alpha.setdefault(r.alpha, []).append(r.gap)
            by_seed.setdefault(r.seed, []).append((r.alpha, r.gap))
        alphas = sorted(by_alpha)
        if len(alphas) < 2:
            raise AnalysisPreconditionError(
                f"group {group_key}={g} has fewer than 2 distinct alpha values"
            )
        taus = []
        for seed in sorted(by_seed):
            sub = by_seed[seed]
            try:
                taus.append(reference_tau([a for a, _ in sub], [gp for _, gp in sub]))
            except AnalysisPreconditionError:
                continue  # fewer than 2 rows, or constant alphas or gaps, in this seed
        alpha_gaps = tuple(
            (a, float(np.mean(by_alpha[a])), float(np.std(by_alpha[a]))) for a in alphas
        )
        mean_gaps = [m for _, m, _ in alpha_gaps]
        scans.append(
            GroupScan(
                group=float(g),
                n_seeds=len(taus),
                tau_seed_mean=float(np.mean(taus)) if taus else float("nan"),
                tau_seed_std=float(np.std(taus)) if taus else float("nan"),
                tau_mean_gap=reference_tau(alphas, mean_gaps),
                pearson_mean_gap=pearson(alphas, mean_gaps),
                alpha_gaps=alpha_gaps,
            )
        )
    return scans


def reference_alpha_regression(records) -> tuple[float, float, float]:
    gaps_by_d: dict[int, list[float]] = {}
    for r in reference_live(records, "d"):
        gaps_by_d.setdefault(r.d, []).append(r.gap)
    dims = sorted(gaps_by_d)
    if len(dims) < 2:
        raise AnalysisPreconditionError("need at least 2 distinct d values")
    mean_gaps = []
    for d in dims:
        g = float(np.mean(gaps_by_d[d]))
        if not g > 0.0:
            raise AnalysisPreconditionError(f"non-positive mean gap {g} at d={d}")
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


def reference_build_report(records, group_key: str, radius: float = 1.0) -> AnalysisReport:
    if not radius > 0.0:
        raise InvalidParameterError(f"radius must be > 0, got {radius}")
    scans = tuple(reference_correlation_scan(records, group_key))
    # the scan axis is isolated when the other axis holds one value over the live rows
    other = "sigma1" if group_key == "d" else "d"
    fixed = {getattr(r, other) for r in reference_live(records, group_key)}
    regimes = [("", "")] * len(scans)
    radius_estimate, radius_note = None, "scan axis is not isolated"
    if len(fixed) == 1:
        at = {other: fixed.pop()}
        regimes = [_regime(radius, **{group_key: s.group}, **at) for s in scans]
        try:
            radius_estimate, radius_note = estimate_radius(scans, **at), None
        except AnalysisPreconditionError as exc:
            radius_note = str(exc)

    r_hat = intercept = alpha_hat = None
    regression_note = None
    try:
        r_hat, intercept, alpha_hat = reference_alpha_regression(records)
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


def exact(value):
    """``value`` with every float replaced by its type and bits, so that
    == compares bit for bit (NaN included) and -0.0 differs from 0.0."""
    if isinstance(value, float):
        return type(value), struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return type(value), tuple(map(exact, value))
    if isinstance(value, (GroupScan, AnalysisReport)):
        return type(value), exact(tuple(vars(value).values()))
    return type(value), value


def outcome(fn, *args):
    """``exact(fn(*args))``, or the type and text of the analysis error it raised."""
    try:
        return exact(fn(*args))
    except AnalysisPreconditionError as exc:
        return "error", str(exc)


def assert_matches_reference(records):
    """Every group key, on the table of the records and on ``read_table``
    of their file: scan, report and regression bit for bit, or the same
    error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        write_records(path, records)
        inputs = {"from_records": RecordTable.from_records(records), "read_table": read_table(path)}
    want = {key: (outcome(reference_correlation_scan, records, key),
                  outcome(reference_build_report, records, key)) for key in GROUP_KEYS}
    want_regression = outcome(reference_alpha_regression, records)
    for name, given in inputs.items():
        for key in GROUP_KEYS:
            assert outcome(correlation_scan, given, key) == want[key][0], (name, key)
            assert outcome(build_report, given, key) == want[key][1], (name, key)
        assert outcome(alpha_regression, given) == want_regression, name


def test_columnar_analysis_matches_row_by_row_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    big = 2**64 + 3  # outside int64, so its column is an object array
    inf, nan = math.inf, math.nan
    record = st.builds(
        rec,
        alpha=st.sampled_from([-0.0, 0.0, 1.6, 1.7, 1.8, 2.0]),
        gap=st.one_of(st.sampled_from([-0.0, 0.0, 0.1, 0.25, 1.0]),
                      st.floats(-1.0, 1.0, allow_nan=False)),
        sigma1=st.sampled_from([-0.0, 0.0, 0.01, 0.3]),
        d=st.sampled_from([10, 100, 1000, big]),
        seed=st.sampled_from([0, 1, 2, 3, -(2**63) - 1, big]),
        diverged=st.sampled_from([False, False, False, True]),
    ).map(lambda r: r._replace(gap=nan) if r.diverged and r.seed == 0 else r)
    # in a list of flawed records, each of two draws breaks the live-row rule
    # (which a diverged row may) in about one row in eight, so a few rows
    # break it twice
    flaws = [{"gap": v} for v in (inf, -inf, nan)] + [{"alpha": v} for v in (inf, -inf, nan)]
    flaws += [{"sigma1": v} for v in (inf, -inf, nan)] + [{"d": 0}, {"d": -300}]
    flaw = st.sampled_from([{}] * 7 * len(flaws) + flaws)
    flawed = st.builds(lambda r, flaw1, flaw2: r._replace(**flaw1)._replace(**flaw2),
                       record, flaw, flaw)
    # every case at once: ties in alpha and in gap, diverged rows, a repeated
    # (seed, alpha), a seed with one live row, a seed with constant gaps,
    # -0.0 and 0.0 in one sigma1 group and one alpha, d and seeds outside int64
    every_case = [
        rec(1.6, 0.1, sigma1=0.0, seed=0), rec(1.8, 0.3, sigma1=-0.0, seed=0),
        rec(1.8, 0.3, sigma1=0.0, seed=0), rec(2.0, 0.1, sigma1=0.0, seed=1),
        rec(1.6, 0.2, sigma1=-0.0, seed=1), rec(-0.0, 0.5, seed=2, d=big),
        rec(0.0, 0.4, seed=2, d=big), rec(1.7, 0.4, seed=2, d=big),
        rec(1.7, 0.25, seed=3), rec(1.9, 0.25, seed=3), rec(2.0, 0.25, seed=3),
        rec(1.6, 0.6, seed=big), rec(1.9, math.nan, seed=1, diverged=True),
        rec(1.6, 0.7, seed=-(2**63) - 1, d=big),
    ]
    # a d-scan isolated at sigma1 = -0.0, then 0.0, whose tau changes sign;
    # a diverged row at another sigma1 leaves it isolated
    signed_zero_radius = [
        rec(1.6, 0.1, sigma1=-0.0, d=10), rec(2.0, 0.2, sigma1=0.0, d=10),
        rec(1.8, nan, sigma1=0.3, d=10, diverged=True),
        rec(1.6, 0.2, sigma1=0.0, d=100), rec(2.0, 0.1, sigma1=0.0, d=100),
    ]

    # diverged rows that break the rule, then a live row that breaks it
    # twice (named by its first flaw), then one more
    first_flaw = [
        rec(inf, nan, d=0, diverged=True), rec(1.6, 0.1, d=-300, seed=1, diverged=True),
        rec(1.6, 0.1, d=10), rec(-inf, 0.2, sigma1=inf, d=-300), rec(1.8, inf, d=10),
    ]
    # d < 1 in an object-array d column
    small_d_among_big = [rec(1.6, 0.1, d=big), rec(1.8, 0.2, d=big), rec(2.0, 0.3, d=0)]

    @hypothesis.settings(max_examples=600, deadline=None)
    @hypothesis.example(every_case)
    @hypothesis.example(first_flaw)
    @hypothesis.example(small_d_among_big)
    @hypothesis.example(signed_zero_radius)
    @hypothesis.given(st.one_of(st.lists(record, max_size=40), st.lists(flawed, max_size=40)))
    def check(records):
        assert_matches_reference(records)

    check()
    # a row with several flaws is named by its first in the order gap, alpha, sigma1, d
    in_order = [("gap", nan), ("alpha", -inf), ("sigma1", inf), ("d", 0)]
    for k in range(len(in_order)):
        assert_matches_reference([rec(1.6, 0.1), rec(1.8, 0.2)._replace(**dict(in_order[k:]))])


def test_a_seed_too_large_for_the_pair_budget():
    """One seed of 3000 rows next to small ones: the scan matches the
    reference and its temporaries stay small (an all-pairs count of that
    seed alone would hold 4.5 million pairs, over 100 MB)."""
    rng = np.random.default_rng(11)
    alphas = (1.6, 1.7, 1.8, 1.9, 2.0)
    records = [rec(float(rng.choice(alphas)), float(rng.integers(0, 50)) / 8, seed=0)
               for _ in range(3000)]
    records += [rec(a, float(rng.random()), seed=s) for s in range(1, 40) for a in alphas]
    assert_matches_reference(records)
    table = RecordTable.from_records(records)
    tracemalloc.start()
    try:
        correlation_scan(table, "d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_block_taus_match_brute_force_across_the_band_edge():
    """Blocks of 250-262 rows, on both sides of the 256-row edge where
    ``_block_taus`` turns from shared pair indices to row bands, drawn
    from a few values so that ties, -0.0 against 0.0, +-inf and constant
    blocks are common: bit for bit the brute-force count, NaN where x or
    y is constant."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    values = [-math.inf, -1.5, -0.0, 0.0, 0.25, 1.0, 3.0, math.inf]
    pool = st.lists(st.sampled_from(values), min_size=1, max_size=5,
                    unique_by=lambda v: struct.pack("<d", v))
    block = st.tuples(st.integers(250, 262), pool, pool, st.integers(0, 2**32 - 1))

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.example([(256, [0.0, 1.0], [-0.0, 0.0], 0), (257, [0.0, 1.0], [1.0, 2.0], 1)])
    @hypothesis.given(st.lists(block, min_size=1, max_size=3))
    def check(blocks):
        xs, ys = [], []
        for n, x_pool, y_pool, seed in blocks:
            rng = np.random.default_rng(seed)
            xs.append(rng.choice(np.array(x_pool), n))
            ys.append(rng.choice(np.array(y_pool), n))
        bounds = np.cumsum([0] + [x.size for x in xs])
        got = _block_taus(np.concatenate(xs), np.concatenate(ys), bounds)
        for tau, x, y in zip(got.tolist(), xs, ys):
            x, y = x.tolist(), y.tolist()
            want = (kendall_brute_force(x, y) if len(set(x)) > 1 and len(set(y)) > 1
                    else math.nan)
            assert exact(tau) == exact(want)

    check()
