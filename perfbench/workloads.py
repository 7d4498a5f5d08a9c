"""The benchmark's workloads and their correctness oracles.

Each workload drives one user-facing path through ``levybound.cli.main``
in-process, one operation at a time (closed loop, one client):

- ``ref-grid``: the committed reference profile
  (``reference/phase_transition.cfg``), one (sigma1, width, seed) group
  of all 10 alphas per ``grid`` call. Only the first sigma1 group is run:
  a cell's random stream is keyed by its sigma1's position in the grid
  list, so the first group is the one whose rows a 10-cell call
  reproduces. Oracle: the committed ``phase_transition_records.csv``,
  read at run time.
- ``mnist-linear-minibatch``: MNIST-shaped synthetic blobs, linear
  softmax, batch 64, Brownian noise on; one group per ``grid`` call.
  Oracle: one sampled cell per call re-run through the public API.
- ``analyze-large``: a seeded ~20k-row d-scan records CSV; ``analyze
  --group-key d --long-out`` then ``regress-alpha`` per operation.
  Oracle: brute-force O(n^2) Kendall tau and ``numpy.polyfit``.

``tiny`` shrinks every workload for the smoke check; the reference rows
only hold for the full profile, so tiny ``ref-grid`` re-runs cells instead.
"""

import contextlib
import csv
import io
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

ALPHAS = [float(format(a, ".17g")) for a in np.linspace(1.6, 2.0, 10)]
ALPHA_LIST = ",".join(format(a, ".17g") for a in ALPHAS)


@dataclass
class Op:
    """One timed operation: ``units`` cells or records rows in ``wall``
    seconds, ``ref`` reference seconds (see speed.py; None when traced)."""

    index: int
    units: int
    wall: float
    ref: float | None
    ok: bool
    detail: object = None


def cli_call(lb, argv) -> bool:
    """Run ``levybound.cli.main(argv)``; True on exit code 0.

    The program's stderr chatter is captured and shown only on failure.
    """
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = lb.cli.main(argv)
    except Exception:
        sys.stderr.write(f"levybound {' '.join(argv)} raised:\n{traceback.format_exc()}")
        return False
    if rc != 0:
        sys.stderr.write(f"levybound {' '.join(argv)} exited {rc}: {err.getvalue()}")
    return rc == 0


def timed_cli(lb, argv_list):
    """Run the calls back to back; return (all exited 0, start, wall seconds)."""
    t0 = time.perf_counter()
    ok = True
    for argv in argv_list:
        ok = cli_call(lb, argv) and ok
    return ok, t0, time.perf_counter() - t0


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _cell_key(row):
    return (float(row["alpha"]), float(row["sigma1"]), int(row["width"]), int(row["seed"]))


class _Grid:
    """Code shared by the two sweep workloads: one group per grid call."""

    n_trace_ops = 1
    probe_kernel = "dense"  # see speed.py

    def __init__(self, lb, root, workdir, seed, tiny):
        self.lb, self.root, self.workdir, self.seed, self.tiny = lb, root, workdir, seed, tiny

    def _spec(self, cfg):
        return self.lb.SyntheticSpec(
            n_per_class=int(cfg["n_per_class"]), input_dim=int(cfg["input_dim"]),
            classes=int(cfg["classes"]), separation=float(cfg["separation"]),
            noise_std=float(cfg["noise_std"]), seed=int(cfg["data_seed"]),
        )

    def setup(self):
        """Parse the config and build the dataset, as a sweep's start does."""
        self.cfg = self.lb.parse_config(self.config_path())
        self.cfg.update(self.overrides())
        self.sigma1 = self.cfg["sigma1s"].split(",")[0]
        self.alphas = [float(a) for a in self.cfg["alphas"].split(",")]
        self.checks_per_op = len(self.alphas)
        self.train, self.test = self.lb.generate_synthetic(self._spec(self.cfg))

    def op(self, k, run_calls) -> Op:
        """Operation k; ``run_calls(argv_list)`` returns (ok, wall, ref)."""
        out = self.workdir / f"grid-{k}.csv"
        out.unlink(missing_ok=True)
        seed = self.cell_seed(k)
        sets = {**self.overrides(), "sigma1s": self.sigma1, "seeds": str(seed)}
        argv = ["grid", "--config", str(self.config_path()), "--out", str(out)]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        ok, wall, ref = run_calls([argv])
        return Op(k, len(self.alphas), wall, ref, ok, (seed, out))

    def verify(self, op: Op) -> int:
        """Number of the op's cells that are missing or fail the oracle."""
        if not op.ok:
            return op.units
        seed, out = op.detail
        try:
            rows = {_cell_key(r): r for r in _read_csv(out)}
        except (OSError, ValueError, KeyError) as exc:
            sys.stderr.write(f"unreadable records {out}: {exc}\n")
            return op.units
        failed = 0
        for alpha in self.alphas:
            row = rows.pop((alpha, float(self.sigma1), self.width(), seed), None)
            try:
                good = row is not None and self.row_ok(row, alpha, seed, op.index)
            except Exception:
                sys.stderr.write(f"oracle raised:\n{traceback.format_exc()}")
                good = False
            if not good:
                sys.stderr.write(f"oracle: cell alpha={alpha} seed={seed} wrong: {row}\n")
                failed += 1
        if rows:
            sys.stderr.write(f"oracle: unexpected rows {sorted(rows)}\n")
            failed += len(rows)
        return failed

    def width(self):
        return int(self.cfg["widths"].split(",")[0])

    def rerun(self, row, alpha, seed) -> bool:
        """Re-run one cell through run_training + robust_gap + integral_estimate
        (+ bound_estimate) and compare with its records row exactly. The
        stream key (cell seed, mix64(sigma index, width index)) is the
        grid's; both indices are 0 in a one-group call."""
        lb, cfg = self.lb, self.cfg
        width = self.width()
        widths = (self.train.input_dim,) + ((width,) if width else ()) + (self.train.num_classes,)
        spec = lb.ModelSpec(widths)
        batch = cfg["batch_size"]
        tc = lb.TrainConfig(
            gamma=float(cfg["gamma"]), eta=float(cfg["eta"]), alpha=alpha,
            sigma1=float(self.sigma1), sigma2=float(cfg["sigma2"]), steps=int(cfg["steps"]),
            batch_size=None if batch == "full" else int(batch),
            eval_interval=int(cfg["eval_interval"]), seed=seed,
        )
        trace = lb.run_training(spec, self.train, self.test, tc, float(cfg["init_scale"]),
                                rng=lb.RngStream(seed, lb.mix64(0, 0)))
        if trace.diverged:
            return row["diverged"] == "true"
        gap = lb.robust_gap(trace, int(cfg["window"]), float(cfg["trim"]))
        i_hat = lb.integral_estimate(trace)
        inputs = lb.BoundInputs(alpha=alpha, d=lb.param_count(spec), n=self.train.n,
                                sigma1=tc.sigma1, gamma=tc.gamma, eta=tc.eta,
                                radius=float(cfg["R"]))
        g_hat = lb.bound_estimate(i_hat, inputs) if tc.sigma1 > 0 else math.nan
        return (row["diverged"] == "false" and int(row["d"]) == inputs.d
                and int(row["n"]) == inputs.n
                and all(_close(float(row[k]), v, 0.0)
                        for k, v in (("gap", gap), ("i_hat", i_hat), ("g_hat", g_hat))))


class RefGrid(_Grid):
    name = "ref-grid"
    probe_kernel = "dispatch"  # see speed.py

    def config_path(self):
        return self.root / "reference" / "phase_transition.cfg"

    def overrides(self):
        return {"steps": "30", "window": "20"} if self.tiny else {}

    def setup(self):
        super().setup()
        self.seeds = [int(s) for s in self.cfg["seeds"].split(",")]
        random.Random(self.seed).shuffle(self.seeds)

    def cell_seed(self, k):
        return self.seeds[k % len(self.seeds)]

    def row_ok(self, row, alpha, seed, k):
        if self.tiny:
            return self.rerun(row, alpha, seed)
        if not hasattr(self, "reference"):
            path = self.root / "reference" / "phase_transition_records.csv"
            self.reference = {_cell_key(r): r for r in _read_csv(path)}
        ref = self.reference.get(_cell_key(row))
        return ref is not None and reference_match(row, ref)


def reference_match(row, ref) -> bool:
    """gap, diverged, d, n exact; i_hat and g_hat within 1e-12 relative."""
    return (
        all(row[k] == ref[k] for k in ("diverged", "d", "n"))
        and _close(float(row["gap"]), float(ref["gap"]), 0.0)
        and all(_close(float(row[k]), float(ref[k]), 1e-12) for k in ("i_hat", "g_hat"))
    )


class MnistLinearMinibatch(_Grid):
    name = "mnist-linear-minibatch"
    n_trace_ops = 2

    def config_path(self):
        path = self.workdir / "mnist.cfg"
        if not path.exists():
            params = {
                "alphas": ALPHA_LIST, "sigma1s": "0.01", "widths": "0",
                "gamma": "0.01", "eta": "0.001", "sigma2": "0.01",
                "steps": "200", "batch_size": "64", "eval_interval": "10",
                "window": "150", "trim": "0.15", "init_scale": "1.0", "R": "1.0",
                "data": "synthetic", "n_per_class": "313", "input_dim": "784",
                "classes": "10", "separation": "3.0", "noise_std": "1.0",
                "data_seed": str(self.seed),
            }
            path.write_text("".join(f"{k}={v}\n" for k, v in params.items()))
        return path

    def overrides(self):
        return {"steps": "50", "window": "50", "n_per_class": "30"} if self.tiny else {}

    def cell_seed(self, k):
        return self.seed * 1000 + k

    def row_ok(self, row, alpha, seed, k):
        if alpha == random.Random(f"{self.seed}/{k}").choice(self.alphas):
            return self.rerun(row, alpha, seed)
        return row["diverged"] == "false" and all(
            math.isfinite(float(row[c])) for c in ("gap", "i_hat", "g_hat"))


class AnalyzeLarge:
    """Read side of the data layer plus the analysis layer; no training."""

    name = "analyze-large"
    n_trace_ops = 3
    probe_kernel = "dispatch"  # see speed.py
    checks_per_op = 1

    def __init__(self, lb, root, workdir, seed, tiny):
        self.lb, self.root, self.workdir, self.seed, self.tiny = lb, root, workdir, seed, tiny
        self.records_path = workdir / "records.csv"

    def setup(self):
        """Generate the seeded d-scan and write it with levybound's writer."""
        rng = np.random.default_rng(self.seed)
        n_widths, n_seeds = (3, 4) if self.tiny else (20, 50)
        widths = sorted(int(w) for w in rng.choice(np.arange(4, 400), n_widths, replace=False))
        sigma1s = (0.003, 0.3)
        nan = math.nan
        self.records = []
        for w in widths:
            d = 27 * w  # ReLU 25 -> w -> 2
            for alpha in ALPHAS:
                for i, sigma1 in enumerate(sigma1s):
                    trend = (alpha - 1.8) * (1.0 if i == 0 else -1.0)
                    for seed in range(n_seeds):
                        if rng.random() < 0.01:
                            self.records.append(self.lb.RunRecord(
                                alpha, sigma1, d, w, 500, seed, nan, nan, nan, True))
                            continue
                        gap = 0.02 * d ** (0.5 - alpha / 4) * math.exp(
                            0.3 * trend + 0.2 * rng.standard_normal())
                        i_hat = float(rng.lognormal(0.0, 0.5))
                        self.records.append(self.lb.RunRecord(
                            alpha, sigma1, d, w, 500, seed, gap, i_hat, 5.0 * i_hat, False))
        self.lb.write_records(self.records_path, self.records)

    def op(self, k, run_calls) -> Op:
        outs = [self.workdir / f"{name}-{k}.csv" for name in ("report", "long", "regress")]
        for path in outs:
            path.unlink(missing_ok=True)
        rec = str(self.records_path)
        ok, wall, ref = run_calls([
            ["analyze", "--records", rec, "--group-key", "d",
             "--out", str(outs[0]), "--long-out", str(outs[1])],
            ["regress-alpha", "--records", rec, "--out", str(outs[2])],
        ])
        return Op(k, len(self.records), wall, ref, ok, outs)

    def verify(self, op: Op) -> int:
        """1 if the pass failed or any output disagrees with the oracle."""
        if not op.ok:
            return 1
        if not hasattr(self, "expected"):
            self.expected = expected_analysis(self.records)
        report_exp, long_exp, regress_exp = self.expected
        try:
            report, long_rows, regress = (_read_csv(p) for p in op.detail)
            good = (
                len(report) == len(report_exp)
                and all(_report_row_ok(r, e) for r, e in zip(report, report_exp))
                and len(long_rows) == len(long_exp)
                and all(_floats_ok(r, e, 1e-12) for r, e in zip(long_rows, long_exp))
                and len(regress) == 1 and _floats_ok(regress[0], regress_exp, 1e-9)
            )
        except (OSError, ValueError, KeyError) as exc:
            sys.stderr.write(f"unreadable analysis output: {exc}\n")
            good = False
        if not good:
            sys.stderr.write(f"oracle: analysis pass {op.index} disagrees\n")
        return 0 if good else 1


def _floats_ok(row, expected, rel) -> bool:
    return all(_close(float(row[k]), v, rel, 1e-12) for k, v in expected.items())


def _report_row_ok(row, expected) -> bool:
    floats = {k: v for k, v in expected.items() if k != "n_seeds"}
    return (
        row["group_key"] == "d"
        and int(row["n_seeds"]) == expected["n_seeds"]
        and all(row[k] == "" for k in ("regime", "regime_refined", "radius_estimate"))
        and _floats_ok(row, floats, 1e-9)
    )


def brute_tau(xs, ys):
    """Kendall tau-b over all pairs; None where a variable is constant."""
    n0 = n1 = n2 = s = 0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            dx = (xs[i] > xs[j]) - (xs[i] < xs[j])
            dy = (ys[i] > ys[j]) - (ys[i] < ys[j])
            n0 += 1
            n1 += dx == 0
            n2 += dy == 0
            s += dx * dy
    if n1 == n0 or n2 == n0:
        return None
    return s / math.sqrt((n0 - n1) * (n0 - n2))


def expected_analysis(records):
    """Report rows, long rows and regression the CLI must print, computed
    without levybound: brute-force tau, numpy.corrcoef, numpy.polyfit."""
    live = [r for r in records if not r.diverged]
    dims = sorted({r.d for r in live})
    mean_by_d = [math.fsum(r.gap for r in live if r.d == d) / sum(r.d == d for r in live)
                 for d in dims]
    slope, intercept = np.polyfit(np.log(dims), np.log(mean_by_d), 1)
    regress = {"r_hat": slope, "intercept": intercept, "alpha_hat": 2.0 - 4.0 * slope}
    report, long_rows = [], []
    for d in dims:
        rows = [r for r in live if r.d == d]
        taus = []
        for seed in sorted({r.seed for r in rows}):
            sub = [(r.alpha, r.gap) for r in rows if r.seed == seed]
            tau = brute_tau([a for a, _ in sub], [g for _, g in sub])
            if len({a for a, _ in sub}) >= 2 and tau is not None:
                taus.append(tau)
        alphas = sorted({r.alpha for r in rows})
        gaps = [[r.gap for r in rows if r.alpha == a] for a in alphas]
        means = [math.fsum(g) / len(g) for g in gaps]
        for a, g, m in zip(alphas, gaps, means):
            std = math.sqrt(math.fsum((x - m) ** 2 for x in g) / len(g))
            long_rows.append({"group": d, "alpha": a, "mean_gap": m, "std_gap": std})
        tau_mean = math.fsum(taus) / len(taus)
        report.append({
            "n_seeds": len(taus), "group": d, "tau_seed_mean": tau_mean,
            "tau_seed_std": math.sqrt(math.fsum((t - tau_mean) ** 2 for t in taus) / len(taus)),
            "tau_mean_gap": brute_tau(alphas, means),
            "pearson_mean_gap": float(np.corrcoef(alphas, means)[0, 1]),
            **regress,
        })
    return report, long_rows, regress


WORKLOADS = {w.name: w for w in (RefGrid, MnistLinearMinibatch, AnalyzeLarge)}
