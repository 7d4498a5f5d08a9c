"""Span recording at levybound's module boundaries, from outside the package.

A traced section replaces each boundary function (see BOUNDARIES) in every
``levybound.*`` namespace that binds it, so a call is caught wherever it
is looked up (``levybound.sde.surrogate_loss_and_grad``,
``levybound.grid.run_training``, ``levybound.cli.execute_grid``, ...).
Nothing under ``src/`` is edited. Spans (name, start, end, parent, run id)
stay in memory and are written out when the run ends.

Self time of a span is its duration minus the union of its child spans.
Kernel counts (flops, bytes, rows, stable values) are computed from the
call's arguments and layer shapes, not measured, and are labelled
"computed": they repeat exactly for the same work.
"""

import contextlib
import csv
import functools
import importlib
import sys
import threading
import time

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _layer_pairs(spec):
    return list(zip(spec.widths[:-1], spec.widths[1:]))


def _grad_counts(args, kwargs, result):
    """GEMM flops and compulsory float64 traffic of one gradient call.

    Forward and weight-gradient GEMMs each cost 2 m w_i w_{i+1}; the input
    gradient is propagated through every layer but the first. Bytes: the
    gathered rows and labels, params in, gradient out, and each layer's
    output written once and read once.
    """
    spec = _arg(args, kwargs, 0, "spec")
    m = int(np.size(_arg(args, kwargs, 3, "indices")))
    pairs = _layer_pairs(spec)
    d = sum(a * b for a, b in pairs)
    back = sum(a * b for a, b in pairs[1:])
    flops = 2 * m * (2 * d + back)
    outs = sum(b for _, b in pairs)
    nbytes = 8 * (m * spec.widths[0] + m + 2 * d + 2 * m * outs)
    return {"rows": m, "flops_computed": flops, "bytes_computed": nbytes}


def _eval_counts(args, kwargs, result):
    """Forward-only GEMM flops and compulsory traffic of one 0-1 evaluation."""
    spec = _arg(args, kwargs, 0, "spec")
    n = int(_arg(args, kwargs, 2, "data").n)
    pairs = _layer_pairs(spec)
    d = sum(a * b for a, b in pairs)
    outs = sum(b for _, b in pairs)
    return {
        "rows": n,
        "flops_computed": 2 * n * d,
        "bytes_computed": 8 * (n * spec.widths[0] + n + d + n * outs),
    }


def _stable_counts(args, kwargs, result):
    return {"values": int(np.size(result))}


def _training_counts(args, kwargs, result):
    return {"steps": len(result.records), "diverged": int(result.diverged)}


def _records_in(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 1, "records"))}


def _records_out(args, kwargs, result):
    return {"rows": len(result)}


# (span name, defining module, function, computed counts from (args, kwargs, result))
BOUNDARIES = [
    ("cli.main", "levybound.cli", "main", None),
    ("grid.execute_grid", "levybound.grid", "execute_grid", None),
    ("sde.run_training", "levybound.sde", "run_training", _training_counts),
    ("sde.em_step", "levybound.sde", "em_step", None),
    ("models.surrogate_loss_and_grad", "levybound.models", "surrogate_loss_and_grad", _grad_counts),
    ("models.zero_one_error", "levybound.models", "zero_one_error", _eval_counts),
    ("stable.sample_isotropic_stable", "levybound.stable", "sample_isotropic_stable", _stable_counts),
    ("bounds.integral_estimate", "levybound.bounds", "integral_estimate", None),
    ("bounds.bound_estimate", "levybound.bounds", "bound_estimate", None),
    ("analysis.robust_gap", "levybound.analysis", "robust_gap", None),
    ("analysis.build_report", "levybound.analysis", "build_report", None),
    ("analysis.correlation_scan", "levybound.analysis", "correlation_scan", None),
    ("analysis.kendall_tau", "levybound.analysis", "kendall_tau", None),
    ("analysis.alpha_regression", "levybound.analysis", "alpha_regression", None),
    ("data.generate_synthetic", "levybound.data", "generate_synthetic", None),
    ("data.append_records", "levybound.data", "append_records", _records_in),
    ("data.write_records", "levybound.data", "write_records", _records_in),
    ("data.read_records", "levybound.data", "read_records", _records_out),
]

# Per-layer metrics printed on every workload (zero where a layer is not
# called), as listed under "per_layer" in BENCHMARK.json.
PER_LAYER = (
    [("stable.sample_isotropic_stable." + s, u) for s, u in
     [("calls", "count"), ("self_s", "s"), ("us_p50", "us"), ("values", "count")]]
    + [("models.surrogate_loss_and_grad." + s, u) for s, u in
       [("calls", "count"), ("self_s", "s"), ("us_p50", "us"), ("rows", "count"),
        ("flops_computed", "flop"), ("bytes_computed", "B"), ("gflops", "Gflop/s")]]
    + [("models.zero_one_error." + s, u) for s, u in
       [("calls", "count"), ("self_s", "s"), ("us_p50", "us"), ("rows", "count"),
        ("flops_computed", "flop"), ("bytes_computed", "B")]]
    + [("sde.em_step.calls", "count"), ("sde.em_step.self_s", "s")]
    + [("sde.run_training." + s, u) for s, u in
       [("calls", "count"), ("self_s", "s"), ("s_p50", "s"), ("s_p90", "s"),
        ("steps", "count"), ("diverged", "count")]]
    + [("grid.execute_grid.self_s", "s"), ("grid.execute_grid.busy_frac", "frac")]
    + [("bounds.self_s", "s"), ("analysis.robust_gap.self_s", "s")]
    + [(f"data.{f}.{s}", u) for f in ("append_records", "write_records", "read_records")
       for s, u in [("calls", "count"), ("self_s", "s"), ("rows", "count")]]
    + [("data.generate_synthetic.self_s", "s")]
    + [(f"analysis.{f}.{s}", u)
       for f in ("build_report", "correlation_scan", "kendall_tau", "alpha_regression")
       for s, u in [("calls", "count"), ("self_s", "s")]]
    + [("cli.main.self_s", "s"), ("trace_overhead_frac", "frac")]
)


class Tracer:
    """In-memory span log. Spans opened on a worker thread with no open
    span of its own take the innermost open span of the creating thread as
    their parent, so a pooled grid still nests under execute_grid."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1, counts or None]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home = self._stack()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else (self._home[-1] if self._home else -1)
        span = [name, 0.0, 0.0, parent, None]
        with self._lock:
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
        return span, stack

    def wrap(self, name, fn, counter=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, stack = self._open(name)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around benchmark code."""
        span, stack = self._open(name)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def install(self):
        """Patch every boundary function in every levybound namespace."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "levybound" or k.startswith("levybound."))]
        for name, module, attr, counter in BOUNDARIES:
            orig = getattr(importlib.import_module(module), attr)
            traced = self.wrap(name, orig, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
                        self._patched.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def self_times(self):
        """Duration minus the union of child intervals, per span."""
        children = [[] for _ in self.spans]
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for lo, hi in sorted((self.spans[c][1], self.spans[c][2]) for c in children[i]):
                if hi > reach:
                    covered += min(hi, end) - max(lo, reach)
                    reach = hi
            out.append(max(0.0, (end - start) - covered))
        return out

    def write(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["run_id", "index", "name", "start_s", "end_s", "parent", "counts"])
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                w.writerow([self.run_id, i, name, repr(start), repr(end), parent,
                            "" if counts is None else ";".join(f"{k}={v}" for k, v in counts.items())])


def per_layer_metrics(tracer: Tracer, overhead_frac: float) -> dict:
    """Aggregate spans into the PER_LAYER metrics, zero where uncalled."""
    selfs = tracer.self_times()
    calls, self_s, durs, counts = {}, {}, {}, {}
    for (name, start, end, _, cnt), st in zip(tracer.spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
        durs.setdefault(name, []).append(end - start)
        for k, v in (cnt or {}).items():
            counts[(name, k)] = counts.get((name, k), 0) + v

    def pct(layer, q):
        values = durs.get(layer)
        return float(np.percentile(values, q)) if values else 0.0

    m = {}
    for name, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if name == "trace_overhead_frac":
            m[name] = overhead_frac
        elif stat == "calls":
            m[name] = calls.get(layer, 0)
        elif stat == "self_s" and layer == "bounds":
            m[name] = sum(v for k, v in self_s.items() if k.startswith("bounds.")) + 0.0
        elif stat == "self_s":
            m[name] = self_s.get(layer, 0.0)
        elif stat == "us_p50":
            m[name] = pct(layer, 50) * 1e6
        elif stat == "s_p50":
            m[name] = pct(layer, 50)
        elif stat == "s_p90":
            m[name] = pct(layer, 90)
        elif stat == "gflops":
            busy = sum(durs.get(layer, []))
            flops = counts.get((layer, "flops_computed"), 0)
            m[name] = flops / busy / 1e9 if busy > 0 else 0.0
        elif stat == "busy_frac":
            grid = sum(durs.get("grid.execute_grid", []))
            busy = sum(durs.get("sde.run_training", []))
            m[name] = busy / grid if grid > 0 else 0.0
        else:
            m[name] = counts.get((layer, stat), 0)
    return m
