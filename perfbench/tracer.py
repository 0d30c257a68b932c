"""Outside-in tracer: per-layer spans recorded from the benchmark's side.

The tracer replaces, for the length of one traced pass, the names that
callers inside the package look up at call time (``experiments.
region_global_min_report``, ``optimize.lp_max_margin``, ...) with wrappers
that record a span: the layer it belongs to, its duration and the time its
child spans covered.  A layer's self time is its spans' durations minus
their children's.  Nothing inside ``src/`` is edited.

A hook whose name no longer exists in the package is skipped, and every
metric that depends on it reads ``None`` ("not measured") instead of failing
the run.  Spans assume one calling thread: the traced pass runs one worker.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from workloads import reluregions
from reluregions import experiments, lp, model, onedim, optimize, regions

# (module, name the caller looks up, span key).  Span keys are "layer.part".
HOOKS = (
    (experiments, "run_globalmin_grid", "experiments.driver"),
    (experiments, "run_rank_grid", "experiments.driver"),
    (experiments, "run_singularity_study", "experiments.driver"),
    (experiments, "gen_gaussian_data", "experiments.datagen"),
    (experiments, "gen_cube_data", "experiments.datagen"),
    (experiments, "gen_labels", "experiments.datagen"),
    (experiments, "init_params", "experiments.datagen"),
    (experiments, "activation_pattern", "model.activation_pattern"),
    (experiments, "jacobian_full_rank", "model.jacobian_rank"),
    (model, "mat_rank", "linalg.mat_rank"),
    (experiments, "region_global_min_report", "optimize.report"),
    (optimize, "design_matrix", "optimize.design_matrix"),
    (optimize, "least_squares_min_norm", "linalg.lstsq"),
    (optimize, "nullspace_basis", "linalg.nullspace"),
    (optimize, "lp_max_margin", "lp.solve"),
    (regions, "lp_max_margin", "lp.solve"),
    (regions, "enumerate_feasible_unit_patterns", "regions.enumerate"),
    (lp, "_KERNELS", "kernel"),  # registry of pivot loops: each entry is wrapped
    (experiments, "binary_matrix_is_singular", "exact.singular"),
    (onedim, "fit_exact_1d", "onedim.fit"),
)

# Factorizations counted (not timed) wherever the package calls them.
COUNTERS = (
    (np.linalg, "svd", "numpy.svd"),
    (np.linalg, "lstsq", "numpy.lstsq"),
)

_OPTIMAL = 0  # kernel status for a finished phase


class Tracer:
    """Span recorder; use as a context manager around one single-threaded pass."""

    def __init__(self, keep=()):
        self.keep = set(keep)
        self.kept = defaultdict(list)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.solve_s = []
        self.infeasible = 0
        self.phase_s = {1: 0.0, 2: 0.0}
        self.tableau_rows = []
        self.tableau_cols = []
        self.tableau_bytes = []
        self.missing = set()
        self._stack = []
        self._saved = []
        self._has_eq = False
        self._phase = 2

    def __enter__(self):
        for module, name, key in HOOKS + COUNTERS:
            original = getattr(module, name, None)
            if not (callable(original) or isinstance(original, dict)):
                self.missing.add(key)
                continue
            self._saved.append((module, name, original))
            if key.startswith("numpy."):
                replacement = self._counter(key, original)
            elif isinstance(original, dict):
                replacement = {k: self._wrap(key, fn) for k, fn in original.items()}
            else:
                replacement = self._wrap(key, original)
            setattr(module, name, replacement)
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        return False

    def _counter(self, key, fn):
        def counted(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, key, fn):
        def traced(*args, **kwargs):
            return self._span(key, fn, args, kwargs)

        return traced

    def _span(self, key, fn, args, kwargs):
        if key == "lp.solve":
            # The margin LP runs a phase 1 only when it has equality rows.
            self._has_eq = (args[1] if len(args) > 1 else kwargs.get("E")) is not None
            self._phase = 1 if self._has_eq else 2
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            self.calls[key] += 1
            self.total_s[key] += elapsed
            self.self_s[key] += elapsed - frame[0]
        if key == "lp.solve":
            self.solve_s.append(elapsed)
            if not getattr(result, "feasible", True) or getattr(result, "t", np.inf) <= reluregions.DEFAULT_TOL.lp_tol:
                self.infeasible += 1
        elif key == "kernel":
            T = args[0]
            self.phase_s[self._phase] += elapsed
            self.tableau_rows.append(T.shape[0])
            self.tableau_cols.append(T.shape[1])
            self.tableau_bytes.append(T.nbytes)
            # A finished phase 1 is followed by phase 2; anything else restarts the solve.
            self._phase = 2 if (self._phase == 1 and result == _OPTIMAL) else (1 if self._has_eq else 2)
        if key in self.keep:
            self.kept[key].append((args, kwargs, result))
        return result


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def _pct(values, q) -> float:
    return 1000.0 * float(np.percentile(values, q)) if values else 0.0


# name -> (unit, span keys it needs).  "/item" metrics are divided by the items of the pass.
PER_LAYER = {
    "experiments.datagen_ms": ("ms/item", ("experiments.datagen",)),
    "experiments.self_ms": ("ms/item", ("experiments.driver", "experiments.datagen", "model.activation_pattern", "model.jacobian_rank", "optimize.report", "exact.singular")),
    "experiments.resamples": ("count", ()),
    "model.activation_pattern_ms": ("ms/item", ("model.activation_pattern",)),
    "model.jacobian_rank_ms": ("ms/item", ("model.jacobian_rank", "linalg.mat_rank")),
    "linalg.mat_rank_ms": ("ms/item", ("linalg.mat_rank",)),
    "linalg.svd_calls_per_item": ("count/item", ("numpy.svd", "numpy.lstsq")),
    "linalg.lstsq_ms": ("ms/item", ("linalg.lstsq",)),
    "linalg.nullspace_ms": ("ms/item", ("linalg.nullspace",)),
    "optimize.report_ms": ("ms/item", ("optimize.report",)),
    "optimize.self_ms": ("ms/item", ("optimize.report", "optimize.design_matrix", "linalg.lstsq", "linalg.nullspace", "lp.solve")),
    "optimize.design_matrix_calls_per_item": ("count/item", ("optimize.design_matrix",)),
    "lp.solves_per_item": ("count/item", ("lp.solve",)),
    "lp.solve_ms_p50": ("ms", ("lp.solve",)),
    "lp.solve_ms_p90": ("ms", ("lp.solve",)),
    "lp.self_ms": ("ms/item", ("lp.solve", "kernel")),
    "lp.tableau_rows_mean": ("count", ("kernel",)),
    "lp.tableau_cols_mean": ("count", ("kernel",)),
    "lp.infeasible": ("count/item", ("lp.solve",)),
    "kernel.ms": ("ms/item", ("kernel",)),
    "kernel.phase1_ms": ("ms/item", ("kernel", "lp.solve")),
    "kernel.phase2_ms": ("ms/item", ("kernel", "lp.solve")),
    "kernel.calls_per_solve": ("count/solve", ("kernel", "lp.solve")),
    "kernel.tableau_bytes_mean": ("B", ("kernel",)),
    "regions.self_ms": ("ms/item", ("regions.enumerate", "lp.solve")),
    "regions.lps_per_region": ("count/region", ("lp.solve",)),
    "exact.singular_ms": ("ms/matrix", ("exact.singular",)),
    "onedim.fit_ms": ("ms/fit", ("onedim.fit",)),
    "trace.overhead_frac": ("ratio", ()),
    "trace.attributed_frac": ("ratio", ()),
}


def layer_metrics(tr: Tracer, items: int, patterns_found: int, resamples: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: {"value", "unit"}}."""

    def per_item_ms(seconds):
        return 1000.0 * seconds / items

    def per_call_ms(key):
        return 1000.0 * tr.total_s[key] / tr.calls[key] if tr.calls[key] else 0.0

    solves = tr.calls["lp.solve"]
    values = {
        "experiments.datagen_ms": per_item_ms(tr.self_s["experiments.datagen"]),
        "experiments.self_ms": per_item_ms(tr.self_s["experiments.driver"]),
        "experiments.resamples": resamples,
        "model.activation_pattern_ms": per_item_ms(tr.self_s["model.activation_pattern"]),
        "model.jacobian_rank_ms": per_item_ms(tr.self_s["model.jacobian_rank"]),
        "linalg.mat_rank_ms": per_item_ms(tr.self_s["linalg.mat_rank"]),
        "linalg.svd_calls_per_item": (tr.calls["numpy.svd"] + tr.calls["numpy.lstsq"]) / items,
        "linalg.lstsq_ms": per_item_ms(tr.self_s["linalg.lstsq"]),
        "linalg.nullspace_ms": per_item_ms(tr.self_s["linalg.nullspace"]),
        "optimize.report_ms": per_item_ms(tr.total_s["optimize.report"]),
        "optimize.self_ms": per_item_ms(tr.self_s["optimize.report"] + tr.self_s["optimize.design_matrix"]),
        "optimize.design_matrix_calls_per_item": tr.calls["optimize.design_matrix"] / items,
        "lp.solves_per_item": solves / items,
        "lp.solve_ms_p50": _pct(tr.solve_s, 50),
        "lp.solve_ms_p90": _pct(tr.solve_s, 90),
        "lp.self_ms": per_item_ms(tr.self_s["lp.solve"]),
        "lp.tableau_rows_mean": _mean(tr.tableau_rows),
        "lp.tableau_cols_mean": _mean(tr.tableau_cols),
        "lp.infeasible": tr.infeasible / items,
        "kernel.ms": per_item_ms(tr.self_s["kernel"]),
        "kernel.phase1_ms": per_item_ms(tr.phase_s[1]),
        "kernel.phase2_ms": per_item_ms(tr.phase_s[2]),
        "kernel.calls_per_solve": tr.calls["kernel"] / solves if solves else 0.0,
        "kernel.tableau_bytes_mean": _mean(tr.tableau_bytes),
        "regions.self_ms": per_item_ms(tr.self_s["regions.enumerate"]),
        "regions.lps_per_region": solves / patterns_found if patterns_found else 0.0,
        "exact.singular_ms": per_call_ms("exact.singular"),
        "onedim.fit_ms": per_call_ms("onedim.fit"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.attributed_frac": sum(tr.self_s.values()) / traced_s,
    }
    out = {}
    for name, (unit, needs) in PER_LAYER.items():
        measured = not tr.missing.intersection(needs)
        out[name] = {"value": values[name] if measured else None, "unit": unit}
    return out
