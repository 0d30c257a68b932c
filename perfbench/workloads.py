"""The four workloads of the reluregions benchmark.

Importing this module imports ``reluregions`` from the ``src/`` directory of
the checkout that holds this file, so the benchmark always measures the code
next to it.  Every workload calls the package only through its public
module-level functions, looked up at call time, so that the tracer in
``tracer.py`` can wrap them.

A workload is cut into *batches*: one public call (or, for ``exact-1d``, a
fixed group of calls) whose inputs are a pure function of the workload seed
and the batch index.  A batch completes some number of *items* (one trial of
a grid, one dataset enumerated, one matrix or one fit); throughput is counted
in items.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import reluregions  # noqa: E402
from reluregions import experiments, model, onedim, regions  # noqa: E402

if Path(reluregions.__file__).resolve().parent != SRC / "reluregions":
    raise ImportError(f"reluregions was imported from {reluregions.__file__}, not from {SRC}")


def batch_seed(seed: int, index: int) -> int:
    """Master seed handed to the program for batch ``index`` of a run."""
    return seed * 100_000 + index


def csv_rows(result) -> tuple:
    """Data rows of the grid CSV, the format the program commits to keep byte-identical."""
    return tuple(experiments.grid_csv_text(result).splitlines()[1:])


def zero_loss_fit(params, A, X, y) -> bool:
    """Whether ``params`` realize pattern ``A`` on ``X``, off every region boundary, with zero loss on ``y``.

    Zero loss means a residual norm within ``residual_tol * (1 + |y|)``, the
    bound the program itself puts on the residual norm of a zero-loss fit.
    """
    realized, degenerate = model.activation_pattern(params, X)
    residual = float(np.linalg.norm(model.forward(params, X) - y))
    limit = reluregions.DEFAULT_TOL.residual_tol * (1.0 + float(np.linalg.norm(y)))
    return not degenerate and np.array_equal(realized.A, np.asarray(A, dtype=np.int8)) and residual <= limit


def check_grid(result, trials: int) -> int:
    """Number of cells that are not a valid fraction of ``trials`` draws."""
    bad = 0
    for c in result.cells:
        hits = c.value * trials
        if not (c.trials == trials and 0.0 <= c.value <= 1.0 and abs(hits - round(hits)) < 1e-9 and c.resamples >= 0):
            bad += 1
    return bad


class Grid:
    """A Monte Carlo grid driven through ``run_rank_grid`` or ``run_globalmin_grid``.

    The program's own ``workers`` setting supplies the parallelism, so a run
    with two workers is still one closed-loop caller.
    """

    parallel_api = True
    keep = ()

    def __init__(self, name, function, cell, trials, default_seed, reference_trials, batches_per_s):
        self.name = name
        self.function = function
        self.cell = cell
        self.trials = trials
        self.default_seed = default_seed
        self.reference_trials = reference_trials
        self.batches_per_s = batches_per_s

    def config(self, seed: int, trials: int, workers: int = 1):
        return experiments.ExperimentConfig(**self.cell, trials=trials, seed=seed, workers=workers)

    def prepare(self, seed: int) -> int:
        return seed

    def run_batch(self, seed: int, index: int, workers: int):
        cfg = self.config(batch_seed(seed, index), self.trials, workers)
        return getattr(experiments, self.function)(cfg)

    def items(self, result) -> int:
        return sum(c.trials for c in result.cells)

    def batch_items(self) -> int:
        return self.trials * len(self.config(0, 1).cells())

    def fingerprint(self, result) -> tuple:
        return csv_rows(result)

    def check(self, result) -> int:
        bad = check_grid(result, self.trials)
        return self.items(result) if bad else 0

    def resamples(self, result) -> int:
        return sum(c.resamples for c in result.cells)

    def patterns_found(self, result) -> int:
        return 0

    def warmup(self) -> None:
        getattr(experiments, self.function)(self.config(self.default_seed, 1))

    def reference(self) -> dict:
        result = getattr(experiments, self.function)(self.config(self.default_seed, self.reference_trials))
        return {"grid_rows": list(csv_rows(result))}


class GlobalMinGrid(Grid):
    """Adds the traced-run witness check: every "yes" region must hold a zero-loss point."""

    keep = ("optimize.report",)

    def check_kept(self, kept: dict) -> tuple:
        """(reports checked, reports whose witness fails) over the traced calls."""
        checked = bad = 0
        for args, kwargs, report in kept.get("optimize.report", ()):
            if report.contains_zero_loss:
                pattern, X, y = args[0], args[1], args[2]
                checked += 1
                bad += not zero_loss_fit(report.witness, pattern.A, X, y)
        return checked, bad


class Enumerate:
    """Exhaustive region enumeration of planar Gaussian data, one dataset per batch."""

    name = "enumerate-d2"
    parallel_api = False
    keep = ()
    d0, n = 2, 12
    pool_size = 16
    default_seed = 102
    batches_per_s = 1.2

    def prepare(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        pool = []
        while len(pool) < self.pool_size:
            X = rng.standard_normal((self.d0, self.n))
            if regions.certify_general_position(X):
                pool.append(X)
        return pool

    def run_batch(self, pool, index: int, workers: int):
        return regions.enumerate_feasible_unit_patterns(pool[index % len(pool)])

    def items(self, patterns) -> int:
        return 1

    def batch_items(self) -> int:
        return 1

    def fingerprint(self, patterns) -> tuple:
        return tuple(u.a for u in patterns)

    def check(self, patterns) -> int:
        # The data is certified in general position, where the count is a closed form.
        expected = regions.count_regions_general_position(self.n, self.d0, 1)
        return int(len(set(self.fingerprint(patterns))) != expected)

    def resamples(self, patterns) -> int:
        return 0

    def patterns_found(self, patterns) -> int:
        return len(patterns)

    def warmup(self) -> None:
        self.run_batch(self.prepare(self.default_seed), 0, 1)

    def reference(self) -> dict:
        patterns = self.run_batch(self.prepare(self.default_seed), 0, 1)
        codes = ["".join(map(str, a)) for a in self.fingerprint(patterns)]
        return {"region_count": [len(patterns)], "patterns": codes}


class Exact1D:
    """Exact 0/1 singularity plus exact 1-d fitting; no LP and no SVD.

    One batch is ``run_singularity_study`` over three sizes plus a handful of
    ``fit_exact_1d`` calls on random complete patterns, a fixed mix of
    ``matrices + fits`` items.
    """

    name = "exact-1d"
    parallel_api = False
    keep = ()
    dims = (8, 12, 16)
    matrices_per_dim = 100
    n, d1 = 30, 120
    fits_per_batch = 10
    pool_size = 64
    default_seed = 107
    batches_per_s = 9.5

    def prepare(self, seed: int) -> tuple:
        rng = np.random.default_rng(seed)
        v = np.where(np.arange(self.d1) % 2 == 0, 1.0, -1.0)
        # A row switching between points a gap apart has a preactivation of at
        # most gap/2 at one of them, while activation_pattern calls anything
        # within lp_tol times the row and point scale (up to 2 for |x| <= 1)
        # degenerate.  A complete pattern switches between every pair of
        # neighbours, so below a gap of about 4 * lp_tol it has no exact fit
        # at all.  Such draws are resampled, as the program's own drivers
        # resample degenerate draws.
        min_gap = 10.0 * reluregions.DEFAULT_TOL.lp_tol
        pool = []
        while len(pool) < self.pool_size:
            x = np.sort(rng.uniform(-1.0, 1.0, self.n))
            if np.any(np.diff(x) < min_gap):
                continue
            data = onedim.Sorted1D.from_values(x, rng.uniform(-1.0, 1.0, self.n))
            pool.append((onedim.random_complete_step_matrix(self.n, v, rng), data, v))
        return seed, pool

    def fits(self, pool, index: int) -> list:
        start = index * self.fits_per_batch
        return [pool[(start + k) % len(pool)] for k in range(self.fits_per_batch)]

    def run_batch(self, state, index: int, workers: int):
        seed, pool = state
        study = experiments.run_singularity_study(self.dims, self.matrices_per_dim, batch_seed(seed, index))
        fitted = [(A, data, onedim.fit_exact_1d(A, data, v)) for A, data, v in self.fits(pool, index)]
        return study, fitted

    def items(self, output) -> int:
        return self.batch_items()

    def batch_items(self) -> int:
        return len(self.dims) * self.matrices_per_dim + self.fits_per_batch

    def fingerprint(self, output) -> tuple:
        study, fitted = output
        return csv_rows(study), tuple(p.W.tobytes() + p.b.tobytes() for _, _, p in fitted)

    def check(self, output) -> int:
        study, fitted = output
        bad = self.matrices_per_dim * len(self.dims) if check_grid(study, self.matrices_per_dim) else 0
        return bad + sum(not zero_loss_fit(params, A, data.as_columns(), data.y) for A, data, params in fitted)

    def resamples(self, output) -> int:
        return 0

    def patterns_found(self, output) -> int:
        return 0

    def warmup(self) -> None:
        experiments.run_singularity_study(self.dims, 1, self.default_seed)
        A, data, v = self.prepare(self.default_seed)[1][0]
        onedim.fit_exact_1d(A, data, v)

    def reference(self) -> dict:
        study = experiments.run_singularity_study(self.dims, 10 * self.matrices_per_dim, self.default_seed)
        return {"grid_rows": list(csv_rows(study))}


WORKLOADS = {
    "globalmin-c10": GlobalMinGrid(
        "globalmin-c10",
        "run_globalmin_grid",
        dict(n_values=(5,), d1_values=(93,), d0_rule="1", labels="random", init="he"),
        trials=2,
        default_seed=110,
        reference_trials=4,
        batches_per_s=2.1,
    ),
    "rank-grid-c8": Grid(
        "rank-grid-c8",
        "run_rank_grid",
        dict(n_values=(4, 8, 16), d1_values=tuple(range(1, 9)), d0_rule="n"),
        trials=10,
        default_seed=108,
        reference_trials=20,
        batches_per_s=9.5,
    ),
    "enumerate-d2": Enumerate(),
    "exact-1d": Exact1D(),
}
