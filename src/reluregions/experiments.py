"""Monte Carlo experiment harness.

Grids over (n, d1) estimate, per cell, either the probability that a random
initialization lands in a region with full-rank Jacobian, or the probability
that it lands in a region containing a zero-loss global minimum.  Each trial
is a pure function of (config, cell index, trial index, attempt): attempt
``a`` of trial ``t`` in cell ``c`` draws from the generator that
``np.random.default_rng(np.random.SeedSequence(entropy=(seed, c, t, a)))``
would give, so results are bit-reproducible regardless of worker count.
``_trial_rngs`` builds those generators for a block of trials in one pass:
numpy mixes each trial's entropy words into its 4-word pool, one set of
uint32 array operations turns every pool of the block into its PCG64 state
(the output hash of ``SeedSequence.generate_state``, NumPy NEP 19), and each
PCG64 starts from its preset state.

Both grids draw through one path, ``_draw_block``.  Each round flags the
pending draws of a block of a cell's trials with one ``stacked_patterns``
call; a draw on a region boundary (degenerate pattern) is never scored, and
only its trial is drawn again, at the next attempt, which is reported as a
resample.  The rank grid then decides the block with one
``stacked_jacobian_full_rank`` call: the n x n Gram matrices of the block
prove full rank under a stated rounding bound, zero pattern columns prove
the opposite, and only the trials left undecided get an SVD of their
Jacobians.  The globalmin grid runs one zero-loss report per trial.  A block
gives the same outcomes as its trials drawn one at a time through the public
API (the rank grid's through the SVD rule of ``jacobian_full_rank``).
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import ceil, sqrt

import numpy as np

from .errors import InputError, InvariantViolation
from .exact import binary_matrix_is_singular
from .linalg import Tol, as_int, as_matrix
from .model import (
    ActivationPattern,
    Params,
    forward,
    stacked_jacobian_full_rank,
    stacked_patterns,
    activation_pattern,  # not called here: the benchmark's tracer wraps
    jacobian_full_rank,  # these two names of this module
)
from .optimize import region_global_min_report

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "GridResult",
    "resolve_d0",
    "gen_gaussian_data",
    "gen_cube_data",
    "gen_labels",
    "init_params",
    "run_rank_grid",
    "run_globalmin_grid",
    "run_singularity_study",
    "grid_csv_text",
    "grid_svg_text",
    "read_grid_csv",
    "emit_outputs",
]

CSV_HEADER = "experiment,d0,d1,n,trials,seed,metric,value,resamples"
MAX_N = 30
MAX_D1 = 400
MAX_RESAMPLE = 100
# Float entries of one block of a cell's trials (4 MB), counted as the
# Jacobian entries d1 (d0 + bias) n per trial.  It bounds each of the block's
# arrays: W, X and the n x n Gram matrices hold at most as many (a Gram
# matrix is formed only when d1 (d0 + bias) >= n), and so do the stacked
# Jacobians of the trials that fall back to the SVD.
_BLOCK_ENTRIES = 1 << 19
D0_RULES = ("n/4", "n/2", "n", "2n")
INIT_SCHEMES = ("sqrtd1", "he")


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def resolve_d0(rule: str, n: int) -> int:
    """Turn a d0 rule (fixed integer or ratio of n) into a concrete value."""
    rule = str(rule).strip()
    if rule == "n/4":
        return ceil(n / 4)
    if rule == "n/2":
        return ceil(n / 2)
    if rule == "n":
        return n
    if rule == "2n":
        return 2 * n
    try:
        d0 = int(rule)
    except ValueError:
        raise InputError(f"unknown d0 rule {rule!r}; expected an integer or one of {D0_RULES}")
    if d0 < 1:
        raise InputError("d0 must be at least 1")
    return d0


def gen_gaussian_data(d0: int, n: int, seed) -> np.ndarray:
    """d0 x n matrix of iid standard normal entries, almost surely distinct columns."""
    return _rng(seed).standard_normal((as_int(d0, "d0"), as_int(n, "n")))


def gen_cube_data(d0: int, n: int, seed) -> np.ndarray:
    """d0 x n matrix of iid uniform entries on [-1, 1], almost surely distinct columns."""
    return _rng(seed).uniform(-1.0, 1.0, (as_int(d0, "d0"), as_int(n, "n")))


def parse_labels_kind(kind: str) -> tuple[str, int | None]:
    kind = str(kind).strip()
    if kind in ("random", "teacher"):
        return kind, None
    if kind.startswith("poly:"):
        try:
            degree = int(kind.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad polynomial degree in labels kind {kind!r}")
        if degree < 0:
            raise InputError("polynomial degree must be nonnegative")
        return "poly", degree
    raise InputError(f"unknown labels kind {kind!r}; expected poly:<deg>, teacher or random")


def gen_labels(kind: str, X, seed, d1: int | None = None, init: str = "he", bias: bool = True) -> np.ndarray:
    """Targets for the columns of X.

    poly:<deg>  evaluates a random polynomial of total degree <deg> with
                coefficients uniform on [-1, 1];
    teacher     runs a freshly initialized network of the same architecture
                (requires d1);
    random      draws iid uniform targets on [-1, 1].
    """
    X = as_matrix(X, name="X")
    rng = _rng(seed)
    base, degree = parse_labels_kind(kind)
    if base == "random":
        return rng.uniform(-1.0, 1.0, X.shape[1])
    if base == "teacher":
        if d1 is None:
            raise InputError("teacher labels need the hidden width d1")
        teacher = init_params(init, X.shape[0], d1, rng, bias=bias)
        return forward(teacher, X)
    d0 = X.shape[0]
    y = np.zeros(X.shape[1])
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(d0), total):
            coeff = rng.uniform(-1.0, 1.0)
            term = np.full(X.shape[1], coeff)
            for var in combo:
                term = term * X[var]
            y += term
    return y


def init_params(scheme: str, d0: int, d1: int, seed, bias: bool = True) -> Params:
    """Random first layer with the fixed alternating +-1 output head.

    sqrtd1: weights and biases iid uniform on [-1/sqrt(d1), 1/sqrt(d1)].
    he:     iid uniform on [-sqrt(6/d0), sqrt(6/d0)] (uniform He, fan-in d0).
    """
    if scheme not in INIT_SCHEMES:
        raise InputError(f"unknown init scheme {scheme!r}; expected one of {INIT_SCHEMES}")
    d0, d1 = as_int(d0, "d0"), as_int(d1, "d1")
    W, b = _uniform_weights(scheme, d0, d1, _rng(seed), bias)
    return Params(W, b, _head(d1))


def _head(d1: int) -> np.ndarray:
    return np.where(np.arange(d1) % 2 == 0, 1.0, -1.0)


def _uniform_weights(scheme: str, d0: int, d1: int, rng: np.random.Generator, bias: bool):
    """The (W, b) draw of ``init_params``, without validation or the head.

    One uniform draw gives W (row-major) and then b: the same doubles in the
    same order as drawing W and b by two calls.
    """
    bound = 1.0 / sqrt(d1) if scheme == "sqrtd1" else sqrt(6.0 / d0)
    flat = rng.uniform(-bound, bound, d1 * (d0 + bias))
    return flat[: d1 * d0].reshape(d1, d0), flat[d1 * d0 :] if bias else None


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition plus sampling scheme for one Monte Carlo experiment."""

    n_values: tuple
    d1_values: tuple
    d0_rule: str = "1"
    trials: int = 100
    seed: int = 0
    labels: str = "random"
    init: str = "sqrtd1"
    bias: bool = True
    tol: Tol = field(default_factory=Tol)
    workers: int = 1

    def __post_init__(self) -> None:
        n_values = tuple(as_int(n, "each n value") for n in self.n_values)
        d1_values = tuple(as_int(d, "each d1 value") for d in self.d1_values)
        if not n_values or not d1_values:
            raise InputError("grid must contain at least one n and one d1 value")
        if min(n_values) < 1 or max(n_values) > MAX_N:
            raise InputError(f"n values must lie in [1, {MAX_N}]")
        if min(d1_values) < 1 or max(d1_values) > MAX_D1:
            raise InputError(f"d1 values must lie in [1, {MAX_D1}]")
        trials = as_int(self.trials, "trials")
        seed = as_int(self.seed, "seed")
        workers = as_int(self.workers, "workers")
        if trials < 1:
            raise InputError("trials must be at least 1")
        if seed < 0:
            raise InputError("seed must be nonnegative")
        if workers < 1:
            raise InputError("workers must be at least 1")
        if self.init not in INIT_SCHEMES:
            raise InputError(f"unknown init scheme {self.init!r}")
        parse_labels_kind(self.labels)
        for n in n_values:
            resolve_d0(self.d0_rule, n)
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "d1_values", d1_values)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "workers", workers)

    def cells(self) -> list:
        return [
            (n, resolve_d0(self.d0_rule, n), d1)
            for n in self.n_values
            for d1 in self.d1_values
        ]


@dataclass(frozen=True, slots=True)
class CellResult:
    n: int
    d0: int
    d1: int
    trials: int
    value: float
    resamples: int


@dataclass(frozen=True, slots=True)
class GridResult:
    experiment: str
    metric: str
    seed: int
    cells: tuple


# The output hash of numpy's SeedSequence.generate_state (NumPy NEP 19): state
# word i of a 4-word pool p is x = (p[i % 4] ^ h_i) * h_(i+1) mod 2^32, then
# x ^ (x >> 16), where h_i = INIT_B * MULT_B^i mod 2^32.  PCG64 takes 8 words.
_STATE_HASH = [0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) % (1 << 32) for i in range(9)]
_STATE_XOR = np.array(_STATE_HASH[:8], dtype=np.uint32)
_STATE_MUL = np.array(_STATE_HASH[1:], dtype=np.uint32)


def _uint32_words(x: int) -> list:
    """Little-endian 32-bit words of a nonnegative int as SeedSequence coerces it ([0] for 0)."""
    words = [x & 0xFFFFFFFF]
    while x := x >> 32:
        words.append(x & 0xFFFFFFFF)
    return words


class _PresetState(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose PCG64 state is already computed.

    PCG64 asks once for ``generate_state(4, np.uint64)`` and reads the
    returned buffer directly, so ``state`` is a C-contiguous 4-word uint64 row.
    """

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _trial_rngs(cfg: ExperimentConfig, cell_index: int, trial_indices, attempt: int) -> list:
    """Generators of ``attempt`` of each trial in ``trial_indices``, in one pass.

    Each equals ``np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed,
    cell_index, t, attempt)))``: numpy mixes the trial's entropy words (the
    tuple's ints as SeedSequence coerces them) into its pool, and the pools of
    the whole block are hashed into PCG64 states by a few uint32 operations.
    """
    head = _uint32_words(cfg.seed) + _uint32_words(cell_index)
    tail = _uint32_words(attempt)
    k = len(trial_indices)
    state = np.empty((k, 2, 4), dtype=np.uint32)
    for j, t in enumerate(trial_indices):
        state[j] = np.random.SeedSequence(np.array(head + _uint32_words(t) + tail, dtype=np.uint32)).pool
    state = state.reshape(k, 8)
    state ^= _STATE_XOR
    state *= _STATE_MUL
    state ^= state >> 16
    rows = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return [np.random.Generator(np.random.PCG64(_PresetState(row))) for row in rows]


def _draw_block(cfg: ExperimentConfig, cell, cell_index: int, trials: range, labels: bool):
    """Stacked X, y (None unless ``labels``), patterns and kept attempts of a block's trials.

    Each round builds the generators of the pending trials' current attempt
    with one ``_trial_rngs`` call (see the module docstring).  Attempt ``a``
    of trial ``t`` draws its data (then targets, if ``labels``) and its first
    layer from its own generator, written straight into the block's arrays.
    One ``stacked_patterns`` call flags every pending draw of the round, and
    only the trials flagged on a boundary are drawn again.
    """
    n, d0, d1 = cell
    k = len(trials)
    X = np.empty((k, d0, n))
    y = np.empty((k, n)) if labels else None
    W = np.empty((k, d1, d0))
    b = np.empty((k, d1)) if cfg.bias else None
    A = np.empty((k, d1, n), dtype=np.int8)
    attempts = np.zeros(k, dtype=int)
    pending = np.arange(k)
    for attempt in range(MAX_RESAMPLE):
        rngs = _trial_rngs(cfg, cell_index, [trials[j] for j in pending], attempt)
        for j, rng in zip(pending, rngs):
            X[j] = gen_cube_data(d0, n, rng) if labels else gen_gaussian_data(d0, n, rng)
            if labels:
                y[j] = gen_labels(cfg.labels, X[j], rng, d1=d1, init=cfg.init, bias=cfg.bias)
            W[j], b_j = _uniform_weights(cfg.init, d0, d1, rng, cfg.bias)
            if b is not None:
                b[j] = b_j
        A[pending], flagged = stacked_patterns(W[pending], None if b is None else b[pending], X[pending], cfg.tol)
        attempts[pending] = attempt
        pending = pending[flagged]
        if not pending.size:
            return X, y, A, attempts.tolist()
    raise InvariantViolation("exceeded resample budget for degenerate patterns")


def _rank_block(cfg: ExperimentConfig, cell, cell_index: int, trials: range) -> list:
    """(full rank, resamples) per trial of a block, by one ``stacked_jacobian_full_rank`` call."""
    X, _, A, attempts = _draw_block(cfg, cell, cell_index, trials, labels=False)
    full = stacked_jacobian_full_rank(A, X, cfg.bias, cfg.tol)
    return list(zip(full.tolist(), attempts))


def _globalmin_block(cfg: ExperimentConfig, cell, cell_index: int, trials: range) -> list:
    """(zero-loss region, resamples) per trial of a block, one report each."""
    X, y, A, attempts = _draw_block(cfg, cell, cell_index, trials, labels=True)
    v = _head(cell[2])
    return [
        (region_global_min_report(ActivationPattern(Ak, cfg.bias), Xk, yk, v, tol=cfg.tol).contains_zero_loss, attempt)
        for Ak, Xk, yk, attempt in zip(A, X, y, attempts)
    ]


def _block_size(cfg: ExperimentConfig, cell) -> int:
    n, d0, d1 = cell
    return max(1, _BLOCK_ENTRIES // (d1 * (d0 + cfg.bias) * n))


def _run_grid(cfg: ExperimentConfig, decide, experiment: str, metric: str) -> GridResult:
    """Score every cell; ``decide`` maps (cfg, cell, cell index, trial range) to (ok, resamples) per trial."""
    cells = cfg.cells()
    every_trial = range(cfg.trials)
    tasks = [
        (ci, every_trial[start : start + size])
        for ci, cell in enumerate(cells)
        for size in (_block_size(cfg, cell),)
        for start in range(0, cfg.trials, size)
    ]

    def one(task):
        ci, trials = task
        return decide(cfg, cells[ci], ci, trials)

    if cfg.workers == 1:
        outcomes = [one(task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(one, tasks))

    hits = [0] * len(cells)
    resamples = [0] * len(cells)
    for (ci, _), block in zip(tasks, outcomes):
        for ok, extra in block:
            hits[ci] += int(ok)
            resamples[ci] += extra
    results = tuple(
        CellResult(n, d0, d1, cfg.trials, hits[ci] / cfg.trials, resamples[ci])
        for ci, (n, d0, d1) in enumerate(cells)
    )
    return GridResult(experiment, metric, cfg.seed, results)


def run_rank_grid(cfg: ExperimentConfig) -> GridResult:
    """Fraction of random initializations whose region has full-rank Jacobian."""
    return _run_grid(cfg, _rank_block, "rank-grid", "full_rank_fraction")


def run_globalmin_grid(cfg: ExperimentConfig) -> GridResult:
    """Fraction of sampled regions containing a zero-loss global minimum."""
    return _run_grid(cfg, _globalmin_block, "globalmin-grid", "zero_loss_fraction")


def run_singularity_study(dims, trials: int, seed: int) -> GridResult:
    """Empirical singularity probability of square iid 0/1 matrices.

    Rank decisions are exact (integer elimination), so the only noise is
    Monte Carlo.  Reported through the common grid schema with d0 = 0 and
    n = d1 = matrix dimension.
    """
    dims = [as_int(d, "each of dims") for d in dims]
    trials, seed = as_int(trials, "trials"), as_int(seed, "seed")
    if not dims or min(dims) < 1:
        raise InputError("dims must be a nonempty list of positive integers")
    if trials < 1:
        raise InputError("trials must be at least 1")
    if seed < 0:
        raise InputError("seed must be nonnegative")
    cells = []
    for di, d in enumerate(dims):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, di)))
        singular = sum(binary_matrix_is_singular(M) for M in rng.integers(0, 2, size=(trials, d, d)))
        cells.append(CellResult(n=d, d0=0, d1=d, trials=trials, value=singular / trials, resamples=0))
    return GridResult("singularity", "singular_fraction", seed, tuple(cells))


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def grid_csv_text(result: GridResult) -> str:
    """CSV serialization: fixed header, one row per cell, LF endings."""
    lines = [CSV_HEADER]
    for c in result.cells:
        lines.append(
            f"{result.experiment},{c.d0},{c.d1},{c.n},{c.trials},{result.seed},"
            f"{result.metric},{_fmt(c.value)},{c.resamples}"
        )
    return "\n".join(lines) + "\n"


def _csv_count(text: str, name: str, where: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise InputError(f"{where}: {name} must be an integer, got {text!r}")
    if value < 0:
        raise InputError(f"{where}: {name} must be nonnegative, got {value}")
    return value


def _csv_fraction(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"{where}: value must be a number, got {text!r}")
    if not 0.0 <= value <= 1.0:
        raise InputError(f"{where}: value must be a fraction in [0, 1], got {text!r}")
    return value


def read_grid_csv(path) -> GridResult:
    """Parse a grid CSV back into a GridResult.

    Every data row has the header's nine fields and the experiment, metric
    and seed of the first row; its counts are nonnegative integers and its
    value is a finite fraction in [0, 1].  Anything else raises InputError.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    header = CSV_HEADER.split(",")
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != header:
        raise InputError(f"unexpected CSV header in {path}")
    cells = []
    grid = None
    for row in reader:
        if not row:
            continue
        where = f"{path}, line {reader.line_num}"
        if len(row) != len(header):
            raise InputError(f"{where}: expected {len(header)} fields, got {len(row)}")
        experiment, d0, d1, n, trials, seed, metric, value, resamples = row
        key = (experiment, metric, _csv_count(seed, "seed", where))
        if grid is None:
            grid = key
        elif key != grid:
            raise InputError(f"{where}: experiment, metric and seed {key} differ from the first row's {grid}")
        cells.append(
            CellResult(
                n=_csv_count(n, "n", where),
                d0=_csv_count(d0, "d0", where),
                d1=_csv_count(d1, "d1", where),
                trials=_csv_count(trials, "trials", where),
                value=_csv_fraction(value, where),
                resamples=_csv_count(resamples, "resamples", where),
            )
        )
    if grid is None:
        raise InputError(f"no data rows in {path}")
    return GridResult(*grid, tuple(cells))


_VIRIDIS = (
    (0.267, 0.005, 0.329),
    (0.283, 0.141, 0.458),
    (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553),
    (0.164, 0.471, 0.558),
    (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518),
    (0.267, 0.749, 0.441),
    (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150),
    (0.993, 0.906, 0.144),
)


def _shade(value: float) -> str:
    v = min(max(float(value), 0.0), 1.0)
    pos = v * (len(_VIRIDIS) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(_VIRIDIS) - 1)
    t = pos - lo
    rgb = tuple(
        round(255 * ((1.0 - t) * _VIRIDIS[lo][c] + t * _VIRIDIS[hi][c])) for c in range(3)
    )
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def grid_svg_text(result: GridResult) -> str:
    """Heatmap: n on the x-axis, d1 on the y-axis, one rect per cell."""
    ns = sorted({c.n for c in result.cells})
    d1s = sorted({c.d1 for c in result.cells})
    left, top, right, bottom, cell_px = 64, 34, 16, 46, 28
    width = left + cell_px * len(ns) + right
    height = top + cell_px * len(d1s) + bottom
    xpos = {n: left + i * cell_px for i, n in enumerate(ns)}
    ypos = {d1: top + (len(d1s) - 1 - i) * cell_px for i, d1 in enumerate(d1s)}

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" style="background:#ffffff">',
        f'<title>{result.experiment}: {result.metric}</title>',
        f'<text x="{left}" y="{top - 14}" font-family="monospace" font-size="12">'
        f"{result.experiment} {result.metric} (seed {result.seed})</text>",
    ]
    for c in result.cells:
        x = xpos[c.n]
        y = ypos[c.d1]
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" '
            f'fill="{_shade(c.value)}"><title>n={c.n} d1={c.d1} d0={c.d0} '
            f"value={_fmt(c.value)}</title></rect>"
        )
    for n in ns:
        parts.append(
            f'<text x="{xpos[n] + cell_px / 2:.1f}" y="{top + cell_px * len(d1s) + 16}" '
            f'font-family="monospace" font-size="11" text-anchor="middle">{n}</text>'
        )
    for d1 in d1s:
        parts.append(
            f'<text x="{left - 6}" y="{ypos[d1] + cell_px / 2 + 4:.1f}" '
            f'font-family="monospace" font-size="11" text-anchor="end">{d1}</text>'
        )
    parts.append(
        f'<text x="{left + cell_px * len(ns) / 2:.1f}" y="{height - 12}" '
        f'font-family="monospace" font-size="12" text-anchor="middle">n</text>'
    )
    parts.append(
        f'<text x="14" y="{top + cell_px * len(d1s) / 2:.1f}" font-family="monospace" '
        f'font-size="12" text-anchor="middle" transform="rotate(-90 14 '
        f'{top + cell_px * len(d1s) / 2:.1f})">d1</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_outputs(result: GridResult, csv_path=None, svg_path=None) -> None:
    """Write the CSV and/or SVG artifacts; I/O errors carry the path."""
    for path, text in ((csv_path, grid_csv_text), (svg_path, grid_svg_text)):
        if path is not None:
            _write_text(path, text(result))


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` with LF endings; I/O errors raise InputError carrying the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")
