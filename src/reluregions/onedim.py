"""Complete activation-region theory for one-dimensional data with bias.

On strictly sorted distinct inputs, a biased unit is active on a contiguous
prefix or suffix of the data, so realizable per-unit patterns are exactly
the 2n one-switch "step" vectors.  A pattern matrix covering every switch
threshold (plus the all-ones row) spans all suffix indicators and is
therefore full rank; covering every suffix on both output-weight signs
("complete") additionally guarantees the region contains parameters fitting
any target exactly.  ``fit_exact_1d`` performs that construction: slack
units realize their rows canonically, and per threshold a hinge recursion
interpolates the residual, each hinge being split across a positive/negative
key pair so the pattern constraints stay strict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvariantViolation
from .linalg import DEFAULT_TOL, Tol, as_vector
from .model import ActivationPattern, Params, activation_pattern, forward, on_boundary

__all__ = [
    "StepVector",
    "Sorted1D",
    "WidthThresholds",
    "step_vector",
    "classify_step_row",
    "classify_step_rows",
    "all_step_vectors",
    "sample_step_matrix",
    "random_complete_step_matrix",
    "is_diverse",
    "is_complete",
    "witness_params_1d",
    "fit_exact_1d",
    "coupon_collector_bound",
    "width_thresholds",
]


@dataclass(frozen=True)
class StepVector:
    """One-switch binary vector: variant 0 is ones before index k, variant 1
    is ones from index k on (1-based thresholds).

    The constant vectors have two (k, variant) encodings each; the canonical
    representative used throughout is (1, 0) for the zero vector and (1, 1)
    for the all-ones vector, leaving exactly 2n distinct step vectors.
    """

    k: int
    variant: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("step vectors need n >= 1")
        if self.variant not in (0, 1):
            raise InputError("variant must be 0 or 1")
        if not (1 <= self.k <= self.n + 1):
            raise InputError(f"threshold index {self.k} out of range [1, {self.n + 1}]")

    def values(self) -> np.ndarray:
        i = np.arange(1, self.n + 1)
        if self.variant == 0:
            return (i < self.k).astype(np.int8)
        return (i >= self.k).astype(np.int8)

    def canonical(self) -> "StepVector":
        if self.variant == 1 and self.k == self.n + 1:
            return StepVector(1, 0, self.n)
        if self.variant == 0 and self.k == self.n + 1:
            return StepVector(1, 1, self.n)
        return self


def step_vector(k: int, variant: int, n: int) -> np.ndarray:
    """The binary step vector for threshold ``k`` (in [1, n+1]) and variant."""
    return StepVector(k, variant, n).values()


def classify_step_row(row) -> StepVector | None:
    """Canonical (k, variant) of a binary row, or None if not a step vector."""
    r = np.asarray(row).astype(int)
    n = r.shape[0]
    if not np.all((r == 0) | (r == 1)):
        raise InputError("row entries must be 0 or 1")
    first = int(r[0])
    changes = np.nonzero(r[1:] != r[:-1])[0]
    if changes.size == 0:
        return StepVector(1, first, n)
    if changes.size > 1:
        return None
    k = int(changes[0]) + 2  # 1-based index of the first entry after the switch
    return StepVector(k, 1 - first, n)


def classify_step_rows(A) -> list:
    """Per-row classification of a pattern matrix (None marks non-step rows)."""
    M = A.A if isinstance(A, ActivationPattern) else np.asarray(A)
    return [classify_step_row(row) for row in M]


def all_step_vectors(n: int) -> list:
    """The 2n canonical step vectors: n prefix-style and n suffix-style."""
    return [StepVector(k, v, n) for v in (0, 1) for k in range(1, n + 1)]


def sample_step_matrix(n: int, d1: int, rng: np.random.Generator) -> np.ndarray:
    """Pattern matrix with rows drawn iid uniformly from the 2n step vectors."""
    pool = np.stack([sv.values() for sv in all_step_vectors(n)])
    return pool[rng.integers(0, 2 * n, size=d1)]


def random_complete_step_matrix(n: int, v, rng: np.random.Generator) -> np.ndarray:
    """Random step matrix that is complete for the given output weights.

    Places each suffix vector once per output sign at random rows and fills
    the remainder with iid uniform step rows.  Requires at least n positive
    and n negative entries in v.
    """
    v = as_vector(v, name="v")
    d1 = v.shape[0]
    A = sample_step_matrix(n, d1, rng)
    for sign in (1, -1):
        idx = np.nonzero(np.sign(v) == sign)[0]
        if idx.shape[0] < n:
            raise InputError(f"need at least {n} output weights of sign {sign}")
        chosen = rng.choice(idx, size=n, replace=False)
        for k, i in enumerate(chosen, start=1):
            A[i] = StepVector(k, 1, n).values()
    return A


@dataclass(frozen=True)
class Sorted1D:
    """Strictly increasing 1-d inputs with targets and the sorting permutation.

    ``perm`` maps sorted positions to original positions: x == x_orig[perm].
    """

    x: np.ndarray
    y: np.ndarray
    perm: np.ndarray

    def __post_init__(self) -> None:
        x = as_vector(self.x, name="x")
        y = as_vector(self.y, name="y")
        if x.shape != y.shape:
            raise InputError("x and y must have equal length")
        if x.shape[0] < 1:
            raise InputError("need at least one data point")
        if np.any(np.diff(x) <= 0.0):
            raise InputError("x must be strictly increasing (distinct points)")
        perm = np.asarray(self.perm, dtype=int)
        if perm.shape != x.shape or sorted(perm.tolist()) != list(range(x.shape[0])):
            raise InputError("perm must be a permutation of the data indices")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "perm", perm)

    @classmethod
    def from_values(cls, x, y) -> "Sorted1D":
        x = as_vector(x, name="x")
        y = as_vector(y, name="y")
        perm = np.argsort(x, kind="stable")
        return cls(x[perm], y[perm], perm)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def as_columns(self) -> np.ndarray:
        return self.x[None, :]


def is_diverse(A) -> bool:
    """Step-row matrix covering every threshold and containing the ones row.

    A diverse matrix has rank n: its row span contains every suffix vector
    (complementing prefix rows against the ones row) and the suffix vectors
    form a basis.  Non-step rows make the matrix non-diverse by definition.
    """
    kinds = classify_step_rows(A)
    if any(sv is None for sv in kinds):
        return False
    n = kinds[0].n if kinds else 0
    covered = set()
    has_ones = False
    for sv in kinds:
        covered.add(sv.k)
        if sv.k == 1 and sv.variant == 1:
            has_ones = True
    return has_ones and covered.issuperset(range(1, n + 1))


def is_complete(A, v) -> bool:
    """Whether every suffix vector appears on both output-weight signs.

    For each threshold k in [1, n] and each sign, some row must equal the
    suffix vector with threshold k while its output weight carries that
    sign.  Matrices with non-step rows are not considered complete.
    """
    v = as_vector(v, name="v")
    if np.any(v == 0.0):
        raise InputError("all entries of v must be nonzero")
    kinds = classify_step_rows(A)
    if len(kinds) != v.shape[0]:
        raise InputError("v length must match the number of pattern rows")
    if any(sv is None for sv in kinds):
        return False
    n = kinds[0].n if kinds else 0
    seen = {(+1): set(), (-1): set()}
    for sv, vi in zip(kinds, v):
        if sv.variant == 1:
            seen[1 if vi > 0 else -1].add(sv.k)
    need = set(range(1, n + 1))
    return seen[+1].issuperset(need) and seen[-1].issuperset(need)


def _witness_row(sv: StepVector, x: np.ndarray) -> tuple[float, float]:
    """Strict (w, b) witness for one canonical step row on sorted data.

    Constant rows push every preactivation past +-(|x|+1); a switching row
    at threshold k puts its zero crossing at the midpoint of the straddling
    data points.  The slope is +1 for suffix rows and -1 for prefix rows
    (the active side must sit where the row has ones).
    """
    n = x.shape[0]
    if sv.k == 1:
        if sv.variant == 0:
            return 1.0, -2.0 * abs(float(x[-1])) - 1.0
        return 1.0, 2.0 * abs(float(x[0])) + 1.0
    mid = 0.5 * (float(x[sv.k - 2]) + float(x[sv.k - 1]))
    alpha = 1 - sv.variant  # value of the row before the switch
    w = 1.0 - 2.0 * alpha
    return w, -w * mid


def witness_params_1d(A, D: Sorted1D, v=None, tol: Tol = DEFAULT_TOL) -> Params:
    """Parameters strictly realizing a step-row pattern on sorted 1-d data.

    Raises on non-step rows.  The returned pattern is validated to match
    exactly and non-degenerately; the deterministic per-row choice makes
    downstream runs reproducible.
    """
    M = A.A if isinstance(A, ActivationPattern) else np.asarray(A)
    d1, n = M.shape
    if n != D.n:
        raise InputError(f"pattern has {n} columns but data has {D.n} points")
    if v is None:
        v = np.ones(d1)
    w = np.empty(d1)
    b = np.empty(d1)
    for i, row in enumerate(M):
        sv = classify_step_row(row)
        if sv is None:
            raise InputError(f"row {i} is not a step vector: {tuple(int(t) for t in row)}")
        w[i], b[i] = _witness_row(sv, D.x)
    params = Params(w[:, None], b, v)
    realized, degenerate = activation_pattern(params, D.as_columns(), tol)
    if degenerate or not np.array_equal(realized.A, M.astype(np.int8)):
        raise InvariantViolation("witness construction failed its sign check")
    return params


def _hinge_eval(hinges, x: float) -> float:
    return sum(s * max(w * x + b, 0.0) for s, w, b in hinges if s != 0)


def fit_exact_1d(A, D: Sorted1D, v, tol: Tol = DEFAULT_TOL) -> Params:
    """Zero-loss parameters inside the region of a complete pattern.

    Construction: rows not selected as key rows ("slack") realize their
    pattern canonically; the target residual left over after the slack
    contribution is interpolated by a hinge recursion over the sorted
    points, one hinge per threshold, and each hinge is distributed over its
    positive/negative key pair with weights chosen so the pair sums to the
    hinge while every preactivation keeps the sign its pattern demands.
    A vanishing residual step would produce a zero hinge (and a boundary
    parameter), so that pair falls back to a shared unit-size hinge whose
    contributions cancel exactly.  Raises ``InputError`` when two neighbours
    are too close for any unit switching between them to be non-degenerate.
    """
    M = A.A if isinstance(A, ActivationPattern) else np.asarray(A)
    v = as_vector(v, name="v")
    d1, n = M.shape
    if n != D.n:
        raise InputError(f"pattern has {n} columns but data has {D.n} points")
    if v.shape[0] != d1:
        raise InputError("v length must match the number of pattern rows")
    kinds = classify_step_rows(M)
    for i, sv in enumerate(kinds):
        if sv is None:
            raise InputError(f"row {i} is not a step vector")
    if not is_complete(M, v):
        raise InputError("pattern is not complete for the given output weights")

    x = D.x
    y = D.y
    # Every switching row of the construction crosses zero at the midpoint of
    # two neighbours; one stacked unit per midpoint flags the pairs so close
    # that such a unit is degenerate, which admit no strict fit.
    if n > 1:
        units = np.ones((n - 1, 1, 1))
        offsets = -0.5 * (x[:-1] + x[1:])[:, None]
        X = D.as_columns()
        too_close = np.flatnonzero(on_boundary(units, offsets, X, units @ X + offsets[..., None], tol))
        if too_close.size:
            j = too_close[0]
            raise InputError(f"points {float(x[j])!r} and {float(x[j + 1])!r} are too close to separate strictly")

    # Key rows: one suffix row per (threshold, output sign).
    key: dict[tuple[int, int], int] = {}
    for i, sv in enumerate(kinds):
        if sv.variant != 1:
            continue
        sign = 1 if v[i] > 0 else -1
        if (sv.k, sign) not in key:
            key[(sv.k, sign)] = i
    key_rows = set(key.values())

    w = np.zeros(d1)
    b = np.zeros(d1)
    slack_output = np.zeros(n)
    for i in range(d1):
        if i in key_rows:
            continue
        w[i], b[i] = _witness_row(kinds[i], x)
        slack_output += v[i] * np.maximum(w[i] * x + b[i], 0.0)
    z = y - slack_output

    # Hinge recursion: hinges[l] = (sign, w, b); sign 0 marks a canceling pair.
    hinges: list[tuple[int, float, float]] = []
    for ell in range(n):
        if ell == 0:
            delta = float(z[0])
            if delta != 0.0:
                sgn = 1 if delta >= 0.0 else -1
                # Crossing at x0 - 1, as in the delta = 0 case: a unit slope
                # would cross at x0 - |delta|, degenerate at x0 for tiny delta.
                hinges.append((sgn, abs(delta), abs(delta) * (1.0 - float(x[0]))))
            else:
                hinges.append((0, 1.0, 1.0 - float(x[0])))
            continue
        xr = float(x[ell])
        xl = float(x[ell - 1])
        gap = xr - xl
        delta = float(z[ell]) - _hinge_eval(hinges, xr)
        if delta != 0.0:
            sgn = 1 if delta >= 0.0 else -1
            hinges.append((sgn, 2.0 * abs(delta) / gap, -abs(delta) * (xr + xl) / gap))
        else:
            hinges.append((0, 2.0 / gap, -(xr + xl) / gap))

    # Distribute hinge k-1 over the key pair for threshold k.
    for k in range(1, n + 1):
        sgn, hw, hb = hinges[k - 1]
        for sign in (1, -1):
            i = key[(k, sign)]
            scale = 1.0 / abs(v[i]) if sgn == 0 else (3.0 + sgn * sign) / (2.0 * abs(v[i]))
            w[i] = scale * hw
            b[i] = scale * hb

    params = Params(w[:, None], b, v)
    realized, degenerate = activation_pattern(params, D.as_columns(), tol)
    if degenerate or not np.array_equal(realized.A, M.astype(np.int8)):
        raise InvariantViolation("exact fit left the prescribed activation region")
    residual = forward(params, D.as_columns()) - y
    fit_loss = 0.5 * float(residual @ residual)
    if fit_loss > tol.residual_tol * (1.0 + float(np.linalg.norm(y))):
        raise InvariantViolation(f"exact fit missed its target: loss {fit_loss:.3e}")
    return params


def coupon_collector_bound(delta: float, n: int, eps: float) -> int:
    """Draw count guaranteeing coverage of n classes of probability >= delta
    each, with failure probability at most eps."""
    if not (0.0 < delta <= 1.0):
        raise InputError("delta must lie in (0, 1]")
    if not (0.0 < eps < 1.0):
        raise InputError("eps must lie in (0, 1)")
    if n < 1:
        raise InputError("n must be at least 1")
    return math.ceil(math.log(n / eps) / delta)


@dataclass(frozen=True)
class WidthThresholds:
    no_bad_minima: int
    per_sign_global: int


def width_thresholds(n: int, eps: float) -> WidthThresholds:
    """Hidden-layer widths from the coupon-collector argument.

    ``no_bad_minima``: width beyond which all but an eps fraction of
    realizable regions have a full-rank Jacobian.  ``per_sign_global``: the
    per-sign output-weight count beyond which all but an eps fraction of
    realizable regions contain a codimension-n set of zero-loss minima.
    """
    if n < 1:
        raise InputError("n must be at least 1")
    if not (0.0 < eps < 1.0):
        raise InputError("eps must lie in (0, 1)")
    return WidthThresholds(
        no_bad_minima=math.ceil(2 * n * math.log(n / eps)),
        per_sign_global=math.ceil(2 * n * math.log(2 * n / eps)),
    )
