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
key pair so the pattern constraints stay strict.  Every function here reads
a pattern through one array pass, ``_step_codes``, which checks it
(``linalg.as_binary`` and a 2-d shape with a column) and gives each row its
canonical (threshold, variant) code or marks it as not a step vector; ``_step_codes_on`` adds the checks of a step pattern on sorted
data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvariantViolation
from .linalg import DEFAULT_TOL, Tol, _norm, as_binary, as_int, as_vector
from .model import ActivationPattern, Params, _witness_fault, checked_head, on_boundary

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
        n = as_int(self.n, "n", 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "variant", as_int(self.variant, "variant", 0, 1))
        object.__setattr__(self, "k", as_int(self.k, "k", 1, n + 1))

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


def _step_codes(A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 0/1 pattern matrix and the canonical (k, variant) of every row.

    One array pass: a row with no switch is constant, (1, its value); a row
    with one switch has k one past its leading run and the variant of the
    value after the switch; k = 0 marks a row that switches more than once.
    """
    M = as_binary(A.A if isinstance(A, ActivationPattern) else A, name="pattern")
    if M.ndim != 2 or M.shape[1] == 0:
        raise InputError(f"a pattern must be a 2-d matrix with at least one column, got shape {M.shape}")
    first = M[:, 0]
    switches = (M[:, 1:] != M[:, :-1]).sum(axis=1)
    lead = (M == first[:, None]).sum(axis=1)
    k = np.where(switches == 0, 1, np.where(switches == 1, lead + 1, 0))
    variant = np.where(switches == 0, first, 1 - first)
    return M, k, variant


def classify_step_rows(A) -> list:
    """Per-row classification of a pattern matrix (None marks non-step rows)."""
    M, k, variant = _step_codes(A)
    n = M.shape[1]
    return [StepVector(ki, vi, n) if ki else None for ki, vi in zip(k.tolist(), variant.tolist())]


def classify_step_row(row) -> StepVector | None:
    """Canonical (k, variant) of a binary row, or None if not a step vector."""
    return classify_step_rows(np.asarray(row)[None])[0]


def all_step_vectors(n: int) -> list:
    """The 2n canonical step vectors: n prefix-style and n suffix-style."""
    return [StepVector(k, v, n) for v in (0, 1) for k in range(1, n + 1)]


def _step_pool(n: int) -> np.ndarray:
    """The rows of ``all_step_vectors(n)`` stacked: prefixes, then suffixes."""
    i = np.arange(1, n + 1)
    k = i[:, None]
    return np.concatenate([i < k, i >= k]).astype(np.int8)


def sample_step_matrix(n: int, d1: int, rng: np.random.Generator) -> np.ndarray:
    """Pattern matrix with rows drawn iid uniformly from the 2n step vectors."""
    n, d1 = as_int(n, "n", 1), as_int(d1, "d1", 0)
    return _step_pool(n)[rng.integers(0, 2 * n, size=d1)]


def random_complete_step_matrix(n: int, v, rng: np.random.Generator) -> np.ndarray:
    """Random step matrix that is complete for the given output weights.

    Places each suffix vector once per output sign at random rows and fills
    the remainder with iid uniform step rows.  Requires at least n positive
    and n negative entries in v.
    """
    v = as_vector(v, name="v")
    A = sample_step_matrix(n, v.shape[0], rng)
    for sign in (1, -1):
        idx = np.nonzero(np.sign(v) == sign)[0]
        if idx.shape[0] < n:
            raise InputError(f"need at least {n} output weights of sign {sign}")
        A[rng.choice(idx, size=n, replace=False)] = _step_pool(n)[n:]
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
        perm = np.asarray(self.perm)
        entries = [as_int(i, "each entry of perm", 0, x.shape[0] - 1) for i in perm.ravel().tolist()]
        if perm.shape != x.shape or len(set(entries)) != x.shape[0]:
            raise InputError("perm must be a permutation of the data indices")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "perm", np.array(entries, dtype=int))

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
    M, k, variant = _step_codes(A)
    covered = np.zeros(M.shape[1] + 1, dtype=bool)
    covered[k] = True
    return bool(k.all() and covered[1:].all() and np.any((k == 1) & (variant == 1)))


def _complete(k: np.ndarray, variant: np.ndarray, v: np.ndarray, n: int) -> bool:
    seen = np.zeros((2, n + 1), dtype=bool)
    suffix = variant == 1
    seen[(v[suffix] > 0).astype(int), k[suffix]] = True
    return bool(k.all() and seen[:, 1:].all())


def is_complete(A, v) -> bool:
    """Whether every suffix vector appears on both output-weight signs.

    For each threshold k in [1, n] and each sign, some row must equal the
    suffix vector with threshold k while its output weight carries that
    sign.  Matrices with non-step rows are not considered complete.
    """
    M, k, variant = _step_codes(A)
    return _complete(k, variant, checked_head(v, M.shape[0]), M.shape[1])


def _witness_rows(k: np.ndarray, variant: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strict (w, b) witnesses for canonical step rows on sorted data.

    Constant rows push every preactivation past +-(|x|+1); a switching row
    at threshold k puts its zero crossing at the midpoint of the straddling
    data points.  The slope is +1 for suffix rows and -1 for prefix rows
    (the active side must sit where the row has ones).
    """
    constant = k == 1
    w = np.where(constant, 1.0, 2.0 * variant - 1.0)
    mid = 0.5 * (x[k - 2] + x[k - 1])
    b = np.where(variant == 1, 2.0 * abs(x[0]) + 1.0, -2.0 * abs(x[-1]) - 1.0)
    return w, np.where(constant, b, -w * mid)


def _step_codes_on(A, D: Sorted1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_step_codes`` of a pattern on sorted data: one column per point of ``D``, step rows only."""
    if not isinstance(D, Sorted1D):
        raise InputError(f"data must be a Sorted1D, got {type(D).__name__}")
    M, k, variant = _step_codes(A)
    if M.shape[1] != D.n:
        raise InputError(f"pattern has {M.shape[1]} columns but data has {D.n} points")
    bad = np.flatnonzero(k == 0)
    if bad.size:
        raise InputError(f"row {bad[0]} is not a step vector: {tuple(M[bad[0]].tolist())}")
    return M, k, variant


def witness_params_1d(A, D: Sorted1D, v=None, tol: Tol = DEFAULT_TOL) -> Params:
    """Parameters strictly realizing a step-row pattern on sorted 1-d data.

    Raises on non-step rows.  The returned pattern is validated to match
    exactly and non-degenerately; the deterministic per-row choice makes
    downstream runs reproducible.
    """
    M, k, variant = _step_codes_on(A, D)
    w, b = _witness_rows(k, variant, D.x)
    params = Params(w[:, None], b, np.ones(M.shape[0]) if v is None else v)
    if _witness_fault(params, M, D.as_columns(), None, tol):
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
    are too close for any unit switching between them to be non-degenerate,
    or when a fit that misses its target has terms so large that the
    residual check's own rounding bound exceeds ``residual_tol``.
    """
    M, k, variant = _step_codes_on(A, D)
    d1, n = M.shape
    v = checked_head(v, d1)
    if not _complete(k, variant, v, n):
        raise InputError("pattern is not complete for the given output weights")

    x = D.x
    y = D.y
    # Every switching row of the construction crosses zero at the midpoint of
    # two neighbours; one stacked unit per midpoint flags the pairs so close
    # that such a unit is degenerate, which admit no strict fit.
    units = np.ones((n - 1, 1, 1))
    offsets = -0.5 * (x[:-1] + x[1:])[:, None]
    X = D.as_columns()
    too_close = np.flatnonzero(on_boundary(units, offsets, X, units @ X + offsets[..., None], tol))
    if too_close.size:
        j = too_close[0]
        raise InputError(f"points {float(x[j])!r} and {float(x[j + 1])!r} are too close to separate strictly")

    # Key rows: the first suffix row per (threshold, output sign), so that
    # key[t, 1] is the positive and key[t, 0] the negative row of threshold t.
    suffix = np.flatnonzero(variant == 1)
    codes, first = np.unique(2 * k[suffix] + (v[suffix] > 0), return_index=True)
    key = np.zeros((n + 1, 2), dtype=int)
    key.flat[codes] = suffix[first]
    slack = np.setdiff1d(np.arange(d1), key[1:])

    w = np.zeros(d1)
    b = np.zeros(d1)
    w[slack], b[slack] = _witness_rows(k[slack], variant[slack], x)
    slack_output = np.zeros(n)
    for i in slack:
        slack_output += v[i] * np.maximum(w[i] * x + b[i], 0.0)
    z = y - slack_output

    # Hinge recursion: hinges[l] = (sign, w, b); sign 0 marks a canceling pair
    # of unit size.  The first hinge crosses zero at x0 - 1: a unit slope
    # would cross at x0 - |delta|, degenerate at x0 for tiny delta.
    hinges: list[tuple[int, float, float]] = []
    for ell in range(n):
        xr = float(x[ell])
        delta = float(z[ell]) - _hinge_eval(hinges, xr)
        sgn = int(np.sign(delta))
        size = abs(delta) if sgn else 1.0
        if ell == 0:
            hinges.append((sgn, size, size * (1.0 - xr)))
        else:
            xl = float(x[ell - 1])
            gap = xr - xl
            hinges.append((sgn, 2.0 * size / gap, -size * (xr + xl) / gap))

    # Distribute hinge t-1 over the key pair of threshold t.
    sgn, hw, hb = np.array(hinges).T
    for sign in (1, -1):
        i = key[1:, int(sign > 0)]
        scale = np.where(sgn == 0, 1.0 / abs(v[i]), (3.0 + sgn * sign) / (2.0 * abs(v[i])))
        w[i] = scale * hw
        b[i] = scale * hb

    params = Params(w[:, None], b, v)
    fault = _witness_fault(params, M, X, y, tol)
    if fault:
        # Hinges between neighbours a gap apart are as steep as 1/gap and stay
        # active to the right, so on close points the terms of the output can
        # grow until the check's own rounding exceeds residual_tol: the output
        # takes d1 + 3 rounded operations per term, an error of at most
        # (d1 + 3) u (sum_i |v_i| (|w_i x| + |b_i|) + |y|) over the active rows,
        # with u the unit roundoff.
        wx = np.outer(w, x)
        terms = np.abs(v) @ ((wx + b[:, None] > 0.0) * (np.abs(wx) + np.abs(b)[:, None]))
        if tol.misses((d1 + 3) * 0.5 * np.finfo(float).eps * _norm(terms + np.abs(y)), y):
            j = int(np.argmin(np.diff(x)))
            raise InputError(f"points {float(x[j])!r} and {float(x[j + 1])!r} are too close to fit exactly in floating point")
        raise InvariantViolation(f"exact fit {fault}")
    return params


def coupon_collector_bound(delta: float, n: int, eps: float) -> int:
    """Draw count guaranteeing coverage of n classes of probability >= delta
    each, with failure probability at most eps."""
    if not (0.0 < delta <= 1.0):
        raise InputError("delta must lie in (0, 1]")
    if not (0.0 < eps < 1.0):
        raise InputError("eps must lie in (0, 1)")
    n = as_int(n, "n", 1)
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
    n = as_int(n, "n", 1)
    if not (0.0 < eps < 1.0):
        raise InputError("eps must lie in (0, 1)")
    return WidthThresholds(
        no_bad_minima=math.ceil(2 * n * math.log(n / eps)),
        per_sign_global=math.ceil(2 * n * math.log(2 * n / eps)),
    )
