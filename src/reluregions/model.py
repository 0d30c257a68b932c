"""Two-layer ReLU network with a frozen output head.

The network computes F(x) = v . relu(W x + b) with trainable first layer
(W, optionally b) and a fixed output vector v whose entries are all nonzero.
For a fixed dataset, parameter space splits into open polyhedral cones on
which every unit's active/inactive status is constant; each cone is recorded
as a binary pattern matrix with one row per unit and one column per data
point.  On such a cone the network output is linear in the parameters and
its Jacobian is the columnwise Kronecker product of the (v-scaled) pattern
columns with the (bias-embedded) input columns (``optimize.design_matrix``).

Each input contract is checked in one place:

- ``linalg.as_int``: an integer size or index, within its bounds.
- ``linalg.as_binary``: the entries of a pattern, equal rows of 0s and 1s;
  ``ActivationPattern``, ``regions.UnitPattern``, ``onedim._step_codes``
  and ``exact.binary_matrix_is_singular`` add only their shape rules.
- ``linalg.as_matrix`` and ``linalg.as_vector``: a finite float matrix or
  vector.
- ``checked_head``: the head, finite, one entry per unit, no zero entry.
- ``PatternOnData.lift``: a pattern on data.  The pattern has the expected
  type, ``X`` is a finite matrix with one column per pattern column, and
  its columns are lifted to (x, 1) when the pattern carries a bias flag.
  ``ActivationPattern`` and ``regions.UnitPattern`` share it.
- ``onedim._step_codes_on``: a step pattern on sorted 1-d data.

``_witness_fault`` is the one check of a witness, for the zero-loss report
and the exact 1-d constructions alike: the pattern is realized with no
entry ``on_boundary``, and ``Tol.misses`` accepts the residual.

``activation_pattern`` and ``jacobian_full_rank`` validate one draw;
``stacked_patterns`` and ``stacked_jacobian_full_rank`` give the same
answers (``on_boundary``; rank n under ``linalg._rank``) on arrays with
leading axes of trusted draws, as the blocks of both Monte Carlo grids are.
``stacked_jacobian_full_rank`` builds no Jacobian for most draws: the n x n
Gram matrix J^T J = (A^T A) o (X^T X) is two small batched products, and its
``eigvalsh`` spectrum proves full rank under a stated rounding bound
(``_gram_ratio_floor``).  A zero pattern column or too few rows prove the
opposite, and the draws left undecided get the SVD of their Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .linalg import (
    DEFAULT_TOL,
    Tol,
    _norm,
    _norms,
    as_binary,
    as_matrix,
    as_vector,
    embed_ones,
    khatri_rao,
    mat_rank,
    stacked_khatri_rao,
    stacked_ranks,
)

__all__ = [
    "Dataset",
    "Params",
    "PatternOnData",
    "ActivationPattern",
    "checked_head",
    "forward",
    "loss",
    "on_boundary",
    "stacked_patterns",
    "activation_pattern",
    "jacobian_full_rank",
    "stacked_jacobian_full_rank",
]


@dataclass(frozen=True)
class Dataset:
    """Input columns X (d0 x n) with targets y (length n)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        X = as_matrix(self.X, name="X")
        y = as_vector(self.y, name="y")
        if X.shape[1] != y.shape[0]:
            raise InputError(f"X has {X.shape[1]} columns but y has length {y.shape[0]}")
        if X.shape[1] < 1:
            raise InputError("dataset must contain at least one point")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)


def checked_head(v, d1: int) -> np.ndarray:
    """The output head ``v`` of ``d1`` units as a float vector: finite, one entry per unit, none zero.

    A zero output weight would silently delete a unit and break the rank
    arguments downstream.
    """
    v = as_vector(v, name="v")
    if v.shape[0] != d1:
        raise InputError(f"v has length {v.shape[0]} but there are {d1} units")
    if (v == 0.0).any():
        raise InputError("all entries of v must be nonzero")
    return v


@dataclass(frozen=True)
class Params:
    """First-layer weights W (d1 x d0), optional biases b, fixed head v.

    The head must pass ``checked_head`` against the rows of W.
    """

    W: np.ndarray
    b: np.ndarray | None
    v: np.ndarray

    def __post_init__(self) -> None:
        W = as_matrix(self.W, name="W")
        v = checked_head(self.v, W.shape[0])
        b = self.b
        if b is not None:
            b = as_vector(b, name="b")
            if b.shape[0] != W.shape[0]:
                raise InputError(f"b has length {b.shape[0]} but W has {W.shape[0]} rows")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "v", v)

    @property
    def d1(self) -> int:
        return self.W.shape[0]

    @property
    def d0(self) -> int:
        return self.W.shape[1]


class PatternOnData:
    """A pattern over the points of a dataset: ``n`` columns and a ``bias_flag``."""

    __slots__ = ()

    @classmethod
    def lift(cls, pattern, X) -> np.ndarray:
        """The inputs ``X`` of ``pattern``, with each column x lifted to (x, 1) under a bias flag.

        ``pattern`` must be an instance of ``cls`` and ``X`` a finite matrix
        with one column per pattern column; anything else raises InputError.
        """
        if not isinstance(pattern, cls):
            raise InputError(f"pattern must be of type {cls.__name__}, got {type(pattern).__name__}")
        X = as_matrix(X, name="X")
        if X.shape[1] != pattern.n:
            raise InputError(f"X has {X.shape[1]} columns but the pattern has {pattern.n}")
        return embed_ones(X) if pattern.bias_flag else X


@dataclass(frozen=True)
class ActivationPattern(PatternOnData):
    """Binary unit-by-point activation matrix.

    ``bias_flag`` records whether the pattern refers to sign(w x + b) or to
    sign(<w, x>); it decides whether ``lift`` bias-embeds the inputs.
    """

    A: np.ndarray
    bias_flag: bool = field(default=True)

    def __post_init__(self) -> None:
        A = as_binary(self.A, name="pattern")
        if A.ndim != 2:
            raise InputError("pattern matrix must be 2-dimensional")
        object.__setattr__(self, "A", A)

    @property
    def d1(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def _checked_inputs(p: Params, X) -> np.ndarray:
    X = as_matrix(X, name="X")
    if X.shape[0] != p.d0:
        raise InputError(f"X has {X.shape[0]} rows but W expects {p.d0}")
    return X


def _preactivations(W: np.ndarray, b: np.ndarray | None, X: np.ndarray) -> np.ndarray:
    pre = W @ X
    if b is not None:
        pre = pre + b[..., None]
    return pre


def forward(p: Params, X) -> np.ndarray:
    """Network outputs on every column of X."""
    X = _checked_inputs(p, X)
    return p.v @ np.maximum(_preactivations(p.W, p.b, X), 0.0)


def loss(p: Params, data: Dataset) -> float:
    """Squared-error loss, half the squared residual norm."""
    r = forward(p, data.X) - data.y
    return 0.5 * float(r @ r)


def on_boundary(W: np.ndarray, b: np.ndarray | None, X: np.ndarray, pre: np.ndarray, tol: Tol) -> np.ndarray:
    """Whether any preactivation ``pre`` of ``W X (+ b)`` lies on a region boundary.

    A preactivation counts as zero when it is within ``lp_tol`` of zero
    relative to the norms of its (bias-embedded) weight row and input
    column.  Leading axes stack independent draws; the result keeps them.
    """
    row_norm = _norms(W, -1, b)
    col_norm = _norms(X, -2, None if b is None else 1.0)
    scale = row_norm[..., :, None] * col_norm[..., None, :]
    return (np.abs(pre) <= tol.lp_tol * scale).any(axis=(-2, -1))


def stacked_patterns(W: np.ndarray, b: np.ndarray | None, X: np.ndarray, tol: Tol) -> tuple[np.ndarray, np.ndarray]:
    """Int8 activation patterns and boundary flags of stacked draws.

    ``W`` is (..., d1, d0), ``b`` (..., d1) or None, ``X`` (..., d0, n); the
    inputs are trusted (no validation).  Returns patterns (..., d1, n) and
    ``on_boundary`` flags (...).
    """
    pre = _preactivations(W, b, X)
    return (pre > 0.0).astype(np.int8), on_boundary(W, b, X, pre, tol)


def _witness_fault(p: Params, A: np.ndarray, X: np.ndarray, y: np.ndarray | None, tol: Tol) -> str | None:
    """Why ``p`` is not a witness of pattern ``A`` on trusted inputs ``X``, or None when it is.

    A witness realizes the 0/1 matrix ``A`` with no entry flagged by
    ``on_boundary`` and, given targets ``y``, has a residual norm that
    ``Tol.misses`` accepts.  One preactivation pass answers both, with the
    floats of ``activation_pattern`` and ``forward``.
    """
    pre = _preactivations(p.W, p.b, X)
    if on_boundary(p.W, p.b, X, pre, tol) or not ((pre > 0.0) == A).all():
        return "left the prescribed activation region"
    if y is not None:
        residual = _norm(p.v @ np.maximum(pre, 0.0) - y)
        if tol.misses(residual, y):
            return f"missed its target: residual norm {residual:.3e}"
    return None


def activation_pattern(p: Params, X, tol: Tol = DEFAULT_TOL) -> tuple[ActivationPattern, bool]:
    """Activation pattern of ``p`` on ``X`` plus a boundary flag.

    The degenerate flag is set when any preactivation is within
    ``lp_tol`` (relative to its row/column scale) of zero: the parameter
    then sits on a region boundary and the pattern bit is meaningless.
    Monte Carlo drivers must resample such draws; regions are open sets and
    their boundaries carry no probability mass.
    """
    X = _checked_inputs(p, X)
    A, degenerate = stacked_patterns(p.W, p.b, X, tol)
    return ActivationPattern(A, bias_flag=p.b is not None), bool(degenerate)


def jacobian_full_rank(A: ActivationPattern, X, tol: Tol = DEFAULT_TOL) -> bool:
    """Whether the per-region Jacobian has rank n.

    The head v never changes this rank (scaling rows of the pattern by
    nonzero constants preserves the kernel of the Khatri-Rao product), so
    the test runs on the raw pattern.  A full-rank region contains no bad
    differentiable critical point: any critical point there is a global
    minimum of the squared loss.
    """
    Xh = ActivationPattern.lift(A, X)
    return mat_rank(khatri_rao(A.A.astype(float), Xh), tol) == A.n


# Unit roundoff of float64.
_U = np.finfo(float).eps / 2
# Below this largest Gram eigenvalue, products that underflow (each off by at
# most 2^-1075) are no longer small against the forming allowance.
_GRAM_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


def _svd_slack(rows: int) -> float:
    """Allowed error of each singular value of J, relative to the largest: rows^2 u.

    LAPACK's SVD and ``eigvalsh`` are backward stable: each computed singular
    value (eigenvalue) lies within p(N) u times the largest of the exact one,
    with p a modestly growing function of the size N (LAPACK Users' Guide,
    sections 4.7 and 4.9).  We allow p(N) = N^2, for J with N = rows >= n.
    """
    return rows * rows * _U


def _gram_ratio_floor(rows: int, n: int, terms: int, tol: Tol) -> float:
    """Smallest computed lambda_min / lambda_max of G = J^T J that proves the SVD rule counts rank n.

    ``J`` has ``rows`` rows and ``n`` columns, and each entry of X^T X (X the
    lifted inputs) is a dot product of ``terms`` terms.

    - The SVD rule counts rank n whenever sigma_min / sigma_max > r =
      rank_tol + eta (1 + rank_tol), with eta = ``_svd_slack(rows)``.
    - Forming G: A^T A holds exact integer counts, each entry of X^T X is off
      by at most gamma_terms |x_j| |x_k|, and the Hadamard product adds one
      rounding, so ||dG||_2 <= gamma_(terms+1) trace(G) <= (terms+1) n u
      lambda_max(G); doubled to absorb gamma's higher-order term and underflow.
    - ``eigvalsh`` adds at most n^2 u lambda_max (as for ``_svd_slack``).

    So every computed eigenvalue lies within eps lambda_max(G) of the exact
    one, eps = (2 (terms+1) + n) n u, and a computed ratio above r^2 + 2 eps
    proves lambda_min / lambda_max > r^2, that is sigma_min / sigma_max > r.
    The floor is never below ``rank_tol`` itself: G squares the spectrum, so
    a proved draw has a sigma ratio above sqrt(rank_tol), which leaves the
    SVD rounding orders of magnitude of room.  At the default ``rank_tol``
    that floor governs (sigma ratios above 3.2e-5); r^2 + 2 eps is 1.8e-13
    on the C8 rank grid's largest cell (n = 16, terms = 17, rows = 170) and
    governs only for ``rank_tol`` below about 1e-12.
    """
    eta = _svd_slack(rows)
    eps = (2 * (terms + 1) + n) * n * _U
    r = tol.rank_tol + eta * (1.0 + tol.rank_tol)
    return max(tol.rank_tol, r * r + 2.0 * eps)


def stacked_jacobian_full_rank(A: np.ndarray, X: np.ndarray, bias: bool, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Whether each stacked pattern ``A`` (..., d1, n) on inputs ``X`` (..., d0, n) has a rank-n Jacobian.

    Gives exactly the answer of ``jacobian_full_rank``'s rule (``linalg._rank``
    of the Khatri-Rao matrix J, by SVD) on every draw; the inputs are trusted
    (no validation).  Each draw is settled by the first rule that applies:

    - J has d1 (d0 + bias) rows; fewer than n leave the whole stack short.
    - A zero pattern column is a zero column of J, which the SVD cannot lift
      over the threshold once ``rank_tol`` exceeds ``_svd_slack``.
    - J^T J = (A^T A) o (X^T X) with X bias-lifted (the Gram identity of the
      Khatri-Rao product; Kolda and Bader, SIAM Review 51, 2009).  Its
      ``eigvalsh`` spectrum proves rank n when the ratio of the extreme
      eigenvalues exceeds ``_gram_ratio_floor``.
    - Every other draw, a non-finite Gram matrix included, is ranked by one
      SVD of the Khatri-Rao matrices stacked over just those draws.
    """
    stack, (d1, n), d0 = A.shape[:-2], A.shape[-2:], X.shape[-2]
    terms = d0 + bias
    rows = d1 * terms
    if rows < n:
        return np.zeros(stack, dtype=bool)
    A = A.reshape((-1, d1, n))
    X = X.reshape((-1, d0, n))
    full = np.zeros(A.shape[0], dtype=bool)
    eta = _svd_slack(rows)
    if tol.rank_tol * (1.0 - eta) > eta:
        todo = np.flatnonzero(A.any(axis=1).all(axis=1))
    else:
        todo = np.arange(A.shape[0])
    if not todo.size:
        return full.reshape(stack)
    Af, Xt = A[todo].astype(float), X[todo]
    with np.errstate(over="ignore", invalid="ignore"):
        G = Xt.transpose(0, 2, 1) @ Xt
        if bias:
            G += 1.0
        G *= Af.transpose(0, 2, 1) @ Af
    G[~np.isfinite(G).all(axis=(1, 2))] = 0.0
    lam = np.linalg.eigvalsh(G)
    proved = (lam[:, -1] >= _GRAM_FLOOR) & (lam[:, 0] > _gram_ratio_floor(rows, n, terms, tol) * lam[:, -1])
    full[todo[proved]] = True
    rest = todo[~proved]
    if rest.size:
        Xh = X[rest]
        if bias:
            Xh = np.concatenate([Xh, np.ones((rest.size, 1, n))], axis=1)
        full[rest] = stacked_ranks(stacked_khatri_rao(A[rest].astype(float), Xh), tol) == n
    return full.reshape(stack)
