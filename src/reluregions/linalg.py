"""Dense real linear algebra with explicit tolerances.

Everything here is a thin, contract-checked layer over numpy's SVD/lstsq
machinery.  All rank decisions in the package (``mat_rank``,
``nullspace_basis`` and the batched ``stacked_ranks``) share one rule,
``_rank``, so that a single relative singular-value threshold governs them.
``model.stacked_jacobian_full_rank`` proves that rule's outcome for most
Jacobians without an SVD (a row count, a zero column, or the spectrum of
the Gram matrix under a stated rounding bound); it does not replace the
rule, and every draw it cannot settle is ranked here.
The ``stacked_`` functions take arrays with leading batch axes and skip
validation; their callers build those arrays from validated draws.

The input checks every module shares live here too: ``as_int`` decides what
a valid integer size or index is (an ``operator.index`` integer, not a bool,
within optional bounds), ``as_binary`` what a valid 0/1 pattern is (equal
rows, every entry 0 or 1), and ``as_matrix``/``as_vector`` what a valid
finite float matrix or vector is.  Callers keep only their own shape rules.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "Tol",
    "DEFAULT_TOL",
    "as_int",
    "as_binary",
    "as_matrix",
    "as_vector",
    "embed_ones",
    "normalize_rows",
    "mat_rank",
    "stacked_ranks",
    "nullspace_basis",
    "least_squares_min_norm",
    "khatri_rao",
    "stacked_khatri_rao",
]


@dataclass(frozen=True)
class Tol:
    """Tolerance bundle used throughout the package.

    rank_tol
        Relative singular-value threshold for numerical rank.
    residual_tol
        Relative residual threshold deciding whether a least-squares fit
        counts as exact (zero loss).
    lp_tol
        Feasibility margin threshold: a linear-inequality system counts as
        strictly feasible only when the optimized margin exceeds this value
        after row normalization.  It is also the relative band around zero
        in which a sampled preactivation counts as on a region boundary
        (``model.on_boundary``).  A zero-loss witness must clear the band
        of min(lp_tol, ``DEFAULT_TOL.lp_tol``), so a coarse lp_tol moves
        which draws are resampled, not the zero-loss verdicts
        (``optimize.region_global_min_report``).
    """

    rank_tol: float = 1e-9
    residual_tol: float = 1e-8
    lp_tol: float = 1e-7

    def __post_init__(self) -> None:
        for name in ("rank_tol", "residual_tol", "lp_tol"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise InputError(f"{name} must lie strictly between 0 and 1, got {value!r}")

    def misses(self, residual: float, y: np.ndarray) -> bool:
        """Whether a fit with residual norm ``residual`` on targets ``y`` is not exact (not zero loss)."""
        return residual > self.residual_tol * (1.0 + _norm(y))


DEFAULT_TOL = Tol()


def as_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as a plain int (``operator.index``) within the bounds ``low`` and ``high`` that are not None.

    Bools, floats, strings and the like raise InputError, and so does an
    integer out of bounds.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if (low is None or value >= low) and (high is None or value <= high):
                return value
            if high is not None:
                rule = f"lie in [{low}, {high}]" if low is not None else f"be at most {high}"
            else:
                rule = "be nonnegative" if low == 0 else f"be at least {low}"
            raise InputError(f"{name} must {rule}, got {value}")
    raise InputError(f"{name} must be an integer, got {value!r}")


def as_binary(M, *, name: str) -> np.ndarray:
    """The 0/1 entries of ``M`` as a new int8 array of its shape.

    Ints, bools, the floats 0.0 and 1.0 and object arrays of those pass.
    Ragged rows and any other entry (0.7, NaN, the string "1") raise
    InputError; the caller checks the shape.
    """
    try:
        A = np.asarray(M)
    except ValueError:  # rows of unequal length
        raise InputError(f"{name} rows must all have the same length") from None
    ones = A == 1
    if not (ones | (A == 0)).all():
        raise InputError(f"{name} entries must be 0 or 1")
    return ones.astype(np.int8)


def as_matrix(M, *, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float array, rejecting non-finite entries."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise InputError(f"{name} contains non-finite entries")
    return A


def as_vector(v, *, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-d float array, rejecting non-finite entries."""
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise InputError(f"{name} must be 1-dimensional, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError(f"{name} contains non-finite entries")
    return a


def embed_ones(X) -> np.ndarray:
    """``X`` with a trailing all-ones row appended, written into one new array.

    Models with a bias term are handled uniformly by embedding each input
    column x as (x, 1); the bias becomes the trailing weight coordinate.
    """
    X = as_matrix(X, name="X")
    Xh = np.empty((X.shape[0] + 1, X.shape[1]))
    Xh[:-1] = X
    Xh[-1] = 1.0
    return Xh


def normalize_rows(G) -> np.ndarray:
    """Scale each row to unit Euclidean norm; zero rows are left untouched."""
    G = as_matrix(G, name="G")
    norms = _norms(G, -1, None)
    out = G.copy()
    nz = norms > 0.0
    out[nz] /= norms[nz, None]
    return out


def _norm(v) -> float:
    """Euclidean norm of ``v`` raveled, with the bits of ``float(np.linalg.norm(v))`` wherever that is finite.

    numpy's formula is sqrt(x . x) on the raveled float array; ``np.vdot``
    forms the same dot product without numpy's overflow warning.  When the
    squared sum overflows, the norm of x / max|x| is scaled back, so a
    finite vector whose norm is below the float range gets a finite norm.
    """
    x = np.asarray(v, dtype=float).ravel(order="K")
    squares = np.vdot(x, x)
    if not math.isfinite(squares):
        top = float(np.abs(x).max())
        if math.isfinite(top):
            x = x / top
            return top * math.sqrt(np.vdot(x, x))
    return math.sqrt(squares)


def _norms(V: np.ndarray, axis: int, extra) -> np.ndarray:
    """Euclidean norms of the vectors along ``axis`` of ``V``, each with the entry ``extra`` appended unless it is None.

    A sum of squares that overflows (entries above about 1e154) is
    recomputed with its vector scaled by its largest entry first; every
    finite sum keeps its bytes, so without ``extra`` a finite norm has the
    bits of ``np.linalg.norm(V, axis=axis)``.
    """
    with np.errstate(over="ignore"):
        sq = (V * V).sum(axis=axis)
        if extra is not None:
            sq = sq + extra * extra
    norm = np.sqrt(sq)
    big = np.isinf(norm)
    if big.any():
        vectors = np.moveaxis(V, axis, -1)[big]
        if extra is not None:
            vectors = np.column_stack([vectors, np.broadcast_to(extra, big.shape)[big]])
        peak = np.abs(vectors).max(axis=1)
        norm[big] = peak * np.sqrt(((vectors / peak[:, None]) ** 2).sum(axis=1))
    return norm


def _rank(s: np.ndarray, tol: Tol) -> np.ndarray:
    """Count of singular values ``s`` (descending along the last axis) above ``rank_tol`` times the largest.

    An all-zero or empty spectrum counts 0.  Leading axes stack independent
    spectra; the result keeps them.
    """
    return (s > tol.rank_tol * s[..., :1]).sum(axis=-1)


def stacked_ranks(M: np.ndarray, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Numerical ranks of stacked matrices ``M`` (..., rows, cols) from one SVD call.

    The input is trusted (no validation); ``mat_rank`` is the checked
    single-matrix form.
    """
    return _rank(np.linalg.svd(M, compute_uv=False), tol)


def mat_rank(M, tol: Tol = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above ``rank_tol`` times the largest.

    The zero matrix (and any empty matrix) has rank 0.
    """
    return int(stacked_ranks(as_matrix(M, name="M"), tol))


def nullspace_basis(M, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical kernel, one column per dimension.

    Always satisfies ``rank + basis.shape[1] == cols``.
    """
    _, s, vt = np.linalg.svd(as_matrix(M, name="M"))
    return vt[_rank(s, tol):].T.copy()


def least_squares_min_norm(M, y, tol: Tol = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution of M x ~ y and its residual norm."""
    A = as_matrix(M, name="M")
    b = as_vector(y, name="y")
    if b.shape[0] != A.shape[0]:
        raise InputError(f"y has length {b.shape[0]}, expected {A.shape[0]}")
    x, _, _, _ = np.linalg.lstsq(A, b, rcond=tol.rank_tol)
    return x, _norm(A @ x - b)


def khatri_rao(A, X) -> np.ndarray:
    """Columnwise Kronecker product.

    Column j of the result is ``A[:, j] kron X[:, j]``; the output has
    ``rows(A) * rows(X)`` rows.  Index (i, l) of column j sits at row
    ``i * rows(X) + l``, i.e. A-major ordering.
    """
    A = as_matrix(A, name="A")
    X = as_matrix(X, name="X")
    if A.shape[1] != X.shape[1]:
        raise InputError(
            f"column counts differ: A has {A.shape[1]}, X has {X.shape[1]}"
        )
    return stacked_khatri_rao(A, X)


def stacked_khatri_rao(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``khatri_rao`` over stacked pairs: A (..., ra, n) and X (..., rx, n), trusted input."""
    ra, n = A.shape[-2:]
    rx = X.shape[-2]
    return (A[..., :, None, :] * X[..., None, :, :]).reshape(A.shape[:-2] + (ra * rx, n))
