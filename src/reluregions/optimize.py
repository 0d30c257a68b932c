"""Per-region global-minimum analysis.

Within a fixed activation region the network output is linear in the
flattened first-layer parameters, F(theta) = D theta for an explicit design
matrix D.  Zero-loss parameters therefore form an affine set (when the
targets are reachable at all), and the region contains a zero-loss global
minimum exactly when that affine set meets the open region cone, which is
certified by maximizing the region margin over the affine set with an LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import (
    DEFAULT_TOL,
    Tol,
    as_matrix,
    as_vector,
    embed_ones,
    khatri_rao,
    least_squares_min_norm,
    normalize_rows,
    nullspace_basis,
)
from .lp import lp_max_margin
from .model import ActivationPattern, Params

__all__ = [
    "RegionMinReport",
    "design_matrix",
    "zero_loss_set",
    "region_global_min_report",
]


@dataclass(frozen=True)
class RegionMinReport:
    """Zero-loss status of one activation region.

    ``contains_zero_loss`` is a certificate for zero-loss minima only:
    regions whose best loss is positive are reported False without further
    analysis.  ``solution_dim`` is the dimension of the zero-loss affine
    set (when one exists), and ``margin`` the optimized interior margin.
    """

    contains_zero_loss: bool
    witness: Params | None
    solution_dim: int | None
    margin: float


def design_matrix(A: ActivationPattern, X, v) -> np.ndarray:
    """Design matrix D of the region, F(theta, X) = D theta: the Jacobian of
    the network outputs with respect to the first layer.

    Row j is ``(v * A[:, j]) kron xhat_j``, where xhat appends a trailing 1
    when the pattern carries a bias flag.  Columns follow the unit-major
    flattening: theta index (i, l) sits at column i * block + l, where block
    is d0 + 1 with bias and d0 without.
    """
    if not isinstance(A, ActivationPattern):
        raise InputError(f"pattern must be an ActivationPattern, got {type(A).__name__}")
    X = as_matrix(X, name="X")
    v = as_vector(v, name="v")
    if X.shape[1] != A.n:
        raise InputError(f"X has {X.shape[1]} columns but pattern has {A.n}")
    if v.shape[0] != A.d1:
        raise InputError(f"v has length {v.shape[0]} but pattern has {A.d1} rows")
    if np.any(v == 0.0):
        raise InputError("all entries of v must be nonzero")
    Xh = embed_ones(X) if A.bias_flag else X
    return khatri_rao(v[:, None] * A.A, Xh).T


def _zero_loss_set(D: np.ndarray, y: np.ndarray, tol: Tol):
    particular, residual = least_squares_min_norm(D, y, tol)
    if residual > tol.residual_tol * (1.0 + float(np.linalg.norm(y))):
        return None
    return particular, nullspace_basis(D, tol)


def zero_loss_set(A: ActivationPattern, X, y, v, tol: Tol = DEFAULT_TOL):
    """The affine set of zero-loss parameters for the region, if any.

    Returns (particular, nullspace) when the minimum-norm least-squares
    residual is within tolerance, else None: the linear model on this
    pattern cannot reach the targets.
    """
    y = as_vector(y, name="y")
    return _zero_loss_set(design_matrix(A, X, v), y, tol)


def region_global_min_report(A: ActivationPattern, X, y, v, tol: Tol = DEFAULT_TOL) -> RegionMinReport:
    """Certify whether the region contains a zero-loss global minimum.

    Parameterizes the zero-loss affine set as theta0 + N c and maximizes
    the (row-normalized) region margin over c; margin above ``lp_tol``
    certifies a strictly interior zero-loss point.  Strict inequalities
    cannot be handed to a QP solver directly, which is why the quadratic
    objective is replaced by this exact affine-set + margin formulation.
    """
    X = as_matrix(X, name="X")
    y = as_vector(y, name="y")
    found = _zero_loss_set(design_matrix(A, X, v), y, tol)
    if found is None:
        return RegionMinReport(False, None, None, float("-inf"))
    theta0, N = found
    d1, n = A.A.shape
    Xh = embed_ones(X) if A.bias_flag else X
    block = Xh.shape[0]

    # Region inequality (i, j): sign_ij * <xhat_j, theta block i> > 0,
    # composed with theta = theta0 + N c: row (i, j) of G[:, :q] c + G[:, q]
    # must be positive, the trailing column being the constant offset.
    signs = 2.0 * A.A - 1.0
    rows = np.zeros((d1 * n, d1 * block))
    for i in range(d1):
        rows[i * n : (i + 1) * n, i * block : (i + 1) * block] = signs[i][:, None] * Xh.T
    q = N.shape[1]
    G = normalize_rows(np.hstack([rows @ N, (rows @ theta0)[:, None]]))
    result = lp_max_margin(G[:, :q], h=G[:, q], cap=1.0)
    margin = result.t
    if margin <= tol.lp_tol:
        return RegionMinReport(False, None, int(q), margin)
    # Unit-major flattening: unit i owns theta[i * block : (i + 1) * block].
    blocks = (theta0 + N @ result.witness).reshape(d1, block)
    if A.bias_flag:
        witness = Params(blocks[:, :-1].copy(), blocks[:, -1].copy(), v)
    else:
        witness = Params(blocks.copy(), None, v)
    return RegionMinReport(True, witness, int(q), margin)
