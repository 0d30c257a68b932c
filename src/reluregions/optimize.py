"""Per-region global-minimum analysis.

Within a fixed activation region the network output is linear in the
flattened first-layer parameters, F(theta) = D theta for an explicit design
matrix D.  Zero-loss parameters therefore form an affine set (when the
targets are reachable at all), and the region contains a zero-loss global
minimum exactly when that affine set meets the open region cone.  Units
with the same pattern row and the same sign of v are first merged into one,
which leaves that answer unchanged and shrinks the problem to at most one
unit per distinct (row, sign).  The question is then posed as a homogeneous
margin LP (Charnes-Cooper: the affine set becomes a cone with one extra
coordinate), whose optimum is the cap when the answer is yes and 0 when it
is no, so ``lp_tol`` separates two well-separated values and does not move
these verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tol,
    as_vector,
    khatri_rao,
    least_squares_min_norm,
    normalize_rows,
    nullspace_basis,
)
from .lp import lp_max_margin
from .model import ActivationPattern, Params, checked_head

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
    analysis (``solution_dim`` None, ``margin`` -inf).  ``solution_dim`` is
    the dimension of the zero-loss affine set of the full network (when one
    exists), and ``margin`` the optimum of the homogeneous margin LP: 1.0
    (its cap) when the set meets the open region and 0.0 when it does not,
    up to roundoff.
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
    Xh = ActivationPattern.lift(A, X)
    v = checked_head(v, A.d1)
    return khatri_rao(v[:, None] * A.A, Xh).T


def _zero_loss_set(D: np.ndarray, y: np.ndarray, tol: Tol):
    particular, residual = least_squares_min_norm(D, y, tol)
    if tol.misses(residual, y):
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


def _unit_classes(A: np.ndarray, v: np.ndarray):
    """Class label of each unit by (pattern row, sign of v), and the first unit of each class.

    Classes are numbered in order of first appearance, so the merged
    pattern keeps the order of the units it came from.
    """
    keys = np.column_stack((np.packbits(A, axis=1), v > 0.0))
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse], first[order]


def region_global_min_report(A: ActivationPattern, X, y, v, tol: Tol = DEFAULT_TOL) -> RegionMinReport:
    """Certify whether the region contains a zero-loss global minimum.

    Units with the same pattern row and the same sign of v are merged into
    one unit of that sign: a positive sum of points of their common open
    cone stays in the cone, so the merged pattern has a zero-loss point
    exactly when the region does.  Its zero-loss set theta0 + span N meets
    the open region exactly when R N c + tau R theta0 / |theta0| > 0 has a
    solution with tau > 0 (R the region's sign rows), and then
    theta0 + N c |theta0| / tau is a strictly interior zero-loss point.
    Strict inequalities cannot be handed to a QP solver directly, which is
    why the quadratic objective is replaced by this exact affine-set +
    margin formulation.
    """
    Xh = ActivationPattern.lift(A, X)
    y = as_vector(y, name="y")
    v = checked_head(v, A.d1)
    label, first = _unit_classes(A.A, v)
    # The merged pattern reads the lifted inputs, so it carries no bias flag.
    merged = ActivationPattern(A.A[first], bias_flag=False)
    D = design_matrix(merged, Xh, np.sign(v[first]))
    found = _zero_loss_set(D, y, tol)
    if found is None:
        return RegionMinReport(False, None, None, float("-inf"))
    theta0, N = found
    C, n = merged.A.shape
    block = Xh.shape[0]
    q = N.shape[1]
    solution_dim = A.d1 * block - (C * block - q)

    # Region inequality (c, j): (2 A_cj - 1) <xhat_j, theta block c> > 0,
    # taken on the columns of [N, theta0 / |theta0|] (theta0 = 0 drops the
    # tau column, and with it the row tau >= t).
    scale = float(np.linalg.norm(theta0))
    cols = np.hstack([N, theta0[:, None] / scale]) if scale > 0.0 else N
    rows = (2.0 * merged.A - 1.0)[:, :, None] * (Xh.T @ cols.reshape(C, block, cols.shape[1]))
    G = normalize_rows(rows.reshape(C * n, cols.shape[1]))
    if scale > 0.0:
        G = np.vstack([G, np.eye(1, q + 1, q)])
    result = lp_max_margin(G, cap=1.0)
    margin = result.t
    if margin <= tol.lp_tol:
        return RegionMinReport(False, None, solution_dim, margin)
    u = result.witness
    theta = theta0 + N @ u[:q] * (scale / u[q]) if scale > 0.0 else N @ u
    # Unit i of class c takes w_c / (k_c |v_i|): a positive multiple of w_c,
    # so strictly inside the cone, and the class sums to sign(v) w_c.
    counts = np.bincount(label)
    blocks = theta.reshape(C, block)[label] / (counts[label] * np.abs(v))[:, None]
    witness = Params(blocks[:, :-1], blocks[:, -1], v) if A.bias_flag else Params(blocks, None, v)
    return RegionMinReport(True, witness, solution_dim, margin)
