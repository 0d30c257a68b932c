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
    least_squares_min_norm,
    nullspace_basis,
)
from .lp import lp_max_margin
from .model import ActivationPattern, Params

__all__ = [
    "DesignMatrix",
    "RegionMinReport",
    "design_matrix",
    "zero_loss_set",
    "region_global_min_report",
]


def _pattern(A, bias: bool | None) -> tuple[np.ndarray, bool]:
    if isinstance(A, ActivationPattern):
        M = A.A
        bias_flag = A.bias_flag if bias is None else bias
    else:
        M = np.asarray(A)
        if bias is None:
            raise InputError("bias flag required when the pattern is a bare matrix")
        bias_flag = bias
    if M.ndim != 2 or not np.all((M == 0) | (M == 1)):
        raise InputError("pattern must be a binary matrix")
    return M.astype(float), bias_flag


@dataclass(frozen=True)
class DesignMatrix:
    """Matrix D with F(theta, X) = D theta inside the region.

    Flattening is unit-major with a trailing bias coordinate per unit:
    theta index (i, l) sits at column i * block + l, where block is
    d0 + 1 with bias and d0 without.
    """

    matrix: np.ndarray
    d0: int
    d1: int
    bias_flag: bool

    @property
    def block(self) -> int:
        return self.d0 + 1 if self.bias_flag else self.d0

    def col_index(self, unit: int, coord: int) -> int:
        if not (0 <= unit < self.d1 and 0 <= coord < self.block):
            raise InputError("design-matrix index out of range")
        return unit * self.block + coord

    def flatten(self, p: Params) -> np.ndarray:
        if self.bias_flag:
            if p.b is None:
                raise InputError("pattern expects a bias but params have none")
            return np.hstack([p.W, p.b[:, None]]).ravel()
        return p.W.ravel()

    def unflatten(self, theta, v) -> Params:
        theta = as_vector(theta, name="theta")
        if theta.shape[0] != self.d1 * self.block:
            raise InputError("flattened parameter length mismatch")
        blocks = theta.reshape(self.d1, self.block)
        if self.bias_flag:
            return Params(blocks[:, :-1].copy(), blocks[:, -1].copy(), v)
        return Params(blocks.copy(), None, v)


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


def design_matrix(A, X, v, bias: bool | None = None) -> DesignMatrix:
    """Design matrix of the region: entry (j, (i, l)) = v_i A_ij xhat_j[l]."""
    M, bias_flag = _pattern(A, bias)
    X = as_matrix(X, name="X")
    v = as_vector(v, name="v")
    d1, n = M.shape
    if X.shape[1] != n:
        raise InputError(f"X has {X.shape[1]} columns but pattern has {n}")
    if v.shape[0] != d1:
        raise InputError(f"v has length {v.shape[0]} but pattern has {d1} rows")
    if np.any(v == 0.0):
        raise InputError("all entries of v must be nonzero")
    Xh = embed_ones(X) if bias_flag else X
    # (n, d1, block): scaled copies of each embedded input column.
    D = (v[None, :, None] * M.T[:, :, None]) * Xh.T[:, None, :]
    return DesignMatrix(D.reshape(n, -1), X.shape[0], d1, bias_flag)


def _zero_loss_set(D: np.ndarray, y: np.ndarray, tol: Tol):
    particular, residual = least_squares_min_norm(D, y, tol)
    if residual > tol.residual_tol * (1.0 + float(np.linalg.norm(y))):
        return None
    return particular, nullspace_basis(D, tol)


def zero_loss_set(A, X, y, v, bias: bool | None = None, tol: Tol = DEFAULT_TOL):
    """The affine set of zero-loss parameters for the region, if any.

    Returns (particular, nullspace) when the minimum-norm least-squares
    residual is within tolerance, else None: the linear model on this
    pattern cannot reach the targets.
    """
    y = as_vector(y, name="y")
    return _zero_loss_set(design_matrix(A, X, v, bias).matrix, y, tol)


def region_global_min_report(
    A, X, y, v, bias: bool | None = None, tol: Tol = DEFAULT_TOL
) -> RegionMinReport:
    """Certify whether the region contains a zero-loss global minimum.

    Parameterizes the zero-loss affine set as theta0 + N c and maximizes
    the (row-normalized) region margin over c; margin above ``lp_tol``
    certifies a strictly interior zero-loss point.  Strict inequalities
    cannot be handed to a QP solver directly, which is why the quadratic
    objective is replaced by this exact affine-set + margin formulation.
    """
    M, bias_flag = _pattern(A, bias)
    X = as_matrix(X, name="X")
    y = as_vector(y, name="y")
    design = design_matrix(M, X, v, bias_flag)
    found = _zero_loss_set(design.matrix, y, tol)
    if found is None:
        return RegionMinReport(False, None, None, float("-inf"))
    theta0, N = found
    d1, n = M.shape
    Xh = embed_ones(X) if bias_flag else X
    block = design.block

    # Region inequality (i, j): sign_ij * <xhat_j, theta block i> > 0,
    # composed with theta = theta0 + N c and an auxiliary variable fixed
    # to 1 carrying the constant term.
    signs = 2.0 * M - 1.0
    rows = np.zeros((d1 * n, d1 * block))
    for i in range(d1):
        rows[i * n : (i + 1) * n, i * block : (i + 1) * block] = signs[i][:, None] * Xh.T
    q = N.shape[1]
    G = np.hstack([rows @ N, (rows @ theta0)[:, None]])
    norms = np.linalg.norm(G, axis=1)
    nz = norms > 0.0
    G[nz] /= norms[nz, None]
    E = np.zeros((1, q + 1))
    E[0, q] = 1.0
    result = lp_max_margin(G, E, np.array([1.0]), cap=1.0, tol=tol)
    if not result.feasible:
        return RegionMinReport(False, None, int(q), float("-inf"))
    margin = result.t
    if margin <= tol.lp_tol:
        return RegionMinReport(False, None, int(q), margin)
    c = result.witness[:q]
    theta = theta0 + N @ c if q else theta0
    witness = design.unflatten(theta, v)
    return RegionMinReport(True, witness, int(q), margin)
