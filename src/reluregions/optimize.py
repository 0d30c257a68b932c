"""Per-region global-minimum analysis.

Within a fixed activation region the network output is linear in the
flattened first-layer parameters, F(theta) = D theta for an explicit design
matrix D.  Zero-loss parameters therefore form an affine set (when the
targets are reachable at all), and the region contains a zero-loss global
minimum exactly when that affine set meets the open region cone.  Units
with the same pattern row and the same sign of v are first merged into one,
which leaves that answer unchanged and shrinks the problem to at most one
unit per distinct (row, sign).  The question is then posed as a homogeneous
LP (Charnes-Cooper: the affine set becomes a cone with one extra
coordinate), whose optimum is the cap when the answer is yes and 0 when it
is no, so ``lp_tol`` separates two well-separated values and does not move
these verdicts.  The LP takes one of two forms:

* Generator form, for 1-d data with a bias (at least two distinct points,
  step-vector rows only).  Units are merged by their step codes
  (``onedim._step_codes``) and signs of v, which name the same classes as
  the rows do.  The open cone of a merged unit is a planar wedge, the
  strictly positive combinations of its two extreme rays, so a zero-loss
  point exists exactly when y = F lambda with lambda > 0, F having one
  column per ray.  ``lp_positive_null`` decides it on n equality rows.
  Its "yes" witness is re-checked by ``model._witness_fault`` (pattern
  realized off every boundary, residual accepted by ``Tol.misses``).  When
  it fails, the same LP over each wedge's bisector (one column per class)
  gives a more central witness, checked the same way; when that fails too,
  the answer is "no".  A region whose generator LP has run never reaches
  the margin form.
* Margin form, for every other input: one inequality row per (merged unit,
  data point) over a null-space basis of the design matrix, solved by
  ``lp_max_margin``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tol,
    _norm,
    _rank,
    as_vector,
    khatri_rao,
    least_squares_min_norm,
    normalize_rows,
    nullspace_basis,
)
from .lp import lp_max_margin, lp_positive_null
from .model import ActivationPattern, Params, _witness_fault, checked_head
from .onedim import _step_codes

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
    exists), and ``margin`` the optimum of the homogeneous LP that decided
    the region, the generator LP for 1-d data with a bias and the margin LP
    otherwise: 1.0 (its cap) when the set meets the open region and 0.0
    when it does not, up to roundoff.  A margin of 1.0 with
    ``contains_zero_loss`` False means the LP found the zero-loss set in
    the open region but no float64 witness built from it passed the check.
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
    pattern keeps the order of the units it came from.  The margin route
    uses it; the generator route labels its step rows by ``_step_classes``.
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
    exactly when the region does.  Strict inequalities cannot be handed to
    a QP solver directly, which is why the quadratic objective is replaced
    by an exact linear formulation, in one of two forms.

    For 1-d data with a bias (at least two distinct points, step rows only)
    each class's open cone is a planar wedge, the strictly positive
    combinations of its two extreme rays, so the region has a zero-loss
    point exactly when y = F lambda for some lambda > 0, F being n x 2C
    (one column per ray, classes inactive everywhere left out).  That is
    the n-row LP ``lp_positive_null([F, -y])``.  Its "yes" is returned only
    with a witness that realizes A off every region boundary and fits y
    within ``residual_tol`` (``model._witness_fault``): the one built from
    lambda, or else the one from the LP over the bisectors of the wedges
    (both rays of a class weighted alike).  When neither passes, the report
    is "no" at the generator LP's margin.  Every other input goes to the
    margin route below.

    Margin route: the merged zero-loss set theta0 + span N meets the open
    region exactly when R N c + tau R theta0 / |theta0| > 0 has a solution
    with tau > 0 (R the region's sign rows), and then
    theta0 + N c |theta0| / tau is a strictly interior zero-loss point.
    """
    Xh = ActivationPattern.lift(A, X)
    y = as_vector(y, name="y")
    v = checked_head(v, A.d1)
    if A.bias_flag and Xh.shape[0] == 2 and A.n >= 2:
        report = _generator_report(A, Xh, y, v, tol)
        if report is not None:
            return report
    return _margin_report(A, Xh, y, v, tol)


def _class_witness(theta: np.ndarray, label: np.ndarray, v: np.ndarray, bias: bool) -> Params:
    """Unit parameters from one weight block per class.

    Unit i of class c takes w_c / (k_c |v_i|): a positive multiple of w_c,
    so strictly inside the cone, and the class sums to sign(v) w_c.
    """
    counts = np.bincount(label)
    blocks = theta[label] / (counts[label] * np.abs(v))[:, None]
    return Params(blocks[:, :-1], blocks[:, -1], v) if bias else Params(blocks, None, v)


def _step_classes(k: np.ndarray, variant: np.ndarray, v: np.ndarray):
    """``_unit_classes`` of a pattern of step rows, from their ``_step_codes`` (k, variant) and the head v.

    A step row is one-to-one with its canonical code, so units share a class
    exactly when they share (k, variant, sign of v).  Classes are numbered in
    order of first appearance, as ``_unit_classes`` numbers them.
    """
    key = (2 * k + variant) * 2 + (v > 0.0)
    order = key.argsort(kind="stable")
    ranked = key[order]
    head = np.ones(key.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
    # The stable sort puts the first unit of each class at the head of its run.
    first = np.sort(order[head])
    label_of = np.empty(ranked[-1] + 1 if key.size else 0, dtype=np.intp)
    label_of[key[first]] = np.arange(first.size)
    return label_of[key], first


def _generator_report(A: ActivationPattern, Xh: np.ndarray, y: np.ndarray, v: np.ndarray, tol: Tol):
    """The report of a pattern on 1-d data with a bias from the generator LP.

    None for input the route does not take: fewer than two distinct points
    or a row that is not a step vector.  One ``_step_codes`` pass over the
    pattern with its columns sorted gives every unit's step code, and with
    it the unit's class (``_step_classes``) and the code of the merged row.
    """
    x = Xh[0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    if not (xs[1:] > xs[:-1]).all():
        return None
    M, k, variant = _step_codes(A.A[:, order])
    if not k.all():
        return None
    label, first = _step_classes(k, variant, v)
    M, k, variant = M[first], k[first], variant[first]
    n = xs.shape[0]

    # Ray i of a class is sigma_i (1, -x_{a_i}): zero at the anchor point
    # a_i and of the row's sign on the other points.  A switching row's
    # anchors straddle its threshold; a constant row's are the end points.
    constant = k == 1
    anchors = np.where(constant[:, None], [0, n - 1], (k - 2)[:, None] + [0, 1])
    slope = 2.0 * variant - 1.0
    sigma = np.column_stack([slope, np.where(constant, -slope, slope)])
    active = M.any(axis=1)
    signs = np.sign(v[first])[active, None] * sigma[active]
    # The generator LP's matrix K = [F, -y], written once: F has one column
    # per ray of an active class.
    ys = y[order]
    K = np.empty((n, 2 * signs.shape[0] + 1))
    F = K[:, :-1]
    F[...] = (signs[..., None] * M[active, None, :] * (xs - xs[anchors[active]][..., None])).reshape(-1, n).T
    K[:, -1] = -ys

    # F spans the columns of the merged design matrix, so its SVD gives the
    # rank and the reachability test of the margin route.
    rank = 0
    residual = _norm(ys)
    if F.size:
        U, s, _ = np.linalg.svd(F, full_matrices=False)
        rank = int(_rank(s, tol))
        U = U[:, :rank]
        residual = _norm(ys - U @ (U.T @ ys))
    if tol.misses(residual, ys):
        return RegionMinReport(False, None, None, float("-inf"))
    solution_dim = 2 * A.d1 - rank

    def solve(K, per_class):
        """The margin of the LP over ``K`` = [columns, -y] (``per_class`` columns per active class), and its witness if it passes the check."""
        result = lp_positive_null(K)
        if result.t <= tol.lp_tol:
            return result.t, None
        # A class inactive everywhere is not in F; lambda = 1 on both of its
        # rays puts it strictly inside its cone.
        lam = np.ones(sigma.shape)
        lam[active] = (result.witness[:-1] / result.witness[-1]).reshape(-1, per_class)
        weights = lam * sigma
        theta = np.empty(sigma.shape)
        theta[:, 0] = weights.sum(axis=1)
        theta[:, 1] = -(weights * xs[anchors]).sum(axis=1)
        witness = _class_witness(theta, label, v, bias=True)
        return result.t, None if _witness_fault(witness, A.A, Xh[:1], y, tol) else witness

    margin, witness = solve(K, 2)
    if margin > tol.lp_tol and witness is None:
        # A vertex of the generator LP can put a hinge within lp_tol of a data
        # point, or need weights whose rounding misses y.  The LP over each
        # wedge's bisector (both rays of a class weighted alike) asks for a
        # central point of the same zero-loss set instead.
        witness = solve(np.column_stack([F[:, 0::2] + F[:, 1::2], -ys]), 1)[1]
    return RegionMinReport(witness is not None, witness, solution_dim, margin)


def _margin_report(A: ActivationPattern, Xh: np.ndarray, y: np.ndarray, v: np.ndarray, tol: Tol) -> RegionMinReport:
    """The report from the homogeneous margin LP over every region row of the merged pattern."""
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
    result = lp_max_margin(G)
    margin = result.t
    if margin <= tol.lp_tol:
        return RegionMinReport(False, None, solution_dim, margin)
    u = result.witness
    theta = theta0 + N @ u[:q] * (scale / u[q]) if scale > 0.0 else N @ u
    return RegionMinReport(True, _class_witness(theta.reshape(C, block), label, v, A.bias_flag), solution_dim, margin)
