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
these verdicts.  Two routes pose the LP:

* Generator route, for 1-d data with a bias (at least two distinct points,
  step-vector rows only).  Units are classed by their step codes
  (``onedim._step_codes``) and signs of v, which name the same classes as
  the rows do.  The open cone of a merged unit is a planar wedge, the
  strictly positive combinations of its two extreme rays, so a zero-loss
  point exists exactly when y = F lambda with lambda > 0, F having one
  column per ray.  ``lp_positive_null`` decides it on n equality rows.
  Its attempts are that LP, then the same LP over each wedge's bisector
  (one column per class), whose witness is more central.
* Margin route, for every other input: units are classed by their rows and
  signs of v (``_row_ids``).  Its one attempt is ``lp_max_margin`` over one inequality row
  per (merged unit, data point), on a null-space basis of the design matrix.

Each route only produces its parts: the unit classes (``_classes``), the
lifted block size, the least-squares residual, and a generator of steps
that yields the rank of the merged design and then its LP attempts in
order, each an LP result with the map from its witness to one weight block
per class.  The steps run only as far as the tail asks.  One tail in
``region_global_min_report`` does the rest for both: targets out of reach
(``Tol.misses``) read "no" at once, the first attempt's optimum is the
report's margin, and a "yes" goes out only with a witness that
``model._witness_fault`` passes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    exists), and ``margin`` the optimum of the first homogeneous LP of the
    region's route, the generator LP for 1-d data with a bias and the
    margin LP otherwise: 1.0 (its cap) when the set meets the open region
    and 0.0 when it does not, up to roundoff.  On either route a margin of
    1.0 with ``contains_zero_loss`` False means the LP found the zero-loss
    set in the open region but no float64 witness built from it passed the
    check.
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


def zero_loss_set(A: ActivationPattern, X, y, v, tol: Tol = DEFAULT_TOL):
    """The affine set of zero-loss parameters for the region, if any.

    Returns (particular, nullspace) when the minimum-norm least-squares
    residual is within tolerance, else None: the linear model on this
    pattern cannot reach the targets.
    """
    y = as_vector(y, name="y")
    D = design_matrix(A, X, v)
    particular, residual = least_squares_min_norm(D, y, tol)
    if tol.misses(residual, y):
        return None
    return particular, nullspace_basis(D, tol)


def _classes(key: np.ndarray):
    """Class label of each unit by its integer ``key``, and the first unit of each class.

    Classes are numbered in order of first appearance, so the merged
    pattern keeps the order of the units it came from.
    """
    order = key.argsort(kind="stable")
    ranked = key[order]
    head = np.ones(key.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
    # The stable sort puts the first unit of each class at the head of its run.
    first = np.sort(order[head])
    label_of = np.empty(ranked[-1] + 1 if key.size else 0, dtype=np.intp)
    label_of[key[first]] = np.arange(first.size)
    return label_of[key], first


def _row_ids(keys: np.ndarray) -> np.ndarray:
    """An integer id per row of ``keys``, equal exactly for equal rows: the index of its run among the sorted rows.

    The ids split the rows as ``np.unique(keys, axis=0,
    return_inverse=True)`` does, whose structured-dtype sort took 4 to 15
    times as long on pattern keys (0.09 ms for 6 x 11, 1.4 ms for 400 x 31).
    """
    order = np.lexsort(keys.T)
    ranked = keys[order]
    run = np.ones(keys.shape[0], dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=run[1:])
    ids = np.empty(keys.shape[0], dtype=np.intp)
    ids[order] = run.cumsum() - 1
    return ids


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
    the n-row LP ``lp_positive_null([F, -y])``; when its witness fails the
    check, the LP over the bisectors of the wedges (both rays of a class
    weighted alike) is tried next.  Every other input takes the margin LP:
    the merged zero-loss set theta0 + span N meets the open region exactly
    when R N c + tau R theta0 / |theta0| > 0 has a solution with tau > 0 (R
    the region's sign rows), and then theta0 + N c |theta0| / tau is a
    strictly interior zero-loss point.

    On both routes a "yes" is returned only with a witness that realizes A
    off every region boundary and fits y within ``residual_tol``
    (``model._witness_fault``).  The boundary band of that check is
    min(``tol.lp_tol``, ``DEFAULT_TOL.lp_tol``) wide: a coarse ``lp_tol``
    widens the band in which sampled parameters are resampled, not the
    band a witness must clear.  When no attempt's witness passes, the
    report is "no" at the first attempt's margin.
    """
    Xh = ActivationPattern.lift(A, X)
    y = as_vector(y, name="y")
    v = checked_head(v, A.d1)
    parts = _generator_parts(A, Xh, y, v, tol) if A.bias_flag and Xh.shape[0] == 2 and A.n >= 2 else None
    label, block, residual, steps = parts or _margin_parts(A, Xh, y, v, tol)
    if tol.misses(residual, y):
        return RegionMinReport(False, None, None, float("-inf"))
    solution_dim = A.d1 * block - next(steps)
    check = tol if tol.lp_tol <= DEFAULT_TOL.lp_tol else replace(tol, lp_tol=DEFAULT_TOL.lp_tol)
    X = Xh[:-1] if A.bias_flag else Xh
    margin = None
    for result, theta_of in steps:
        margin = result.t if margin is None else margin
        if result.t <= tol.lp_tol:
            break
        witness = _class_witness(theta_of(result.witness), label, v, A.bias_flag)
        if _witness_fault(witness, A.A, X, y, check) is None:
            return RegionMinReport(True, witness, solution_dim, margin)
    return RegionMinReport(False, None, solution_dim, margin)


def _class_witness(theta: np.ndarray, label: np.ndarray, v: np.ndarray, bias: bool) -> Params:
    """Unit parameters from one weight block per class.

    Unit i of class c takes w_c / (k_c |v_i|): a positive multiple of w_c,
    so strictly inside the cone, and the class sums to sign(v) w_c.
    """
    counts = np.bincount(label)
    blocks = theta[label] / (counts[label] * np.abs(v))[:, None]
    return Params(blocks[:, :-1], blocks[:, -1], v) if bias else Params(blocks, None, v)


def _generator_parts(A: ActivationPattern, Xh: np.ndarray, y: np.ndarray, v: np.ndarray, tol: Tol):
    """The generator route's parts (labels, block, residual, steps) for a pattern on 1-d data with a bias.

    None for input the route does not take: fewer than two distinct points
    or a row that is not a step vector.  One ``_step_codes`` pass over the
    pattern with its columns sorted gives every unit's step code, and with
    it the unit's class and the code of the merged row.  The steps yield the
    rank, then the generator LP, then the bisector LP.
    """
    x = Xh[0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    if not (xs[1:] > xs[:-1]).all():
        return None
    M, k, variant = _step_codes(A.A[:, order])
    if not k.all():
        return None
    # A step row is one-to-one with its canonical code (k, variant).
    label, first = _classes((2 * k + variant) * 2 + (v > 0.0))
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

    def theta(z, per_class):
        # A class inactive everywhere is not in F; lambda = 1 on both of its
        # rays puts it strictly inside its cone.
        lam = np.ones(sigma.shape)
        lam[active] = (z[:-1] / z[-1]).reshape(-1, per_class)
        weights = lam * sigma
        return np.column_stack([weights.sum(axis=1), -(weights * xs[anchors]).sum(axis=1)])

    def steps():
        yield rank
        yield lp_positive_null(K), lambda z: theta(z, 2)
        # A vertex of the generator LP can put a hinge within lp_tol of a data
        # point, or need weights whose rounding misses y.  The LP over each
        # wedge's bisector asks for a central point of the same zero-loss set.
        yield lp_positive_null(np.column_stack([F[:, 0::2] + F[:, 1::2], -ys])), lambda z: theta(z, 1)

    return label, 2, residual, steps()


def _margin_parts(A: ActivationPattern, Xh: np.ndarray, y: np.ndarray, v: np.ndarray, tol: Tol):
    """The margin route's parts (labels, block, residual, steps).

    The steps yield the rank from a null-space basis N of the merged design
    matrix, then the margin LP over every region row of the merged pattern.
    """
    label, first = _classes(_row_ids(np.column_stack((A.A, v > 0.0))))
    # The merged pattern reads the lifted inputs, so it carries no bias flag.
    merged = ActivationPattern(A.A[first], bias_flag=False)
    D = design_matrix(merged, Xh, np.sign(v[first]))
    theta0, residual = least_squares_min_norm(D, y, tol)
    C, n = merged.A.shape
    block = Xh.shape[0]

    def steps():
        N = nullspace_basis(D, tol)
        q = N.shape[1]
        yield C * block - q
        # Region inequality (c, j): (2 A_cj - 1) <xhat_j, theta block c> > 0,
        # taken on the columns of [N, theta0 / |theta0|] (theta0 = 0 drops the
        # tau column, and with it the row tau >= t).
        scale = float(np.linalg.norm(theta0))
        cols = np.hstack([N, theta0[:, None] / scale]) if scale > 0.0 else N
        rows = (2.0 * merged.A - 1.0)[:, :, None] * (Xh.T @ cols.reshape(C, block, cols.shape[1]))
        G = normalize_rows(rows.reshape(C * n, cols.shape[1]))
        if scale > 0.0:
            G = np.vstack([G, np.eye(1, q + 1, q)])
        yield lp_max_margin(G), lambda u: (theta0 + N @ u[:q] * (scale / u[q]) if scale > 0.0 else N @ u).reshape(C, block)

    return label, block, residual, steps()
