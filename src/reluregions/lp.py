"""Dense primal simplex for margin maximization.

Solves

    maximize t  subject to  G u >= t * 1,  t <= cap

with free variables ``u`` and ``t``.  The problem is always feasible (u = 0,
t = 0), and the simplex starts from that point with every slack basic, so it
needs no phase 1.  A positive optimum certifies a strictly feasible point of
``G u > 0``, which is how the package certifies membership in open
polyhedral regions; the cone is scale-free, so that optimum is ``cap``.

The objective is bounded by construction (t <= cap), so a kernel report of
"unbounded" can only mean a numerically null improving column slipped past
the pricing threshold.  An LP that outlasts its iteration limit has drifted
numerically the same way.  Either way the solve is rebuilt from scratch with
coarser pricing.  Stopping early at a coarser threshold can only understate
the optimal margin, never overstate it, so certificates stay conservative.

The pivot loop is the hot kernel of the whole package: region enumeration
solves one LP per candidate pattern and the Monte Carlo grids solve one
small LP per trial.  Its rules:

* pricing: Dantzig (most negative reduced cost, first index on ties), with a
  permanent switch to Bland's rule after too many consecutive degenerate
  pivots (anti-cycling guarantee);
* ratio test: minimum ratio over rows whose column entry exceeds ``piv_tol``
  (tiny pivots would amplify roundoff catastrophically); ties are broken by
  the largest pivot element for stability, or by smallest basic variable
  index once Bland's rule is active (termination guarantee).

The tableau ``T`` has shape (m+1, n+1): row m is the reduced-cost row of a
minimization problem, column n is the right-hand side, and ``T[m, n]`` holds
minus the current objective value.  ``basis[i]`` is the column basic in row i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvariantViolation
from .linalg import as_matrix

__all__ = ["MarginResult", "lp_max_margin", "kernel_backend"]

_PRICE_EPS = 1e-9  # reduced-cost threshold; escalated on numerical trouble
_PIVOT_TOL = 1e-8  # ratio-test eligibility: smaller pivots amplify roundoff

OPTIMAL = 0
UNBOUNDED = 1
ITERATION_LIMIT = 2


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0


def simplex_loop(
    T: np.ndarray, basis: np.ndarray, eps: float, piv_tol: float, max_iter: int, stall_limit: int
) -> int:
    """Pivot ``T`` to optimality in place; returns OPTIMAL, UNBOUNDED or ITERATION_LIMIT."""
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    obj = T[m]
    bland = False
    stall = 0
    for _ in range(max_iter):
        if bland:
            neg = np.nonzero(obj[:n] < -eps)[0]
            if neg.size == 0:
                return OPTIMAL
            col = int(neg[0])
        else:
            col = int(np.argmin(obj[:n]))
            if obj[col] >= -eps:
                return OPTIMAL

        column = T[:m, col]
        eligible = column > piv_tol
        if not np.any(eligible):
            return UNBOUNDED
        ratios = np.full(m, np.inf)
        ratios[eligible] = T[:m, n][eligible] / column[eligible]
        rmin = float(ratios.min())
        tie = 1e-9 * (1.0 + abs(rmin))
        candidates = np.nonzero(ratios <= rmin + tie)[0]
        if bland:
            row = int(candidates[np.argmin(basis[candidates])])
        else:
            row = int(candidates[np.argmax(column[candidates])])

        if T[row, n] <= eps:
            stall += 1
            if stall > stall_limit:
                bland = True
        else:
            stall = 0

        _pivot(T, row, col)
        basis[row] = col
    return ITERATION_LIMIT


# The one pivot kernel, looked up here at every solve rather than bound at
# import: a profiler can then time the pivot loop by swapping in a wrapped
# entry for the length of a run, without editing this module.
_KERNELS = {"python": simplex_loop}


def kernel_backend() -> str:
    """Name of the pivot kernel, recorded with benchmark results."""
    return "python"


@dataclass(frozen=True)
class MarginResult:
    """Optimal margin ``t`` of a margin LP and the ``u`` attaining it."""

    t: float
    witness: np.ndarray


class _NumericalTrouble(Exception):
    pass


def _solve_once(G, cap, eps):
    m, k = G.shape

    # Standard-form layout: u+ (k), u- (k), t+, t-, margin slacks (m), cap
    # slack.  All free variables are split.
    tp = 2 * k
    tm = 2 * k + 1
    s0 = 2 * k + 2
    sigma = s0 + m
    ncols = sigma + 1
    nrows = m + 1

    T = np.zeros((nrows + 1, ncols + 1))
    basis = np.empty(nrows, dtype=np.int64)

    # Margin rows, written as  -G_i u + t + s_i = 0  so each slack starts basic.
    T[:m, 0:k] = -G
    T[:m, k : 2 * k] = G
    T[:m, tp] = 1.0
    T[:m, tm] = -1.0
    T[np.arange(m), s0 + np.arange(m)] = 1.0
    basis[:m] = s0 + np.arange(m)

    # Cap row: t + sigma = cap.
    T[m, tp] = 1.0
    T[m, tm] = -1.0
    T[m, sigma] = 1.0
    T[m, ncols] = cap
    basis[m] = sigma

    # Dantzig pricing finishes in a few hundred pivots on these LPs; one that
    # runs to several stall windows has drifted, and coarser pricing recovers.
    stall_limit = 1000 + 2 * nrows
    max_iter = 4 * stall_limit

    # Maximize t, i.e. minimize -t+ + t-, priced out on the basis.
    T[nrows, tp] = -1.0
    T[nrows, tm] = 1.0
    for i in np.flatnonzero(T[nrows, basis]):
        T[nrows] -= T[nrows, basis[i]] * T[i]
    status = _KERNELS["python"](T, basis, eps, _PIVOT_TOL, max_iter, stall_limit)
    if status == UNBOUNDED:
        raise _NumericalTrouble("numerically null improving column")
    if status == ITERATION_LIMIT:
        raise _NumericalTrouble("simplex iteration limit exceeded")

    x = np.zeros(ncols)
    x[basis] = T[np.arange(nrows), ncols]
    return MarginResult(float(x[tp] - x[tm]), x[0:k] - x[k : 2 * k])


def lp_max_margin(G, cap: float = 1.0) -> MarginResult:
    """Maximize the common margin t of ``G u >= t``, ``t <= cap``.

    The LP is always feasible (u = 0, t = 0), and ``cap`` must be positive
    to keep the objective bounded.  G may have no columns: the optimum is
    then 0, or ``cap`` when G has no rows either.  Rows of G are used as
    given; callers wanting geometrically meaningful margins should
    normalize them.
    """
    G = as_matrix(G, name="G")
    if not (cap > 0.0):
        raise InputError(f"cap must be positive, got {cap!r}")

    eps = _PRICE_EPS
    for _ in range(3):
        try:
            return _solve_once(G, cap, eps)
        except _NumericalTrouble as trouble:
            last = trouble
            eps *= 100.0
    raise InvariantViolation(f"margin LP failed numerically after escalation: {last}")
