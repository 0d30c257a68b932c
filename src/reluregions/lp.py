"""Dense primal simplex for margin maximization.

``lp_max_margin`` solves

    maximize t  subject to  G u >= t * 1,  t <= 1

with free variables ``u`` and ``t``.  The problem is always feasible (u = 0,
t = 0), and the simplex starts from that point with every slack basic, so it
needs no phase 1.  A positive optimum certifies a strictly feasible point of
``G u > 0``, which is how the package certifies membership in open
polyhedral regions; the cone is scale-free, so that optimum is the cap, 1.

``lp_positive_null`` solves the equality form of the same question,

    maximize t  subject to  K z = 0,  z >= t * 1,  t <= 1,

whose positive optimum certifies a strictly positive point of the null
space of K (Stiemke's lemma gives the alternative).  It has one row per
independent row of K, not one per inequality.  Its right-hand side is
zero, so any nonsingular choice of columns is a feasible start basis (a
crash basis, Bixby 1992): Gauss-Jordan elimination with partial pivoting
picks one, drops the dependent rows of K, and the simplex starts there
without a phase 1.  ``t`` is kept nonnegative, which loses nothing since
z = 0 is feasible.

The objective is bounded by construction (t <= 1), so a kernel report of
"unbounded" can only mean a numerically null improving column slipped past
the pricing threshold.  An LP that outlasts its iteration limit has drifted
numerically the same way.  Either way the solve is rebuilt from scratch with
coarser pricing.  Stopping early at a coarser threshold can only understate
the optimal margin, never overstate it, so certificates stay conservative.

The pivot loop is the hot kernel of the whole package: region enumeration
solves one LP per realizable prefix and the Monte Carlo grids solve one
small LP per trial.  Its rules:

* pricing: Dantzig (most negative reduced cost, smallest variable index on
  ties), with a permanent switch to Bland's rule (smallest variable index
  with a negative reduced cost) after too many consecutive degenerate
  pivots (anti-cycling guarantee);
* ratio test: minimum ratio over rows whose column entry exceeds ``piv_tol``
  (tiny pivots would amplify roundoff catastrophically); ties are broken by
  the largest pivot element for stability, or by smallest basic variable
  index once Bland's rule is active (termination guarantee).

The tableau is condensed (the dictionary form of the simplex): it keeps a
column only for each nonbasic variable, not the identity block of the basic
ones, which every pivot would rewrite and pricing never picks.  ``T`` has
shape (r+1, c+1): rows 0..r-1 are the constraint rows, row r the
reduced-cost row of a minimization problem, column c the right-hand side,
and ``T[r, c]`` holds minus the current objective value.  ``basis[i]`` is
the variable basic in row i and ``nonbasic[j]`` the variable of column j.
On a pivot the leaving variable takes the entering variable's column, so
ties are broken by variable index, not by column position, and the pivots
and floats (up to the sign of a zero) match those of the full tableau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .linalg import as_matrix

__all__ = ["MarginResult", "lp_max_margin", "lp_positive_null", "kernel_backend"]

_PRICE_EPS = 1e-9  # reduced-cost threshold; escalated on numerical trouble
_PIVOT_TOL = 1e-8  # ratio-test eligibility: smaller pivots amplify roundoff

OPTIMAL = 0
UNBOUNDED = 1
ITERATION_LIMIT = 2


def simplex_loop(
    T: np.ndarray,
    basis: np.ndarray,
    eps: float,
    piv_tol: float,
    max_iter: int,
    stall_limit: int,
    nonbasic: np.ndarray,
) -> int:
    """Pivot the condensed tableau ``T`` in place; returns OPTIMAL, UNBOUNDED or ITERATION_LIMIT."""
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    obj = T[m, :n]
    rhs = T[:m, n]
    ratios = np.empty(m)
    bland = False
    stall = 0
    for _ in range(max_iter):
        if bland:
            neg = (obj < -eps).nonzero()[0]
            if neg.size == 0:
                return OPTIMAL
            col = neg[nonbasic[neg].argmin()]
        else:
            col = obj.argmin()
            if obj[col] >= -eps:
                return OPTIMAL
            ties = (obj == obj[col]).nonzero()[0]
            if ties.size > 1:
                col = ties[nonbasic[ties].argmin()]

        column = T[:m, col]
        eligible = column > piv_tol
        if not eligible[eligible.argmax()]:  # argmax: the first eligible row, if any
            return UNBOUNDED
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=eligible)
        rmin = ratios[ratios.argmin()]
        tie = 1e-9 * (1.0 + abs(rmin))
        candidates = (ratios <= rmin + tie).nonzero()[0]
        if candidates.size == 1:
            row = candidates[0]
        elif bland:
            row = candidates[basis[candidates].argmin()]
        else:
            row = candidates[column[candidates].argmax()]

        if T[row, n] <= eps:
            stall += 1
            if stall > stall_limit:
                bland = True
        else:
            stall = 0

        # Pivot.  The leaving variable takes the entering column's slot, set
        # to its unit column first, so the update writes there what the full
        # tableau writes into the leaving column: 1/p in the pivot row and
        # 0.0 - factors * (1/p) elsewhere.  einsum forms the same products
        # as factors[:, None] * prow, with less overhead per row.
        factors = T[:, col].copy()
        pivot = factors[row]
        factors[row] = 0.0
        T[:, col] = 0.0
        T[row, col] = 1.0
        prow = T[row]
        prow /= pivot
        T -= np.einsum("i,j->ij", factors, prow)
        basis[row], nonbasic[col] = nonbasic[col], basis[row]
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


def _tableau(G):
    """Condensed start tableau of the margin LP, with its basis and nonbasic maps."""
    m, k = G.shape

    # Variables: u+ (k), u- (k), t+, t- (the free variables split), then the
    # margin slacks (m) and the cap slack, which make up the start basis.
    # Columns are the 2k + 2 nonbasic variables and the right-hand side.
    tp = 2 * k
    T = np.zeros((m + 2, tp + 3))

    # Margin rows  -G_i u + t + s_i = 0,  the cap row  t + sigma = 1, and
    # the objective row: minimize -t+ + t-.  The start basis is all slack,
    # with zero cost, so the objective needs no pricing out.
    T[:m, 0:k] = -G
    T[:m, k:tp] = G
    T[: m + 1, tp] = 1.0
    T[: m + 1, tp + 1] = -1.0
    T[m, tp + 2] = 1.0
    T[m + 1, tp] = -1.0
    T[m + 1, tp + 1] = 1.0
    return T, np.arange(tp + 2, tp + 3 + m), np.arange(tp + 2)


def _null_tableau(K):
    """Condensed start tableau of the positive-null LP on a crash basis, with its basis and nonbasic maps."""
    n, p = K.shape

    # Gauss-Jordan elimination, one column at a time: a column becomes basic
    # on the free row where it is largest, unless that entry is negligible
    # against K.  Each pivot row then reads s_B + B^-1 N s_N = 0, and rows
    # that never pivot are dependent and dropped.  ``free`` is 1.0 on the rows
    # not yet pivoted and 0.0 on the others, so the product masks the column
    # in place.  The update forms factors[:, None] * prow by
    # ``np.multiply.outer``, not einsum, which would turn -0.0 products into
    # +0.0 and change the tableau's zero signs.
    R = K.copy()
    free = np.ones(n)
    column = np.empty(n)
    rows, basic = [], []
    floor = _PIVOT_TOL * np.abs(K).max(initial=0.0)
    for j in range(p):
        if len(rows) == n:
            break
        np.abs(R[:, j], out=column)
        column *= free
        i = column.argmax()
        if column[i] <= floor:
            continue
        prow = R[i]
        prow /= prow[j]
        factors = R[:, j].copy()
        factors[i] = 0.0
        R -= np.multiply.outer(factors, prow)
        free[i] = 0.0
        rows.append(i)
        basic.append(j)

    # Variables: the slacks s = z - t (p), t, then the cap slack.  Columns are
    # the nonbasic slacks, t (whose column B^-1 K 1 is the row sum) and the
    # right-hand side; rows are the pivot rows, the cap row t + sigma = 1
    # and the objective row: minimize -t.  The start basis has zero cost.
    r = len(rows)
    is_nonbasic = np.ones(p + 1, dtype=bool)
    is_nonbasic[basic] = False
    nonbasic = np.flatnonzero(is_nonbasic)  # the nonbasic slacks, then t
    T = np.zeros((r + 2, p - r + 2))
    pivot_rows = R[rows]
    T[:r, : p - r] = pivot_rows[:, nonbasic[:-1]]
    T[:r, p - r] = pivot_rows.sum(axis=1)
    T[r, p - r] = 1.0
    T[r, p - r + 1] = 1.0
    T[r + 1, p - r] = -1.0
    return T, np.array(basic + [p + 1], dtype=int), nonbasic


def _pivot_to_optimum(T, basis, nonbasic, eps):
    """Run the registered pivot loop on a start tableau; the value of every variable at the optimum."""
    # Dantzig pricing finishes in a few hundred pivots on these LPs; one that
    # runs to several stall windows has drifted, and coarser pricing recovers.
    stall_limit = 1000 + 2 * basis.size
    max_iter = 4 * stall_limit
    status = _KERNELS["python"](T, basis, eps, _PIVOT_TOL, max_iter, stall_limit, nonbasic)
    if status == UNBOUNDED:
        raise _NumericalTrouble("numerically null improving column")
    if status == ITERATION_LIMIT:
        raise _NumericalTrouble("simplex iteration limit exceeded")

    x = np.zeros(basis.size + nonbasic.size)
    x[basis] = T[:-1, -1]
    return x


def _solve_once(G, eps):
    k = G.shape[1]
    x = _pivot_to_optimum(*_tableau(G), eps)
    return MarginResult(float(x[2 * k] - x[2 * k + 1]), x[0:k] - x[k : 2 * k])


def _null_solve_once(K, eps):
    p = K.shape[1]
    x = _pivot_to_optimum(*_null_tableau(K), eps)
    return MarginResult(float(x[p]), x[:p] + x[p])


def _escalated(solve_once, M):
    """``solve_once(M, eps)``, retried with coarser pricing on numerical trouble."""
    eps = _PRICE_EPS
    for _ in range(3):
        try:
            return solve_once(M, eps)
        except _NumericalTrouble as trouble:
            last = trouble
            eps *= 100.0
    raise InvariantViolation(f"margin LP failed numerically after escalation: {last}")


def lp_max_margin(G) -> MarginResult:
    """Maximize the common margin t of ``G u >= t``, ``t <= 1``.

    The LP is always feasible (u = 0, t = 0), and the cap keeps the
    objective bounded.  G may have no columns: the optimum is then 0, or 1
    when G has no rows either.  Rows of G are used as given; callers wanting
    geometrically meaningful margins should normalize them.
    """
    return _escalated(_solve_once, as_matrix(G, name="G"))


def lp_positive_null(K) -> MarginResult:
    """Maximize t subject to ``K z = 0``, ``z >= t``, ``t <= 1``; the witness is z.

    The optimum is 1 when K has a strictly positive null vector and 0 when
    it has none; a positive optimum's z is such a vector, with every entry
    at least t.  K may have no rows (the optimum is 1) or no columns (1 as
    well, with an empty witness).  Rows that the elimination finds
    dependent, to within ``_PIVOT_TOL`` times the largest entry of K, are
    dropped.
    """
    return _escalated(_null_solve_once, as_matrix(K, name="K"))
