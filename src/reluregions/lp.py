"""Dense primal simplex for one LP, the positive-null LP, and its margin case.

Both solvers pose the same LP,

    maximize t  subject to  K z = 0,  z >= t * 1,  0 <= t <= 1,

whose positive optimum certifies a strictly positive point of the null
space of K (Stiemke's lemma gives the alternative); the cone is scale-free,
so that optimum is the cap, 1.  Its variables are the slacks s = z - t, t
and the cap slack, all nonnegative: z = 0 is feasible, so t needs no free
split.  The right-hand side is zero, so any nonsingular choice of columns
is a feasible start basis (a crash basis, Bixby 1992) and the simplex
starts without a phase 1.

``lp_positive_null(K)`` picks its crash basis by Gauss-Jordan elimination
with partial pivoting, which also drops the dependent rows of K; it has one
row per independent row of K.  Its witness is z = s + t.

``lp_max_margin(G)`` asks whether ``G u > 0`` has a solution, which is how
the package certifies membership in open polyhedral regions.  It has one
exactly when K = [G, -G, -I] has a strictly positive null vector
z = (u+, u-, G u): u+ and u- can be shifted by a common constant.  The
slack columns of -I are a crash basis
with B^-1 = -I, so the start tableau is written directly, with no
elimination: B^-1 N = [-G, G] and a t column of exactly 1.0.  The witness
is u = s(u+) - s(u-), read from the slack values, in which the common t
cancels.  The variable order (u+, u-, margin slacks, t, cap slack) puts u
before the margin slacks, so ties, which go to the smallest variable index,
send u into the basis before a margin slack that has left it; t enters at
the first pivot.

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
    """Optimal margin ``t`` of an LP and its witness: ``u`` for ``lp_max_margin``, ``z`` for ``lp_positive_null``."""

    t: float
    witness: np.ndarray


def _start_tableau(r, q, t_column):
    """Condensed start tableau with ``r`` pivot rows and ``q`` nonbasic slack columns; the caller writes B^-1 N.

    Columns are the nonbasic slacks, t (whose column is ``t_column``, that is
    B^-1 K 1) and the right-hand side; rows are the pivot rows
    s_B + B^-1 N s_N + t B^-1 K 1 = 0, the cap row t + sigma = 1 and the
    objective row: minimize -t.  The start basis has zero cost, so the
    objective needs no pricing out.
    """
    T = np.zeros((r + 2, q + 2))
    T[:r, q] = t_column
    T[r, q:] = 1.0
    T[r + 1, q] = -1.0
    return T


def _margin_tableau(G):
    """Slack-basis start of the positive-null LP on [G, -G, -I], with its basis and nonbasic maps."""
    m, k = G.shape

    # B = -I, so B^-1 N = [-G, G] and the t column B^-1 K 1 = -(-1) is
    # exactly 1.0 (summing the rows of K would round).  Variables: u+ (k),
    # u- (k), the margin slacks (m), t, then the cap slack; the basis is the
    # margin slacks and the cap slack.
    T = _start_tableau(m, 2 * k, 1.0)
    T[:m, :k] = -G
    T[:m, k : 2 * k] = G
    basis = np.arange(2 * k, 2 * k + m + 1)
    basis[-1] += 1
    nonbasic = np.arange(2 * k + 1)
    nonbasic[-1] += m
    return T, basis, nonbasic


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

    # Variables: the slacks s = z - t (p), t, then the cap slack.  The t
    # column B^-1 K 1 is the row sum of the pivot rows.
    r = len(rows)
    is_nonbasic = np.ones(p + 1, dtype=bool)
    is_nonbasic[basic] = False
    nonbasic = np.flatnonzero(is_nonbasic)  # the nonbasic slacks, then t
    pivot_rows = R[rows]
    T = _start_tableau(r, p - r, pivot_rows.sum(axis=1))
    T[:r, : p - r] = pivot_rows[:, nonbasic[:-1]]
    return T, np.array(basic + [p + 1], dtype=int), nonbasic


def _solve(start, M):
    """Pivot the start tableau ``start(M)`` to the optimum, rebuilt with coarser pricing on numerical trouble.

    Returns the value of every variable at the optimum.
    """
    eps = _PRICE_EPS
    for _ in range(3):
        T, basis, nonbasic = start(M)
        # Dantzig pricing finishes in a few hundred pivots on these LPs; one
        # that runs to several stall windows has drifted, and coarser pricing
        # recovers.
        stall_limit = 1000 + 2 * basis.size
        status = _KERNELS["python"](T, basis, eps, _PIVOT_TOL, 4 * stall_limit, stall_limit, nonbasic)
        if status == OPTIMAL:
            x = np.zeros(basis.size + nonbasic.size)
            x[basis] = T[:-1, -1]
            return x
        eps *= 100.0
    trouble = "numerically null improving column" if status == UNBOUNDED else "simplex iteration limit exceeded"
    raise InvariantViolation(f"LP on a {M.shape[0]}x{M.shape[1]} matrix failed numerically after escalation: {trouble}")


def lp_max_margin(G) -> MarginResult:
    """Maximize the common margin t of ``G u >= t``, ``0 <= t <= 1``; the witness is u.

    The LP is the positive-null LP on [G, -G, -I], started from its slack
    basis.  It is always feasible (u = 0, t = 0), and the cap keeps the
    objective bounded.  G may have no columns: the optimum is then 0, or 1
    when G has no rows either.  Rows of G are used as given; callers wanting
    geometrically meaningful margins should normalize them.
    """
    G = as_matrix(G, name="G")
    m, k = G.shape
    x = _solve(_margin_tableau, G)
    return MarginResult(float(x[2 * k + m]), x[:k] - x[k : 2 * k])


def lp_positive_null(K) -> MarginResult:
    """Maximize t subject to ``K z = 0``, ``z >= t``, ``0 <= t <= 1``; the witness is z.

    The optimum is 1 when K has a strictly positive null vector and 0 when
    it has none; a positive optimum's z is such a vector, with every entry
    at least t.  K may have no rows (the optimum is 1) or no columns (1 as
    well, with an empty witness).  Rows that the elimination finds
    dependent, to within ``_PIVOT_TOL`` times the largest entry of K, are
    dropped.
    """
    K = as_matrix(K, name="K")
    p = K.shape[1]
    x = _solve(_null_tableau, K)
    return MarginResult(float(x[p]), x[:p] + x[p])
