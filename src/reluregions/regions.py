"""Counting, feasibility, and enumeration of activation regions.

A unit's candidate pattern is a binary vector over the data points; the
pattern is realizable exactly when the open cone
``{ w : (2 a_j - 1) <w, xhat_j> > 0 for all j }`` is non-empty, which is
decided by a margin LP (``lp_max_margin``, capped at 1, so a margin above
``lp_tol`` is a yes).  Units have independent parameters, so a pattern
matrix is realizable iff each of its rows is.  Per-unit patterns are
enumerated by extending realizable prefixes (every prefix of one is
realizable) with one LP per realizable prefix: the parent's witness decides
the other child (incremental cell enumeration, Rada and Cerny, SIAM J.
Discrete Math. 32, 2018).  For data in general position their number follows
the hyperplane-arrangement count; on one-dimensional data with a bias and
distinct points they are the 2n one-switch step vectors (``onedim``), which
the enumeration lists without any LP.  They are also the vertex labels of
the zonotope sum_j [0, x_j]; both routes are tested together.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import InputError
from .exact import rational_rank
from .linalg import DEFAULT_TOL, Tol, as_int, as_matrix, embed_ones, normalize_rows
from .lp import lp_max_margin
from .model import ActivationPattern, PatternOnData
from .onedim import _step_pool

__all__ = [
    "UnitPattern",
    "FeasibilityCert",
    "count_regions_general_position",
    "unit_pattern_feasible",
    "region_nonempty",
    "enumerate_feasible_unit_patterns",
    "zonotope_vertex_check",
    "certify_general_position",
]

MAX_ENUMERATED_PATTERNS = 2**16
GENERAL_POSITION_MAX_N = 12


@dataclass(frozen=True, slots=True)
class UnitPattern(PatternOnData):
    """Activation indicator of a single unit over the dataset."""

    a: tuple
    bias_flag: bool = False

    def __post_init__(self) -> None:
        a = tuple(int(x) for x in self.a)
        if any(x not in (0, 1) for x in a):
            raise InputError("pattern entries must be 0 or 1")
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class FeasibilityCert:
    """LP certificate for one unit pattern.

    When feasible, ``witness`` is a (w, b) pair (b None without bias) whose
    preactivation signs strictly realize the pattern with the stated margin.
    """

    feasible: bool
    witness: tuple | None
    margin: float


def count_regions_general_position(n: int, d: int, d1: int) -> int:
    """Number of non-empty activation regions for general-position data.

    Exact big-integer evaluation of ``(2 * sum_{k<d} C(n-1, k)) ** d1``; for
    n <= d this equals 2 ** (n * d1), every pattern being realizable.
    """
    n, d, d1 = as_int(n, "n"), as_int(d, "d"), as_int(d1, "d1")
    if n < 1 or d < 1 or d1 < 1:
        raise InputError("n, d and d1 must all be at least 1")
    per_unit = 2 * sum(comb(n - 1, k) for k in range(d))
    return per_unit**d1


def unit_pattern_feasible(u: UnitPattern, X, tol: Tol = DEFAULT_TOL) -> FeasibilityCert:
    """Decide whether a single unit can realize pattern ``u`` on ``X``.

    Solves the margin LP over the (row-normalized) sign-flipped data columns
    with cap 1; the constraint cone is scale-invariant, so margin 1 is
    attainable whenever any strictly feasible direction exists.  Feasible
    means margin strictly above ``lp_tol``: region membership is an open
    condition and boundary hits must not count.
    """
    Xh = UnitPattern.lift(u, X)
    signs = 2.0 * np.asarray(u.a, dtype=float) - 1.0
    result = lp_max_margin(normalize_rows(signs[:, None] * Xh.T))
    margin = result.t
    if margin <= tol.lp_tol:
        return FeasibilityCert(False, None, margin)
    w = result.witness
    if u.bias_flag:
        witness = (w[:-1].copy(), float(w[-1]))
    else:
        witness = (w.copy(), None)
    return FeasibilityCert(True, witness, margin)


def region_nonempty(A: ActivationPattern, X, tol: Tol = DEFAULT_TOL) -> bool:
    """Whether the full pattern matrix is realizable.

    Units have independent parameters, so the region is a product of
    per-unit cones and is non-empty iff every row passes the unit LP (on
    the lifted inputs, so the rows carry no bias flag).
    """
    Xh = ActivationPattern.lift(A, X)
    return all(unit_pattern_feasible(UnitPattern(tuple(row)), Xh, tol).feasible for row in A.A)


def enumerate_feasible_unit_patterns(X, bias: bool = False, tol: Tol = DEFAULT_TOL) -> list[UnitPattern]:
    """All realizable per-unit patterns, in lexicographic order.

    Breadth-first prefix search: each realizable pattern on the first j
    points is extended by bit 0, then bit 1, and kept if realizable on
    j + 1 points.  The prefix's witness u already settles one child: with
    s = <x_j, u> on the normalized column, s > ``lp_tol`` keeps the 1-child
    and s < -``lp_tol`` the 0-child with u as its witness, so only the other
    child needs an LP: one LP per realizable prefix.  Both children need one
    at the first point and when |s| <= ``lp_tol``.  Refused when Cover's
    bound on the count, valid for any data, exceeds
    ``MAX_ENUMERATED_PATTERNS``.  With a bias on one-dimensional data with
    distinct points a sorted fast path returns the one-switch threshold
    patterns without any LP (``_prefix_search`` is the LP route).
    """
    X = as_matrix(X, name="X")
    n = X.shape[1]
    bound = count_regions_general_position(n, X.shape[0] + int(bias), 1)
    if bound > MAX_ENUMERATED_PATTERNS:
        raise InputError(f"Cover's bound of {bound} patterns exceeds {MAX_ENUMERATED_PATTERNS}")

    if bias and X.shape[0] == 1:
        x = X[0]
        if len(set(x.tolist())) == n:
            patterns = np.empty((2 * n, n), dtype=np.int8)
            patterns[:, np.argsort(x, kind="stable")] = _step_pool(n)  # pool column j is the j-th smallest point
            return [UnitPattern(a, True) for a in sorted(map(tuple, patterns.tolist()))]

    return [UnitPattern(a, bias) for a, _ in _prefix_search(X, bias, tol)]


def _prefix_search(X: np.ndarray, bias: bool, tol: Tol) -> list[tuple[tuple, np.ndarray]]:
    """(pattern, witness) pairs of the LP route, in lexicographic order.

    A witness u lives in the bias-lifted space and has margin above
    ``lp_tol`` on every row of ``signs * normalize_rows(Xh.T)``.  The empty
    prefix gets u = 0, so s = 0 sends both children of the first point to
    the LP.
    """
    Xh = embed_ones(X) if bias else X
    rows = normalize_rows(Xh.T)
    level = [((), np.zeros(Xh.shape[0]))]
    for j in range(X.shape[1]):
        extended = []
        for p, u in level:
            s = float(rows[j] @ u)
            for bit in (0, 1):
                a = p + (bit,)
                if (s if bit else -s) > tol.lp_tol:
                    extended.append((a, u))
                    continue
                signs = 2.0 * np.asarray(a, dtype=float) - 1.0
                result = lp_max_margin(signs[:, None] * rows[: j + 1])
                if result.t > tol.lp_tol:
                    extended.append((a, result.witness))
        level = extended
    return level


def zonotope_vertex_check(S, X, tol: Tol = DEFAULT_TOL) -> bool:
    """Whether the subset sum over ``S`` is a vertex of sum_j [0, x_j].

    A Minkowski sum of segments has the subset sum of S as a vertex exactly
    when some direction w supports it strictly: <w, x_j> > 0 on S and < 0
    off S.  That is the no-bias unit pattern that is 1 on S, decided by the
    unit LP.
    """
    X = as_matrix(X, name="X")
    n = X.shape[1]
    S = frozenset(as_int(j, "each subset index") for j in S)
    if S and (min(S) < 0 or max(S) >= n):
        raise InputError(f"subset indices must lie in [0, {n})")
    a = tuple(int(j in S) for j in range(n))
    return unit_pattern_feasible(UnitPattern(a, bias_flag=False), X, tol).feasible


def certify_general_position(X) -> bool:
    """Exact general-position certificate for the columns of X.

    Checks, in rational arithmetic on the float-snapped entries, that every
    subset of min(d, n) columns has full rank; this implies any k <= d
    columns are linearly independent.  Guards the counting law, which holds
    only for general-position data; refuses more than
    ``GENERAL_POSITION_MAX_N`` columns, the subset scan being exponential.
    """
    X = as_matrix(X, name="X")
    d, n = X.shape
    if n > GENERAL_POSITION_MAX_N:
        raise InputError(f"general-position check limited to {GENERAL_POSITION_MAX_N} columns, got {n}")
    k = min(d, n)
    for cols in combinations(range(n), k):
        if rational_rank(X[:, cols]) < k:
            return False
    return True
