import hashlib

import numpy as np
import pytest

from reluregions import lp, lp_max_margin, lp_positive_null, normalize_rows, optimize, region_global_min_report
from reluregions.errors import InputError, InvariantViolation


@pytest.fixture(params=sorted(lp._KERNELS))
def kernel_entry(request, monkeypatch):
    # Solves must look the pivot loop up in lp._KERNELS at call time: the
    # benchmark's tracer times the kernel by swapping that entry.
    calls = []
    loop = lp._KERNELS[request.param]

    def counted(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setitem(lp._KERNELS, request.param, counted)
    yield request.param
    assert calls, f"no solve reached lp._KERNELS[{request.param!r}]"


def test_opposing_rows_pin_margin_at_zero(kernel_entry):
    r = lp_max_margin(np.array([[1.0], [-1.0]]))
    assert r.t == pytest.approx(0.0, abs=1e-9)


def test_single_row_hits_cap(kernel_entry):
    r = lp_max_margin(np.array([[1.0]]))
    assert r.t == pytest.approx(1.0, abs=1e-9)
    assert r.witness[0] >= 1.0 - 1e-9


def test_midpoint_pattern_is_strictly_feasible(kernel_entry):
    # Pattern (0,1,1) on x = (1,2,3) with bias: rows (2a_j-1) * (x_j, 1).
    x = np.array([1.0, 2.0, 3.0])
    a = np.array([0.0, 1.0, 1.0])
    G = normalize_rows((2 * a - 1)[:, None] * np.column_stack([x, np.ones(3)]))
    r = lp_max_margin(G)
    assert r.t > 1e-7
    w, b = r.witness
    assert np.array_equal(w * x + b > 0, a.astype(bool))


def test_no_free_columns_gives_zero(kernel_entry):
    # Without columns every margin row reads 0 >= t; with no rows either,
    # only the cap binds.
    for m, expected in ((1, 0.0), (3, 0.0), (0, 1.0)):
        r = lp_max_margin(np.zeros((m, 0)))
        assert r.t == pytest.approx(expected, abs=1e-12)
        assert r.witness.shape == (0,)


def test_witness_satisfies_constraints(kernel_entry):
    rng = np.random.default_rng(12)
    for _ in range(100):
        m = int(rng.integers(1, 8))
        k = int(rng.integers(1, 5))
        G = normalize_rows(rng.standard_normal((m, k)))
        r = lp_max_margin(G)
        assert np.all(G @ r.witness >= r.t - 1e-8)
        assert r.t <= 1.0 + 1e-9


def _sampled_margin(G, trials=100_000, seed=0):
    """Brute-force oracle: best margin of G u among random points u."""
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((trials, G.shape[1]))
    return float(np.max(np.min(U @ G.T, axis=1)))


def test_strict_feasibility_matches_sampling_oracle():
    # On instances with <= 4 variables, margin > lp_tol iff a strictly
    # feasible point exists.  Random sampling is the independent oracle; when
    # an unusually thin cone defeats 1e5 samples, the LP's own witness is
    # checked as the strictly feasible point instead, so the certificate
    # never rests on the solver alone.
    rng = np.random.default_rng(31)
    checked_pos = checked_neg = found_by_sampling = 0
    for case in range(40):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        G = normalize_rows(rng.standard_normal((m, k)))
        r = lp_max_margin(G)
        sampled = _sampled_margin(G, seed=case)
        if sampled > 1e-7:
            # brute force found a strictly feasible point: the LP must agree
            assert r.t > 1e-7
            assert r.t >= sampled - 1e-9 or r.t == pytest.approx(1.0, abs=1e-9)
        if r.t > 1e-3:
            checked_pos += 1
            if sampled > 0.0:
                found_by_sampling += 1
            else:
                assert np.min(G @ r.witness) >= r.t - 1e-8
        elif r.t <= 1e-7:
            # cone with empty interior: no sample may achieve a positive margin
            assert sampled <= 1e-9
            checked_neg += 1
    assert checked_pos >= 5 and checked_neg >= 5
    assert found_by_sampling >= 0.8 * checked_pos


def test_optimum_matches_highs():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(41)
    for _ in range(60):
        m = int(rng.integers(1, 30))
        k = int(rng.integers(0, 7))
        G = rng.standard_normal((m, k))
        r = lp_max_margin(G)
        assert np.all(G @ r.witness >= r.t - 1e-8)
        highs = scipy_optimize.linprog(
            c=np.r_[np.zeros(k), -1.0],
            A_ub=np.hstack([-G, np.ones((m, 1))]),
            b_ub=np.zeros(m),
            bounds=[(None, None)] * k + [(None, 1.0)],
            method="highs",
        )
        assert highs.status == 0
        assert r.t == pytest.approx(-highs.fun, abs=1e-7)


_DUPLICATE_ROWS = normalize_rows(np.array([[1.0, 1.0]] * 40 + [[-1.0, 1.0]] * 40 + [[0.5, -1.0]] * 40))


def test_degenerate_duplicate_rows_terminate(kernel_entry):
    r = lp_max_margin(_DUPLICATE_ROWS)
    assert np.all(_DUPLICATE_ROWS @ r.witness >= r.t - 1e-8)


def test_input_validation():
    with pytest.raises(InputError):
        lp_max_margin(np.array([[1.0], [np.inf]]))
    with pytest.raises(InputError):
        lp_max_margin(np.array([1.0, 2.0]))


def test_iteration_limit_retries_with_coarser_pricing(monkeypatch):
    seen = []

    def stalls_first(T, basis, eps, *rest):
        seen.append(eps)
        return lp.ITERATION_LIMIT if len(seen) == 1 else lp.simplex_loop(T, basis, eps, *rest)

    monkeypatch.setitem(lp._KERNELS, "python", stalls_first)
    r = lp_max_margin(np.array([[1.0], [0.5]]))
    assert r.t == pytest.approx(1.0, abs=1e-9)
    assert seen == pytest.approx([1e-9, 1e-7])

    monkeypatch.setitem(lp._KERNELS, "python", lambda *args: lp.ITERATION_LIMIT)
    with pytest.raises(InvariantViolation):
        lp_max_margin(np.array([[1.0]]))


def test_kernel_receives_condensed_tableau_and_pricing_eps(monkeypatch):
    # The tracer reads the tableau shape from argument 0, and the retry tests
    # read the pricing threshold from argument 2.
    seen = []
    loop = lp._KERNELS["python"]

    def recording(*args):
        seen.append((args[0].shape, args[2]))
        return loop(*args)

    monkeypatch.setitem(lp._KERNELS, "python", recording)
    for m, k in ((5, 3), (1, 0), (0, 0), (12, 7)):
        lp_max_margin(np.random.default_rng(m + k).standard_normal((m, k)))
        assert seen.pop() == ((m + 2, 2 * k + 2), lp._PRICE_EPS)


# Test-only oracle: the kernel on the full tableau, which keeps a column for
# every slack (an identity block that pricing never picks).  The condensed
# kernel must make the same pivots and produce the same floats.


def _full_pivot(T, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0


def _full_simplex_loop(T, basis, eps, piv_tol, max_iter, stall_limit):
    """(status, pivots, column ties, row ties) of the full-tableau pivot loop."""
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    obj = T[m]
    bland = False
    stall = pivots = col_ties = row_ties = 0
    for _ in range(max_iter):
        if bland:
            neg = np.nonzero(obj[:n] < -eps)[0]
            if neg.size == 0:
                return lp.OPTIMAL, pivots, col_ties, row_ties
            col = int(neg[0])
            col_ties += neg.size > 1
        else:
            col = int(np.argmin(obj[:n]))
            if obj[col] >= -eps:
                return lp.OPTIMAL, pivots, col_ties, row_ties
            col_ties += np.count_nonzero(obj[:n] == obj[col]) > 1

        column = T[:m, col]
        eligible = column > piv_tol
        if not np.any(eligible):
            return lp.UNBOUNDED, pivots, col_ties, row_ties
        ratios = np.full(m, np.inf)
        ratios[eligible] = T[:m, n][eligible] / column[eligible]
        rmin = float(ratios.min())
        tie = 1e-9 * (1.0 + abs(rmin))
        candidates = np.nonzero(ratios <= rmin + tie)[0]
        row_ties += candidates.size > 1
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

        _full_pivot(T, row, col)
        basis[row] = col
        pivots += 1
    return lp.ITERATION_LIMIT, pivots, col_ties, row_ties


def _assert_kernels_agree(K, start, piv_tol=lp._PIVOT_TOL, max_iter=None, stall_limit=None):
    """Check a condensed start of the positive-null LP of K and pivot it with both kernels.

    ``start`` is (T, basis, nonbasic) as ``lp`` builds it; its basis names the
    basic columns of K.  Returns the oracle's (status, pivots, column ties,
    row ties) and the value of every variable where it stopped.
    """
    n, p = K.shape
    T, basis, nonbasic = (a.copy() for a in start)
    r = basis.size - 1
    assert T.shape == (r + 2, p - r + 2)
    assert np.array_equal(np.sort(np.r_[basis, nonbasic]), np.arange(p + 2))
    assert basis[-1] == p + 1 and nonbasic[-1] == p

    # Start oracle: the pivot rows read s_B + B^-1 N s_N + t B^-1 K 1 = 0 for
    # the basic columns B of K, which must have full column rank; then the
    # cap row t + sigma = 1 and the objective row, minimize -t.
    B = K[:, basis[:-1]]
    assert np.linalg.matrix_rank(B) == r == np.linalg.matrix_rank(K)
    expected = np.linalg.lstsq(B, np.column_stack([K[:, nonbasic[:-1]], K.sum(axis=1)]), rcond=None)[0]
    assert np.allclose(T[:r, :-1], expected, atol=1e-9 * (1.0 + np.abs(expected).max(initial=0.0)))
    assert not T[:r, -1].any()
    t_unit = np.eye(1, p - r + 2, p - r)[0]
    assert np.array_equal(T[r:], [t_unit + np.eye(1, p - r + 2, p - r + 1)[0], -t_unit])

    # The same start as a full tableau (an identity column per basic
    # variable) must take the same pivots to the same floats (== equates
    # the two zeros; the right-hand side must match to the byte).
    F = np.zeros((r + 2, p + 3))
    F[:, np.r_[nonbasic, -1]] = T
    F[np.arange(r + 1), basis] = 1.0
    full_basis = basis.copy()
    stall_limit = 1000 + 2 * basis.size if stall_limit is None else stall_limit
    max_iter = 4 * stall_limit if max_iter is None else max_iter
    outcome = _full_simplex_loop(F, full_basis, lp._PRICE_EPS, piv_tol, max_iter, stall_limit)
    status, pivots = outcome[:2]
    assert lp.simplex_loop(T, basis, lp._PRICE_EPS, piv_tol, max_iter, stall_limit, nonbasic) == status
    assert np.array_equal(basis, full_basis)
    assert np.array_equal(T, F[:, np.r_[nonbasic, -1]])
    assert T[:, -1].tobytes() == F[:, -1].tobytes()
    # Same pivot count: one pivot fewer than it took, it has not finished.
    if status != lp.ITERATION_LIMIT:
        T, basis, nonbasic = (a.copy() for a in start)
        assert lp.simplex_loop(T, basis, lp._PRICE_EPS, piv_tol, pivots, stall_limit, nonbasic) == lp.ITERATION_LIMIT

    x = np.zeros(p + 2)
    x[full_basis] = F[:-1, -1]
    return outcome, x


def _assert_margin_kernels_agree(G, **limits):
    """The oracle on the margin LP of G, the positive-null LP of [G, -G, -I] from its slack basis.

    Returns the oracle's (status, pivots, column ties, row ties).  With the
    solver's own limits, ``lp_max_margin`` must read the same (t, u) bytes.
    """
    m, k = G.shape
    start = lp._margin_tableau(G)
    assert np.array_equal(start[0][:m, :-1], np.column_stack([-G, G, np.ones(m)]))
    outcome, x = _assert_kernels_agree(np.hstack([G, -G, -np.eye(m)]), start, **limits)
    if not limits and outcome[0] == lp.OPTIMAL:
        r = lp_max_margin(G)
        assert np.float64(r.t).tobytes() == x[2 * k + m].tobytes()
        assert r.witness.tobytes() == (x[:k] - x[k : 2 * k]).tobytes()
    return outcome


def _assert_null_kernels_agree(K):
    """The oracle on the positive-null LP of K from its elimination start; returns the pivot count.

    ``lp_positive_null`` must read the same (t, z) bytes.
    """
    p = K.shape[1]
    (status, pivots, _, _), x = _assert_kernels_agree(K, lp._null_tableau(K))
    assert status == lp.OPTIMAL
    result = lp_positive_null(K)
    assert np.float64(result.t).tobytes() == x[p].tobytes()
    assert result.witness.tobytes() == (x[:p] + x[p]).tobytes()
    return pivots


def test_condensed_kernel_matches_full_tableau_on_tied_lps():
    # Small integer entries make equal reduced costs and equal ratios
    # common, so both tie rules decide pivots here.
    rng = np.random.default_rng(51)
    col_ties = row_ties = optimal = 0
    for case in range(300):
        m = int(rng.integers(1, 12))
        k = int(rng.integers(1, 5))
        G = rng.integers(-2, 3, (m, k)).astype(float)
        if case % 3 == 0:
            G = G[rng.integers(0, m, 2 * m)]
        if case % 4 == 0:
            G = normalize_rows(G + (G == 0).all(axis=1, keepdims=True))
        status, _, c, r = _assert_margin_kernels_agree(G)
        optimal += status == lp.OPTIMAL
        col_ties += c
        row_ties += r
    assert optimal == 300
    assert col_ties >= 50 and row_ties >= 50


def test_condensed_kernel_matches_full_tableau_under_blands_rule():
    # stall_limit = 0 switches to Bland's rule at the first degenerate pivot,
    # and every start rhs but the cap's is zero.
    rng = np.random.default_rng(52)
    col_ties = 0
    for _ in range(200):
        m = int(rng.integers(2, 15))
        k = int(rng.integers(1, 6))
        G = rng.integers(-3, 4, (m, k)).astype(float)
        status, pivots, c, _ = _assert_margin_kernels_agree(G, stall_limit=0, max_iter=500)
        assert status == lp.OPTIMAL
        col_ties += c
    assert col_ties >= 50


def test_condensed_kernel_matches_full_tableau_when_unbounded_or_cut_short():
    rng = np.random.default_rng(53)
    statuses = []
    for case in range(120):
        m = int(rng.integers(2, 10))
        k = int(rng.integers(1, 5))
        G = rng.standard_normal((m, k)).round(1)
        if case % 2 == 0:
            # A pivot tolerance above most entries leaves improving columns
            # without an eligible row.
            statuses.append(_assert_margin_kernels_agree(G, piv_tol=float(rng.uniform(0.5, 2.0)))[0])
        else:
            statuses.append(_assert_margin_kernels_agree(G, max_iter=int(rng.integers(0, 4)))[0])
    assert {lp.UNBOUNDED, lp.ITERATION_LIMIT} <= set(statuses)
    # The cap row alone: no margin row binds t, so t enters at the cap row.
    assert _assert_margin_kernels_agree(np.zeros((0, 2)))[:2] == (lp.OPTIMAL, 1)


def _c10_lps(monkeypatch):
    """Margin and generator LPs of twelve C10 trials, as the reports pass them.

    The C10 cell has 1-d data with a bias, so its reports take the n-row
    generator LP; the margin route is called directly to cover the 80-row
    margin LPs as well, and must reach the same verdict.
    """
    from test_optimize import _c10_region, _margin_route

    margin_lps, null_lps = [], []

    def recording(log, solve):
        def record(M):
            log.append(M)
            return solve(M)

        return record

    monkeypatch.setattr(optimize, "lp_max_margin", recording(margin_lps, lp_max_margin))
    monkeypatch.setattr(optimize, "lp_positive_null", recording(null_lps, lp_positive_null))
    for seed in (11000000, 3400002, 300715):
        for trial in range(4):
            A, X, y, v = _c10_region(seed, trial)
            general = _margin_route(A, X, y, v)
            assert region_global_min_report(A, X, y, v).contains_zero_loss == general.contains_zero_loss
    assert len(margin_lps) >= 8 and len(null_lps) >= 8
    assert min(G.shape[0] for G in margin_lps) >= 60
    assert all(K.shape[0] == 5 for K in null_lps)
    return margin_lps, null_lps


def test_condensed_kernel_matches_full_tableau_on_c10_lps(monkeypatch):
    margin_lps, null_lps = _c10_lps(monkeypatch)
    assert max(_assert_margin_kernels_agree(G)[1] for G in margin_lps) >= 20
    assert max(_assert_null_kernels_agree(K) for K in null_lps) >= 2


def test_margin_witness_bytes_pinned(monkeypatch):
    # The sha256 of every (t, u) byte of lp_max_margin on tie-heavy integer
    # G, on the 120 duplicated rows of the degenerate test (ties in every
    # ratio test), and on the C10 margin LPs.  It was recorded with the free-variable (t+, t-) form of the margin
    # LP: the slack-basis start must take the same pivots to the same floats.
    rng = np.random.default_rng(56)
    lps = []
    for case in range(300):
        m = int(rng.integers(1, 12))
        k = int(rng.integers(1, 5))
        G = rng.integers(-2, 3, (m, k)).astype(float)
        if case % 3 == 0:
            G = G[rng.integers(0, m, 2 * m)]
        lps.append(G)
    lps.append(_DUPLICATE_ROWS)
    lps += _c10_lps(monkeypatch)[0]
    digest = hashlib.sha256()
    for G in lps:
        r = lp_max_margin(G)
        digest.update(np.float64(r.t).tobytes())
        digest.update(r.witness.tobytes())
    assert len(lps) == 312
    assert digest.hexdigest() == "45b75c785e36c93c4cd53b9e31695af530e2aa6f380565b7c7ed0ecddf1e8dab"


def test_positive_null_start_matches_full_tableau():
    # Small integer entries give dependent rows, zero columns and ties.
    rng = np.random.default_rng(54)
    dropped = 0
    for case in range(200):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, 12))
        K = rng.integers(-2, 3, (n, p)).astype(float)
        if case % 3 == 0 and n > 1:
            K[-1] = 2.0 * K[0] - K[:-1].sum(axis=0)  # a dependent row
        dropped += lp._null_tableau(K)[1].size - 1 < n
        _assert_null_kernels_agree(K)
    assert dropped >= 50


def _reference_null_tableau(K):
    """Test oracle: the crash start of ``lp._null_tableau`` in its plain form, with a boolean free mask,
    ``np.where``, ``np.outer`` and ``np.append``."""
    n, p = K.shape
    R = K.copy()
    free = np.ones(n, dtype=bool)
    rows, basic = [], []
    floor = lp._PIVOT_TOL * np.abs(K).max(initial=0.0)
    for j in range(p):
        if len(rows) == n:
            break
        column = np.where(free, np.abs(R[:, j]), 0.0)
        i = column.argmax()
        if column[i] <= floor:
            continue
        R[i] /= R[i, j]
        factors = R[:, j].copy()
        factors[i] = 0.0
        R -= np.outer(factors, R[i])
        free[i] = False
        rows.append(i)
        basic.append(j)
    r = len(rows)
    is_basic = np.zeros(p, dtype=bool)
    is_basic[basic] = True
    nonbasic = np.flatnonzero(~is_basic)
    T = np.zeros((r + 2, p - r + 2))
    pivot_rows = R[rows]
    T[:r, : p - r] = pivot_rows[:, nonbasic]
    T[:r, p - r] = pivot_rows.sum(axis=1)
    T[r, p - r] = 1.0
    T[r, p - r + 1] = 1.0
    T[r + 1, p - r] = -1.0
    return T, np.array(basic + [p + 1], dtype=int), np.append(nonbasic, p)


def test_null_tableau_bytes_match_reference_elimination(monkeypatch):
    # Same floats, zero signs included, same bases and nonbasic maps: on the
    # generator LPs of C10 reports (K as the report passes it), on small
    # integer K with dependent rows, zero columns and signed zeros, and on the
    # edge shapes of lp_positive_null.
    null_lps = _c10_lps(monkeypatch)[1]
    rng = np.random.default_rng(55)
    for case in range(150):
        n, p = int(rng.integers(1, 7)), int(rng.integers(1, 12))
        K = rng.integers(-2, 3, (n, p)).astype(float)
        if case % 3 == 0 and n > 1:
            K[-1] = 2.0 * K[0] - K[:-1].sum(axis=0)
        if case % 4 == 0:
            K[K == 0.0] = -0.0
        null_lps.append(K)
    null_lps += [np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((3, 2)), np.array([[1.0, 1.0]]), np.array([[1.0, -2.0, 1.0]]),
                 np.array([[1.0, 2.0, -1.0], [2.0, 4.0, -2.0], [-0.0, 1.0, 3.0]])]
    for K in null_lps:
        T, basis, nonbasic = lp._null_tableau(K)
        T_ref, basis_ref, nonbasic_ref = _reference_null_tableau(np.asarray(K, dtype=float))
        assert T.shape == T_ref.shape and T.tobytes() == T_ref.tobytes()
        assert basis.dtype == basis_ref.dtype and np.array_equal(basis, basis_ref)
        assert nonbasic.dtype == nonbasic_ref.dtype and np.array_equal(nonbasic, nonbasic_ref)


def test_positive_null_edge_shapes():
    # No rows: every z is a null vector.  No columns: only the cap binds.
    for K, t in ((np.zeros((0, 3)), 1.0), (np.zeros((2, 0)), 1.0), (np.zeros((3, 2)), 1.0), (np.array([[1.0, 1.0]]), 0.0)):
        r = lp_positive_null(K)
        assert r.t == pytest.approx(t, abs=1e-12)
        assert r.witness.shape == (K.shape[1],)
        assert np.all(r.witness >= r.t - 1e-12)
    r = lp_positive_null(np.array([[1.0, -2.0, 1.0]]))
    assert r.t == pytest.approx(1.0, abs=1e-12)
    assert r.witness @ [1.0, -2.0, 1.0] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InputError):
        lp_positive_null(np.array([[np.nan]]))
    with pytest.raises(InputError):
        lp_positive_null(np.array([1.0, -1.0]))


def test_positive_null_reaches_the_kernel_registry(kernel_entry):
    assert lp_positive_null(np.array([[1.0, -1.0]])).t == pytest.approx(1.0, abs=1e-12)
