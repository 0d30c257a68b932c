import numpy as np
import pytest

from reluregions import lp, lp_max_margin, normalize_rows
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
    r = lp_max_margin(np.array([[1.0], [-1.0]]), cap=1.0)
    assert r.t == pytest.approx(0.0, abs=1e-9)


def test_single_row_hits_cap(kernel_entry):
    r = lp_max_margin(np.array([[1.0]]), cap=1.0)
    assert r.t == pytest.approx(1.0, abs=1e-9)
    assert r.witness[0] >= 1.0 - 1e-9


def test_midpoint_pattern_is_strictly_feasible(kernel_entry):
    # Pattern (0,1,1) on x = (1,2,3) with bias: rows (2a_j-1) * (x_j, 1).
    x = np.array([1.0, 2.0, 3.0])
    a = np.array([0.0, 1.0, 1.0])
    G = normalize_rows((2 * a - 1)[:, None] * np.column_stack([x, np.ones(3)]))
    r = lp_max_margin(G, cap=1.0)
    assert r.t > 1e-7
    w, b = r.witness
    assert np.array_equal(w * x + b > 0, a.astype(bool))


def test_no_free_columns_gives_zero(kernel_entry):
    # Without columns every margin row reads 0 >= t; with no rows either,
    # only the cap binds.
    for m, expected in ((1, 0.0), (3, 0.0), (0, 1.0)):
        r = lp_max_margin(np.zeros((m, 0)), cap=1.0)
        assert r.t == pytest.approx(expected, abs=1e-12)
        assert r.witness.shape == (0,)


def test_witness_satisfies_constraints(kernel_entry):
    rng = np.random.default_rng(12)
    for _ in range(100):
        m = int(rng.integers(1, 8))
        k = int(rng.integers(1, 5))
        G = normalize_rows(rng.standard_normal((m, k)))
        r = lp_max_margin(G, cap=1.0)
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
        r = lp_max_margin(G, cap=1.0)
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
        r = lp_max_margin(G, cap=1.0)
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


def test_degenerate_duplicate_rows_terminate(kernel_entry):
    G = normalize_rows(np.array([[1.0, 1.0]] * 40 + [[-1.0, 1.0]] * 40 + [[0.5, -1.0]] * 40))
    r = lp_max_margin(G, cap=1.0)
    assert np.all(G @ r.witness >= r.t - 1e-8)


def test_input_validation():
    with pytest.raises(InputError):
        lp_max_margin(np.array([[1.0]]), cap=0.0)
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
    r = lp_max_margin(np.array([[1.0], [0.5]]), cap=1.0)
    assert r.t == pytest.approx(1.0, abs=1e-9)
    assert seen == pytest.approx([1e-9, 1e-7])

    monkeypatch.setitem(lp._KERNELS, "python", lambda *args: lp.ITERATION_LIMIT)
    with pytest.raises(InvariantViolation):
        lp_max_margin(np.array([[1.0]]), cap=1.0)
