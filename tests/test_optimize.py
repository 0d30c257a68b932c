import time

import numpy as np
import pytest

from reluregions import (
    ActivationPattern,
    Dataset,
    Params,
    Sorted1D,
    activation_pattern,
    design_matrix,
    fit_exact_1d,
    forward,
    loss,
    lp_max_margin,
    random_complete_step_matrix,
    rational_rank,
    region_global_min_report,
    zero_loss_set,
)
from reluregions import experiments, lp, optimize
from reluregions.errors import InputError
from reluregions.onedim import all_step_vectors


def _alternating(d1):
    return np.where(np.arange(d1) % 2 == 0, 1.0, -1.0)


def _sorted_x(rng, n):
    x = np.sort(rng.uniform(-1.0, 1.0, n))
    while np.any(np.diff(x) <= 0.0):
        x = np.sort(rng.uniform(-1.0, 1.0, n))
    return x


def test_design_matrix_single_unit_bias():
    D = design_matrix(ActivationPattern([[1, 1]]), np.array([[2.0, 3.0]]), np.array([1.0]))
    assert np.array_equal(D, [[2.0, 1.0], [3.0, 1.0]])


def test_design_matrix_zero_pattern():
    D = design_matrix(ActivationPattern(np.zeros((2, 3))), np.ones((2, 3)), np.array([1.0, -1.0]))
    assert np.array_equal(D, np.zeros((3, 6)))


def test_design_matrix_agrees_with_forward():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d1 = int(rng.integers(1, 5))
        d0 = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        X = rng.standard_normal((d0, n))
        v = rng.choice([-1.5, -1.0, 1.0, 2.0], size=d1)
        p = Params(rng.standard_normal((d1, d0)), rng.standard_normal(d1), v)
        pattern, degenerate = activation_pattern(p, X)
        if degenerate:
            continue
        D = design_matrix(pattern, X, v)
        theta = np.hstack([p.W, p.b[:, None]]).ravel()
        assert np.allclose(D @ theta, forward(p, X), atol=1e-10)


def test_design_matrix_rejects_zero_v():
    pattern = ActivationPattern([[1, 1]])
    with pytest.raises(InputError):
        design_matrix(pattern, np.ones((1, 2)), np.array([0.0]))
    with pytest.raises(InputError):
        design_matrix(pattern, np.ones((1, 2)), np.array([1.0, -1.0]))
    with pytest.raises(InputError):
        design_matrix(pattern, np.ones((1, 3)), np.array([1.0]))
    with pytest.raises(InputError):
        design_matrix(np.array([[1, 1]]), np.ones((1, 2)), np.array([1.0]))


def test_zero_loss_set_complete_pattern_codimension():
    rng = np.random.default_rng(3)
    n, d1 = 5, 14
    v = _alternating(d1)
    A = ActivationPattern(random_complete_step_matrix(n, v, rng))
    X = _sorted_x(rng, n)[None, :]
    y = rng.uniform(-1.0, 1.0, n)
    found = zero_loss_set(A, X, y, v)
    assert found is not None
    particular, nullspace = found
    assert nullspace.shape == (2 * d1, 2 * d1 - n)
    D = design_matrix(A, X, v)
    assert np.allclose(D @ particular, y, atol=1e-8)


def test_zero_loss_set_dead_region():
    A = ActivationPattern(np.zeros((2, 3)))
    X = np.random.default_rng(4).standard_normal((1, 3))
    assert zero_loss_set(A, X, np.array([1.0, 0.5, -0.2]), _alternating(2)) is None


def test_zero_loss_set_zero_targets():
    A = ActivationPattern(np.zeros((2, 3)))
    X = np.random.default_rng(5).standard_normal((1, 3))
    found = zero_loss_set(A, X, np.zeros(3), _alternating(2))
    assert found is not None
    particular, _ = found
    assert np.allclose(particular, 0.0)


def test_report_complete_pattern_contains_zero_loss():
    rng = np.random.default_rng(6)
    n, d1 = 4, 12
    v = _alternating(d1)
    A = random_complete_step_matrix(n, v, rng)
    X = _sorted_x(rng, n)[None, :]
    y = rng.uniform(-1.0, 1.0, n)
    report = region_global_min_report(ActivationPattern(A), X, y, v)
    assert report.contains_zero_loss
    assert report.solution_dim == 2 * d1 - n
    assert report.margin > 1e-7
    witness = report.witness
    assert loss(witness, Dataset(X, y)) <= 1e-8 * (1.0 + np.linalg.norm(y))
    pattern, degenerate = activation_pattern(witness, X)
    assert not degenerate and np.array_equal(pattern.A, np.asarray(A, dtype=np.int8))


def test_single_unit_cannot_interpolate_mixed_signs():
    # d1 = 1, n = 2, y = (1, -1): no step pattern admits a zero-loss point.
    x = np.array([[0.2, 1.1]])
    y = np.array([1.0, -1.0])
    v = np.array([1.0])
    for sv in all_step_vectors(2):
        A = ActivationPattern(sv.values()[None, :])
        report = region_global_min_report(A, x, y, v)
        assert not report.contains_zero_loss
    # Brute-force oracle: random search cannot push the loss near zero.
    rng = np.random.default_rng(7)
    W = rng.uniform(-20.0, 20.0, (100_000, 2))
    out = v[0] * np.maximum(W[:, :1] * x[0][None, :] + W[:, 1:], 0.0)
    losses = 0.5 * np.sum((out - y) ** 2, axis=1)
    assert losses.min() > 0.3


def test_report_codimension_law_with_exact_rank():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        d1 = 2 * n + int(rng.integers(0, 2 * n))
        v = _alternating(d1)
        A = ActivationPattern(random_complete_step_matrix(n, v, rng))
        X = _sorted_x(rng, n)[None, :]
        y = rng.uniform(-1.0, 1.0, n)
        report = region_global_min_report(A, X, y, v)
        assert report.contains_zero_loss
        assert report.solution_dim == 2 * d1 - n
        D = design_matrix(A, X, v)
        assert rational_rank(D) == n


def test_report_cross_validates_fit_exact():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        d1 = 4 * n
        v = _alternating(d1)
        A = random_complete_step_matrix(n, v, rng)
        x = _sorted_x(rng, n)
        y = rng.uniform(-1.0, 1.0, n)
        D = Sorted1D.from_values(x, y)
        report = region_global_min_report(ActivationPattern(A), x[None, :], y, v)
        assert report.contains_zero_loss
        fitted = fit_exact_1d(A, D, v)
        bound = 1e-8 * (1.0 + np.linalg.norm(y))
        assert loss(fitted, Dataset(x[None, :], y)) <= bound
        assert loss(report.witness, Dataset(x[None, :], y)) <= bound


def test_report_invariant_under_column_permutation():
    rng = np.random.default_rng(10)
    n, d1 = 4, 10
    v = _alternating(d1)
    A = random_complete_step_matrix(n, v, rng)
    X = _sorted_x(rng, n)[None, :]
    y = rng.uniform(-1.0, 1.0, n)
    perm = rng.permutation(n)
    base = region_global_min_report(ActivationPattern(A), X, y, v)
    shuffled = region_global_min_report(ActivationPattern(A[:, perm]), X[:, perm], y[perm], v)
    assert base.contains_zero_loss == shuffled.contains_zero_loss
    assert base.solution_dim == shuffled.solution_dim


def test_report_rank_deficient_width():
    # d1 * (d0 + 1) < n: interpolation impossible for generic targets.
    rng = np.random.default_rng(11)
    x = _sorted_x(rng, 5)[None, :]
    y = rng.uniform(-1.0, 1.0, 5)
    A = ActivationPattern([[1, 1, 1, 1, 1], [0, 1, 1, 1, 1]])
    report = region_global_min_report(A, x, y, _alternating(2))
    assert not report.contains_zero_loss


def test_pattern_object_round_trip():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((2, 3))
    p = Params(rng.standard_normal((2, 2)), rng.standard_normal(2), np.array([1.0, -1.0]))
    pattern, degenerate = activation_pattern(p, X)
    if degenerate:
        pytest.skip("degenerate draw")
    y = forward(p, X)
    report = region_global_min_report(pattern, X, y, p.v)
    assert report.contains_zero_loss  # the sampler's own params witness the region


def test_drifting_margin_lp_retries_instead_of_spinning(monkeypatch):
    # Grid seed 3400002, C10 cell (n=5, d1=93), trial 1.  Solved with an
    # equality row pinning an extra variable to 1 (a 468x833 tableau), this
    # margin LP drifted (tableau entries near 1e11) until the iteration limit,
    # and only coarser pricing reached the cap t* = 1, about 10 s on 2 cores.
    # In the offset form (467x831) it no longer drifts: one kernel call at the
    # default pricing, about 0.5 s.
    solves = []
    kernel_calls = []
    loop = lp._KERNELS["python"]

    def recording(G, h, cap):
        result = lp_max_margin(G, h=h, cap=cap)
        solves.append((G, h, cap, result))
        return result

    def counted(*args):
        kernel_calls.append(args[2])
        return loop(*args)

    monkeypatch.setattr(optimize, "lp_max_margin", recording)
    monkeypatch.setitem(lp._KERNELS, "python", counted)
    cfg = experiments.ExperimentConfig(
        n_values=(5,), d1_values=(93,), d0_rule="1", trials=2, seed=3400002, labels="random", init="he"
    )
    start = time.perf_counter()
    contains_zero_loss, resamples = experiments._globalmin_trial(cfg, cfg.cells()[0], 0, 1)
    elapsed = time.perf_counter() - start
    assert contains_zero_loss and resamples == 0
    assert elapsed < 10.0
    assert kernel_calls == [lp._PRICE_EPS]
    [(G, h, cap, result)] = solves
    assert result.t == pytest.approx(1.0, abs=1e-6)
    assert np.all(G @ result.witness + h >= result.t - 1e-6)

    scipy_optimize = pytest.importorskip("scipy.optimize")
    m, k = G.shape
    highs = scipy_optimize.linprog(
        c=np.r_[np.zeros(k), -1.0],
        A_ub=np.hstack([-G, np.ones((m, 1))]),
        b_ub=h,
        bounds=[(None, None)] * k + [(None, cap)],
        method="highs",
    )
    assert highs.status == 0
    assert result.t == pytest.approx(-highs.fun, abs=1e-6)


def test_report_passes_offset_as_keyword(monkeypatch):
    # perfbench's tracer reads a positional second argument (or E=) as
    # equality rows, and so as a solve with a phase 1; the offset must
    # travel as h= with G the only positional argument.
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return lp_max_margin(*args, **kwargs)

    monkeypatch.setattr(optimize, "lp_max_margin", recording)
    rng = np.random.default_rng(13)
    n, d1 = 4, 12
    v = _alternating(d1)
    A = ActivationPattern(random_complete_step_matrix(n, v, rng))
    report = region_global_min_report(A, _sorted_x(rng, n)[None, :], rng.uniform(-1.0, 1.0, n), v)
    assert report.contains_zero_loss
    [(args, kwargs)] = calls
    assert len(args) == 1 and sorted(kwargs) == ["cap", "h"]
    assert kwargs["h"].shape == (args[0].shape[0],)
