import numpy as np
import pytest

from reluregions import (
    DEFAULT_TOL,
    ActivationPattern,
    Dataset,
    Params,
    activation_pattern,
    design_matrix,
    embed_ones,
    forward,
    jacobian_full_rank,
    khatri_rao,
    loss,
    mat_rank,
    rational_rank,
)
from reluregions.errors import InputError
from reluregions.model import stacked_jacobian_full_rank, stacked_patterns
from reluregions.onedim import StepVector


def test_forward_zero_params():
    p = Params(np.zeros((2, 3)), np.zeros(2), np.array([1.0, -1.0]))
    X = np.ones((3, 4))
    assert np.array_equal(forward(p, X), np.zeros(4))


def test_forward_single_unit_relu():
    p = Params(np.array([[1.0]]), np.array([0.0]), np.array([1.0]))
    assert np.array_equal(forward(p, [[-1.0, 2.0]]), [0.0, 2.0])


def test_forward_cancelling_units():
    W = np.array([[0.5, -0.2], [0.5, -0.2]])
    p = Params(W, np.array([0.3, 0.3]), np.array([1.0, -1.0]))
    X = np.random.default_rng(0).standard_normal((2, 5))
    assert np.allclose(forward(p, X), 0.0)


def test_loss_zero_when_exact():
    p = Params(np.array([[1.0]]), np.array([0.0]), np.array([1.0]))
    X = np.array([[1.0, 2.0]])
    data = Dataset(X, forward(p, X))
    assert loss(p, data) == 0.0


def test_loss_zero_network():
    p = Params(np.zeros((1, 1)), np.zeros(1), np.array([1.0]))
    data = Dataset(np.array([[0.5, -0.5]]), np.array([1.0, 1.0]))
    assert loss(p, data) == pytest.approx(1.0)


def test_loss_permutation_invariant():
    rng = np.random.default_rng(1)
    p = Params(rng.standard_normal((3, 2)), rng.standard_normal(3), np.array([1.0, -1.0, 1.0]))
    X = rng.standard_normal((2, 6))
    y = rng.standard_normal(6)
    perm = rng.permutation(6)
    assert loss(p, Dataset(X, y)) == pytest.approx(loss(p, Dataset(X[:, perm], y[perm])))


def test_params_validation():
    with pytest.raises(InputError):
        Params(np.ones((2, 2)), None, np.array([1.0, 0.0]))
    with pytest.raises(InputError):
        Params(np.ones((2, 2)), np.ones(3), np.array([1.0, 1.0]))


def test_activation_pattern_all_positive():
    p = Params(np.ones((2, 1)), np.ones(2), np.array([1.0, -1.0]))
    A, degenerate = activation_pattern(p, [[1.0, 2.0]])
    assert not degenerate
    assert np.array_equal(A.A, np.ones((2, 2)))


def test_activation_pattern_boundary_is_degenerate():
    p = Params(np.zeros((1, 2)), np.zeros(1), np.array([1.0]))
    A, degenerate = activation_pattern(p, np.eye(2))
    assert degenerate
    assert np.array_equal(A.A, np.zeros((1, 2)))


def test_activation_pattern_threshold_row():
    p = Params(np.array([[1.0]]), np.array([-1.5]), np.array([1.0]))
    A, degenerate = activation_pattern(p, [[1.0, 2.0, 3.0]])
    assert not degenerate
    assert np.array_equal(A.A, [[0, 1, 1]])


def test_on_boundary_survives_overflowing_row_norms():
    # Above about 1.3e154 a row's plain sum of squares overflows to inf, which
    # would flag every preactivation as on a boundary.
    p = Params([[1e160], [-1e160]], [0, 0], [1, -1])
    A, degenerate = activation_pattern(p, [[-1, 1]])
    assert not degenerate
    assert np.array_equal(A.A, [[0, 1], [1, 0]])
    W, X = np.array([[1e160, 1e160]]), np.array([[1.0, 1.0], [-1.0, -0.5]])
    assert stacked_patterns(W, None, X, DEFAULT_TOL)[1]  # pre = 0 on the first column
    assert not stacked_patterns(W, None, X[:, 1:], DEFAULT_TOL)[1]  # pre = 5e159
    assert not stacked_patterns(np.ones((1, 1)), np.array([1e200]), np.ones((1, 1)), DEFAULT_TOL)[1]


def test_jacobian_columns_single_unit():
    A = ActivationPattern([[1, 1]], bias_flag=False)
    out = design_matrix(A, [[2.0, 3.0]], [1.0]).T
    assert np.array_equal(out, [[2.0, 3.0]])


def test_jacobian_columns_zero_pattern():
    A = ActivationPattern(np.zeros((2, 3)), bias_flag=False)
    out = design_matrix(A, np.random.default_rng(0).standard_normal((2, 3)), [1.0, -1.0]).T
    assert np.array_equal(out, np.zeros((4, 3)))


def test_jacobian_columns_bias_appends_ones():
    A = ActivationPattern([[1, 1]], bias_flag=True)
    out = design_matrix(A, [[2.0, 3.0]], [1.0]).T
    assert np.array_equal(out, [[2.0, 3.0], [1.0, 1.0]])


def test_jacobian_columns_rejects_zero_v():
    A = ActivationPattern([[1, 1]], bias_flag=False)
    with pytest.raises(InputError):
        design_matrix(A, [[2.0, 3.0]], [0.0])


def test_jacobian_full_rank_suffix_basis():
    n = 4
    x = np.array([[-1.0, -0.2, 0.4, 2.0]])
    rows = np.stack([StepVector(k, 1, n).values() for k in range(1, n + 1)])
    assert jacobian_full_rank(ActivationPattern(rows, bias_flag=True), x)


def test_jacobian_full_rank_zero_pattern():
    A = ActivationPattern(np.zeros((3, 2)), bias_flag=True)
    assert not jacobian_full_rank(A, np.array([[0.1, 0.7]]))


def test_jacobian_full_rank_iff_no_zero_column_when_d0_is_n():
    # With d0 = n and a bias the lifted points (x_j, 1) are linearly
    # independent, so sum_j c_j a_j (x) xhat_j = 0 forces c_j a_ij = 0 for
    # every unit i: the rank is the number of nonzero pattern columns, and
    # the Jacobian has full rank exactly when no column is zero.
    rng = np.random.default_rng(21)
    outcomes = []
    for _ in range(60):
        n = int(rng.integers(1, 7))
        d1 = int(rng.integers(1, 5))
        X = rng.standard_normal((n, n))
        A = rng.integers(0, 2, size=(d1, n))
        A[:, rng.random(n) < 0.2] = 0
        nonzero = int(np.count_nonzero(A.any(axis=0)))
        J = khatri_rao(A.astype(float), embed_ones(X))
        assert rational_rank(J) == nonzero
        full = jacobian_full_rank(ActivationPattern(A, bias_flag=True), X)
        assert full == (nonzero == n)
        outcomes.append(full)
    assert any(outcomes) and not all(outcomes)


def test_head_never_changes_rank():
    # Rank with v-scaled columns equals rank without, for random triples.
    rng = np.random.default_rng(6)
    for _ in range(100):
        d1 = int(rng.integers(1, 5))
        d0 = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        A = rng.integers(0, 2, size=(d1, n)).astype(float)
        X = rng.standard_normal((d0, n))
        v = rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], size=d1)
        assert mat_rank(khatri_rao(v[:, None] * A, X)) == mat_rank(khatri_rao(A, X))


def test_head_never_changes_rank_exact():
    # Same statement through the exact oracle on integer instances.
    rng = np.random.default_rng(8)
    for _ in range(50):
        d1 = int(rng.integers(1, 4))
        d0 = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        A = rng.integers(0, 2, size=(d1, n))
        X = rng.integers(-3, 4, size=(d0, n))
        v = rng.choice([-2, -1, 1, 2], size=d1)
        scaled = khatri_rao((v[:, None] * A).astype(float), X.astype(float))
        plain = khatri_rao(A.astype(float), X.astype(float))
        assert rational_rank(scaled) == rational_rank(plain)


def test_forward_linear_within_region():
    # Two parameter points sharing a pattern: outputs interpolate linearly.
    rng = np.random.default_rng(13)
    found = 0
    while found < 20:
        d1, d0, n = 3, 2, 5
        X = rng.standard_normal((d0, n))
        p1 = Params(rng.standard_normal((d1, d0)), rng.standard_normal(d1), np.array([1.0, -1.0, 1.0]))
        delta = 1e-3 * rng.standard_normal((d1, d0))
        delta_b = 1e-3 * rng.standard_normal(d1)
        p2 = Params(p1.W + delta, p1.b + delta_b, p1.v)
        A1, deg1 = activation_pattern(p1, X)
        A2, deg2 = activation_pattern(p2, X)
        if deg1 or deg2 or not np.array_equal(A1.A, A2.A):
            continue
        found += 1
        lam = float(rng.uniform(0.0, 1.0))
        mid = Params((1 - lam) * p1.W + lam * p2.W, (1 - lam) * p1.b + lam * p2.b, p1.v)
        expected = (1 - lam) * forward(p1, X) + lam * forward(p2, X)
        got = forward(mid, X)
        scale = 1.0 + np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-10 * scale


def test_full_rank_region_reaches_any_target():
    # Full-rank Jacobian makes the per-region linear model surjective: the
    # least-squares residual on the design matrix vanishes for every target.
    from reluregions import design_matrix, least_squares_min_norm
    from reluregions.onedim import StepVector

    rng = np.random.default_rng(17)
    n = 5
    x = np.sort(rng.uniform(-1.0, 1.0, n))[None, :]
    rows = np.stack([StepVector(k, 1, n).values() for k in range(1, n + 1)])
    pattern = ActivationPattern(rows, bias_flag=True)
    assert jacobian_full_rank(pattern, x)
    D = design_matrix(pattern, x, np.ones(n))
    for _ in range(20):
        y = rng.uniform(-3.0, 3.0, n)
        _, residual = least_squares_min_norm(D, y)
        assert residual <= 1e-8 * (1.0 + np.linalg.norm(y))


def test_jacobian_matches_embedding_dimensions():
    A = ActivationPattern([[1, 0, 1], [0, 1, 1]], bias_flag=True)
    X = np.random.default_rng(2).standard_normal((2, 3))
    out = design_matrix(A, X, [1.0, -1.0]).T
    assert out.shape == (2 * 3, 3)
    Xh = embed_ones(X)
    for j in range(3):
        expected = np.kron(np.array([1.0, -1.0]) * A.A[:, j], Xh[:, j])
        assert np.allclose(out[:, j], expected)


@pytest.mark.parametrize("bias", [True, False])
def test_stacked_patterns_and_ranks_match_per_draw(bias):
    rng = np.random.default_rng(23)
    d0, d1, n = 2, 3, 4
    W = rng.uniform(-1.0, 1.0, (9, d1, d0))
    b = rng.uniform(-1.0, 1.0, (9, d1)) if bias else None
    X = rng.standard_normal((9, d0, n))
    W[0, 1] = 0.0  # unit 1 of draw 0 is zero: on a boundary at every point
    if bias:
        b[0, 1] = 0.0
    X[1, :, 2] = 0.0  # point 2 of draw 1 is on a boundary unless there is a bias
    A, degenerate = stacked_patterns(W, b, X, DEFAULT_TOL)
    full = stacked_jacobian_full_rank(A, X, bias)
    assert full.shape == (9,) and full.dtype == bool
    for k in range(9):
        p = Params(W[k], None if b is None else b[k], np.where(np.arange(d1) % 2 == 0, 1.0, -1.0))
        pattern, flag = activation_pattern(p, X[k])
        assert np.array_equal(A[k], pattern.A) and A.dtype == np.int8
        assert degenerate[k] == flag
        assert full[k] == jacobian_full_rank(pattern, X[k])
    assert degenerate.tolist() == [True, not bias] + [False] * 7
