import warnings

import numpy as np
import pytest

from reluregions import (
    Tol,
    embed_ones,
    khatri_rao,
    least_squares_min_norm,
    mat_rank,
    normalize_rows,
    nullspace_basis,
    rational_rank,
)
from reluregions.errors import InputError
from reluregions.linalg import DEFAULT_TOL, _norm, as_int, stacked_khatri_rao, stacked_ranks


def test_mat_rank_identity():
    assert mat_rank(np.eye(3)) == 3


def test_mat_rank_proportional_rows():
    assert mat_rank([[1.0, 2.0], [2.0, 4.0]]) == 1


def test_mat_rank_zero_matrix():
    assert mat_rank(np.zeros((4, 6))) == 0


def test_mat_rank_matches_exact_oracle_on_integers():
    rng = np.random.default_rng(11)
    M = rng.integers(-3, 4, size=(5, 7))
    assert mat_rank(M.astype(float)) == rational_rank(M)


def test_mat_rank_exact_oracle_agreement_bulk():
    # 1000 random 6x8 integer matrices with entries in {-5..5}.
    rng = np.random.default_rng(7)
    for _ in range(1000):
        M = rng.integers(-5, 6, size=(6, 8))
        assert mat_rank(M.astype(float)) == rational_rank(M)


def test_mat_rank_rejects_non_finite():
    with pytest.raises(InputError):
        mat_rank([[np.nan, 1.0]])


def test_nullspace_identity_empty():
    assert nullspace_basis(np.eye(4)).shape == (4, 0)


def test_nullspace_single_row():
    N = nullspace_basis([[1.0, 1.0]])
    assert N.shape == (2, 1)
    direction = N[:, 0] * np.sign(N[0, 0])
    assert np.allclose(direction, np.array([1.0, -1.0]) / np.sqrt(2.0))


def test_rank_nullity_on_constructed_ranks():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rows = rng.integers(2, 7)
        cols = rng.integers(2, 9)
        r = int(rng.integers(0, min(rows, cols) + 1))
        M = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols)) if r else np.zeros((rows, cols))
        assert mat_rank(M) == r
        assert nullspace_basis(M).shape[1] == cols - r
        N = nullspace_basis(M)
        if N.shape[1]:
            assert np.allclose(M @ N, 0.0, atol=1e-9)
            assert np.allclose(N.T @ N, np.eye(N.shape[1]), atol=1e-10)


def test_least_squares_identity():
    y = np.array([2.0, -1.0, 0.5])
    x, res = least_squares_min_norm(np.eye(3), y)
    assert np.allclose(x, y)
    assert res <= 1e-12


def test_least_squares_single_column():
    x, res = least_squares_min_norm([[1.0], [1.0]], [0.0, 2.0])
    assert np.allclose(x, [1.0])
    assert res == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_least_squares_consistent_overdetermined():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((8, 3))
    sol = rng.standard_normal(3)
    y = M @ sol
    x, res = least_squares_min_norm(M, y)
    assert res <= 1e-8 * np.linalg.norm(y)
    assert np.allclose(x, sol, atol=1e-8)


def test_least_squares_min_norm_property():
    # Underdetermined: returned solution is orthogonal to the kernel.
    rng = np.random.default_rng(9)
    M = rng.standard_normal((2, 5))
    y = rng.standard_normal(2)
    x, _ = least_squares_min_norm(M, y)
    N = nullspace_basis(M)
    assert np.allclose(N.T @ x, 0.0, atol=1e-10)


def test_least_squares_length_mismatch():
    with pytest.raises(InputError):
        least_squares_min_norm(np.eye(2), [1.0, 2.0, 3.0])


def test_khatri_rao_ones_row_recovers_x():
    X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(khatri_rao(np.ones((1, 3)), X), X)


def test_khatri_rao_identity_pattern():
    out = khatri_rao(np.eye(2), [[3.0, 5.0]])
    assert np.array_equal(out, [[3.0, 0.0], [0.0, 5.0]])


def test_khatri_rao_rank_inherits_independence():
    rng = np.random.default_rng(2)
    d1, d0, n = 3, 6, 4
    X = rng.standard_normal((d0, n))
    assert mat_rank(khatri_rao(np.ones((d1, n)), X)) == n


def test_khatri_rao_columns_exact():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 5))
    X = rng.standard_normal((2, 5))
    out = khatri_rao(A, X)
    for j in range(5):
        assert np.array_equal(out[:, j], np.kron(A[:, j], X[:, j]))


def test_khatri_rao_column_mismatch():
    with pytest.raises(InputError):
        khatri_rao(np.ones((2, 3)), np.ones((2, 4)))


def test_tol_validation():
    with pytest.raises(InputError):
        Tol(rank_tol=0.0)
    with pytest.raises(InputError):
        Tol(lp_tol=1.5)


def test_embed_ones():
    out = embed_ones([[1.0, 2.0]])
    assert np.array_equal(out, [[1.0, 2.0], [1.0, 1.0]])


def test_embed_ones_matches_vstack_on_any_layout():
    X = np.random.default_rng(3).standard_normal((3, 4))
    for M in (X, X[:, ::2], X.T, np.zeros((0, 4)), np.zeros((2, 0))):
        out = embed_ones(M)
        assert out.dtype == float and out.flags.c_contiguous
        assert np.array_equal(out, np.vstack([M, np.ones((1, M.shape[1]))]))
    with pytest.raises(InputError):
        embed_ones([[1.0, np.inf]])


def _norm_cases(rng):
    """Vectors for ``_norm``: empty, length 1, strided views, subnormal and mixed magnitudes, long."""
    yield np.zeros(0)
    yield np.array([-3.5])
    yield np.array([5e-324])
    yield np.array([0.0, -0.0])
    for size in (2, 3, 5, 7, 16, 31, 93, 128, 1000, 4097):
        x = rng.standard_normal(size)
        yield x
        yield x[::3]
        yield x[::-1]
        yield x * 10.0 ** rng.integers(-150, 150, size)
        yield x * 1e-310
        yield x * (1e150 / np.sqrt(size))
    M = rng.standard_normal((6, 9))
    yield M[:, 2]
    yield M[1:4, ::2]


def test_norm_has_numpys_bits():
    rng = np.random.default_rng(31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in _norm_cases(rng):
            got = _norm(x)
            assert type(got) is float
            assert got == float(np.linalg.norm(x)), x
    assert _norm([3, 4]) == 5.0


def test_norm_survives_overflow_of_the_squared_sum():
    y = np.array([1e200, -1e200, 3e199])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Just below overflow the squared sum is finite and the bits are numpy's.
        below = np.array([9.4e153, -9.4e153])
        assert _norm(below) == float(np.linalg.norm(below))
        assert _norm(y) == pytest.approx(np.sqrt(2.09) * 1e200, rel=1e-15)
        assert _norm(-y[::-1]) == pytest.approx(_norm(y), rel=1e-15)
        assert _norm([1e308, 1e308]) == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-15)
        assert _norm([1.5e308, 1.5e308]) == float("inf")
        assert np.isnan(_norm([np.nan, 1e200]))
        assert _norm([np.inf, 1.0]) == float("inf")
        # The zero-loss rule keeps its meaning on such targets, array-likes included.
        assert DEFAULT_TOL.misses(1e300, y)
        assert DEFAULT_TOL.misses(1e300, y.tolist())
        assert not DEFAULT_TOL.misses(1e190, y)


def test_normalize_rows_keeps_zero_rows():
    out = normalize_rows([[3.0, 4.0], [0.0, 0.0]])
    assert np.allclose(out[0], [0.6, 0.8])
    assert np.array_equal(out[1], [0.0, 0.0])


def test_stacked_ranks_match_mat_rank_per_matrix():
    rng = np.random.default_rng(21)
    tol = Tol()
    for rows, cols in [(5, 7), (8, 3), (1, 4), (4, 1), (6, 6)]:
        stack = []
        for k in range(12):
            r = k % (min(rows, cols) + 1)
            stack.append(rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols)))
        stack.append(np.zeros((rows, cols)))
        stack.append(1e-12 * np.outer(np.arange(rows), np.ones(cols)) + np.eye(rows, cols))
        ranks = stacked_ranks(np.stack(stack), tol)
        assert ranks.shape == (len(stack),)
        assert ranks.tolist() == [mat_rank(M, tol) for M in stack]
    for shape in [(0, 3), (3, 0), (0, 0)]:
        assert mat_rank(np.zeros(shape)) == 0
        assert stacked_ranks(np.zeros((4,) + shape), tol).tolist() == [0] * 4


def test_stacked_khatri_rao_matches_per_pair():
    rng = np.random.default_rng(22)
    A = rng.integers(0, 2, size=(5, 3, 6)).astype(float)
    X = rng.standard_normal((5, 4, 6))
    K = stacked_khatri_rao(A, X)
    assert K.shape == (5, 12, 6)
    for k in range(5):
        assert np.array_equal(K[k], khatri_rao(A[k], X[k]))


def test_as_int_takes_integers_only():
    assert [as_int(v, "k") for v in (3, np.int64(-4), np.uint8(2))] == [3, -4, 2]
    assert all(type(as_int(v, "k")) is int for v in (np.int32(1), 7))
    for bad in (4.5, 4.0, np.float64(1.0), "5", None, True, np.True_):
        with pytest.raises(InputError, match="k must be an integer"):
            as_int(bad, "k")
