"""Property tests of the Gram certificate of full Jacobian rank and of the witness check (needs hypothesis).

``stacked_jacobian_full_rank`` settles most draws without an SVD: too few
rows or a zero pattern column prove rank deficiency, and the spectrum of
J^T J = (A^T A) o (X^T X) proves full rank.  Every answer must equal the
SVD rule on the stacked Khatri-Rao matrices, also on stacks built to sit
near the threshold: duplicate columns, and columns that differ by 1e-3 to
1e-12 of a random direction.  At ``rank_tol`` = 1e-16 the stated rounding
bound, not ``rank_tol``, sets the certificate's floor.

``_witness_fault`` must answer as ``activation_pattern``, ``forward`` and
``Tol.misses`` do together, also on preactivations placed around the
``lp_tol`` boundary band and residuals placed around the zero-loss bound.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from reluregions.linalg import DEFAULT_TOL, Tol, stacked_khatri_rao, stacked_ranks  # noqa: E402
from reluregions.model import (  # noqa: E402
    Params,
    _witness_fault,
    activation_pattern,
    forward,
    stacked_jacobian_full_rank,
)


def _svd_rule(A, X, bias, tol):
    if bias:
        X = np.concatenate([X, np.ones(X.shape[:-2] + (1, X.shape[-1]))], axis=-2)
    return stacked_ranks(stacked_khatri_rao(A.astype(float), X), tol) == A.shape[-1]


@st.composite
def stacks(draw):
    """(A, X, bias) for a stack of up to 6 draws, each changed by one of four edits."""
    n = draw(st.integers(1, 7))
    d0 = draw(st.integers(1, 2 * n))
    d1 = draw(st.integers(1, 6))
    k = draw(st.integers(1, 6))
    bias = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = (rng.random((k, d1, n)) < draw(st.sampled_from([0.5, 0.8, 1.0]))).astype(np.int8)
    X = rng.standard_normal((k, d0, n))
    for t in range(k):
        i, j = rng.integers(0, n, size=2)
        edit = draw(st.sampled_from(["none", "zero", "duplicate", "near"]))
        if edit == "zero":
            A[t, :, i] = 0
        elif edit == "duplicate" and i != j:
            A[t, :, i], X[t, :, i] = A[t, :, j], X[t, :, j]
        elif edit == "near" and i != j:
            scale = 10.0 ** -draw(st.integers(3, 12))
            A[t, :, i] = A[t, :, j]
            X[t, :, i] = X[t, :, j] + scale * rng.standard_normal(d0)
    return A, X, bias


@settings(max_examples=400, deadline=None)
@given(stacks(), st.sampled_from([DEFAULT_TOL, Tol(rank_tol=0.3), Tol(rank_tol=1e-6), Tol(rank_tol=1e-16)]))
def test_certificate_matches_svd_rule(case, tol):
    A, X, bias = case
    full = stacked_jacobian_full_rank(A, X, bias, tol)
    assert full.dtype == bool and full.shape == A.shape[:1]
    assert full.tolist() == _svd_rule(A, X, bias, tol).tolist()


def _counting_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(M, *args, **kwargs):
        calls.append(M.shape)
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("bias", [True, False])
def test_leading_axes_and_settled_draws_skip_the_svd(monkeypatch, bias):
    rng = np.random.default_rng(5)
    A = (rng.random((2, 3, 4, 5)) < 0.8).astype(np.int8)
    A[0, 1, :, 2] = 0
    X = rng.standard_normal((2, 3, 5, 5))
    expected = _svd_rule(A, X, bias, DEFAULT_TOL)
    calls = _counting_svd(monkeypatch)
    full = stacked_jacobian_full_rank(A, X, bias)
    assert full.shape == (2, 3) and full.tolist() == expected.tolist()
    assert not full[0, 1] and calls == []
    # Too few rows: one unit on 5 points in 2 + bias dimensions.
    assert stacked_jacobian_full_rank(A[:, :, :1, :], X[:, :, :2, :], bias).tolist() == [[False] * 3] * 2
    assert calls == []


@pytest.mark.parametrize("bias", [True, False])
def test_overflowing_gram_falls_back_to_the_svd(monkeypatch, bias):
    """Near 1e200 the Gram matrix overflows: every draw goes to the SVD, with no warning."""
    rng = np.random.default_rng(8)
    A = np.ones((3, 4, 4), dtype=np.int8)
    X = 1e200 * rng.standard_normal((3, 4, 4))
    X[2, :, 1] = X[2, :, 0]
    expected = _svd_rule(A, X, bias, DEFAULT_TOL)
    assert expected.tolist() == [True, True, False]
    calls = _counting_svd(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = stacked_jacobian_full_rank(A, X, bias)
    assert full.tolist() == expected.tolist()
    assert len(calls) == 1 and calls[0][0] == 3


def test_underflowing_gram_falls_back_to_the_svd():
    """Near 1e-158 without a bias, X^T X is subnormal and its rounding can fake a well-conditioned G."""
    rng = np.random.default_rng(8)
    A = np.ones((40, 1, 3), dtype=np.int8)
    X = 1e-158 * rng.standard_normal((40, 3, 3))
    X[:, :, 2] = X[:, :, 0] + X[:, :, 1]
    assert not _svd_rule(A, X, False, DEFAULT_TOL).any()
    assert not stacked_jacobian_full_rank(A, X, False).any()


def test_tiny_rank_tol_sends_zero_columns_to_the_svd(monkeypatch):
    """Below the SVD's rounding the zero-column rule is not exact, so the SVD decides."""
    rng = np.random.default_rng(2)
    A = np.ones((2, 3, 4), dtype=np.int8)
    A[0, :, 3] = 0
    X = rng.standard_normal((2, 4, 4))
    tol = Tol(rank_tol=1e-300)
    expected = _svd_rule(A, X, True, tol)
    calls = _counting_svd(monkeypatch)
    assert stacked_jacobian_full_rank(A, X, True, tol).tolist() == expected.tolist()
    assert len(calls) == 1 and calls[0][0] == 1


@st.composite
def witness_cases(draw):
    """(params, pattern, X, y, tol): preactivations and residuals placed around the check's two bounds."""
    n = draw(st.integers(1, 6))
    d0 = draw(st.integers(1, 3))
    d1 = draw(st.integers(1, 5))
    bias = draw(st.booleans())
    tol = draw(st.sampled_from([DEFAULT_TOL, Tol(lp_tol=1e-3, residual_tol=1e-4)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((d0, n))
    W = rng.standard_normal((d1, d0))
    b = rng.standard_normal(d1) if bias else None
    v = rng.choice([-1.0, 1.0], d1) * rng.uniform(0.5, 2.0, d1)
    # Move one preactivation to a multiple of its boundary band lp_tol * scale.
    i, j = int(rng.integers(d1)), int(rng.integers(n))
    if draw(st.booleans()):
        x = X[:, j]
        row = np.sqrt(W[i] @ W[i] + (b[i] ** 2 if bias else 0.0))
        col = np.sqrt(x @ x + (1.0 if bias else 0.0))
        target = draw(st.sampled_from([0.0, 0.5, 0.999, 1.001, 2.0, -1.001])) * tol.lp_tol * row * col
        pre = W[i] @ x + (b[i] if bias else 0.0)
        if bias:
            b[i] += target - pre
        else:
            W[i] += (target - pre) * x / (x @ x)
    p = Params(W, b, v)
    A = (W @ X + (b[:, None] if bias else 0.0) > 0.0).astype(np.int8)
    if draw(st.booleans()):
        A[i, j] ^= 1
    y = None
    if draw(st.booleans()):
        out = forward(p, X)
        # A residual of a multiple of the zero-loss bound, at one point.
        y = out.copy()
        y[j] -= draw(st.sampled_from([0.0, 0.5, 0.999, 1.001, 3.0])) * tol.residual_tol * (1.0 + np.linalg.norm(out))
        if draw(st.booleans()):
            y = rng.standard_normal(n)
    return p, A, X, y, tol


@settings(max_examples=500, deadline=None)
@given(witness_cases())
def test_witness_fault_matches_pattern_forward_and_misses(case):
    p, A, X, y, tol = case
    realized, degenerate = activation_pattern(p, X, tol)
    fault = _witness_fault(p, A, X, y, tol)
    if degenerate or not np.array_equal(realized.A, A):
        assert fault == "left the prescribed activation region"
    elif y is not None and tol.misses(float(np.linalg.norm(forward(p, X) - y)), y):
        assert fault.startswith("missed its target: residual norm ")
    else:
        assert fault is None
