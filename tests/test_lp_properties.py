"""Property tests of the positive-null LP and its margin case against HiGHS (need hypothesis and scipy)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
scipy_optimize = pytest.importorskip("scipy.optimize")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from reluregions import lp_max_margin, lp_positive_null  # noqa: E402


@st.composite
def null_matrices(draw):
    """K with at most 6 rows and 9 columns (p < n included): integer or Gaussian entries, rank-deficient or with zero columns."""
    n = draw(st.integers(0, 6))
    p = draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = rng.integers(-2, 3, (n, p)).astype(float) if draw(st.booleans()) else rng.standard_normal((n, p))
    if n > 1 and draw(st.booleans()):
        K[-1] = rng.standard_normal(n - 1) @ K[:-1]  # rank-deficient
    if p and draw(st.booleans()):
        K[:, rng.integers(0, p)] = 0.0  # a zero column
    if p and draw(st.booleans()):
        K[:, -1] = 0.0  # y = 0, as the last column of [F, -y]
    return K


def _highs(K):
    n, p = K.shape
    if p == 0:
        return 1.0
    result = scipy_optimize.linprog(
        c=np.r_[np.zeros(p), -1.0],
        A_ub=np.hstack([-np.eye(p), np.ones((p, 1))]),
        b_ub=np.zeros(p),
        A_eq=np.hstack([K, np.zeros((n, 1))]) if n else None,
        b_eq=np.zeros(n) if n else None,
        bounds=[(None, None)] * p + [(None, 1.0)],
        method="highs",
    )
    assert result.status == 0
    return -result.fun


@settings(max_examples=300, deadline=None)
@given(null_matrices())
def test_positive_null_matches_highs(K):
    r = lp_positive_null(K)
    assert r.t == pytest.approx(_highs(K), abs=1e-7)
    assert r.witness.shape == (K.shape[1],)
    assert np.all(r.witness >= r.t - 1e-9)
    if K.size:
        assert np.abs(K @ r.witness).max() <= 1e-8 * (1.0 + np.abs(r.witness).max())


@st.composite
def margin_matrices(draw):
    """G with at most 12 rows and 5 columns (none included): integer or Gaussian, with zero, duplicate or opposing rows."""
    m = draw(st.integers(0, 12))
    k = draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.integers(-2, 3, (m, k)).astype(float) if draw(st.booleans()) else rng.standard_normal((m, k))
    if m > 1 and draw(st.booleans()):
        G[rng.integers(0, m)] = 0.0
    if m > 1 and draw(st.booleans()):
        G[-1] = G[0]
    if m > 1 and draw(st.booleans()):
        G[1] = -G[0]
    return G


def _highs_margin(G):
    m, k = G.shape
    result = scipy_optimize.linprog(
        c=np.r_[np.zeros(k), -1.0],
        A_ub=np.hstack([-G, np.ones((m, 1))]) if m else None,
        b_ub=np.zeros(m) if m else None,
        bounds=[(None, None)] * k + [(None, 1.0)],
        method="highs",
    )
    assert result.status == 0
    return -result.fun


@settings(max_examples=300, deadline=None)
@given(margin_matrices())
def test_margin_slack_start_matches_elimination_start_and_highs(G):
    # One LP from two crash starts: the margin LP's slack basis, and the
    # elimination's basis of the same K = [G, -G, -I].
    m = G.shape[0]
    r = lp_max_margin(G)
    assert r.t == pytest.approx(lp_positive_null(np.hstack([G, -G, -np.eye(m)])).t, abs=1e-7)
    assert r.t == pytest.approx(_highs_margin(G), abs=1e-7)
    assert r.witness.shape == (G.shape[1],)
    assert np.all(G @ r.witness >= r.t - 1e-8)
