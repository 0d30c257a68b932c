"""Property test of the exact 1-d fit on adversarial spacings (needs hypothesis).

Neighbour gaps are drawn log-uniformly from 1e-9 to 1, so some draws put
points closer than any strictly switching unit can separate.  Every call
either returns a fit that hits the targets inside the prescribed region or
refuses the data as too close; the refusal never comes when every gap is at
least 10 * lp_tol.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from reluregions import Dataset, Sorted1D, activation_pattern, fit_exact_1d, loss, random_complete_step_matrix  # noqa: E402
from reluregions.errors import InputError  # noqa: E402
from reluregions.linalg import DEFAULT_TOL  # noqa: E402


@st.composite
def spaced_data(draw):
    n = draw(st.integers(1, 10))
    log_gaps = np.array(draw(st.lists(st.floats(-9.0, 0.0), min_size=n - 1, max_size=n - 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    gaps = 10.0**log_gaps
    if gaps.sum() > 2.0:
        gaps *= 2.0 / gaps.sum()
    start = -1.0 + rng.uniform(0.0, 1.0) * max(2.0 - gaps.sum(), 0.0)
    x = start + np.concatenate([[0.0], np.cumsum(gaps)])
    x = np.clip(x, -1.0, 1.0)
    if np.any(np.diff(x) <= 0.0):
        x = np.linspace(-1.0, 1.0, n) if n > 1 else np.zeros(1)
    pos = n + int(rng.integers(0, n + 1))
    neg = n + int(rng.integers(0, n + 1))
    v = np.concatenate([rng.uniform(0.25, 4.0, pos), -rng.uniform(0.25, 4.0, neg)])[rng.permutation(pos + neg)]
    data = Sorted1D.from_values(x, rng.uniform(-1.0, 1.0, n))
    return random_complete_step_matrix(n, v, rng), data, v


@settings(max_examples=300, deadline=None)
@given(case=spaced_data())
def test_fit_exact_on_adversarial_spacings(case):
    A, data, v = case
    X = data.as_columns()
    try:
        params = fit_exact_1d(A, data, v)
    except InputError as err:
        assert "too close" in str(err)
        assert np.min(np.diff(data.x)) < 10.0 * DEFAULT_TOL.lp_tol
        return
    assert loss(params, Dataset(X, data.y)) <= DEFAULT_TOL.residual_tol * (1.0 + np.linalg.norm(data.y))
    pattern, degenerate = activation_pattern(params, X)
    assert not degenerate and np.array_equal(pattern.A, A.astype(np.int8))
