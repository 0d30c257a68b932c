"""Property tests of the generator route's central point (need hypothesis; HiGHS checks need scipy).

On 1-d data with a bias the route first offers the point of the zero-loss
set nearest the all-ones ray (``optimize._central_point``), and a "yes"
from it skips the generator LP.  Wherever it answers, that LP must read
"yes" too, and the verdicts must not depend on the units of y or on the
order of the points and units.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from reluregions import (  # noqa: E402
    DEFAULT_TOL,
    ActivationPattern,
    Params,
    activation_pattern,
    experiments,
    forward,
    lp_positive_null,
    optimize,
    region_global_min_report,
)
from test_optimize import _without_central_point, _zero_loss_fit  # noqa: E402

try:
    from test_lp_properties import _highs
except pytest.skip.Exception:  # scipy is not installed
    _highs = None


@st.composite
def regions(draw):
    """(pattern, X, y, v) of a random network on 1-d data with a bias: random or teacher targets, often reachable."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 8))
    d1 = draw(st.integers(1, 48))
    X = rng.uniform(-1.0, 1.0, (1, n))
    v = rng.choice([-1.0, 1.0], d1) * (1.0 if draw(st.booleans()) else rng.uniform(0.5, 2.0, d1))
    p = Params(rng.standard_normal((d1, 1)), rng.standard_normal(d1), v)
    A, degenerate = activation_pattern(p, X)
    assume(not degenerate)
    if draw(st.booleans()):
        y = rng.uniform(-1.0, 1.0, n)
    else:
        width = int(rng.integers(1, d1 + 1))
        y = forward(Params(rng.standard_normal((width, 1)), rng.standard_normal(width), rng.choice([-1.0, 1.0], width)), X)
    return A, X, y, v


def _report(A, X, y, v):
    """The report and the generator LPs it solved."""
    solved = []
    null = optimize.lp_positive_null
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "lp_positive_null", lambda K: solved.append(K) or null(K))
        report = region_global_min_report(A, X, y, v)
    return report, solved


@settings(max_examples=300, deadline=None)
@given(regions())
def test_central_point_answers_only_where_the_generator_lp_reads_yes(region):
    A, X, y, v = region
    report, solved = _report(A, X, y, v)
    if not (report.contains_zero_loss and not solved):
        return
    # The central point answered: its witness passes the benchmark's check,
    # and the generator LP, solved with the central point turned off, reads
    # "yes" as well, as HiGHS does on the same K.
    assert report.margin == 1.0
    assert _zero_loss_fit(report.witness, A, X, y)
    with pytest.MonkeyPatch.context() as mp:
        _without_central_point(mp)
        lp_report, [K, *_] = _report(A, X, y, v)
    assert lp_report.contains_zero_loss
    assert lp_positive_null(K).t > DEFAULT_TOL.lp_tol
    if _highs is not None:
        assert _highs(K) > DEFAULT_TOL.lp_tol


@settings(max_examples=300, deadline=None)
@given(regions(), st.integers(-10, 10), st.integers(0, 2**32 - 1))
def test_verdict_invariant_under_target_scale_and_permutations(region, k, seed):
    A, X, y, v = region
    verdict = region_global_min_report(A, X, y, v).contains_zero_loss
    assert region_global_min_report(A, X, 2.0**k * y, v).contains_zero_loss == verdict
    rng = np.random.default_rng(seed)
    points = rng.permutation(A.n)
    units = rng.permutation(A.d1)
    permuted = ActivationPattern(A.A[units][:, points], A.bias_flag)
    assert region_global_min_report(permuted, X[:, points], y[points], v[units]).contains_zero_loss == verdict


@pytest.mark.parametrize("trial", [88, 345])
def test_central_point_below_the_floor_is_not_offered(monkeypatch, trial):
    # Trials 88 and 345 of the n = 6, d1 = 8 teacher cell at seed 41: the
    # generator LP and HiGHS read "no".  The central point is positive, but
    # some entries sit at rounding level (about 3e-15 and 6e-15 against a
    # largest entry of 10 and 3), and without the lp_tol floor its witness
    # passed the check and the trial read "yes".
    cfg = experiments.ExperimentConfig(
        n_values=(6,), d1_values=(8,), d0_rule="1", trials=500, seed=41, labels="teacher", init="he"
    )
    points = []
    central = optimize._central_point
    monkeypatch.setattr(optimize, "_central_point", lambda *args: points.append(central(*args)) or points[-1])
    assert experiments._globalmin_block(cfg, cfg.cells()[0], 0, range(trial, trial + 1)) == [(False, 0)]
    [z] = points
    assert 0.0 < z.min() <= DEFAULT_TOL.lp_tol * z.max()
