import hashlib
import time

import numpy as np
import pytest

from reluregions import (
    DEFAULT_TOL,
    ActivationPattern,
    Dataset,
    Params,
    Sorted1D,
    activation_pattern,
    design_matrix,
    embed_ones,
    fit_exact_1d,
    forward,
    loss,
    lp_max_margin,
    normalize_rows,
    random_complete_step_matrix,
    rational_rank,
    region_global_min_report,
    zero_loss_set,
)
from reluregions import experiments, lp, onedim, optimize
from reluregions.errors import InputError
from reluregions.linalg import Tol
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


def _dict_unit_classes(A, v):
    """Reference labelling: one class per (row bytes, sign of v), numbered by first appearance."""
    classes: dict = {}
    label = np.array([classes.setdefault((row.tobytes(), s), len(classes)) for row, s in zip(A, v > 0.0)])
    return label, np.unique(label, return_index=True)[1]


# Both routes label units through _classes: the margin route by the ids of
# the rows (row, sign of v), the generator route by step code and sign of v.
# Either key gives the classes, numbered the same way, that the rows
# themselves give.


def test_unit_classes_match_dict_labelling():
    # The margin route's key: row ids from _row_ids.
    rng = np.random.default_rng(15)
    shapes = [(400, 30), (93, 5), (50, 70), (40, 130), (1, 1), (7, 8), (12, 9)]
    for case in range(70):
        d1, n = shapes[case % len(shapes)]
        # Draw rows from a few distinct ones so classes repeat, with mixed
        # signs of v inside one row, and distinct rows that differ only in
        # their last bit.
        pool = rng.integers(0, 2, (int(rng.integers(1, 6)), n), dtype=np.int8)
        A = pool[rng.integers(0, pool.shape[0], d1)]
        if case % 2:
            A[rng.integers(0, d1, d1 // 4 + 1), -1] ^= 1
        v = rng.choice([-1.0, 1.0], d1) * rng.uniform(0.5, 2.0, d1)
        label, first = optimize._classes(optimize._row_ids(np.column_stack((A, v > 0.0))))
        expected_label, expected_first = _dict_unit_classes(A, v)
        assert np.array_equal(label, expected_label)
        assert np.array_equal(first, expected_first)
    label, first = optimize._classes(np.zeros(0, dtype=int))
    assert label.size == first.size == 0


def test_step_classes_match_dict_labelling():
    # The generator route's key: step code and sign of v.
    rng = np.random.default_rng(16)
    for case in range(80):
        n = int(rng.integers(1, 9))
        d1 = int(rng.choice([1, 2, 3, 7, 40, 93, 400]))
        steps = np.array([sv.values() for sv in all_step_vectors(n)])
        # A few distinct step rows, all-zero and all-one rows among them, so
        # that rows repeat with both signs of v.
        pool = steps[rng.integers(0, 2 * n, int(rng.integers(1, 6)))]
        pool = np.vstack([pool, np.zeros((1, n), dtype=np.int8), np.ones((1, n), dtype=np.int8)])
        A = pool[rng.integers(0, pool.shape[0], d1)]
        v = rng.choice([-1.0, 1.0], d1) * rng.uniform(0.5, 2.0, d1)
        if case % 3 == 0:
            v = np.abs(v)
        _, k, variant = onedim._step_codes(A)
        assert k.all()
        label, first = optimize._classes((2 * k + variant) * 2 + (v > 0.0))
        expected_label, expected_first = _dict_unit_classes(A, v)
        assert np.array_equal(label, expected_label)
        assert np.array_equal(first, expected_first)


def test_generator_route_labels_units_without_unit_classes(monkeypatch):
    # The 1-d route classes units by their step codes; the row path
    # (_row_ids) serves the margin route only.
    def refused(*args):
        raise AssertionError("_row_ids called on the 1-d route")

    monkeypatch.setattr(optimize, "_row_ids", refused)
    rng = np.random.default_rng(17)
    x = _sorted_x(rng, 6)
    A = ActivationPattern(random_complete_step_matrix(6, _alternating(14), rng))
    report = region_global_min_report(A, x[None, :], rng.standard_normal(6), _alternating(14))
    assert report.contains_zero_loss


def test_targets_whose_squares_overflow_stay_out_of_reach():
    # An all-inactive pattern outputs 0 everywhere.  The norm of these targets
    # is finite though their squared sum is not, so the zero-loss rule still
    # refuses them instead of comparing against an infinite allowance.
    y = np.array([1e200, -1e200, 3e199])
    A = ActivationPattern(np.zeros((4, 3), dtype=np.int8))
    report = region_global_min_report(A, np.array([[-1.0, 0.0, 1.0]]), y, _alternating(4))
    assert (report.contains_zero_loss, report.witness, report.solution_dim, report.margin) == (False, None, None, float("-inf"))


def _uncollapsed_lp(A, X, y, v, tol=DEFAULT_TOL):
    """Test oracle: the homogeneous margin LP with one column block per unit.

    Returns (G, N) for the full d1-unit zero-loss set theta0 + N c, or None
    when the targets are out of reach.  The region meets that set
    exactly when lp_max_margin(G) is positive.
    """
    found = zero_loss_set(A, X, y, v, tol)
    if found is None:
        return None
    theta0, N = found
    Xh = embed_ones(X) if A.bias_flag else X
    d1, n = A.A.shape
    block = Xh.shape[0]
    signs = 2.0 * A.A - 1.0
    R = np.zeros((d1 * n, d1 * block))
    for i in range(d1):
        R[i * n : (i + 1) * n, i * block : (i + 1) * block] = signs[i][:, None] * Xh.T
    scale = np.linalg.norm(theta0)
    if scale == 0.0:
        return normalize_rows(R @ N), N
    cols = np.hstack([N, theta0[:, None] / scale])
    G = np.vstack([normalize_rows(R @ cols), np.eye(1, cols.shape[1], cols.shape[1] - 1)])
    return G, N


def _assert_matches_oracle(A, X, y, v):
    """The report's LP decides as the uncollapsed margin LP does, and its every "yes" witness passes the check."""
    report = region_global_min_report(A, X, y, v)
    lp_form = _uncollapsed_lp(A, X, y, v)
    if lp_form is None:
        assert not report.contains_zero_loss and report.solution_dim is None
        return report
    G, N = lp_form
    assert (report.margin > DEFAULT_TOL.lp_tol) == (lp_max_margin(G).t > DEFAULT_TOL.lp_tol)
    assert report.solution_dim == N.shape[1]
    if report.contains_zero_loss:
        assert _zero_loss_fit(report.witness, A, X, y)
    return report


def _zero_loss_fit(params, A, X, y):
    """The benchmark's witness check: pattern realized off every boundary, residual within tolerance."""
    realized, degenerate = activation_pattern(params, X)
    residual = np.linalg.norm(forward(params, X) - y)
    limit = DEFAULT_TOL.residual_tol * (1.0 + np.linalg.norm(y))
    return not degenerate and np.array_equal(realized.A, A.A) and residual <= limit


def _c10_config(seed):
    return experiments.ExperimentConfig(
        n_values=(5,), d1_values=(93,), d0_rule="1", trials=2, seed=seed, labels="random", init="he"
    )


def _c10_region(seed, trial):
    """(pattern, X, y, v) of one trial of the C10 cell (n=5, d1=93) at grid seed ``seed``."""
    seen = []

    def recording(A, X, y, v, tol):
        seen.append((A, X, y, v))
        return optimize.region_global_min_report(A, X, y, v, tol)

    cfg = _c10_config(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "region_global_min_report", recording)
        experiments._globalmin_block(cfg, cfg.cells()[0], 0, range(trial, trial + 1))
    return seen[-1]


def test_c10_verdicts_and_witnesses_pinned(monkeypatch):
    # Trials 0..49 of the seed-110 C10 cell (the benchmark's globalmin-c10
    # seed).  The first sha256 covers the verdict and resample count of each
    # trial, recorded with the margin route and unchanged by the generator
    # LP and by the central point; the second adds the margin and the
    # witness bytes, re-recorded when the central point came to answer
    # every "yes" of these trials ahead of the generator LP.  Any change of
    # that point's floats, or of pivots or rounding in a solve, moves the
    # second.
    reports = []

    def recording(A, X, y, v, tol):
        reports.append(optimize.region_global_min_report(A, X, y, v, tol))
        return reports[-1]

    monkeypatch.setattr(experiments, "region_global_min_report", recording)
    cfg = _c10_config(110)
    verdicts = hashlib.sha256()
    digest = hashlib.sha256()
    yes = 0
    for trial in range(50):
        [(ok, attempt)] = experiments._globalmin_block(cfg, cfg.cells()[0], 0, range(trial, trial + 1))
        report = reports[-1]
        yes += ok
        verdicts.update(bytes([ok, attempt]))
        digest.update(bytes([ok, attempt]))
        digest.update(np.float64(report.margin).tobytes())
        if report.witness is not None:
            for part in (report.witness.W, report.witness.b, report.witness.v):
                digest.update(np.ascontiguousarray(part).tobytes())
    assert yes == 41
    assert verdicts.hexdigest() == "0506e091abd6d3b2df6e82fc3d748ae6cf684db08862e4afc3fcfb99504e43d8"
    assert digest.hexdigest() == "b7ab88111931af254d086fe7c34c6a3aef932a769564cf78460db56a34255f55"


# Trial 1 at these grid seeds: two data points 2e-4 (300715) and 2e-5
# (303914) apart give |theta0| of 1e3 to 1e4, and an LP with theta0 as a
# constant offset cycled to its iteration limit at every pricing level; the
# 467x831 offset LP of 21600215 did the same after about 20 s.
HARD_C10_SEEDS = (300715, 303914, 21600215)


@pytest.mark.parametrize("seed", HARD_C10_SEEDS)
def test_hard_c10_trial_decided_quickly(seed):
    cfg = _c10_config(seed)
    start = time.perf_counter()
    outcome = experiments._globalmin_block(cfg, cfg.cells()[0], 0, range(1, 2))
    assert outcome == [(True, 0)]
    assert time.perf_counter() - start < 2.0


def test_collapsed_report_matches_uncollapsed_oracle_on_c10():
    # 146100026 trial 1 has two points 7.8e-7 apart; both forms find the
    # zero-loss set in the open region.
    cases = [(seed, 1) for seed in (*HARD_C10_SEEDS, 146100026)]
    cases += [(700000 + i, t) for i in range(20) for t in (0, 1)]
    verdicts = set()
    for seed, trial in cases:
        verdicts.add(_assert_matches_oracle(*_c10_region(seed, trial)).contains_zero_loss)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed,trial", [(146100026, 1), (500781, 0), (9004, 736)])
def test_near_coincident_c10_yes_is_witnessed_by_the_bisector_lp(monkeypatch, seed, trial):
    # Two data points 7.7e-7 (146100026), 3.8e-8 (500781) and 6.5e-7 (9004)
    # apart.  The generator LP finds the zero-loss set in the open region,
    # but the witness built from its vertex fails the check: the first two
    # used to be answered "yes" with that witness, whose residual exceeds
    # residual_tol, and the third "yes" by the margin LP.  The LP over the
    # wedges' bisectors gives a witness that passes, and the margin route
    # is never solved.  The central point, which now answers the first and
    # the third ahead of any LP, is turned off to reach the two LPs.
    A, X, y, v = _c10_region(seed, trial)
    solves = []
    null = optimize.lp_positive_null
    _without_central_point(monkeypatch)
    monkeypatch.setattr(optimize, "lp_positive_null", lambda K: solves.append(K.shape[1]) or null(K))
    monkeypatch.setattr(optimize, "_margin_parts", None)
    report = region_global_min_report(A, X, y, v)
    # One column per ray, then one per class, each with the column -y.
    [rays, classes] = solves
    assert rays - 1 == 2 * (classes - 1)
    assert report.contains_zero_loss and report.margin > DEFAULT_TOL.lp_tol
    assert _zero_loss_fit(report.witness, A, X, y)


@pytest.mark.parametrize("d0,bias,unit_v", [(1, True, True), (2, True, False), (2, False, True), (1, True, False)])
def test_collapsed_report_matches_uncollapsed_oracle_small(d0, bias, unit_v):
    # Few points and many units make equal rows common, so classes of
    # several units are merged; non-unit v checks the witness split
    # theta_i = w_c / (k_c |v_i|).
    rng = np.random.default_rng(14 + 10 * d0 + 2 * bias + unit_v)
    yes = no = merged = 0
    for case in range(60):
        n = int(rng.integers(2, 6))
        d1 = int(rng.integers(2, 12))
        X = rng.standard_normal((d0, n))
        magnitude = 1.0 if unit_v else rng.uniform(0.5, 2.0, d1)
        v = rng.choice([-1.0, 1.0], d1) * magnitude
        p = Params(rng.standard_normal((d1, d0)), rng.standard_normal(d1) if bias else None, v)
        A, degenerate = activation_pattern(p, X)
        if degenerate:
            continue
        y = forward(p, X) if case % 3 == 0 else rng.uniform(-1.0, 1.0, n)
        report = _assert_matches_oracle(A, X, y, v)
        merged += len({(row.tobytes(), s) for row, s in zip(A.A, v > 0)}) < d1
        if report.contains_zero_loss:
            yes += 1
            assert report.margin == pytest.approx(1.0, abs=1e-9)
            assert _zero_loss_fit(report.witness, A, X, y)
        else:
            no += 1
    assert yes >= 10 and no >= 5 and merged >= 20


def test_zero_targets_drop_the_tau_column():
    # y = 0 gives theta0 = 0: the zero-loss set is the linear space N, and
    # here it misses the open region.
    A = ActivationPattern([[0, 1, 1], [1, 1, 0], [1, 1, 1]])
    X = np.array([[0.1, 0.5, 0.9]])
    v = np.array([1.0, -1.0, 1.0])
    report = region_global_min_report(A, X, np.zeros(3), v)
    assert (report.contains_zero_loss, report.solution_dim, report.margin) == (False, 3, 0.0)
    _assert_matches_oracle(A, X, np.zeros(3), v)
    # All units off everywhere: theta = 0 + N c with negative biases fits y = 0.
    A = ActivationPattern(np.zeros((3, 3)))
    report = region_global_min_report(A, X, np.zeros(3), v)
    assert report.contains_zero_loss and report.solution_dim == 6
    assert _zero_loss_fit(report.witness, A, X, np.zeros(3))


def test_no_free_direction():
    # One unit on two points with a bias: D is square and invertible, so
    # q = 0 and only theta0 itself can be the witness.
    A = ActivationPattern([[1, 1]])
    X = np.array([[0.2, 1.1]])
    v = np.array([1.0])
    report = region_global_min_report(A, X, np.array([1.0, 2.0]), v)
    assert report.contains_zero_loss and report.solution_dim == 0
    assert _zero_loss_fit(report.witness, A, X, np.array([1.0, 2.0]))
    # theta0 is outside the cone (negative preactivation at x = 1.1) ...
    report = region_global_min_report(A, X, np.array([1.0, -1.0]), v)
    assert (report.contains_zero_loss, report.solution_dim, report.margin) == (False, 0, 0.0)
    # ... or on its boundary (theta0 = 0, no column at all).
    report = region_global_min_report(A, X, np.zeros(2), v)
    assert (report.contains_zero_loss, report.solution_dim, report.margin) == (False, 0, 0.0)


def test_drifting_margin_lp_retries_instead_of_spinning(monkeypatch):
    # Grid seed 3400002, C10 cell (n=5, d1=93), trial 1.  Solved over all 93
    # units with an equality row pinning an extra variable to 1 (a 468x833
    # tableau), this margin LP drifted (tableau entries near 1e11) until the
    # iteration limit, and only coarser pricing reached the cap t* = 1.  The
    # full-width homogeneous form (a 468x834 tableau) keeps the pivot kernel
    # covered on a large LP: one kernel call at the default pricing.
    kernel_calls = []
    loop = lp._KERNELS["python"]

    def counted(*args):
        kernel_calls.append(args[2])
        return loop(*args)

    A, X, y, v = _c10_region(3400002, 1)
    G, _ = _uncollapsed_lp(A, X, y, v)
    assert G.shape == (466, 182)
    monkeypatch.setitem(lp._KERNELS, "python", counted)
    start = time.perf_counter()
    result = lp_max_margin(G)
    assert time.perf_counter() - start < 10.0
    assert kernel_calls == [lp._PRICE_EPS]
    assert result.t == pytest.approx(1.0, abs=1e-6)
    assert np.all(G @ result.witness >= result.t - 1e-6)

    scipy_optimize = pytest.importorskip("scipy.optimize")
    m, k = G.shape
    highs = scipy_optimize.linprog(
        c=np.r_[np.zeros(k), -1.0],
        A_ub=np.hstack([-G, np.ones((m, 1))]),
        b_ub=np.zeros(m),
        bounds=[(None, None)] * k + [(None, 1.0)],
        method="highs",
    )
    assert highs.status == 0
    assert result.t == pytest.approx(-highs.fun, abs=1e-6)


def test_report_passes_g_as_only_positional_argument(monkeypatch):
    # perfbench's tracer reads a positional second argument (or E=) as
    # equality rows, and so as a solve with a phase 1: G must be the only
    # positional argument.  2-d data takes the margin route.
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return lp_max_margin(*args, **kwargs)

    monkeypatch.setattr(optimize, "lp_max_margin", recording)
    rng = np.random.default_rng(13)
    X = rng.standard_normal((2, 5))
    p = Params(rng.standard_normal((8, 2)), rng.standard_normal(8), _alternating(8))
    A, degenerate = activation_pattern(p, X)
    assert not degenerate
    report = region_global_min_report(A, X, forward(p, X), p.v)
    assert report.contains_zero_loss
    [(args, kwargs)] = calls
    assert len(args) == 1 and not kwargs


def _margin_route(A, X, y, v, tol=DEFAULT_TOL):
    """The report of the margin route, which serves every input the generator route does not take.

    The one seam that forces it on 1-d data with a bias: the generator
    route declines the input.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_generator_parts", lambda *args: None)
        return region_global_min_report(A, X, y, v, tol)


def _without_central_point(mp):
    """Turn off the generator route's central attempt: the point it computes is all zeros, below the lp_tol floor.

    The route then starts with the generator LP, as it did before that attempt existed.
    """
    mp.setattr(optimize, "_central_point", lambda Ur, sr, Vr, y: np.zeros(Vr.shape[1] + 1))


def _cell_regions(**kwargs):
    """(pattern, X, y, v) of every trial of a globalmin grid config, as the grid draws them (resampled at its ``tol``)."""
    cfg = experiments.ExperimentConfig(**kwargs)
    regions = []
    for ci, cell in enumerate(cfg.cells()):
        X, y, A, _ = experiments._draw_block(cfg, cell, ci, range(cfg.trials), labels=True)
        v = experiments._head(cell[2])
        regions += [(ActivationPattern(Ak, cfg.bias), Xk, yk, v) for Ak, Xk, yk in zip(A, X, y)]
    return regions


@pytest.mark.parametrize("labels,init,seed", [("random", "he", 61), ("poly:2", "sqrtd1", 62)])
def test_generator_lp_matches_margin_route_on_1d_cells(labels, init, seed):
    # Random and polynomial targets put no zero-loss set on a region
    # boundary, so the two routes must agree on every verdict and dimension,
    # and every "yes" witness must pass the zero-loss-fit rule.
    yes = no = 0
    for A, X, y, v in _cell_regions(
        n_values=(3, 7, 16), d1_values=(2, 9, 40, 200), d0_rule="1", trials=12, seed=seed, labels=labels, init=init
    ):
        assert optimize._generator_parts(A, ActivationPattern.lift(A, X), y, v, DEFAULT_TOL) is not None
        report = region_global_min_report(A, X, y, v)
        general = _margin_route(A, X, y, v)
        assert (report.contains_zero_loss, report.solution_dim) == (general.contains_zero_loss, general.solution_dim)
        if report.contains_zero_loss:
            yes += 1
            assert report.margin == pytest.approx(1.0, abs=1e-9)
            assert _zero_loss_fit(report.witness, A, X, y)
        else:
            no += 1
    assert yes >= 30 and no >= 30


def _highs_merged_margin(scipy_optimize, A, X, y, v):
    """Test oracle: HiGHS on the merged zero-loss problem in weight coordinates.

    Maximizes t subject to D theta = y, (2 A_cj - 1) <xhat_j, theta_c> >=
    t |xhat_j| and t <= 1, with D the merged design matrix and xhat_j the
    (bias-lifted) input column.  It needs no null-space basis, so it has no
    roundoff-zero region rows; a margin above lp_tol means the zero-loss set
    meets the open region.
    """
    _, first = _dict_unit_classes(A.A, v)
    merged = ActivationPattern(A.A[first], A.bias_flag)
    D = design_matrix(merged, X, np.sign(v[first]))
    Xh = ActivationPattern.lift(merged, X)
    C, n = merged.A.shape
    block = Xh.shape[0]
    R = np.zeros((C * n, C * block))
    for c in range(C):
        R[c * n : (c + 1) * n, c * block : (c + 1) * block] = (2.0 * merged.A[c] - 1.0)[:, None] * (Xh / np.linalg.norm(Xh, axis=0)).T
    result = scipy_optimize.linprog(
        c=np.r_[np.zeros(C * block), -1.0],
        A_ub=np.hstack([-R, np.ones((C * n, 1))]),
        b_ub=np.zeros(C * n),
        A_eq=np.hstack([D, np.zeros((n, 1))]),
        b_eq=y,
        bounds=[(None, None)] * (C * block) + [(None, 1.0)],
        method="highs",
    )
    assert result.status in (0, 2)  # optimal, or the targets are out of reach
    return -result.fun if result.status == 0 else float("-inf")


def _assert_verdicts_match_highs(cases, known=()):
    """Every "yes" witness of ``cases`` (pattern, X, y, v, report) passes the zero-loss-fit rule, and,
    with scipy present, the verdicts that differ from HiGHS's are exactly those at the indices ``known``.
    """
    for A, X, y, v, report in cases:
        if report.contains_zero_loss:
            assert _zero_loss_fit(report.witness, A, X, y)
    try:
        from scipy import optimize as scipy_optimize
    except ImportError:
        return
    differ = [
        i
        for i, (A, X, y, v, report) in enumerate(cases)
        if report.contains_zero_loss != (_highs_merged_margin(scipy_optimize, A, X, y, v) > DEFAULT_TOL.lp_tol)
    ]
    assert differ == sorted(known)


def _reports(tol=DEFAULT_TOL, **kwargs):
    """(pattern, X, y, v, report) of every trial of a globalmin grid config, the report taken at ``tol``."""
    return [(A, X, y, v, region_global_min_report(A, X, y, v, tol)) for A, X, y, v in _cell_regions(tol=tol, **kwargs)]


@pytest.mark.parametrize("n_values,d1_values,seed,trials", [((4,), (12,), 11, 400), ((3, 5), (2, 5, 10), 34, 60)])
def test_teacher_1d_cells_match_highs(n_values, d1_values, seed, trials):
    # Teacher targets can put the zero-loss set on a region boundary.  The
    # generator LP has no roundoff-zero rows there, and the margin route,
    # forced onto the same regions, sets its roundoff-zero rows to exact
    # zero: on both routes every "yes" passes the zero-loss-fit rule, and
    # HiGHS (when scipy is present) agrees with every verdict.  Without the
    # zero-row floor the forced margin route answered "yes" on 10 of these
    # 760 regions where HiGHS answers "no".
    cases = _reports(n_values=n_values, d1_values=d1_values, d0_rule="1", trials=trials, seed=seed, labels="teacher", init="he")
    assert sum(report.contains_zero_loss for *_, report in cases) >= 30
    forced = [(A, X, y, v, _margin_route(A, X, y, v)) for A, X, y, v, _ in cases]
    _assert_verdicts_match_highs(cases + forced)


# Trials (cell index, trial) of the seed-333 teacher grid whose verdict HiGHS
# does not share.  None are left: at (0, 30) and (2, 239) one unit must be
# exactly zero on the zero-loss set yet is active at some point.  Their "yes"
# witnesses gave it weights of about 1e-17, whose relative preactivations
# clear the boundary band and whose outputs fit y to roundoff; the margin
# LP's zero-row floor (``optimize._ZERO_ROW_ULPS``) now reads them "no".
TEACHER_333_KNOWN = ()


@pytest.mark.parametrize("seed,trials", [(33, 60), (333, 400)])
def test_teacher_cells_with_d0_at_least_2_match_highs(seed, trials):
    # The teacher_half_n grid config (d0 = n/2) and its 400-trial draw at
    # seed 333: the margin route's "yes" once went out unchecked, and 16 of
    # 157 and 32 of 791 of its witnesses sat on a region boundary.
    d1_values, known = ((1, 3, 9), ()) if seed == 33 else ((3, 9), TEACHER_333_KNOWN)
    cases = _reports(n_values=(4, 6), d1_values=d1_values, d0_rule="n/2", trials=trials, seed=seed, labels="teacher", init="he")
    assert sum(report.contains_zero_loss for *_, report in cases) >= 100
    _assert_verdicts_match_highs(cases, [ci * trials + t for ci, t in known])


def test_coarse_lp_tol_moves_no_1d_verdict():
    # A coarse lp_tol widens the band in which sampled draws are resampled,
    # not the band a witness must clear: on draws resampled at lp_tol 0.05
    # every verdict equals the verdict at the default tol, and HiGHS's.
    # With the witness band at 0.05 instead, 16 of these 360 regions read
    # "no" at margin 1, though each witness clears the default band.
    kwargs = dict(n_values=(3, 5), d1_values=(2, 4, 8), d0_rule="1", trials=60, seed=36, labels="random", init="he")
    cases = _reports(tol=Tol(lp_tol=0.05), **kwargs)
    for A, X, y, v, report in cases:
        assert region_global_min_report(A, X, y, v).contains_zero_loss == report.contains_zero_loss
    assert sum(report.contains_zero_loss for *_, report in cases) >= 40
    _assert_verdicts_match_highs(cases)


def test_generator_lp_falls_back_to_margin_route(monkeypatch):
    rng = np.random.default_rng(16)
    n, d1 = 5, 12
    v = _alternating(d1)
    A = ActivationPattern(random_complete_step_matrix(n, v, rng))
    X = _sorted_x(rng, n)[None, :]
    y = rng.uniform(-1.0, 1.0, n)
    general = _margin_route(A, X, y, v)
    assert general.contains_zero_loss
    solves = []
    margin_parts = []

    def bogus_yes(K):
        solves.append(K.shape)
        return lp.MarginResult(1.0, np.ones(K.shape[1]))

    # A "yes" whose witness misses the targets is never returned, and the
    # margin route does not decide the region again: after the bisector LP's
    # witness fails as well, the report reads "no" at the generator LP's
    # margin.  The central point, which answers this region, is turned off.
    monkeypatch.setattr(optimize, "lp_positive_null", bogus_yes)
    _without_central_point(monkeypatch)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_margin_parts", lambda *args: margin_parts.append(args))
        report = region_global_min_report(A, X, y, v)
    classes = len(_dict_unit_classes(A.A, v)[1])
    assert solves == [(n, 2 * classes + 1), (n, classes + 1)]
    assert margin_parts == []
    assert (report.contains_zero_loss, report.witness, report.margin) == (False, None, 1.0)
    assert report.solution_dim == general.solution_dim

    # Rows that are not step vectors, repeated points and a single point
    # never reach the generator LP.
    solves.clear()
    cases = [
        (ActivationPattern([[1, 0, 1], [1, 1, 1]]), np.array([[0.1, 0.5, 0.9]]), np.array([0.0, 1.0, 0.0])),
        (ActivationPattern([[1, 1, 1], [0, 1, 1]]), np.array([[0.1, 0.5, 0.5]]), np.array([0.0, 1.0, 1.0])),
        (ActivationPattern([[1], [0]]), np.array([[0.3]]), np.array([1.0])),
    ]
    for A, X, y in cases:
        v = _alternating(2)
        report = region_global_min_report(A, X, y, v)
        general = _margin_route(A, X, y, v)
        assert (report.contains_zero_loss, report.solution_dim) == (general.contains_zero_loss, general.solution_dim)
    assert solves == []


def test_margin_route_never_runs_after_the_generator_lp(monkeypatch):
    # A region whose generator LP has run is decided by it, witness check
    # included: on C10 trials whose first witness fails the check, on
    # teacher cells whose zero-loss sets touch region boundaries and on
    # random C10 trials.  Input the generator route does not take goes to
    # the margin route alone.  The regions are reported twice: with the
    # central point turned off, so that the generator LP runs on every
    # reachable region, and with it counted, where the margin route still
    # never runs.
    regions = [_c10_region(146100026, 1), _c10_region(500781, 0), _c10_region(9004, 736)]
    for n, d1, trials, seed, labels in ((4, 12, 100, 11, "teacher"), (5, 93, 60, 110, "random")):
        regions += _cell_regions(
            n_values=(n,), d1_values=(d1,), d0_rule="1", trials=trials, seed=seed, labels=labels, init="he"
        )
    non_step = ActivationPattern([[1, 0, 1], [1, 1, 1]])
    regions.append((non_step, np.array([[0.1, 0.5, 0.9]]), np.zeros(3), _alternating(2)))
    calls = []
    null, margin_parts, central = optimize.lp_positive_null, optimize._margin_parts, optimize._central_point
    monkeypatch.setattr(optimize, "lp_positive_null", lambda K: calls.append("generator") or null(K))
    monkeypatch.setattr(optimize, "_margin_parts", lambda *args: calls.append("margin") or margin_parts(*args))

    def routes():
        taken = []
        for A, X, y, v in regions:
            calls.clear()
            yes = region_global_min_report(A, X, y, v).contains_zero_loss
            taken.append((tuple(calls), yes))
        return taken

    with pytest.MonkeyPatch.context() as mp:
        _without_central_point(mp)
        lp_only = [route for route, _ in routes()]
    assert set(lp_only[:-1]) <= {(), ("generator",), ("generator", "generator")} and lp_only[-1] == ("margin",)
    assert lp_only[:3] == [("generator", "generator")] * 3 and lp_only.count(("generator",)) >= 100

    monkeypatch.setattr(optimize, "_central_point", lambda *args: calls.append("central") or central(*args))
    taken, verdicts = zip(*routes())
    lp_routes = {("central", "generator"), ("central", "generator", "generator")}
    assert set(taken[:-1]) <= {(), ("central",)} | lp_routes and taken[-1] == ("margin",)
    # The central point is computed on exactly the regions where the
    # generator LP ran, and it answers every "yes" of the random C10 trials
    # (the last 60 before the non-step pattern) with no LP.
    assert [bool(route) for route in taken] == [bool(route) for route in lp_only]
    assert taken[:3] == (("central",), ("central", "generator", "generator"), ("central",))
    c10 = slice(-61, -1)
    assert [route == ("central",) for route in taken[c10]] == list(verdicts[c10])
    assert taken.count(("central",)) >= 80


@pytest.mark.parametrize("ratio,contains", [(0.0, False), (0.5, False), (2.0, True)])
def test_margin_lp_zero_row_floor(ratio, contains):
    # 1-d data without a bias: unit 0 (v = 1) is active on x > 0 and unit 1
    # (v = -1) on x < 0.  The targets a relu(x) + beta min(x, 0) need w_0 = a
    # and w_1 = -beta, so unit 1's region rows on the zero-loss set are
    # x_j beta / |theta0|.  At beta = 0 the zero-loss set lies in unit 1's
    # hyperplane: those rows are zero in exact arithmetic and about 1e-17 in
    # floats, and without the floor 10 of these 40 draws read "yes".  A row
    # at half its floor reads "no" as well; one at twice its floor is real
    # and keeps its "yes".
    C, block, k = 2, 1, 1
    floor = optimize._ZERO_ROW_ULPS * C * block * np.finfo(float).eps * np.sqrt(k)
    rng = np.random.default_rng(71)
    v = np.array([1.0, -1.0])
    verdicts = []
    for _ in range(40):
        x = rng.standard_normal(8)
        while (x > 0.0).all() or (x < 0.0).all():
            x = rng.standard_normal(8)
        a = rng.uniform(0.5, 2.0)
        beta = ratio * floor * a
        A = ActivationPattern(np.array([x > 0.0, x < 0.0], dtype=np.int8), bias_flag=False)
        y = a * np.maximum(x, 0.0) + beta * np.minimum(x, 0.0)
        report = region_global_min_report(A, x[None, :], y, v)
        assert report.solution_dim == 0
        verdicts.append(report.contains_zero_loss)
        if report.contains_zero_loss:
            assert _zero_loss_fit(report.witness, A, x[None, :], y)
    assert verdicts == [contains] * 40


def _factorizations(monkeypatch):
    """Counts of ``np.linalg.svd`` and ``np.linalg.lstsq`` calls from here on."""
    counts = {"svd": 0, "lstsq": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return counts


@pytest.mark.parametrize("reach", [True, False])
def test_margin_report_factors_the_design_matrix_once(monkeypatch, reach):
    # One SVD of the merged design matrix gives the rank, the reachability
    # test, theta0 and N; there is no lstsq call, in reach or out of it.
    rng = np.random.default_rng(72)
    X = rng.standard_normal((2, 10 if not reach else 5))
    d1 = 3 if not reach else 8
    p = Params(rng.standard_normal((d1, 2)), rng.standard_normal(d1), _alternating(d1))
    A, degenerate = activation_pattern(p, X)
    assert not degenerate
    y = rng.standard_normal(X.shape[1]) if not reach else forward(p, X)
    counts = _factorizations(monkeypatch)
    report = region_global_min_report(A, X, y, p.v)
    assert (report.solution_dim is not None, report.contains_zero_loss) == (reach, reach)
    assert counts == {"svd": 1, "lstsq": 0}


def test_generator_report_factors_once(monkeypatch):
    rng = np.random.default_rng(73)
    n, d1 = 5, 12
    v = _alternating(d1)
    A = ActivationPattern(random_complete_step_matrix(n, v, rng))
    X = _sorted_x(rng, n)[None, :]
    counts = _factorizations(monkeypatch)
    region_global_min_report(A, X, rng.uniform(-1.0, 1.0, n), v)
    assert counts == {"svd": 1, "lstsq": 0}
