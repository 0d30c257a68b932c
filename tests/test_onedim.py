import numpy as np
import pytest

from reluregions import (
    Dataset,
    Sorted1D,
    UnitPattern,
    activation_pattern,
    all_step_vectors,
    classify_step_row,
    classify_step_rows,
    coupon_collector_bound,
    fit_exact_1d,
    forward,
    is_complete,
    is_diverse,
    loss,
    random_complete_step_matrix,
    rational_rank,
    sample_step_matrix,
    step_vector,
    unit_pattern_feasible,
    width_thresholds,
    witness_params_1d,
)
from reluregions.errors import InputError
from reluregions.onedim import StepVector

RNG = np.random.default_rng(2024)


def _sorted_data(rng, n, y=None):
    x = np.sort(rng.uniform(-1.0, 1.0, n))
    while np.any(np.diff(x) <= 0.0):
        x = np.sort(rng.uniform(-1.0, 1.0, n))
    targets = rng.uniform(-1.0, 1.0, n) if y is None else np.asarray(y, dtype=float)
    return Sorted1D.from_values(x, targets)


def _alternating(d1):
    return np.where(np.arange(d1) % 2 == 0, 1.0, -1.0)


def test_step_vector_constants():
    assert np.array_equal(step_vector(1, 1, 4), [1, 1, 1, 1])
    assert np.array_equal(step_vector(1, 0, 4), [0, 0, 0, 0])
    assert np.array_equal(step_vector(5, 0, 4), [1, 1, 1, 1])
    assert np.array_equal(step_vector(5, 1, 4), [0, 0, 0, 0])


def test_step_vector_switch():
    assert np.array_equal(step_vector(3, 0, 4), [1, 1, 0, 0])
    assert np.array_equal(step_vector(3, 1, 4), [0, 0, 1, 1])


def test_step_vector_range_error():
    with pytest.raises(InputError):
        step_vector(6, 0, 4)


def test_classify_examples():
    sv = classify_step_row([0, 1, 1])
    assert (sv.k, sv.variant) == (2, 1)
    assert classify_step_row([1, 0, 1]) is None


def test_classify_round_trip_all():
    for n in range(1, 8):
        pool = all_step_vectors(n)
        assert len(pool) == 2 * n
        assert len({tuple(sv.values()) for sv in pool}) == 2 * n
        for sv in pool:
            back = classify_step_row(sv.values())
            assert (back.k, back.variant, back.n) == (sv.k, sv.variant, sv.n)


def test_canonicalization_of_constants():
    assert StepVector(5, 1, 4).canonical() == StepVector(1, 0, 4)
    assert StepVector(5, 0, 4).canonical() == StepVector(1, 1, 4)


def test_diverse_suffix_basis():
    n = 5
    A = np.stack([step_vector(k, 1, n) for k in range(1, n + 1)])
    assert is_diverse(A)


def test_diverse_requires_ones_row():
    A = np.zeros((4, 3), dtype=int)
    assert not is_diverse(A)
    # every threshold covered by prefixes, but no all-ones row
    B = np.stack([step_vector(k, 0, 3) for k in (1, 2, 3)])
    assert not is_diverse(B)


def test_diverse_implies_full_rank_exact():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        variants = rng.integers(0, 2, n)
        rows = [step_vector(k, int(variants[k - 1]), n) for k in range(1, n + 1)]
        rows.append(step_vector(1, 1, n))
        extra = int(rng.integers(0, n))
        A = np.concatenate([np.stack(rows), sample_step_matrix(n, extra, rng)]) if extra else np.stack(rows)
        A = A[rng.permutation(A.shape[0])]
        if not is_diverse(A):
            continue
        assert rational_rank(A) == n


def test_complete_example_and_negations():
    n = 3
    rows = []
    for k in range(1, n + 1):
        rows.append(step_vector(k, 1, n))
        rows.append(step_vector(k, 1, n))
    A = np.stack(rows)
    v = _alternating(2 * n)
    assert is_complete(A, v)
    assert not is_complete(A, np.ones(2 * n))
    assert is_diverse(A)


def test_complete_implies_diverse_random():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        d1 = 2 * n + int(rng.integers(0, 2 * n))
        v = _alternating(d1)
        A = random_complete_step_matrix(n, v, rng)
        assert is_complete(A, v)
        assert is_diverse(A)


def test_witness_midpoint_example():
    D = Sorted1D.from_values([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    p = witness_params_1d(np.array([[0, 1, 1]]), D)
    assert p.W[0, 0] == pytest.approx(1.0)
    assert p.b[0] == pytest.approx(-1.5)
    pattern, degenerate = activation_pattern(p, D.as_columns())
    assert not degenerate and np.array_equal(pattern.A, [[0, 1, 1]])


def test_witness_constant_row_example():
    D = Sorted1D.from_values([-2.0, 0.0, 5.0], [0.0, 0.0, 0.0])
    p = witness_params_1d(np.array([[1, 1, 1]]), D)
    assert p.b[0] == pytest.approx(5.0)
    assert np.all(p.W[0, 0] * D.x + p.b[0] > 0)


def test_witness_round_trip_exhaustive():
    rng = np.random.default_rng(9)
    D = _sorted_data(rng, 3)
    pool = all_step_vectors(3)
    for a in pool:
        for b in pool:
            A = np.stack([a.values(), b.values()])
            p = witness_params_1d(A, D)
            pattern, degenerate = activation_pattern(p, D.as_columns())
            assert not degenerate
            assert np.array_equal(pattern.A, A.astype(np.int8))


def test_witness_rejects_non_step():
    D = Sorted1D.from_values([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    with pytest.raises(InputError):
        witness_params_1d(np.array([[1, 0, 1]]), D)


def test_sorted1d_rejects_duplicates():
    with pytest.raises(InputError):
        Sorted1D.from_values([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


def test_feasible_iff_step_exhaustive():
    # Both directions of the step-vector law for n <= 5.
    rng = np.random.default_rng(12)
    for n in range(2, 6):
        x = _sorted_data(rng, n).x[None, :]
        for code in range(2**n):
            a = tuple((code >> (n - 1 - j)) & 1 for j in range(n))
            feasible = unit_pattern_feasible(UnitPattern(a, True), x).feasible
            assert feasible == (classify_step_row(a) is not None)


def test_fit_exact_single_point_pair():
    D = Sorted1D.from_values([0.0], [-2.0])
    A = np.array([[1], [1]])
    v = np.array([1.0, -1.0])
    p = fit_exact_1d(A, D, v)
    assert forward(p, D.as_columns())[0] == pytest.approx(-2.0, abs=1e-12)
    pre = p.W[:, 0] * 0.0 + p.b
    assert np.all(pre > 0)


def test_fit_exact_zero_targets_no_slack():
    n = 4
    rng = np.random.default_rng(15)
    D = _sorted_data(rng, n, y=np.zeros(n))
    rows = []
    for k in range(1, n + 1):
        rows.append(step_vector(k, 1, n))
        rows.append(step_vector(k, 1, n))
    A = np.stack(rows)
    v = _alternating(2 * n)
    p = fit_exact_1d(A, D, v)
    assert np.max(np.abs(forward(p, D.as_columns()))) == 0.0
    pattern, degenerate = activation_pattern(p, D.as_columns())
    assert not degenerate and np.array_equal(pattern.A, A.astype(np.int8))


def test_fit_exact_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        d1 = 4 * n
        v = _alternating(d1)
        D = _sorted_data(rng, n)
        A = random_complete_step_matrix(n, v, rng)
        p = fit_exact_1d(A, D, v)
        fit = loss(p, Dataset(D.as_columns(), D.y))
        assert fit <= 1e-8 * (1.0 + np.linalg.norm(D.y))
        pattern, degenerate = activation_pattern(p, D.as_columns())
        assert not degenerate and np.array_equal(pattern.A, A.astype(np.int8))


def test_fit_exact_requires_complete():
    rng = np.random.default_rng(23)
    D = _sorted_data(rng, 3)
    A = np.stack([step_vector(1, 1, 3)] * 4)
    with pytest.raises(InputError):
        fit_exact_1d(A, D, _alternating(4))


def _assert_exact_fit(p, A, D):
    assert loss(p, Dataset(D.as_columns(), D.y)) <= 1e-8 * (1.0 + np.linalg.norm(D.y))
    pattern, degenerate = activation_pattern(p, D.as_columns())
    assert not degenerate and np.array_equal(pattern.A, A.astype(np.int8))


@pytest.mark.parametrize("y0", [1e-9, -1e-9, 1e-8])
def test_fit_exact_tiny_first_residual(y0):
    # With d1 = 2n there are no slack rows, so the first residual is y0
    # itself.  A unit-slope first hinge would cross zero at x0 - |y0|, where
    # its preactivation at x0 falls under the degeneracy threshold.
    D = Sorted1D.from_values([-0.5, 0.1, 0.4, 0.7], [y0, 0.3, -0.2, 0.5])
    v = _alternating(8)
    rng = np.random.default_rng(31)
    for _ in range(5):
        A = random_complete_step_matrix(4, v, rng)
        _assert_exact_fit(fit_exact_1d(A, D, v), A, D)


def test_fit_exact_rejects_points_too_close_to_separate():
    # A unit switching between 0.1 and 0.1 + gap has a preactivation of at
    # most gap / 2 at one of them, against a threshold of lp_tol times about
    # 1.01 (the row and point scales near x = 0.1).
    v = _alternating(8)
    A = random_complete_step_matrix(4, v, np.random.default_rng(37))
    y = [0.2, -0.3, 0.4, 0.1]
    with pytest.raises(InputError, match="too close"):
        fit_exact_1d(A, Sorted1D.from_values([-0.5, 0.1, 0.1 + 1e-7, 0.7], y), v)
    D = Sorted1D.from_values([-0.5, 0.1, 0.1 + 3e-7, 0.7], y)
    _assert_exact_fit(fit_exact_1d(A, D, v), A, D)
    # Two too-close pairs: the message names the first one.
    D = Sorted1D.from_values([-0.5, -0.5 + 1e-7, 0.1, 0.1 + 1e-7], y)
    with pytest.raises(InputError, match="too close") as caught:
        fit_exact_1d(A, D, v)
    assert str(caught.value) == f"points {-0.5!r} and {-0.5 + 1e-7!r} are too close to separate strictly"


def test_coupon_bound_examples():
    assert coupon_collector_bound(1.0, 1, 0.5) == 1
    assert coupon_collector_bound(1.0 / 20.0, 10, 0.1) == 93


def test_coupon_bound_monte_carlo():
    # d = 93 draws over 20 classes cover classes 1..10 in >= 90% of trials.
    rng = np.random.default_rng(29)
    trials = 10_000
    d = coupon_collector_bound(1.0 / 20.0, 10, 0.1)
    draws = rng.integers(0, 20, size=(trials, d))
    covered = np.zeros(trials, dtype=bool)
    mask = draws < 10
    for t in range(trials):
        covered[t] = np.unique(draws[t][mask[t]]).size == 10
    assert covered.mean() >= 0.9


def test_width_thresholds_values():
    wt = width_thresholds(10, 0.1)
    assert wt.no_bad_minima == 93
    assert width_thresholds(1, 0.5).no_bad_minima == 2
    assert wt.per_sign_global >= wt.no_bad_minima


def test_width_thresholds_ordering_random():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        eps = float(rng.uniform(0.01, 0.9))
        wt = width_thresholds(n, eps)
        assert wt.per_sign_global >= wt.no_bad_minima


def test_classify_step_rows_mixed():
    kinds = classify_step_rows(np.array([[0, 1, 1], [1, 0, 1], [0, 0, 0]]))
    assert (kinds[0].k, kinds[0].variant) == (2, 1)
    assert kinds[1] is None
    assert (kinds[2].k, kinds[2].variant) == (1, 0)
