import hashlib

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
from reluregions import onedim
from reluregions.errors import InputError, InvariantViolation
from reluregions.linalg import DEFAULT_TOL
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


@pytest.mark.parametrize("data", [np.array([0.0, 1.0, 2.0]), (0, 1, 2), Dataset(np.array([[0.0, 1.0, 2.0]]), np.zeros(3))])
def test_witness_and_fit_need_sorted_data(data):
    A = np.array([[0, 1, 1], [0, 1, 1], [0, 0, 1], [0, 0, 1], [1, 1, 1], [1, 1, 1]])
    with pytest.raises(InputError, match="must be a Sorted1D"):
        witness_params_1d(A, data)
    with pytest.raises(InputError, match="must be a Sorted1D"):
        fit_exact_1d(A, data, _alternating(6))


@pytest.mark.parametrize(
    "call",
    [
        lambda bad: width_thresholds(bad, 0.1),
        lambda bad: coupon_collector_bound(0.5, bad, 0.1),
        lambda bad: sample_step_matrix(bad, 3, np.random.default_rng(0)),
        lambda bad: sample_step_matrix(2, bad, np.random.default_rng(0)),
        lambda bad: step_vector(bad, 0, 3),
        lambda bad: step_vector(1, bad, 3),
        lambda bad: step_vector(1, 0, bad),
    ],
)
@pytest.mark.parametrize("bad", [2.5, 1.0, "2", True])
def test_sizes_must_be_integers(call, bad):
    with pytest.raises(InputError, match="must be an integer"):
        call(bad)


def test_sizes_accept_numpy_integers():
    assert width_thresholds(np.int64(4), 0.1) == width_thresholds(4, 0.1)
    assert coupon_collector_bound(0.5, np.uint8(4), 0.1) == coupon_collector_bound(0.5, 4, 0.1)
    assert np.array_equal(step_vector(np.int32(2), np.int8(1), np.int64(3)), [0, 1, 1])
    assert sample_step_matrix(np.int16(3), np.int64(5), np.random.default_rng(0)).shape == (5, 3)


def test_sorted1d_perm_must_be_integers():
    with pytest.raises(InputError, match="perm must be an integer"):
        Sorted1D([0.0, 1.0], [0.0, 0.0], [0.6, 1.3])
    with pytest.raises(InputError, match="perm must be an integer"):
        Sorted1D([0.0, 1.0], [0.0, 0.0], [0.0, 1.0])
    assert Sorted1D([0.0, 1.0], [0.0, 0.0], np.array([0, 1], dtype=np.uint8)).perm.tolist() == [0, 1]


def test_fit_self_check_bounds_the_residual_norm(monkeypatch):
    # An output off by 1e-6 at one point: loss 5e-13 is below the bound
    # residual_tol * (1 + |y|), the residual norm 1e-6 is above it.
    data = Sorted1D.from_values([0.0, 1.0, 2.0], [0.5, -0.5, 0.25])
    v = _alternating(6)
    A = np.array([[1, 1, 1], [1, 1, 1], [0, 1, 1], [0, 1, 1], [0, 0, 1], [0, 0, 1]])
    fit_exact_1d(A, data, v)
    # The check sees the fit's output 1e-6 above its target at the first point.
    check = onedim._witness_fault
    monkeypatch.setattr(onedim, "_witness_fault", lambda p, A, X, y, tol: check(p, A, X, y - [1e-6, 0.0, 0.0], tol))
    with pytest.raises(InvariantViolation, match="residual norm"):
        fit_exact_1d(A, data, v)


def test_fit_refuses_points_too_close_for_its_residual_check():
    # Two gaps of 4.9e-7 pass the midpoint guard, but the hinges between them
    # carry slopes of about 1e7 to every later point: the fit misses by 3e-8,
    # above residual_tol * (1 + |y|), within the check's rounding bound of 1.7e-6.
    x = [-1.0, -0.9999995121953599, -0.9999990243907199, -0.5121943842954223,
         -0.024389744200124852, 0.4634148958951727, 0.9512195359904703, 1.0]
    y = [0.01585655047683776, -0.5627215479662009, 0.6389947289718232, 0.2898298175843923,
         0.2697748792876009, 0.05447986888738643, 0.3037998825092354, -0.37854719973540285]
    v = [2.2983301900129094, 1.3735954380089432, -3.380379040372291, 0.566663672555978,
         0.6442355857718713, 0.8510606923375074, 2.51844594144923, 3.4507811218692845,
         -0.743577495411952, -1.0534240329409297, 3.697930378674899, -3.395396912333947,
         2.4602957119592896, 3.3066173012011113, -1.4710350200985294, -2.483780016966397,
         2.56853302506975, -2.2873110982337503, -0.9356617078177865, -1.2688698156403952,
         -3.1088979567784416, 3.327723811618551, 1.8695787304658011, 3.954695385301939]
    rows = ["00011111", "00000001", "00011111", "00000111", "11111111", "00000000", "00111111", "10000000",
            "00001111", "00000001", "00111111", "00000011", "00001111", "01111111", "00000001", "00111111",
            "11000000", "00001111", "00000111", "01111111", "11111111", "00111111", "00000011", "00001111"]
    A = np.array([[int(c) for c in r] for r in rows])
    with pytest.raises(InputError, match="too close to fit exactly in floating point"):
        fit_exact_1d(A, Sorted1D.from_values(x, y), v)


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


# Per-row reference classification, kept here as an oracle for the
# package's whole-matrix pass: a 0/1 row is a step vector when it switches
# at most once, and its canonical code is (1, value) when constant and
# (index after the switch, value after the switch) otherwise.
def _reference_code(row):
    r = np.asarray(row).astype(int)
    changes = np.nonzero(r[1:] != r[:-1])[0]
    if changes.size == 0:
        return 1, int(r[0])
    if changes.size > 1:
        return None
    return int(changes[0]) + 2, 1 - int(r[0])


def _reference_diverse(M):
    codes = [_reference_code(row) for row in M]
    if any(c is None for c in codes):
        return False
    return (1, 1) in codes and {k for k, _ in codes} >= set(range(1, M.shape[1] + 1))


def _reference_complete(M, v):
    codes = [_reference_code(row) for row in M]
    if any(c is None for c in codes):
        return False
    seen = {(k, vi > 0) for (k, variant), vi in zip(codes, v) if variant == 1}
    return all((k, sign) in seen for k in range(1, M.shape[1] + 1) for sign in (True, False))


def _assert_matches_reference(M, v):
    def codes(kinds):
        return [None if sv is None else (sv.k, sv.variant, sv.n) for sv in kinds]

    expected = [None if c is None else (*c, M.shape[1]) for c in map(_reference_code, M)]
    assert codes(classify_step_rows(M)) == expected
    assert codes(map(classify_step_row, M)) == expected
    assert is_diverse(M) == _reference_diverse(M)
    assert is_complete(M, v) == _reference_complete(M, v)


@pytest.mark.parametrize("n", range(1, 11))
def test_classification_matches_reference_on_every_row(n):
    M = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    v = np.where(np.arange(2**n) % 3 == 0, -1.0, 1.0)
    _assert_matches_reference(M, v)
    steps = np.stack([sv.values() for sv in all_step_vectors(n)])
    assert sum(classify_step_row(row) is not None for row in M) == 2 * n
    assert {tuple(row) for row in M if classify_step_row(row) is not None} == {tuple(row) for row in steps}


def test_classification_matches_reference_on_random_matrices():
    rng = np.random.default_rng(41)
    for trial in range(400):
        n = int(rng.integers(1, 9))
        d1 = int(rng.integers(1, 4 * n + 3))
        v = rng.choice([-1.0, 1.0], size=d1) * rng.uniform(0.5, 2.0, d1)
        if trial % 4 == 0:
            M = rng.integers(0, 2, size=(d1, n))
        elif trial % 4 == 1:
            M = sample_step_matrix(n, d1, rng)
        else:
            # Complete or nearly complete matrices, so both verdicts occur.
            d1 = 2 * n + int(rng.integers(0, 2 * n + 1))
            v = np.concatenate([np.ones(n), -np.ones(n), rng.choice([-1.0, 1.0], size=d1 - 2 * n)])
            v = v[rng.permutation(d1)] * rng.uniform(0.5, 2.0, d1)
            M = random_complete_step_matrix(n, v, rng)
            if trial % 4 == 3:
                M[int(rng.integers(0, d1))] = rng.integers(0, 2, size=n)
        _assert_matches_reference(M, v)


# Byte pins of 1-d fits and witnesses: the pattern, W and b bytes of every
# call, recorded with the per-row classification of each function.
def _exact_1d_pool(seed, n=30, d1=120, size=64):
    """The exact-1d benchmark pool: complete patterns on well-spaced data."""
    rng = np.random.default_rng(seed)
    v = _alternating(d1)
    min_gap = 10.0 * DEFAULT_TOL.lp_tol
    pool = []
    while len(pool) < size:
        x = np.sort(rng.uniform(-1.0, 1.0, n))
        if np.any(np.diff(x) < min_gap):
            continue
        data = Sorted1D.from_values(x, rng.uniform(-1.0, 1.0, n))
        pool.append((random_complete_step_matrix(n, v, rng), data, v))
    return pool


def _random_complete_cases(count=300, seed=4242):
    """Complete patterns for n in 1..11 under non-alternating output weights."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        n = int(rng.integers(1, 12))
        pos = n + int(rng.integers(0, n + 1))
        neg = n + int(rng.integers(0, n + 1))
        v = np.concatenate([rng.uniform(0.25, 4.0, pos), -rng.uniform(0.25, 4.0, neg)])
        v = v[rng.permutation(pos + neg)]
        x = np.sort(rng.uniform(-1.0, 1.0, n))
        if np.any(np.diff(x) < 10.0 * DEFAULT_TOL.lp_tol):
            continue
        data = Sorted1D.from_values(x, rng.uniform(-1.0, 1.0, n))
        cases.append((random_complete_step_matrix(n, v, rng), data, v))
    return cases


PIN_CASES = {
    "pool_107": lambda: _exact_1d_pool(107),
    "pool_7": lambda: _exact_1d_pool(7),
    "pool_3": lambda: _exact_1d_pool(3),
    "random_complete": _random_complete_cases,
}

PINS = {
    ("fit", "pool_107"): "00849108e24f4277af4622e4b0b758d03632de9e5cc9de3edb28bf6882dc24e5",
    ("fit", "pool_7"): "4d49a0185877c8ac051a394db437d621e9cdee895d5e350feac6f397cf906fce",
    ("fit", "pool_3"): "eaa55631192f5110bcdd2db4dc2709534d8dd600ef2a579fa5f5a02054caa544",
    ("fit", "random_complete"): "469511f54447ded607940376c23822520c5e8807cf7339f3f5c43aed422f87b7",
    ("witness", "pool_107"): "44bb21eeee7335b2bcaa8940ba9c133cc80a6b05cdc2484d45bcbcba5d09e0ba",
    ("witness", "pool_7"): "5b7051333fb4a9d5fd5da3a9d76ef901e108113549750b1d7e01a42143fa810f",
    ("witness", "pool_3"): "6c7f82dc2b36772fbe9fa8a16f1323a3672edeb73606830974169a7d0d48389f",
    ("witness", "random_complete"): "8fddd41f827d01d31f4b2cc45986e9505a6ea52cbcd1b8643cfff8c6402ef368",
}


@pytest.mark.parametrize("kind, cases", sorted(PINS))
def test_fit_and_witness_bytes_pinned(kind, cases):
    construct = fit_exact_1d if kind == "fit" else witness_params_1d
    digest = hashlib.sha256()
    for A, data, v in PIN_CASES[cases]():
        params = construct(A, data, v)
        digest.update(A.astype(np.int8).tobytes() + params.W.tobytes() + params.b.tobytes())
    assert digest.hexdigest() == PINS[(kind, cases)]


_D3 = Sorted1D.from_values([0.0, 1.0, 2.0], [0.5, -0.5, 0.25])
PATTERN_FUNCTIONS = {
    "classify_step_row": lambda M: classify_step_row(M[0]),
    "classify_step_rows": classify_step_rows,
    "is_diverse": is_diverse,
    "is_complete": lambda M: is_complete(M, _alternating(len(M))),
    "witness_params_1d": lambda M: witness_params_1d(M, _D3),
    "fit_exact_1d": lambda M: fit_exact_1d(M, _D3, _alternating(len(M))),
}


@pytest.mark.parametrize("name", sorted(PATTERN_FUNCTIONS))
@pytest.mark.parametrize("shape", [(3,), (2, 2, 3), (4, 0)])
def test_malformed_patterns_raise_input_error(name, shape):
    # classify_step_row takes one row, so it sees a 0-d, 2-d or empty row.
    with pytest.raises(InputError, match="2-d matrix with at least one column"):
        PATTERN_FUNCTIONS[name](np.zeros(shape, dtype=int))


def test_pattern_entries_must_be_binary():
    for name, call in PATTERN_FUNCTIONS.items():
        with pytest.raises(InputError, match="0 or 1"):
            call(np.array([[0, 2, 1], [1, 1, 1]]))


def test_pattern_without_rows_is_neither_diverse_nor_complete():
    empty = np.zeros((0, 3), dtype=int)
    assert classify_step_rows(empty) == []
    assert not is_diverse(empty)
    assert not is_complete(empty, [])
    with pytest.raises(InputError, match="not complete"):
        fit_exact_1d(empty, _D3, [])
    assert witness_params_1d(empty, _D3).d1 == 0
