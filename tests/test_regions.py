import numpy as np
import pytest

from reluregions import (
    ActivationPattern,
    UnitPattern,
    activation_pattern,
    certify_general_position,
    count_regions_general_position,
    embed_ones,
    enumerate_feasible_unit_patterns,
    region_nonempty,
    unit_pattern_feasible,
    zonotope_vertex_check,
)
from reluregions.errors import InputError
from reluregions.model import Params
from reluregions.regions import MAX_ENUMERATED_PATTERNS


def _scan_all_candidates(X, bias):
    # Reference: one LP per candidate over all 2^n patterns, sorted.
    n = X.shape[1]
    out = []
    for code in range(2**n):
        a = tuple((code >> (n - 1 - j)) & 1 for j in range(n))
        if unit_pattern_feasible(UnitPattern(a, bias), X).feasible:
            out.append(UnitPattern(a, bias))
    return sorted(out, key=lambda u: u.a)


def _sorted_x(rng, n):
    x = np.sort(rng.uniform(-2.0, 2.0, n))
    while np.any(np.diff(x) <= 1e-6):
        x = np.sort(rng.uniform(-2.0, 2.0, n))
    return x


def test_count_formula_trivial_cube():
    assert count_regions_general_position(2, 2, 1) == 4


def test_count_formula_planar_three_points():
    assert count_regions_general_position(3, 2, 1) == 6


def test_count_formula_example():
    assert count_regions_general_position(5, 3, 2) == 484


def test_count_formula_saturates_at_two_power():
    for n in range(1, 6):
        for d in range(n, n + 3):
            assert count_regions_general_position(n, d, 2) == 2 ** (2 * n)


def test_count_formula_validation():
    with pytest.raises(InputError):
        count_regions_general_position(0, 1, 1)


def test_all_zero_pattern_feasible_with_bias():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 4))
    cert = unit_pattern_feasible(UnitPattern((0, 0, 0, 0), True), x)
    assert cert.feasible and cert.margin > 1e-7
    w, b = cert.witness
    assert np.all(w[0] * x[0] + b < 0)


def test_non_step_row_infeasible_on_sorted_1d():
    x = np.array([[-1.0, 0.2, 1.5]])
    cert = unit_pattern_feasible(UnitPattern((1, 0, 1), True), x)
    assert not cert.feasible


def test_high_dimension_makes_every_pattern_feasible():
    rng = np.random.default_rng(3)
    n = 4
    X = rng.standard_normal((6, n))
    for code in range(2**n):
        a = tuple((code >> j) & 1 for j in range(n))
        assert unit_pattern_feasible(UnitPattern(a, False), X).feasible


def test_region_nonempty_product_structure():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((1, 3))
    good = ActivationPattern([[1, 1, 1], [0, 0, 0]], bias_flag=True)
    assert region_nonempty(good, X)
    bad = ActivationPattern([[1, 1, 1], [1, 0, 1]], bias_flag=True)
    x = np.sort(X[0])[None, :]
    assert not region_nonempty(bad, x)


def test_region_nonempty_1d_iff_step_rows():
    rng = np.random.default_rng(8)
    x = _sorted_x(rng, 4)[None, :]
    step = ActivationPattern([[0, 1, 1, 1], [1, 1, 0, 0]], bias_flag=True)
    assert region_nonempty(step, x)
    non_step = ActivationPattern([[0, 1, 0, 1], [1, 1, 0, 0]], bias_flag=True)
    assert not region_nonempty(non_step, x)


def test_enumerate_1d_bias_returns_step_patterns():
    rng = np.random.default_rng(11)
    x = _sorted_x(rng, 3)[None, :]
    fast = enumerate_feasible_unit_patterns(x, bias=True)
    slow = enumerate_feasible_unit_patterns(x, bias=True, use_fast_path=False)
    assert len(fast) == 6
    assert [u.a for u in fast] == [u.a for u in slow]


def test_enumerate_planar_general_position_count():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((2, 4))
    assert certify_general_position(X)
    patterns = enumerate_feasible_unit_patterns(X, bias=False)
    assert len(patterns) == 8  # 2 * (1 + 3)


def test_enumerate_full_cube_when_dimension_dominates():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((4, 3))
    patterns = enumerate_feasible_unit_patterns(X, bias=False)
    assert len(patterns) == 8


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_enumerate_matches_exhaustive_scan(d, bias):
    rng = np.random.default_rng(61 + 2 * d + bias)
    for n in (1, 3, 6, 10):
        X = rng.standard_normal((d, n))
        zero_col = X.copy()
        zero_col[:, n // 2] = 0.0
        cases = [X, zero_col]
        if n > 1:
            dup_col = X.copy()
            dup_col[:, -1] = dup_col[:, 0]
            cases.append(dup_col)
        for Y in cases:
            # Same list in the same order, not just the same set.
            assert enumerate_feasible_unit_patterns(Y, bias=bias) == _scan_all_candidates(Y, bias)


def test_enumerate_beyond_exhaustive_reach():
    X = np.random.default_rng(67).standard_normal((2, 40))
    patterns = enumerate_feasible_unit_patterns(X, bias=False)
    assert len(patterns) == count_regions_general_position(40, 2, 1) == 80
    assert [u.a for u in patterns] == sorted(u.a for u in patterns)


def test_enumerate_limit_refusal():
    X = np.random.default_rng(71).standard_normal((17, 17))
    assert count_regions_general_position(17, 17, 1) > MAX_ENUMERATED_PATTERNS
    with pytest.raises(InputError, match=str(2**17)):
        enumerate_feasible_unit_patterns(X, bias=False)
    # The bound depends on the data's dimension, not on the number of points.
    assert len(enumerate_feasible_unit_patterns(np.zeros((1, 20)))) == 0


def test_enumerate_counts_match_formula_sampled():
    rng = np.random.default_rng(29)
    for n, d in [(5, 2), (6, 2), (5, 3), (7, 4)]:
        X = rng.standard_normal((d, n))
        assert certify_general_position(X)
        expected = count_regions_general_position(n, d, 1)
        assert len(enumerate_feasible_unit_patterns(X, bias=False)) == expected


def test_positive_column_scaling_preserves_patterns():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((2, 4))
    scales = rng.uniform(0.1, 10.0, 4)
    before = [u.a for u in enumerate_feasible_unit_patterns(X, bias=False)]
    after = [u.a for u in enumerate_feasible_unit_patterns(X * scales, bias=False)]
    assert before == after


def test_witnesses_realize_their_patterns():
    rng = np.random.default_rng(37)
    X = rng.standard_normal((2, 5))
    for u in enumerate_feasible_unit_patterns(X, bias=False):
        cert = unit_pattern_feasible(u, X)
        assert cert.feasible
        w, _ = cert.witness
        params = Params(w[None, :], None, np.array([1.0]))
        pattern, degenerate = activation_pattern(params, X)
        assert not degenerate
        assert tuple(pattern.A[0]) == u.a


def test_zonotope_empty_set_needs_open_halfspace():
    X = np.array([[1.0, 2.0], [0.5, -0.3]])  # both in the x>0 halfspace
    assert zonotope_vertex_check(set(), X)
    X2 = np.array([[1.0, -1.0], [0.0, 0.0]])  # opposite directions: 0 is interior
    assert not zonotope_vertex_check(set(), X2)


def test_zonotope_matches_pattern_feasibility_full_set():
    rng = np.random.default_rng(41)
    X = rng.standard_normal((3, 5))
    ones = UnitPattern((1,) * 5, False)
    assert zonotope_vertex_check(set(range(5)), X) == unit_pattern_feasible(ones, X).feasible


def test_zonotope_sorted_suffixes_are_vertices():
    rng = np.random.default_rng(43)
    x = _sorted_x(rng, 5)
    Xh = embed_ones(x[None, :])
    for k in range(6):
        S = set(range(5 - k, 5))  # largest k points
        assert zonotope_vertex_check(S, Xh)
        P = set(range(k))  # smallest k points
        assert zonotope_vertex_check(P, Xh)


def test_zonotope_agreement_bulk():
    rng = np.random.default_rng(47)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        d0 = int(rng.integers(1, 5))
        X = rng.standard_normal((d0, n))
        S = {j for j in range(n) if rng.random() < 0.5}
        a = tuple(1 if j in S else 0 for j in range(n))
        assert zonotope_vertex_check(S, X) == unit_pattern_feasible(UnitPattern(a, False), X).feasible


def test_zonotope_brute_force_direction_oracle():
    # Independent check on tiny instances: S labels a vertex iff some random
    # direction selects exactly S as its argmax subset.
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        X = rng.standard_normal((2, n))
        dirs = rng.standard_normal((4000, 2))
        chosen = {tuple((dirs[i] @ X > 0).astype(int)) for i in range(4000)}
        for code in range(2**n):
            a = tuple((code >> j) & 1 for j in range(n))
            S = {j for j in range(n) if a[j]}
            if a in chosen:
                assert zonotope_vertex_check(S, X)


def test_general_position_certificate():
    rng = np.random.default_rng(59)
    X = rng.standard_normal((3, 6))
    assert certify_general_position(X)
    X_dup = X.copy()
    X_dup[:, 3] = 2.0 * X_dup[:, 1]  # two parallel columns break general position
    assert not certify_general_position(X_dup)
    with pytest.raises(InputError):
        certify_general_position(rng.standard_normal((2, 13)))
