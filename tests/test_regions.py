import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from reluregions import (
    DEFAULT_TOL,
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
from reluregions import regions
from reluregions.errors import InputError
from reluregions.linalg import normalize_rows
from reluregions.model import Params
from reluregions.regions import MAX_ENUMERATED_PATTERNS, _prefix_search


def _scan_all_candidates(X, bias):
    # Reference: one LP per candidate over all 2^n patterns, sorted.
    n = X.shape[1]
    out = []
    for code in range(2**n):
        a = tuple((code >> (n - 1 - j)) & 1 for j in range(n))
        if unit_pattern_feasible(UnitPattern(a, bias), X).feasible:
            out.append(UnitPattern(a, bias))
    return sorted(out, key=lambda u: u.a)


def _lp_route(X, bias):
    """The enumeration's LP route as unit patterns, bypassing the 1-d fast path."""
    return [UnitPattern(a, bias) for a, _ in _prefix_search(X, bias, DEFAULT_TOL)]


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
    for args in ((2.5, 1, 1), (3, "2", 1), (3, 2, True)):
        with pytest.raises(InputError, match="must be an integer"):
            count_regions_general_position(*args)
    assert count_regions_general_position(np.int64(3), np.int8(2), 1) == 6


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
    slow = _lp_route(x, True)
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


def adversarial_variants(rng, X):
    """Copies of X whose column j is zero, a duplicate, a positive rescaling or a near-duplicate of column i."""
    d, n = X.shape
    i, j = (int(k) for k in rng.choice(n, 2, replace=False))
    variants = {}
    for kind, col in [
        ("zero", np.zeros(d)),
        ("duplicate", X[:, i]),
        ("rescaled", rng.uniform(0.1, 10.0) * X[:, i]),
        ("near-duplicate", X[:, i] + 1e-9 * rng.standard_normal(d)),
    ]:
        Y = X.copy()
        Y[:, j] = col
        variants[kind] = Y
    return i, j, variants


def assert_matches_scan(Y, bias, kind=None, i=0, j=0):
    reference = _scan_all_candidates(Y, bias)
    for route, patterns in (("public", enumerate_feasible_unit_patterns(Y, bias=bias)), ("lp", _lp_route(Y, bias))):
        expected = reference
        if kind == "near-duplicate":
            # A pattern that splits two points 1e-9 apart needs a witness of
            # norm about 1e9, and the margin LP decides such patterns
            # differently with all rows at once and prefix by prefix; the
            # patterns that keep the pair together are compared exactly.
            patterns = [u for u in patterns if u.a[i] == u.a[j]]
            expected = [u for u in reference if u.a[i] == u.a[j]]
        # Same list in the same order, not just the same set.
        assert patterns == expected, (kind, bias, route)


def assert_witnesses_sound(Y, bias):
    """Every (pattern, witness) pair has normalized margin above lp_tol on every row."""
    rows = normalize_rows((embed_ones(Y) if bias else Y).T)
    pairs = _prefix_search(Y, bias, DEFAULT_TOL)
    for a, u in pairs:
        signs = 2.0 * np.asarray(a, dtype=float) - 1.0
        assert np.min(signs[:, None] * rows @ u) > DEFAULT_TOL.lp_tol, a
    return pairs


def record_lps(monkeypatch):
    """Record each LP the enumeration solves as (row count, result)."""
    calls = []
    solve = regions.lp_max_margin

    def recording(G):
        result = solve(G)
        calls.append((G.shape[0], result))
        return result

    monkeypatch.setattr(regions, "lp_max_margin", recording)
    return calls


def lp_bound(Y, bias):
    """2 + the realizable prefixes summed over the levels 1..n-1.

    A prefix costs a second LP only when its witness lies on the new
    column's hyperplane.  That happens at a zero column: without a bias
    every witness is on it, and with a bias it is the bias axis, where a
    simplex vertex often has a zero bias coordinate.  There each prefix is
    allowed both LPs.
    """
    return 2 + sum(
        len(_prefix_search(Y[:, :j], bias, DEFAULT_TOL))
        * (1 if np.any(Y[:, j]) else 2)
        for j in range(1, Y.shape[1])
    )


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_enumerate_matches_exhaustive_scan(d, bias):
    rng = np.random.default_rng(61 + 2 * d + bias)
    for n in (1, 3, 6, 10):
        X = rng.standard_normal((d, n))
        zero_col = X.copy()
        zero_col[:, n // 2] = 0.0
        assert_matches_scan(X, bias)
        assert_matches_scan(zero_col, bias)
        if n > 1:
            i, j, variants = adversarial_variants(rng, X)
            for kind, Y in variants.items():
                assert_matches_scan(Y, bias, kind, i, j)


def test_enumeration_solves_one_lp_per_realizable_prefix(monkeypatch):
    rng = np.random.default_rng(73)
    X = rng.standard_normal((2, 12))
    assert certify_general_position(X)
    calls = record_lps(monkeypatch)
    patterns = enumerate_feasible_unit_patterns(X, bias=False)
    assert len(patterns) == count_regions_general_position(12, 2, 1)
    # Both children of the first point, then one LP per realizable prefix.
    expected = 2 + sum(count_regions_general_position(j, 2, 1) for j in range(1, 12))
    assert len(calls) == expected == 134


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_lp_count_bounded_by_realizable_prefixes(d, bias, monkeypatch):
    rng = np.random.default_rng(79 + 2 * d + bias)
    X = rng.standard_normal((d, 8))
    _, _, variants = adversarial_variants(rng, X)
    for Y in [X, *variants.values()]:
        bound = lp_bound(Y, bias)
        calls = record_lps(monkeypatch)
        _prefix_search(Y, bias, DEFAULT_TOL)
        assert len(calls) <= bound
        monkeypatch.undo()


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_inherited_witnesses_realize_their_patterns(d, bias, monkeypatch):
    rng = np.random.default_rng(83 + 2 * d + bias)
    X = rng.standard_normal((d, 7))
    _, _, variants = adversarial_variants(rng, X)
    inherited = 0
    for Y in [X, *variants.values()]:
        calls = record_lps(monkeypatch)
        pairs = assert_witnesses_sound(Y, bias)
        monkeypatch.undo()
        # A pattern kept without an LP at the last point carries a witness
        # the LP returned for a shorter prefix.
        last = {id(result.witness) for rows, result in calls if rows == Y.shape[1]}
        inherited += sum(id(u) not in last for _, u in pairs)
    assert inherited > 0


def test_lp_rows_match_per_pattern_normalization():
    # The LPs the enumeration still solves see the G that normalizing each
    # sign-flipped pattern gives, byte for byte.
    rng = np.random.default_rng(89)
    for d in (1, 2, 3):
        X = rng.standard_normal((d, 9))
        _, _, variants = adversarial_variants(rng, X)
        for Y in [X, *variants.values()]:
            for Yh in (Y, embed_ones(Y)):
                rows = normalize_rows(Yh.T)
                for j in range(Yh.shape[1]):
                    signs = rng.choice([-1.0, 1.0], j + 1)
                    shared = signs[:, None] * rows[: j + 1]
                    own = normalize_rows(signs[:, None] * Yh[:, : j + 1].T)
                    assert shared.tobytes() == own.tobytes()


def test_unit_pattern_value_semantics():
    u = UnitPattern((1, 0, 1))
    same = UnitPattern(np.array([1, 0, 1]))
    assert u == same and hash(u) == hash(same) and len({u, same}) == 1
    assert same.a == (1, 0, 1) and all(type(x) is int for x in same.a)
    assert u != UnitPattern((1, 0, 1), bias_flag=True)
    assert u.n == 3
    ordered = sorted([UnitPattern((1, 1)), UnitPattern((0, 1)), UnitPattern((1, 0))], key=lambda p: p.a)
    assert [p.a for p in ordered] == [(0, 1), (1, 0), (1, 1)]
    with pytest.raises(InputError):
        UnitPattern((0, 2))
    with pytest.raises(FrozenInstanceError):
        u.a = (0, 0, 0)
    assert not hasattr(u, "__dict__")
    assert pickle.loads(pickle.dumps(u)) == u


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


def test_zonotope_subset_indices_must_be_integers():
    X = np.array([[1.0, -1.0, 0.5], [0.2, 0.3, -1.0]])
    for bad in ([0.5], [1.0], ["1"], [True]):
        with pytest.raises(InputError, match="each subset index must be an integer"):
            zonotope_vertex_check(bad, X)
    assert zonotope_vertex_check([np.int64(0)], X) == zonotope_vertex_check({0}, X)


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
