import numpy as np
import pytest

from reluregions import (
    Sorted1D,
    discrete_convexity_check,
    least_squares_min_norm,
    relu_polyline,
    single_relu_membership,
)
from reluregions.errors import InputError


def _data(rng, n):
    x = np.sort(rng.uniform(-1.0, 1.0, n))
    while np.any(np.diff(x) <= 1e-4):
        x = np.sort(rng.uniform(-1.0, 1.0, n))
    return Sorted1D.from_values(x, np.zeros(n))


def test_polyline_two_points_is_simplex():
    line = relu_polyline(Sorted1D.from_values([0.0, 1.0], [0.0, 0.0]))
    assert np.allclose(line.vertices, np.eye(2))


def test_polyline_three_points_frozen():
    line = relu_polyline(Sorted1D.from_values([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]))
    expected_raw = np.array([[1.0, 0, 0], [2, 1, 0], [0, 1, 2], [0, 0, 1]])
    expected = np.array([[1.0, 0, 0], [2 / 3, 1 / 3, 0], [0, 1 / 3, 2 / 3], [0, 0, 1]])
    assert np.allclose(line.raw, expected_raw)
    assert np.allclose(line.vertices, expected)


def test_polyline_vertex_count_and_convexity():
    rng = np.random.default_rng(1)
    for n in range(2, 8):
        D = _data(rng, n)
        line = relu_polyline(D)
        assert line.vertices.shape == (2 * n - 2, n)
        for vertex in line.vertices:
            assert np.all(vertex >= -1e-12)
            assert discrete_convexity_check(vertex, D)
        assert np.allclose(line.vertices.sum(axis=1), 1.0)
        # path runs from e_1 to e_n
        assert np.allclose(line.vertices[0], np.eye(n)[0])
        assert np.allclose(line.vertices[-1], np.eye(n)[-1])


def test_polyline_needs_two_points():
    with pytest.raises(InputError):
        relu_polyline(Sorted1D.from_values([0.0], [0.0]))


def test_convexity_examples():
    D = Sorted1D.from_values([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    assert discrete_convexity_check(np.zeros(3), D)
    assert discrete_convexity_check(np.array([0.0, 0.0, 1.0]), D)
    assert not discrete_convexity_check(np.array([0.0, 1.0, 0.0]), D)
    assert not discrete_convexity_check(np.array([-1.0, 0.0, 1.0]), D)


def test_membership_endpoint_unit():
    rng = np.random.default_rng(3)
    D = _data(rng, 5)
    # hinge active only at the largest point
    w = 1.0
    b = -0.5 * (D.x[-2] + D.x[-1])
    assert single_relu_membership(w, b, D)
    out = np.maximum(w * D.x + b, 0.0)
    assert np.allclose(out / out.sum(), np.eye(5)[-1])


def test_membership_constant_function():
    rng = np.random.default_rng(4)
    D = _data(rng, 4)
    assert single_relu_membership(0.0, 1.0, D)


def test_membership_zero_function():
    rng = np.random.default_rng(5)
    D = _data(rng, 4)
    assert single_relu_membership(0.0, -1.0, D)


def test_membership_monte_carlo():
    rng = np.random.default_rng(6)
    D = _data(rng, 6)
    line = relu_polyline(D)
    for _ in range(10_000):
        w = float(rng.standard_normal())
        b = float(rng.standard_normal())
        assert single_relu_membership(w, b, D, line=line)


def test_membership_rejects_off_polyline_points():
    rng = np.random.default_rng(7)
    D = _data(rng, 5)
    line = relu_polyline(D)
    # a concave bump cannot be a single-unit output
    bad = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    assert line.distance(bad / bad.sum()) > 1e-3


def test_every_vertex_realized_by_a_unit():
    rng = np.random.default_rng(8)
    D = _data(rng, 5)
    line = relu_polyline(D)
    n = D.n
    units = [(-1.0, float(D.x[i])) for i in range(1, n)]  # prefix family
    units += [(1.0, -float(D.x[i])) for i in range(n - 1)]  # suffix family
    for (w, b), vertex in zip(units, line.vertices):
        out = np.maximum(w * D.x + b, 0.0)
        assert out.sum() > 0
        assert np.allclose(out / out.sum(), vertex, atol=1e-12)
        assert single_relu_membership(w, b, D, line=line)


def test_nonneg_sums_convex_and_in_hull():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        D = _data(rng, n)
        line = relu_polyline(D)
        outputs = []
        while len(outputs) < m:
            w, b = rng.standard_normal(2)
            out = np.maximum(w * D.x + b, 0.0)
            if out.sum() > 1e-9:
                outputs.append(out)
        coeffs = rng.uniform(0.1, 2.0, m)
        combo = sum(c * o for c, o in zip(coeffs, outputs))
        assert discrete_convexity_check(combo, D)
        # normalized combination lies in the convex hull of the normalized
        # unit outputs, with the weights lambda_i = c_i * sum(o_i) / sum(combo)
        norm_units = np.stack([o / o.sum() for o in outputs])
        target = combo / combo.sum()
        weights = coeffs * np.array([o.sum() for o in outputs]) / combo.sum()
        assert np.all(weights >= 0.0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(weights @ norm_units, target, atol=1e-12)


def test_arbitrary_sums_in_affine_hull():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 4))
        D = _data(rng, n)
        outputs = []
        while len(outputs) < m:
            w, b = rng.standard_normal(2)
            out = np.maximum(w * D.x + b, 0.0)
            if out.sum() > 1e-9:
                outputs.append(out)
        coeffs = rng.standard_normal(m)
        combo = sum(c * o for c, o in zip(coeffs, outputs))
        total = combo.sum()
        if abs(total) < 1e-6:
            continue
        target = combo / total
        norm_units = np.stack([o / o.sum() for o in outputs])
        M = np.vstack([norm_units.T, np.ones((1, m))])
        f = np.concatenate([target, [1.0]])
        _, residual = least_squares_min_norm(M, f)
        assert residual <= 1e-8 * (1.0 + np.linalg.norm(f))
