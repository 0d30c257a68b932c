"""The array code of ``funcspace`` against the per-vertex and per-segment loops it replaced.

The raw vertices use the same subtractions as the loops, so they must match
byte for byte.  ``Polyline.distance`` sums its dot products in another
order, so it must match the loop within a few float64 roundings.
"""

import numpy as np

from reluregions import Sorted1D, relu_polyline


def _loop_raw(x):
    n = x.shape[0]
    raw = []
    for i in range(1, n):
        vec = np.zeros(n)
        vec[: i + 1] = x[i] - x[: i + 1]
        raw.append(vec)
    for i in range(0, n - 1):
        vec = np.zeros(n)
        vec[i:] = x[i:] - x[i]
        raw.append(vec)
    return np.stack(raw)


def _loop_distance(V, p):
    best = np.inf
    for u, w in zip(V[:-1], V[1:]):
        d = w - u
        denom = float(d @ d)
        s = 0.0 if denom == 0.0 else float(np.clip((p - u) @ d / denom, 0.0, 1.0))
        best = min(best, float(np.linalg.norm(p - (u + s * d))))
    return best


def test_raw_vertices_match_the_loops_byte_for_byte():
    rng = np.random.default_rng(31)
    for _ in range(500):
        n = int(rng.integers(2, 12))
        D = Sorted1D.from_values(rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4), np.zeros(n))
        raw = _loop_raw(D.x)
        vertices = raw / raw.sum(axis=1)[:, None]
        keep = [0]
        for i in range(1, vertices.shape[0]):
            if np.linalg.norm(vertices[i] - vertices[keep[-1]]) > 1e-12:
                keep.append(i)
        line = relu_polyline(D)
        assert line.raw.tobytes() == raw[keep].tobytes()
        assert line.vertices.tobytes() == vertices[keep].tobytes()


def test_distance_matches_the_segment_loop():
    rng = np.random.default_rng(32)
    for _ in range(500):
        n = int(rng.integers(2, 10))
        line = relu_polyline(Sorted1D.from_values(rng.standard_normal(n), np.zeros(n)))
        near = line.vertices[rng.integers(line.vertices.shape[0])] + 1e-9 * rng.standard_normal(n)
        for p in (rng.dirichlet(np.ones(n)), near, 3.0 * rng.standard_normal(n)):
            assert abs(line.distance(p) - _loop_distance(line.vertices, p)) <= 1e-14 * (1.0 + np.abs(p).max())
