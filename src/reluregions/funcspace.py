"""Function space of single ReLU units on sorted one-dimensional data.

The output vectors a biased unit can produce on n sorted points form a
polyhedral cone; after normalizing to coordinate sum 1, the cone becomes a
polyline inside the probability simplex running from e_1 to e_n.  Its
vertices are images of the region boundary directions: for each data point
i, one vertex collecting the slack to earlier points (entries x_i - x_j for
j <= i) and one collecting the slack to later points (entries x_j - x_i for
j >= i).  Two of those 2n raw vectors are identically zero and are dropped,
leaving 2n - 2 vertices.  Every unit output is a nonnegative multiple of a
point on this polyline; sums of units give convex/affine combinations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import as_vector
from .onedim import Sorted1D

__all__ = ["Polyline", "relu_polyline", "discrete_convexity_check", "single_relu_membership"]


@dataclass(frozen=True)
class Polyline:
    """Ordered polyline vertices, normalized to coordinate sum 1.

    ``raw`` keeps the unnormalized vertex vectors in the same order.
    Consecutive coincident vertices are merged on construction.
    """

    vertices: np.ndarray  # (m, n), each row sums to 1
    raw: np.ndarray  # (m, n)

    @property
    def n_points(self) -> int:
        return self.vertices.shape[1]

    def segments(self):
        """Consecutive vertex pairs."""
        V = self.vertices
        return [(V[i], V[i + 1]) for i in range(V.shape[0] - 1)]

    def distance(self, point) -> float:
        """Euclidean distance from a point to the polyline."""
        p = as_vector(point, name="point")
        if p.shape[0] != self.n_points:
            raise InputError("point dimension mismatch")
        V = self.vertices
        if V.shape[0] == 1:
            return float(np.linalg.norm(p - V[0]))
        # Project p onto every segment u + s d, s in [0, 1], at once.
        d = V[1:] - V[:-1]
        offset = p - V[:-1]
        denom = np.sum(d * d, axis=1)
        s = np.divide(np.sum(offset * d, axis=1), denom, out=np.zeros_like(denom), where=denom > 0.0)
        return float(np.linalg.norm(offset - np.clip(s, 0.0, 1.0)[:, None] * d, axis=1).min())


def relu_polyline(D: Sorted1D) -> Polyline:
    """Normalized vertex polyline of single-unit outputs on sorted data.

    Needs at least two distinct points (with one point the normalized
    function space is the single vertex e_1, carrying no polyline).
    """
    x = D.x
    n = D.n
    if n < 2:
        raise InputError("polyline needs at least two data points")
    # Prefix family, one row per i = 1..n-1: unit active on points before i,
    # slope hinging down at x_i.  Suffix family, one row per i = 0..n-2: unit
    # active on points after i, slope hinging up at x_i.  On sorted data the
    # clipped entries are exactly the ones outside each family's support.
    prefix = np.maximum(x[1:, None] - x[None, :], 0.0)
    suffix = np.maximum(x[None, :] - x[:-1, None], 0.0)
    raw = np.concatenate([prefix, suffix])
    sums = raw.sum(axis=1)
    if np.any(sums <= 0.0):
        raise InputError("degenerate data: vanishing vertex encountered")
    vertices = raw / sums[:, None]
    keep = [0]
    for i in range(1, vertices.shape[0]):
        if np.linalg.norm(vertices[i] - vertices[keep[-1]]) > 1e-12:  # merge coincident vertices
            keep.append(i)
    return Polyline(vertices[keep], raw[keep])


def discrete_convexity_check(f, D: Sorted1D, slack: float = 1e-9) -> bool:
    """Nonnegativity plus nondecreasing difference quotients over the data.

    ``slack`` absorbs floating-point noise relative to the value scale.
    """
    g = as_vector(f, name="f")
    if g.shape[0] != D.n:
        raise InputError("f length must match the number of data points")
    scale = 1.0 + float(np.max(np.abs(g)))
    if np.any(g < -slack * scale):
        return False
    if D.n < 3:
        return True
    quotients = np.diff(g) / np.diff(D.x)
    return bool(np.all(np.diff(quotients) >= -slack * scale))


def single_relu_membership(
    w: float, b: float, D: Sorted1D, tol: float = 1e-8, line: Polyline | None = None
) -> bool:
    """Whether a unit's output on the data lies on the normalized polyline.

    The zero output (unit inactive everywhere) is always a member; other
    outputs are normalized to sum 1 and tested against the polyline within
    Euclidean distance ``tol``.  Pass a precomputed ``line`` when checking
    many units on the same data.
    """
    out = np.maximum(float(w) * D.x + float(b), 0.0)
    total = float(out.sum())
    if total == 0.0:
        return True
    if line is None:
        line = relu_polyline(D)
    return line.distance(out / total) <= tol
