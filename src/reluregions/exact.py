"""Exact rank oracle over Python integers.

Ranks computed here are ground truth.  There is one elimination,
``int_rank``: fraction-free Bareiss over Python integers, which never
rounds.  ``rational_rank`` takes a 2-d array-like of ints, Fractions or
finite floats (a binary float is the exact rational it stores, so 0.1 is
not 1/10), clears each row's denominators and counts ``int_rank``'s pivots.
``binary_matrix_is_singular`` is ``int_rank`` on a square 0/1 matrix.
Used to validate every floating-point rank decision in the package.
"""

from __future__ import annotations

from math import lcm
from operator import index

import numpy as np

from .errors import InputError
from .linalg import as_binary

__all__ = ["rational_rank", "int_rank", "binary_matrix_is_singular"]


def int_rank(rows) -> int:
    """Exact rank of an integer matrix via fraction-free Bareiss elimination.

    Entries must be integers (anything ``operator.index`` accepts) and rows
    must all have the same length; anything else raises ``InputError``.
    """
    try:
        M = [list(map(index, r)) for r in rows]
    except TypeError:
        raise InputError("int_rank expects rows of integer entries") from None
    nr = len(M)
    if nr == 0:
        return 0
    nc = len(M[0])
    if any(len(r) != nc for r in M):
        raise InputError("inconsistent row lengths")
    rank = 0
    prev = 1
    col = 0
    while rank < nr and col < nc:
        piv = -1
        for i in range(rank, nr):
            if M[i][col] != 0:
                piv = i
                break
        if piv < 0:
            col += 1
            continue
        if piv != rank:
            M[rank], M[piv] = M[piv], M[rank]
        pr = M[rank]
        p = pr[col]
        # Bareiss step: every remaining row is rescaled by the pivot and
        # divided by the previous pivot, zero multiplier or not; skipping
        # rows would break the exact-divisibility invariant.
        for i in range(rank + 1, nr):
            ri = M[i]
            f = ri[col]
            for j in range(col, nc):
                ri[j] = (ri[j] * p - f * pr[j]) // prev
        prev = p
        rank += 1
        col += 1
    return rank


def _ratio(v) -> tuple:
    """(numerator, denominator) of an int, Fraction or float, exactly."""
    if isinstance(v, (float, np.floating)):
        return v.as_integer_ratio()  # raises on inf and nan
    return v.numerator, v.denominator


def rational_rank(M) -> int:
    """Exact rank of a 2-d array-like of ints, Fractions or finite floats.

    Each row is scaled by the lcm of its denominators, which leaves the rank
    unchanged, and the integer rows go to ``int_rank``.
    """
    try:
        A = np.asarray(M, dtype=object)
    except ValueError:  # rows that are arrays of unequal shape
        raise InputError("expected a 2-d matrix") from None
    if A.ndim != 2:
        raise InputError(f"expected a 2-d matrix, got {A.ndim}-d")
    try:
        ratios = [[_ratio(v) for v in r] for r in A.tolist()]
    except (AttributeError, OverflowError, ValueError):
        raise InputError("entries must be ints, Fractions or finite floats") from None
    rows = []
    for r in ratios:
        den = lcm(*(q for _, q in r))
        rows.append([p * (den // q) for p, q in r])
    return int_rank(rows)


def binary_matrix_is_singular(M) -> bool:
    """Exact singularity test for a square 0/1 matrix."""
    A = as_binary(M, name="matrix")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError("expected a square matrix")
    return int_rank(A.tolist()) < len(A)
