from fractions import Fraction

import numpy as np
import pytest

from reluregions import binary_matrix_is_singular, int_rank, rational_rank
from reluregions.errors import InputError
from reluregions.onedim import StepVector


def test_zero_matrix_rank():
    assert rational_rank([[0] * 4] * 4) == 0


def test_rank_one_ones():
    assert rational_rank([[1, 1], [1, 1]]) == 1


def test_suffix_vectors_form_basis():
    n = 5
    rows = [StepVector(k, 1, n).values().tolist() for k in range(1, n + 1)]
    assert rational_rank(rows) == n


def test_from_floats_is_exact():
    # 0.1 is not dyadic: the float is its exact binary value, not 1/10.
    assert rational_rank([[0.1, 1.0], [Fraction(1, 10), 1]]) == 2
    assert rational_rank([[0.1, 1.0], [Fraction(0.1), 1]]) == 1
    # Dyadic floats are the rationals they print as.
    assert rational_rank([[0.25, -2.5], [Fraction(1, 4), Fraction(-5, 2)]]) == 1


def test_rational_entries_scaled_consistently():
    # Second row is 4/3 times the first: rank 1.
    assert rational_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(2, 3), Fraction(4, 9)]]) == 1


def test_int_rank_matches_numpy_on_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        M = rng.integers(-4, 5, size=(rng.integers(1, 7), rng.integers(1, 7)))
        assert int_rank(M.tolist()) == np.linalg.matrix_rank(M)


def test_binary_singular_exhaustive_2x2():
    singular = sum(
        binary_matrix_is_singular(np.array([[a, b], [c, d]]))
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
        for d in (0, 1)
    )
    assert singular == 10


def test_int_rank_rejects_longer_later_row():
    with pytest.raises(InputError):
        int_rank([[1], [2, 3]])


def test_int_rank_rejects_shorter_later_row():
    with pytest.raises(InputError):
        int_rank([[1, 2], [3]])


def test_int_rank_rejects_float_entry():
    with pytest.raises(InputError):
        int_rank([[0.5]])


def test_int_rank_rejects_fraction_entry():
    with pytest.raises(InputError):
        int_rank([[Fraction(1, 2)]])


def test_binary_singular_matches_rational_rank():
    # A random 0/1 matrix is singular only about 2% of the time at d = 16;
    # a forced duplicate column makes singular matrices appear at every d.
    rng = np.random.default_rng(1)
    for _ in range(300):
        d = int(rng.integers(1, 17))
        M = rng.integers(0, 2, size=(d, d))
        duplicate = d > 1 and rng.random() < 0.3
        if duplicate:
            i, j = rng.choice(d, size=2, replace=False)
            M[:, j] = M[:, i]
        expected = rational_rank(M) < d
        assert binary_matrix_is_singular(M) == expected
        if duplicate:
            assert expected


def test_binary_singular_rejects_non_binary():
    with pytest.raises(InputError):
        binary_matrix_is_singular(np.array([[2, 0], [0, 1]]))
    with pytest.raises(InputError):
        binary_matrix_is_singular(np.int64(1))
    with pytest.raises(InputError):
        binary_matrix_is_singular([[1], [0, 1]])


def test_ratmat_shape_validation():
    with pytest.raises(InputError):
        rational_rank([[1, 2], [3]])
    with pytest.raises(InputError):
        rational_rank([1.0, 2.0])
    with pytest.raises(InputError):
        rational_rank(np.array([[np.inf, 0.0]]))
    with pytest.raises(InputError):
        rational_rank(np.array([[np.nan, 0.0]]))
