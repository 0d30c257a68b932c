"""Integer sizes and 0/1 patterns are checked by one owner each, ``linalg.as_int`` and ``linalg.as_binary``.

The first table lists calls that must raise ``InputError``: a pattern entry
other than 0 or 1, ragged rows, and sizes out of bounds.  The second lists
calls on inputs the owners accept, with the value each returns.  The third
reaches the remaining ``InputError`` branches of the input checks.
"""

import numpy as np
import pytest

from reluregions.errors import InputError
from reluregions.exact import binary_matrix_is_singular, rational_rank
from reluregions.experiments import (
    ExperimentConfig,
    gen_cube_data,
    gen_gaussian_data,
    gen_labels,
    init_params,
    read_grid_csv,
    resolve_d0,
    run_singularity_study,
)
from reluregions.funcspace import Polyline, discrete_convexity_check, relu_polyline
from reluregions.linalg import as_binary, as_int, as_vector
from reluregions.model import ActivationPattern, Dataset, Params, forward
from reluregions.onedim import (
    Sorted1D,
    StepVector,
    classify_step_rows,
    coupon_collector_bound,
    is_diverse,
    random_complete_step_matrix,
    sample_step_matrix,
    width_thresholds,
)
from reluregions.regions import UnitPattern, zonotope_vertex_check


def _rng():
    return np.random.default_rng(0)


REJECTED = {
    "UnitPattern fractional entries": lambda: UnitPattern((0.7, 1.9)),
    "UnitPattern string entries": lambda: UnitPattern(("1", "0")),
    "UnitPattern letter entry": lambda: UnitPattern(("a",)),
    "UnitPattern nan entry": lambda: UnitPattern((float("nan"),)),
    "UnitPattern 2-d": lambda: UnitPattern(((0, 1), (1, 0))),
    "ActivationPattern ragged rows": lambda: ActivationPattern([[0, 1], [1]]),
    "gen_gaussian_data negative d0": lambda: gen_gaussian_data(-1, 3, 0),
    "gen_cube_data negative n": lambda: gen_cube_data(2, -3, 0),
    "init_params he zero d0": lambda: init_params("he", 0, 3, 0),
    "init_params sqrtd1 zero d1": lambda: init_params("sqrtd1", 2, 0, 0),
    "sample_step_matrix zero n": lambda: sample_step_matrix(0, 3, _rng()),
    "sample_step_matrix negative d1": lambda: sample_step_matrix(2, -1, _rng()),
    "random_complete_step_matrix zero n": lambda: random_complete_step_matrix(0, [1, -1], _rng()),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_malformed_sizes_and_patterns_raise_input_error(name):
    with pytest.raises(InputError):
        REJECTED[name]()


def _int8(rows):
    return np.array(rows, dtype=np.int8)


# name: (call, the value it returns)
ACCEPTED = {
    "ActivationPattern bools": (
        lambda: ActivationPattern(np.array([[True, False], [False, True]])).A,
        _int8([[1, 0], [0, 1]]),
    ),
    "ActivationPattern floats": (lambda: ActivationPattern([[1.0, 0.0], [-0.0, 1.0]]).A, _int8([[1, 0], [0, 1]])),
    "ActivationPattern object array": (
        lambda: ActivationPattern(np.array([[1, 0.0], [True, 0]], dtype=object)).A,
        _int8([[1, 0], [1, 0]]),
    ),
    "UnitPattern bools": (lambda: UnitPattern((True, False, np.True_)).a, (1, 0, 1)),
    "UnitPattern floats": (lambda: UnitPattern((1.0, 0.0, np.float32(1.0))).a, (1, 0, 1)),
    "UnitPattern object array": (lambda: UnitPattern(np.array([1, 0.0, False], dtype=object)).a, (1, 0, 0)),
    "UnitPattern int8 row": (lambda: UnitPattern(_int8([0, 1])).a, (0, 1)),
    "UnitPattern empty": (lambda: UnitPattern(()).a, ()),
    "classify_step_rows floats": (lambda: classify_step_rows(np.array([[0.0, 1.0, 1.0]])), [StepVector(2, 1, 3)]),
    "is_diverse object array": (
        lambda: is_diverse(np.array([[1, 1], [0, True], [1.0, 0]], dtype=object)),
        True,
    ),
    "binary_matrix_is_singular bools": (lambda: binary_matrix_is_singular(np.ones((2, 2), dtype=bool)), True),
    "binary_matrix_is_singular floats": (lambda: binary_matrix_is_singular(np.eye(3)), False),
    "binary_matrix_is_singular object array": (
        lambda: binary_matrix_is_singular(np.array([[1, 0.0], [True, 1]], dtype=object)),
        False,
    ),
    "gen_gaussian_data zero d0": (lambda: gen_gaussian_data(0, 3, 0).shape, (0, 3)),
    "gen_gaussian_data zero n": (lambda: gen_gaussian_data(2, 0, 0).shape, (2, 0)),
    "gen_cube_data zero sizes": (lambda: gen_cube_data(0, 0, 0).shape, (0, 0)),
    "sample_step_matrix zero d1": (lambda: sample_step_matrix(3, 0, _rng()), np.zeros((0, 3), dtype=np.int8)),
    "zonotope_vertex_check last index": (
        lambda: zonotope_vertex_check([2], np.array([[1.0, -1.0, 0.5], [0.2, 0.3, -1.0]])),
        True,
    ),
    "Sorted1D perm": (lambda: Sorted1D([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [2, 0, 1]).perm, np.array([2, 0, 1])),
}


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_well_formed_sizes_and_patterns_keep_their_values(name):
    call, expected = ACCEPTED[name]
    value = call()
    if isinstance(expected, np.ndarray):
        assert value.dtype == expected.dtype and value.shape == expected.shape
        assert np.array_equal(value, expected)
    else:
        assert value == expected
        if isinstance(expected, tuple):
            assert all(type(bit) is int for bit in value)


def test_as_int_names_the_bound():
    assert as_int(0, "k", 0) == 0 and as_int(3, "k", 1, 3) == 3 and as_int(-2, "k", high=-2) == -2
    for args, message in (
        ((-1, "k", 0), "k must be nonnegative, got -1"),
        ((0, "k", 1), "k must be at least 1, got 0"),
        ((4, "k", 1, 3), "k must lie in [1, 3], got 4"),
        ((0, "k", None, -1), "k must be at most -1, got 0"),
    ):
        with pytest.raises(InputError) as info:
            as_int(*args)
        assert str(info.value) == message


def test_as_binary_returns_a_new_int8_array():
    A = _int8([[0, 1]])
    B = as_binary(A, name="pattern")
    assert B.dtype == np.int8 and np.array_equal(A, B) and not np.shares_memory(A, B)
    with pytest.raises(InputError, match="pattern entries must be 0 or 1"):
        as_binary([[0, 2]], name="pattern")
    with pytest.raises(InputError, match="pattern rows must all have the same length"):
        as_binary([[0, 1], [1]], name="pattern")


_X3 = np.array([[0.0, 1.0, 2.0]])
_P3 = Params(np.ones((1, 1)), np.zeros(1), np.ones(1))


# name: (call, a fragment of the message)
INPUT_ERRORS = {
    "Dataset length mismatch": (lambda: Dataset(_X3, np.zeros(2)), "columns but y has length"),
    "Dataset without points": (lambda: Dataset(np.zeros((1, 0)), np.zeros(0)), "at least one point"),
    "ActivationPattern 1-d": (lambda: ActivationPattern([0, 1]), "2-dimensional"),
    "ActivationPattern entry 2": (lambda: ActivationPattern([[0, 2]]), "0 or 1"),
    "forward wrong X rows": (lambda: forward(_P3, np.zeros((2, 3))), "rows but W expects"),
    "StepVector n": (lambda: StepVector(1, 0, 0), "n must be at least 1"),
    "StepVector variant": (lambda: StepVector(1, 2, 3), "variant must lie in [0, 1]"),
    "random_complete_step_matrix too few negative weights": (
        lambda: random_complete_step_matrix(2, [1.0, 1.0, -1.0, 1.0], _rng()),
        "of sign -1",
    ),
    "Sorted1D length mismatch": (lambda: Sorted1D([0.0, 1.0], [0.0], [0, 1]), "equal length"),
    "Sorted1D without points": (lambda: Sorted1D([], [], []), "at least one data point"),
    "Sorted1D perm out of range": (lambda: Sorted1D([0.0, 1.0], [0.0, 0.0], [0, 2]), "lie in [0, 1]"),
    "Sorted1D perm repeats": (lambda: Sorted1D([0.0, 1.0], [0.0, 0.0], [1, 1]), "permutation"),
    "Sorted1D perm shape": (lambda: Sorted1D([0.0, 1.0], [0.0, 0.0], [[0, 1]]), "permutation"),
    "coupon_collector_bound delta": (lambda: coupon_collector_bound(0.0, 3, 0.1), "delta"),
    "coupon_collector_bound eps": (lambda: coupon_collector_bound(0.5, 3, 1.0), "eps"),
    "coupon_collector_bound n": (lambda: coupon_collector_bound(0.5, 0, 0.1), "n must be at least 1"),
    "width_thresholds n": (lambda: width_thresholds(0, 0.1), "n must be at least 1"),
    "width_thresholds eps": (lambda: width_thresholds(3, 0.0), "eps"),
    "as_vector 2-d": (lambda: as_vector(np.zeros((2, 2)), name="v"), "1-dimensional"),
    "as_vector non-finite": (lambda: as_vector([0.0, np.inf], name="v"), "non-finite"),
    "rational_rank rows of unequal shape": (
        lambda: rational_rank([np.array([[1, 2]]), np.array([[3]])]),
        "2-d matrix",
    ),
    "resolve_d0 zero": (lambda: resolve_d0("0", 4), "d0 must be at least 1"),
    # Python's int() reads each of these as an integer.
    "resolve_d0 underscore": (lambda: resolve_d0("1_0", 4), "unknown d0 rule '1_0'"),
    "resolve_d0 plus sign": (lambda: resolve_d0("+3", 4), "unknown d0 rule '+3'"),
    "resolve_d0 superscript": (lambda: resolve_d0("\u00b2", 4), "unknown d0 rule"),
    "labels poly:x": (lambda: gen_labels("poly:x", _X3, 0), "bad polynomial degree"),
    "labels poly underscore": (lambda: gen_labels("poly:1_0", _X3, 0), "bad polynomial degree"),
    "labels poly plus sign": (lambda: gen_labels("poly:+3", _X3, 0), "bad polynomial degree"),
    "labels poly blank": (lambda: gen_labels("poly: 2", _X3, 0), "bad polynomial degree"),
    "labels poly Arabic-Indic digit": (lambda: gen_labels("poly:\u0662", _X3, 0), "bad polynomial degree"),
    "labels poly:-1": (lambda: gen_labels("poly:-1", _X3, 0), "polynomial degree must be nonnegative"),
    "ExperimentConfig negative seed": (lambda: ExperimentConfig((4,), (2,), seed=-1), "seed must be nonnegative"),
    "ExperimentConfig zero workers": (lambda: ExperimentConfig((4,), (2,), workers=0), "workers must be at least 1"),
    "ExperimentConfig unknown init": (lambda: ExperimentConfig((4,), (2,), init="xavier"), "unknown init"),
    "run_singularity_study negative seed": (lambda: run_singularity_study([2], 3, -1), "seed must be nonnegative"),
    "Polyline.distance dimension mismatch": (
        lambda: relu_polyline(Sorted1D.from_values([0.0, 1.0, 2.0], np.zeros(3))).distance([1.0, 0.0]),
        "dimension mismatch",
    ),
    "discrete_convexity_check length mismatch": (
        lambda: discrete_convexity_check([0.0, 1.0], Sorted1D.from_values([0.0, 1.0, 2.0], np.zeros(3))),
        "f length",
    ),
    "zonotope_vertex_check index out of range": (
        lambda: zonotope_vertex_check([3], np.array([[1.0, -1.0, 0.5], [0.2, 0.3, -1.0]])),
        "each subset index must lie in [0, 2], got 3",
    ),
}


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_input_checks_raise_input_error(name):
    call, message = INPUT_ERRORS[name]
    with pytest.raises(InputError) as info:
        call()
    assert message in str(info.value)


def test_read_grid_csv_rejects_a_missing_file_and_a_bare_header(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        read_grid_csv(tmp_path / "missing.csv")
    path = tmp_path / "grid.csv"
    path.write_text("experiment,d0,d1,n,trials,seed,metric,value,resamples\n", encoding="utf-8")
    with pytest.raises(InputError, match="no data rows"):
        read_grid_csv(path)


def test_canonical_keeps_a_switching_step_vector():
    sv = StepVector(2, 1, 3)
    assert sv.canonical() is sv


def test_distance_to_a_single_vertex_polyline():
    line = Polyline(np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]]))
    assert line.distance([0.0, 1.0]) == pytest.approx(np.sqrt(2.0))
