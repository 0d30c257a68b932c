"""Every public function that takes a pattern or a head checks it through one owner.

A pattern on data goes through ``PatternOnData.lift`` (or, for the sorted 1-d
theory, the step-pattern check in ``onedim``), and a head through
``model.checked_head``; a wrong type, a column-count mismatch, a zero head
entry and a wrong head length all raise ``InputError``.
"""

import numpy as np
import pytest

from reluregions.errors import InputError
from reluregions.model import ActivationPattern, jacobian_full_rank
from reluregions.onedim import Sorted1D, fit_exact_1d, is_complete, witness_params_1d
from reluregions.optimize import design_matrix, region_global_min_report, zero_loss_set
from reluregions.regions import UnitPattern, region_nonempty, unit_pattern_feasible

# A complete step pattern on three sorted points: every suffix on both signs of V.
BITS = np.array([[1, 1, 1], [1, 1, 1], [0, 1, 1], [0, 1, 1], [0, 0, 1], [0, 0, 1]])
V = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
Y = np.array([0.5, -0.5, 0.25])
X = np.array([[0.0, 1.0, 2.0]])
DATA = Sorted1D.from_values(X[0], Y)


def _activation(bits):
    return ActivationPattern(bits, bias_flag=True)


def _unit(bits):
    return UnitPattern(tuple(bits[0]), bias_flag=True)


def _same(bits):
    return bits


def _row(bits):
    return np.asarray(bits[0])


# name: (call on a pattern and a head, pattern from bits, raw array of the wrong type)
PATTERN_FUNCTIONS = {
    "jacobian_full_rank": (lambda A, v: jacobian_full_rank(A, X), _activation, _same),
    "design_matrix": (lambda A, v: design_matrix(A, X, v), _activation, _same),
    "zero_loss_set": (lambda A, v: zero_loss_set(A, X, Y, v), _activation, _same),
    "region_global_min_report": (lambda A, v: region_global_min_report(A, X, Y, v), _activation, _same),
    "unit_pattern_feasible": (lambda u, v: unit_pattern_feasible(u, X), _unit, _row),
    "region_nonempty": (lambda A, v: region_nonempty(A, X), _activation, _same),
    # The 1-d theory also takes a 0/1 matrix, so its wrong raw array is one row.
    "witness_params_1d": (lambda A, v: witness_params_1d(A, DATA, v), _same, _row),
    "fit_exact_1d": (lambda A, v: fit_exact_1d(A, DATA, v), _same, _row),
    "is_complete": (lambda A, v: is_complete(A, v), _same, _row),
}
HEAD_FUNCTIONS = (
    "design_matrix",
    "zero_loss_set",
    "region_global_min_report",
    "witness_params_1d",
    "fit_exact_1d",
    "is_complete",
)
# is_complete takes no data, so it has no column count to mismatch.
PATTERN_CASES = [
    (name, bad)
    for name in sorted(PATTERN_FUNCTIONS)
    for bad in ("raw array", "tuple", "columns")
    if not (bad == "columns" and name == "is_complete")
]


@pytest.mark.parametrize("name", sorted(PATTERN_FUNCTIONS))
def test_well_formed_inputs_pass(name):
    call, make, _ = PATTERN_FUNCTIONS[name]
    call(make(BITS), V)


@pytest.mark.parametrize("name, bad", PATTERN_CASES)
def test_malformed_pattern_raises_input_error(name, bad):
    call, make, raw = PATTERN_FUNCTIONS[name]
    pattern = {"raw array": raw(BITS), "tuple": tuple(BITS[0]), "columns": make(BITS[:, :-1])}[bad]
    with pytest.raises(InputError):
        call(pattern, V)


@pytest.mark.parametrize("name", HEAD_FUNCTIONS)
@pytest.mark.parametrize(
    "v, message",
    [
        (np.where(np.arange(6) == 2, 0.0, V), "all entries of v must be nonzero"),
        (V[:-1], "v has length 5 but there are 6 units"),
    ],
    ids=["zero entry", "wrong length"],
)
def test_malformed_head_raises_input_error(name, v, message):
    call, make, _ = PATTERN_FUNCTIONS[name]
    with pytest.raises(InputError, match=message):
        call(make(BITS), v)
