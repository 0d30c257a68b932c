"""Activation-region analysis of two-layer ReLU networks on finite data.

Subpackages by theme: ``linalg``/``exact``/``lp`` (numerical and exact
kernels), ``model`` (the network and its per-region Jacobian), ``regions``
(counting, feasibility and enumeration), ``onedim`` (the sorted 1-d theory
and exact fitting), ``optimize`` (the per-region design matrix and zero-loss certification),
``funcspace`` (single-unit function space), ``experiments``/``cli`` (Monte
Carlo grids and the command line).
"""

from .errors import InputError, InvariantViolation
from .exact import binary_matrix_is_singular, int_rank, rational_rank
from .experiments import (
    CellResult,
    ExperimentConfig,
    GridResult,
    emit_outputs,
    gen_cube_data,
    gen_gaussian_data,
    gen_labels,
    init_params,
    run_globalmin_grid,
    run_rank_grid,
    run_singularity_study,
)
from .funcspace import Polyline, discrete_convexity_check, relu_polyline, single_relu_membership
from .linalg import (
    DEFAULT_TOL,
    Tol,
    embed_ones,
    khatri_rao,
    least_squares_min_norm,
    mat_rank,
    normalize_rows,
    nullspace_basis,
)
from .lp import MarginResult, kernel_backend, lp_max_margin, lp_positive_null
from .model import (
    ActivationPattern,
    Dataset,
    Params,
    activation_pattern,
    forward,
    jacobian_full_rank,
    loss,
)
from .onedim import (
    Sorted1D,
    StepVector,
    all_step_vectors,
    classify_step_row,
    classify_step_rows,
    coupon_collector_bound,
    fit_exact_1d,
    is_complete,
    is_diverse,
    random_complete_step_matrix,
    sample_step_matrix,
    step_vector,
    width_thresholds,
    witness_params_1d,
)
from .optimize import (
    RegionMinReport,
    design_matrix,
    region_global_min_report,
    zero_loss_set,
)
from .regions import (
    FeasibilityCert,
    UnitPattern,
    certify_general_position,
    count_regions_general_position,
    enumerate_feasible_unit_patterns,
    region_nonempty,
    unit_pattern_feasible,
    zonotope_vertex_check,
)

__version__ = "0.1.0"
