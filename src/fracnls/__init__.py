"""Ground states of the 1D fractional NLS with one-sided derivatives.

The package discretizes the line problem

    (D_+^alpha D_-^alpha) u + V(x) u = f(u),   u >= 0, u != 0,

on a large periodic window by a Fourier pseudospectral method, builds the
constrained variational problem behind it (fibering map, natural constraint,
least energy level c), and exposes solvers plus the checkable consequences of
the theory: nonnegativity of minimizers, the gap c < c_infinity for potentials
below their limit at infinity, continuity of the level under potential shifts,
and the symmetry of ground states for even nondecreasing potentials via the
symmetric decreasing rearrangement.
"""

from .exceptions import (
    AdmissibilityError,
    ConfigurationError,
    HypothesisError,
    ProjectionError,
)
from .grid import (
    Field,
    Grid,
    composed_operator,
    embed_field,
    integrate,
    left_lw_derivative,
    make_grid,
    refine_field,
    right_lw_derivative,
)
from .spaces import (
    embedding_ratio,
    inner_product_X,
    l2_norm,
    norm_X,
    norm_alpha,
    seminorm_alpha,
    sup_norm,
)
from .problem import (
    Nonlinearity,
    Potential,
    Problem,
    custom_nonlinearity,
    make_problem,
    power_nonlinearity,
    problem_from_config,
    validate_nonlinearity,
    validate_potential,
)
from .energy import (
    evaluate_I,
    gradient_I,
    weak_residual_norm,
)
from .solver import (
    GaussianBump,
    GroundStateReport,
    SolverConfig,
    check_nonnegativity,
    default_start,
    ground_state,
    random_starts,
    symmetry_diagnostic,
)
from .nehari import (
    LEVEL_TOL,
    compare_c_to_c_infinity,
    compare_levels,
    continuity_sweep,
    level_c,
    level_c_infinity,
    nehari_project,
)
from .rearrange import (
    layer_cake_check,
    polya_szego_check,
    potential_monotonicity_check,
    rearrange,
    rearrange_values,
)
from .verify import SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "ConfigurationError",
    "HypothesisError",
    "ProjectionError",
    "Field",
    "Grid",
    "composed_operator",
    "embed_field",
    "integrate",
    "left_lw_derivative",
    "make_grid",
    "refine_field",
    "right_lw_derivative",
    "embedding_ratio",
    "inner_product_X",
    "l2_norm",
    "norm_X",
    "norm_alpha",
    "seminorm_alpha",
    "sup_norm",
    "Nonlinearity",
    "Potential",
    "Problem",
    "custom_nonlinearity",
    "make_problem",
    "power_nonlinearity",
    "problem_from_config",
    "validate_nonlinearity",
    "validate_potential",
    "evaluate_I",
    "gradient_I",
    "weak_residual_norm",
    "LEVEL_TOL",
    "compare_c_to_c_infinity",
    "compare_levels",
    "continuity_sweep",
    "level_c",
    "level_c_infinity",
    "nehari_project",
    "GaussianBump",
    "GroundStateReport",
    "SolverConfig",
    "check_nonnegativity",
    "default_start",
    "ground_state",
    "random_starts",
    "symmetry_diagnostic",
    "layer_cake_check",
    "polya_szego_check",
    "potential_monotonicity_check",
    "rearrange",
    "rearrange_values",
    "SUITES",
    "run_suite",
    "__version__",
]
