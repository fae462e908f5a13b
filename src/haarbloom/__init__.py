"""Dyadic biparameter Haar calculus on [0,1)^2 with two-weight Bloom bookkeeping.

The package is split by concern; the names most users need are re-exported
here.  ``dyadic`` holds the grid, the tensor Haar basis and the fast
transform, ``weights`` the A_p bookkeeping, ``operators`` the paraproducts,
multipliers and commutators, ``norms`` the square functions and oscillation
searches, ``opnorm`` the weighted operator-norm estimators, and
``experiments`` the seeded ratio studies behind the ``haar-bloom`` CLI.
"""

from .dyadic import (
    DyadicInterval,
    DyadicRectangle,
    GridFunction2D,
    HaarCoefficients2D,
    Shadow,
    all_rectangles,
    cancellative_rectangles,
    grid_from_csv,
    grid_to_csv,
    haar_forward,
    haar_function,
    haar_inverse,
    haar_project,
    partial_haar_sum,
    random_grid,
    random_symbol,
    unit_square,
)
from .experiments import ExperimentConfig
from .norms import (
    bmo_prod_one_weight,
    bmo_prod_two_weight,
    little_bmo,
    lp_weighted_norm,
    square_function,
    strong_maximal,
    triebel_lizorkin_square_function,
)
from .operators import (
    SignChoice1D,
    SignChoice2D,
    commutator_apply,
    commutator_matrices,
    haar_multiplier,
    iterated_commutator,
    lambda_apply,
    lambda_matrix,
    lambda_operator,
    materialize,
    paraproduct_apply,
    paraproduct_matrix,
    paraproduct_operator,
    restricted_projection,
    theta_apply,
)
from .opnorm import opnorm, opnorm_p2_exact, sup_commutator_norm
from .weights import (
    Weight,
    ap_characteristic,
    bloom_weight,
    conjugate_weight,
    constant_weight,
    random_cascade_weight,
)

__version__ = "0.1.0"

__all__ = [
    "DyadicInterval",
    "DyadicRectangle",
    "ExperimentConfig",
    "GridFunction2D",
    "HaarCoefficients2D",
    "Shadow",
    "SignChoice1D",
    "SignChoice2D",
    "Weight",
    "all_rectangles",
    "ap_characteristic",
    "bloom_weight",
    "bmo_prod_one_weight",
    "bmo_prod_two_weight",
    "cancellative_rectangles",
    "commutator_apply",
    "commutator_matrices",
    "conjugate_weight",
    "constant_weight",
    "grid_from_csv",
    "grid_to_csv",
    "haar_forward",
    "haar_function",
    "haar_inverse",
    "haar_multiplier",
    "haar_project",
    "iterated_commutator",
    "lambda_apply",
    "lambda_matrix",
    "lambda_operator",
    "little_bmo",
    "lp_weighted_norm",
    "materialize",
    "opnorm",
    "opnorm_p2_exact",
    "paraproduct_apply",
    "paraproduct_matrix",
    "paraproduct_operator",
    "partial_haar_sum",
    "random_cascade_weight",
    "random_grid",
    "random_symbol",
    "restricted_projection",
    "square_function",
    "strong_maximal",
    "sup_commutator_norm",
    "theta_apply",
    "triebel_lizorkin_square_function",
    "unit_square",
]
