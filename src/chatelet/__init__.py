"""Chow groups of degree-zero 0-cycles on Chatelet surfaces over Q and its completions.

The surface y^2 - d z^2 = (x - c1)(x - c2)(x - c3) has an elementary abelian
2-group of degree-zero 0-cycle classes at every place of Q; `local_chow`
computes it at one place (with generators inside (Z/2)^3) and `global_chow`
assembles the group over Q from the finitely many places that matter.
"""

from .checks import (
    CASE_FAMILIES,
    CheckReport,
    SuiteResult,
    check_equivariance,
    check_order_agreement,
    check_reciprocity,
    check_root_scaling,
    check_sampled_membership,
    check_square_scaling,
    random_rational,
    random_surface,
    run_check,
)
from .factorint import FactorizationError, factorize, is_prime
from .globalchow import (
    GlobalReport,
    ReciprocityReport,
    candidate_places,
    global_chow,
    kernel_dimension,
    reciprocity_check,
)
from .local import (
    ContradictionError,
    DegenerateSurfaceError,
    LocalReport,
    NormalizedSurface,
    Subgroup3,
    TRIVIAL_SUBGROUP,
    characteristic_points,
    characteristic_subgroup,
    classify_case,
    local_chow,
    normalize_roots,
    special_fiber_images,
)
from .norms import (
    ExtKind,
    QuadExtClass,
    chi,
    classify_extension,
    conductor_n,
    is_local_square,
    norm_char_fn,
)
from .padic import (
    REAL_PLACE,
    Place,
    hilbert_symbol,
    is_rational_square,
    legendre,
    require_prime_place,
    valuation,
)

__version__ = "0.1.0"

__all__ = [
    "CASE_FAMILIES",
    "CheckReport",
    "ContradictionError",
    "DegenerateSurfaceError",
    "ExtKind",
    "FactorizationError",
    "GlobalReport",
    "LocalReport",
    "NormalizedSurface",
    "Place",
    "QuadExtClass",
    "REAL_PLACE",
    "ReciprocityReport",
    "Subgroup3",
    "SuiteResult",
    "TRIVIAL_SUBGROUP",
    "candidate_places",
    "characteristic_points",
    "characteristic_subgroup",
    "check_equivariance",
    "check_order_agreement",
    "check_reciprocity",
    "check_root_scaling",
    "check_sampled_membership",
    "check_square_scaling",
    "chi",
    "classify_case",
    "classify_extension",
    "conductor_n",
    "factorize",
    "global_chow",
    "hilbert_symbol",
    "is_local_square",
    "is_prime",
    "is_rational_square",
    "kernel_dimension",
    "legendre",
    "local_chow",
    "norm_char_fn",
    "normalize_roots",
    "random_rational",
    "random_surface",
    "reciprocity_check",
    "require_prime_place",
    "run_check",
    "special_fiber_images",
    "valuation",
]
