"""Exact rational calculus for Dunkl operators attached to reflection groups.

The package builds root systems with rational data, applies Dunkl operators
and the Dunkl Laplacian to sparse rational polynomials, runs the closed
radially-weighted calculus behind Hobson's expansion of p(D) on radial
functions, projects onto harmonic polynomials, takes exact weighted
spherical means and Gaussian moments, and verifies the transform-side
identities numerically for sign-flip systems.
"""

from .harmonic import (
    HarmonicDecomposition,
    MaxwellDegenerateError,
    clebsch_project_maxwell,
    clebsch_project_series,
    gaussian_series_residual,
    harmonic_decompose,
    hermite_poly,
    rodrigues_residual,
)
from .integrate import (
    gaussian_moment,
    pizzetti_mean,
    sphere_oracle_z2d,
)
from .operators import (
    DunklContext,
    adjoint_formula_residual,
    commutator_residual,
    dunkl_apply,
    dunkl_laplacian_expr,
    dunkl_laplacian_invariant,
    dunkl_laplacian_sq,
    heat_series,
    laplacian_powers,
    mult_commutator_residual,
    poly_of_dunkl,
)
from .poly import (
    ExactDivisionError,
    InvariantError,
    Poly,
    PolyError,
    PolyParseError,
    classical_laplacian,
    compose_reflection,
    divide_exact_by_linear,
    divide_exact_by_norm_sq,
    divided_difference,
    format_poly,
    homogeneous_components,
    linear_form,
    norm_sq_poly,
    parse_poly,
    partial_derivative,
)
from .radial import (
    RadialProfile,
    WeightedFunction,
    hobson_lhs,
    hobson_residual,
    hobson_rhs,
    inv_r_ddr,
    parse_profile,
    weighted_dunkl_apply,
    weighted_poly_of_dunkl,
)
from .roots import (
    DunklConstants,
    RootSystem,
    RootSystemError,
    build_root_system,
    constants,
)
from .verify import CaseResult, VerificationReport, SUITES

__version__ = "0.1.0"
