"""Numerical toolkit for p-integrable universal Teichmueller spaces."""

from .domains import (
    BeltramiCoefficient,
    ComplexGrid,
    DomainTag,
    DomainError,
    HolomorphicFunction,
    NormReport,
    ainf_norm,
    analytic_besov_norm,
    ap_norm,
    cayley,
    mp_norm,
)
from .solver import (
    QuasiconformalMap,
    SolverError,
    beurling_transform,
    chain_rule,
    compose,
    dilatation,
    identity_map,
    invert,
    solve_disk,
    solve_halfplane,
    solve_plane,
)

__version__ = "0.1.0"

from .bers import (  # noqa: E402
    TeichmullerPoint,
    ahlfors_weill,
    bers_map,
    bilipschitz_representative,
    equivalent,
    hyperbolic_distortion,
    laurent_coefficients,
    local_section,
    schwarzian,
)
from .boundary import (  # noqa: E402
    BoundaryFunction,
    BoundaryHomeomorphism,
    ba_extend,
    besov_characterization_check,
    besov_seminorm,
    boundary_trace,
    log_derivative,
    welding,
    welding_identity_check,
)
