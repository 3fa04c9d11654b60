"""Sharp Bohr-type radii on the unit polydisc.

Closed-form and root-solved radii (float bracket <= 1e-14 plus residual
<= 1e-12; an exact certificate is ROADMAP item 4) for three families of
Bohr-type functionals, the Mobius witness family attaining them, the
elementary polydisc bounds the proofs rest on, and a truncated-series
engine that checks every closed form independently.
"""

from .bounds import (DEFAULT_SEED, coefficient_bound_check, derivative_bound,
                     phi_psi_monotone, schwarz_pick_bound,
                     zero_multiplicity_bound_check)
from .extremal import (ExtremalParams, Verification, Witness,
                       WitnessNotFoundError, empirical_radius,
                       extremal_functional, extremal_functional_from_series,
                       extremal_series, majorant_functional,
                       rogosinski_threshold, rogosinski_value,
                       sharpness_witness, verify_radius)
from .mvseries import (Direction, MultiIndex, SchwarzPowerMap,
                       TruncatedSeries, multi_indices)
from .radii import (GOLDEN_CONJUGATE, SQRT2_MINUS_1, Functional,
                    FunctionalKind, RadiusProblem, RadiusResult, RhoPolynomial,
                    convex_rho_closed_form, convex_rho_polynomial,
                    deriv_rho_polynomial, radius_for, sq_deriv_rho_polynomial)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "Direction",
    "ExtremalParams",
    "Functional",
    "FunctionalKind",
    "GOLDEN_CONJUGATE",
    "MultiIndex",
    "RadiusProblem",
    "RadiusResult",
    "RhoPolynomial",
    "SQRT2_MINUS_1",
    "SchwarzPowerMap",
    "TruncatedSeries",
    "Verification",
    "Witness",
    "WitnessNotFoundError",
    "coefficient_bound_check",
    "convex_rho_closed_form",
    "convex_rho_polynomial",
    "deriv_rho_polynomial",
    "derivative_bound",
    "empirical_radius",
    "extremal_functional",
    "extremal_functional_from_series",
    "extremal_series",
    "majorant_functional",
    "multi_indices",
    "phi_psi_monotone",
    "radius_for",
    "rogosinski_threshold",
    "rogosinski_value",
    "schwarz_pick_bound",
    "sharpness_witness",
    "sq_deriv_rho_polynomial",
    "verify_radius",
    "zero_multiplicity_bound_check",
]
