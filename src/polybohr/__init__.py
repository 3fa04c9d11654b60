"""Sharp Bohr-type radii on the unit polydisc.

Radii for three families of Bohr-type functionals, each from a correctly
rounded root rho with an exact two-float certificate (r = (rho/n)^(1/m) is
then a float power), the Mobius witness family attaining them, the
elementary polydisc bounds the proofs rest on, and a truncated-series
engine that checks every closed form independently.
"""

from .bounds import (DEFAULT_SEED, coefficient_bound_check,
                     zero_multiplicity_bound_check)
from .extremal import (ExtremalParams, Verification, Witness,
                       WitnessNotFoundError, empirical_radius,
                       extremal_functional, extremal_functional_from_series,
                       extremal_series, majorant_functional,
                       sharpness_witness, verify_radius)
from .mvseries import (Direction, MultiIndex, SchwarzPowerMap,
                       TruncatedSeries, multi_indices)
from .radii import (Functional, FunctionalKind, RadiusProblem, RadiusResult,
                    RhoPolynomial, radius_for)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "Direction",
    "ExtremalParams",
    "Functional",
    "FunctionalKind",
    "MultiIndex",
    "RadiusProblem",
    "RadiusResult",
    "RhoPolynomial",
    "SchwarzPowerMap",
    "TruncatedSeries",
    "Verification",
    "Witness",
    "WitnessNotFoundError",
    "coefficient_bound_check",
    "empirical_radius",
    "extremal_functional",
    "extremal_functional_from_series",
    "extremal_series",
    "majorant_functional",
    "multi_indices",
    "radius_for",
    "sharpness_witness",
    "verify_radius",
    "zero_multiplicity_bound_check",
]
