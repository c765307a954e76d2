"""Transmission and bound states of triangular quantum profiles with a
linearly varying effective mass.

The interior of the profile obeys phi'' = (a1 x^2 + a2 x + a3) phi and is
solved in closed form with a Kummer pair; the exterior is the Airy pair in
a stretched coordinate.  Everything numeric is cross-checked at runtime by
an independent fourth-order integrator (oracle) and a suite of identity
checks (validate).
"""

from .bound import (TABLE1_PUBLISHED_EV, LevelComparison, SpectrumResult,
                    count_bound_states, energy_level, spectrum,
                    table1_report)
from .errors import AccuracyError, ConditioningError, DomainError, TriqError
from .model import (MassParams, PotentialProfile, RegionCoefficients,
                    UnitSystem, airy_argument, airy_scale,
                    barrier_coefficients, make_units, well_coefficients)
from .oracle import (IntegrationSpec, integrate, matched_transmission,
                     ode_residual)
from .scatter import (FIDELITY_MODES, SweepRow, TransmissionResult,
                      rescale_diagnostic, sweep, transmission)
from .special import airy_ai, airy_bi, gamma, kummer_m, recip_gamma
from .validate import info_lines, run_suites

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ConditioningError",
    "DomainError",
    "FIDELITY_MODES",
    "IntegrationSpec",
    "LevelComparison",
    "MassParams",
    "PotentialProfile",
    "RegionCoefficients",
    "SpectrumResult",
    "SweepRow",
    "TABLE1_PUBLISHED_EV",
    "TransmissionResult",
    "TriqError",
    "UnitSystem",
    "airy_ai",
    "airy_argument",
    "airy_bi",
    "airy_scale",
    "barrier_coefficients",
    "count_bound_states",
    "energy_level",
    "gamma",
    "info_lines",
    "integrate",
    "kummer_m",
    "make_units",
    "matched_transmission",
    "ode_residual",
    "recip_gamma",
    "rescale_diagnostic",
    "run_suites",
    "spectrum",
    "sweep",
    "table1_report",
    "transmission",
    "well_coefficients",
]
