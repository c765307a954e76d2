"""Bound-state spectrum of the triangular well.

The interior Kummer factor terminates into a degree-n polynomial exactly
when b_param equals -n, and only then does the solution stay normalizable
through the sloped region.  Solving b_param(E) = -n for the energy gives a
closed-form ladder

    E_n = -V0 - M0 alpha / M1 + 2 (alpha^3 / (H M1))^(1/4) sqrt(1 + 4n)

which is increasing in n with concave spacing, so levels above zero appear
past a finite cutoff and everything below it is the bound spectrum.  Each
emitted level carries its quantization residual |b_param(E_n) + n| so the
formula is re-verified through the coefficient path on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .model import MassParams, PotentialProfile, UnitSystem, well_coefficients

# Published comparison targets for the default well (V0 = 0.45 eV,
# alpha = 0.0045 eV/nm): first two levels as printed, and the earlier
# reference computation cited alongside them.  Report-only; the unit
# interpretation behind them is unresolved, so nothing asserts agreement.
TABLE1_PUBLISHED_EV = (-0.29407, -0.00871)
TABLE1_REFERENCE_EV = (-0.20986, -0.00630)


@dataclass(frozen=True)
class SpectrumResult:
    n: int
    E_n: float
    residual: float      # |b_param(E_n) + n| through well_coefficients
    below_zero: bool


@dataclass(frozen=True)
class LevelComparison:
    level: SpectrumResult
    published_eV: float
    reference_eV: float
    gap_published: float
    gap_reference: float


def _require_well(pp: PotentialProfile) -> None:
    if pp.kind != "well":
        raise DomainError(f"bound states need kind='well', got {pp.kind!r}")


def level_spacing_scale(mp: MassParams, pp: PotentialProfile,
                        u: UnitSystem) -> float:
    """The 2 (alpha^3/(H M1))^(1/4) prefactor shared by every level."""
    if mp.M1 == 0.0:
        raise DomainError("spectrum degenerates at M1 = 0")
    return 2.0 * (pp.alpha ** 3 / (u.H_per_m0 * mp.M1)) ** 0.25


def energy_level(n: int, mp: MassParams, pp: PotentialProfile,
                 u: UnitSystem) -> SpectrumResult:
    _require_well(pp)
    if n != int(n) or n < 0:
        raise DomainError(f"level index must be a natural number, got {n!r}")
    n = int(n)
    spacing = level_spacing_scale(mp, pp, u)  # validates M1 before we divide
    e = (-pp.V0 - mp.M0 * pp.alpha / mp.M1
         + spacing * math.sqrt(1.0 + 4.0 * n))
    rc = well_coefficients(e, mp, pp, u)
    return SpectrumResult(n=n, E_n=e, residual=abs(rc.b_param + n),
                          below_zero=e < 0.0)


def count_bound_states(mp: MassParams, pp: PotentialProfile,
                       u: UnitSystem) -> int:
    """Number of levels below zero; finite for every alpha > 0.

    Spacing grows like alpha^(3/4) while the well floor rises only
    linearly, so the scan always terminates.
    """
    return len(spectrum(mp, pp, u)) - 1


def spectrum(mp: MassParams, pp: PotentialProfile,
             u: UnitSystem) -> list[SpectrumResult]:
    """Every bound level plus the first unbound one, in order.

    The trailing below_zero=False row makes the count cutoff visible in
    reports without a separate marker line.
    """
    _require_well(pp)
    levels = []
    n = 0
    while True:
        level = energy_level(n, mp, pp, u)
        levels.append(level)
        if not level.below_zero:
            return levels
        n += 1


def table1_report(mp: MassParams, pp: PotentialProfile,
                  u: UnitSystem) -> list[LevelComparison]:
    """Computed lowest levels next to both published columns.

    The gaps are reported, never asserted: no reading of the published
    parameter set reproduces those numbers from the energy formula, and
    guessing a rescaling would only hide that.
    """
    rows = []
    for n, (pub, ref) in enumerate(zip(TABLE1_PUBLISHED_EV,
                                       TABLE1_REFERENCE_EV)):
        level = energy_level(n, mp, pp, u)
        rows.append(LevelComparison(level=level, published_eV=pub,
                                    reference_eV=ref,
                                    gap_published=abs(level.E_n - pub),
                                    gap_reference=abs(level.E_n - ref)))
    return rows
