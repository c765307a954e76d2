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

# Published comparison targets for the Table-1 well TABLE1_WELL (V0 = 0.45
# eV, alpha = 0.0045 eV/nm, a = 7 nm): first two levels as printed, and the
# earlier reference computation cited alongside them.  Report-only; the unit
# interpretation behind them is unresolved, so nothing asserts agreement.
TABLE1_PUBLISHED_EV = (-0.29407, -0.00871)
TABLE1_REFERENCE_EV = (-0.20986, -0.00630)
TABLE1_WELL = PotentialProfile(V0=0.45, alpha=0.0045, a=7.0, kind="well")

# Most bound levels spectrum() lists.  The count grows as alpha^(-3/2):
# 57 for TABLE1_WELL, 16 855 at alpha = 1e-4 eV/nm, about 1.7e7 at 1e-6.
MAX_LISTED_LEVELS = 100_000


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
    try:
        spacing = 2.0 * (pp.alpha ** 3 / (u.H_per_m0 * mp.M1)) ** 0.25
    except OverflowError:  # the float power alpha^3, alpha above ~5.6e102
        spacing = math.inf
    if not math.isfinite(spacing):
        raise DomainError(f"level spacing overflows at alpha = {pp.alpha!r} eV/nm")
    return spacing


def _ladder_floor(mp: MassParams, pp: PotentialProfile) -> float:
    """-V0 - M0 alpha / M1: E_n less its n-dependent term."""
    return -pp.V0 - mp.M0 * pp.alpha / mp.M1


def energy_level(n: int, mp: MassParams, pp: PotentialProfile,
                 u: UnitSystem) -> SpectrumResult:
    _require_well(pp)
    try:
        natural = n == int(n) and n >= 0
    except (ValueError, OverflowError):  # int() of NaN or of an infinity
        natural = False
    if not natural:
        raise DomainError(f"level index must be a natural number, got {n!r}")
    n = int(n)
    spacing = level_spacing_scale(mp, pp, u)  # validates M1 before we divide
    e = _ladder_floor(mp, pp) + spacing * math.sqrt(1.0 + 4.0 * n)
    rc = well_coefficients(e, mp, pp, u)
    return SpectrumResult(n=n, E_n=e, residual=abs(rc.b_param + n),
                          below_zero=e < 0.0)


def count_bound_states(mp: MassParams, pp: PotentialProfile,
                       u: UnitSystem) -> int:
    """Number of levels below zero, from the ladder in closed form.

    E_n < 0 exactly when sqrt(1 + 4n) < depth = -floor / spacing, that is
    n < (depth^2 - 1) / 4, with floor = _ladder_floor.  Rounding can put
    that bound one level off where a level sits near zero, so the boundary
    is confirmed by energy_level's own below_zero.  The count is finite
    for every alpha > 0 but grows as alpha^(-3/2), which is why no level
    is listed to find it.
    """
    _require_well(pp)
    spacing = level_spacing_scale(mp, pp, u)
    # the spacing is 0 only where alpha^3 underflows
    depth = -_ladder_floor(mp, pp) / spacing if spacing > 0.0 else math.inf
    bound = (depth * depth - 1.0) / 4.0
    if not math.isfinite(bound):
        raise DomainError(f"level count overflows at alpha = {pp.alpha!r} eV/nm")
    n = max(0, math.ceil(bound))
    if n > 0 and not energy_level(n - 1, mp, pp, u).below_zero:
        n -= 1
    elif energy_level(n, mp, pp, u).below_zero:
        n += 1
    return n


def spectrum(mp: MassParams, pp: PotentialProfile,
             u: UnitSystem) -> list[SpectrumResult]:
    """Every bound level plus the first unbound one, in order.

    The trailing below_zero=False row makes the count cutoff visible in
    reports without a separate marker line.  A well with more than
    MAX_LISTED_LEVELS bound levels is refused before the list is built.
    """
    count = count_bound_states(mp, pp, u)
    if count > MAX_LISTED_LEVELS:
        # past 2^53 the count is the ceiling of a double: its 17 digits
        shown = f"{count:.17g}" if count > 2 ** 53 else str(count)
        raise DomainError(f"{shown} bound levels, more than the "
                          f"{MAX_LISTED_LEVELS} a spectrum lists")
    return [energy_level(n, mp, pp, u) for n in range(count + 1)]


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
