"""Unit convention and coefficient bookkeeping for the triangular profiles.

Internal units are eV for energy, nm for length, and the free electron mass
m0 for mass, so the mass gradient M1 carries m0/nm.  The single physical
constant everything hangs on is hbar^2/(2 m0) expressed in eV nm^2; its
reciprocal is the curvature factor multiplying m(x)(E - V(x)) in the wave
equation

    phi'' + H m(x) (E - V(x)) phi = 0,      H = 2 m0 / hbar^2 (per m0)

with m(x) = M0 - M1 x linear in position.  Inside the profile region the
bracket is an exact quadratic and the equation is kept in the form

    phi'' - (a1 x^2 + a2 x + a3) phi = 0

whose coefficients, completed-square shift and matching arguments live in
RegionCoefficients.  Outside, V = 0 and the same equation reduces to Airy's
after the affine change of variable provided by airy_argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_finite
from .special import _libm

# CODATA-free on purpose: rounded constants pin the numeric convention.
_HBAR_JS = 1.05e-34
_M0_KG = 9.1e-31
_EV_J = 1.602e-19


@dataclass(frozen=True)
class UnitSystem:
    hbar2_over_2m0: float  # eV nm^2

    @property
    def H_per_m0(self) -> float:
        # exact reciprocal by construction; callers multiply by masses in m0
        return 1.0 / self.hbar2_over_2m0


def make_units() -> UnitSystem:
    value = _HBAR_JS * _HBAR_JS / (2.0 * _M0_KG * _EV_J) * 1.0e18
    return UnitSystem(hbar2_over_2m0=value)


def _take_floats(params, names) -> None:
    """Store the fields names of a frozen dataclass as Python floats,
    refusing an infinite or NaN one by name.

    Parameters are taken to float once, where they are checked, so that
    np.float64 input runs the same float arithmetic as Python floats:
    that raises where numpy would only warn, and prints the same reprs.
    """
    for name in names:
        object.__setattr__(params, name, require_finite(name, getattr(params, name)))


@dataclass(frozen=True)
class MassParams:
    """Linear mass profile m(x) = M0 - M1*x, M0 in m0, M1 in m0/nm."""

    M0: float = 0.067
    M1: float = 0.067

    def __post_init__(self):
        _take_floats(self, ("M0", "M1"))
        if not self.M0 > 0.0:
            raise DomainError(f"M0 must be positive, got {self.M0!r}")
        if not self.M1 >= 0.0:
            raise DomainError(f"M1 must be non-negative, got {self.M1!r}")

    @property
    def mass_zero_nm(self) -> float:
        """Position where m(x) crosses zero; +inf for constant mass."""
        if self.M1 == 0.0:
            return math.inf
        return self.M0 / self.M1

    def mass_at(self, x: float) -> float:
        return self.M0 - self.M1 * x


# Profile shapes: a barrier V0 - alpha x or a well -V0 - alpha x on (0, a)
KINDS = ("barrier", "well")


@dataclass(frozen=True)
class PotentialProfile:
    """Triangular profile on (0, a): V0 - alpha*x (barrier) or -V0 - alpha*x
    (well), zero outside.  V0 in eV, alpha in eV/nm, a in nm."""

    V0: float = 0.45
    alpha: float = 0.45 / 7.0
    a: float = 7.0
    kind: str = "barrier"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"kind must be 'barrier' or 'well', got {self.kind!r}")
        _take_floats(self, ("V0", "alpha", "a"))
        for name in ("V0", "alpha", "a"):
            v = getattr(self, name)
            if not v > 0.0:
                raise DomainError(f"{name} must be positive, got {v!r}")

    @property
    def edge_eV(self) -> float:
        """Signed potential value at x = 0+."""
        return self.V0 if self.kind == "barrier" else -self.V0


@dataclass(frozen=True)
class RegionCoefficients:
    """Quadratic coefficients of the interior equation plus the matching
    arguments at the two interfaces.

    lam is the completed-square constant: with y = x + a2/(2 a1) the interior
    equation reads phi'' - (a1 y^2 + lam) phi = 0.  y2/y4 are the shifted
    interface positions (nm); y1/y3 are the exterior Airy arguments
    (dimensionless, NaN when E <= 0 and no propagating exterior exists).
    """

    a1: float
    a2: float
    a3: float
    lam: float
    y1: float
    y2: float
    y3: float
    y4: float

    @property
    def b_param(self) -> float:
        """First Kummer parameter of the interior basis."""
        return _kummer_b(self.lam, math.sqrt(self.a1))


def _kummer_b(lam, sqrt_a1):
    """First Kummer parameter 1/4 (1 + lam/sqrt(a1)) of the interior basis:
    floats, or arrays elementwise."""
    return 0.25 * (1.0 + lam / sqrt_a1)


def airy_scale(E, mp: MassParams, u: UnitSystem) -> float:
    """Chain-rule factor (H E M1)^(1/3) linking x to the exterior variable."""
    if not E > 0.0:
        raise DomainError(f"exterior Airy form needs E > 0, got {E!r}")
    if E == math.inf:
        raise DomainError(f"exterior Airy form needs a finite E, got {E!r}")
    if mp.M1 == 0.0:
        raise DomainError("M1 = 0 has no Airy exterior; use the oracle path")
    # airy_argument takes H E M0 as well as H E M1
    if not math.isfinite(u.H_per_m0 * float(E) * max(mp.M0, mp.M1)):
        raise DomainError(f"exterior Airy form overflows at E = {E!r}")
    return _unchecked_airy_scale(E, mp, u)


def _unchecked_airy_scale(E, mp: MassParams, u: UnitSystem):
    """(H E M1)^(1/3), unchecked: a float, or an array elementwise."""
    return _libm(np.cbrt, u.H_per_m0 * E * mp.M1)


def airy_argument(x, E, mp: MassParams, u: UnitSystem) -> float:
    """Exterior variable y(x); y = 0 exactly at the mass zero x* = M0/M1."""
    return _airy_argument(airy_scale(E, mp, u), x, E, mp, u)


def _airy_argument(k, x, E, mp: MassParams, u: UnitSystem):
    """airy_argument from the Airy scale k at E: floats, or arrays
    elementwise."""
    return k * x - u.H_per_m0 * E * mp.M0 / (k * k)


def _coefficients(E, mp, alpha, a, u, edge, printed_signs):
    """((a1, a2, a3, lam, y1, y2, y3, y4), k) at energy E for a profile of
    slope alpha, width a and signed edge potential edge, k the Airy scale.

    Floats, where every refusal is raised in the order the lone point
    meets it, and E <= 0 gives k = None and NaN y1 and y3.  Or arrays
    elementwise (numpy silenced by the caller), E among them, at points
    that pass airy_scale's checks: k then takes the same root per element,
    once per point.
    """
    if mp.M1 == 0.0:
        raise DomainError("interior quadratic degenerates at M1 = 0")
    H = u.H_per_m0
    gap = edge - E  # potential edge minus energy, sign folded into edge
    a1 = H * mp.M1 * alpha
    a2 = -H * (mp.M0 * alpha + mp.M1 * gap)
    a3 = H * mp.M0 * gap
    if printed_signs:
        a3 = -a3
    lam = (4.0 * a1 * a3 - a2 * a2) / (4.0 * a1)
    y2 = a2 / (2.0 * a1)
    if np.ndim(E):
        k = _unchecked_airy_scale(E, mp, u)
    elif E > 0.0:
        k = airy_scale(E, mp, u)
    else:
        return (a1, a2, a3, lam, math.nan, y2, math.nan, a + y2), None
    return (a1, a2, a3, lam, _airy_argument(k, 0.0, E, mp, u), y2,
            _airy_argument(k, a, E, mp, u), a + y2), k


def barrier_coefficients(E, mp: MassParams, pp: PotentialProfile,
                         u: UnitSystem, printed_signs: bool = False) -> RegionCoefficients:
    """Interior coefficients for the barrier profile.

    printed_signs flips a3 to the sign convention of the reference closed
    form; the default sign is the one fixed by expanding H m(x)(E - V(x))
    directly, and is what every canonical computation uses.  E is taken
    to a Python float, so the coefficients are floats for an np.float64.
    """
    E = float(E)
    if pp.kind != "barrier":
        raise DomainError(f"barrier_coefficients needs kind='barrier', got {pp.kind!r}")
    if not E > 0.0:
        raise DomainError(f"scattering energy must be positive, got {E!r}")
    if E == math.inf:
        raise DomainError(f"scattering energy must be finite, got {E!r}")
    rc = RegionCoefficients(
        *_coefficients(E, mp, pp.alpha, pp.a, u, pp.V0, printed_signs)[0])
    # lam carries a2^2 and a3: the first coefficient to overflow as E grows
    if not math.isfinite(rc.lam):
        raise DomainError(
            f"scattering energy overflows the interior coefficients, got {E!r}")
    return rc


def well_coefficients(E, mp: MassParams, pp: PotentialProfile,
                      u: UnitSystem) -> RegionCoefficients:
    """Interior coefficients for the well profile; E may be negative."""
    if pp.kind != "well":
        raise DomainError(f"well_coefficients needs kind='well', got {pp.kind!r}")
    if not math.isfinite(E):
        raise DomainError(f"energy must be finite, got {E!r}")
    return RegionCoefficients(
        *_coefficients(E, mp, pp.alpha, pp.a, u, -pp.V0, False)[0])
