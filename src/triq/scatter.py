"""Wave matching and transmission for the triangular barrier.

Three regions: x < 0 and x > a carry the Airy pair in the stretched
variable y(x) (model.airy_argument); 0 < x < a carries the Kummer pair of
the completed-square interior equation phi'' = (a1 y^2 + lam) phi with
y = x + a2/(2 a1).  Continuity of phi and phi' at x = 0 and x = a gives a
4x4 linear system over (b1, b2, b3, b4) with the transmitted amplitude b5
normalized; the canonical transmission is the amplitude ratio

    T_solve = (b5 / b1)^2

with no flux weighting.  The Airy exterior keeps the mass m(x) = M0 - M1 x
linear on the whole line, so past x* = M0/M1 the mass is negative, the
transmitted wave is the decaying Ai and no transmitted current exists to
normalize by.  What T_solve does promise: it is exactly 1 with no profile
(the wave is b5 Ai on the whole line, so b1 = b5); it departs from 1 at
first order in V0; it is not bounded by 1 (above the default barrier it
settles near 4, the barrier slowing the evanescent decay); and it has a
pole wherever b1 passes through zero.  |b1| below RESONANCE_RTOL of the
amplitude scale is reported as T_solve = +inf.

The published closed form T_paper = (t1/t2)^2 is carried alongside,
evaluated exactly as printed, quirks included (t2 is a product of four
brackets of total degree four against t1 of degree two, so T_paper is not
invariant under rescaling the transmitted amplitude; see
rescale_diagnostic).  Fidelity modes select printed variants of
intermediate quantities for side-by-side comparison:

    none   canonical everything (default)
    signs  interior a3 with the printed sign
    t2     matching columns from the printed abbreviation set instead of
           the chain-rule basis derivatives
    all    both of the above
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import AccuracyError, ConditioningError, DomainError, TriqError
from .model import (MassParams, PotentialProfile, RegionCoefficients,
                    UnitSystem, airy_scale, barrier_coefficients)
from .special import (AiryPair, airy_ai, airy_bi, kummer_m, recip_gamma,
                      tricomi_u_large_z)

# |b1| below this fraction of the amplitude scale marks a resonance point
RESONANCE_RTOL = 1e-12

# Worst error estimate second() accepts before refusing the point.  Both
# routes' estimates overshoot the observed error by orders of magnitude in
# their crossover band, so this is a garbage gate, not a precision claim:
# points that pass are delivered at ~1e-7 or better, points that fail would
# come back with no correct digits at all.
_SECOND_BUDGET = 1e-4
_LOSS_CAP = 1e200

FIDELITY_MODES = ("none", "signs", "t2", "all")
AXES = ("E", "V0", "a")


# 1/Gamma(c) of the three kernel c values: the regularized kernels are the
# plain series times these (DLMF 13.2.4: M~(b;c;z) = M(b;c;z)/Gamma(c)),
# the same doubles kummer_m_regularized returns
_RG_HALF = recip_gamma(0.5)
_RG_THREE_HALVES = recip_gamma(1.5)
_RG_FIVE_HALVES = recip_gamma(2.5)


class _Kernels(NamedTuple):
    """Kummer evaluations at one interior point, four series in all.

    m_val, m_dval, r_odd and r_odd_d are one series each; the regularized
    ones are a series times the constant 1/Gamma(c), the same doubles
    kummer_m_regularized would return.  One instance per interface feeds
    first(), second() and abbreviations_at(), which read y and z from it
    and nothing else about the point.
    """

    y: float         # x + y_offset, signed distance from the vertex
    z: float         # sqrt(a1) y^2
    damp: float      # e^(-z/2)
    m_val: float     # M(b; 1/2; z)
    m_dval: float    # M(b+1; 3/2; z)
    r_even: float    # regularized (b; 1/2; z)
    r_even_d: float  # regularized (b+1; 3/2; z)
    r_odd: float     # regularized (b+1/2; 3/2; z)
    r_odd_d: float   # regularized (b+3/2; 5/2; z)


@dataclass(frozen=True)
class RegionIIBasis:
    """Closed-form solution pair of the interior equation.

    first() is even about the completed-square vertex: e^(-z/2) M(b;1/2;z)
    with z = sqrt(a1) y^2.  second() is the linear combination that stays a
    classical solution across y = 0: the printed second solution carries
    sqrt(z) = a1^(1/4)|y|, which kinks at the vertex, so the odd factor is
    built with the signed y instead.

    The reciprocal Gammas below depend on b_param alone: each is evaluated
    once per basis, on first use, and shared by both interfaces.  First
    use, not construction, so a point the kernels refuse still reports the
    kernel's error rather than a Gamma overflow further down the line.
    """

    b_param: float
    sqrt_a1: float
    y_offset: float  # y(x) = x + y_offset

    @cached_property
    def rg_b(self) -> float:
        """1/Gamma(b)."""
        return recip_gamma(self.b_param)

    @cached_property
    def rg_bh(self) -> float:
        """1/Gamma(b + 1/2)."""
        return recip_gamma(self.b_param + 0.5)

    @cached_property
    def rg_f6(self) -> float:
        """1/Gamma(1/4 + lam/sqrt(a1)), the printed Gamma argument of f6.

        NaN where that 1/Gamma overflows (b below about -41.99): f6 only
        feeds the printed diagnostic T_paper, which then goes NaN, while
        T_solve does not read it.  The printed-column fidelity modes put f6
        into the matrix, whose non-finite entry still refuses the point.
        """
        try:
            return recip_gamma(0.25 + (4.0 * self.b_param - 1.0))
        except AccuracyError:
            return math.nan

    def kernels(self, x: float) -> _Kernels:
        b = self.b_param
        y = x + self.y_offset
        z = self.sqrt_a1 * y * y
        m_val = kummer_m(b, 0.5, z)
        m_dval = kummer_m(b + 1.0, 1.5, z)
        return _Kernels(y=y, z=z, damp=math.exp(-0.5 * z),
                        m_val=m_val, m_dval=m_dval,
                        r_even=m_val * _RG_HALF,
                        r_even_d=m_dval * _RG_THREE_HALVES,
                        r_odd=kummer_m(b + 0.5, 1.5, z) * _RG_THREE_HALVES,
                        r_odd_d=kummer_m(b + 1.5, 2.5, z) * _RG_FIVE_HALVES)

    def first(self, ker: _Kernels) -> tuple[float, float]:
        """(value, d/dx) of the even basis solution at the kernels' point."""
        b = self.b_param
        y = ker.y
        value = ker.damp * ker.m_val
        deriv = self.sqrt_a1 * y * ker.damp * (4.0 * b * ker.m_dval - ker.m_val)
        return value, deriv

    def second(self, ker: _Kernels) -> tuple[float, float]:
        """(value, d/dx) of the companion solution (signed odd branch).

        This is the only evaluation of Tricomi's U(b; 1/2; z): the two-term
        form pi [M~(b;1/2;z)/Gamma(b+1/2) - sqrt(z) M~(b+1/2;3/2;z)/Gamma(b)]
        (DLMF 13.2.42) with sqrt(z) carried as a1^(1/4) y.  For y > 0 this
        is the recessive direction, and the two terms cancel
        catastrophically once z is large (14 digits gone by z ~ 140).  The
        measured cancellation picks between the subtraction form and the
        large-z recurrence; if neither route can promise the budget the
        point is refused rather than returned wrong.
        """
        b = self.b_param
        y = ker.y
        s = self.sqrt_a1
        root = math.sqrt(s)  # a1^(1/4)
        rg_b = self.rg_b
        rg_bh = self.rg_bh
        va = ker.r_even * rg_bh
        vb = root * y * ker.r_odd * rg_b
        da = 2.0 * s * y * b * ker.r_even_d * rg_bh
        db = root * ker.r_odd * rg_b
        dc = 2.0 * s * root * y * y * (b + 0.5) * ker.r_odd_d * rg_b
        u = math.pi * (va - vb)
        du_dy = math.pi * (da - db - dc)
        loss = max(_loss(abs(va) + abs(vb), va - vb),
                   _loss(abs(da) + abs(db) + abs(dc), da - db - dc))
        # ~10x above the observed error per unit loss in the moderate-z band;
        # past z ~ 25 the recurrence route wins the comparison regardless.
        est = 1e-15 * loss
        if y > 0.0 and est > 1e-11:
            u_val, e_val = tricomi_u_large_z(b, 0.5, ker.z)
            u_slope, e_slope = tricomi_u_large_z(b + 1.0, 1.5, ker.z)
            if max(e_val, e_slope) < est:
                u = u_val
                du_dy = -2.0 * s * y * b * u_slope  # dU/dz chain through z(y)
                est = max(e_val, e_slope)
        if est > _SECOND_BUDGET:
            raise AccuracyError(
                f"companion solution unreliable at y={y!r}, z={ker.z!r}: "
                f"best error estimate {est:.1e}", value=ker.z)
        value = ker.damp * u
        deriv = ker.damp * (du_dy - s * y * u)
        return value, deriv


def _loss(parts: float, net: float) -> float:
    """Cancellation factor parts / |net| of second(), |net| floored at 1e-300.

    Saturates at _LOSS_CAP instead of overflowing: the two terms can cancel
    to exactly zero (at x = a near E = 1.925 and 2.037 eV on the default
    barrier), where parts / 1e-300 would be inf, and a np.float64 input
    would raise an overflow warning.  Any loss past 1e11 already puts the
    subtraction form over _SECOND_BUDGET: the point then stands or falls by
    the recurrence's own estimate, which beats the capped one exactly when
    it beats the uncapped one within budget, so no route decision moves.
    """
    den = max(abs(net), 1e-300)
    if parts * (1.0 / _LOSS_CAP) < den:
        return parts / den
    return _LOSS_CAP


def basis_for(rc: RegionCoefficients) -> RegionIIBasis:
    return RegionIIBasis(b_param=rc.b_param, sqrt_a1=math.sqrt(rc.a1),
                         y_offset=rc.y2)


class AbbreviationSet(NamedTuple):
    """The published shorthand quantities, evaluated exactly as printed.

    The interface x = 0 set is f*, the x = a set is g* (same expressions at
    y4 instead of y2).  Known print quirks are kept on purpose: f8 lacks
    the 4b factor the chain rule produces, f5p divides by a1^(1/4) y2 which
    cancels the y2 the value column needs, and f6's reciprocal-gamma
    argument drops a /4.  The canonical path never consumes these.
    """

    f1: float
    f2: float
    f3: float
    f4: float
    f5: float
    f6: float
    f1p: float
    f3p: float
    f5p: float
    f7: float
    f8: float
    f9: float


def _div(num: float, den: float) -> float:
    # printed shorthands divide by sqrt(a1) y; keep IEEE semantics at y = 0
    if den != 0.0:
        return num / den
    if num == 0.0 or math.isnan(num):
        return math.nan
    return math.copysign(math.inf, num)


def abbreviations_at(basis: RegionIIBasis, ker: _Kernels) -> AbbreviationSet:
    """Printed shorthand set at ker's interface (x = 0 gives f, x = a gives g)."""
    b = basis.b_param
    s = basis.sqrt_a1
    y = ker.y
    lam_over_root = 4.0 * b - 1.0  # lam / sqrt(a1), inverted from b_param
    pre = s * y * ker.damp
    f1 = pre * ker.m_val
    f2 = pre * ker.m_dval
    f3 = math.pi * pre * basis.rg_bh * ker.r_even
    f4 = (math.pi * pre * basis.rg_bh / 2.0
          * (1.0 + lam_over_root) * ker.r_even_d)
    f5 = math.pi * pre * basis.rg_b * ker.r_odd
    # the printed gamma argument here is 1/4 + lam/sqrt(a1), not b
    f6 = (math.pi * pre * basis.rg_f6 / 2.0
          * (3.0 + lam_over_root) * ker.r_odd_d)
    f1p = _div(f1, s * y)
    f3p = _div(f3, s * y)
    f5p = _div(f5, math.sqrt(s) * y)
    return AbbreviationSet(f1=f1, f2=f2, f3=f3, f4=f4, f5=f5, f6=f6,
                           f1p=f1p, f3p=f3p, f5p=f5p,
                           f7=f3p - f5p, f8=f2 - f1, f9=f4 + f5 - f3 - f6)


class MatchingSystem(NamedTuple):
    """The 4x4 system plus the interface data the printed closed form reads.

    assemble_matching evaluates everything here once per point: fset and
    gset are the printed abbreviation sets at x = 0 and x = a, built from
    the same kernels as the basis columns; bi0 is Bi(y1) and ai_a is Ai(y3),
    the Airy pairs of matrix rows 1-2 and of the right-hand side.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    airy_scale: float
    fset: AbbreviationSet
    gset: AbbreviationSet
    bi0: AiryPair
    ai_a: AiryPair


@dataclass(frozen=True)
class MatchSolution:
    b1: float
    b2: float
    b3: float
    b4: float
    b5: float
    residual: float
    # the row- and column-equilibrated matrix the amplitudes were solved from
    equilibrated: np.ndarray = field(compare=False, repr=False)

    @property
    def condition_estimate(self) -> float:
        """2-norm condition number of the equilibrated matrix (one SVD).

        The equilibrated one is what the amplitudes actually see; it is
        computed when read, not on every solve.
        """
        return float(np.linalg.cond(self.equilibrated))

    @property
    def amplitude_scale(self) -> float:
        return max(abs(self.b1), abs(self.b2), abs(self.b3),
                   abs(self.b4), abs(self.b5))


def assemble_matching(E, mp: MassParams, pp: PotentialProfile, u: UnitSystem,
                      printed_signs: bool = False,
                      printed_columns: bool = False,
                      b5: float = 1.0) -> MatchingSystem:
    """Continuity of value and derivative at x = 0 and x = a.

    Unknowns are (b1, b2, b3, b4); the transmitted amplitude b5 is fixed by
    the caller (default 1).  Rows 1-2 are the x = 0 interface, rows 3-4 the
    x = a interface with the decaying Airy tail on the right-hand side.
    printed_columns swaps the interior columns for the published shorthand
    values; everything else is unchanged.  The kernels at each interface
    are evaluated once and shared by the columns and both abbreviation
    sets, which travel in the system for the printed closed form.
    """
    rc = barrier_coefficients(E, mp, pp, u, printed_signs=printed_signs)
    basis = basis_for(rc)
    k = airy_scale(E, mp, u)
    ai0 = airy_ai(rc.y1)
    bi0 = airy_bi(rc.y1)
    ai_a = airy_ai(rc.y3)
    ker0 = basis.kernels(0.0)
    kera = basis.kernels(pp.a)
    fset = abbreviations_at(basis, ker0)
    gset = abbreviations_at(basis, kera)
    if printed_columns:
        v0, q0 = fset.f1p, fset.f7
        d0, qd0 = fset.f8, fset.f9
        va, qa = gset.f1p, gset.f7
        da, qda = gset.f8, gset.f9
    else:
        v0, d0 = basis.first(ker0)
        q0, qd0 = basis.second(ker0)
        va, da = basis.first(kera)
        qa, qda = basis.second(kera)
    matrix = np.array([
        [ai0.value, bi0.value, -v0, -q0],
        [k * ai0.derivative, k * bi0.derivative, -d0, -qd0],
        [0.0, 0.0, va, qa],
        [0.0, 0.0, da, qda],
    ])
    rhs = np.array([0.0, 0.0, b5 * ai_a.value, b5 * k * ai_a.derivative])
    return MatchingSystem(matrix=matrix, rhs=rhs, airy_scale=k, fset=fset,
                          gset=gset, bi0=bi0, ai_a=ai_a)


def solve_matching(system: MatchingSystem, E=None, b5: float = 1.0) -> MatchSolution:
    a = system.matrix
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(system.rhs)):
        raise ConditioningError("matching system has non-finite entries",
                                energy_eV=E)
    # The recessive column spans ~15 orders of magnitude between the two
    # interfaces, so equilibrate rows then columns before factoring.  Powers
    # of two keep the scaling exact.
    row = np.max(np.abs(a), axis=1)
    row = np.exp2(-np.round(np.log2(np.where(row == 0.0, 1.0, row))))
    scaled = a * row[:, None]
    col = np.max(np.abs(scaled), axis=0)
    col = np.exp2(-np.round(np.log2(np.where(col == 0.0, 1.0, col))))
    scaled = scaled * col[None, :]
    try:
        x = col * np.linalg.solve(scaled, system.rhs * row)
    except np.linalg.LinAlgError:
        raise ConditioningError("matching system is singular", energy_eV=E)
    # backward-stable solve: measure the residual row-relative
    worst = 0.0
    for i in range(4):
        arow = a[i]
        scale = sum(abs(arow[j] * x[j]) for j in range(4)) + abs(system.rhs[i])
        gap = abs(float(arow @ x) - system.rhs[i])
        worst = max(worst, gap / max(scale, 1e-300))
    return MatchSolution(b1=float(x[0]), b2=float(x[1]), b3=float(x[2]),
                         b4=float(x[3]), b5=b5, residual=worst,
                         equilibrated=scaled)


@dataclass(frozen=True)
class TransmissionResult:
    E: float
    T_solve: float
    T_paper: float
    t1: float
    t2: float
    residual: float
    solution: MatchSolution

    @property
    def resonant(self) -> bool:
        return math.isinf(self.T_solve)


def _paper_closed_form(system: MatchingSystem, b5: float) -> tuple[float, float, float]:
    """t1, t2 and (t1/t2)^2 from the published closed form, verbatim.

    Pure arithmetic on what assemble_matching already evaluated: the
    abbreviation sets system.fset (x = 0) and system.gset (x = a), Bi(y1)
    as system.bi0 and Ai(y3) as system.ai_a.  b5 enters by scaling the
    transmitted Airy tail, which multiplies two of the four t2 brackets; t1
    has none, hence the s^-4 behaviour the rescale diagnostic exposes.
    """
    k = system.airy_scale
    fset, gset, bi0 = system.fset, system.gset, system.bi0
    ai3, aip3 = b5 * system.ai_a.value, b5 * system.ai_a.derivative
    t1 = k / math.pi * (gset.f1p * gset.f9 - gset.f8 * gset.f7)
    t2 = ((gset.f9 * ai3 - k * gset.f7 * aip3)
          * (k * fset.f1p * bi0.derivative - fset.f8 * bi0.value)
          * (k * gset.f1p * aip3 - gset.f8 * ai3)
          * (k * fset.f7 * bi0.derivative - fset.f9 * bi0.value))
    ratio = _div(t1, t2)
    return t1, t2, ratio * ratio


def transmission(E, mp: MassParams, pp: PotentialProfile, u: UnitSystem,
                 fidelity: str = "none", b5: float = 1.0) -> TransmissionResult:
    """Solve the matching system and report both transmission conventions.

    T_solve comes from the linear solve; |b1| below RESONANCE_RTOL of the
    amplitude scale is reported as the +inf resonance sentinel.  T_paper is
    the printed closed form, always computed for comparison.
    """
    if fidelity not in FIDELITY_MODES:
        raise DomainError(f"fidelity must be one of {FIDELITY_MODES}, got {fidelity!r}")
    printed_signs = fidelity in ("signs", "all")
    printed_columns = fidelity in ("t2", "all")
    system = assemble_matching(E, mp, pp, u, printed_signs=printed_signs,
                               printed_columns=printed_columns, b5=b5)
    sol = solve_matching(system, E=E, b5=b5)
    if abs(sol.b1) < RESONANCE_RTOL * sol.amplitude_scale:
        t_solve = math.inf
    else:
        ratio = sol.b5 / sol.b1
        t_solve = ratio * ratio
    t1, t2, t_paper = _paper_closed_form(system, b5)
    return TransmissionResult(E=E, T_solve=t_solve, T_paper=t_paper,
                              t1=t1, t2=t2, residual=sol.residual, solution=sol)


def rescale_diagnostic(E, mp: MassParams, pp: PotentialProfile, u: UnitSystem,
                       scale: float = 2.0) -> tuple[float, float]:
    """Ratios (T_solve, T_paper) at b5 = scale over b5 = 1.

    A normalization-independent transmission must give 1.0 in the first
    slot; the printed closed form gives scale^-4 in the second.
    """
    base = transmission(E, mp, pp, u)
    scaled = transmission(E, mp, pp, u, b5=scale)
    return scaled.T_solve / base.T_solve, scaled.T_paper / base.T_paper


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    result: Optional[TransmissionResult]
    flags: tuple[str, ...]


def sweep(axis: str, values: Sequence[float], mp: MassParams,
          pp: PotentialProfile, u: UnitSystem, E: float = 0.1,
          fidelity: str = "none", auto_alpha: bool = False) -> list[SweepRow]:
    """One transmission row per grid value, never aborting on a bad point.

    axis "E" varies the energy at the given profile; "V0" and "a" vary the
    profile at fixed E.  auto_alpha re-slopes the profile per point so the
    triangle keeps touching zero at x = a; otherwise pp.alpha is used as
    given.  A point that fails with a TriqError or ArithmeticError is
    recorded in flags with NaN results; any other exception propagates.
    """
    if axis not in AXES:
        raise DomainError(f"axis must be one of {AXES}, got {axis!r}")
    if len(values) < 1:
        raise DomainError("sweep needs at least one grid point")
    for i in range(len(values) - 1):
        if not values[i] < values[i + 1]:
            raise DomainError("sweep grid must be strictly increasing")
    rows = []
    for v in values:
        try:
            if axis == "E":
                point_E, point_pp = v, pp
            elif axis == "V0":
                point_E = E
                point_pp = PotentialProfile(
                    V0=v, alpha=(v / pp.a if auto_alpha else pp.alpha),
                    a=pp.a, kind=pp.kind)
            else:
                point_E = E
                point_pp = PotentialProfile(
                    V0=pp.V0, alpha=(pp.V0 / v if auto_alpha else pp.alpha),
                    a=v, kind=pp.kind)
            result = transmission(point_E, mp, point_pp, u, fidelity=fidelity)
        except (TriqError, ArithmeticError) as exc:
            rows.append(SweepRow(axis_value=v, result=None,
                                 flags=(type(exc).__name__,)))
            continue
        flags = ("resonance",) if result.resonant else ()
        rows.append(SweepRow(axis_value=v, result=result, flags=flags))
    return rows
