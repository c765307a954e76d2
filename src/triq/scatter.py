"""Wave matching and transmission for the triangular barrier.

Three regions: x < 0 and x > a carry the Airy pair in the stretched
variable y(x) (model.airy_argument); 0 < x < a carries the Kummer pair of
the completed-square interior equation phi'' = (a1 y^2 + lam) phi with
y = x + a2/(2 a1).  Continuity of phi and phi' at x = 0 and x = a gives a
4x4 linear system over (b1, b2, b3, b4) with the transmitted amplitude
fixed at b5 = 1; the canonical transmission is the amplitude ratio

    T_solve = (1 / b1)^2

with no flux weighting.  The Airy exterior keeps the mass m(x) = M0 - M1 x
linear on the whole line, so past x* = M0/M1 the mass is negative, the
transmitted wave is the decaying Ai and no transmitted current exists to
normalize by.  What T_solve does promise: it is exactly 1 with no profile
(the wave is Ai on the whole line, so b1 = 1); it departs from 1 at first
order in V0; it is not bounded by 1 (above the default barrier it settles
near 4, the barrier slowing the evanescent decay); and it has a pole
wherever b1 passes through zero.  Near a pole T_solve is the large finite
(1/b1)^2 the solve gives; it is +inf only where b1 is exactly 0.

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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AccuracyError, ConditioningError, DomainError, TriqError
from .model import (MassParams, PotentialProfile, RegionCoefficients,
                    UnitSystem, _barrier_coefficients, _coefficients,
                    _kummer_b)
from .special import (_ROUND_CHARGE, TRICOMI_CF_LEAST, AiryPair,
                      _airy_array, _kummer_m_array, _libm, _loss,
                      _recip_gamma_array, _scalar, _where, airy_ai, airy_bi,
                      kummer_m, recip_gamma, tricomi_u_cf)

# Worst error estimate second() accepts before refusing the point.  This is
# a gate against garbage, not a precision claim: a point it refuses would
# come back with no correct digits at all.  The continued fraction's
# estimate bounds its own error (special.tricomi_u_cf); the subtraction's
# does not (_two_term).  On 600 seeded points (b in [-45, 3], z up to 250)
# the worst passing errors were 2.8e-12 on the subtraction route and
# 1.9e-13 on the continued fraction, and none of the 446 the kernels took
# was refused.
_SECOND_BUDGET = 1e-4

# transmitted amplitude of the scaled twin in rescale_diagnostic; a power
# of two, so scaling the right-hand side by it is exact
RESCALE = 2.0

# the faults that refuse a point; any other exception is a bug and propagates
_REFUSED = (TriqError, ArithmeticError)

FIDELITY_MODES = ("none", "signs", "t2", "all")
AXES = ("E", "V0", "a")


# c of the four Kummer series of a point, in kernels() order; _series_b
# gives their b
_SERIES_C = (0.5, 1.5, 1.5, 2.5)

# 1/Gamma(c) of each series, evaluated once at import: a regularized
# kernel is its plain Kummer series times its factor (DLMF 13.2.4:
# M~(b;c;z) = M(b;c;z)/Gamma(c)), so no kernel calls recip_gamma
_SERIES_RG = tuple(recip_gamma(c) for c in _SERIES_C)


def _series_b(b):
    """b of the four series, in the order of _SERIES_C (a float or an array)."""
    return b, b + 1.0, b + 0.5, b + 1.5


class _Kernels(NamedTuple):
    """Kummer evaluations at one interior point, four series in all.

    m_val, m_dval, r_odd and r_odd_d are one series each; the regularized
    ones are a series times the constant 1/Gamma(c) (_SERIES_RG).
    One instance per interface feeds first(), second() and
    abbreviations_at(), which read y and z from it and nothing else about
    the point.  Kernels over a grid hold a 1-D array in every field, one
    entry per point: the x grid of one basis (RegionIIBasis.kernels over
    an array), or one interface of every point of a sweep
    (_interface_kernels).  Grid kernels are never split into per-point
    records; every consumer takes the arrays whole.
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


def _kernels_from(y, z, series) -> _Kernels:
    """Kernels from y, z and the four series' values in _SERIES_C order.

    Floats for one point, or 1-D arrays over a grid (series then the rows
    of a (4, n) array).
    """
    # r_even, r_even_d, r_odd and r_odd_d: each series times its 1/Gamma(c)
    return _Kernels(y, z, _libm(np.exp, -0.5 * z), series[0], series[1],
                    *(v * rg for v, rg in zip(series, _SERIES_RG)))


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
            return recip_gamma(_f6_gamma_argument(self.b_param))
        except AccuracyError:
            return math.nan

    def kernels(self, x) -> _Kernels:
        """The four Kummer series at x, a float or a 1-D array of points.

        Over an array each series is summed once for all points
        (special._kummer_m_array), with every element the double a scalar
        call gives.  A refused element is NaN; the scalar calls are then
        made at each such point in order, so the error raised is the one a
        scalar loop over x raises first.
        """
        grid = not _scalar(x)
        if grid:
            x = np.asarray(x, dtype=float)
        y = x + self.y_offset
        z = self.sqrt_a1 * y * y
        if not grid:
            return _kernels_from(y, z, [kummer_m(b, c, z) for b, c in
                                        zip(_series_b(self.b_param), _SERIES_C)])
        series = [_kummer_m_array(b, c, z)
                  for b, c in zip(_series_b(self.b_param), _SERIES_C)]
        refused = np.logical_or.reduce([np.isnan(v) for v in series])
        for i in np.flatnonzero(refused).tolist():
            self.kernels(x[i].item())
        return _kernels_from(y, z, series)

    def first(self, ker: _Kernels) -> tuple[float, float]:
        """(value, d/dx) of the even basis solution at the kernels' point."""
        return _first(self.b_param, self.sqrt_a1, ker)

    def second(self, ker: _Kernels):
        """(value, d/dx) of the companion solution (signed odd branch).

        This is the only evaluation of Tricomi's U(b; 1/2; z): the two-term
        form pi [M~(b;1/2;z)/Gamma(b+1/2) - sqrt(z) M~(b+1/2;3/2;z)/Gamma(b)]
        (DLMF 13.2.42) with sqrt(z) carried as a1^(1/4) y (_two_term).  For
        y > 0 this is the recessive direction, and the two terms cancel
        catastrophically once z is large (14 digits gone by z ~ 140).  So
        at y > 0 special.tricomi_u_cf also takes U from a continued
        fraction and the Wronskian, from the kernels' regularized
        M~(b; 1/2; z) and M~(b+1; 3/2; z), and the route with the lower
        error estimate is kept; it is not called where the two-term
        estimate is at most TRICOMI_CF_LEAST, the least it can give.  If
        neither route can promise _SECOND_BUDGET the point is refused
        rather than returned wrong.

        Kernels of Python floats give Python floats, and np.float64 scalars
        are taken to Python floats.  Grid kernels give two arrays, every
        element the double the float route gives at that point
        (_companion_grid), NaN where it refuses; the float route is then
        taken at each NaN point in order, so the error raised is the one a
        loop of float-route calls raises first.
        """
        if type(ker.y) is not float:
            if not _scalar(ker.y):
                value, deriv = _companion_grid(
                    self.b_param, self.sqrt_a1, self.rg_b, self.rg_bh, ker)
                for i in np.flatnonzero(np.isnan(value)).tolist():
                    self.second(_Kernels._make(f[i] for f in ker))
                return value, deriv
            ker = _Kernels._make(map(float, ker))
        b, s, y = self.b_param, self.sqrt_a1, ker.y
        u, du_dy, est = _two_term(b, s, self.rg_b, self.rg_bh, ker)
        if y > 0.0 and est > TRICOMI_CF_LEAST:
            u_cf, du_dz, est_cf = tricomi_u_cf(b, _SERIES_C[0], ker.z,
                                               ker.r_even, ker.r_even_d,
                                               self.rg_b)
            if est_cf < est:
                u, est = u_cf, est_cf
                du_dy = 2.0 * s * y * du_dz  # dU/dz chain through z(y)
        if est > _SECOND_BUDGET:
            raise AccuracyError(
                f"companion solution unreliable at y={y!r}, z={ker.z!r}: "
                f"best error estimate {est:.1e}", value=ker.z)
        return ker.damp * u, ker.damp * (du_dy - s * y * u)


def _first(b, s, ker: _Kernels):
    """RegionIIBasis.first from b and sqrt(a1): floats for one point, or
    arrays with one entry per kernel point, elementwise."""
    value = ker.damp * ker.m_val
    deriv = s * ker.y * ker.damp * (4.0 * b * ker.m_dval - ker.m_val)
    return value, deriv


def _two_term(b, s, rg_b, rg_bh, ker: _Kernels):
    """(U, dU/dy, error estimate) of second()'s two-term form, before the
    damping e^(-z/2).

    b, s = sqrt(a1), rg_b = 1/Gamma(b) and rg_bh = 1/Gamma(b + 1/2) are
    floats or arrays with one entry per kernel point, and the kernels
    floats or arrays: floats give floats, arrays give every element the
    float's double (the caller silences numpy).  The estimate is
    special._ROUND_CHARGE times the worse cancellation factor of the value
    and the slope.
    """
    y = ker.y
    root = _libm(np.sqrt, s)  # a1^(1/4)
    va = ker.r_even * rg_bh
    vb = root * y * ker.r_odd * rg_b
    da = 2.0 * s * y * b * ker.r_even_d * rg_bh
    db = root * ker.r_odd * rg_b
    dc = 2.0 * s * root * y * y * (b + 0.5) * ker.r_odd_d * rg_b
    l1 = _loss(va - vb, abs(va) + abs(vb))
    l2 = _loss(da - db - dc, abs(da) + abs(db) + abs(dc))
    # Not an upper bound: against 50-digit mpmath, at 3 of 15 energies in
    # 0.40-0.75 eV on the default barrier, it read below the true error
    # (4.3e-10 against 2.5e-9 at 0.400 eV, 3.4e-9 against 1.4e-8 at 0.475
    # eV, 6.0e-9 against 3.0e-8 at 0.500 eV); there the continued fraction
    # wins the comparison with an estimate near 1e-14.  max(l1, l2) is
    # written as l2 where l2 > l1, else l1, which keeps a NaN l1 the way
    # max does.
    est = _ROUND_CHARGE * _where(l2 > l1, l2, l1)
    return math.pi * (va - vb), math.pi * (da - db - dc), est


def _companion_grid(b, s, rg_b, rg_bh, ker: _Kernels):
    """second() over grid kernels: (values, derivatives).

    b, s = sqrt(a1), rg_b = 1/Gamma(b) and rg_bh = 1/Gamma(b + 1/2) are
    one basis's floats (an x grid) or arrays with one entry per kernel
    point (one interface of a sweep).  Every element is the double the
    float route gives at that point: the two-term form is taken for all
    points at once (_two_term), and every point where second() tries the
    continued fraction takes it in one tricomi_u_cf call.  Both are NaN at
    a point second() refuses: where that call fails (a NaN estimate, where
    the float call would raise), or where the best estimate exceeds
    _SECOND_BUDGET.  A refusal upstream comes in as NaN and goes out as
    NaN (a NaN kernel or 1/Gamma tries no continued fraction); only the
    Kummer row stop skips a refused point's work (_interface_kernels).
    """
    y, z = ker.y, ker.z
    # products overflow to inf, and inf - inf is NaN, silently in the
    # float route; numpy is made as silent
    with np.errstate(all="ignore"):
        u, du_dy, est = _two_term(b, s, rg_b, rg_bh, ker)
        tried = np.flatnonzero((y > 0.0) & (est > TRICOMI_CF_LEAST))
        if tried.size:
            bt, st, rt = (v if _scalar(v) else v[tried] for v in (b, s, rg_b))
            u_cf, du_dz, est_cf = tricomi_u_cf(bt, _SERIES_C[0], z[tried],
                                               ker.r_even[tried],
                                               ker.r_even_d[tried], rt)
            take = est_cf < est[tried]  # False where the route failed
            slope = 2.0 * st * y[tried] * du_dz  # dU/dz chain through z(y)
            better = tried[take]
            u[better] = u_cf[take]
            du_dy[better] = slope[take]
            est[better] = est_cf[take]
            est[tried[np.isnan(est_cf)]] = math.inf  # the float call raises
        value, deriv = ker.damp * u, ker.damp * (du_dy - s * y * u)
    refused = est > _SECOND_BUDGET
    value[refused] = deriv[refused] = math.nan
    return value, deriv


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


def _div(num, den):
    """num / den, but num / 0 is NaN where num is 0 or NaN and inf of
    num's sign otherwise (the printed shorthands divide by sqrt(a1) y,
    which is 0 at the vertex).  Floats, or arrays elementwise, each
    element the float's double."""
    if _scalar(num) and _scalar(den):
        if den != 0.0:
            return num / den
        if num == 0.0 or math.isnan(num):
            return math.nan
        return math.copysign(math.inf, num)
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = num / den
    at_zero = np.where((num == 0.0) | np.isnan(num), math.nan,
                       np.copysign(math.inf, num))
    return np.where(den != 0.0, quotient, at_zero)


def abbreviations_at(basis: RegionIIBasis, ker: _Kernels) -> AbbreviationSet:
    """Printed shorthand set at ker's interface (x = 0 gives f, x = a gives g)."""
    return _abbreviations(basis.b_param, basis.sqrt_a1, basis.rg_bh,
                          basis.rg_b, basis.rg_f6, ker)


def _lam_over_root(b):
    """lam / sqrt(a1) = 4b - 1, inverted from b_param (a float or an array)."""
    return 4.0 * b - 1.0


def _f6_gamma_argument(b):
    """1/4 + lam/sqrt(a1), f6's printed Gamma argument (a float or an array)."""
    return 0.25 + _lam_over_root(b)


def _abbreviations(b, s, rg_bh, rg_b, rg_f6, ker: _Kernels) -> AbbreviationSet:
    """abbreviations_at from b, sqrt(a1) and the basis's three 1/Gamma:
    floats for one point, or arrays with one entry per kernel point,
    elementwise (the caller silences numpy)."""
    y = ker.y
    lam_over_root = _lam_over_root(b)
    pre = s * y * ker.damp
    f1 = pre * ker.m_val
    f2 = pre * ker.m_dval
    f3 = math.pi * pre * rg_bh * ker.r_even
    f4 = (math.pi * pre * rg_bh / 2.0
          * (1.0 + lam_over_root) * ker.r_even_d)
    f5 = math.pi * pre * rg_b * ker.r_odd
    # the printed gamma argument here is 1/4 + lam/sqrt(a1), not b
    f6 = (math.pi * pre * rg_f6 / 2.0
          * (3.0 + lam_over_root) * ker.r_odd_d)
    f1p = _div(f1, s * y)
    f3p = _div(f3, s * y)
    f5p = _div(f5, _libm(np.sqrt, s) * y)
    return AbbreviationSet(f1=f1, f2=f2, f3=f3, f4=f4, f5=f5, f6=f6,
                           f1p=f1p, f3p=f3p, f5p=f5p,
                           f7=f3p - f5p, f8=f2 - f1, f9=f4 + f5 - f3 - f6)


class MatchingSystem(NamedTuple):
    """The 4x4 system plus the interface data the printed closed form reads.

    Everything here is evaluated once per point: fset and gset are the
    printed abbreviation sets at x = 0 and x = a, built from the same
    kernels as the basis columns; bi0 is Bi(y1) and ai_a is Ai(y3), the
    Airy pairs of matrix rows 1-2 and of the right-hand side.  The system
    of a lone point (_point_system) holds floats; over a grid
    (_assemble_grid) every field holds a 1-D array, one entry per point,
    the matrices one (n, 4, 4) stack and the right-hand sides one (n, 4)
    array.
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


def assemble_matching(E, mp: MassParams, pp: PotentialProfile, u: UnitSystem,
                      fidelity: str = "none") -> MatchingSystem:
    """Continuity of value and derivative at x = 0 and x = a.

    Unknowns are (b1, b2, b3, b4); the transmitted amplitude is b5 = 1.
    Rows 1-2 are the x = 0 interface, rows 3-4 the x = a interface with the
    decaying Airy tail on the right-hand side.  fidelity is transmission()'s:
    its printed columns swap the interior columns for the published
    shorthand values, its printed signs flip a3.  The kernels at each
    interface are evaluated once and shared by the columns and both
    abbreviation sets, which travel in the system for the printed closed
    form.  This is the lone-point route's system (_point_system); a
    refusal is raised.
    """
    return _point_system(_grid_points("E", [E], pp, E, False)[0], mp, u,
                         _printed(fidelity))


def _raised(outcome):
    """A point's outcome, raised if it is the error that refused the point."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _system(k, airy, fset, gset, printed_columns: bool,
            canonical) -> MatchingSystem:
    """The MatchingSystem of a lone point (floats) or of a grid (arrays
    with one entry per point): its Airy scale k, its exterior values airy
    (Ai, Ai', Bi and Bi' at y1, then Ai and Ai' at y3), its abbreviation
    sets at x = 0 and x = a, and its interior columns.

    The columns are the printed shorthands under printed_columns, else
    canonical(), called only then: (value, derivative) of first() and then
    of second(), at x = 0 and then at x = a.  The matrices are one (4, 4)
    array per point, one (n, 4, 4) stack over a grid.
    """
    ai0, ai0p, bi0, bi0p, ai_a, ai_ap = airy
    (v0, d0, q0, qd0), (va, da, qa, qda) = (
        [(ab.f1p, ab.f8, ab.f7, ab.f9) for ab in (fset, gset)]
        if printed_columns else canonical())
    shape = np.shape(k)
    zero = np.zeros(shape)
    matrix = np.stack([ai0, bi0, -v0, -q0,
                       k * ai0p, k * bi0p, -d0, -qd0,
                       zero, zero, va, qa,
                       zero, zero, da, qda], axis=-1).reshape(shape + (4, 4))
    rhs = np.stack([zero, zero, ai_a, k * ai_ap], axis=-1)
    return MatchingSystem(matrix=matrix, rhs=rhs, airy_scale=k, fset=fset,
                          gset=gset, bi0=AiryPair(bi0, bi0p),
                          ai_a=AiryPair(ai_a, ai_ap))


def solve_matching(systems: Sequence[MatchingSystem],
                   E: Sequence[float]) -> list:
    """A MatchSolution or the ConditioningError of each system, E their energies.

    The systems are stacked and solved by _solve_systems, the one solve
    behind a sweep's table too, and each solution is built from its rows.
    """
    a = np.array([s.matrix for s in systems])
    rhs = np.array([s.rhs for s in systems])
    x, scaled, residual, refusal = _solve_systems(a.reshape(-1, 4, 4),
                                                  rhs.reshape(-1, 4), E)
    return [MatchSolution(*b, residual=res, equilibrated=m) if exc is None
            else exc for b, res, m, exc in zip(x.tolist(), residual.tolist(),
                                               scaled, refusal)]


def _solve_systems(a: np.ndarray, rhs: np.ndarray, E: Sequence[float]):
    """(x, equilibrated matrices, worst residuals, refusals) of the (n, 4, 4)
    stack a x = rhs, E the systems' energies.

    A non-finite system is refused before the rest are stacked and solved
    by one np.linalg.solve (_solve_stack); a singular member fails that
    solve as a whole, and then each is solved alone, so only it is
    refused.  Either way each system gets the doubles it gets alone.  A
    refused system's entry in refusals is its ConditioningError, and its
    rows of the three arrays are NaN; every other entry is None.
    """
    n = len(a)
    refusal = [None] * n
    finite = np.isfinite(np.concatenate([a.reshape(-1, 16), rhs], axis=1)).all(axis=1)
    stack = np.flatnonzero(finite)
    if stack.size < n:
        for i in np.flatnonzero(~finite).tolist():
            refusal[i] = ConditioningError(
                "matching system has non-finite entries", energy_eV=E[i])
    try:
        parts = [(stack, *_solve_stack(a[stack], rhs[stack]))] if stack.size else []
    except np.linalg.LinAlgError:
        parts = []
        for i in stack.tolist():
            try:
                parts.append(([i], *_solve_stack(a[i:i + 1], rhs[i:i + 1])))
            except np.linalg.LinAlgError:
                refusal[i] = ConditioningError("matching system is singular",
                                               energy_eV=E[i])
    if len(parts) == 1 and stack.size == n:  # one stack, every system in it
        return (*parts[0][1:], refusal)
    x = np.full((n, 4), math.nan)
    scaled = np.full((n, 4, 4), math.nan)
    residual = np.full(n, math.nan)
    for rows, *solved in parts:
        x[rows], scaled[rows], residual[rows] = solved
    return x, scaled, residual, refusal


def _solve_stack(a: np.ndarray, rhs: np.ndarray):
    """(x, equilibrated matrices, worst residuals) of the (n, 4, 4) stack
    a x = rhs."""
    # The recessive column spans ~15 orders of magnitude between the two
    # interfaces, so equilibrate rows then columns before factoring.  Powers
    # of two keep the scaling exact.
    row = np.abs(a).max(axis=2)
    row = np.exp2(-np.round(np.log2(np.where(row == 0.0, 1.0, row))))
    scaled = a * row[:, :, None]
    col = np.abs(scaled).max(axis=1)
    col = np.exp2(-np.round(np.log2(np.where(col == 0.0, 1.0, col))))
    scaled = scaled * col[:, None, :]
    x = col * np.linalg.solve(scaled, (rhs * row)[:, :, None])[:, :, 0]
    return x, scaled, _residuals(a, rhs, x)


def _residuals(a: np.ndarray, rhs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Worst row-relative residual of each solved system in a stack.

    A backward-stable solve is measured row-relative: |a_i . x - rhs_i|
    over sum_j |a_ij x_j| + |rhs_i|, the sum taken left to right and the
    dot products of all rows in one np.vecdot call, the BLAS dot that
    arow @ x takes for one row; the worst is taken as max() folds it from
    0, so a NaN ratio is passed over.
    """
    parts = np.abs(a * x[:, None, :])
    scale = parts[..., 0] + parts[..., 1] + parts[..., 2] + parts[..., 3] + np.abs(rhs)
    gap = np.abs(np.vecdot(a, x[:, None, :]) - rhs)
    return np.fmax.reduce(gap / np.maximum(scale, 1e-300), axis=1,
                          initial=0.0)


@dataclass(frozen=True)
class TransmissionResult:
    E: float
    T_solve: float
    T_paper: float
    t1: float
    t2: float
    residual: float
    solution: MatchSolution


def _paper_closed_form(system: MatchingSystem) -> tuple[float, float, float]:
    """t1, t2 and (t1/t2)^2 from the published closed form, verbatim.

    Pure arithmetic on what the system's assembly already evaluated: the
    abbreviation sets system.fset (x = 0) and system.gset (x = a), Bi(y1)
    as system.bi0 and the transmitted tail Ai(y3) as system.ai_a.  Scaling
    that tail scales two of the four t2 brackets and none of t1, hence the
    s^-4 behaviour the rescale diagnostic exposes.  Floats for a lone
    point's system, or arrays over a grid's, elementwise, with numpy as
    silent as float arithmetic.
    """
    k = system.airy_scale
    fset, gset, bi0 = system.fset, system.gset, system.bi0
    ai3, aip3 = system.ai_a.value, system.ai_a.derivative
    with np.errstate(all="ignore"):
        t1 = k / math.pi * (gset.f1p * gset.f9 - gset.f8 * gset.f7)
        t2 = ((gset.f9 * ai3 - k * gset.f7 * aip3)
              * (k * fset.f1p * bi0.derivative - fset.f8 * bi0.value)
              * (k * gset.f1p * aip3 - gset.f8 * ai3)
              * (k * fset.f7 * bi0.derivative - fset.f9 * bi0.value))
        ratio = _div(t1, t2)
        return t1, t2, ratio * ratio


def _printed(fidelity: str) -> tuple[bool, bool]:
    """(printed_signs, printed_columns) of a fidelity mode."""
    if fidelity not in FIDELITY_MODES:
        raise DomainError(f"fidelity must be one of {FIDELITY_MODES}, got {fidelity!r}")
    return fidelity in ("signs", "all"), fidelity in ("t2", "all")


def transmission(E, mp: MassParams, pp: PotentialProfile, u: UnitSystem,
                 fidelity: str = "none") -> TransmissionResult:
    """Solve the matching system and report both transmission conventions.

    T_solve = (1/b1)^2 comes from the linear solve, +inf where b1 is
    exactly 0.  T_paper is the printed closed form, always computed for
    comparison.  This is the lone-point route (_alone) that sweep() takes
    for every point its stacked solve refuses, and its result holds the
    doubles of that point's entries in sweep()'s table; a refusal is
    raised.
    """
    return _raised(_outcomes(_alone(_grid_points("E", [E], pp, E, False)[0],
                                    mp, u, _printed(fidelity)))[0])


def rescale_diagnostic(E, mp: MassParams, pp: PotentialProfile,
                       u: UnitSystem) -> tuple[float, float]:
    """Ratios (T_solve, T_paper) at transmitted amplitude RESCALE over 1.

    The scaled twin is the system with its right-hand side and Airy tail
    times RESCALE; both are solved in one call.  A normalization-independent
    transmission must give 1.0 in the first slot; the printed closed form
    gives RESCALE^-4 in the second.
    """
    base = assemble_matching(E, mp, pp, u)
    scaled = base._replace(rhs=RESCALE * base.rhs,
                           ai_a=AiryPair(RESCALE * base.ai_a.value,
                                         RESCALE * base.ai_a.derivative))
    sol, sol_scaled = map(_raised, solve_matching([base, scaled], [E, E]))
    r, r_scaled = 1.0 / sol.b1, RESCALE / sol_scaled.b1
    return ((r_scaled * r_scaled) / (r * r),
            _paper_closed_form(scaled)[2] / _paper_closed_form(base)[2])


class SweepTable(NamedTuple):
    """A sweep's results as columns, one entry per grid point.

    E, T_solve, T_paper, t1, t2 and residual are (n,) arrays, b holds
    b1..b4 as an (n, 4) array, equilibrated the (n, 4, 4) stack the
    amplitudes were solved from, and refusal each point's error, or None
    where it solved.  A refused point is NaN in every numeric column.
    """

    E: np.ndarray
    T_solve: np.ndarray
    T_paper: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    b: np.ndarray
    residual: np.ndarray
    equilibrated: np.ndarray
    refusal: list


def sweep(axis: str, values: Sequence[float], mp: MassParams,
          pp: PotentialProfile, u: UnitSystem, E: float = 0.1,
          fidelity: str = "none", auto_alpha: bool = False) -> SweepTable:
    """A grid's results as the columns of a SweepTable, never aborting on
    a bad point.  This is the one sweep entry point: the CLI prints its
    CSV from the table's columns.

    axis "E" varies the energy at the given profile; "V0" and "a" vary the
    profile at fixed E.  auto_alpha re-slopes the profile per point so the
    triangle keeps touching zero at x = a; otherwise pp.alpha is used as
    given.  A point that fails with a TriqError or ArithmeticError is
    recorded as its refusal with NaN results; any other exception
    propagates, as does the DomainError of an unknown axis or fidelity.

    Each point's entries are the doubles transmission() gives there, and
    its refusal the error it raises.  From two points on, each stage takes
    all points at once (_solved): one pass for the coefficients, one Airy
    pass, one Kummer pass over the 8 series of every point, one pass each
    for the reciprocal Gammas, the interface columns and abbreviation sets
    and the companion solution at each interface, one matrix stack, one
    solve with its residuals and one printed closed form, whose arrays are
    the table's columns.  The stacked solve alone decides which points the
    grid delivers: each point it refuses, its system non-finite or
    singular, is solved alone by transmission()'s route, and that route's
    result or error fills its entries.
    """
    if axis not in AXES:
        raise DomainError(f"axis must be one of {AXES}, got {axis!r}")
    if len(values) < 1:
        raise DomainError("sweep needs at least one grid point")
    if not all(lo < hi for lo, hi in zip(values[:-1], values[1:])):
        raise DomainError("sweep grid must be strictly increasing")
    printed = _printed(fidelity)
    return _solved(_grid_points(axis, values, pp, E, auto_alpha), mp, u,
                   printed)


def _grid_points(axis, values, pp, E, auto_alpha) -> list:
    """Per grid value, its (energy, profile) point or the error refusing it.

    The pipeline's one entry for energies: each is taken to a Python float
    here, as PotentialProfile and MassParams take their fields, so that a
    np.float64 input runs the float arithmetic, which raises where numpy
    would only warn, and its messages print the same.
    """
    points = []
    for v in values:
        if axis == "E":
            points.append((float(v), pp))
            continue
        V0, a = (v, pp.a) if axis == "V0" else (pp.V0, v)
        try:
            # auto alpha slopes only a positive width: PotentialProfile
            # refuses any other by name, not by the division V0 / a
            points.append((float(E), PotentialProfile(
                V0=V0, alpha=(V0 / a if auto_alpha and a > 0.0 else pp.alpha),
                a=a, kind=pp.kind)))
        except _REFUSED as exc:
            points.append(exc)
    return points


def _alone(point, mp: MassParams, u: UnitSystem,
           printed: tuple[bool, bool]) -> SweepTable:
    """The one-row SweepTable of a lone (energy, profile) point by the lone
    route, _point_system and then _stack_table; the first error it raises
    is the point's refusal."""
    E = np.array([point[0]])
    try:
        system = _point_system(point, mp, u, printed)
    except _REFUSED as exc:
        return _nan_table(E, [exc])
    return _stack_table(E, system)


def _point_system(point, mp: MassParams, u: UnitSystem,
                  printed: tuple[bool, bool]) -> MatchingSystem:
    """The MatchingSystem of a lone (energy, profile) point by the scalar
    route: the coefficients with their Airy scale (_barrier_coefficients),
    airy_ai(y1), airy_bi(y1) and airy_ai(y3), the basis and its kernels at
    x = 0 and x = a, the abbreviation sets there, and first() and second()
    at both only under the canonical columns; the first refusal is raised.
    More points take _assemble_grid, which gives each the same doubles."""
    printed_signs, printed_columns = printed
    point_E, pp = point
    rc, k = _barrier_coefficients(point_E, mp, pp, u, printed_signs)
    airy = (*airy_ai(rc.y1), *airy_bi(rc.y1), *airy_ai(rc.y3))
    basis = basis_for(rc)
    kers = (basis.kernels(0.0), basis.kernels(pp.a))
    return _system(k, airy, *(abbreviations_at(basis, ker) for ker in kers),
                   printed_columns,
                   lambda: [(*basis.first(ker), *basis.second(ker))
                            for ker in kers])


def _grid_coefficients(points: list, mp: MassParams, u: UnitSystem,
                       printed_signs: bool):
    """barrier_coefficients and airy_scale over the (energy, profile)
    points of a grid: (a, y1, y2, y3, b, sqrt(a1), k), one entry per point.

    The points that pass the scalar checks on the profile kind, the mass
    and the energy take model._coefficients over arrays, one Airy scale
    per point.  A point the scalar calls refuse (those checks, a lam that
    is not finite, or k^2 = 0, which the scalar route divides by) is NaN
    but for the width a.
    """
    E, V0, alpha, a = (np.array(v, dtype=float) for v in zip(*(
        (point_E, pp.V0, pp.alpha, pp.a) for point_E, pp in points)))
    values = np.full((6, E.size), math.nan)  # y1, y2, y3, b, sqrt(a1), k
    with np.errstate(all="ignore"):  # silent, as floats are
        fits = ((E > 0.0) & (E != math.inf) & (mp.M1 != 0.0)
                & np.isfinite(u.H_per_m0 * E * max(mp.M0, mp.M1))
                & np.array([pp.kind == "barrier" for _, pp in points]))
        go = np.flatnonzero(fits)
        if go.size:
            (a1, _, _, lam, y1, y2, y3, _), k = _coefficients(
                E[go], mp, alpha[go], a[go], u, V0[go], printed_signs)
            s = np.sqrt(a1)
            values[:, go] = y1, y2, y3, _kummer_b(lam, s), s, k
            fits[go] = np.isfinite(lam) & (k * k != 0.0)
    values[:, ~fits] = math.nan
    return (a, *values)


def _exterior_airy(y1: np.ndarray, y3: np.ndarray) -> np.ndarray:
    """The exterior Airy values over per-point arrays of y1 and y3, from
    one _airy_array call over every y1 then every y3, Bi at y1 only: a
    (6, n) array of Ai, Ai', Bi and Bi' at y1, then Ai and Ai' at y3, NaN
    where the scalar call refuses."""
    n = y1.size
    grid = _airy_array(np.concatenate([y1, y3]), np.repeat([True, False], n))
    return np.stack([grid.ai[:n], grid.aip[:n], grid.bi[:n], grid.bip[:n],
                     grid.ai[n:], grid.aip[n:]])


def _assemble_grid(b, s, offset, widths, k, airy, printed_columns: bool):
    """_point_system over per-point arrays in grid passes: the
    MatchingSystem of the points, every double the one _point_system gives
    the point alone, and a NaN in the system of every point it refuses.

    b, s = sqrt(a1), offset = y2, widths and the Airy scale k hold one
    entry per point, and airy the (6, n) exterior values of _exterior_airy.
    Each pass takes every point at once: the kernels (_interface_kernels),
    the three reciprocal Gammas (one _recip_gamma_array call), both
    abbreviation sets and first() at both interfaces, second() at x = 0
    and at x = a (_companion_grid, under the canonical columns only), and
    one (n, 4, 4) matrix stack with its right-hand sides.  A refusal
    travels as NaN through every later pass, and only the Kummer row stop
    skips work, so second() at x = a may try the continued fraction of a
    point that second() refused at x = 0.  A NaN f6 1/Gamma refuses
    nothing: the scalar route reads its overflow as NaN.
    """
    ker0, kera = _interface_kernels(b, s, offset, widths)
    rg_bh, rg_b, rg_f6 = np.split(_recip_gamma_array(
        np.concatenate([b + 0.5, b, _f6_gamma_argument(b)])), 3)
    with np.errstate(all="ignore"):  # silent, as the float route is
        return _system(
            k, airy, _abbreviations(b, s, rg_bh, rg_b, rg_f6, ker0),
            _abbreviations(b, s, rg_bh, rg_b, rg_f6, kera), printed_columns,
            lambda: [(*_first(b, s, ker),
                      *_companion_grid(b, s, rg_b, rg_bh, ker))
                     for ker in (ker0, kera)])


def _solved(points: list, mp: MassParams, u: UnitSystem,
            printed: tuple[bool, bool]) -> SweepTable:
    """The SweepTable of the points of a grid.

    A point is an (energy, profile) pair, or the error refusing it, which
    is its refusal; printed is (printed_signs, printed_columns).  From two
    standing points on, grid passes build the system of every standing
    point, each pass over every point: the coefficients
    (_grid_coefficients), the exterior Airy values (_exterior_airy) and
    _assemble_grid, which give each point the doubles of the lone route.
    A refusal travels as NaN from the pass that refuses through every
    later one, and no pass narrows the points (the Kummer row stop alone
    skips work).  One _stack_table call solves them all, and if it refuses
    none its table is the points'.  Each point the stack refuses (its
    system non-finite or singular), and a lone standing point, is solved
    alone (_alone), and that table fills its row.

    The stack's refusals are the one delivery test because every error
    the lone route can raise leaves a non-finite number in that point's
    grid matrix or right-hand side: the refusals of the coefficients, the
    Airy values, the Kummer series, 1/Gamma(b), 1/Gamma(b + 1/2) and the
    companion's budget all do.  Under the canonical columns an overflowed
    f6 1/Gamma touches only the printed sets, and on both routes it gives
    a NaN T_paper, not a refusal; the printed columns put f6 in the
    matrix, and both routes refuse the point.
    """
    E = np.array([math.nan if isinstance(p, Exception) else p[0] for p in points])
    live = [i for i, p in enumerate(points) if not isinstance(p, Exception)]
    parts, alone = [], live
    if len(live) > 1:
        a, y1, y2, y3, b, s, k = _grid_coefficients(
            [points[i] for i in live], mp, u, printed[0])
        stack = _stack_table(E[live], _assemble_grid(
            b, s, y2, a, k, _exterior_airy(y1, y3), printed[1]))
        alone = [i for i, exc in zip(live, stack.refusal) if exc is not None]
        if not alone and len(live) == len(points):
            return stack
        parts.append((live, stack))
    parts += [([i], _alone(points[i], mp, u, printed)) for i in alone]
    table = _nan_table(E, [p if isinstance(p, Exception) else None
                           for p in points])
    for rows, part in parts:
        for column, values in zip(table[1:-1], part[1:-1]):
            column[rows] = values
        for i, exc in zip(rows, part.refusal):
            table.refusal[i] = exc
    return table


def _stack_table(E: np.ndarray, system: MatchingSystem) -> SweepTable:
    """The SweepTable of the systems of a stack, E their energies.

    One _solve_systems call solves them, a refusal it raises refusing them
    all, and the printed closed form is taken over the stack once.
    T_solve = (1/b1)^2 over the solved amplitudes, +inf where b1 is
    exactly 0.  A system the solve refuses is NaN in every column.
    """
    try:
        x, scaled, residual, refusal = _solve_systems(
            system.matrix.reshape(-1, 4, 4), system.rhs.reshape(-1, 4),
            E.tolist())
    except _REFUSED as exc:
        return _nan_table(E, [exc] * len(E))
    with np.errstate(divide="ignore", over="ignore"):
        ratio = 1.0 / x[:, 0]
    t1, t2, T_paper = map(np.atleast_1d, _paper_closed_form(system))
    refused = [i for i, exc in enumerate(refusal) if exc is not None]
    if refused:
        t1[refused] = t2[refused] = T_paper[refused] = math.nan
    return SweepTable(E, ratio * ratio, T_paper, t1, t2, x, residual, scaled,
                      refusal)


def _nan_table(E: np.ndarray, refusal: list) -> SweepTable:
    """A SweepTable NaN in every numeric column, E its energies."""
    n = len(E)
    return SweepTable(E, *np.full((4, n), math.nan), np.full((n, 4), math.nan),
                      np.full(n, math.nan), np.full((n, 4, 4), math.nan),
                      refusal)


def _outcomes(table: SweepTable) -> list:
    """Per point of a table, its error, or its TransmissionResult built
    from its entries as Python floats."""
    return [exc if exc is not None else TransmissionResult(
                E=E, T_solve=T_solve, T_paper=T_paper, t1=t1, t2=t2,
                residual=residual,
                solution=MatchSolution(*b, residual=residual, equilibrated=m))
            for E, T_solve, T_paper, t1, t2, b, residual, m, exc in zip(
                table.E.tolist(), table.T_solve.tolist(),
                table.T_paper.tolist(), table.t1.tolist(), table.t2.tolist(),
                table.b.tolist(), table.residual.tolist(), table.equilibrated,
                table.refusal)]


def _interface_kernels(b, s, offset, widths):
    """(kernels at x = 0, kernels at x = a) of per-point arrays of b,
    sqrt(a1), y offset and width a.

    One _kummer_m_array call, a row per point with x = 0's four series
    before x = a's, so a row stops where kernels(0.0) then kernels(a)
    would first raise, and its kernels are NaN from there on.  This row
    stop is the one grid pass that skips a refused point's work: it makes
    no fixed-point rerun past a refused series (without it, a 2.25-3.9 eV
    sweep, 45 of its 100 points refused, took 1.37x as long, 2-CPU host).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as floats are
        y = np.stack([0.0 + offset, widths + offset], axis=1)
        z = s[:, None] * y * y
    values = _kummer_m_array(np.tile(np.stack(_series_b(b), axis=1), 2),
                             np.tile(_SERIES_C, 2), np.repeat(z, 4, axis=1))
    ker = _kernels_from(y.ravel(), z.ravel(), values.reshape(-1, 4).T)
    return (_Kernels._make(f[0::2] for f in ker),
            _Kernels._make(f[1::2] for f in ker))
