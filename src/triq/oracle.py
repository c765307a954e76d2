"""Brute-force verification path: direct integration of the wave equation.

Everything the closed-form modules claim is re-derivable here by marching

    phi'' + H m(x) (E - V(x)) phi = 0

with a classical fixed-step fourth-order Runge-Kutta scheme.  The module
deliberately knows nothing about Airy or Kummer functions; it sees only the
polynomial coefficient H m(x)(E - V(x)) and elementary arithmetic, so an
agreement between the two paths is evidence, not tautology.  The single
exception is matched_b1, which needs the exterior basis values at the
interfaces to express its result in the same amplitude convention as the
solver; those two boundary evaluations are imported (for an array of
energies, as one array call), the interior crossing is not.

A march keeps only its endpoint.  The equation is linear, so an RK4 step
is a 2x2 matrix on (phi, phi'): a block of step matrices is built in numpy
at once and multiplied pairwise down to one.  E may be a float or a 1-D
array of energies, with the same bits per energy either way (E enters only
through the weight).  One matched_b1 (7000 steps and the 14000 of the
half-step rerun) takes about 2.5 ms, against 12-17 ms stepping in Python
floats; 200 energies take about 0.5 s, as a step-by-step lockstep march
did (Python 3.11 on a 2-CPU host).  The product rounds in another order
than the step loop; over 0.02-2.25 eV, b1 moved by at most 7.6e-14
relative.

Every integration is gated: the run is repeated at half the step and the
endpoint states must agree to the declared tolerance for every energy,
otherwise an AccuracyError carries the worst gap (and its energy) out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import AccuracyError, DomainError
from .model import MassParams, PotentialProfile, UnitSystem, airy_argument, airy_scale
from .special import _airy_array, airy_ai, airy_bi

HALVING_GATE = 1e-8

# largest RK4 step (nm) of matched_b1's march across the profile
MATCH_STEP = 1e-3

# truncation floor up to which an ode_residual verdict is conclusive
RESIDUAL_FLOOR = 1e-6

# most RK4 steps in one block of _march's matrix product; the split
# depends on the step count alone
_MARCH_BLOCK = 2048

# energies per column chunk of a block: its stack of step matrices holds
# at most 4 * _MARCH_BLOCK * _MARCH_COLUMNS = 2**15 doubles
_MARCH_COLUMNS = 4

# the unit states (1, 0) and (0, 1), stacked on a leading axis: one step
# applied to them gives the columns of its matrix
_UNIT_V = np.array([1.0, 0.0]).reshape(2, 1, 1)
_UNIT_D = np.array([0.0, 1.0]).reshape(2, 1, 1)


@dataclass(frozen=True)
class IntegrationSpec:
    x_start: float
    x_end: float
    step: float
    value: float
    derivative: float

    def __post_init__(self):
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise DomainError(f"step must be positive, got {self.step!r}")
        span = abs(self.x_end - self.x_start)
        if span == 0.0:
            raise DomainError("empty integration range")
        n = span / self.step
        if abs(n - round(n)) > 1e-6 * max(1.0, n):
            raise DomainError(
                f"range {span!r} is not an integer number of steps {self.step!r}")

    @property
    def n_steps(self) -> int:
        return max(1, round(abs(self.x_end - self.x_start) / self.step))


class IntegrationResult(NamedTuple):
    value: float
    derivative: float
    halving_gap: float
    x_stop: float


class Weight(NamedTuple):
    """The weight w(x) = H m(x) (E - V(x)) of phi'' + w phi = 0.

    On the profile's sloped branch, extended to the closed interval
    (sampling the jump at an interface inside an RK4 stage would wreck
    the order there), it is H (M0 - M1 x) (rel + alpha x) with
    rel = E - V(0+); with no profile rel = E and alpha = 0.  rel is an
    array for an array of energies.  _step_factors and _step_matrices write
    this expression out at the stage points instead of calling it.
    """

    H: float
    M0: float
    M1: float
    rel: float
    alpha: float

    def __call__(self, x):
        return self.H * (self.M0 - self.M1 * x) * (self.rel + self.alpha * x)


def make_weight(E, mp: MassParams, pp: Optional[PotentialProfile],
                u: UnitSystem) -> Weight:
    """The interior weight at energy E (a float or an array) for pp, or
    for V = 0 when pp is None."""
    if pp is None:
        return Weight(u.H_per_m0, mp.M0, mp.M1, E, 0.0)
    return Weight(u.H_per_m0, mp.M0, mp.M1, E - pp.edge_eV, pp.alpha)


def _step_factors(x, h, weight: Weight, friction: bool):
    """The factors of _march's step matrices that depend on the steps alone.

    Step i runs from x[i] (a column).  At x, x + h/2 and x + h: -H m(x)
    and alpha x, the pieces of Weight.__call__ (the sign folded into H,
    which is exact), and with friction the quotients M1/m (else None).
    Built once per block and shared by every column chunk of energies.
    """
    H, M0, M1, _, alpha = weight
    neg_h, neg_m1 = -H, -M1
    points = (x, x + 0.5 * h, x + h)
    masses = [M0 - M1 * p for p in points]
    return ([neg_h * m for m in masses], [alpha * p for p in points],
            [neg_m1 / m for m in masses] if friction else None)


def _step_matrices(factors, rel, h):
    """RK4 step matrices m[row, column, step, energy] of _march.

    factors are _step_factors of the steps; each rel is a row.  The
    columns of step i are the step applied to the unit states (1, 0) and
    (0, 1), with -w = (-H m) (rel + alpha x) at x, x + h/2 and x + h.
    """
    neg_hm, alpha_x, quotients = factors
    friction = quotients is not None
    half = 0.5 * h
    sixth = h / 6.0
    # -w at the three points
    w0, wm, we = (a * (rel + ax) for a, ax in zip(neg_hm, alpha_x))
    if friction:
        f0, fm, fe = quotients
    v, d = _UNIT_V, _UNIT_D
    k1v = d
    k1d = f0 * d + w0 * v if friction else w0 * v
    k2v = d + half * k1d
    k2d = (fm * k2v + wm * (v + half * k1v) if friction
           else wm * (v + half * k1v))
    k3v = d + half * k2d
    k3d = (fm * k3v + wm * (v + half * k2v) if friction
           else wm * (v + half * k2v))
    k4v = d + h * k3d
    k4d = (fe * k4v + we * (v + h * k3v) if friction
           else we * (v + h * k3v))
    return np.stack([v + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
                     d + sixth * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)])


def _march(x0, x1, n, v, d, weight: Weight, friction: bool):
    """Endpoint (v, d) of RK4 over n uniform steps of phi'' = -w phi, plus
    the mass-gradient term -(m'/m) phi' = M1/m phi' if friction is set.

    The equation is linear, so a step is a 2x2 matrix on (v, d)
    (_step_matrices).  The steps go in blocks of at most _MARCH_BLOCK: a
    block's step-only factors are built once (_step_factors) and its
    matrices at once for each column chunk, multiplied in adjacent pairs
    (later step on the left) down to one, and applied to the state.  The
    blocks depend on n alone and the energies go in chunks of
    _MARCH_COLUMNS that change no element's arithmetic, so a float and an
    array march give each energy the same bits.  Float E and state give
    floats; overflow is silent, as it is for floats.  The caller's arrays
    are not written.
    """
    scalar = not (np.ndim(weight.rel) or np.ndim(v) or np.ndim(d))
    rel, v, d = (a.astype(float) for a in
                 np.broadcast_arrays(*map(np.atleast_1d, (weight.rel, v, d))))
    h = (x1 - x0) / n
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _MARCH_BLOCK):
            # step i starts at x0 + i*h
            x = x0 + np.arange(start, min(n, start + _MARCH_BLOCK))[:, None] * h
            factors = _step_factors(x, h, weight, friction)
            for c in range(0, rel.size, _MARCH_COLUMNS):
                cols = slice(c, c + _MARCH_COLUMNS)
                m = _step_matrices(factors, rel[cols], h)
                while m.shape[2] > 1:
                    k = m.shape[2] // 2 * 2
                    later, earlier = m[:, :, 1:k:2], m[:, :, 0:k:2]
                    pairs = (later[:, :1] * earlier[:1]
                             + later[:, 1:] * earlier[1:])
                    m = (np.concatenate([pairs, m[:, :, k:]], axis=2)
                         if k < m.shape[2] else pairs)
                (mvv, mvd), (mdv, mdd) = m[:, :, 0]
                v[cols], d[cols] = (mvv * v[cols] + mvd * d[cols],
                                    mdv * v[cols] + mdd * d[cols])
    return (float(v[0]), float(d[0])) if scalar else (v, d)


def integrate(spec: IntegrationSpec, E, mp: MassParams,
              pp: Optional[PotentialProfile], u: UnitSystem,
              full_equation: bool = False) -> IntegrationResult:
    """March the wave equation across [x_start, x_end] (either direction).

    pp=None means V identically zero; a profile's sloped branch holds on
    the whole closed range, so the march lives inside the profile (or on
    its interfaces).  full_equation=True restores the
    mass-gradient first-derivative term -(m'/m) phi'; that term is singular
    where m(x) = 0, so the range is truncated ten steps short of the mass
    zero and the reached endpoint is reported in x_stop.

    E (and the initial state) may be a 1-D array, marched in lockstep.  The
    endpoint is accepted only if a half-step rerun reproduces it to
    HALVING_GATE relative on the (value, derivative) scale of each energy;
    halving_gap is the worst such gap.
    """
    weight = make_weight(E, mp, pp, u)
    x_end, n = spec.x_end, spec.n_steps
    friction = full_equation and mp.M1 > 0.0  # with m' = 0 it is the plain one
    if friction:
        xz, margin = mp.mass_zero_nm, 10.0 * spec.step
        if min(spec.x_start, spec.x_end) < xz < max(spec.x_start, spec.x_end):
            x_end = xz - margin if spec.x_end > xz else xz + margin
            # keep the step count integral on the shortened range
            n = max(1, round(abs(x_end - spec.x_start) / spec.step))
            x_end = spec.x_start + math.copysign(n * spec.step,
                                                 spec.x_end - spec.x_start)
    v, d = _march(spec.x_start, x_end, 2 * n,
                  spec.value, spec.derivative, weight, friction)
    cv, cd = _march(spec.x_start, x_end, n,
                    spec.value, spec.derivative, weight, friction)
    gaps = np.atleast_1d(np.maximum(abs(v - cv), abs(d - cd))
                         / np.maximum(np.maximum(abs(v), abs(d)), 1e-300))
    i = int(np.argmax(gaps))  # a NaN gap counts as the worst
    gap = float(gaps[i])
    if not gap <= HALVING_GATE:
        ev, ed, cev, ced = (float(np.ravel(a)[i]) for a in (v, d, cv, cd))
        where = f" at E = {float(np.ravel(E)[i])!r} eV" if np.ndim(E) else ""
        raise AccuracyError(
            f"halving gate failed{where}: endpoint ({ev!r}, {ed!r}) vs "
            f"coarse ({cev!r}, {ced!r}), gap {gap!r}", value=gap)
    return IntegrationResult(value=v, derivative=d, halving_gap=gap,
                             x_stop=x_end)


class ResidualReport(NamedTuple):
    residual: float
    conclusive: bool
    floor: float


def ode_residual(xs, values, weight: Callable[[float], float]) -> ResidualReport:
    """Scaled central-difference residual of phi'' + w(x) phi = 0.

    The returned residual is max |phi''_fd + w phi| / scale over interior
    points, scale = max(1, max|phi| * max|w|).  A fourth-difference estimate
    of the truncation floor h^2 |phi''''| / 12 decides whether the grid was
    fine enough for the verdict to count (floor at most RESIDUAL_FLOOR).

    Elementwise numpy on the samples, with the doubles of a scalar loop:
    the weight is called once on the array of xs (a float result stands
    for every sample).  Every maximum propagates NaN, so a NaN sample or
    weight value makes residual and floor NaN and the verdict
    inconclusive.  Overflow is silent, as it is for floats.
    """
    xs = np.asarray(xs, dtype=float)
    f = np.asarray(values, dtype=float)
    if len(xs) < 5:
        raise DomainError("need at least 5 samples for a residual verdict")
    h = float(xs[1] - xs[0])
    with np.errstate(over="ignore", invalid="ignore"):
        # a NaN node spacing compares false and is refused too
        if not np.all(np.abs(np.diff(xs) - h) <= 1e-9 * max(1.0, abs(h))):
            raise DomainError("sample grid must be uniform")
        if h ** 4 == 0.0:
            raise DomainError(f"sample step {h!r} too small for a residual verdict")
        w = np.broadcast_to(np.asarray(weight(xs), dtype=float), xs.shape)
        scale = np.maximum(1.0, np.max(np.abs(f)) * np.max(np.abs(w)))
        second = (f[:-2] - 2.0 * f[1:-1] + f[2:]) / (h * h)
        worst = np.max(np.abs(second + w[1:-1] * f[1:-1]))
        d4 = f[:-4] - 4.0 * f[1:-3] + 6.0 * f[2:-2] - 4.0 * f[3:-1] + f[4:]
        fourth = np.max(np.abs(d4) / h ** 4)
    floor = float(h * h * fourth / 12.0 / scale)
    return ResidualReport(residual=float(worst / scale),
                          conclusive=floor <= RESIDUAL_FLOOR, floor=floor)


def matched_b1(E, mp: MassParams, pp: PotentialProfile, u: UnitSystem):
    """Signed b1 by integrating the interior instead of closed forms.

    Seeds the decaying exterior state at x = a, marches region II backward
    to x = 0, and projects onto the exterior basis there; the amplitude
    convention (unit transmitted amplitude, T = 1/b1^2) matches the solver's
    exactly, so the two must agree wherever both are valid.  A float E gives
    a float; a 1-D array gives an array from one lockstep march.
    """
    if pp.kind != "barrier":
        raise DomainError("matched_b1 is a barrier-side check")

    if np.ndim(E):
        E = np.asarray(E, dtype=float)
        # k and the arguments per energy in Python floats, as the scalar
        # route takes them; then Ai at every x = a and Ai, Bi at every x = 0
        # from one array call
        k, y_tail, y1 = (np.array(v) for v in zip(*(
            (airy_scale(e, mp, u), airy_argument(pp.a, e, mp, u),
             airy_argument(0.0, e, mp, u)) for e in E.tolist())))
        g = _airy_array(np.concatenate([y_tail, y1]))
        n = E.size
        for i in range(n):  # the first refused energy raises its first error
            err = (g.ai_failures.get(i) or g.ai_failures.get(n + i)
                   or g.bi_failures.get(n + i))
            if err:
                raise err
        v0, d0 = g.ai[:n], k * g.aip[:n]
        ai, aip, bi_v, bi_d = g.ai[n:], g.aip[n:], g.bi[n:], g.bip[n:]
    else:
        k = airy_scale(E, mp, u)
        tail = airy_ai(airy_argument(pp.a, E, mp, u))
        y1 = airy_argument(0.0, E, mp, u)
        (ai, aip), (bi_v, bi_d) = airy_ai(y1), airy_bi(y1)
        v0, d0 = tail.value, k * tail.derivative
    det = k * (ai * bi_d - aip * bi_v)  # = k/pi
    n = max(2, math.ceil(pp.a / MATCH_STEP))
    got = integrate(IntegrationSpec(pp.a, 0.0, pp.a / n, v0, d0), E, mp, pp, u)
    return (got.value * k * bi_d - got.derivative * bi_v) / det


def matched_transmission(E, mp: MassParams, pp: PotentialProfile,
                         u: UnitSystem):
    """1/b1^2 of matched_b1 (inf where b1 = 0), a float or an array."""
    with np.errstate(divide="ignore"):
        t = 1.0 / np.square(matched_b1(E, mp, pp, u))
    return t if np.ndim(t) else float(t)
