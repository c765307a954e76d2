"""Brute-force verification path: direct integration of the wave equation.

Everything the closed-form modules claim is re-derivable here by marching

    phi'' + H m(x) (E - V(x)) phi = 0

with a classical fixed-step fourth-order Runge-Kutta scheme.  The module
deliberately knows nothing about Airy or Kummer functions; it sees only the
polynomial coefficient H m(x)(E - V(x)) and elementary arithmetic, so an
agreement between the two paths is evidence, not tautology.  The single
exception is matched_b1, which needs the exterior basis values at the
interfaces to express its result in the same amplitude convention as the
solver; those two boundary evaluations are imported, the interior crossing
is not.

A march keeps only its endpoint.  E may be a float, marched in plain
Python floats, or a 1-D array marched in lockstep with the same arithmetic
per element (E enters only through the weight).  Lockstep pays numpy's
overhead per step: it breaks even near 20 energies and is 8x faster at 200.

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
from .special import airy_ai, airy_bi

HALVING_GATE = 1e-8


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


def _make_weight(E, mp: MassParams, pp: Optional[PotentialProfile],
                 u: UnitSystem) -> Callable[[float], float]:
    H = u.H_per_m0
    if pp is None:
        return lambda x: H * mp.mass_at(x) * E
    # sloped branch extended to the closed interval: sampling the jump at
    # an interface inside an RK4 stage would wreck the order there
    rel, alpha = E - pp.edge_eV, pp.alpha
    return lambda x: H * mp.mass_at(x) * (rel + alpha * x)


def _march(x0, x1, n, v, d, weight, friction):
    """Endpoint (v, d) of RK4 over n uniform steps, friction the optional
    phi' coefficient; states are rebound, so the caller's arrays persist."""
    h = (x1 - x0) / n
    if friction is None:
        def f(xi, vi, di):
            return -weight(xi) * vi
    else:
        def f(xi, vi, di):
            return friction(xi) * di - weight(xi) * vi
    for i in range(n):
        x = x0 + i * h
        k1v, k1d = d, f(x, v, d)
        k2v = d + 0.5 * h * k1d
        k2d = f(x + 0.5 * h, v + 0.5 * h * k1v, k2v)
        k3v = d + 0.5 * h * k2d
        k3d = f(x + 0.5 * h, v + 0.5 * h * k2v, k3v)
        k4v = d + h * k3d
        k4d = f(x + h, v + h * k3v, k4v)
        v = v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        d = d + h / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    return v, d


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
    weight = _make_weight(E, mp, pp, u)
    friction = None
    x_end, n = spec.x_end, spec.n_steps
    if full_equation and mp.M1 > 0.0:  # with m' = 0 it is the plain one
        def friction(x):
            return -mp.M1 / mp.mass_at(x)
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


def ode_residual(xs, values, weight: Callable[[float], float],
                 budget: float = 1e-6) -> ResidualReport:
    """Scaled central-difference residual of phi'' + w(x) phi = 0.

    The returned residual is max |phi''_fd + w phi| / scale over interior
    points, scale = max(1, max|phi| * max|w|).  A fourth-difference estimate
    of the truncation floor h^2 |phi''''| / 12 decides whether the grid was
    fine enough for the verdict to count against the budget.
    """
    m = len(xs)
    if m < 5:
        raise DomainError("need at least 5 samples for a residual verdict")
    h = xs[1] - xs[0]
    for i in range(1, m - 1):
        if abs((xs[i + 1] - xs[i]) - h) > 1e-9 * max(1.0, abs(h)):
            raise DomainError("sample grid must be uniform")
    max_f = max(abs(v) for v in values)
    max_w = max(abs(weight(x)) for x in xs)
    scale = max(1.0, max_f * max_w)
    worst = 0.0
    for i in range(1, m - 1):
        second = (values[i - 1] - 2.0 * values[i] + values[i + 1]) / (h * h)
        worst = max(worst, abs(second + weight(xs[i]) * values[i]))
    fourth = 0.0
    for i in range(2, m - 2):
        d4 = (values[i - 2] - 4.0 * values[i - 1] + 6.0 * values[i]
              - 4.0 * values[i + 1] + values[i + 2])
        fourth = max(fourth, abs(d4) / h ** 4)
    floor = h * h * fourth / 12.0 / scale
    return ResidualReport(residual=worst / scale,
                          conclusive=floor <= budget, floor=floor)


def matched_b1(E, mp: MassParams, pp: PotentialProfile, u: UnitSystem,
               step: float = 1e-3):
    """Signed b1 by integrating the interior instead of closed forms.

    Seeds the decaying exterior state at x = a, marches region II backward
    to x = 0, and projects onto the exterior basis there; the amplitude
    convention (unit transmitted amplitude, T = 1/b1^2) matches the solver's
    exactly, so the two must agree wherever both are valid.  A float E gives
    a float; a 1-D array gives an array from one lockstep march.
    """
    if pp.kind != "barrier":
        raise DomainError("matched_b1 is a barrier-side check")

    def exterior(e):
        k = airy_scale(e, mp, u)
        tail = airy_ai(airy_argument(pp.a, e, mp, u))
        y1 = airy_argument(0.0, e, mp, u)
        ai, bi = airy_ai(y1), airy_bi(y1)
        det = k * (ai.value * bi.derivative - ai.derivative * bi.value)  # = k/pi
        return tail.value, k * tail.derivative, k, bi.derivative, bi.value, det

    if np.ndim(E):
        E = np.asarray(E, dtype=float)
        v0, d0, k, bi_d, bi_v, det = np.array([exterior(e) for e in E.tolist()]).T
    else:
        v0, d0, k, bi_d, bi_v, det = exterior(E)
    n = max(2, math.ceil(pp.a / step))
    got = integrate(IntegrationSpec(pp.a, 0.0, pp.a / n, v0, d0), E, mp, pp, u)
    return (got.value * k * bi_d - got.derivative * bi_v) / det


def matched_transmission(E, mp: MassParams, pp: PotentialProfile,
                         u: UnitSystem, step: float = 1e-3):
    """1/b1^2 of matched_b1 (inf where b1 = 0), a float or an array."""
    with np.errstate(divide="ignore"):
        t = 1.0 / np.square(matched_b1(E, mp, pp, u, step))
    return t if np.ndim(t) else float(t)
