"""Brute-force verification path: direct integration of the wave equation.

Everything the closed-form modules claim is re-derivable here by marching

    phi'' + H m(x) (E - V(x)) phi = 0

with a classical fixed-step fourth-order Runge-Kutta scheme.  The module
deliberately knows nothing about Airy or Kummer functions; it sees only the
polynomial coefficient H m(x)(E - V(x)) and elementary arithmetic, so an
agreement between the two paths is evidence, not tautology.  The single
exception is matched_transmission, which needs the exterior basis values at
the interfaces to express its result in the same amplitude convention as the
solver; those two boundary evaluations are imported, the interior crossing
is not.

Every integration is gated: the run is repeated at half the step and the
endpoint states must agree to the declared tolerance, otherwise an
AccuracyError carries both values out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .errors import AccuracyError, DomainError
from .model import MassParams, PotentialProfile, UnitSystem, airy_argument, airy_scale
from .special import airy_ai, airy_bi

HALVING_GATE = 1e-8
DEFAULT_STEP = 1e-4


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
    xs: list
    values: list
    derivatives: list
    halving_gap: float
    x_stop: float


def _make_weight(E, mp: MassParams, pp: Optional[PotentialProfile],
                 u: UnitSystem, interior: bool = False) -> Callable[[float], float]:
    H = u.H_per_m0
    if pp is None:
        return lambda x: H * mp.mass_at(x) * E
    if interior:
        # sloped branch extended to the closed interval: sampling the jump
        # at an interface inside an RK4 stage would wreck the order there
        edge, alpha = pp.edge_eV, pp.alpha
        return lambda x: H * mp.mass_at(x) * (E - edge + alpha * x)
    return lambda x: H * mp.mass_at(x) * (E - pp.value_at(x))


def _march(x0, x1, n, v, d, weight, friction):
    """RK4 over n uniform steps; friction is the optional phi' coefficient."""
    h = (x1 - x0) / n
    xs = [x0]
    vs = [v]
    ds = [d]
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
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        d += h / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        xs.append(x0 + (i + 1) * h)
        vs.append(v)
        ds.append(d)
    return xs, vs, ds


def integrate(spec: IntegrationSpec, E, mp: MassParams,
              pp: Optional[PotentialProfile], u: UnitSystem,
              full_equation: bool = False,
              interior: bool = False) -> IntegrationResult:
    """March the wave equation across [x_start, x_end] (either direction).

    pp=None means V identically zero; interior=True keeps the sloped
    potential branch on the whole closed range (for marches that live
    entirely inside the profile).  full_equation=True restores the
    mass-gradient first-derivative term -(m'/m) phi'; that term is singular
    where m(x) = 0, so the range is truncated ten steps short of the mass
    zero and the reached endpoint is reported in x_stop.

    The endpoint state is accepted only if a half-step rerun reproduces it
    to HALVING_GATE relative on the joint (value, derivative) scale.
    """
    weight = _make_weight(E, mp, pp, u, interior)
    friction = None
    x_end = spec.x_end
    if full_equation:
        if mp.M1 > 0.0:
            xz = mp.mass_zero_nm
            margin = 10.0 * spec.step
            lo, hi = min(spec.x_start, spec.x_end), max(spec.x_start, spec.x_end)
            if lo < xz < hi:
                x_end = xz - margin if spec.x_end > xz else xz + margin
                # keep the step count integral on the shortened range
                n = max(1, round(abs(x_end - spec.x_start) / spec.step))
                x_end = spec.x_start + math.copysign(n * spec.step,
                                                     spec.x_end - spec.x_start)

            def friction(x, _mp=mp):
                return -_mp.M1 / _mp.mass_at(x)
        else:
            friction = None  # m' = 0: the full equation is the plain one

    n = max(1, round(abs(x_end - spec.x_start) / spec.step))
    xs, vs, ds = _march(spec.x_start, x_end, 2 * n,
                        spec.value, spec.derivative, weight, friction)
    _, cvs, cds = _march(spec.x_start, x_end, n,
                         spec.value, spec.derivative, weight, friction)
    scale = max(abs(vs[-1]), abs(ds[-1]), 1e-300)
    gap = max(abs(vs[-1] - cvs[-1]), abs(ds[-1] - cds[-1])) / scale
    if gap > HALVING_GATE:
        raise AccuracyError(
            f"halving gate failed: endpoint ({vs[-1]!r}, {ds[-1]!r}) vs "
            f"coarse ({cvs[-1]!r}, {cds[-1]!r}), gap {gap!r}", value=gap)
    # expose the trajectory on the requested grid (every other fine node)
    return IntegrationResult(value=vs[-1], derivative=ds[-1],
                             xs=xs[::2], values=vs[::2], derivatives=ds[::2],
                             halving_gap=gap, x_stop=x_end)


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


def matched_transmission(E, mp: MassParams, pp: PotentialProfile,
                         u: UnitSystem, step: float = 1e-3) -> float:
    """Transmission by integrating the interior instead of closed forms.

    Seeds the decaying exterior state at x = a, marches region II backward
    to x = 0, and projects onto the exterior basis there; the amplitude
    convention (unit transmitted amplitude, T = 1/b1^2) matches the solver's
    exactly, so the two must agree wherever both are valid.
    """
    if pp.kind != "barrier":
        raise DomainError("matched_transmission is a barrier-side check")
    k = airy_scale(E, mp, u)
    y1 = airy_argument(0.0, E, mp, u)
    y3 = airy_argument(pp.a, E, mp, u)
    tail = airy_ai(y3)
    n = max(2, math.ceil(pp.a / step))
    spec = IntegrationSpec(x_start=pp.a, x_end=0.0, step=pp.a / n,
                           value=tail.value, derivative=k * tail.derivative)
    got = integrate(spec, E, mp, pp, u, interior=True)
    ai = airy_ai(y1)
    bi = airy_bi(y1)
    det = k * (ai.value * bi.derivative - ai.derivative * bi.value)  # = k/pi
    b1 = (got.value * k * bi.derivative - got.derivative * bi.value) / det
    if b1 == 0.0:
        return math.inf
    return 1.0 / (b1 * b1)
