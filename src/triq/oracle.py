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

Every entry takes one energy, as a Python float, and returns floats.  A
march keeps only its endpoint.  The equation is linear, so an RK4 step is
a 2x2 matrix on (phi, phi'): a block of step matrices is built in numpy at
once and multiplied pairwise down to one.  The product rounds in another
order than the step loop; over 0.02-2.25 eV, b1 moved by at most 7.6e-14
relative.

Every integration is gated: the run is repeated at half the step and the
endpoint states must agree to the declared tolerance, otherwise an
AccuracyError carries the gap out.  The endpoint returned is the
Richardson extrapolation of the two runs, which cancels RK4's leading h^4
error term.  Against an arbitrary-precision reference (test_reference.py)
matched_b1's worst relative error is 1.6e-14 on the 0.40-0.75 eV band,
1.3e-13 over 0.02-2.25 eV and 3.6e-12 on the 169 box points the closed
form solves; the fine run of the 1e-3 nm pair alone was off by up to
1.4e-13, 2.2e-12 and 1.6e-10.  So matched_b1 marches at 2e-3 nm: 3500
steps and the 7000 of the half-step rerun across the default 7 nm take
about 1.0-1.7 ms, against 2.3-4.9 ms for the 1e-3 nm pair (best of 7 runs
of 20 calls; Python 3.11 and numpy 2.4 on a 2-CPU host whose speed drifts
across those ranges).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import AccuracyError, DomainError
from .model import (MassParams, PotentialProfile, UnitSystem, _take_floats,
                    airy_argument, airy_scale)
from .special import airy_ai, airy_bi

HALVING_GATE = 1e-8

# largest RK4 step (nm) of matched_b1's march across the profile; where
# its halving pair fails the gate, the pair at half of it is taken
MATCH_STEP = 2e-3

# truncation floor up to which an ode_residual verdict is conclusive
RESIDUAL_FLOOR = 1e-6

# most RK4 steps in one block of _march's matrix product; the split into
# blocks, and each block's pair layout (_pair_layout), depend on the step
# count alone
_MARCH_BLOCK = 2048


@dataclass(frozen=True)
class IntegrationSpec:
    x_start: float
    x_end: float
    step: float
    value: float
    derivative: float

    def __post_init__(self):
        _take_floats(self, ("x_start", "x_end", "step", "value", "derivative"))
        if not self.step > 0.0:
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
    rel = E - V(0+); with no profile rel = E and alpha = 0.
    _step_matrices writes this expression out at the stage points instead
    of calling it.
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
    """The interior weight at energy E for pp, or for V = 0 when pp is
    None."""
    if pp is None:
        return Weight(u.H_per_m0, mp.M0, mp.M1, E, 0.0)
    return Weight(u.H_per_m0, mp.M0, mp.M1, E - pp.edge_eV, pp.alpha)


def _step_matrices(x, h, weight: Weight, friction: bool):
    """RK4 step matrices m[row, column, step] of _march, step i from x[i].

    The columns of step i are the step applied to the unit states (1, 0)
    and (0, 1), each entry written out.  Only the terms that multiply by
    an exact 1 or add an exact 0 are dropped (and a value the step takes
    twice is taken once); every other operation is the step's own, in its
    order.  At x, x + h/2 and x + h the weight enters as
    -w = (-H m(x)) (rel + alpha x), the pieces of Weight.__call__ with the
    sign folded into H (which is exact), and with friction -M1/m, the
    factor of phi' in phi''.
    """
    H, M0, M1, rel, alpha = weight
    half = 0.5 * h
    sixth = h / 6.0
    points = np.stack((x, x + half, x + h))
    masses = M0 - M1 * points
    # -w at the three points
    w0, wm, we = -H * masses * (rel + alpha * points)
    # RK4 takes the stages (0, w0), (a2v, a2d), (a3v, a3d), (a4v, a4d) on
    # column (1, 0) and (1, f0), (b2v, b2d), (b3v, b3d), (b4v, b4d) on
    # column (0, 1); the sums are k1 + 2 k2 + 2 k3 + k4 of each entry
    a2v = half * w0
    if friction:
        f0, fm, fe = -M1 / masses
        a2d = fm * a2v + wm
        a3v = half * a2d
        a3d = fm * a3v + wm * (1.0 + half * a2v)
        a4v = h * a3d
        a4d = fe * a4v + we * (1.0 + h * a3v)
        b2v = 1.0 + half * f0
        b2d = fm * b2v + wm * half
        b3v = 1.0 + half * b2d
        b3d = fm * b3v + wm * (half * b2v)
        b4v = 1.0 + h * b3d
        b4d = fe * b4v + we * (h * b3v)
        vv = 2.0 * a2v + 2.0 * a3v + a4v
        dv = w0 + 2.0 * a2d + 2.0 * a3d + a4d
        vd = 1.0 + 2.0 * b2v + 2.0 * b3v + b4v
        dd = f0 + 2.0 * b2d + 2.0 * b3d + b4d
    else:
        # a2d = wm and b2v = 1; a3v, b2d and b3d are all (h/2) wm, so
        # that a4d = we (1 + h a3v) is we b4v
        q = half * wm
        two_q = 2.0 * q
        a3d = wm * (1.0 + half * a2v)
        b3v = 1.0 + half * q
        b4v = 1.0 + h * q
        vv = 2.0 * a2v + two_q + h * a3d
        dv = w0 + 2.0 * wm + 2.0 * a3d + we * b4v
        vd = 3.0 + 2.0 * b3v + b4v
        dd = two_q + two_q + we * (h * b3v)
    m = np.empty((2, 2, len(x)))
    m[0, 0] = 1.0 + sixth * vv
    m[1, 0] = sixth * dv
    m[0, 1] = sixth * vd
    m[1, 1] = 1.0 + sixth * dd
    return m


@functools.lru_cache(maxsize=32)
def _pair_layout(k):
    """Step ids 0..k-1 of a block of k steps in the order _march lays
    them out (read-only).

    Level by level, the pairwise product then finds its pairs (2j, 2j + 1)
    as the two contiguous halves of its array, earlier step first, with an
    odd level's carried step last, and writes its products in the layout
    of the next level.  For k a power of two it is the bit reversal.
    """
    sizes = [k]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    ids = np.zeros(1, dtype=np.intp)
    for size in reversed(sizes[:-1]):
        # id j of the level above is the pair (2j, 2j + 1), or the carry
        # 2j = size - 1 when size is odd and j is its last
        pairs = 2 * ids[:size // 2]
        ids = np.concatenate([pairs, pairs + 1, 2 * ids[size // 2:]])
    ids.flags.writeable = False
    return ids


def _march(x0, x1, n, v, d, weight: Weight, friction: bool):
    """Endpoint (v, d) of RK4 over n uniform steps of phi'' = -w phi, plus
    the mass-gradient term -(m'/m) phi' = M1/m phi' if friction is set.

    The equation is linear, so a step is a 2x2 matrix on (v, d)
    (_step_matrices).  The steps go in blocks of at most _MARCH_BLOCK: a
    block's matrices are built at once, multiplied in adjacent pairs
    (later step on the left, an odd count's last step carried) down to
    one, and applied to the state.  Each block is built in _pair_layout
    order, so that every level reads its pairs as its array's two
    contiguous halves; the split and the pairing depend on n alone.  The
    endpoint is a pair of floats; overflow is silent, as it is for floats.
    """
    v, d = float(v), float(d)
    h = (x1 - x0) / n
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _MARCH_BLOCK):
            k = min(n - start, _MARCH_BLOCK)
            # step i starts at x0 + i*h
            m = _step_matrices(x0 + (start + _pair_layout(k)) * h, h,
                               weight, friction)
            while k > 1:
                p = k // 2
                # terms[r, j, c] = later[r, j] * earlier[j, c]
                terms = m[:, :, None, p:2 * p] * m[None, :, :, :p]
                pairs = terms[:, 0] + terms[:, 1]
                m = (np.concatenate([pairs, m[:, :, 2 * p:]], axis=2)
                     if k % 2 else pairs)
                k -= p
            (mvv, mvd), (mdv, mdd) = m[:, :, 0]
            v, d = mvv * v + mvd * d, mdv * v + mdd * d
    return float(v), float(d)


def integrate(spec: IntegrationSpec, E, mp: MassParams,
              pp: Optional[PotentialProfile], u: UnitSystem,
              full_equation: bool = False) -> IntegrationResult:
    """March the wave equation across [x_start, x_end] (either direction).

    pp=None means V identically zero; a profile's sloped branch holds on
    the whole closed range, so the march lives inside the profile (or on
    its interfaces).  full_equation=True restores the
    mass-gradient first-derivative term -(m'/m) phi'; that term is singular
    where m(x) = 0, so a range that crosses or ends at the mass zero x* is
    truncated ten steps short of it and the reached endpoint is reported
    in x_stop.  A range starting within ten steps of x* would truncate to
    nothing and is refused.

    E is taken to a Python float.  The march of 2n steps is accepted only
    if the march of n reproduces it to HALVING_GATE relative on the
    (value, derivative) scale; halving_gap is that gap.  The value and
    derivative returned are the pair's Richardson extrapolation
    (_extrapolated).
    """
    E = float(E)
    weight = make_weight(E, mp, pp, u)
    x_end, n = spec.x_end, spec.n_steps
    friction = full_equation and mp.M1 > 0.0  # with m' = 0 it is the plain one
    if friction:
        xz, margin = mp.mass_zero_nm, 10.0 * spec.step
        if min(spec.x_start, spec.x_end) <= xz <= max(spec.x_start, spec.x_end):
            if abs(spec.x_start - xz) <= margin:
                raise DomainError(
                    f"full-equation range starts at {spec.x_start!r} nm, within "
                    f"ten steps of the mass zero x* = {xz!r} nm")
            x_end = xz - margin if spec.x_start < xz else xz + margin
            # keep the step count integral on the shortened range
            n = max(1, round(abs(x_end - spec.x_start) / spec.step))
            x_end = spec.x_start + math.copysign(n * spec.step,
                                                 spec.x_end - spec.x_start)
    value, derivative, gap = _extrapolated(
        _march(spec.x_start, x_end, 2 * n, spec.value, spec.derivative,
               weight, friction),
        _march(spec.x_start, x_end, n, spec.value, spec.derivative,
               weight, friction))
    return IntegrationResult(value=value, derivative=derivative,
                             halving_gap=gap, x_stop=x_end)


def _extrapolated(fine, coarse):
    """(value, derivative, gap) of a halving pair: the endpoints (v, d) of
    2n and of n steps over one range.

    The pair is accepted only if the gap, the larger of its component
    differences over max(|v|, |d|), is within HALVING_GATE; otherwise an
    AccuracyError carries the gap out.  The value and derivative are
    Richardson's v + (v - v_coarse) / 15: RK4's global error goes as h^4,
    so the pair's leading error term cancels (Hairer, Norsett and Wanner,
    Solving ODEs I, ch. II).
    """
    (v, d), (cv, cd) = fine, coarse
    # numpy maxima, so that a NaN in either component fails the gate
    gap = float(np.maximum(abs(v - cv), abs(d - cd))
                / np.maximum(np.maximum(abs(v), abs(d)), 1e-300))
    if not gap <= HALVING_GATE:
        raise AccuracyError(
            f"halving gate failed: endpoint ({v!r}, {d!r}) vs "
            f"coarse ({cv!r}, {cd!r}), gap {gap!r}", value=gap)
    return v + (v - cv) / 15.0, d + (d - cd) / 15.0, gap


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


def matched_b1(E, mp: MassParams, pp: PotentialProfile,
               u: UnitSystem) -> float:
    """Signed b1 by integrating the interior instead of closed forms.

    Seeds the decaying exterior state at x = a, marches region II backward
    to x = 0, and projects onto the exterior basis there; the amplitude
    convention (unit transmitted amplitude, T = 1/b1^2) matches the solver's
    exactly, so the two must agree wherever both are valid.  E is taken to
    a Python float.

    The crossing is a halving pair at a step of at most MATCH_STEP,
    gated and extrapolated (_extrapolated).  Where that pair fails the
    gate, the pair at half the step is taken, and its refusal is the one
    raised, so matched_b1 refuses exactly where that pair alone refuses.
    On the seeded parameter box 3 of the 169 points the closed form
    solves take it, and on the default barrier the energies from about
    7.1 eV up.
    """
    if pp.kind != "barrier":
        raise DomainError("matched_b1 is a barrier-side check")
    E = float(E)
    k = airy_scale(E, mp, u)
    tail = airy_ai(airy_argument(pp.a, E, mp, u))
    y1 = airy_argument(0.0, E, mp, u)
    (ai, aip), (bi_v, bi_d) = airy_ai(y1), airy_bi(y1)
    det = k * (ai * bi_d - aip * bi_v)  # = k/pi
    weight = make_weight(E, mp, pp, u)

    def march(n):
        return _march(pp.a, 0.0, n, tail.value, k * tail.derivative, weight,
                      False)

    n = max(2, math.ceil(pp.a / MATCH_STEP))
    middle = march(2 * n)
    try:
        v, d, _ = _extrapolated(middle, march(n))
    except AccuracyError:
        # the pair at half the step, whose coarse march is middle when
        # the step counts agree; its refusal is the one raised
        m = max(2, math.ceil(pp.a / (MATCH_STEP / 2.0)))
        v, d, _ = _extrapolated(march(2 * m),
                                middle if m == 2 * n else march(m))
    return (v * k * bi_d - d * bi_v) / det


def matched_transmission(E, mp: MassParams, pp: PotentialProfile,
                         u: UnitSystem) -> float:
    """1/b1^2 of matched_b1, inf where b1 = 0."""
    b1 = matched_b1(E, mp, pp, u)
    square = b1 * b1
    return 1.0 / square if square else math.inf
