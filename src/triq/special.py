"""Real-argument special functions used by the closed-form solver.

Everything here is hand-rolled on purpose: the scattering and spectrum
modules are exercised against an integration oracle that is forbidden from
sharing any of this code, so these kernels carry their own pinned accuracy
contracts instead of delegating to a library.  Where doubles run out,
the arithmetic is carried in exact Python integers as fixed point: the
rerun of a Kummer series under heavy cancellation, and the Airy phase at
large |y|.

Contracts (relative error unless stated):
    airy_ai / airy_bi   <= 1e-12 for |y| <= 30 (refused below y = -1e6)
    kummer_m            <= 1e-10 for |z| <= 300 (envelope; error beyond)
    tricomi_u_cf        returns an estimate bounding its error for exact inputs
    tricomi_u_large_z   returns its own relative error estimate
    recip_gamma / gamma <= 2e-14 for |x| <= 20, 1e-13 for |x| <= 60,
                          2e-13 for |x| <= 100 and 3e-13 on [-168.5, 171.5],
                          away from poles (e^(ln Gamma) carries about
                          |ln Gamma| rounding units)
    kummer_m_regularized and tricomi_u_large_z (the large-z recurrence
    tricomi_u_cf replaced) are not in __all__ and no code in src/ calls
    them: they stay only while bench/tracing.py binds their names

Near an Airy oscillation zero "relative" is measured against the local pair
envelope max(|f|, |f'| / sqrt(|y|)): pointwise relative error at a zero is
not a meaningful target for any fixed-precision evaluation, and the matching
determinants the solver builds are conditioned on the envelope, not on the
vanishing component.

1/Gamma is the primitive: poles of Gamma map to exact zeros, which is what
lets the Tricomi construction drop terms cleanly at non-positive integer
parameters.

Tricomi's U itself is made in one place, scatter._companion, for a point or
a grid: the two-term form from the Kummer series here, or, where y > 0,
tricomi_u_cf (a continued fraction and the Wronskian, from the same Kummer
values), chosen at each point by each route's error estimate.

Three kernels also run over a 1-D array, element for element the doubles
of the scalar calls: _kummer_m_array (one plain-series pass, summing a
block of terms per numpy step), _airy_array and _recip_gamma_array.
Their + - * / run in numpy in the scalar operation order.  The one
exception is the Kummer rerun: _kummer_m_array takes every rerun of the
grid in one double-double numpy pass (_kummer_rerun_array), which gets
the fixed-point rerun's doubles by proof, not by operation order, and
leaves each element it cannot prove to that rerun.  One libm
serves both routes: every exp, log, root, power and sine that a lone
point and a grid element share is numpy's, taken of a float as of an
array (_libm hands a float back a Python float), so the routes agree
without a per-element loop.  That rests on numpy giving one double
whatever the call's shape, which tests/test_special.py checks on the
host; the pinned outputs pin the host's numpy dispatch.  Code with no
array twin keeps math: kummer_m's z < 0 transformation,
tricomi_u_large_z, the import-time constants, and the fixed-point Airy
phase, which both routes take per element.  An element whose scalar
call raises is NaN, and the array call raises nothing: a caller that
needs the error makes the scalar call at that element (scatter's
lone-point route, or a validate grid).

The Airy march is a ladder of nodes built at import (_airy_ladder):
whole steps of _AIRY_MARCH_STEP down from each anchor, Ai from the
asymptotics at 8 and Ai and Bi from the series at -4.5.  A point of a
march band takes one Taylor step down from the nearest node at or above
it, a float by _airy_march and every march element of an array in one
_airy_taylor_step_array call.

A scalar/array pair is kept only for a per-element loop, where a lone
point is cheaper on its own: the series loops (_airy_series,
_kummer_series), the Taylor step and the ln Gamma shift.  The formulas
around them are written once for a float or an array: the Maclaurin
combination, the Stirling tail, the 1/Gamma reflection and overflow
decision (_recip_gamma_of, _sinpi), tricomi_u_cf, whose backward steps
run in lockstep over every element, and the asymptotic Airy sums
(_asym_sums).  A float takes the last as a one-element array: a float
_airy_asym_pos call takes about 24 us, against about 20 us with a term
loop of its own (2-CPU host); a sweep takes the asymptotic regimes over
arrays, and a validate pass makes 4 such float calls.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError, TriqError, require_finite

__all__ = [
    "AiryPair",
    "airy_ai",
    "airy_bi",
    "gamma",
    "recip_gamma",
    "kummer_m",
    "tricomi_u_cf",
    "KUMMER_ENVELOPE",
    "TRICOMI_CF_LEAST",
]

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)
_SQRT3 = math.sqrt(3.0)
# the exponent past which e^x is taken to overflow (a double's is 709.78)
_EXP_LIMIT = 700.0

# Maximum |z| accepted by the Kummer series before raising AccuracyError.
KUMMER_ENVELOPE = 300.0
_KUMMER_MAX_TERMS = 1200
# stop ratio of a non-growing term to sum|terms| (_kummer_series and twin)
_KUMMER_STOP = 1e-17
# Above the first ratio the plain compensated sum has eaten ~4 of its 16
# digits and the series is rerun in integer fixed point (_kummer_series_dd);
# above the second the point is refused.  A grid takes its reruns in one
# double-double pass (_kummer_rerun_array), which keeps an element only
# where it proves that its doubles are the integer rerun's, and leaves the
# others to that rerun; both reach the gates through _kummer_sum.  The
# second limit sets the closed form's domain (README, "Where the closed
# form refuses"), not the rerun's precision: with 2^-160 fixed-point steps
# a loss of 1e12 still leaves the sum within ~2^-93 relative (the bound in
# _kummer_series_dd's docstring).
_KUMMER_ESCALATE_LOSS = 1.0e4
_KUMMER_FAIL_LOSS = 1.0e12
# the rerun's fixed-point bits for b, z >= 1 (more for tiny b or z), and
# its stop rule's 1e-33 as the integer ratio of sum|terms| to a term (the
# double-double pass proves the same rule with it)
_KUMMER_FIXED_BITS = 160
_KUMMER_FIXED_STOP = 10 ** 33
# _kummer_rerun_array's margins: the relative slack its plain-double terms
# get against the integer rerun's in each stop-rule comparison (their own
# error and the integer one's are below 2^-38 where it keeps an element),
# and the size, relative to the sum of |terms|, below which a term is
# summed in plain doubles rather than double-double
_DD_MARGIN = 2.0 ** -36
_DD_SMALL = 2.0 ** -56
# Dekker's splitter 2^27 + 1, the unit roundoff u = 2^-53, and the
# extraction constant 2^-28, whose sum with d, |d| < 2^-51, keeps d's
# multiples of 2^-80
_DD_SPLITTER = 134217729.0
_U = 2.0 ** -53
_DD_EXTRACT = 2.0 ** -28
# _kummer_series_array's blocks: at most this many doubles per buffer, the
# carried row included, and from _MIN to _MAX terms per block.  A sweep's
# one call holds 8 series a point: a 200-point sweep's 1600 elements are
# one part, which starts at 6 rows a block, and a grid past 281 points is
# summed in parts of at most 2252 elements.  It also bounds each array of
# a _kummer_rerun_array part (sweep_wide's 83 reruns in two parts of about
# 0.75 MB at most in all; in three, under 6144, took a third longer)
_KUMMER_BLOCK_BUDGET = 11264
_KUMMER_BLOCK_MIN = 4
_KUMMER_BLOCK_MAX = 32
_DD_K = np.arange(0.0, _KUMMER_MAX_TERMS + 1.0)[:, None]  # k = 0, 1, ..., a column
_KUMMER_K = _DD_K[1:]  # k from 1
_KUMMER_K_LESS = _DD_K[:-1]  # k - 1: c's part of r_k is c + (k - 1)
# weight B + 1 - j of a block's row j; the largest stopped weight marks
# the first stop (int8 keeps the pass over the block's mask short)
_KUMMER_ROW_WEIGHTS = np.arange(_KUMMER_BLOCK_MAX, 0, -1, dtype=np.int8)[:, None]

# Airy evaluation regimes: Maclaurin series around 0, Taylor marching along
# the ODE in the mid range, asymptotics beyond.  Boundaries sized so series
# cancellation and asymptotic truncation both stay under the 1e-12 contract;
# the negative switch sits further out because relative accuracy near the
# oscillation zeros leaves no truncation budget at all.
_AIRY_SERIES_LO = -4.5
_AIRY_SERIES_HI_AI = 3.0
_AIRY_ASYM_POS = 8.0
_AIRY_ASYM_NEG = -9.5
_AIRY_MARCH_STEP = 0.75
# stop ratio of a term to its sum in the Maclaurin series and a Taylor step,
# and the term size after which _asym_sums stops the asymptotic series
_AIRY_STOP = 1e-18
# Bi overflows IEEE doubles near y ~ 104; the contract range is |y| <= 30.
_AIRY_BI_OVERFLOW = 103.0
# Below this both functions refuse: the oscillatory phase's remainder enters
# to first order and grows with ulp(zeta), so the 1e-12 envelope bound holds
# at -1e6 and not at -1e7 (1.5e-12 there, 55 at -1e12, against mpmath).
_AIRY_NEG_LIMIT = -1.0e6


def _is_nonpositive_integer(x):
    """x <= 0 with no fraction, for a finite float or elementwise over an
    array (x // 1.0 is floor(x) for finite x)."""
    return (x <= 0.0) & (x == x // 1.0)


def _scalar(x) -> bool:
    """Whether x is one value (a float, np.float64 or 0-d array), not a 1-D
    array.  isinstance comes first: np.ndim of a float costs ~2 us, which
    the float route of a float-or-array routine should not pay."""
    return isinstance(x, float) or not np.ndim(x)


def _libm(ufunc, x, *args):
    """numpy's ufunc(x, *args): a Python float for a float x (or an
    np.float64), else the array.  The one way both routes take exp, log,
    roots, powers and sines."""
    value = ufunc(x, *args)
    return value if isinstance(value, np.ndarray) else float(value)


def _where(cond, a, b):
    """np.where(cond, a, b) over arrays; for one bool, Python's a if cond
    else b, which keeps a float's values and costs none of np.where's
    microsecond."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


# ---------------------------------------------------------------------------
# Gamma


def _sinpi(x):
    """sin(pi*x) with argument reduction done on x itself: a finite float,
    or elementwise over an array.

    Reducing before multiplying by pi keeps full relative accuracy near
    integer x, where the reflection formula needs it most.
    """
    n = x // 1.0  # floor(x)
    r = x - n
    s = _libm(np.sin, math.pi * _where(r > 0.5, 1.0 - r, r))
    return s * (1.0 - 2.0 * (n % 2.0))  # -s for odd n


# Stirling series coefficients B_2k / (2k*(2k-1)) for ln Gamma, z >= 12.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)


def _lngamma_positive(x):
    """ln Gamma(x) for x >= 0.5 via upward shift + Stirling series: a float,
    or elementwise over a 1-D array with |x| <= _RG_ARRAY_LIMIT.

    Over an array the shift runs until every element is past 12, each
    element stopping at its own, and the rest runs in numpy in the float
    order, so each element gets the float's double.
    """
    if _scalar(x):
        shift, z = 1.0, x
        while z < 12.0:
            shift *= z
            z += 1.0
    else:
        shift, z = np.ones(x.size), x.copy()
        low = np.flatnonzero(z < 12.0)
        while low.size:
            shift[low] *= z[low]
            z[low] += 1.0
            low = low[z[low] < 12.0]
    zz = 1.0 / (z * z)
    series = 0.0
    for coeff in reversed(_STIRLING):
        series = (series + coeff) * zz
    series /= zz * z  # undo one power: series terms are c_k * z^(1-2k)
    return ((z - 0.5) * _libm(np.log, z) - z + _LN_SQRT_2PI + series
            - _libm(np.log, shift))


def _recip_gamma_of(x, ln):
    """1/Gamma(x) of a finite x that is not a pole, a float or elementwise
    over an array, from ln = ln Gamma of max(x, 1 - x): e^-ln from 0.5 up,
    else the reflection 1/Gamma(x) = Gamma(1 - x) sin(pi x) / pi, and NaN
    where that Gamma(1 - x) overflows (ln > _EXP_LIMIT), which recip_gamma
    refuses."""
    reflected = x < 0.5
    power = _where(reflected, ln, -ln)
    over = power > _EXP_LIMIT  # only where reflected: -ln is below 0.13
    value = (_where(reflected, _sinpi(x) / math.pi, 1.0)
             * _libm(np.exp, _where(over, 0.0, power)))
    return _where(over, math.nan, value)


def recip_gamma(x: float) -> float:
    """1/Gamma(x); exactly 0.0 at the poles x = 0, -1, -2, ..."""
    x = require_finite("x", x)
    if _is_nonpositive_integer(x) or x > _RG_ARRAY_LIMIT:
        return 0.0  # 1/Gamma underflows from x ~ 178
    value = _recip_gamma_of(x, _lngamma_positive(max(x, 1.0 - x)))
    if value != value:
        raise AccuracyError(f"recip_gamma overflow at x={x!r}", value=x)
    return value


# |x| up to which ln Gamma is summed: past it the Stirling series' z * z
# may overflow, and recip_gamma gives 0.0 (a pole, or 1/Gamma underflowed)
_RG_ARRAY_LIMIT = 2.0 ** 500


def _recip_gamma_array(x):
    """recip_gamma over a 1-D array, with the scalar calls' doubles.

    ln Gamma and the reflection are taken for all elements at once
    (_lngamma_positive, _recip_gamma_of).  A pole gives 0.0, and so does a
    finite element past _RG_ARRAY_LIMIT, as in the scalar call: above
    2^500 1/Gamma has underflowed, and every double below -2^500 is a
    negative integer.  An element is NaN exactly where its scalar call
    raises.
    """
    x = np.asarray(x, dtype=float)
    values = np.where(np.isfinite(x), 0.0, math.nan)
    with np.errstate(invalid="ignore"):  # NaN and inf compare False here
        run = np.flatnonzero((np.abs(x) <= _RG_ARRAY_LIMIT)
                             & ~_is_nonpositive_integer(x))
    xs = x[run]
    values[run] = _recip_gamma_of(xs, _lngamma_positive(np.maximum(xs, 1.0 - xs)))
    return values


def gamma(x: float) -> float:
    """Gamma(x) on the real line; refuses poles and values past the double range."""
    x = require_finite("x", x)
    if _is_nonpositive_integer(x):
        raise DomainError(f"gamma pole at x={x!r}")
    rg = recip_gamma(x)
    g = 1.0 / rg if rg != 0.0 else math.inf
    if math.isinf(g):
        raise AccuracyError(f"gamma overflow at x={x!r}", value=x)
    return g


def _pochhammer(x: float, n: int) -> float:
    p = 1.0
    for j in range(n):
        p *= x + j
    return p


# ---------------------------------------------------------------------------
# Airy pair


class AiryPair(NamedTuple):
    """Value and first derivative of an Airy function at one point."""

    value: float
    derivative: float


def _airy_series(y: float) -> tuple[float, float, float, float]:
    """Maclaurin pair (f, f', g, g') of w'' = y*w around 0.

    f has w(0)=1, w'(0)=0; g has w(0)=0, w'(0)=1.  Both are entire; the
    caller restricts y so the alternating cancellation stays within budget.
    """
    if y == 0.0:
        return 1.0, 0.0, 0.0, 1.0
    inv_y = 1.0 / y
    if math.isinf(inv_y):
        # subnormal y: every term past the first rounds to 0, but the
        # derivatives would take 0 * inf
        return 1.0, 0.0, y, 1.0
    y3 = y * y * y
    f = tf = 1.0
    g = tg = y
    fp = 0.0
    gp = 1.0
    for k in range(1, 90):
        three_k = 3.0 * k
        tf *= y3 / (three_k * (three_k - 1.0))
        tg *= y3 / (three_k * (three_k + 1.0))
        f += tf
        g += tg
        fp += tf * three_k * inv_y
        gp += tg * (three_k + 1.0) * inv_y
        if abs(tf) < _AIRY_STOP * abs(f) and abs(tg) < _AIRY_STOP * abs(g):
            break
    return f, fp, g, gp


def _airy_series_pair(y):
    """(Ai, Ai', Bi, Bi') from the Maclaurin pair: a float, or a 1-D array
    elementwise (_airy_series_array)."""
    f, fp, g, gp = _airy_series(y) if _scalar(y) else _airy_series_array(y)
    ai = _AI_ZERO * f - _AI_SLOPE * g
    aip = _AI_ZERO * fp - _AI_SLOPE * gp
    bi = _SQRT3 * (_AI_ZERO * f + _AI_SLOPE * g)
    bip = _SQRT3 * (_AI_ZERO * fp + _AI_SLOPE * gp)
    return ai, aip, bi, bip


def _airy_taylor_step(x0: float, w: float, wp: float, h: float) -> tuple[float, float]:
    """One Taylor step of w'' = x*w from x0 to x0+h.

    The local series is entire, so the only requirement on h is that the
    ~60-term budget reaches _AIRY_STOP relative; |h| <= 0.8 is ample, and
    the march steps by at most _AIRY_MARCH_STEP = 0.75 (a ladder node to
    the next, or a node down to a point).
    """
    # Coefficients a_n of the local Taylor series; a_{n+2} = (x0*a_n + a_{n-1}) / ((n+1)(n+2))
    coeffs = [w, wp, 0.5 * x0 * w]
    value = w + h * (wp + h * coeffs[2])
    deriv = wp + 2.0 * coeffs[2] * h
    hn = h * h
    for n in range(1, 60):
        a_next = (x0 * coeffs[n] + coeffs[n - 1]) / ((n + 1.0) * (n + 2.0))
        coeffs.append(a_next)
        hn_next = hn * h
        term_v = a_next * hn_next
        value += term_v
        deriv += a_next * (n + 2.0) * hn
        hn = hn_next
        if abs(term_v) < _AIRY_STOP * (abs(value) + abs(deriv) * abs(h)):
            break
    return value, deriv


def _airy_ladder(x0: float, w: float, wp: float, lo: float):
    """The march's nodes from the anchor (x0, w, w') down to the last one
    above lo, as (x, w, w') lists in ascending x.

    The nodes lie whole steps of _AIRY_MARCH_STEP below x0, each one
    Taylor step from the node above it, so each holds the doubles a
    step-by-step march from x0 gives there.
    """
    xs, ws, wps = [x0], [w], [wp]
    while xs[-1] - _AIRY_MARCH_STEP > lo:
        w, wp = _airy_taylor_step(xs[-1], w, wp, -_AIRY_MARCH_STEP)
        xs.append(xs[-1] - _AIRY_MARCH_STEP)
        ws.append(w)
        wps.append(wp)
    return xs[::-1], ws[::-1], wps[::-1]


def _airy_march(y: float, ladder) -> tuple[float, float]:
    """(w, w') at a float y from an _airy_ladder: one Taylor step down
    from the nearest node at or above y, so |h| < _AIRY_MARCH_STEP.
    _airy_march_array takes the same step over arrays."""
    xs, ws, wps = ladder
    i = bisect.bisect_left(xs, y)
    return _airy_taylor_step(xs[i], ws[i], wps[i], y - xs[i])


# the asymptotic series' terms k = 1 .. _ASYM_TERMS at most
_ASYM_TERMS = 59

# k as a column; the ratio (6k - 1)(6k - 5) / (72 k zeta) of term k to
# term k - 1 as its numerator and 72 k; and (u_k, v_k) / u_k, as the
# numerators (1, 6k + 1) over (1, 1 - 6k), one row per k
_ASYM_K = np.arange(1.0, _ASYM_TERMS + 1.0)[:, None]
_ASYM_RATIO = ((6.0 * _ASYM_K - 1.0) * (6.0 * _ASYM_K - 5.0), 72.0 * _ASYM_K)
_ASYM_UV = (np.hstack([np.ones_like(_ASYM_K), 6.0 * _ASYM_K + 1.0])[:, :, None],
            np.hstack([np.ones_like(_ASYM_K), 1.0 - 6.0 * _ASYM_K])[:, :, None])
# the signs each regime's sums give term k, shaped (k, 1, j, 1): the
# exponential pair sums (-1)^k and 1; the oscillatory pair splits
# (-1)^floor(k/2) by even and odd k, 0 for the other parity
_ASYM_POS_SIGNS = np.hstack([np.where(_ASYM_K % 2.0 == 1.0, -1.0, 1.0),
                             np.ones_like(_ASYM_K)])[:, None, :, None]
_ASYM_NEG_SIGNS = (np.where(_ASYM_K % 4.0 < 2.0, 1.0, -1.0)
                   * (_ASYM_K % 2.0 == np.array([0.0, 1.0])))[:, None, :, None]


def _asym_sums(zeta, signs, start):
    """The four sums of the Airy asymptotic series (DLMF 9.7.2) of zeta, a
    float or a 1-D array: start + sum_k s_kj u_k / zeta^k for j = 0, 1,
    then the same two of the v_k, with s_kj = signs[k - 1, 0, j, 0]; four
    floats for a float, else a (4, n) array.  This is the one place for
    the terms' recurrence and their stop rule.

    u_k / zeta^k is the running product of the ratios (6k - 1)(6k - 5) /
    (72 k zeta), and v_k / zeta^k is u_k / zeta^k (6k + 1) / (1 - 6k).
    The series is asymptotic, so an element takes term k where it and
    every term before it shrank, and none before it fell below _AIRY_STOP:
    it stops before the first term that does not shrink, or after one
    below _AIRY_STOP.  Every element's terms are taken for all k at once,
    and the sums are built, and added left to right from start, only up
    to the last term any element takes.  A term an element does not take,
    or a sum does not count (sign 0), is added as +0.0 or -0.0, which
    changes no sum: none is -0.0, as each starts at 1.0 or +0.0 and a
    rounded sum is -0.0 only of two -0.0.  The call costs about 20 numpy
    calls whatever the number of terms, the same code for a float as for
    an array.
    """
    num, den = _ASYM_RATIO
    # 72 k zeta is inf past zeta ~ 4e304, and the terms past an element's
    # stop may overflow; they are dropped
    with np.errstate(over="ignore"):
        u = np.multiply.accumulate(num / (den * zeta), axis=0)
    mag = np.abs(u)
    # term k is taken where neither it grew, nor the term before it fell
    # below _AIRY_STOP, nor did either happen at any term before it
    stop = np.empty(u.shape, dtype=bool)
    np.greater_equal(mag[0], math.inf, out=stop[0])
    np.greater_equal(mag[1:], mag[:-1], out=stop[1:])
    stop[1:] |= mag[:-1] < _AIRY_STOP
    taken = np.logical_and.accumulate(~stop, axis=0)
    rows = max(1, np.count_nonzero(taken.any(axis=1)))  # the most terms taken
    # row i holds term i + 1 of u and v, +0.0 where not taken, then of
    # the four sums
    uv_num, uv_den = _ASYM_UV
    terms = np.where(taken[:rows], u[:rows], 0.0)[:, None] * uv_num[:rows]
    terms /= uv_den[:rows]
    sums = (terms[:, :, None] * signs[:rows]).reshape(rows, 4, -1)
    sums[0] += np.reshape(start, (-1, 1))
    # a reduction over the outer axis adds row after row (numpy sums
    # pairwise only along the innermost axis)
    sums = np.add.reduce(sums, axis=0)
    return sums[:, 0].tolist() if _scalar(zeta) else sums


def _exp_growth(zeta):
    """e^zeta, inf past zeta = _EXP_LIMIT, where the growing pair is not
    wanted: a float, or elementwise over an array."""
    return _libm(np.exp, _where(zeta > _EXP_LIMIT, math.inf, zeta))


def _airy_asym_pos(y):
    """(Ai, Ai', Bi, Bi') for y >= _AIRY_ASYM_POS from the exponential
    asymptotics: a float, or a 1-D array elementwise.

    Past zeta = 700 Bi and Bi' are inf: airy_bi refuses before this point,
    airy_ai discards them.
    """
    with np.errstate(over="ignore"):  # inf past 1e205, as for floats
        zeta = (2.0 / 3.0) * y * _libm(np.sqrt, y)
    # S(+-) = sum (+-1)^k u_k / zeta^k and the v_k companions
    su_m, su_p, sv_m, sv_p = _asym_sums(zeta, _ASYM_POS_SIGNS, 1.0)
    root4 = _libm(np.power, y, 0.25)
    e_neg = _libm(np.exp, -zeta)
    e_pos = _exp_growth(zeta)
    ai = 0.5 * e_neg * su_m / (_SQRT_PI * root4)
    aip = -0.5 * root4 * e_neg * sv_m / _SQRT_PI
    bi = e_pos * su_p / (_SQRT_PI * root4)
    bip = root4 * e_pos * sv_p / _SQRT_PI
    return ai, aip, bi, bip


# the Airy phase's fixed-point bits, and pi/4 (0.C90FDAA2... hex) in them, rounded
_PHASE_BITS = 256
_PI4_FIXED = 0xC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74020BBEA63B139B22


def _oscillatory_phase(t: float) -> tuple[float, float, float]:
    """(zeta, sin(omega), cos(omega)) with omega = (2/3)t^(3/2) - pi/4.

    A double loses eps*zeta of absolute phase, near an oscillation zero the
    whole error budget, so zeta and omega are integers scaled by 2^P (P =
    _PHASE_BITS), as in the Kummer rerun: t = n / 2^e enters exactly, and
    zeta = floor(2n isqrt(n 2^(2P - e)) / (3 2^e)).  For 9.5 <= t <= 1e6
    (the caller's range) omega is within (2t/3 + 3/2) 2^-P < 2^-236 of the
    exact phase: under 2t/3 units from the square root's floor, 3/2 from
    zeta's floor and pi/4's rounding.  zeta, omega's double wh and the
    remainder wl = omega - wh are each rounded once, so wh + wl is within
    2^-54 ulp(wh) + 2^-236 of omega; wl enters to first order.
    """
    n, d = t.as_integer_ratio()
    root = math.isqrt(n << (2 * _PHASE_BITS - d.bit_length() + 1))
    zeta = 2 * n * root // (3 * d)
    omega = zeta - _PI4_FIXED
    wh = _fixed_to_float(omega, _PHASE_BITS)
    hn, hd = wh.as_integer_ratio()
    wl = _fixed_to_float(omega - (hn << _PHASE_BITS) // hd, _PHASE_BITS)
    sw, cw = math.sin(wh), math.cos(wh)
    return _fixed_to_float(zeta, _PHASE_BITS), sw + wl * cw, cw - wl * sw


def _airy_asym_neg(y):
    """(Ai, Ai', Bi, Bi') for y <= _AIRY_ASYM_NEG from the oscillatory
    asymptotics: a float, or a 1-D array elementwise (the phase per
    element)."""
    t = -y
    if _scalar(y):
        zeta, s, c = _oscillatory_phase(t)
    else:
        zeta, s, c = map(np.array, zip(*map(_oscillatory_phase, t.tolist())))
    # even/odd splits of sum (-1)^k u_k / zeta^k and the v companion:
    # (-1)^k of the alternating series splits as (-1)^m on k = 2m and 2m + 1
    ue, uo, ve, vo = _asym_sums(zeta, _ASYM_NEG_SIGNS, (1.0, 0.0, 1.0, 0.0))
    root4 = _libm(np.power, t, 0.25)
    inv = 1.0 / (_SQRT_PI * root4)
    fac = root4 / _SQRT_PI
    return (inv * (c * ue + s * uo), fac * (s * ve - c * vo),
            inv * (-s * ue + c * uo), fac * (c * ve + s * vo))


def _airy_point(y: float, bi: bool) -> AiryPair:
    """airy_bi at a finite float y if bi, else airy_ai: one regime ladder
    for both, Bi's overflow refused before the lower limit."""
    name = "airy_bi" if bi else "airy_ai"
    y = require_finite("y", y)
    if bi and y > _AIRY_BI_OVERFLOW:
        raise AccuracyError(f"airy_bi overflow at y={y!r}", value=y)
    if y < _AIRY_NEG_LIMIT:
        raise AccuracyError(f"{name} accuracy lost at y={y!r}, "
                            f"below {_AIRY_NEG_LIMIT!r}", value=y)
    pair = slice(2, 4) if bi else slice(0, 2)  # of (Ai, Ai', Bi, Bi')
    if y >= _AIRY_ASYM_POS:
        return AiryPair(*_airy_asym_pos(y)[pair])
    if not bi and y > _AIRY_SERIES_HI_AI:
        # One step down from the ladder marched from the asymptotic anchor:
        # the decaying solution grows in this direction, so Bi
        # contamination dies off and the march is numerically stable.
        return AiryPair(*_airy_march(y, _AI_POS_LADDER))
    if y >= _AIRY_SERIES_LO:
        # The growing Bi has no cancellation for y > 0, so its series
        # holds to the asymptotic switch point.
        return AiryPair(*_airy_series_pair(y)[pair])
    if y > _AIRY_ASYM_NEG:
        # Oscillatory region: no exponential dichotomy, marching from the
        # series anchor is stable in either direction.
        return AiryPair(*_airy_march(y, _BI_NEG_LADDER if bi else _AI_NEG_LADDER))
    return AiryPair(*_airy_asym_neg(y)[pair])


def airy_ai(y: float) -> AiryPair:
    """Airy Ai and Ai' at a finite real point."""
    return _airy_point(y, False)


def airy_bi(y: float) -> AiryPair:
    """Airy Bi and Bi' at a finite real point."""
    return _airy_point(y, True)


class AiryGrid(NamedTuple):
    """airy_ai and airy_bi over a 1-D array of points (_airy_array).

    Each field holds the doubles the scalar calls give element by element,
    NaN exactly where the call raises.
    """

    ai: np.ndarray
    aip: np.ndarray
    bi: np.ndarray
    bip: np.ndarray


def _airy_array(y, bi_at=True) -> AiryGrid:
    """airy_ai and airy_bi over a 1-D array, one vector pass per regime.

    bi_at marks the elements whose Bi is wanted, a boolean array or True
    for all; Bi and Bi' are NaN at the others.  Every element takes its
    scalar calls' routes and gets their doubles: one Maclaurin pass gives
    Ai and Bi wherever either is wanted on the series; one
    _airy_march_array call, a single Taylor step per row, gives Ai and Bi
    on (_AIRY_ASYM_NEG, _AIRY_SERIES_LO) and Ai on (_AIRY_SERIES_HI_AI,
    _AIRY_ASYM_POS); one _airy_asym_pos and one _airy_asym_neg call take
    the asymptotic elements of each side, for both functions.  An element
    no route takes is one the scalar call refuses (a non-finite y, a y
    below _AIRY_NEG_LIMIT, and for Bi a y above _AIRY_BI_OVERFLOW), and
    stays NaN.
    """
    y = np.asarray(y, dtype=float)
    bi_at = np.broadcast_to(bi_at, y.shape)
    ai, aip, bi, bip = (np.full(y.size, math.nan) for _ in range(4))
    ai_series = y <= _AIRY_SERIES_HI_AI  # above it, Ai marches down from 8
    series = np.flatnonzero((y >= _AIRY_SERIES_LO) & (y < _AIRY_ASYM_POS)
                            & (ai_series | bi_at))
    a, ap, b, bp = _airy_series_pair(y[series])
    on, want = ai_series[series], bi_at[series]
    ai[series[on]], aip[series[on]] = a[on], ap[on]
    bi[series[want]], bip[series[want]] = b[want], bp[want]

    neg = (y > _AIRY_ASYM_NEG) & (y < _AIRY_SERIES_LO)
    ai_neg, bi_neg = np.flatnonzero(neg), np.flatnonzero(neg & bi_at)
    ai_pos = np.flatnonzero((y > _AIRY_SERIES_HI_AI) & (y < _AIRY_ASYM_POS))
    w, wp = _airy_march_array([(y[ai_neg], _AI_NEG_LADDER),
                               (y[bi_neg], _BI_NEG_LADDER),
                               (y[ai_pos], _AI_POS_LADDER)])
    cuts = (ai_neg.size, ai_neg.size + bi_neg.size)
    ai[ai_neg], bi[bi_neg], ai[ai_pos] = np.split(w, cuts)
    aip[ai_neg], bip[bi_neg], aip[ai_pos] = np.split(wp, cuts)

    taken = np.isfinite(y) & (y >= _AIRY_NEG_LIMIT)
    for asym, at in ((_airy_asym_pos, taken & (y >= _AIRY_ASYM_POS)),
                     (_airy_asym_neg, taken & (y <= _AIRY_ASYM_NEG))):
        at = np.flatnonzero(at)
        if at.size:
            ai[at], aip[at], b, bp = asym(y[at])
            keep = (y[at] <= _AIRY_BI_OVERFLOW) & bi_at[at]
            bi[at[keep]], bip[at[keep]] = b[keep], bp[keep]
    return AiryGrid(ai, aip, bi, bip)


def _airy_series_array(y: np.ndarray):
    """_airy_series over a 1-D array, each element retiring at its own stop.

    Every element steps the whole loop; each live one does the scalar
    loop's operations and has its values written out at the term where
    the scalar loop breaks (or runs out), so it gets the same
    (f, f', g, g').  y == 0 and a subnormal y, where 1/y overflows, are
    never live and keep the scalar loop's exact start.  Overflow and
    inf * 0 are silent, as they are for floats.
    """
    with np.errstate(over="ignore", divide="ignore"):
        y3, inv_y = y * y * y, 1.0 / y
    live = ~np.isinf(inv_y)
    # the scalar start: g is y, and +0 at y == -0.0 as well
    out = [np.ones(y.size), np.zeros(y.size), np.where(y == 0.0, 0.0, y),
           np.ones(y.size)]
    f, tf, g, tg = np.ones(y.size), np.ones(y.size), y.copy(), y.copy()
    fp, gp = np.zeros(y.size), np.ones(y.size)
    for k in range(1, 90):
        if not live.any():
            break
        three_k = 3.0 * k
        tf *= y3 / (three_k * (three_k - 1.0))
        tg *= y3 / (three_k * (three_k + 1.0))
        f += tf
        g += tg
        with np.errstate(invalid="ignore"):
            fp += tf * three_k * inv_y
            gp += tg * (three_k + 1.0) * inv_y
        done = (live & (np.abs(tf) < _AIRY_STOP * np.abs(f))
                & (np.abs(tg) < _AIRY_STOP * np.abs(g)) if k < 89 else live)
        for o, v in zip(out, (f, fp, g, gp)):
            np.copyto(o, v, where=done)
        live &= ~done
    return out


def _airy_march_array(marches):
    """_airy_march of every element of every (y, ladder) pair in marches,
    all in one _airy_taylor_step_array call: (w, w') of the elements, the
    pairs' in order.  Each element steps from the node the scalar march
    picks, so it gets the scalar march's doubles."""
    x0, w, wp = np.hstack([np.array(ladder)[:, np.searchsorted(ladder[0], y)]
                           for y, ladder in marches])
    y = np.concatenate([y for y, _ in marches])
    return _airy_taylor_step_array(x0, w, wp, y - x0)


def _airy_taylor_step_array(x0, w, wp, h):
    """_airy_taylor_step of every row, each leaving at its own stop rule.

    Every row steps the whole loop and has its values written out at its
    stop.  The local series is kept as its last three coefficients, the
    only ones the recurrence reads.
    """
    c_prev, c_cur, c_next = w, wp, 0.5 * x0 * w
    value = w + h * (wp + h * c_next)
    deriv = wp + 2.0 * c_next * h
    hn = h * h
    out_v, out_d = np.empty(w.size), np.empty(w.size)
    live = np.ones(w.size, dtype=bool)
    for n in range(1, 60):
        if not live.any():
            break
        a_next = (x0 * c_cur + c_prev) / ((n + 1.0) * (n + 2.0))
        hn_next = hn * h
        term_v = a_next * hn_next
        value += term_v
        deriv += a_next * (n + 2.0) * hn
        hn = hn_next
        c_prev, c_cur, c_next = c_cur, c_next, a_next
        done = (live & (np.abs(term_v)
                        < _AIRY_STOP * (np.abs(value) + np.abs(deriv) * np.abs(h)))
                if n < 59 else live)
        np.copyto(out_v, value, where=done)
        np.copyto(out_d, deriv, where=done)
        live &= ~done
    return out_v, out_d


# ---------------------------------------------------------------------------
# Kummer / Tricomi


def _kummer_series(b: float, c: float, z: float) -> tuple[float, float]:
    """Plain power series for 1F1 with Neumaier-compensated summation.

    Returns (sum, sum of |terms|); the second output is the cancellation
    tracker the caller uses to decide whether the answer is trustworthy.
    """
    s = 1.0
    comp = 0.0
    abs_sum = 1.0
    term = 1.0
    prev_mag = 1.0
    for k in range(1, _KUMMER_MAX_TERMS + 1):
        # c's part as c + (k - 1): c + k - 1.0 would drop a tiny c's bits
        term *= (b + k - 1.0) * z / ((c + (k - 1)) * k)
        if term == 0.0:
            break  # terminating parameter: the series is a polynomial
        mag = abs(term)
        t = s + term
        if abs(s) >= mag:
            comp += (s - t) + term
        else:
            comp += (term - t) + s
        s = t
        abs_sum += mag
        if k >= 4 and mag < _KUMMER_STOP * abs_sum and mag <= prev_mag:
            break
        prev_mag = mag
    else:
        # a term past the double range leaves inf or NaN in every sum after
        # it, and no stop rule holds: the series runs out of terms
        cause = (f"did not converge within {_KUMMER_MAX_TERMS} terms"
                 if abs_sum < math.inf else "terms overflow a double")
        raise AccuracyError(f"kummer_m series {cause} at z={z!r}", value=z)
    return s + comp, abs_sum


def _kummer_series_dd(b: float, c: float, z: float) -> tuple[float, float]:
    """_kummer_series rerun in integer fixed point for heavy cancellation.

    Only reached when the compensated run reports a loss factor the
    16-digit pipeline cannot absorb: the plain series' term update and
    stop rule, (sum, sum of |terms|) returned as doubles.  b, c and z enter
    exactly (float.as_integer_ratio, power-of-two denominators) and every
    term is an integer scaled by 2^P: term_k = floor(term_(k-1) * r_k) for
    the exact ratio r_k = (b + k - 1) z / ((c + k - 1) k), one big-int
    multiply, a shift by the denominators' exponents and one floor
    division by the small integer (c + k - 1) k times c's denominator.
    The sums are exact integers, rounded once each by int / int.

    A term's shift and floor cost less than 2^(1-P) together (less than
    2^-P where c + k - 1 > 0), and an earlier term's error grows with the
    terms after it, so with t_k the exact terms (t_0 = 1) and n the terms
    summed
        |sum - exact| <= 2^(1-P) * sum_k sum_(j <= k) |t_k / t_j|,
    and the same for the sum of |terms|.  P is _KUMMER_FIXED_BITS plus the
    binary exponents by which b and z fall below 1, so that the first term
    b z / c keeps its bits when b or z is tiny (with P fixed, b = 1e-300
    at z = 1000 floors to a zero term and stops, where the exact terms
    rise to the last one and raise).  Where the terms rise to their largest
    without dipping below min(1, |t_1|) and then fall, and c <= 2.5, a
    kept sum (loss <= _KUMMER_FAIL_LOSS, n <= 1200) is within
    n^2 * 2^(5-160) * 1e12 < 2^-93 of the exact sum, relative.

    The scalar route's rerun, and the grid's where _kummer_rerun_array,
    its double-double twin, proves nothing.  The name stays from the
    double-double rerun of earlier versions, because the tracer (as
    special.kummer.dd) binds it; the double-double pass is now the grid's.
    """
    bn, bd = b.as_integer_ratio()
    cn, cd = c.as_integer_ratio()
    zn, zd = z.as_integer_ratio()
    p = (_KUMMER_FIXED_BITS + max(0, -math.frexp(b)[1])
         + max(0, -math.frexp(z)[1]))
    shift = bd.bit_length() + zd.bit_length() - 2  # log2(bd * zd)
    # r_k = (bn + (k-1) bd) zn cd / ((cn + (k-1) cd) k bd zd)
    num, num_step = bn * zn * cd, bd * zn * cd
    den = cn
    s = abs_sum = term = prev_mag = 1 << p
    for k in range(1, _KUMMER_MAX_TERMS + 1):
        term = (term * num >> shift) // (den * k)
        if not term:
            break  # terminating parameter (or a term below 2^-P)
        mag = abs(term)
        s += term
        abs_sum += mag
        if k >= 4 and mag <= prev_mag and mag * _KUMMER_FIXED_STOP < abs_sum:
            break
        prev_mag = mag
        num += num_step
        den += cd
    else:
        raise AccuracyError(
            f"kummer_m series did not converge within {_KUMMER_MAX_TERMS} terms "
            f"at z={z!r}", value=z)
    return _fixed_to_float(s, p), _fixed_to_float(abs_sum, p)


def _fixed_to_float(n: int, p: int) -> float:
    """n / 2^p correctly rounded, +-inf past the double range."""
    try:
        return n / (1 << p)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _dd_split(a):
    """Dekker's split of an array into halves of at most 26 significant
    bits each, whose products are exact doubles (barring underflow)."""
    t = _DD_SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod_error(a, b, p):
    """a b - p exactly, elementwise, for arrays a and b given as their
    _dd_split halves and their rounded product p (Dekker)."""
    (ah, al), (bh, bl) = a, b
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_column_sums(h, l, top):
    """Column sums of double-double rows (hi, lo) of shape (n, m), as
    (hi, lo) and a bound on their error; top bounds each column's sum of
    |hi|.  h is overwritten.

    The hi parts go through two error-free extractions (ExtractVector of
    Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008): with
    sigma = 2^M 2^e, 2^M >= n + 2 and 2^e >= top, the parts
    (sigma + h) - sigma are exact, and so is their sum in any order, which
    lets numpy reduce them; each leaves a rest below u sigma.  The second
    rest and the lo parts, below u top in all, are summed in plain
    doubles, within (n + 1) u times the sum of their magnitudes.
    """
    n = h.shape[0]
    grow = 2.0 ** math.ceil(math.log2(n + 2))
    sigma = grow * np.ldexp(1.0, np.frexp(top)[1])
    parts = []
    for _ in range(2):  # h becomes the rest, in place
        q = sigma + h
        q -= sigma
        h -= q
        parts.append(q.sum(axis=0))
        sigma *= grow * _U
    h += l
    rest = h.sum(axis=0)
    err = (n + 1.0) * _U * (n * sigma / grow + _U * top)
    x = parts[0] + parts[1]  # two-sum of the exact parts, then the rest
    y = x - parts[0]
    e = (parts[0] - (x - y)) + (parts[1] - y) + rest
    hi = x + e
    return hi, e - (hi - x), err + 2.0 * _U * np.abs(rest) + 4.0 * _U * _U * np.abs(hi)


def _kummer_ratios(b, c, z, rows):
    """The rounded ratios rh_k = fl(b + k - 1) fl(z / ((c + k - 1) k)) of
    the rows k < rows, as _kummer_rerun_part's plain terms take them, and
    their relative excess d_r = r_k / rh_k - 1 over the exact ratio, within
    9u^2.

    The denominator is exact, because 4c is an integer and |c| <= 1024,
    and has at most 26 bits; b + k - 1 is taken exactly as its integer
    part plus its fraction (Fast2Sum, |b| <= 2^52), z over the
    denominator as a quotient and its exact remainder (within 2u^2), and
    their product's rounding error exactly (Dekker).
    """
    k = _DD_K[:rows]
    num = b + (k - 1.0)
    den = (c + (k - 1.0)) * k  # of at most 26 bits: its own Dekker split
    den[0] = 1.0
    qh = z / den
    ratio = num * qh
    qs = _dd_split(qh)
    p = qh * den
    ql = ((z - p) - ((qs[0] * den - p) + qs[1] * den)) / den
    whole = np.trunc(b)  # b - trunc(b) is exact, b - floor(b) is not for -1 < b < 0
    lo = (b - whole) - (num - (whole + (k - 1.0)))  # num + lo = b + k - 1
    return ratio, (_two_prod_error(_dd_split(num), qs, ratio)
                   + (num * ql + lo * qh + lo * ql)) / ratio


def _kummer_dd_terms(b, c, z, t, rows, taken):
    """_kummer_rerun_part's terms where taken, 0 elsewhere, as (hi, lo)
    arrays of shape (n, 2, m): each term and its magnitude.  t holds the
    terms' doubles, the running product of the rounded ratios (the first
    rows of them with _kummer_ratios' excess d_r); the first rows are
    taken in double-double, each within 20 k u^2 of the exact term k, and
    the rest as they are.

    The exact error of each running product (Dekker) gives its relative
    excess d_p, within u^2.  Term k is its double times exp(L_k), L_k the
    sum over j <= k of ln((1 + d_r)(1 + d_p)) = d - d^2/2 within 5u^2
    (|d| < 2^-51): its multiples of 2^-80, split off by one error-free
    extraction, sum exactly, and the rest, below 2^-81, in plain doubles.
    exp(L) - 1 is L + L^2/2, which with the two roundings that bring it
    onto the double adds under 5 k u^2.  A dropped term that is not
    finite leaves NaN.
    """
    ratio, excess = _kummer_ratios(b, c, z, rows)
    head, tail = t[:rows - 1], t[1:rows]
    prod = _two_prod_error(_dd_split(head), _dd_split(ratio[1:]), tail) / tail
    excess[0] = 0.0
    excess[1:] += prod + excess[1:] * prod
    excess -= 0.5 * excess * excess
    whole = (_DD_EXTRACT + excess) - _DD_EXTRACT
    excess -= whole
    log = np.cumsum(whole, axis=0)
    growth = log + (np.cumsum(excess, axis=0) + 0.5 * log * log)
    growth *= t[:rows]
    hi = t[:rows] + growth
    growth -= hi - t[:rows]
    shape = t.shape[:1] + (2,) + t.shape[1:]
    hs, ls = np.empty(shape), np.zeros(shape)
    np.multiply(hi, taken[:rows], out=hs[:rows, 0])
    np.multiply(t[rows:], taken[rows:], out=hs[rows:, 0])
    np.multiply(growth, taken[:rows], out=ls[:rows, 0])
    np.multiply(ls[:rows, 0], np.sign(hi), out=ls[:rows, 1])
    np.abs(hs[:, 0], out=hs[:, 1])
    return hs, ls


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _kummer_rerun_part(b, c, z, width):
    """The value and the sum of |terms| of each element's series, to the
    integer loop's stop, as double-double (hi, lo) arrays of shape (2, m),
    and a bound on their error from the fixed-point rerun's pair before
    its rounding, NaN where the pass proves nothing (the stop not proven,
    or not within width terms, or terms out of range).

    Row k of each (rows, m) array is term k, k = 0 the series' leading 1.
    The terms in plain doubles, each within 4k u of the exact term, decide
    where the integer loop stops: at the first k >= 4 where a term is no
    larger than the one before and 1e33 times it is below the sum of
    |terms| so far.  Each comparison is proven with a relative slack of
    _DD_MARGIN, which covers both runs' terms where the fixed-point error,
    2^(1-P) |t_k| sum_(j <= k) 1/|t_j| on term k (the bound in
    _kummer_series_dd's docstring), is below 2^-40 of the term.  That
    leaves unproven an element with a zero term (a polynomial, or a term
    below 2^-900), where the loop's other exit, a term that rounds to 0,
    may be taken.  Where the first possible stop is not proven, the loop
    may stop one term later; the pass then sums to the first and counts
    the next term in its error.

    The terms of at least _DD_SMALL times the sum of |terms| are taken in
    double-double (_kummer_dd_terms); the smaller ones past them are the
    plain doubles.  Both sums come from _dd_column_sums over the terms to
    the stop, and the bound adds the double-double terms' and sums'
    errors, the plain tail's, the fixed-point rerun's and the possible
    extra term.
    """
    cols = np.arange(z.size)
    k = _DD_K[:width + 1]
    t = (b + (k - 1.0)) * (z / ((c + (k - 1.0)) * k))  # the ratios, then terms
    t[0] = 1.0
    np.multiply.accumulate(t, axis=0, out=t)
    mag = np.abs(t)
    abs_sum = np.cumsum(mag, axis=0)
    may = mag * (_KUMMER_FIXED_STOP * (1.0 - _DD_MARGIN)) < abs_sum
    may[1:] &= mag[1:] <= mag[:-1] * (1.0 + _DD_MARGIN)
    may[:4] = False
    stop = may.argmax(axis=0)  # the first k where the loop may stop, or 0
    last = min(int(stop.max()) + 1, width)
    k, t, mag, abs_sum = (a[:last + 1] for a in (k, t, mag, abs_sum))

    # the stop rule, proven, at the first possible stop and the term after
    i = (np.minimum(np.stack([stop, stop + 1]), last), cols)
    holds = ((mag[i] * (_KUMMER_FIXED_STOP * (1.0 + _DD_MARGIN)) < abs_sum[i])
             & (mag[i] * (1.0 + _DD_MARGIN) <= mag[i[0] - 1, cols] * (1.0 - _DD_MARGIN)))
    proven = holds[0]
    kept = (stop > 0) & (proven | (holds[1] & (stop < last)))
    used = np.minimum(stop + ~proven, last)  # the last term the loop may sum
    total = abs_sum[stop, cols]
    bits = (_KUMMER_FIXED_BITS + np.maximum(0, -np.frexp(b)[1])
            + np.maximum(0, -np.frexp(z)[1]))
    # sum_(j <= k) 1/|t_j| (j = 0 included: an upper bound) and the sum of
    # |t_k| times it, read at the last used term; inf past a zero term
    reach = np.cumsum(1.0 / mag, axis=0)
    fixed = np.ldexp(np.cumsum(mag * reach, axis=0)[used, cols], 1 - bits)
    reach = reach[used, cols]
    # every used term within 2^-900 .. 2^900: the products and splits stay exact
    kept &= ((reach <= np.ldexp(1.0, bits - 41)) & (reach <= 2.0 ** 900)
             & (abs_sum[used, cols] <= 2.0 ** 900))
    rows = int(np.flatnonzero((mag >= _DD_SMALL * total).any(axis=1))[-1]) + 1
    hs, ls = _kummer_dd_terms(b, c, z, t, rows, k <= stop)
    err = (21.0 * _U * _U * np.cumsum(k * mag, axis=0)[stop, cols]  # 20 k u^2
           + 5.0 * last * _U * hs[rows:, 1].sum(axis=0)  # the plain terms, 4 k u
           + fixed * (1.0 + 2.0 ** -30)
           + np.where(proven, 0.0, 2.0 * mag[used, cols]))
    top = np.tile(total * (1.0 + 2.0 ** -30), 2)  # the sum of |terms|, rounded up
    hi, lo, sums = _dd_column_sums(hs.reshape(last + 1, -1), ls.reshape(last + 1, -1), top)
    hi, lo = hi.reshape(2, -1), lo.reshape(2, -1)
    err += sums.reshape(2, -1).max(axis=0)
    return hi, lo, np.where(kept, err, math.nan)


def _kummer_rerun_array(b, c, z):
    """_kummer_series_dd of every element of 1-D arrays b, c and z, in one
    double-double numpy pass: a (2, n) array of each element's value and
    sum of |terms|, the integer rerun's doubles by proof, or NaN where the
    pass proves nothing and the element needs that rerun.

    The elements are those _kummer_m_array reruns: finite, 0 < z <=
    KUMMER_ENVELOPE, c no non-positive integer.  The pass takes an
    element where 4c is an integer and |c| <= 1024 and |b| <= 2^52, within
    a width of z + 12 sqrt(z) + 40 terms (every element of the rerun
    corpora in tests/test_special.py stops within that).  Its two sums
    and their error bound (_kummer_rerun_part) give the pair where
    rounding both ends of each sum's interval gives one double: Ziv's
    rounding test (ACM TOMS 17, 1991).  The elements, widest first, share
    parts of at most _KUMMER_BLOCK_BUDGET doubles per array of terms.
    """
    out = np.full((2, z.size), math.nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        width = np.minimum(np.ceil(z + 12.0 * np.sqrt(z) + 40.0), _KUMMER_MAX_TERMS)
        todo = np.flatnonzero((np.floor(4.0 * c) == 4.0 * c) & (np.abs(c) <= 1024.0)
                              & (np.abs(b) <= 2.0 ** 52))
        todo = todo[np.argsort(-width[todo], kind="stable")]
        while todo.size:
            w = int(width[todo[0]])
            parts = -(-todo.size * (w + 1) // _KUMMER_BLOCK_BUDGET)
            part, todo = np.split(todo, [-(-todo.size // parts)])
            hi, lo, err = _kummer_rerun_part(b[part], c[part], z[part], w)
            # Ziv's test: lo +- err rounded outward (u |lo| more, and the
            # least subnormal for underflow), then added to hi once
            err = (err + _U * np.abs(lo)) * (1.0 + 4.0 * _U) + 5e-324
            low = hi + (lo - err)
            out[:, part] = np.where((low == hi + (lo + err)).all(axis=0)
                                    & (np.abs(low) < math.inf).all(axis=0),
                                    low, math.nan)
    return out


def _kummer_series_array(b, c, z: np.ndarray):
    """_kummer_series over 1-D arrays of b, c and z, one parameter pair per
    element, every element with the scalar loop's doubles: a transmission
    sweep's _kummer_m_array call passes the 8 series of all its points.
    Returns (sum, sum of |terms|, converged); where the scalar loop runs
    out of terms and raises, converged is False and both sums are NaN.
    Overflow and inf - inf are silent, as they are for Python floats.

    The sum runs in blocks: one numpy pass computes B terms of every live
    element, B from 4 to 32 as the live count allows.  A block holds, for
    each element, its state after the previous block (row 0) and its next
    B terms (rows 1..B): the ratios r_k = (b + k - 1) z / ((c + k - 1) k)
    for all B rows at once, then the term product and the Neumaier sum
    row after row, the compensation terms for all rows at once and their
    running sum and sum of |terms| row after row, and the stop rule and
    the zero-term exit for all rows at once.  Each row is one scalar
    iteration, its operations in the scalar loop's order, so each element
    gets the scalar loop's doubles: it retires at its first stop, with the
    sums of that row, and the rows it computed past that are dropped.  The
    scalar loop breaks at a zero term before adding it, but adding it
    changes no sum (s + 0 is s, and the compensation term (s - s) + 0 is
    +0; once s has overflowed, s + comp is NaN either way), so the zero
    term's row holds the sums from before it.  Live arrays are compacted
    once per block, not per term.

    A block's buffers hold at most _KUMMER_BLOCK_BUDGET doubles each (5
    buffers and their masks, about 0.5 MB); a longer z is summed in equal
    parts of at most the budget over 5 elements, so that B >= 4.

    This is the plain array summer, and it only sums: the loss gates stay
    with _kummer_m_array, which walks each point's series in order and
    stops at its first refusal, because a scalar loop never reruns (in
    fixed point, 2-4x the plain sum) a series past a refused one.
    """
    n = z.size
    value, abs_out = np.full(n, math.nan), np.full(n, math.nan)
    converged = np.zeros(n, dtype=bool)
    if not n:
        return value, abs_out, converged
    # term, sum, compensation, sum of |terms| and |term|, one row per term
    work = np.empty((5, _KUMMER_BLOCK_BUDGET))
    parts = -(-n // (_KUMMER_BLOCK_BUDGET // (_KUMMER_BLOCK_MIN + 1)))
    step = -(-n // parts)
    mul, add = np.multiply, np.add
    # the rows an element computes past its stop may overflow or divide by
    # c + k - 1 = 0; they are dropped
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, n, step):
            live = np.arange(lo, min(n, lo + step))
            zl, bl, cl = z[live], b[live], c[live]
            m = live.size
            work[:4, :m] = ((1.0,), (1.0,), (0.0,), (1.0,))
            k = 1  # the first row's term
            while True:
                rows = min(_KUMMER_BLOCK_MAX, _KUMMER_BLOCK_BUDGET // m - 1,
                           _KUMMER_MAX_TERMS + 1 - k)
                size = (rows + 1) * m
                term, s, comp, abs_sum, mag = (
                    w[:size].reshape(rows + 1, m) for w in work)
                new, s0, s1, comp1, mag1 = term[1:], s[:-1], s[1:], comp[1:], mag[1:]
                kk = _KUMMER_K[k - 1:k - 1 + rows]
                add(bl, kk, new)
                new -= 1.0
                new *= zl
                # (c + (k - 1)) k; s1 is written only below
                add(cl, _KUMMER_K_LESS[k - 1:k - 1 + rows], s1)
                s1 *= kk
                new /= s1
                for t0, t1, sa, sb in zip(term, new, s0, s1):
                    mul(t0, t1, t1)
                    add(sa, t1, sb)
                np.abs(term, out=mag)
                # Neumaier: (s - t) + term where |s| >= |term|, else
                # (term - t) + s; comp1 is scratch until it holds them
                swap = ~(np.abs(s0, out=comp1) >= mag1)
                np.subtract(s0, s1, out=comp1)
                comp1 += new
                flip = np.flatnonzero(swap)
                if flip.size:
                    comp1.put(flip, (new.take(flip) - s1.take(flip)) + s0.take(flip))
                for c0, c1, a0, a1, m1 in zip(comp, comp1, abs_sum, abs_sum[1:], mag1):
                    add(c0, c1, c1)
                    add(a0, m1, a1)
                # the stop rule, with rows 0..B-1 of term as scratch (the
                # carried term is row B).  From k = 4 a zero term meets it
                # too (no NaN comes before a zero term, and sum|terms| >= 1),
                # so stop marks both exits; below k = 4 only a zero term stops
                stop = mag1 < mul(abs_sum[1:], _KUMMER_STOP, term[:-1])
                stop &= mag1 <= mag[:-1]
                if k < 4:
                    np.equal(mag1[:4 - k], 0.0, out=stop[:4 - k])
                # B + 1 - (row of the first stop), 0 where none stops
                first = mul(stop, _KUMMER_ROW_WEIGHTS[-rows:], dtype=np.int8).max(axis=0)
                hit = first > 0
                k += rows
                carried = work[:4, rows * m:size]
                if hit.any():
                    cols = np.flatnonzero(hit)
                    at = (rows + 1 - first[cols]).astype(np.intp)
                    at *= m
                    at += cols
                    s_at, comp_at, abs_at = work[1:4].take(at, axis=1)
                    done = live[cols]
                    value[done] = s_at + comp_at
                    abs_out[done] = abs_at
                    converged[done] = True
                    keep = np.flatnonzero(~hit)
                    if not keep.size or k > _KUMMER_MAX_TERMS:
                        break
                    live, zl, bl, cl = live[keep], zl[keep], bl[keep], cl[keep]
                    m = keep.size
                    carried.take(keep, axis=1, out=work[:4, :m])
                else:
                    if k > _KUMMER_MAX_TERMS:
                        break
                    work[:4, :m] = carried
    return value, abs_out, converged


def _plain_kept(value, abs_sum):
    """Whether a plain Kummer sum stands without the fixed-point rerun.

    True where the cancellation factor is at most _KUMMER_ESCALATE_LOSS;
    the one place the escalation test is written.  Floats or arrays,
    elementwise (an array caller silences numpy's overflow warning).
    """
    return _loss(value, abs_sum) <= _KUMMER_ESCALATE_LOSS


def _loss(value, abs_sum):
    """Cancellation factor sum|terms| / max(|sum|, 5e-324) of a sum value
    whose terms' magnitudes add to abs_sum: the Kummer series' loss gates,
    the companion's two-term form and tricomi_u_cf read it.

    The max is written with operators so that it also holds elementwise:
    no nonzero |sum| is below 5e-324, so it is |sum|, plus 5e-324 at 0.
    Past the double range it is inf, silently for floats (an array
    caller silences numpy).
    """
    return abs_sum / (abs(value) + (value == 0.0) * 5e-324)


def _kummer_sum(b: float, c: float, z: float, plain=None, rerun=None) -> float:
    """M(b; c; z), z > 0, from the plain series or its fixed-point rerun.

    Both loss gates are decided here and only here (the escalation test
    through _plain_kept, which _kummer_m_array also reads to skip this
    call where the plain sum stands).  plain is the (sum, sum of |terms|)
    of the plain series at this z when it has already been summed (over an
    array, by _kummer_m_array), and rerun the rerun's pair where
    _kummer_rerun_array has proven it.
    """
    value, abs_sum = _kummer_series(b, c, z) if plain is None else plain
    if _plain_kept(value, abs_sum):
        return value
    value, abs_sum = _kummer_series_dd(b, c, z) if rerun is None else rerun
    if _loss(value, abs_sum) > _KUMMER_FAIL_LOSS:
        cause = ("cancellation too severe" if abs_sum < math.inf
                 else "sum of |terms| overflows a double")
        raise AccuracyError(f"kummer_m {cause} at b={b!r}, c={c!r}, z={z!r}",
                            value=z)
    return value


def kummer_m(b: float, c: float, z: float) -> float:
    """Confluent hypergeometric 1F1(b; c; z) on the real line.

    Negative z is routed through the Kummer transformation
    1F1(b;c;z) = e^z * 1F1(c-b;c;-z) unless the direct series terminates
    (b a non-positive integer), in which case the exact polynomial is
    summed directly.  |z| beyond the envelope raises AccuracyError.
    """
    b = require_finite("b", b)
    c = require_finite("c", c)
    z = require_finite("z", z)
    if _is_nonpositive_integer(c):
        raise DomainError(f"kummer_m undefined at non-positive integer c={c!r}")
    if abs(z) > KUMMER_ENVELOPE:
        raise AccuracyError(
            f"kummer_m envelope |z| <= {KUMMER_ENVELOPE} exceeded at z={z!r}",
            value=z)
    if z == 0.0:
        return 1.0
    if _is_nonpositive_integer(b) or z > 0.0:
        return _kummer_sum(b, c, z)
    return math.exp(z) * _kummer_sum(c - b, c, -z)


def _kummer_m_array(b, c, z):
    """kummer_m over an array of points, with the scalar calls' doubles.

    z is 1-D, one point per element, or 2-D, one point per row with its
    series in column order; b and c are floats or arrays broadcast against
    z.  Every element with valid parameters and 0 < z <= KUMMER_ENVELOPE
    sums its plain series in one pass (_kummer_series_array), and where
    _plain_kept accepts the sum, that sum is its value.  The other
    elements are taken point by point, along a row in column order.  One
    that kummer_m refuses before summing (a non-finite argument, c a
    non-positive integer, |z| past the envelope) or whose series runs out
    of terms is refused; any other makes the scalar call for its value:
    _kummer_sum on the plain sum (the rerun), or kummer_m (z <= 0).  The
    reruns are taken first, in one _kummer_rerun_array pass over every
    element the walk may reach, and _kummer_sum gates each proven pair;
    an element the pass does not prove takes the fixed-point rerun there.
    A row stops at its first refusal, as a scalar loop over the point
    would, so no fixed-point rerun is made past it.  Returns the values,
    NaN from a refusal to the end of its row; an element is NaN exactly
    where a scalar loop over its row raises at or before it.
    """
    z = np.asarray(z, dtype=float)
    bz, cz = np.broadcast_to(b, z.shape), np.broadcast_to(c, z.shape)
    with np.errstate(invalid="ignore"):  # inf // 1.0 is NaN, not an integer
        refused = ~(np.isfinite(bz) & np.isfinite(cz)
                    & ~_is_nonpositive_integer(cz)
                    & (np.abs(z) <= KUMMER_ENVELOPE))
    direct = ~refused & (z > 0.0)
    sums, abs_sums, converged = _kummer_series_array(bz[direct], cz[direct],
                                                     z[direct])
    plain, plain_abs = np.full(z.shape, math.nan), np.full(z.shape, math.nan)
    plain[direct], plain_abs[direct] = sums, abs_sums
    refused[direct] = ~converged
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as for floats
        kept = _plain_kept(plain, plain_abs)  # NaN, so False, where not summed
    values = np.where(kept, plain, math.nan)
    grid = [a if a.ndim == 2 else a[:, None]
            for a in (values, bz, cz, z, plain, plain_abs, direct, refused, kept)]
    _, bg, cg, zg, _, _, direct, refused, kept = grid
    rerun = direct & ~kept & ~np.logical_or.accumulate(refused, axis=1)
    proven = np.full((2,) + zg.shape, math.nan)
    if rerun.any():
        proven[:, rerun] = _kummer_rerun_array(bg[rerun], cg[rerun], zg[rerun])
    grid[6:6] = proven
    for i in np.flatnonzero(~kept.all(axis=1)).tolist():
        out, *point = (a[i] for a in grid)
        # Python floats from tolist: the scalar routes' own types
        for j, (bj, cj, zj, sj, aj, rv, ra, direct_j, refused_j, kept_j) in enumerate(
                zip(*(a.tolist() for a in point))):
            if kept_j:
                continue
            if refused_j:
                break
            try:
                out[j] = (_kummer_sum(bj, cj, zj, (sj, aj),
                                      (rv, ra) if rv == rv else None)
                          if direct_j else kummer_m(bj, cj, zj))
            except TriqError:
                break
        else:
            continue
        out[j:] = math.nan
    return values


def kummer_m_regularized(b: float, c: float, z: float) -> float:
    """Regularized Kummer function 1F1(b;c;z) / Gamma(c), any real c.

    At non-positive integer c the limit value is used, so the function is
    continuous in c (the pole of Gamma cancels the vanishing denominator
    pattern of the series).
    """
    c = require_finite("c", c)
    if _is_nonpositive_integer(c):
        m = int(-c)
        lead = _pochhammer(b, m + 1) * z ** (m + 1)
        return lead * kummer_m(b + m + 1.0, float(m + 2), z) * recip_gamma(float(m + 2))
    return kummer_m(b, c, z) * recip_gamma(c)


def _tricomi_tail(a: float, c: float, z: float) -> tuple[float, float]:
    """z^(-a) 2F0(a, a-c+1; ; -1/z) truncated at its smallest term.

    The expansion is asymptotic, not convergent, so summation stops at the
    first non-decreasing term and that term bounds the relative error.
    Returns (value, relative error estimate).
    """
    term = 1.0
    total = 1.0
    smallest = 1.0
    for k in range(500):
        term *= (a + k) * (a - c + 1.0 + k) / ((k + 1.0) * (-z))
        if abs(term) >= smallest:
            break
        total += term
        smallest = abs(term)
        if smallest < 1e-18 * abs(total):
            break
    return z ** (-a) * total, smallest / max(abs(total), 1e-300)


# the relative rounding both companion estimates charge: tricomi_u_cf's
# for each backward step and for the Wronskian quotient, and the two-term
# form's per unit of its cancellation factor (scatter._two_term), so that
# scatter._companion compares the two on one scale
_ROUND_CHARGE = 1e-15

# tricomi_u_cf's fixed depth, and the factor on the linear model of the
# start's error, which read up to 10x low below z = 1 against mpmath
_CF_DEPTH = 80
_CF_START = 16.0
_CF_J = np.arange(float(_CF_DEPTH), 0.0, -1.0)  # j = depth .. 1
# no estimate tricomi_u_cf gives is below this: both of its cancellation
# factors are at least 1, and r's error at least one step's rounding
TRICOMI_CF_LEAST = 4.0 * _ROUND_CHARGE


def tricomi_u_cf(b, c, z, m, m_next, rg_b):
    """(U, dU/dz, relative error estimate) of Tricomi's U(b; c; z) from the
    regularized m = M(b; c; z) / Gamma(c) and m_next = M(b + 1; c + 1; z) /
    Gamma(c + 1), and rg_b = 1/Gamma(b).

    Floats for one point, or 1-D arrays with one entry per point,
    elementwise with the float's doubles; a float divided by zero is taken
    again with z a one-element array, so that it gets numpy's inf or NaN
    too.  That retry is the one call in triq that gives a float b beside
    an array z.  z > 0 and c > 0.

    U is the minimal solution of its recurrence in the first parameter
    (DLMF 13.3.7; Temme, Numer. Math. 41, 1983), so the ratio r = U(b + 1)
    / U(b) is the backward continued fraction r_(k-1) = 1 / (2k + z - c -
    k(k - c + 1) r_k), run from r = 0 at k = b + _CF_DEPTH down to k = b +
    1.  Then U'/U = -(b/z)((c - b - 1) r + 1), and the Wronskian of the
    regularized M and U, W = m U' - m' U = -z^(-c) e^z / Gamma(b) (DLMF
    13.2(vi)), gives U = W / (m U'/U - m'), with m' = b m_next (DLMF
    13.3(ii)).  Nothing is subtracted but the denominator's two terms.

    The estimate is relative to U and to dU/dz alike, for exact inputs:
    the errors of m, m_next and rg_b pass through unweighted, and are
    charged by neither this estimate nor the two-term form's.  r's
    relative error e is the start's error (a linear model, times
    _CF_START) and _ROUND_CHARGE per step, each carried down by the step's
    relative sensitivity |k(k - c + 1) r_(k-1) r_k|; (c - b - 1) r + 1
    multiplies e by its cancellation factor, and the denominator's
    cancellation factor multiplies that plus _ROUND_CHARGE for the quotient.
    Against 50-digit mpmath the true error was at most 0.56 of it on 690
    seeded points (b in [-45, 3], z in [0.05, 300], b within 1e-3 to 1e-9
    of -1 .. -40).  It is at least TRICOMI_CF_LEAST, and inf, never NaN,
    wherever U or dU/dz is not finite.
    """
    # k = b + j, a row per step, then t = k (k - c + 1) and a = 2k - c in place
    a = b + (_CF_J[:, None] if np.ndim(b) else _CF_J)
    t = a - c
    t += 1.0
    t *= a
    a *= 2.0
    a -= c
    if not np.ndim(b):
        a, t = a.tolist(), t.tolist()  # a float's steps take Python floats
    try:
        with np.errstate(all="ignore"):
            r = 1.0 / (a[0] + z)
            e = _CF_START * abs(t[0] * r * r)
            for aj, tj in zip(a[1:], t[1:]):
                tr = tj * r
                r = aj + z
                r -= tr
                r = 1.0 / r
                tr *= r  # the step's relative sensitivity, up to its sign
                e *= abs(tr)
                e += _ROUND_CHARGE
            ratio = (c - b - 1.0) * r
            q = -(b / z) * (ratio + 1.0)  # U'/U
            mq = m * q
            dm = b * m_next  # m'
            d = mq - dm
            u = -_exp_growth(z) / _libm(np.power, z, c) * rg_b / d
            du = u * q
            est = ((_loss(d, abs(mq) + abs(dm)) + 1.0)
                   * (_ROUND_CHARGE
                      + _loss(ratio + 1.0, abs(ratio) + 1.0) * e))
    except ZeroDivisionError:
        u, du, est = tricomi_u_cf(b, c, np.array([z]), m, m_next, rg_b)
        return u.item(), du.item(), est.item()
    return u, du, _where(np.isfinite(u) & np.isfinite(du) & (est == est),
                         est, math.inf)


def tricomi_u_large_z(b: float, c: float, z: float) -> tuple[float, float]:
    """U(b; c; z) by downward recurrence in the first parameter.

    Seeds two consecutive parameter values in [0, 2) from the large-z
    expansion, where its optimal truncation error is smallest, then recurs
    down to b.  U is the dominant solution of the three-term recurrence in
    that direction, so the seed error passes through undamaged but is never
    amplified.  Returns (value, relative error estimate); the estimate is
    at full precision once z is past roughly 40 and degrades honestly
    below, so callers choose between this and the subtraction form.
    """
    b = require_finite("b", b)
    c = require_finite("c", c)
    z = require_finite("z", z)
    if z <= 0.0:
        raise DomainError(f"tricomi_u_large_z requires z > 0, got {z!r}")
    steps = max(0, math.ceil(-b)) if b < 0.0 else 0
    a = b + steps
    low, err = _tricomi_tail(a, c, z)
    if steps:
        high, err_high = _tricomi_tail(a + 1.0, c, z)
        err = max(err, err_high)
        for _ in range(steps):
            high, low = low, (2.0 * a - c + z) * low - a * (a - c + 1.0) * high
            a -= 1.0
    return low, err


# Module constants built from our own Gamma so the Airy series and the
# closed-form value tests share one source of truth.
_AI_ZERO = 3.0 ** (-2.0 / 3.0) * recip_gamma(2.0 / 3.0)   # Ai(0)
_AI_SLOPE = 3.0 ** (-1.0 / 3.0) * recip_gamma(1.0 / 3.0)  # -Ai'(0)

# The march ladders, built once at import: Ai from the asymptotics at
# _AIRY_ASYM_POS down to the last node above _AIRY_SERIES_HI_AI, and Ai and
# Bi from the series at _AIRY_SERIES_LO down to the last above
# _AIRY_ASYM_NEG
_AI_POS_LADDER = _airy_ladder(_AIRY_ASYM_POS, *_airy_asym_pos(_AIRY_ASYM_POS)[:2],
                              _AIRY_SERIES_HI_AI)
_SERIES_LO_ANCHOR = _airy_series_pair(_AIRY_SERIES_LO)
_AI_NEG_LADDER = _airy_ladder(_AIRY_SERIES_LO, *_SERIES_LO_ANCHOR[:2], _AIRY_ASYM_NEG)
_BI_NEG_LADDER = _airy_ladder(_AIRY_SERIES_LO, *_SERIES_LO_ANCHOR[2:], _AIRY_ASYM_NEG)
