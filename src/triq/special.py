"""Real-argument special functions used by the closed-form solver.

Everything here is hand-rolled on purpose: the scattering and spectrum
modules are exercised against an integration oracle that is forbidden from
sharing any of this code, so these kernels carry their own pinned accuracy
contracts instead of delegating to a library.  Where doubles run out,
the arithmetic is carried wider: the Kummer series under heavy cancellation
is rerun in exact Python integers as fixed point, and the Airy phase at
large |y| in 34 digits of the standard library's decimal module, through
one context of this module's own.

Contracts (relative error unless stated):
    airy_ai / airy_bi   <= 1e-12 for |y| <= 30 (refused below y = -1e6)
    kummer_m            <= 1e-10 for |z| <= 300 (envelope; error beyond)
    tricomi_u_large_z   returns its own relative error estimate
    recip_gamma / gamma <= 1e-13 on the real line away from poles

Near an Airy oscillation zero "relative" is measured against the local pair
envelope max(|f|, |f'| / sqrt(|y|)): pointwise relative error at a zero is
not a meaningful target for any fixed-precision evaluation, and the matching
determinants the solver builds are conditioned on the envelope, not on the
vanishing component.

1/Gamma is the primitive: poles of Gamma map to exact zeros, which is what
lets the Tricomi construction drop terms cleanly at non-positive integer
parameters.

Tricomi's U itself is made in one place, scatter.RegionIIBasis.second: the
two-term form from the Kummer series here, or tricomi_u_large_z where the
subtraction cancels, chosen by each route's error estimate.

Two kernels also run over a 1-D array, element for element the doubles of
the scalar calls: _kummer_m_array (one plain-series pass) and _airy_array.
The Airy array makes one Maclaurin pass for Ai and Bi together and one
lockstep Taylor march, each element with its own steps and stop rules.
The asymptotic regimes stay one scalar call per element (though one for
Ai and Bi together): they rest on libm's pow, exp and sin and on the
34-digit phase, which numpy's ufuncs need not reproduce to the bit.  A
single point is cheaper through the scalar calls, which stay.
"""

from __future__ import annotations

import decimal
import math
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError, TriqError

__all__ = [
    "AiryPair",
    "airy_ai",
    "airy_bi",
    "gamma",
    "recip_gamma",
    "kummer_m",
    "kummer_m_regularized",
    "tricomi_u_large_z",
    "KUMMER_ENVELOPE",
]

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)
_SQRT3 = math.sqrt(3.0)

# Maximum |z| accepted by the Kummer series before raising AccuracyError.
KUMMER_ENVELOPE = 300.0
_KUMMER_MAX_TERMS = 1200
# Above the first ratio the plain compensated sum has eaten ~4 of its 16
# digits and the series is rerun in integer fixed point (_kummer_series_dd);
# above the second the point is refused.  The second limit sets the closed
# form's domain (README, "Where the closed form refuses"), not the rerun's
# precision: with 2^-160 fixed-point steps a loss of 1e12 still leaves the
# sum within ~2^-93 relative (the bound in _kummer_series_dd's docstring).
_KUMMER_ESCALATE_LOSS = 1.0e4
_KUMMER_FAIL_LOSS = 1.0e12
# the rerun's fixed-point bits for b, z >= 1 (more for tiny b or z), and
# its stop rule's 1e-33 as the integer ratio of sum|terms| to a term
_KUMMER_FIXED_BITS = 160
_KUMMER_FIXED_STOP = 10 ** 33

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
# Bi overflows IEEE doubles near y ~ 104; the contract range is |y| <= 30.
_AIRY_BI_OVERFLOW = 103.0
# Below this both functions refuse: the oscillatory phase's remainder enters
# to first order and grows with ulp(zeta), so the 1e-12 envelope bound holds
# at -1e6 and not at -1e7 (1.5e-12 there, 55 at -1e12, against mpmath).
_AIRY_NEG_LIMIT = -1.0e6


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def _is_nonpositive_integer(x):
    """x <= 0 with no fraction, for a finite float or elementwise over an
    array (x // 1.0 is floor(x) for finite x)."""
    return (x <= 0.0) & (x == x // 1.0)


# ---------------------------------------------------------------------------
# Extended precision for the oscillatory Airy phase at large |y|, where a
# plain double pipeline would breach the contract (the Kummer rerun is
# integer fixed point, _kummer_series_dd).  Every operation goes through
# this context's own methods, and floats enter by the exact
# Decimal.from_float (the Decimal(float) constructor flags FloatOperation
# in the caller's context, and raises where that is trapped), so the
# caller's decimal context neither changes a result nor is changed.

_DEC = decimal.Context(prec=34, rounding=decimal.ROUND_HALF_EVEN)
_DEC_PI4 = decimal.Decimal("0.7853981633974483096156608458198757")  # pi/4


# ---------------------------------------------------------------------------
# Gamma


def _sinpi(x: float) -> float:
    """sin(pi*x) with argument reduction done on x itself.

    Reducing before multiplying by pi keeps full relative accuracy near
    integer x, where the reflection formula needs it most.
    """
    n = math.floor(x)
    r = x - n
    if r > 0.5:
        r = 1.0 - r
    s = math.sin(math.pi * r)
    return -s if (int(n) & 1) else s


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


def _lngamma_positive(x: float) -> float:
    """ln Gamma(x) for x >= 0.5 via upward shift + Stirling series."""
    shift = 1.0
    z = x
    while z < 12.0:
        shift *= z
        z += 1.0
    zz = 1.0 / (z * z)
    series = 0.0
    for coeff in reversed(_STIRLING):
        series = (series + coeff) * zz
    series /= zz * z  # undo one power: series terms are c_k * z^(1-2k)
    result = (z - 0.5) * math.log(z) - z + _LN_SQRT_2PI + series
    return result - math.log(shift)


def recip_gamma(x: float) -> float:
    """1/Gamma(x); exactly 0.0 at the poles x = 0, -1, -2, ..."""
    x = _require_finite("x", x)
    if _is_nonpositive_integer(x):
        return 0.0
    if x >= 0.5:
        return math.exp(-_lngamma_positive(x))
    # Reflection: 1/Gamma(x) = Gamma(1-x) * sin(pi x) / pi
    ln_reflected = _lngamma_positive(1.0 - x)
    if ln_reflected > 700.0:
        raise AccuracyError(
            f"recip_gamma overflow at x={x!r}", value=x)
    return _sinpi(x) / math.pi * math.exp(ln_reflected)


def gamma(x: float) -> float:
    """Gamma(x) on the real line; raises DomainError at the poles."""
    rg = recip_gamma(x)
    if rg == 0.0:
        raise DomainError(f"gamma pole at x={x!r}")
    return 1.0 / rg


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
        if abs(tf) < 1e-18 * abs(f) and abs(tg) < 1e-18 * abs(g):
            break
    return f, fp, g, gp


def _airy_series_pair(y: float) -> tuple[float, float, float, float]:
    """(Ai, Ai', Bi, Bi') from the Maclaurin pair."""
    f, fp, g, gp = _airy_series(y)
    ai = _AI_ZERO * f - _AI_SLOPE * g
    aip = _AI_ZERO * fp - _AI_SLOPE * gp
    bi = _SQRT3 * (_AI_ZERO * f + _AI_SLOPE * g)
    bip = _SQRT3 * (_AI_ZERO * fp + _AI_SLOPE * gp)
    return ai, aip, bi, bip


def _airy_taylor_step(x0: float, w: float, wp: float, h: float) -> tuple[float, float]:
    """One Taylor step of w'' = x*w from x0 to x0+h.

    The local series is entire, so the only requirement on h is that the
    ~60-term budget reaches 1e-18 relative; |h| <= 0.8 is ample.
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
        if abs(term_v) < 1e-18 * (abs(value) + abs(deriv) * abs(h)):
            break
    return value, deriv


def _airy_march(y: float, x0: float, w: float, wp: float) -> tuple[float, float]:
    """Taylor-march (w, w') of the Airy ODE from anchor x0 to y."""
    n_steps = max(1, math.ceil(abs(y - x0) / _AIRY_MARCH_STEP))
    h = (y - x0) / n_steps
    x = x0
    for _ in range(n_steps):
        w, wp = _airy_taylor_step(x, w, wp, h)
        x += h
    return w, wp


def _airy_asym_pos(y: float) -> tuple[float, float, float, float]:
    """(Ai, Ai', Bi, Bi') for y >= _AIRY_ASYM_POS from the exponential asymptotics."""
    zeta = (2.0 / 3.0) * y * math.sqrt(y)
    # Sums S(+-) = sum (+-1)^k u_k / zeta^k and the v_k companions.
    su_m = su_p = 1.0
    sv_m = sv_p = 1.0
    u_term = 1.0
    prev = math.inf
    for k in range(1, 60):
        u_term *= (6.0 * k - 1.0) * (6.0 * k - 5.0) / (72.0 * k * zeta)
        v_term = u_term * (6.0 * k + 1.0) / (1.0 - 6.0 * k)
        if abs(u_term) >= prev:
            break  # asymptotic tail started growing; stop at the floor
        prev = abs(u_term)
        sgn = -1.0 if (k & 1) else 1.0
        su_m += sgn * u_term
        su_p += u_term
        sv_m += sgn * v_term
        sv_p += v_term
        if abs(u_term) < 1e-18:
            break
    root4 = y ** 0.25
    e_neg = math.exp(-zeta)
    ai = 0.5 * e_neg * su_m / (_SQRT_PI * root4)
    aip = -0.5 * root4 * e_neg * sv_m / _SQRT_PI
    if zeta > 700.0:
        # Growing pair not representable; airy_bi guards against reaching
        # this point, airy_ai just discards these.
        bi = math.inf
        bip = math.inf
    else:
        e_pos = math.exp(zeta)
        bi = e_pos * su_p / (_SQRT_PI * root4)
        bip = root4 * e_pos * sv_p / _SQRT_PI
    return ai, aip, bi, bip


def _oscillatory_phase(t: float) -> tuple[float, float, float]:
    """(zeta, sin(omega), cos(omega)) with omega = (2/3)t^(3/2) - pi/4.

    The phase is carried in 34 digits (_DEC): a plain double loses
    eps*zeta of absolute phase, which near an oscillation zero is the whole
    relative-error budget.  omega = wh + wl is split into its double and
    the remainder, which enters to first order.
    """
    td = decimal.Decimal.from_float(t)
    zeta = _DEC.divide(_DEC.multiply(_DEC.multiply(2, td), _DEC.sqrt(td)), 3)
    omega = _DEC.subtract(zeta, _DEC_PI4)
    wh = float(omega)
    wl = float(_DEC.subtract(omega, decimal.Decimal.from_float(wh)))
    sw = math.sin(wh)
    cw = math.cos(wh)
    return float(zeta), sw + wl * cw, cw - wl * sw


def _airy_asym_neg(y: float) -> tuple[float, float, float, float]:
    """(Ai, Ai', Bi, Bi') for y <= _AIRY_ASYM_NEG from the oscillatory asymptotics."""
    t = -y
    zeta, s, c = _oscillatory_phase(t)
    # Even/odd splits of sum (-1)^k u_k / zeta^k and the v companion.
    ue = 1.0
    uo = 0.0
    ve = 1.0
    vo = 0.0
    u_term = 1.0
    prev = math.inf
    for k in range(1, 60):
        u_term *= (6.0 * k - 1.0) * (6.0 * k - 5.0) / (72.0 * k * zeta)
        v_term = u_term * (6.0 * k + 1.0) / (1.0 - 6.0 * k)
        if abs(u_term) >= prev:
            break
        prev = abs(u_term)
        # (-1)^k applied to the full alternating series sum (-1)^j c_j/zeta^j
        # splits as (-1)^m on even j=2m and odd j=2m+1 entries alike.
        m, rem = divmod(k, 2)
        sgn = -1.0 if (m & 1) else 1.0
        if rem == 0:
            ue += sgn * u_term
            ve += sgn * v_term
        else:
            uo += sgn * u_term
            vo += sgn * v_term
        if abs(u_term) < 1e-18:
            break
    root4 = t ** 0.25
    inv = 1.0 / (_SQRT_PI * root4)
    ai = inv * (c * ue + s * uo)
    bi = inv * (-s * ue + c * uo)
    fac = root4 / _SQRT_PI
    aip = fac * (s * ve - c * vo)
    bip = fac * (c * ve + s * vo)
    return ai, aip, bi, bip


def airy_ai(y: float) -> AiryPair:
    """Airy Ai and Ai' at a finite real point."""
    y = _require_finite("y", y)
    if y < _AIRY_NEG_LIMIT:
        raise AccuracyError(f"airy_ai accuracy lost at y={y!r}, "
                            f"below {_AIRY_NEG_LIMIT!r}", value=y)
    if y >= _AIRY_ASYM_POS:
        ai, aip, _, _ = _airy_asym_pos(y)
        return AiryPair(ai, aip)
    if y > _AIRY_SERIES_HI_AI:
        # March down from the asymptotic anchor: the decaying solution grows
        # in this direction, so Bi contamination dies off and the march is
        # numerically stable.
        a0, a0p, _, _ = _ASYM_POS_ANCHOR
        w, wp = _airy_march(y, _AIRY_ASYM_POS, a0, a0p)
        return AiryPair(w, wp)
    if y >= _AIRY_SERIES_LO:
        ai, aip, _, _ = _airy_series_pair(y)
        return AiryPair(ai, aip)
    if y > _AIRY_ASYM_NEG:
        # Oscillatory region: no exponential dichotomy, marching from the
        # series anchor is stable in either direction.
        a0, a0p, _, _ = _SERIES_LO_ANCHOR
        w, wp = _airy_march(y, _AIRY_SERIES_LO, a0, a0p)
        return AiryPair(w, wp)
    ai, aip, _, _ = _airy_asym_neg(y)
    return AiryPair(ai, aip)


def airy_bi(y: float) -> AiryPair:
    """Airy Bi and Bi' at a finite real point."""
    y = _require_finite("y", y)
    if y > _AIRY_BI_OVERFLOW:
        raise AccuracyError(f"airy_bi overflow at y={y!r}", value=y)
    if y < _AIRY_NEG_LIMIT:
        raise AccuracyError(f"airy_bi accuracy lost at y={y!r}, "
                            f"below {_AIRY_NEG_LIMIT!r}", value=y)
    if y >= _AIRY_ASYM_POS:
        _, _, bi, bip = _airy_asym_pos(y)
        return AiryPair(bi, bip)
    if y >= _AIRY_SERIES_LO:
        # The growing combination has no cancellation for y > 0, so the
        # series holds to the asymptotic switch point.
        _, _, bi, bip = _airy_series_pair(y)
        return AiryPair(bi, bip)
    if y > _AIRY_ASYM_NEG:
        _, _, b0, b0p = _SERIES_LO_ANCHOR
        w, wp = _airy_march(y, _AIRY_SERIES_LO, b0, b0p)
        return AiryPair(w, wp)
    _, _, bi, bip = _airy_asym_neg(y)
    return AiryPair(bi, bip)


class AiryGrid(NamedTuple):
    """airy_ai and airy_bi over a 1-D array of points (_airy_array).

    ai, aip, bi and bip hold the doubles the scalar calls give element by
    element, NaN where the call refuses; ai_failures and bi_failures map
    the index of each refused element, in index order, to the error its
    airy_ai or airy_bi call raises.
    """

    ai: np.ndarray
    aip: np.ndarray
    bi: np.ndarray
    bip: np.ndarray
    ai_failures: dict
    bi_failures: dict


def _airy_array(y) -> AiryGrid:
    """airy_ai and airy_bi over a 1-D array, one vector pass per regime.

    Every element takes its scalar calls' routes and gets their doubles:
    one Maclaurin pass gives Ai and Bi wherever either is on the series;
    one lockstep march carries the Ai and Bi rows of (_AIRY_ASYM_NEG,
    _AIRY_SERIES_LO) and the Ai rows of (_AIRY_SERIES_HI_AI,
    _AIRY_ASYM_POS); each asymptotic element makes one _airy_asym_* call
    for both functions.  An element no route takes (a non-finite y, a y
    below _AIRY_NEG_LIMIT, and for Bi a y above _AIRY_BI_OVERFLOW) makes
    the scalar call, and its error is recorded.
    """
    y = np.asarray(y, dtype=float)
    ys = y.tolist()  # Python floats: the asymptotic and scalar calls' own types
    ai, aip, bi, bip = (np.full(y.size, math.nan) for _ in range(4))
    series = np.flatnonzero((y >= _AIRY_SERIES_LO) & (y < _AIRY_ASYM_POS))
    f, fp, g, gp = _airy_series_array(y[series])
    bi[series] = _SQRT3 * (_AI_ZERO * f + _AI_SLOPE * g)
    bip[series] = _SQRT3 * (_AI_ZERO * fp + _AI_SLOPE * gp)
    on = y[series] <= _AIRY_SERIES_HI_AI  # above it, Ai marches down from 8
    ai[series[on]] = (_AI_ZERO * f - _AI_SLOPE * g)[on]
    aip[series[on]] = (_AI_ZERO * fp - _AI_SLOPE * gp)[on]

    neg = np.flatnonzero((y > _AIRY_ASYM_NEG) & (y < _AIRY_SERIES_LO))
    pos = np.flatnonzero((y > _AIRY_SERIES_HI_AI) & (y < _AIRY_ASYM_POS))
    # march rows: Ai, then Bi, of (-9.5, -4.5) from the series anchor, then
    # Ai of (3, 8) from the asymptotic one
    rows = np.concatenate([neg, neg, pos])
    sizes = (neg.size, neg.size, pos.size)
    anchors = [(_AIRY_SERIES_LO, *_SERIES_LO_ANCHOR[:2]),
               (_AIRY_SERIES_LO, *_SERIES_LO_ANCHOR[2:]),
               (_AIRY_ASYM_POS, *_ASYM_POS_ANCHOR[:2])]
    w, wp = _airy_march_array(y[rows], *(np.repeat(a, sizes) for a in zip(*anchors)))
    ai[neg], bi[neg], ai[pos] = np.split(w, np.cumsum(sizes)[:2])
    aip[neg], bip[neg], aip[pos] = np.split(wp, np.cumsum(sizes)[:2])

    refused = ~np.isfinite(y) | (y < _AIRY_NEG_LIMIT)
    asymptotic = ~refused & ((y >= _AIRY_ASYM_POS) | (y <= _AIRY_ASYM_NEG))
    for i in np.flatnonzero(asymptotic).tolist():
        asym = _airy_asym_pos if ys[i] >= _AIRY_ASYM_POS else _airy_asym_neg
        ai[i], aip[i], b, bp = asym(ys[i])
        if ys[i] <= _AIRY_BI_OVERFLOW:
            bi[i], bip[i] = b, bp

    ai_failures, bi_failures = {}, {}
    for fn, calls, value, deriv, failures in (
            (airy_ai, refused, ai, aip, ai_failures),
            (airy_bi, refused | (y > _AIRY_BI_OVERFLOW), bi, bip, bi_failures)):
        for i in np.flatnonzero(calls).tolist():
            try:
                value[i], deriv[i] = fn(ys[i])
            except TriqError as exc:
                failures[i] = exc
    return AiryGrid(ai, aip, bi, bip, ai_failures, bi_failures)


def _airy_series_array(y: np.ndarray):
    """_airy_series over a 1-D array, each element retiring at its own stop.

    Each element does the scalar loop's operations and leaves the live
    arrays at the term where the scalar loop breaks (or runs out), so it
    gets the same (f, f', g, g'); y == 0 and a subnormal y, where 1/y
    overflows, take the scalar loop's exact start.  Overflow and inf * 0
    are silent, as they are for floats.
    """
    out = [np.ones(y.size), np.zeros(y.size), np.zeros(y.size), np.ones(y.size)]
    live = np.flatnonzero(y != 0.0)
    yl = y[live]
    with np.errstate(over="ignore"):
        y3, inv_y = yl * yl * yl, 1.0 / yl
    subnormal = np.isinf(inv_y)
    out[2][live[subnormal]] = yl[subnormal]
    live, yl, y3, inv_y = (a[~subnormal] for a in (live, yl, y3, inv_y))
    f, tf, g, tg = np.ones(yl.size), np.ones(yl.size), yl.copy(), yl.copy()
    fp, gp = np.zeros(yl.size), np.ones(yl.size)
    for k in range(1, 90):
        if not live.size:
            break
        three_k = 3.0 * k
        tf *= y3 / (three_k * (three_k - 1.0))
        tg *= y3 / (three_k * (three_k + 1.0))
        f += tf
        g += tg
        with np.errstate(invalid="ignore"):
            fp += tf * three_k * inv_y
            gp += tg * (three_k + 1.0) * inv_y
        done = ((np.abs(tf) < 1e-18 * np.abs(f)) & (np.abs(tg) < 1e-18 * np.abs(g))
                if k < 89 else np.ones(live.size, dtype=bool))
        if done.any():
            for o, v in zip(out, (f, fp, g, gp)):
                o[live[done]] = v[done]
            keep = ~done
            live, y3, inv_y, f, tf, g, tg, fp, gp = (
                a[keep] for a in (live, y3, inv_y, f, tf, g, tg, fp, gp))
    return out


def _airy_march_array(y, x0, w, wp):
    """_airy_march of every row in lockstep, row r from x0[r] to y[r].

    Each row keeps its own step count, h and x += h accumulation, and
    leaves each Taylor step at its own stop rule, so it gets the scalar
    march's (w, w').
    """
    n_steps = np.maximum(1.0, np.ceil(np.abs(y - x0) / _AIRY_MARCH_STEP))
    h = (y - x0) / n_steps
    x, w, wp = x0.copy(), w.copy(), wp.copy()
    for s in range(int(n_steps.max(initial=0.0))):
        rows = np.flatnonzero(n_steps > s)
        w[rows], wp[rows] = _airy_taylor_step_array(x[rows], w[rows], wp[rows], h[rows])
        x[rows] += h[rows]
    return w, wp


def _airy_taylor_step_array(x0, w, wp, h):
    """_airy_taylor_step of every row, each leaving at its own stop rule.

    The local series is kept as its last three coefficients, the only
    ones the recurrence reads.
    """
    c_prev, c_cur, c_next = w, wp, 0.5 * x0 * w
    value = w + h * (wp + h * c_next)
    deriv = wp + 2.0 * c_next * h
    hn = h * h
    out_v, out_d = np.empty(w.size), np.empty(w.size)
    live = np.arange(w.size)
    for n in range(1, 60):
        if not live.size:
            break
        a_next = (x0 * c_cur + c_prev) / ((n + 1.0) * (n + 2.0))
        hn_next = hn * h
        term_v = a_next * hn_next
        value += term_v
        deriv += a_next * (n + 2.0) * hn
        hn = hn_next
        c_prev, c_cur, c_next = c_cur, c_next, a_next
        done = (np.abs(term_v) < 1e-18 * (np.abs(value) + np.abs(deriv) * np.abs(h))
                if n < 59 else np.ones(live.size, dtype=bool))
        if done.any():
            out_v[live[done]], out_d[live[done]] = value[done], deriv[done]
            keep = ~done
            live, x0, h, value, deriv, hn, c_prev, c_cur, c_next = (
                a[keep] for a in (live, x0, h, value, deriv, hn,
                                  c_prev, c_cur, c_next))
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
        term *= (b + k - 1.0) * z / ((c + k - 1.0) * k)
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
        if k >= 4 and mag < 1e-17 * abs_sum and mag <= prev_mag:
            break
        prev_mag = mag
    else:
        raise AccuracyError(
            f"kummer_m series did not converge within {_KUMMER_MAX_TERMS} terms "
            f"at z={z!r}", value=z)
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

    The name stays from the double-double rerun of earlier versions,
    because the tracer (as special.kummer.dd) and the tests bind it.  On
    the 83 reruns of the 200-point 0.02-2.25 eV sweep (Python 3.11, 2-CPU
    host, best of 15 per input) a call takes 0.07-0.15 ms, 1.8-3.9x the
    plain sum on its input, and all 83 take 9.7 ms.
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


def _kummer_series_array(b, c, z: np.ndarray):
    """_kummer_series over a 1-D array of z, in one pass for all elements.

    b and c are floats, shared by every element, or arrays of z's shape,
    one parameter pair per element: validate's x grid passes floats, one
    call per series, and a transmission sweep passes the 8 series of all
    its points in one call.  Each element does the scalar loop's
    operations: the same term update, Neumaier branch and stop rule, so it
    gets the same doubles.  An element leaves the live arrays at the term
    where the scalar loop breaks.  Returns (sum, sum of |terms|,
    converged); where the scalar loop runs out of terms and raises,
    converged is False and both sums are NaN.  Overflow and inf - inf are
    silent, as they are for Python floats.

    This is the only array summer, and it only sums: the loss gates stay
    with _kummer_m_array, which walks each point's series in order and
    stops at its first refusal, because a scalar loop never reruns (in
    fixed point, 2-4x the plain sum) a series past a refused one.
    """
    n = z.size
    value, abs_out = np.full(n, math.nan), np.full(n, math.nan)
    converged = np.zeros(n, dtype=bool)
    live, zl = np.arange(n), z
    s, comp, abs_sum = np.ones(n), np.zeros(n), np.ones(n)
    term, prev_mag = np.ones(n), np.ones(n)

    def retire(done):
        nonlocal live, zl, s, comp, abs_sum, term, prev_mag, b, c
        idx = live[done]
        value[idx] = s[done] + comp[done]
        abs_out[idx] = abs_sum[done]
        converged[idx] = True
        keep = ~done
        live, zl, s, comp, abs_sum, term, prev_mag = (
            a[keep] for a in (live, zl, s, comp, abs_sum, term, prev_mag))
        b, c = (p[keep] if np.ndim(p) else p for p in (b, c))

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, _KUMMER_MAX_TERMS + 1):
            # updated in place, so no state array is live twice
            term *= (b + k - 1.0) * zl / ((c + k - 1.0) * k)
            zero = term == 0.0
            if zero.any():
                retire(zero)  # terminating parameter: a polynomial
            mag = np.abs(term)
            t = s + term
            comp += np.where(np.abs(s) >= mag, (s - t) + term, (term - t) + s)
            s = t
            abs_sum += mag
            if k >= 4:
                done = (mag < 1e-17 * abs_sum) & (mag <= prev_mag)
                if done.any():
                    retire(done)
                    mag = mag[~done]
            if not live.size:
                break
            prev_mag = mag
    return value, abs_out, converged


def _plain_kept(value, abs_sum):
    """Whether a plain Kummer sum stands without the fixed-point rerun.

    True where the cancellation factor is at most _KUMMER_ESCALATE_LOSS;
    the one place the escalation test is written.  Floats or arrays,
    elementwise (an array caller silences numpy's overflow warning).
    """
    return _kummer_loss(value, abs_sum) <= _KUMMER_ESCALATE_LOSS


def _kummer_loss(value, abs_sum):
    """Cancellation factor sum|terms| / max(|sum|, 5e-324).

    The max is written with operators so that it also holds elementwise:
    no nonzero |sum| is below 5e-324, so it is |sum|, plus 5e-324 at 0.
    """
    return abs_sum / (abs(value) + (value == 0.0) * 5e-324)


def _kummer_sum(b: float, c: float, z: float, plain=None) -> float:
    """M(b; c; z), z > 0, from the plain series or its fixed-point rerun.

    Both loss gates are decided here and only here (the escalation test
    through _plain_kept, which _kummer_m_array also reads to skip this
    call where the plain sum stands).  plain is the (sum, sum of |terms|)
    of the plain series at this z when it has already been summed (over an
    array, by _kummer_m_array).
    """
    value, abs_sum = _kummer_series(b, c, z) if plain is None else plain
    if _plain_kept(value, abs_sum):
        return value
    value, abs_sum = _kummer_series_dd(b, c, z)
    if _kummer_loss(value, abs_sum) > _KUMMER_FAIL_LOSS:
        raise AccuracyError(
            f"kummer_m cancellation too severe at b={b!r}, c={c!r}, z={z!r}",
            value=z)
    return value


def kummer_m(b: float, c: float, z: float) -> float:
    """Confluent hypergeometric 1F1(b; c; z) on the real line.

    Negative z is routed through the Kummer transformation
    1F1(b;c;z) = e^z * 1F1(c-b;c;-z) unless the direct series terminates
    (b a non-positive integer), in which case the exact polynomial is
    summed directly.  |z| beyond the envelope raises AccuracyError.
    """
    b = _require_finite("b", b)
    c = _require_finite("c", c)
    z = _require_finite("z", z)
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
    _plain_kept accepts the sum, that sum is its value.  Only the other
    elements make a scalar call, point by point and along a row in column
    order: _kummer_sum on the plain sum (the fixed-point rerun), or
    kummer_m where the series was not summed or ran out of terms.  A row
    stops at its first refusal, as a scalar loop over the point would, so
    no rerun is made past it.  Returns (values, failures): values holds
    what the scalar calls return, NaN from a refusal to the end of its row;
    failures maps the index of each refused point, in index order, to the
    error its scalar call raises.
    """
    z = np.asarray(z, dtype=float)
    bz, cz = np.broadcast_to(b, z.shape), np.broadcast_to(c, z.shape)
    with np.errstate(invalid="ignore"):  # inf // 1.0 is NaN, not an integer
        direct = (np.isfinite(bz) & np.isfinite(cz)
                  & ~_is_nonpositive_integer(cz)
                  & (z > 0.0) & (z <= KUMMER_ENVELOPE))
    sums, abs_sums, converged = _kummer_series_array(
        bz[direct] if np.ndim(b) else b, cz[direct] if np.ndim(c) else c,
        z[direct])
    plain, plain_abs = np.full(z.shape, math.nan), np.full(z.shape, math.nan)
    plain[direct], plain_abs[direct] = sums, abs_sums
    summed = np.zeros(z.shape, dtype=bool)
    summed[direct] = converged
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as for floats
        kept = _plain_kept(plain, plain_abs)  # NaN, so False, where not summed
    values = np.where(kept, plain, math.nan)
    failures = {}
    grid = [a if a.ndim == 2 else a[:, None]
            for a in (values, bz, cz, z, plain, plain_abs, summed, kept)]
    for i in np.flatnonzero(~grid[-1].all(axis=1)).tolist():
        out, *point = (a[i] for a in grid)
        # Python floats from tolist: the scalar routes' own types
        for j, (bj, cj, zj, sj, aj, summed_j, kept_j) in enumerate(
                zip(*(a.tolist() for a in point))):
            if kept_j:
                continue
            try:
                out[j] = (_kummer_sum(bj, cj, zj, (sj, aj)) if summed_j
                          else kummer_m(bj, cj, zj))
            except TriqError as exc:
                failures[i] = exc
                out[j:] = math.nan
                break
    return values, failures


def kummer_m_regularized(b: float, c: float, z: float) -> float:
    """Regularized Kummer function 1F1(b;c;z) / Gamma(c), any real c.

    At non-positive integer c the limit value is used, so the function is
    continuous in c (the pole of Gamma cancels the vanishing denominator
    pattern of the series).
    """
    c = _require_finite("c", c)
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
    b = _require_finite("b", b)
    c = _require_finite("c", c)
    z = _require_finite("z", z)
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

# (Ai, Ai', Bi, Bi') at the two march anchors, evaluated once at import:
# the negative-side march starts from the series, the positive-side Ai
# march from the asymptotics
_SERIES_LO_ANCHOR = _airy_series_pair(_AIRY_SERIES_LO)
_ASYM_POS_ANCHOR = _airy_asym_pos(_AIRY_ASYM_POS)
