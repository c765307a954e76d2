"""Real-argument special functions used by the closed-form solver.

Everything here is hand-rolled on purpose: the scattering and spectrum
modules are exercised against an integration oracle that is forbidden from
sharing any of this code, so these kernels carry their own pinned accuracy
contracts instead of delegating to a library.

Contracts (relative error unless stated):
    airy_ai / airy_bi   <= 1e-12 for |y| <= 30
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
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import AccuracyError, DomainError

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
# digits and the series is rerun in double-double arithmetic; above the
# second even the ~32-digit rerun cannot honour the 1e-10 contract.
_KUMMER_ESCALATE_LOSS = 1.0e4
_KUMMER_FAIL_LOSS = 1.0e12

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


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


# ---------------------------------------------------------------------------
# Double-double helpers (error-free transformations).  Used where a plain
# double pipeline would breach a contract: the Kummer series under heavy
# cancellation and the oscillatory Airy phase at large |y|.

_SPLITTER = 134217729.0  # 2^27 + 1


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    return s, b - (s - a)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _dd_add(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    s, e = _two_sum(xh, yh)
    e += xl + yl
    return _quick_two_sum(s, e)


def _dd_mul(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    p, e = _two_prod(xh, yh)
    e += xh * yl + xl * yh
    return _quick_two_sum(p, e)


def _dd_div(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    q0 = xh / yh
    ph, pl = _dd_mul(yh, yl, q0, 0.0)
    rh, rl = _dd_add(xh, xl, -ph, -pl)
    q1 = rh / yh
    ph, pl = _dd_mul(yh, yl, q1, 0.0)
    rh, rl = _dd_add(rh, rl, -ph, -pl)
    q2 = rh / yh
    s, e = _quick_two_sum(q0, q1)
    return _quick_two_sum(s, e + q2)


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
    y3 = y * y * y
    f = tf = 1.0
    g = tg = y
    fp = 0.0
    gp = 1.0
    inv_y = 1.0 / y
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


_PI4_HI = 0.7853981633974483
_PI4_LO = 3.061616997868383e-17


def _oscillatory_phase(t: float) -> tuple[float, float, float]:
    """(zeta, sin(omega), cos(omega)) with omega = (2/3)t^(3/2) - pi/4.

    The phase is carried in double-double form: a plain double loses
    eps*zeta of absolute phase, which near an oscillation zero is the whole
    relative-error budget.
    """
    s = math.sqrt(t)
    p, pe = _two_prod(s, s)
    s_lo = ((t - p) - pe) / (2.0 * s)  # sqrt correction: (s, s_lo)^2 = t
    a = 2.0 * t  # exact
    ph, pl = _two_prod(a, s)
    pl += a * s_lo
    zh, zl = _dd_div(ph, pl, 3.0, 0.0)
    wh, we = _two_sum(zh, -_PI4_HI)
    we += zl - _PI4_LO
    wh, wl = _quick_two_sum(wh, we)
    sw = math.sin(wh)
    cw = math.cos(wh)
    return zh, sw + wl * cw, cw - wl * sw


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
    if y >= _AIRY_ASYM_POS:
        ai, aip, _, _ = _airy_asym_pos(y)
        return AiryPair(ai, aip)
    if y > _AIRY_SERIES_HI_AI:
        # March down from the asymptotic anchor: the decaying solution grows
        # in this direction, so Bi contamination dies off and the march is
        # numerically stable.
        a0, a0p, _, _ = _airy_asym_pos(_AIRY_ASYM_POS)
        w, wp = _airy_march(y, _AIRY_ASYM_POS, a0, a0p)
        return AiryPair(w, wp)
    if y >= _AIRY_SERIES_LO:
        ai, aip, _, _ = _airy_series_pair(y)
        return AiryPair(ai, aip)
    if y > _AIRY_ASYM_NEG:
        # Oscillatory region: no exponential dichotomy, marching from the
        # series anchor is stable in either direction.
        a0, a0p, _, _ = _airy_series_pair(_AIRY_SERIES_LO)
        w, wp = _airy_march(y, _AIRY_SERIES_LO, a0, a0p)
        return AiryPair(w, wp)
    ai, aip, _, _ = _airy_asym_neg(y)
    return AiryPair(ai, aip)


def airy_bi(y: float) -> AiryPair:
    """Airy Bi and Bi' at a finite real point."""
    y = _require_finite("y", y)
    if y > _AIRY_BI_OVERFLOW:
        raise AccuracyError(f"airy_bi overflow at y={y!r}", value=y)
    if y >= _AIRY_ASYM_POS:
        _, _, bi, bip = _airy_asym_pos(y)
        return AiryPair(bi, bip)
    if y >= _AIRY_SERIES_LO:
        # The growing combination has no cancellation for y > 0, so the
        # series holds to the asymptotic switch point.
        _, _, bi, bip = _airy_series_pair(y)
        return AiryPair(bi, bip)
    if y > _AIRY_ASYM_NEG:
        _, _, b0, b0p = _airy_series_pair(_AIRY_SERIES_LO)
        w, wp = _airy_march(y, _AIRY_SERIES_LO, b0, b0p)
        return AiryPair(w, wp)
    _, _, bi, bip = _airy_asym_neg(y)
    return AiryPair(bi, bip)


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
    """Double-double rerun of the power series for heavy-cancellation inputs.

    Only reached when the compensated run reports a loss factor the
    16-digit pipeline cannot absorb.  The term update is
    t = t * (b + k - 1) * z / (c + k - 1) / k with _two_sum, _dd_mul,
    _dd_div and _dd_add written out in place, operation for operation, so
    every intermediate is the double the helpers give.  Only products with
    an exact zero are left out (the zero low words of z and of the integer
    k), the split of z is hoisted out of the loop, the split of c + k - 1
    is taken once per term, and k < 2^26 splits exactly as (k, 0).
    tests/test_special.py keeps the helper form as the bit-identity
    reference.  Measured per call on the 83 double-double inputs of the
    200-point 0.02-2.25 eV sweep (Python 3.11, 2-CPU host, best of 15):
    18-22x the plain sum on the same input with the helper calls, 12-15x
    written out; the rerun itself is 2.2-2.7x faster than the helper form.
    """
    split = _SPLITTER
    sh, sl = 1.0, 0.0
    ah, al = 1.0, 0.0
    th, tl = 1.0, 0.0
    prev_mag = 1.0
    p = split * z
    zh = p - (p - z)
    zl = z - zh
    for k in range(1, _KUMMER_MAX_TERMS + 1):
        km1 = k - 1.0
        # n = b + (k - 1) and d = c + (k - 1) as double-doubles (_two_sum)
        nh = b + km1
        bb = nh - b
        nl = (b - (nh - bb)) + (km1 - bb)
        dh = c + km1
        bb = dh - c
        dl = (c - (dh - bb)) + (km1 - bb)
        p = split * dh
        dhh = p - (p - dh)
        dhl = dh - dhh
        # t *= n (_dd_mul)
        p = th * nh
        q = split * th
        xh = q - (q - th)
        xl = th - xh
        q = split * nh
        yh = q - (q - nh)
        yl = nh - yh
        e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
        e += th * nl + tl * nh
        th = p + e
        tl = e - (th - p)
        # t *= z (_dd_mul with a zero low word)
        p = th * z
        q = split * th
        xh = q - (q - th)
        xl = th - xh
        e = ((xh * zh - p) + xh * zl + xl * zh) + xl * zl
        e += tl * z
        th = p + e
        tl = e - (th - p)
        # t /= d (_dd_div): two correction steps, then renormalise
        q0 = th / dh
        p = dh * q0
        q = split * q0
        yh = q - (q - q0)
        yl = q0 - yh
        e = ((dhh * yh - p) + dhh * yl + dhl * yh) + dhl * yl
        e += dl * q0
        ph = p + e
        pl = e - (ph - p)
        s = th - ph
        bb = s - th
        e = (th - (s - bb)) + (-ph - bb)
        e += tl - pl
        rh = s + e
        rl = e - (rh - s)
        q1 = rh / dh
        p = dh * q1
        q = split * q1
        yh = q - (q - q1)
        yl = q1 - yh
        e = ((dhh * yh - p) + dhh * yl + dhl * yh) + dhl * yl
        e += dl * q1
        ph = p + e
        pl = e - (ph - p)
        s = rh - ph
        bb = s - rh
        e = (rh - (s - bb)) + (-ph - bb)
        e += rl - pl
        rh = s + e
        q2 = rh / dh
        s = q0 + q1
        e = (q1 - (s - q0)) + q2
        th = s + e
        tl = e - (th - s)
        # t /= k (_dd_div by an integer k < 2^26: its split is (k, 0))
        fk = float(k)
        q0 = th / fk
        p = fk * q0
        q = split * q0
        yh = q - (q - q0)
        yl = q0 - yh
        e = (fk * yh - p) + fk * yl
        ph = p + e
        pl = e - (ph - p)
        s = th - ph
        bb = s - th
        e = (th - (s - bb)) + (-ph - bb)
        e += tl - pl
        rh = s + e
        rl = e - (rh - s)
        q1 = rh / fk
        p = fk * q1
        q = split * q1
        yh = q - (q - q1)
        yl = q1 - yh
        e = (fk * yh - p) + fk * yl
        ph = p + e
        pl = e - (ph - p)
        s = rh - ph
        bb = s - rh
        e = (rh - (s - bb)) + (-ph - bb)
        e += rl - pl
        rh = s + e
        q2 = rh / fk
        s = q0 + q1
        e = (q1 - (s - q0)) + q2
        th = s + e
        tl = e - (th - s)
        if th == 0.0:
            break
        # s += t (_dd_add)
        s = sh + th
        bb = s - sh
        e = (sh - (s - bb)) + (th - bb)
        e += sl + tl
        sh = s + e
        sl = e - (sh - s)
        # a += |t| (_dd_add)
        if th > 0.0:
            xh, xl = th, tl
        else:
            xh, xl = -th, -tl
        s = ah + xh
        bb = s - ah
        e = (ah - (s - bb)) + (xh - bb)
        e += al + xl
        ah = s + e
        al = e - (ah - s)
        mag = abs(th)
        if k >= 4 and mag < 1e-33 * ah and mag <= prev_mag:
            break
        prev_mag = mag
    else:
        raise AccuracyError(
            f"kummer_m series did not converge within {_KUMMER_MAX_TERMS} terms "
            f"at z={z!r}", value=z)
    return sh + sl, ah


def _kummer_sum(b: float, c: float, z: float) -> float:
    value, abs_sum = _kummer_series(b, c, z)
    loss = abs_sum / max(abs(value), 5e-324)
    if loss <= _KUMMER_ESCALATE_LOSS:
        return value
    value, abs_sum = _kummer_series_dd(b, c, z)
    loss = abs_sum / max(abs(value), 5e-324)
    if loss > _KUMMER_FAIL_LOSS:
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
