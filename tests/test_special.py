"""Kernel accuracy tests for triq.special.

Reference values were computed once with mpmath at 50 significant digits and
frozen here, so the suite runs without any special-function dependency.
TestContractsAgainstMpmath checks the contracts against mpmath itself and
skips where it is not installed.
"""

import decimal
import functools
import math
import random
import re

import numpy as np
import pytest

import triq.scatter
import triq.special
from triq.errors import AccuracyError, DomainError, TriqError
from triq.model import (MassParams, PotentialProfile, barrier_coefficients,
                        make_units)
from triq.scatter import _SECOND_BUDGET, RegionIIBasis, basis_for, sweep
from triq.special import (
    _AIRY_NEG_LIMIT,
    _KUMMER_FAIL_LOSS,
    _KUMMER_MAX_TERMS,
    KUMMER_ENVELOPE,
    _airy_array,
    _airy_asym_neg,
    _kummer_loss,
    _kummer_m_array,
    _kummer_series,
    _kummer_series_dd,
    _oscillatory_phase,
    _plain_kept,
    airy_ai,
    airy_bi,
    gamma,
    kummer_m,
    kummer_m_regularized,
    recip_gamma,
    tricomi_u_large_z,
)

# (y, Ai, Ai') spanning every evaluation regime
AIRY_AI_TABLE = [
    (-28.7, 0.09177351403843766, 1.2105711351843178),
    (-12.0, -0.06655517505437313, 1.0231104533679707),
    (-9.6, 0.31465158331169335, 0.19695044232125805),
    (-7.3, 0.3357703705151473, -0.18009580448329365),
    (-4.6, 0.33749597548946275, -0.3795339143358459),
    (-2.5, -0.11232506769296609, 0.6788527342647943),
    (-1.0, 0.5355608832923521, -0.01016056711664521),
    (0.5, 0.23169360648083348, -0.2249105326646839),
    (2.0, 0.03492413042327438, -0.05309038443365363),
    (3.5, 0.002584098786989635, -0.005004413967952583),
    (6.0, 9.947694360252889e-06, -2.4765200397034955e-05),
    (8.0, 4.6922076160992316e-08, -1.3414392979067865e-07),
    (12.0, 1.3931846888753607e-13, -4.854736554985309e-13),
    (25.0, 8.116026824691387e-38, -4.066089337243281e-37),
]

AIRY_BI_TABLE = [
    (-28.7, -0.22581855236541218, 0.4896888320337375),
    (-12.0, -0.2957199120780731, -0.23673219783112331),
    (-9.6, -0.06091292736011371, 0.9734991795471133),
    (-7.3, 0.07087411376989647, 0.9099842704363246),
    (-4.6, 0.18514575794721294, 0.734944443671306),
    (-2.5, -0.4324224718407053, -0.2204201548746296),
    (-1.0, 0.1039973894969446, 0.5923756264227924),
    (0.5, 0.8542770431031554, 0.5445725641405923),
    (2.0, 3.2980949999782148, 4.10068204993289),
    (3.5, 33.05550675461148, 59.164319581360985),
    (6.0, 6536.446104809864, 15725.602621930477),
    (8.0, 1199586.00412446, 3354342.3127445388),
    (12.0, 329807225829.07416, 1135507502443.3708),
    (30.0, 9.057288512151307e+46, 4.953304512891299e+47),
]

# A handful of oscillation zeros; the evaluation must stay on the local
# envelope there even though the value itself passes through zero.
AI_ZEROS = [-2.338107410459767, -4.08794944413097,
            -7.944133587120853, -11.936015563236262]
BI_ZEROS = [-1.173713222709128, -3.271093302836353,
            -7.376762079367763, -11.476953551278779]

GAMMA_TABLE = [
    (0.5, 1.772453850905516),
    (4.7, 15.431411600047436),
    (11.25, 6552134.137490662),
    (12.0, 39916800.0),
    (25.5, 3.0867705405286966e+24),
    (101.3, 3.7226163127842244e+158),
    (-0.3, -4.326851108825193),
    (-5.5, 0.010912654781909862),
    (-17.8, 1.494734259402621e-15),
]

# Includes deep-cancellation points that force the double-double rerun.
KUMMER_TABLE = [
    (1.0, 2.0, 1.0, 1.7182818284590453),
    (0.25, 0.5, 3.2, 10.015065498243787),
    (-0.75, 0.5, 12.0, -3377.626842099482),
    (2.3, 1.5, -7.7, -0.004470680196556488),
    (-6.2, 2.5, 9.4, 1.2816206339717475),
    (-13.97, 3.7, 33.76, 1494.3606655779672),
    (-17.49, 0.5, 61.5, -14321290274690.27),
    (0.8, 0.5, 120.0, 8.344695413983108e+52),
    (-4.0, 1.5, 55.0, 108920.78835978836),
    (3.1, 4.2, -90.0, 7.106463584365998e-06),
]

REGULARIZED_TABLE = [
    (0.7, 0.0, 2.5, 16.20443929537525),
    (1.3, -2.0, 4.0, 7118.790065345408),
    (-2.5, -1.0, 6.0, -62.016181822317556),
    (0.25, 0.5, 3.2, 5.650395632657665),
]

TRICOMI_TABLE = [
    (0.25, 0.5, 2.0, 0.7855828987380817),
    (-1.75, 0.5, 5.5, 12.029257038696581),
    (-5.3, 1.5, 14.0, -7943.574685075578),
    (0.4, 0.5, 6.0, 0.46387926756064435),
    (4.9, 0.5, 110.0, 7.9003513429584223e-11),
]

# Deep in the regime where the subtraction form has no correct digits left.
TRICOMI_LARGE_Z_TABLE = [
    (-17.49, 0.5, 141.83, 3.8831189695452125e+36),
    (-16.99, 1.5, 141.83, 3.2605933994497381e+35),
    (-39.7, 0.5, 190.0, 5.1206482316282765e+85),
    (-5.3, 0.5, 60.0, 1675360954.1061587),
    (-2.0, 1.5, 40.0, 1403.75),
    (0.4, 1.5, 60.0, 0.1945476409338998),
]


def envelope(value, derivative, y):
    return max(abs(value), abs(derivative) / math.sqrt(max(1.0, abs(y))))


class TestAiry:
    @pytest.mark.parametrize("y,ref,refp", AIRY_AI_TABLE)
    def test_ai_frozen(self, y, ref, refp):
        got = airy_ai(y)
        scale = envelope(ref, refp, y)
        assert abs(got.value - ref) <= 1e-12 * scale
        assert abs(got.derivative - refp) <= 1e-12 * scale * math.sqrt(max(1.0, abs(y)))

    @pytest.mark.parametrize("y,ref,refp", AIRY_BI_TABLE)
    def test_bi_frozen(self, y, ref, refp):
        got = airy_bi(y)
        scale = envelope(ref, refp, y)
        assert abs(got.value - ref) <= 1e-12 * scale
        assert abs(got.derivative - refp) <= 1e-12 * scale * math.sqrt(max(1.0, abs(y)))

    def test_values_at_origin(self):
        third = 1.0 / 3.0
        ai0 = 3.0 ** (-2.0 * third) / gamma(2.0 * third)
        aip0 = -(3.0 ** (-third)) / gamma(third)
        assert airy_ai(0.0).value == pytest.approx(ai0, rel=1e-14)
        assert airy_ai(0.0).derivative == pytest.approx(aip0, rel=1e-14)
        assert airy_bi(0.0).value == pytest.approx(math.sqrt(3.0) * ai0, rel=1e-14)
        assert airy_bi(0.0).derivative == pytest.approx(-math.sqrt(3.0) * aip0, rel=1e-14)

    def test_wronskian_dense(self):
        # Ai*Bi' - Ai'*Bi == 1/pi everywhere; 401 points across all regimes.
        inv_pi = 1.0 / math.pi
        for i in range(401):
            y = -12.0 + 20.0 * i / 400.0
            ai = airy_ai(y)
            bi = airy_bi(y)
            w = ai.value * bi.derivative - ai.derivative * bi.value
            assert abs(w - inv_pi) <= 1e-12

    @pytest.mark.parametrize("zero", AI_ZEROS)
    def test_ai_near_zero_crossings(self, zero):
        # At a zero the derivative carries the whole envelope; the value must
        # be small on that scale, not small relative to itself.
        for off in (-1e-7, 0.0, 1e-7):
            y = zero + off
            got = airy_ai(y)
            scale = abs(got.derivative) / math.sqrt(abs(y))
            assert abs(got.value) <= max(abs(off) * abs(got.derivative) * 1.01,
                                         1e-12 * scale)

    @pytest.mark.parametrize("zero", BI_ZEROS)
    def test_bi_near_zero_crossings(self, zero):
        for off in (-1e-7, 0.0, 1e-7):
            y = zero + off
            got = airy_bi(y)
            scale = abs(got.derivative) / math.sqrt(abs(y))
            assert abs(got.value) <= max(abs(off) * abs(got.derivative) * 1.01,
                                         1e-12 * scale)

    def test_second_derivative_matches_ode(self):
        # w'' = y*w via a five-point stencil on w'.
        h = 1e-3
        for y in (-8.21, -3.4, -0.7, 1.9, 5.6):
            stencil = (airy_ai(y - 2 * h).derivative - 8 * airy_ai(y - h).derivative
                       + 8 * airy_ai(y + h).derivative - airy_ai(y + 2 * h).derivative)
            second = stencil / (12 * h)
            assert second == pytest.approx(y * airy_ai(y).value, rel=2e-9, abs=1e-12)

    def test_bi_overflow_raises(self):
        with pytest.raises(AccuracyError):
            airy_bi(120.0)

    def test_ai_underflows_cleanly(self):
        got = airy_ai(200.0)
        assert got.value >= 0.0
        assert math.isfinite(got.derivative)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            airy_ai(math.nan)
        with pytest.raises(DomainError):
            airy_bi(math.inf)


def airy_outcomes(y):
    """Per function, .hex() of the scalar (value, derivative) at y, or the
    error's (class name, message)."""
    out = []
    for fn in (airy_ai, airy_bi):
        try:
            pair = fn(y)
            out.append((float(pair.value).hex(), float(pair.derivative).hex()))
        except TriqError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


def array_outcomes(ys):
    """airy_outcomes of every element, read from one _airy_array call."""
    grid = _airy_array(ys)
    out = []
    for i in range(len(ys)):
        row = []
        for value, deriv, failures in ((grid.ai, grid.aip, grid.ai_failures),
                                       (grid.bi, grid.bip, grid.bi_failures)):
            if i in failures:
                assert math.isnan(value[i]) and math.isnan(deriv[i])
                row.append((type(failures[i]).__name__, str(failures[i])))
            else:
                row.append((float(value[i]).hex(), float(deriv[i]).hex()))
        out.append(row)
    return out


# every regime boundary of airy_ai and airy_bi; 103 is Bi's overflow limit
AIRY_BOUNDARIES = (-9.5, -4.5, 0.0, 3.0, 8.0, 103.0)


class TestAiryArray:
    """_airy_array against scalar airy_ai / airy_bi calls, bit for bit."""

    def test_both_sides_of_every_boundary(self):
        ys = [y for b in AIRY_BOUNDARIES for y in
              (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf),
               b - 1e-3, b + 1e-3)] + [-0.0]
        assert array_outcomes(np.array(ys)) == [airy_outcomes(y) for y in ys]

    def test_seeded_random_points(self):
        rng = random.Random(12)
        ys = [rng.uniform(-30.0, 30.0) for _ in range(3000)]
        assert array_outcomes(np.array(ys)) == [airy_outcomes(y) for y in ys]

    @pytest.mark.parametrize("ys", [
        [-12.0 + 18.0 * i / 2000.0 for i in range(2001)],  # airy-wronskian
        [-5.0 + i * 1e-3 for i in range(7001)],            # airy-equation
    ])
    def test_validate_grids(self, ys):
        assert array_outcomes(np.array(ys)) == [airy_outcomes(y) for y in ys]

    @pytest.mark.parametrize("ys", [[], [-6.0], [0.0], [5.0], [-20.0]])
    def test_empty_and_single_element(self, ys):
        grid = _airy_array(np.array(ys, dtype=float))
        assert all(a.shape == (len(ys),) for a in grid[:4])
        assert array_outcomes(np.array(ys, dtype=float)) == \
            [airy_outcomes(y) for y in ys]

    def test_float64_input_matches_float_input(self):
        ys = [-11.0, -7.25, -1.5, 0.0, 4.0, 9.0]
        from_floats = array_outcomes(ys)
        assert array_outcomes([np.float64(y) for y in ys]) == from_floats
        assert from_floats == [airy_outcomes(np.float64(y)) for y in ys]

    def test_refused_elements_report_the_scalar_error(self):
        # non-finite y refuses both functions, y past 103 Bi alone; the
        # rest of the array is unaffected
        ys = [math.nan, -1.0, math.inf, 120.0, -math.inf, 1e300, 7.0]
        grid = _airy_array(np.array(ys))
        assert list(grid.ai_failures) == [0, 2, 4]
        assert list(grid.bi_failures) == [0, 2, 3, 4, 5]
        assert isinstance(grid.ai_failures[0], DomainError)
        assert isinstance(grid.bi_failures[3], AccuracyError)
        assert array_outcomes(np.array(ys)) == [airy_outcomes(y) for y in ys]

    def test_subnormal_argument_is_the_origin(self):
        # 1/y overflows below about 5.6e-309: the Maclaurin start is exact
        # there, where the loop took 0 * inf into both derivatives
        ys = [5e-324, -5e-324, 2.2e-308, -2.2e-308]
        origin = airy_outcomes(0.0)
        assert [airy_outcomes(y) for y in ys] == [origin] * 4
        assert array_outcomes(np.array(ys)) == [origin] * 4

    def test_far_negative_argument_is_refused(self):
        # below the limit the phase misses the contract; both routes refuse
        # with the scalar error, and the limit itself is evaluated
        ys = [_AIRY_NEG_LIMIT, math.nextafter(_AIRY_NEG_LIMIT, -math.inf),
              -1e7, -1e308, -2.0]
        for y in ys[1:4]:
            for fn in (airy_ai, airy_bi):
                with pytest.raises(AccuracyError, match=(
                        rf"^{fn.__name__} accuracy lost at y={re.escape(repr(y))}, "
                        r"below -1000000\.0$")) as info:
                    fn(y)
                assert info.value.value == y
        grid = _airy_array(np.array(ys))
        assert list(grid.ai_failures) == list(grid.bi_failures) == [1, 2, 3]
        assert array_outcomes(np.array(ys)) == [airy_outcomes(y) for y in ys]


class TestGamma:
    @pytest.mark.parametrize("x,ref", GAMMA_TABLE)
    def test_frozen(self, x, ref):
        assert gamma(x) == pytest.approx(ref, rel=1e-13)

    def test_integer_factorials(self):
        fact = 1.0
        for n in range(1, 21):
            assert gamma(float(n)) == pytest.approx(fact, rel=1e-13)
            fact *= n

    def test_reflection(self):
        for x in (0.12, 0.5, 0.987, 1.3, 2.75, 7.6):
            lhs = gamma(x) * gamma(1.0 - x)
            assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-12)

    def test_recip_gamma_poles_exact(self):
        for n in range(0, 15):
            assert recip_gamma(float(-n)) == 0.0

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            gamma(-3.0)


class TestKummer:
    @pytest.mark.parametrize("b,c,z,ref", KUMMER_TABLE)
    def test_frozen(self, b, c, z, ref):
        assert kummer_m(b, c, z) == pytest.approx(ref, rel=1e-10)

    def test_exponential_reduction(self):
        # M(b;b;z) = e^z for any b.
        for z in (-30.0, -2.5, 0.3, 7.0, 45.0):
            assert kummer_m(1.7, 1.7, z) == pytest.approx(math.exp(z), rel=1e-12)

    def test_terminating_polynomial(self):
        # M(-2;c;z) = 1 - 2z/c + z^2/(c(c+1)) exactly.
        c, z = 1.5, 9.25
        expect = 1.0 - 2.0 * z / c + z * z / (c * (c + 1.0))
        assert kummer_m(-2.0, c, z) == pytest.approx(expect, rel=1e-13)

    def test_contiguous_relation(self):
        # b*M(b+1) = (2b - c + z)*M(b) + (c - b)*M(b-1)
        for b, c, z in [(1.3, 0.5, 4.0), (-2.6, 1.5, 7.7), (0.9, 2.5, -12.0)]:
            lhs = b * kummer_m(b + 1.0, c, z)
            rhs = (2.0 * b - c + z) * kummer_m(b, c, z) + (c - b) * kummer_m(b - 1.0, c, z)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_derivative_identity(self):
        # d/dz M(b;c;z) = (b/c) M(b+1;c+1;z); the interior basis derivatives
        # stand on this, so pin it against central differences directly.
        h = 1e-6
        for b, c, z in [(-0.17, 0.5, 3.5), (-2.3, 1.5, 8.0), (1.1, 0.5, -5.0)]:
            numeric = (kummer_m(b, c, z + h) - kummer_m(b, c, z - h)) / (2.0 * h)
            analytic = (b / c) * kummer_m(b + 1.0, c + 1.0, z)
            assert analytic == pytest.approx(numeric, rel=5e-9)

    def test_regularized_derivative_identity(self):
        # d/dz [M(b;c;z)/Gamma(c)] = b * M(b+1;c+1;z)/Gamma(c+1)
        h = 1e-6
        for b, c, z in [(-0.17, 0.5, 3.5), (-16.99, 1.5, 12.0), (0.4, 2.5, 6.0)]:
            numeric = (kummer_m_regularized(b, c, z + h)
                       - kummer_m_regularized(b, c, z - h)) / (2.0 * h)
            analytic = b * kummer_m_regularized(b + 1.0, c + 1.0, z)
            assert analytic == pytest.approx(numeric, rel=5e-9)

    def test_unity_at_zero_argument(self):
        assert kummer_m(3.7, 0.5, 0.0) == 1.0

    def test_envelope_raises(self):
        with pytest.raises(AccuracyError):
            kummer_m(0.5, 1.5, KUMMER_ENVELOPE + 1.0)

    def test_nonpositive_integer_c_raises(self):
        with pytest.raises(DomainError):
            kummer_m(0.5, -2.0, 1.0)

    def test_hopeless_cancellation_raises(self):
        # Loss beyond what the double-double rerun can absorb must surface
        # as an error, never as a quietly wrong number.
        with pytest.raises(AccuracyError):
            kummer_m(-24.833, 0.5, 33.574)

    @pytest.mark.parametrize("b,c,z,ref", REGULARIZED_TABLE)
    def test_regularized_frozen(self, b, c, z, ref):
        assert kummer_m_regularized(b, c, z) == pytest.approx(ref, rel=1e-10)

    def test_regularized_continuous_in_c(self):
        b, z = 0.7, 2.5
        at_pole = kummer_m_regularized(b, 0.0, z)
        nearby = kummer_m_regularized(b, 1e-7, z)
        assert nearby == pytest.approx(at_pole, rel=1e-6)


def reference_series(b, c, z):
    """_kummer_series as it read before abs(term) was taken once per term."""
    s = 1.0
    comp = 0.0
    abs_sum = 1.0
    term = 1.0
    prev_mag = 1.0
    for k in range(1, _KUMMER_MAX_TERMS + 1):
        term *= (b + k - 1.0) * z / ((c + k - 1.0) * k)
        if term == 0.0:
            break
        t = s + term
        if abs(s) >= abs(term):
            comp += (s - t) + term
        else:
            comp += (term - t) + s
        s = t
        abs_sum += abs(term)
        mag = abs(term)
        if k >= 4 and mag < 1e-17 * abs_sum and mag <= prev_mag:
            break
        prev_mag = mag
    else:
        raise AccuracyError(
            f"kummer_m series did not converge within {_KUMMER_MAX_TERMS} terms "
            f"at z={z!r}", value=z)
    return s + comp, abs_sum


# Double-double arithmetic (error-free transformations): the reference
# form of the extended-precision route before it moved to 34-digit decimal.

_SPLITTER = 134217729.0  # 2^27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _dd_add(xh, xl, yh, yl):
    s, e = _two_sum(xh, yh)
    e += xl + yl
    return _quick_two_sum(s, e)


def _dd_mul(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    e += xh * yl + xl * yh
    return _quick_two_sum(p, e)


def _dd_div(xh, xl, yh, yl):
    q0 = xh / yh
    ph, pl = _dd_mul(yh, yl, q0, 0.0)
    rh, rl = _dd_add(xh, xl, -ph, -pl)
    q1 = rh / yh
    ph, pl = _dd_mul(yh, yl, q1, 0.0)
    rh, rl = _dd_add(rh, rl, -ph, -pl)
    q2 = rh / yh
    s, e = _quick_two_sum(q0, q1)
    return _quick_two_sum(s, e + q2)


_PI4_HI = 0.7853981633974483
_PI4_LO = 3.061616997868383e-17


def reference_phase(t):
    """_oscillatory_phase in double-double form."""
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


@functools.cache
def reference_series_dd(b, c, z):
    """_kummer_series_dd in double-double form (cached: two tests judge the
    same inputs against it)."""
    sh, sl = 1.0, 0.0
    ah, al = 1.0, 0.0
    th, tl = 1.0, 0.0
    prev_mag = 1.0
    for k in range(1, _KUMMER_MAX_TERMS + 1):
        nh, nl = _two_sum(b, k - 1.0)
        dh, dl = _two_sum(c, k - 1.0)
        th, tl = _dd_mul(th, tl, nh, nl)
        th, tl = _dd_mul(th, tl, z, 0.0)
        th, tl = _dd_div(th, tl, dh, dl)
        th, tl = _dd_div(th, tl, float(k), 0.0)
        if th == 0.0:
            break
        sh, sl = _dd_add(sh, sl, th, tl)
        if th > 0.0:
            ah, al = _dd_add(ah, al, th, tl)
        else:
            ah, al = _dd_add(ah, al, -th, -tl)
        mag = abs(th)
        if k >= 4 and mag < 1e-33 * ah and mag <= prev_mag:
            break
        prev_mag = mag
    else:
        raise AccuracyError(
            f"kummer_m series did not converge within {_KUMMER_MAX_TERMS} terms "
            f"at z={z!r}", value=z)
    return sh + sl, ah


# The 34-digit decimal form of the rerun, before it moved to integer fixed
# point: every operation rounded in one context of its own.
_DEC34 = decimal.Context(prec=34, rounding=decimal.ROUND_HALF_EVEN)
_DEC34_STOP = decimal.Decimal("1e-33")


def reference_series_decimal(b, c, z):
    """_kummer_series_dd in 34-digit decimal."""
    add, mul, div = _DEC34.add, _DEC34.multiply, _DEC34.divide
    bd, cd, zd = map(decimal.Decimal.from_float, (b, c, z))
    s = abs_sum = term = prev_mag = decimal.Decimal(1)
    for k in range(1, _KUMMER_MAX_TERMS + 1):
        term = mul(term, div(mul(add(bd, k - 1), zd), mul(add(cd, k - 1), k)))
        if not term:
            break
        mag = term.copy_abs()
        s = add(s, term)
        abs_sum = add(abs_sum, mag)
        if k >= 4 and mag <= prev_mag and mag < mul(_DEC34_STOP, abs_sum):
            break
        prev_mag = mag
    else:
        raise AccuracyError(
            f"kummer_m series did not converge within {_KUMMER_MAX_TERMS} terms "
            f"at z={z!r}", value=z)
    return float(s), float(abs_sum)


def outcome(fn, b, c, z):
    """Hex of (value, abs_sum), or the AccuracyError message."""
    try:
        return tuple(v.hex() for v in fn(b, c, z))
    except AccuracyError as exc:
        return ("AccuracyError", str(exc))


def seeded_box(n=300, seed=20161):
    rng = random.Random(seed)
    return [(rng.uniform(-120.0, 3.0), rng.choice((0.5, 1.5, 2.5)),
             300.0 * (1.0 - rng.random())) for _ in range(n)]


def judged(fn, b, c, z):
    """outcome of fn as _kummer_sum judges it: the hex pair where the sum is
    kept, "refused" where its loss refuses it, or the AccuracyError."""
    got = outcome(fn, b, c, z)
    if (got[0] != "AccuracyError"
            and _kummer_loss(*map(float.fromhex, got)) > _KUMMER_FAIL_LOSS):
        return "refused"
    return got


def recorded_reruns(run):
    """The rerun inputs of run(), in order."""
    seen = []
    dd = triq.special._kummer_series_dd

    def recorded(*args):
        seen.append(args)
        return dd(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triq.special, "_kummer_series_dd", recorded)
        run()
    return tuple(seen)


def sweep_reruns(lo, hi, n):
    return recorded_reruns(lambda: sweep(
        "E", [lo + (hi - lo) * i / (n - 1) for i in range(n)],
        MassParams(), PotentialProfile(), make_units()))


@functools.cache
def sweep_dd_inputs():
    """Every rerun input of a 100-point 2.25-3.9 eV sweep, in order."""
    return sweep_reruns(2.25, 3.9, 100)


@functools.cache
def wide_sweep_reruns():
    """Every rerun input of the 200-point 0.02-2.25 eV sweep, in order."""
    return sweep_reruns(0.02, 2.25, 200)


@functools.cache
def validate_grid_reruns():
    """Every rerun input of validate's 7001-point interior grid at 2.25 eV."""
    basis = basis_for(barrier_coefficients(2.25, MassParams(), PotentialProfile(),
                                           make_units()))
    return recorded_reruns(
        lambda: basis.kernels(np.array([i * 1e-3 for i in range(7001)])))


class TestKummerKernelsBitIdentical:
    """The kernels are rewritten for speed only: same doubles, same errors."""

    def test_double_double_matches_helper_form(self):
        # the 34-digit rerun against the double-double one, judged where
        # _kummer_sum judges it: the same doubles wherever the reference's
        # result is kept, and a refusal wherever the reference is refused
        dd_inputs = list(sweep_dd_inputs())
        assert len(dd_inputs) > 100
        kept = refused = 0
        for b, c, z in seeded_box() + dd_inputs:
            want = reference_series_dd(b, c, z)
            got = _kummer_series_dd(b, c, z)
            if _kummer_loss(*want) <= _KUMMER_FAIL_LOSS:
                kept += 1
                assert [v.hex() for v in got] == [v.hex() for v in want], (b, c, z)
            else:
                refused += 1
                assert _kummer_loss(*got) > _KUMMER_FAIL_LOSS, (b, c, z)
        assert kept > 200 and refused > 100
        # terms still rising at the last one: both raise the same error
        b, c, z = 1e-300, 0.5, 1000.0
        assert outcome(_kummer_series_dd, b, c, z)[0] == "AccuracyError"
        assert (outcome(_kummer_series_dd, b, c, z)
                == outcome(reference_series_dd, b, c, z))

    def test_fixed_point_matches_both_references(self):
        # the integer rerun against the 34-digit decimal and the
        # double-double ones over every rerun corpus: the same doubles where
        # the sum is kept, a refusal where it is refused, the same errors
        wide = wide_sweep_reruns()
        grid = validate_grid_reruns()
        assert len(wide) == 83 and len(grid) == 3472
        grid_sample = random.Random(20163).sample(grid, 500)
        verdicts = []
        for b, c, z in (seeded_box() + list(sweep_dd_inputs()) + list(wide)
                        + grid_sample):
            got = judged(_kummer_series_dd, b, c, z)
            assert got == judged(reference_series_decimal, b, c, z), (b, c, z)
            assert got == judged(reference_series_dd, b, c, z), (b, c, z)
            verdicts.append(got if isinstance(got, str) else "kept")
        assert verdicts.count("kept") > 800 and verdicts.count("refused") > 200

    @pytest.mark.parametrize("b, c, z", [
        (-3.0, 1.5, 30.0),  # polynomials
        (0.0, 0.5, 10.0),
        (-17.0, 2.5, 120.0),
        (math.nextafter(-3.0, 0.0), 1.5, 30.0),  # one ulp either side of -3
        (math.nextafter(-3.0, -math.inf), 1.5, 30.0),
        (1e-300, 0.5, 1000.0),  # terms still rising at the last one
        (5e-324, 0.5, 1000.0),
        (1e-140, 0.5, 300.0),  # tiny b whose rising terms reach the sum
        (-0.3, 1.5, 5e-324),  # subnormal z
        (-40.0, 0.5, 1e-310),
        (-120.0, 2.5, 300.0),  # the envelope corner, refused
        (1e3, 0.5, 300.0),  # terms past the double range: inf
    ])
    def test_fixed_point_edge_cases(self, b, c, z):
        want = judged(reference_series_decimal, b, c, z)
        assert judged(_kummer_series_dd, b, c, z) == want
        # np.float64 inputs: the same bits (an error's message shows the
        # argument's repr, as the reference's does)
        args = tuple(map(np.float64, (b, c, z)))
        got = judged(_kummer_series_dd, *args)
        assert got == judged(reference_series_decimal, *args)
        if z == 1000.0:
            assert want[0] == got[0] == "AccuracyError"
        else:
            assert got == want

    def test_phase_matches_double_double(self):
        rng = random.Random(20162)
        ts = [9.5, 1e4] + [rng.uniform(9.5, 1e4) for _ in range(2000)] + [
            math.exp(rng.uniform(math.log(9.5), math.log(1e4)))
            for _ in range(2000)]
        for t in ts:
            assert ([v.hex() for v in _oscillatory_phase(t)]
                    == [v.hex() for v in reference_phase(t)]), t

    def test_independent_of_the_callers_decimal_context(self):
        inputs = list(sweep_dd_inputs())
        ys = [-9.5, -12.0, -28.7, -1e3, -1e5]

        def run():
            return ([outcome(_kummer_series_dd, *args) for args in inputs],
                    [[v.hex() for v in (*airy_ai(y), *airy_bi(y))] for y in ys])

        want = run()
        with decimal.localcontext() as ctx:
            ctx.prec = 3
            ctx.traps[decimal.FloatOperation] = True
            before = repr(ctx)
            assert run() == want
            assert repr(ctx) == before
            assert decimal.getcontext() is ctx

    def test_plain_matches_reference(self):
        for b, c, z in seeded_box(2000) + list(sweep_dd_inputs()):
            assert (outcome(_kummer_series, b, c, z)
                    == outcome(reference_series, b, c, z)), (b, c, z)

    def test_array_matches_scalar_calls(self, monkeypatch):
        # one array per (b, c) of the box: 30 of its z, then the inputs
        # kummer_m routes elsewhere (zero, negative, past the envelope, NaN);
        # NaN where the scalar call raises, and every error reported
        reruns = []
        dd = triq.special._kummer_series_dd
        monkeypatch.setattr(triq.special, "_kummer_series_dd",
                            lambda *args: reruns.append(args) or dd(*args))
        box = seeded_box(240)
        extra = [0.0, -3.5, 1.01 * KUMMER_ENVELOPE, math.nan]
        refused = 0
        for j in range(0, len(box), 30):
            b, c, _ = box[j]
            zs = [z for _, _, z in box[j:j + 30]] + extra
            values, failures = _kummer_m_array(b, c, np.array(zs))
            want = [scalar_outcome(b, c, z) for z in zs]
            for v, w in zip(values.tolist(), want):
                assert v.hex() == w if isinstance(w, str) else math.isnan(v)
            assert list(failures) == [i for i, w in enumerate(want)
                                      if not isinstance(w, str)]
            assert all((type(exc).__name__, str(exc)) == want[i]
                       for i, exc in failures.items())
            refused += sum(not isinstance(w, str) for w in want[:30])
        # both the double-double rerun and its refusal were reached
        assert refused and len(reruns) > 2 * refused

        # mixed (b, c), one pair per element: the box as 60 points of 4
        # series each, a row stopping at its first refusal as a scalar
        # loop over the point does, with the same reruns in the same order
        rows = [box[i:i + 4] for i in range(0, len(box), 4)]
        b, c, z = np.array(rows).transpose(2, 0, 1)
        del reruns[:]
        values, failures = _kummer_m_array(b, c, z)
        grid_reruns = reruns[:]
        del reruns[:]
        want_failures = {}
        for i, row in enumerate(rows):
            for j, (bj, cj, zj) in enumerate(row):
                w = scalar_outcome(bj, cj, zj)
                if not isinstance(w, str):
                    want_failures[i] = w
                    assert np.isnan(values[i, j:]).all()
                    break
                assert values[i, j].hex() == w
        assert grid_reruns == reruns
        assert {i: (type(exc).__name__, str(exc))
                for i, exc in failures.items()} == want_failures
        assert list(failures) == sorted(failures)
        # rows refused before their last series, so reruns were skipped
        assert 0 < len(want_failures) < len(rows)
        assert any(not np.isnan(values[i]).all() for i in want_failures)

    @pytest.mark.parametrize("b", [0.0, -3.0, -17.0])
    def test_array_sums_terminating_series(self, b):
        # b a non-positive integer: the series stops at its first zero term
        zs = [0.3, 7.5, 40.0, 120.0]
        values, failures = _kummer_m_array(b, 1.5, np.array(zs))
        assert failures == {}
        assert [v.hex() for v in values.tolist()] == \
            [scalar_outcome(b, 1.5, z) for z in zs]

    @pytest.mark.parametrize("b, c", [(math.nan, 0.5), (-2.5, math.inf),
                                      (-2.5, -1.0)])
    def test_array_refuses_parameters_as_scalar_calls(self, b, c):
        values, failures = _kummer_m_array(b, c, np.array([0.5, 2.0]))
        assert np.isnan(values).all()
        assert list(failures) == [0, 1]
        assert (type(failures[0]).__name__, str(failures[0])) == \
            scalar_outcome(b, c, 0.5)


def scalar_outcome(b, c, z):
    """Hex of kummer_m(b, c, z), or the error's (class name, message)."""
    try:
        return kummer_m(b, c, z).hex()
    except TriqError as exc:
        return type(exc).__name__, str(exc)


def companion_u(b, z):
    """(U(b; 1/2; z), -dU/dz = b U(b+1; 3/2; z)) from RegionIIBasis.second.

    second() is the solver's only route to Tricomi's U.  With sqrt(a1) = 1
    and the vertex at x = 0, the point x = sqrt(z) has y = x and z = y^2;
    second() returns e^(-z/2) U(b; 1/2; z) and its x-derivative
    e^(-z/2) (dU/dy - y U), where dU/dy = -2 y b U(b+1; 3/2; z).
    """
    basis = RegionIIBasis(b_param=b, sqrt_a1=1.0, y_offset=0.0)
    ker = basis.kernels(math.sqrt(z))
    value, deriv = basis.second(ker)
    u = value / ker.damp
    return u, -(deriv / ker.damp + ker.y * u) / (2.0 * ker.y)


class TestTricomi:
    # c = 1/2 rows check the value, c = 3/2 rows the derivative, on both
    # the subtraction and the recurrence route
    @pytest.mark.parametrize("b,c,z,ref", TRICOMI_TABLE + TRICOMI_LARGE_Z_TABLE)
    def test_frozen(self, b, c, z, ref):
        if c == 0.5:
            got = companion_u(b, z)[0]
        else:
            got = companion_u(b - 1.0, z)[1] / (b - 1.0)
        assert got == pytest.approx(ref, rel=1e-9)

    def test_kummer_style_shift(self):
        # U(b; 1/2; z) = sqrt(z) U(b + 1/2; 3/2; z): the value of one basis
        # against the derivative of another
        z = 3.3
        lhs = companion_u(0.6, z)[0]
        rhs = math.sqrt(z) * companion_u(0.1, z)[1] / 0.1
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_b_zero_is_one(self):
        assert companion_u(0.0, 5.0)[0] == pytest.approx(1.0, rel=1e-13)

    def test_guard_raises_when_both_routes_fail(self):
        # z is too large for the subtraction and too small for the
        # asymptotic seed, so there is nothing honest to return.
        with pytest.raises(AccuracyError, match="companion solution"):
            companion_u(2.2, 14.0)


class TestTricomiLargeZ:
    @pytest.mark.parametrize("b,c,z,ref", TRICOMI_LARGE_Z_TABLE)
    def test_frozen(self, b, c, z, ref):
        value, est = tricomi_u_large_z(b, c, z)
        assert value == pytest.approx(ref, rel=1e-12)
        assert est < 1e-12

    def test_estimate_is_honest(self):
        # Where the seed expansion is weak the estimate must say so, not
        # pretend: compare against the frozen mpmath value.
        value, est = tricomi_u_large_z(-1.75, 0.5, 5.5)
        ref = 12.029257038696581
        assert abs(value - ref) / abs(ref) <= 10.0 * max(est, 1e-16)
        assert est > 1e-8

    def test_shift_identity_across_chains(self):
        # U(b;c;z) = z^(1-c) U(b-c+1; 2-c; z) ties two runs with different
        # seeds and different recurrence coefficients to each other.
        for b, z in ((-6.2, 70.0), (-17.49, 141.83), (-0.9, 45.0)):
            lhs, e1 = tricomi_u_large_z(b, 0.5, z)
            rhs, e2 = tricomi_u_large_z(b + 0.5, 1.5, z)
            assert max(e1, e2) < 1e-12
            assert lhs == pytest.approx(math.sqrt(z) * rhs, rel=1e-11)

    def test_rejects_nonpositive_z(self):
        with pytest.raises(DomainError):
            tricomi_u_large_z(0.5, 0.5, 0.0)


@pytest.fixture(scope="module")
def mp():
    """An mpmath context at 50 digits, apart from mpmath's global one."""
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.MPContext()
    ctx.dps = 50
    return ctx


def airy_within_contract(pair, ref, y):
    """Whether (value, derivative) meets the 1e-12 envelope contract against
    the mpmath function ref at y."""
    value, deriv = ref(y), ref(y, derivative=1)
    scale = envelope(value, deriv, y)
    return (abs(pair[0] - value) <= 1e-12 * scale
            and abs(pair[1] - deriv) <= 1e-12 * scale * math.sqrt(max(1.0, abs(y))))


class TestContractsAgainstMpmath:
    """The documented contracts (module docstring of triq.special and
    scatter._SECOND_BUDGET) on seeded boxes; refused inputs carry none."""

    def test_kummer_m(self, mp):
        # the seeded box, a fifth of it mirrored to z < 0 (the Kummer
        # transformation), and every rerun input of the 2.25-3.9 eV sweep
        box = seeded_box()
        inputs = (box + [(b, c, -z) for b, c, z in box[::5]]
                  + list(sweep_dd_inputs()))
        checked = reruns = 0
        for b, c, z in inputs:
            try:
                got = kummer_m(b, c, z)
            except AccuracyError:
                continue
            ref = mp.hyp1f1(b, c, z)
            assert abs(got - ref) <= 1e-10 * abs(ref), (b, c, z)
            checked += 1
            reruns += z > 0.0 and not _plain_kept(*_kummer_series(b, c, z))
        assert checked > 300 and reruns > 200

    @pytest.mark.parametrize("lo, hi", [
        (-30.0, -9.5),  # oscillatory asymptotics
        (-9.5, -4.5),   # march from the series anchor
        (-4.5, 3.0),    # Maclaurin series
        (3.0, 8.0),     # Ai: march from the asymptotic anchor; Bi: series
        (8.0, 30.0),    # exponential asymptotics
    ])
    def test_airy(self, mp, lo, hi):
        rng = random.Random(20164)
        for y in [lo, hi] + [rng.uniform(lo, hi) for _ in range(40)]:
            for kernel, ref in ((airy_ai, mp.airyai), (airy_bi, mp.airybi)):
                assert airy_within_contract(kernel(y), ref, y), (kernel, y)

    def test_airy_refusal_limit(self, mp):
        # _AIRY_NEG_LIMIT is the most negative power of ten where the
        # contract still holds: every one down to it passes, and the
        # asymptotics ten times further out miss it
        k = 1
        while -10.0 ** k >= _AIRY_NEG_LIMIT:
            y = -10.0 ** k
            for kernel, ref in ((airy_ai, mp.airyai), (airy_bi, mp.airybi)):
                assert airy_within_contract(kernel(y), ref, y), (kernel, y)
            k += 1
        assert -10.0 ** (k - 1) == _AIRY_NEG_LIMIT
        y = 10.0 * _AIRY_NEG_LIMIT
        ai, aip, bi, bip = _airy_asym_neg(y)
        assert not (airy_within_contract((ai, aip), mp.airyai, y)
                    and airy_within_contract((bi, bip), mp.airybi, y))

    def test_companion_solution(self, mp, monkeypatch):
        # second() on each route: the route is the recurrence where the
        # result changes once the recurrence can never win
        def evaluated(b, z):
            try:
                return companion_u(b, z)
            except AccuracyError:
                return None

        rng = random.Random(20165)
        checked = {"subtraction": 0, "recurrence": 0}
        for i in range(300):
            b = rng.uniform(-45.0, 3.0)
            z = rng.uniform(0.05, 250.0 if i % 2 else 30.0)
            got = evaluated(b, z)
            if got is None:
                continue
            with monkeypatch.context() as patch:
                patch.setattr(triq.scatter, "tricomi_u_large_z",
                              lambda *args: (math.nan, math.inf))
                alone = evaluated(b, z)
            checked["subtraction" if alone == got else "recurrence"] += 1
            # (U(b; 1/2; z), -dU/dz)
            for part, ref in zip(got, (mp.hyperu(b, 0.5, z),
                                       b * mp.hyperu(b + 1.0, 1.5, z))):
                assert abs(part - ref) <= _SECOND_BUDGET * abs(ref), (b, z)
        assert min(checked.values()) > 50, checked
