"""Kernel accuracy tests for triq.special.

Reference values were computed once with mpmath at 50 significant digits and
frozen here, so the suite runs without any special-function dependency.
"""

import math
import random

import pytest

import triq.special
from triq.errors import AccuracyError, DomainError
from triq.model import MassParams, PotentialProfile, make_units
from triq.scatter import RegionIIBasis, transmission
from triq.special import (
    _KUMMER_MAX_TERMS,
    KUMMER_ENVELOPE,
    _dd_add,
    _dd_div,
    _dd_mul,
    _kummer_series,
    _kummer_series_dd,
    _two_sum,
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


def reference_series_dd(b, c, z):
    """_kummer_series_dd in its helper form, the loop the inlined one expands."""
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


def sweep_dd_inputs(monkeypatch):
    """Every double-double input of a 100-point 2.25-3.9 eV sweep."""
    seen = []
    dd = triq.special._kummer_series_dd

    def recorded(*args):
        seen.append(args)
        return dd(*args)

    monkeypatch.setattr(triq.special, "_kummer_series_dd", recorded)
    u, mp, pp = make_units(), MassParams(), PotentialProfile()
    for i in range(100):
        try:
            transmission(2.25 + (3.9 - 2.25) * i / 99, mp, pp, u)
        except AccuracyError:
            pass
    monkeypatch.undo()
    return seen


class TestKummerKernelsBitIdentical:
    """The kernels are rewritten for speed only: same doubles, same errors."""

    def test_double_double_matches_helper_form(self, monkeypatch):
        dd_inputs = sweep_dd_inputs(monkeypatch)
        assert len(dd_inputs) > 100
        for b, c, z in seeded_box() + dd_inputs:
            assert (outcome(_kummer_series_dd, b, c, z)
                    == outcome(reference_series_dd, b, c, z)), (b, c, z)

    def test_plain_matches_reference(self, monkeypatch):
        for b, c, z in seeded_box(2000) + sweep_dd_inputs(monkeypatch):
            assert (outcome(_kummer_series, b, c, z)
                    == outcome(reference_series, b, c, z)), (b, c, z)


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
