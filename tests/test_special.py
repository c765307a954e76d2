"""Kernel accuracy tests for triq.special.

Reference values were computed once with mpmath at 50 significant digits and
frozen here, so the suite runs without any special-function dependency.
TestContractsAgainstMpmath checks the contracts against mpmath itself and
skips where it is not installed.
"""

import dataclasses
import decimal
import functools
import math
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import triq.scatter
import triq.special
import triq.validate
from triq.errors import AccuracyError, DomainError, TriqError
from triq.model import (MassParams, PotentialProfile, airy_scale,
                        barrier_coefficients, make_units)
from triq.scatter import (_SECOND_BUDGET, RegionIIBasis, _Kernels, basis_for,
                          sweep)
from triq.special import (
    _AI_NEG_LADDER,
    _AI_POS_LADDER,
    _AIRY_MARCH_STEP,
    _AIRY_NEG_LIMIT,
    _BI_NEG_LADDER,
    _KUMMER_BLOCK_BUDGET,
    _KUMMER_BLOCK_MAX,
    _KUMMER_BLOCK_MIN,
    _KUMMER_FAIL_LOSS,
    _KUMMER_MAX_TERMS,
    _PHASE_BITS,
    _PI4_FIXED,
    KUMMER_ENVELOPE,
    TRICOMI_CF_LEAST,
    _airy_array,
    _airy_asym_neg,
    _airy_asym_pos,
    _airy_taylor_step,
    _kummer_m_array,
    _kummer_series,
    _kummer_series_array,
    _kummer_series_dd,
    _loss,
    _oscillatory_phase,
    _plain_kept,
    _recip_gamma_array,
    airy_ai,
    airy_bi,
    gamma,
    kummer_m,
    kummer_m_regularized,
    recip_gamma,
    tricomi_u_cf,
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

# U(2.2; 1/2; 14), where the two-term form cancels past the budget
HYPERU_2_2_14 = 0.0021044460477685400


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
    """Per function, .hex() of the scalar (value, derivative) at y, or
    "refused" where the call raises."""
    out = []
    for fn in (airy_ai, airy_bi):
        try:
            pair = fn(y)
            out.append((float(pair.value).hex(), float(pair.derivative).hex()))
        except TriqError:
            out.append("refused")
    return out


def array_outcomes(ys):
    """airy_outcomes of every element, read from one _airy_array call,
    where a NaN value and derivative read "refused"."""
    grid = _airy_array(ys)
    out = []
    for i in range(len(ys)):
        row = []
        for value, deriv in ((grid.ai, grid.aip), (grid.bi, grid.bip)):
            if math.isnan(value[i]) and math.isnan(deriv[i]):
                row.append("refused")
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
        # the scalar calls give Python floats in every regime, the
        # asymptotic ones included, and refuse with a float's repr
        for y in (8.0, 9.5, 50.0, 103.0, -9.5, -20.0, -1e6):
            for fn in (airy_ai, airy_bi):
                pairs = [fn(y), fn(np.float64(y))]
                assert all(type(v) is float for pair in pairs for v in pair)
                assert [v.hex() for v in pairs[0]] == [v.hex() for v in pairs[1]]
        for fn, y in ((airy_bi, 120.0), (airy_ai, -1e7), (airy_bi, -1e7)):
            with pytest.raises(AccuracyError, match=rf"at y={re.escape(repr(y))}"
                               r"(,|$)") as info:
                fn(np.float64(y))
            assert type(info.value.value) is float

    def test_refused_elements_report_the_scalar_error(self):
        # non-finite y refuses both functions, y past 103 Bi alone: NaN in
        # the array, an error in the scalar call; the rest of the array is
        # unaffected
        ys = [math.nan, -1.0, math.inf, 120.0, -math.inf, 1e300, 7.0]
        grid = _airy_array(np.array(ys))
        assert np.flatnonzero(np.isnan(grid.ai)).tolist() == [0, 2, 4]
        assert np.flatnonzero(np.isnan(grid.bi)).tolist() == [0, 2, 3, 4, 5]
        with pytest.raises(DomainError):
            airy_ai(ys[0])
        with pytest.raises(AccuracyError):
            airy_bi(ys[3])
        assert array_outcomes(np.array(ys)) == [airy_outcomes(y) for y in ys]

    def test_bi_only_where_asked(self, monkeypatch):
        # Ai is unchanged everywhere and Bi is the scalar call's where
        # asked and NaN elsewhere; the Maclaurin pass takes the elements
        # of (3, 8) only for Bi, so only where Bi is asked
        rng = random.Random(13)
        ys = np.array([rng.uniform(-12.0, 12.0) for _ in range(600)]
                      + [3.0, 5.0, 8.0, -4.5, -9.5, 120.0, math.nan])
        asked = np.array([rng.random() < 0.5 for _ in range(ys.size)])
        summed = []
        series = triq.special._airy_series_array

        def spy(y):
            summed.extend(y.tolist())
            return series(y)
        monkeypatch.setattr(triq.special, "_airy_series_array", spy)
        full = _airy_array(ys)
        summed.clear()
        part = _airy_array(ys, asked)
        assert full.ai.tobytes() == part.ai.tobytes()
        assert full.aip.tobytes() == part.aip.tobytes()
        for got, want in ((part.bi, full.bi), (part.bip, full.bip)):
            assert got[asked].tobytes() == want[asked].tobytes()
            assert np.isnan(got[~asked]).all()
        on_series = (ys >= -4.5) & (ys < 8.0)
        assert summed == ys[on_series & ((ys <= 3.0) | asked)].tolist()

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
        assert (np.flatnonzero(np.isnan(grid.ai)).tolist()
                == np.flatnonzero(np.isnan(grid.bi)).tolist() == [1, 2, 3])
        assert array_outcomes(np.array(ys)) == [airy_outcomes(y) for y in ys]


# (function, band, ladder, anchor) of each march: Ai down from the
# asymptotic anchor at 8, Ai and Bi down from the series anchor at -4.5
MARCHES = (
    (airy_ai, (3.0, 8.0), _AI_POS_LADDER, 8.0),
    (airy_ai, (-9.5, -4.5), _AI_NEG_LADDER, -4.5),
    (airy_bi, (-9.5, -4.5), _BI_NEG_LADDER, -4.5),
)


def march_points(band, ladder):
    """400 seeded points of the open band, then every node of the ladder
    and the doubles either side of it that fall inside the band."""
    lo, hi = band
    rng = random.Random(23)
    ys = [rng.uniform(lo, hi) for _ in range(400)]
    ys += [y for x in ladder[0] for y in (
        math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]
    return [y for y in ys if lo < y < hi]


# the worst envelope error of each march on march_points against mpmath,
# measured when pinned: 2.77e-15, 1.60e-14 and 1.83e-14
AIRY_MARCH_WORST = {
    ("airy_ai", (3.0, 8.0)): 2.8e-15,
    ("airy_ai", (-9.5, -4.5)): 1.6e-14,
    ("airy_bi", (-9.5, -4.5)): 1.9e-14,
}


class TestAiryMarch:
    """The march ladders: nodes built at import, one Taylor step a point."""

    @pytest.mark.parametrize("fn, band, ladder, anchor", MARCHES)
    def test_nodes_are_the_chained_steps(self, fn, band, ladder, anchor):
        # from the anchor's scalar value, whole steps of -0.75 down to the
        # last node above the band's lower end, each node bit for bit
        xs, ws, wps = ladder
        x, (w, wp) = anchor, fn(anchor)
        chain = [(x, w, wp)]
        while x - _AIRY_MARCH_STEP > band[0]:
            w, wp = _airy_taylor_step(x, w, wp, -_AIRY_MARCH_STEP)
            x -= _AIRY_MARCH_STEP
            chain.append((x, w, wp))
        assert len(chain) == 7
        got = list(zip(xs, ws, wps))[::-1]
        assert [[v.hex() for v in node] for node in got] == \
            [[v.hex() for v in node] for node in chain]
        assert all(type(v) is float for node in got for v in node)
        assert xs[0] - _AIRY_MARCH_STEP <= band[0] < xs[0]
        # a node's own value is its node's, whichever route the call takes
        for x, w, wp in chain:
            assert [v.hex() for v in fn(x)] == [w.hex(), wp.hex()], x

    @pytest.mark.parametrize("fn, band, ladder, anchor", MARCHES)
    def test_one_downward_step_from_the_nearest_node(self, fn, band, ladder,
                                                     anchor, monkeypatch):
        steps = []
        step = triq.special._airy_taylor_step

        def spy(x0, w, wp, h):
            steps.append((x0, h))
            return step(x0, w, wp, h)
        monkeypatch.setattr(triq.special, "_airy_taylor_step", spy)
        for y in march_points(band, ladder):
            steps.clear()
            fn(y)
            [(x0, h)] = steps
            assert x0 in ladder[0] and x0 + h == y, y
            assert -_AIRY_MARCH_STEP < h <= 0.0, y
            assert not any(y <= x < x0 for x in ladder[0]), y

    def test_array_is_the_scalar_calls(self):
        ys = ([y for _, band, ladder, _ in MARCHES
               for y in march_points(band, ladder)]
              + [y for b in (3.0, 8.0, -4.5, -9.5) for y in (
                  math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))])
        assert array_outcomes(np.array(ys)) == [airy_outcomes(y) for y in ys]

    def test_one_step_call_per_array(self, monkeypatch):
        # every march row of the three ladders, in one call
        calls = []
        step = triq.special._airy_taylor_step_array

        def spy(x0, w, wp, h):
            calls.append(x0.size)
            return step(x0, w, wp, h)
        monkeypatch.setattr(triq.special, "_airy_taylor_step_array", spy)
        ys = np.array([-9.2, -7.0, -5.0, 0.5, 3.2, 6.0, 7.9, 20.0])
        _airy_array(ys)
        # Ai and Bi at the 3 points of (-9.5, -4.5), Ai at the 3 of (3, 8)
        assert calls == [9]
        calls.clear()
        _airy_array(np.array([0.5, 20.0]))
        assert calls == [0]


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

    @pytest.mark.parametrize("x", [171.7, 200.0, 1e308, 1e-320, -1e-320, 5e-324])
    def test_overflow_refused_by_name(self, x):
        # Gamma(x) past the double range: an AccuracyError naming x, not inf
        for arg in (x, np.float64(x)):
            with pytest.raises(AccuracyError, match=re.escape(f"x={x!r}")) as info:
                gamma(arg)
            assert info.value.value == x
        assert math.isfinite(gamma(171.6)) and math.isfinite(gamma(1e-300))

    def test_recip_gamma_underflows_past_the_limit(self):
        # 1/Gamma underflows from x ~ 178; past _RG_ARRAY_LIMIT, where the
        # Stirling series' z * z may overflow, both routes give 0.0
        xs = [180.0, 2.0 ** 500, 2.0 ** 501, 1e200, 1e308, 1.7976931348623157e308]
        for x in xs:
            assert recip_gamma(x) == recip_gamma(np.float64(x)) == 0.0
        for arg in (np.array(xs), np.array(xs, dtype=np.float64)):
            assert _recip_gamma_array(arg).tolist() == [0.0] * len(xs)

    def test_scalar_calls_give_python_floats(self):
        # either side of the reflection edge at 0.5, the last reflected x
        # before Gamma(1 - x) overflows and the first after, and Gamma's
        # own overflow and underflow: a float for a float or an np.float64,
        # and a refusal that prints the float's repr
        for x in (0.5, math.nextafter(0.5, 0.0), -168.5, 171.6, 180.0,
                  -3.0, 2.0 ** 501):
            want = recip_gamma(x)
            for arg in (x, np.float64(x)):
                got = recip_gamma(arg)
                assert type(got) is float and got.hex() == want.hex(), x
        for x in (-169.25, -171.5):
            for arg in (x, np.float64(x)):
                with pytest.raises(AccuracyError) as info:
                    recip_gamma(arg)
                assert str(info.value) == f"recip_gamma overflow at x={x!r}"
                assert type(info.value.value) is float

    def test_recip_gamma_array_is_the_scalar_calls(self):
        # both branches, poles, the reflected overflow near -170, and the
        # elements the array route hands to the scalar call: non-finite,
        # and past 2^500, where the scalar call gives 0.0
        rng = random.Random(20261018)
        xs = ([rng.uniform(-190.0, 190.0) for _ in range(400)]
              + [rng.uniform(-6.0, 6.0) for _ in range(400)]
              + [0.0, -0.0, -1.0, -7.0, 0.5, 1.0, 12.0, 11.999999999999998,
                 5e-324, -5e-324, -170.5, -171.5, 171.7, 2.0 ** 500,
                 -(2.0 ** 500) + 2.0 ** 448, 2.0 ** 501, -1e200, 1e200,
                 math.inf, -math.inf, math.nan])
        values = triq.special._recip_gamma_array(np.array(xs))
        refused = 0
        for x, got in zip(xs, values.tolist()):
            try:
                want = recip_gamma(x).hex()
            except (TriqError, ArithmeticError):
                want = "refused"
                refused += 1
            assert ("refused" if math.isnan(got) else got.hex()) == want, x
        assert refused > 3


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

    @pytest.mark.parametrize("c", [1e-17, -1e-17, 1e-16, 2.5e-308, 5e-324,
                                   -5e-324, math.nextafter(-1.0, 0.0)])
    def test_c_with_a_vanishing_series_denominator_raises(self, c):
        # at these c the plain-series denominator (c + k) - 1.0 rounds to 0
        # for k = 1 or 2, so they were refused; written c + (k - 1), it
        # does not.  Every route now gives the scalar call's outcome, for
        # floats and np.float64 alike: a finite value within 1e-10 of
        # mpmath, an inf where the true value is past the double range,
        # or an AccuracyError refusal, never a number silently wrong
        ctx = pytest.importorskip("mpmath").MPContext()
        ctx.dps = 50
        assert (c + 1.0) - 1.0 == 0.0 or (c + 2.0) - 1.0 == 0.0
        outcomes = []
        for b, z in [(-3.0, 1.0), (0.5, 2.0), (0.5, -2.0), (0.5, 0.0)]:
            want = scalar_outcome(b, c, z)
            assert scalar_outcome(*map(np.float64, (b, c, z))) == want
            for cs in (c, np.float64(c), np.array([c, c])):
                values = _kummer_m_array(b, cs, np.array([z, z]))
                assert [array_outcome(v) for v in values.tolist()] == \
                    [refused_or_hex(want)] * 2
            if isinstance(want, tuple):
                assert want[0] == "AccuracyError"
                outcomes.append(want)
                continue
            got, ref = float.fromhex(want), ctx.hyp1f1(b, c, z)
            if math.isinf(got):
                assert abs(ref) > sys.float_info.max and got * ref > 0
            else:
                assert abs(got - ref) <= 1e-10 * abs(ref), (b, z)
            outcomes.append(got)
        # the refusals, each naming the overflow: at 2.5e-308 the sum of
        # |terms| for (-3, 1) overflows (the loss gate refuses) and
        # M(0.5; c; 2) is past the double range; at +-5e-324 the terms
        # overflow and the series runs out of terms, as one past the double
        # range does at b = 1000, z = 300
        if c == 2.5e-308:
            assert outcomes[:2] == [
                ("AccuracyError", "kummer_m sum of |terms| overflows a double "
                 "at b=-3.0, c=2.5e-308, z=1.0"), math.inf]
        elif abs(c) == 5e-324:
            assert all(o[0] == "AccuracyError"
                       and "series terms overflow a double" in o[1]
                       for o in outcomes[:3])
            assert scalar_outcome(1000.0, 0.5, 300.0)[1] == (
                "kummer_m series terms overflow a double at z=300.0")
        else:
            assert all(math.isfinite(o) for o in outcomes)

    def test_tiny_c_meets_the_contract(self):
        # c's part of the denominators is c + (k - 1): c + k - 1.0 dropped a
        # tiny c's low bits, M(-3; c; 1) off by 46% at c = 1.2e-16 and 8e-8
        # at 1e-10 with no error.  Now both routes meet 1e-10 against
        # mpmath from c = 1e-300 to 0.3, either sign
        ctx = pytest.importorskip("mpmath").MPContext()
        ctx.dps = 50
        rng = random.Random(20261019)
        inputs = [(-3.0, c, 1.0) for c in (1.2e-16, 1e-15, 1e-13, 1e-10, -1e-16)]
        inputs += [(rng.uniform(-6.0, 3.0),
                    rng.choice((1.0, -1.0))
                    * math.exp(rng.uniform(math.log(1e-300), math.log(0.3))),
                    rng.uniform(-20.0, 20.0)) for _ in range(60)]
        for b, c, z in inputs:
            got = kummer_m(b, c, z)
            ref = ctx.hyp1f1(b, c, z)
            assert abs(got - ref) <= 1e-10 * abs(ref), (b, c, z)
            values = _kummer_m_array(b, c, np.array([z]))
            assert values[0].item().hex() == got.hex()

    @pytest.mark.parametrize("c", [1.2e-16, math.nextafter(-1.0, -2.0),
                                   math.nextafter(-2.0, 0.0), 0.5])
    def test_c_next_to_a_vanishing_denominator_is_summed(self, c):
        assert (c + 1.0) - 1.0 != 0.0 and (c + 2.0) - 1.0 != 0.0
        got = kummer_m(-3.0, c, 1.0)
        assert math.isfinite(got)
        values = _kummer_m_array(-3.0, c, np.array([1.0]))
        assert values[0].item().hex() == got.hex()

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


# The 34-digit decimal form of the phase, before it moved to integer fixed
# point.
_DEC34_PI4 = decimal.Decimal("0.7853981633974483096156608458198757")


def reference_phase_decimal(t):
    """_oscillatory_phase in 34-digit decimal."""
    td = decimal.Decimal.from_float(t)
    zeta = _DEC34.divide(_DEC34.multiply(_DEC34.multiply(2, td), _DEC34.sqrt(td)), 3)
    omega = _DEC34.subtract(zeta, _DEC34_PI4)
    wh = float(omega)
    wl = float(_DEC34.subtract(omega, decimal.Decimal.from_float(wh)))
    sw = math.sin(wh)
    cw = math.cos(wh)
    return float(zeta), sw + wl * cw, cw - wl * sw


# The two Airy asymptotic loops as they were written before they shared one
# term generator, the oscillatory one on the decimal phase; their roots and
# exponentials are numpy's, as in special (they were math's and Python's **
# while the float route took those).
_SQRT_PI = math.sqrt(math.pi)


def reference_asym_pos(y):
    """_airy_asym_pos with its own term loop."""
    zeta = (2.0 / 3.0) * y * float(np.sqrt(y))
    su_m = su_p = 1.0
    sv_m = sv_p = 1.0
    u_term = 1.0
    prev = math.inf
    for k in range(1, 60):
        u_term *= (6.0 * k - 1.0) * (6.0 * k - 5.0) / (72.0 * k * zeta)
        v_term = u_term * (6.0 * k + 1.0) / (1.0 - 6.0 * k)
        if abs(u_term) >= prev:
            break
        prev = abs(u_term)
        sgn = -1.0 if (k & 1) else 1.0
        su_m += sgn * u_term
        su_p += u_term
        sv_m += sgn * v_term
        sv_p += v_term
        if abs(u_term) < 1e-18:
            break
    root4 = float(np.power(y, 0.25))
    e_neg = float(np.exp(-zeta))
    ai = 0.5 * e_neg * su_m / (_SQRT_PI * root4)
    aip = -0.5 * root4 * e_neg * sv_m / _SQRT_PI
    if zeta > 700.0:
        return ai, aip, math.inf, math.inf
    e_pos = float(np.exp(zeta))
    return (ai, aip, e_pos * su_p / (_SQRT_PI * root4),
            root4 * e_pos * sv_p / _SQRT_PI)


def reference_asym_neg(y):
    """_airy_asym_neg with its own term loop and the decimal phase."""
    t = -y
    zeta, s, c = reference_phase_decimal(t)
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
    root4 = float(np.power(t, 0.25))
    inv = 1.0 / (_SQRT_PI * root4)
    fac = root4 / _SQRT_PI
    return (inv * (c * ue + s * uo), fac * (s * ve - c * vo),
            inv * (-s * ue + c * uo), fac * (c * ve + s * vo))


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
            and _loss(*map(float.fromhex, got)) > _KUMMER_FAIL_LOSS):
        return "refused"
    return got


def recorded_calls(run):
    """The (b, c, z) of every plain array sum and every rerun of run(), in
    order, as two tuples."""
    sums, reruns = [], []
    array, dd = triq.special._kummer_series_array, triq.special._kummer_series_dd

    def summed(b, c, z):
        sums.append(tuple(np.array(p) if np.ndim(p) else p for p in (b, c, z)))
        return array(b, c, z)

    def rerun(*args):
        reruns.append(args)
        return dd(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triq.special, "_kummer_series_array", summed)
        patch.setattr(triq.special, "_kummer_series_dd", rerun)
        run()
    return tuple(sums), tuple(reruns)


def recorded_reruns(run):
    """The rerun inputs of run(), in order."""
    return recorded_calls(run)[1]


@functools.cache
def sweep_calls(lo, hi, n):
    """recorded_calls of an n-point lo-hi eV sweep on the CLI's grid."""
    return recorded_calls(lambda: sweep(
        "E", [lo + (hi - lo) * i / (n - 1) for i in range(n)],
        MassParams(), PotentialProfile(), make_units()))


@functools.cache
def sweep_dd_inputs():
    """Every rerun input of a 100-point 2.25-3.9 eV sweep, in order."""
    return sweep_calls(2.25, 3.9, 100)[1]


@functools.cache
def wide_sweep_reruns():
    """Every rerun input of the 200-point 0.02-2.25 eV sweep, in order."""
    return sweep_calls(0.02, 2.25, 200)[1]


@functools.cache
def validate_grid_sums():
    """The plain array sums of validate's interior-equation grid (four
    series over 7001 points), in order."""
    return recorded_calls(triq.validate.suite_interior_equation)[0]


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
            if _loss(*want) <= _KUMMER_FAIL_LOSS:
                kept += 1
                assert [v.hex() for v in got] == [v.hex() for v in want], (b, c, z)
            else:
                refused += 1
                assert _loss(*got) > _KUMMER_FAIL_LOSS, (b, c, z)
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
        # the fixed-point phase against the double-double and the 34-digit
        # decimal ones, from the asymptotic switch to the refusal limit
        rng = random.Random(20162)
        hi = -_AIRY_NEG_LIMIT
        ts = [9.5, math.nextafter(9.5, hi), 1e4, hi] + [
            rng.uniform(9.5, hi) for _ in range(2000)] + [
            math.exp(rng.uniform(math.log(9.5), math.log(hi)))
            for _ in range(4000)]
        for t in ts:
            got = [v.hex() for v in _oscillatory_phase(t)]
            assert got == [v.hex() for v in reference_phase(t)], t
            assert got == [v.hex() for v in reference_phase_decimal(t)], t
        assert ([v.hex() for v in _oscillatory_phase(np.float64(1e3))]
                == [v.hex() for v in _oscillatory_phase(1e3)])

    def test_asymptotic_airy_matches_the_separate_loops(self):
        # the shared term generator gives both regimes the doubles of
        # their former loops, on each side of the switches and far out
        rng = random.Random(20163)
        neg = [-9.5, _AIRY_NEG_LIMIT, -12.0, -28.7] + [
            -math.exp(rng.uniform(math.log(9.5), math.log(-_AIRY_NEG_LIMIT)))
            for _ in range(1500)]
        pos = [8.0, math.nextafter(8.0, 9.0), 103.0, 700.0] + [
            rng.uniform(8.0, 700.0) for _ in range(1500)]
        for y in neg:
            assert ([v.hex() for v in _airy_asym_neg(y)]
                    == [v.hex() for v in reference_asym_neg(y)]), y
        for y in pos:
            assert ([v.hex() for v in _airy_asym_pos(y)]
                    == [v.hex() for v in reference_asym_pos(y)]), y

    def test_asymptotic_regimes_over_arrays(self):
        # over an array each regime retires every element at its own stop:
        # the scalar call's doubles and the former loop's, on a dense and a
        # log-uniform corpus each, past zeta = 700 (Bi = inf from y ~ 103.5)
        # and next to the -1e6 limit
        rng = random.Random(20261021)
        pos = ([8.0 + 100.0 * i / 2000 for i in range(2001)]
               + [math.exp(rng.uniform(math.log(8.0), math.log(1e300)))
                  for _ in range(1000)]
               + [math.nextafter(8.0, 9.0), 103.0, 103.5, 104.0, 1.7e308])
        neg = ([-9.5 - 40.0 * i / 2000 for i in range(2001)]
               + [-math.exp(rng.uniform(math.log(9.5), math.log(1e6)))
                  for _ in range(1000)]
               + [math.nextafter(-9.5, -10.0), -999999.5,
                  math.nextafter(_AIRY_NEG_LIMIT, 0.0), _AIRY_NEG_LIMIT])
        for fn, reference, ys in ((_airy_asym_pos, reference_asym_pos, pos),
                                  (_airy_asym_neg, reference_asym_neg, neg)):
            grid = [v.tolist() for v in fn(np.array(ys))]
            for i, y in enumerate(ys):
                lone = fn(y)
                assert all(type(v) is float for v in lone), y
                want = [v.hex() for v in lone]
                assert [v[i].hex() for v in grid] == want, y
                assert [v.hex() for v in reference(y)] == want, y
        assert [v[-1] for v in _airy_asym_pos(np.array([103.5, 104.0]))[2:]] \
            == [math.inf, math.inf]

    def test_pi_over_four_constant(self):
        # pi/4 scaled by 2^_PHASE_BITS, rounded to nearest, at twice the bits
        ctx = pytest.importorskip("mpmath").MPContext()
        ctx.prec = 2 * _PHASE_BITS
        scaled = ctx.ldexp(ctx.pi / 4, _PHASE_BITS)
        assert _PI4_FIXED == int(ctx.nint(scaled))
        assert abs(_PI4_FIXED - scaled) < 0.5

    def test_import_leaves_decimal_unloaded(self):
        # the package and its CLI run without the decimal module
        code = ("import sys, triq, triq.cli; "
                "sys.exit('decimal' in sys.modules)")
        src = os.path.dirname(os.path.dirname(triq.special.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=60)
        assert done.returncode == 0, done.stderr

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
        # NaN exactly where the scalar call raises
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
            values = _kummer_m_array(b, c, np.array(zs))
            want = [scalar_outcome(b, c, z) for z in zs]
            assert [array_outcome(v) for v in values.tolist()] == \
                [refused_or_hex(w) for w in want]
            refused += sum(not isinstance(w, str) for w in want[:30])
        # both the double-double rerun and its refusal were reached
        assert refused and len(reruns) > 2 * refused

        # mixed (b, c), one pair per element: the box as 60 points of 4
        # series each, a row stopping at its first refusal as a scalar
        # loop over the point does, with the same reruns in the same order
        rows = [box[i:i + 4] for i in range(0, len(box), 4)]
        b, c, z = np.array(rows).transpose(2, 0, 1)
        del reruns[:]
        values = _kummer_m_array(b, c, z)
        grid_reruns = reruns[:]
        del reruns[:]
        refused_rows = []
        for i, row in enumerate(rows):
            for j, (bj, cj, zj) in enumerate(row):
                w = scalar_outcome(bj, cj, zj)
                if not isinstance(w, str):
                    refused_rows.append(i)
                    assert np.isnan(values[i, j:]).all()
                    break
                assert values[i, j].hex() == w
        assert grid_reruns == reruns
        assert np.flatnonzero(np.isnan(values).any(axis=1)).tolist() == \
            refused_rows
        # rows refused before their last series, so reruns were skipped
        assert 0 < len(refused_rows) < len(rows)
        assert any(not np.isnan(values[i]).all() for i in refused_rows)

    @pytest.mark.parametrize("b", [0.0, -3.0, -17.0])
    def test_array_sums_terminating_series(self, b):
        # b a non-positive integer: the series stops at its first zero term
        zs = [0.3, 7.5, 40.0, 120.0]
        values = _kummer_m_array(b, 1.5, np.array(zs))
        assert [v.hex() for v in values.tolist()] == \
            [scalar_outcome(b, 1.5, z) for z in zs]

    @pytest.mark.parametrize("b, c", [(math.nan, 0.5), (-2.5, math.inf),
                                      (-2.5, -1.0)])
    def test_array_refuses_parameters_as_scalar_calls(self, b, c):
        values = _kummer_m_array(b, c, np.array([0.5, 2.0]))
        assert np.isnan(values).all()
        assert all(not isinstance(scalar_outcome(b, c, z), str)
                   for z in (0.5, 2.0))


def series_exit(b, c, z):
    """(k, how) of the term where _kummer_series stops: "zero" for a zero
    term, "stop" for its stop rule; None where it runs out of terms."""
    abs_sum = term = prev_mag = 1.0
    for k in range(1, _KUMMER_MAX_TERMS + 1):
        term *= (b + k - 1.0) * z / ((c + k - 1.0) * k)
        if term == 0.0:
            return k, "zero"
        mag = abs(term)
        abs_sum += mag
        if k >= 4 and mag < 1e-17 * abs_sum and mag <= prev_mag:
            return k, "stop"
        prev_mag = mag
    return None


def array_sums(b, c, z):
    """(sum, sum of |terms|) by .hex() and the converged flag of each element
    of _kummer_series_array."""
    value, abs_sum, converged = _kummer_series_array(b, c, np.asarray(z, dtype=float))
    return list(zip([v.hex() for v in value.tolist()],
                    [v.hex() for v in abs_sum.tolist()], converged.tolist()))


def scalar_sums(b, c, z):
    """array_sums from one _kummer_series call per element: NaN sums and
    False where the call raises."""
    z = np.asarray(z, dtype=float)
    out = []
    for bj, cj, zj in zip(*(np.broadcast_to(p, z.shape).tolist() for p in (b, c, z))):
        try:
            out.append((*(v.hex() for v in _kummer_series(bj, cj, zj)), True))
        except AccuracyError:
            out.append(("nan", "nan", False))
    return out


class TestKummerSeriesArray:
    """The block sum is the scalar loop, element by element, at every edge
    of a block: a few live elements take blocks of _KUMMER_BLOCK_MAX terms,
    k = 1..B, B+1..2B, and so on."""

    B = _KUMMER_BLOCK_MAX

    @pytest.mark.parametrize("k", [1, B, B + 1, B + B // 2, 2 * B])
    def test_zero_term_on_each_row_of_a_block(self, k):
        # b = 1 - k makes term k zero: the first and last rows of the first
        # block, and the first, a middle and the last row of the second;
        # the short series beside it stop on their own
        b, zs = 1.0 - k, [60.0, 1e-3, 120.0, 5.0, 0.5]
        assert series_exit(b, 1.5, 60.0) == series_exit(b, 1.5, 120.0) == (k, "zero")
        assert array_sums(b, 1.5, zs) == scalar_sums(b, 1.5, zs)

    def test_stop_at_the_first_term_the_rule_allows(self):
        zs = [1e-6, 1e-5, 3e-6, 2.0]
        assert [series_exit(0.3, 1.5, z)[0] for z in zs[:3]] == [4, 4, 4]
        assert array_sums(0.3, 1.5, zs) == scalar_sums(0.3, 1.5, zs)
        # b one ulp above -2 makes term 3 tiny, and this z cancels the sum
        # to 2e-16 of its terms: term 3 already meets the stop rule, and
        # term 4, summed only because the rule starts at k = 4, moves the
        # sum's last bits
        b, z = math.nextafter(-2.0, 0.0), 0.27525512860841095
        assert series_exit(b, 0.5, z) == (4, "stop")
        assert array_sums(b, 0.5, [z, 2.0]) == scalar_sums(b, 0.5, [z, 2.0])

    def test_long_series_among_short_ones_across_the_budget(self):
        # the longest series of the 0.02-2.25 eV sweep (234 terms) among
        # 5000 short ones: the array is summed in parts, and the live count
        # falls through every block size from the floor to the cap
        b, c, z_long = -17.489782963331226, 0.5, 141.833888995766
        assert series_exit(b, c, z_long) == (234, "stop")
        n = 5000
        assert n * (_KUMMER_BLOCK_MIN + 1) > _KUMMER_BLOCK_BUDGET
        rng = random.Random(20181)
        zs = [rng.uniform(0.01, 20.0) for _ in range(n)]
        zs[1234] = z_long
        assert array_sums(b, c, zs) == scalar_sums(b, c, zs)
        # and with a parameter pair per element
        bs = np.array([rng.uniform(-40.0, 3.0) for _ in range(n)])
        cs = np.array([rng.choice((0.5, 1.5)) for _ in range(n)])
        bs[1234], cs[1234] = b, c
        assert array_sums(bs, cs, zs) == scalar_sums(bs, cs, zs)

    def test_series_stopping_in_the_block_cut_at_the_term_cap(self):
        # the last block is cut at _KUMMER_MAX_TERMS (1200 is not a multiple
        # of B): series stopping on its first, a middle and its last row
        # but one, and one still short of its stop at 1200, which the scalar
        # loop raises for and the array reports unconverged with NaN sums
        assert _KUMMER_MAX_TERMS % self.B
        last = _KUMMER_MAX_TERMS - _KUMMER_MAX_TERMS % self.B + 1
        cz = [20250.0, 20500.0, 20750.0, 21000.0, 3.0]
        assert [series_exit(1.0, x, x) for x in cz[:4]] == [
            (last, "stop"), (1192, "stop"), (1199, "stop"), None]
        got = array_sums(1.0, np.array(cz), cz)
        assert got == scalar_sums(1.0, np.array(cz), cz)
        assert got[3] == ("nan", "nan", False)

    @pytest.mark.parametrize("b, c, z", [
        (math.nan, 0.5, 2.0),  # NaN terms
        (0.5, math.nan, 2.0),
        (0.5, 1.5, math.nan),
        (0.5, 1.5, math.inf),  # an infinite first term
        (1e3, 0.5, 300.0),  # terms past the double range
        (-2.5, 0.5, -math.inf),
        (0.5, 1.5, 5e-324),  # a first term that underflows to zero
    ])
    def test_nan_and_inf_terms(self, b, c, z):
        bs = np.array([b, 0.5, -3.0])
        cs = np.array([c, 1.5, 2.5])
        zs = [z, 7.0, 40.0]
        got = array_sums(bs, cs, zs)
        assert got == scalar_sums(bs, cs, zs)
        assert got[0][2] == (z == 5e-324)

    def test_empty_z(self):
        for b, c in ((0.5, 1.5), (np.array([]), np.array([]))):
            value, abs_sum, converged = _kummer_series_array(b, c, np.array([]))
            assert value.shape == abs_sum.shape == converged.shape == (0,)
            assert value.dtype == abs_sum.dtype == float
            assert converged.dtype == bool

    @pytest.mark.parametrize("form", ["floats", "float64", "arrays",
                                      "b array", "c array"])
    def test_parameter_forms(self, form):
        rng = random.Random(20182)
        zs = [300.0 * (1.0 - rng.random()) for _ in range(40)]
        b, c = -7.25, 1.5
        bs = np.array([rng.uniform(-60.0, 3.0) for _ in zs])
        cs = np.array([rng.choice((0.5, 1.5, 2.5)) for _ in zs])
        b, c = {"floats": (b, c), "float64": (np.float64(b), np.float64(c)),
                "arrays": (bs, cs), "b array": (bs, c), "c array": (b, cs)}[form]
        assert array_sums(b, c, zs) == scalar_sums(b, c, zs)

    def test_workload_corpora(self):
        # every plain sum of the 0.02-2.25, 0.02-0.44 and 2.25-3.9 eV
        # sweeps and of validate's 4 x 7001 interior grid
        corpora = [sweep_calls(0.02, 2.25, 200)[0], sweep_calls(0.02, 0.44, 200)[0],
                   sweep_calls(2.25, 3.9, 100)[0], validate_grid_sums()]
        assert [[z.size for _, _, z in calls] for calls in corpora] == \
            [[1600], [1600], [688], [7001] * 4]
        for calls in corpora:
            for b, c, z in calls:
                assert array_sums(b, c, z) == scalar_sums(b, c, z)


def scalar_outcome(b, c, z):
    """Hex of kummer_m(b, c, z), or the error's (class name, message)."""
    try:
        return kummer_m(b, c, z).hex()
    except TriqError as exc:
        return type(exc).__name__, str(exc)


def refused_or_hex(outcome):
    """A scalar_outcome with any error read as "refused"."""
    return outcome if isinstance(outcome, str) else "refused"


def array_outcome(value):
    """Hex of an array kernel's double, or "refused" where it is NaN."""
    return "refused" if math.isnan(value) else value.hex()


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


def unreliable_continued_fraction(monkeypatch):
    """Make second()'s continued fraction return an infinite estimate, as
    it does where it cannot help: only the two-term form is left."""
    monkeypatch.setattr(triq.scatter, "tricomi_u_cf",
                        lambda *args: (math.nan, math.nan, math.inf))


class TestTricomi:
    # c = 1/2 rows check the value, c = 3/2 rows the derivative, on both
    # the subtraction and the continued-fraction route
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

    def test_guard_raises_when_both_routes_fail(self, monkeypatch):
        # z is too large for the subtraction, and the continued fraction
        # is made to fail, so there is nothing honest to return.  Without
        # that failure it returns U there to within 2e-15
        value = companion_u(2.2, 14.0)[0]
        assert value == pytest.approx(HYPERU_2_2_14, rel=2e-15)
        unreliable_continued_fraction(monkeypatch)
        with pytest.raises(AccuracyError, match="companion solution"):
            companion_u(2.2, 14.0)

    def test_float_kernels_give_python_floats(self, monkeypatch):
        # second() of float kernels, or of np.float64 ones, on the
        # subtraction route, the continued-fraction route and a refusal
        for b, z in ((-2.3, 1.5), (-12.7, 180.0), (2.2, 14.0)):
            if z == 14.0:
                unreliable_continued_fraction(monkeypatch)
            basis = RegionIIBasis(b_param=b, sqrt_a1=1.0, y_offset=0.0)
            ker = basis.kernels(math.sqrt(z))
            outcomes = []
            for point in (ker, _Kernels._make(map(np.float64, ker))):
                try:
                    got = basis.second(point)
                except AccuracyError as exc:
                    assert "np.float64" not in str(exc)
                    assert type(exc.value) is float
                    outcomes.append(str(exc))
                    continue
                assert all(type(v) is float for v in got), (b, z)
                outcomes.append([v.hex() for v in got])
            assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], str)


def test_transmission_gives_python_floats():
    # every float field of a TransmissionResult, below and above the
    # barrier, for a float and an np.float64 energy; a refused energy
    # prints float reprs
    units, mass, barrier = make_units(), MassParams(), PotentialProfile()

    def fields(res):
        s = res.solution
        return (res.E, res.T_solve, res.T_paper, res.t1, res.t2,
                res.residual, s.b1, s.b2, s.b3, s.b4)

    for E in (0.1, 0.5, 2.25):
        got = [fields(triq.scatter.transmission(v, mass, barrier, units))
               for v in (E, np.float64(E))]
        assert all(type(v) is float for row in got for v in row), E
        assert [v.hex() for v in got[0]] == [v.hex() for v in got[1]]
    messages = []
    for E in (3.9, np.float64(3.9)):
        with pytest.raises(AccuracyError) as info:
            triq.scatter.transmission(E, mass, barrier, units)
        messages.append(str(info.value))
    assert "np.float64" not in messages[0] and messages[0] == messages[1]


# Every numpy function the lone point and the grid share, with seeded
# arguments over its call sites' ranges: the damping e^(-z/2), the Airy
# asymptotics' e^(+-zeta) and the continued fraction's e^z, and 1/Gamma's
# e^(+-ln Gamma); ln Gamma's logs; the reflection's sin(pi r), r <= 1/2;
# the Airy scale's cube root; a1^(1/4) and the asymptotic zeta's sqrt(y);
# y^(1/4); the continued fraction's z^(1/2).
SHARED_LIBM = {
    "exp": (np.exp, (), lambda rng: rng.uniform(-745.0, 700.0)),
    "log": (np.log, (), lambda rng: math.exp(rng.uniform(0.0, 350.0))),
    "sin": (np.sin, (), lambda rng: rng.uniform(0.0, 0.5 * math.pi)),
    "cbrt": (np.cbrt, (), lambda rng: math.exp(rng.uniform(-20.0, 705.0))),
    "sqrt": (np.sqrt, (), lambda rng: math.exp(rng.uniform(-20.0, 709.0))),
    "power-1/4": (np.power, (0.25,), lambda rng: math.exp(rng.uniform(2.0, 709.0))),
    "power-1/2": (np.power, (0.5,), lambda rng: rng.uniform(1e-3, 300.0)),
}


@pytest.mark.parametrize("name", sorted(SHARED_LIBM))
def test_numpy_libm_ignores_the_call_shape(name):
    # A sweep row equals a lone transmission() call only because numpy
    # gives one double whatever the shape of the call: a 1-D array, an
    # np.float64, a Python float, a 0-d or length-1 array, a strided view.
    # Its SIMD loops differ from the C library's in the last bit, so the
    # pinned outputs pin this host's numpy dispatch, as they pinned its C
    # library while the float route used math; sweep-vs-lone identity
    # holds on any host where this test passes.
    ufunc, args, draw = SHARED_LIBM[name]
    rng = random.Random(20261019)
    xs = [draw(rng) for _ in range(10000)]
    want = [v.hex() for v in ufunc(np.array(xs), *args).tolist()]
    strided = ufunc(np.repeat(xs, 3)[1::3], *args).tolist()
    assert [v.hex() for v in strided] == want
    for x, w in zip(xs, want):
        got = {ufunc(v, *args).item().hex()
               for v in (x, np.float64(x), np.array(x), np.array([x]))}
        assert got == {w}, x


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("E", [0.1, 2.25])
def test_float_route_keeps_python_floats(E):
    # numpy's exp, log and roots on a float give np.float64; the float
    # route takes each back to a Python float (special._libm), so that no
    # np.float64 leaks into a lone point's arithmetic, for a float or an
    # np.float64 energy, below the barrier and past it
    units, mass, barrier = make_units(), MassParams(), PotentialProfile()
    for e in (E, np.float64(E)):
        rc = barrier_coefficients(e, mass, barrier, units)
        basis = basis_for(rc)
        res = triq.scatter.transmission(e, mass, barrier, units)
        sol = res.solution
        values = [airy_scale(e, mass, units), *dataclasses.astuple(rc),
                  *basis.kernels(0.0),
                  basis.rg_b, basis.rg_bh, basis.rg_f6,
                  res.E, res.T_solve, res.T_paper, res.t1, res.t2,
                  res.residual, sol.b1, sol.b2, sol.b3, sol.b4, sol.residual]
        assert [type(v).__name__ for v in values] == ["float"] * len(values), e


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

    @pytest.mark.parametrize("fn, band, ladder, anchor", MARCHES)
    def test_airy_march(self, mp, fn, band, ladder, anchor):
        # the worst envelope error of one step from a node is pinned; the
        # march of up to 7 steps from the anchor gave 2.8e-15, 1.8e-14 and
        # 1.9e-14 on the same points
        ref = mp.airyai if fn is airy_ai else mp.airybi
        worst = 0.0
        for y in march_points(band, ladder):
            value, deriv = ref(y), ref(y, derivative=1)
            scale = envelope(value, deriv, y)
            got = fn(y)
            worst = max(worst, abs(got.value - value) / scale,
                        abs(got.derivative - deriv) / (scale * math.sqrt(abs(y))))
        assert worst <= AIRY_MARCH_WORST[fn.__name__, band]

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
        # second() on each route: the route is the continued fraction where
        # the result changes once the continued fraction can never win
        def evaluated(b, z):
            try:
                return companion_u(b, z)
            except AccuracyError:
                return None

        rng = random.Random(20165)
        checked = {"subtraction": 0, "continued fraction": 0}
        for i in range(300):
            b = rng.uniform(-45.0, 3.0)
            z = rng.uniform(0.05, 250.0 if i % 2 else 30.0)
            got = evaluated(b, z)
            if got is None:
                continue
            with monkeypatch.context() as patch:
                unreliable_continued_fraction(patch)
                alone = evaluated(b, z)
            checked["subtraction" if alone == got else "continued fraction"] += 1
            # (U(b; 1/2; z), -dU/dz)
            for part, ref in zip(got, (mp.hyperu(b, 0.5, z),
                                       b * mp.hyperu(b + 1.0, 1.5, z))):
                assert abs(part - ref) <= _SECOND_BUDGET * abs(ref), (b, z)
        assert min(checked.values()) > 50, checked

    def test_continued_fraction_estimate_bounds_its_error(self, mp):
        # tricomi_u_cf from exact inputs (the regularized M pair and
        # 1/Gamma(b) rounded once from mpmath): its estimate bounds the
        # error of U and of dU/dz on a seeded box, b in [-45, 3] and z in
        # [0.05, 300], on small z, where the continued fraction converges
        # slowly, and next to the poles b = -n, where the Wronskian
        # vanishes and the denominator cancels
        rng = random.Random(20261019)
        points = [(rng.uniform(-45.0, 3.0), rng.uniform(0.05, 300.0))
                  for _ in range(150)]
        points += [(rng.uniform(-45.0, 3.0), rng.uniform(0.05, 3.0))
                   for _ in range(50)]
        points += [(-n + sign * 10.0 ** -e, rng.uniform(0.05, 300.0))
                   for n in range(1, 41) for e in (3, 6, 9) for sign in (1, -1)]
        worst = 0.0
        for b, z in points:
            m = float(mp.hyp1f1(b, 0.5, z) / mp.gamma(0.5))
            m_next = float(mp.hyp1f1(b + 1, 1.5, z) / mp.gamma(1.5))
            u, du, est = tricomi_u_cf(b, 0.5, z, m, m_next, float(mp.rgamma(b)))
            assert TRICOMI_CF_LEAST <= est < math.inf, (b, z)
            ref = mp.hyperu(b, 0.5, z)
            err = max(abs(u / ref - 1), abs(du / (-b * mp.hyperu(b + 1, 1.5, z)) - 1))
            worst = max(worst, float(err) / est)
        # the largest ratio seen over 690 such points was 0.56
        assert worst <= 1.0


class TestTricomiContinuedFraction:
    @staticmethod
    def inputs(b, z):
        """The regularized M pair and 1/Gamma(b) as the kernels give them."""
        return (kummer_m(b, 0.5, z) * recip_gamma(0.5),
                kummer_m(b + 1.0, 1.5, z) * recip_gamma(1.5), recip_gamma(b))

    def test_array_is_the_float_calls(self):
        # one body for a float and an array: every element the float call's
        # doubles, with b an array or a float shared by all.  b = 0 divides
        # 0 by 0, which gives an infinite estimate, and a pole of Gamma(b)
        # leaves a denominator of rounding dust and an estimate above 1
        rng = random.Random(20261020)
        args = [(rng.uniform(-15.0, 3.0), rng.uniform(0.05, 40.0))
                for _ in range(200)]
        args += [(0.0, 5.0), (-3.0, 12.0), (-7.0, 40.0), (2.5, 1e-3)]
        b = np.array([p for p, _ in args])
        z = np.array([q for _, q in args])
        m, m_next, rg_b = (np.array(v) for v in zip(*(self.inputs(*p) for p in args)))
        grid = tricomi_u_cf(b, 0.5, z, m, m_next, rg_b)
        for i, point in enumerate(args):
            want = tricomi_u_cf(point[0], 0.5, point[1], m[i].item(),
                                m_next[i].item(), rg_b[i].item())
            assert all(type(v) is float for v in want)
            assert [v.hex() for v in want] == [v[i].item().hex() for v in grid], point
        assert tricomi_u_cf(0.0, 0.5, 5.0, *self.inputs(0.0, 5.0))[2] == math.inf
        assert tricomi_u_cf(-3.0, 0.5, 12.0, *self.inputs(-3.0, 12.0))[2] > 1.0
        shared = tricomi_u_cf(-2.3, 0.5, z, *(np.array(v) for v in zip(
            *(self.inputs(-2.3, q) for q in z.tolist()))))
        for i, q in enumerate(z.tolist()):
            want = tricomi_u_cf(-2.3, 0.5, q, *self.inputs(-2.3, q))
            assert [v.hex() for v in want] == [v[i].item().hex() for v in shared]
        empty = tricomi_u_cf(np.zeros(0), 0.5, np.zeros(0), np.zeros(0),
                             np.zeros(0), np.zeros(0))
        assert [v.size for v in empty] == [0, 0, 0]
