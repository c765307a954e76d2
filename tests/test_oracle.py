"""Marcher tests: textbook limits, convergence order, and residual verdicts."""

import math
import random
import warnings

import numpy as np
import pytest

import triq.oracle
from triq.errors import AccuracyError, DomainError
from triq.model import (
    MassParams,
    PotentialProfile,
    airy_argument,
    airy_scale,
    make_units,
)
from triq.oracle import (
    _MARCH_BLOCK,
    HALVING_GATE,
    IntegrationSpec,
    _march,
    _pair_layout,
    _step_matrices,
    integrate,
    make_weight,
    matched_b1,
    matched_transmission,
    ode_residual,
)
from triq.special import airy_ai, airy_bi

from test_scatter import parameter_box

U = make_units()
MASS = MassParams()
BARRIER = PotentialProfile()
CONST_MASS = MassParams(M0=0.067, M1=0.0)

# (E, b1.hex(), T.hex()) of the scalar oracle at 0.1 eV and at 8 energies
# of random.Random(2094).uniform(0.02, 2.25), sorted; b1 < 0 below the pole.
# Then the (b1, T) of the 1e-3 nm march before the oracle extrapolated its
# halving pair, off by that march's own error (up to 2.2e-12 in b1 over
# 0.02-2.25 eV, test_reference.py).  Kept as approximate references of
# that (b1, T): the last four are the (b1, T) given when the exterior Airy
# values marched from their anchor in up to 7 Taylor steps (before each
# took one step from a ladder node), then the (b1, T) the step-by-step
# march gave, before the product march.  A row whose pins numpy's exp, log
# and roots moved carries, before those, the (b1, T) the C library's gave
ORACLE_TABLE = [
    (0.05042571650522533, '-0x1.4346844acb019p-3', '0x1.4112cf1af15c8p+5',
     '-0x1.4346844acafc3p-3', '0x1.4112cf1af1673p+5',
     '-0x1.4346844acafc3p-3', '0x1.4112cf1af1673p+5',
     '-0x1.4346844acb058p-3', '0x1.4112cf1af154bp+5'),
    (0.1, '-0x1.63c73bf7ff205p-4', '0x1.0916afaabb920p+7',
     '-0x1.63c73bf7ff184p-4', '0x1.0916afaabb9e0p+7',
     '-0x1.63c73bf7ff18dp-4', '0x1.0916afaabb9d3p+7',
     '-0x1.63c73bf7ff250p-4', '0x1.0916afaabb8b0p+7'),
    (0.1347147285142501, '-0x1.270157e1ae9d8p-5', '0x1.818f014e3c28bp+9',
     '-0x1.270157e1ae97fp-5', '0x1.818f014e3c373p+9',
     '-0x1.270157e1ae97dp-5', '0x1.818f014e3c378p+9',
     '-0x1.270157e1aea3dp-5', '0x1.818f014e3c182p+9'),
    (0.1944721481704037, '0x1.2e1f53e7fcaecp-5', '0x1.6f9b774c7417cp+9',
     '0x1.2e1f53e7fcaabp-5', '0x1.6f9b774c7421ap+9',
     '0x1.2e1f53e7fcaa4p-5', '0x1.6f9b774c7422bp+9',
     '0x1.2e1f53e7fca99p-5', '0x1.6f9b774c74246p+9'),
    (0.4282323117754124, '0x1.ac87982154e2ap-3', '0x1.6d71135a5d117p+4',
     '0x1.ac87982154d49p-3', '0x1.6d71135a5d297p+4',
     '0x1.ac87982154d4ap-3', '0x1.6d71135a5d296p+4',
     '0x1.ac87982154e13p-3', '0x1.6d71135a5d13ep+4'),
    (0.8508635454386844, '0x1.68003cc424230p-2', '0x1.02e804a11ae8bp+3',
     '0x1.68003cc423d84p-2', '0x1.02e804a11b542p+3',
     '0x1.68003cc423d84p-2', '0x1.02e804a11b542p+3',
     '0x1.68003cc423dd4p-2', '0x1.02e804a11b4cfp+3'),
    (2.0038573936543607, '0x1.fd0faead2b0fbp-2', '0x1.02f6d8414a6c8p+2',
     '0x1.fd0faead279eep-2', '0x1.02f6d8414decap+2',
     '0x1.fd0faead279efp-2', '0x1.02f6d8414dec9p+2',
     '0x1.fd0faead279efp-2', '0x1.02f6d8414dec9p+2',
     '0x1.fd0faead279f7p-2', '0x1.02f6d8414dec1p+2'),
    (2.1018640002132267, '0x1.0222ad3190751p-1', '0x1.f7905a8b8dbd4p+1',
     '0x1.0222ad318e73bp-1', '0x1.f7905a8b95904p+1',
     '0x1.0222ad318e73bp-1', '0x1.f7905a8b95904p+1',
     '0x1.0222ad318e7b7p-1', '0x1.f7905a8b95720p+1'),
    (2.161580790473181, '0x1.043a72b2778e4p-1', '0x1.ef7f2a4171da2p+1',
     '0x1.043a72b275687p-1', '0x1.ef7f2a417a07fp+1',
     '0x1.043a72b275687p-1', '0x1.ef7f2a417a07fp+1',
     '0x1.043a72b2756a1p-1', '0x1.ef7f2a417a01bp+1'),
]


def reference_ode_residual(xs, values, weight, budget=1e-6):
    """ode_residual as the sample-by-sample loop it replaced."""
    m = len(xs)
    if m < 5:
        raise DomainError("need at least 5 samples for a residual verdict")
    h = xs[1] - xs[0]
    for i in range(1, m - 1):
        if abs((xs[i + 1] - xs[i]) - h) > 1e-9 * max(1.0, abs(h)):
            raise DomainError("sample grid must be uniform")
    max_f = max(abs(v) for v in values)
    max_w = abs(weight(xs[0]))
    worst = 0.0
    for i in range(1, m - 1):
        w = weight(xs[i])
        max_w = max(max_w, abs(w))
        second = (values[i - 1] - 2.0 * values[i] + values[i + 1]) / (h * h)
        worst = max(worst, abs(second + w * values[i]))
    max_w = max(max_w, abs(weight(xs[m - 1])))
    scale = max(1.0, max_f * max_w)
    fourth = 0.0
    for i in range(2, m - 2):
        d4 = (values[i - 2] - 4.0 * values[i - 1] + 6.0 * values[i]
              - 4.0 * values[i + 1] + values[i + 2])
        fourth = max(fourth, abs(d4) / h ** 4)
    floor = h * h * fourth / 12.0 / scale
    return worst / scale, floor <= budget, floor


def airy_state(x, E):
    # region-I closed form (V = 0, mass still sloped): value and d/dx
    k = airy_scale(E, MASS, U)
    ai = airy_ai(airy_argument(x, E, MASS, U))
    return ai.value, k * ai.derivative


class TestSpecValidation:
    def test_rejects_bad_step(self):
        for step in (0.0, -1e-3, math.inf, math.nan):
            with pytest.raises(DomainError):
                IntegrationSpec(0.0, 1.0, step, 1.0, 0.0)

    def test_rejects_empty_range(self):
        with pytest.raises(DomainError):
            IntegrationSpec(1.0, 1.0, 1e-3, 1.0, 0.0)

    def test_rejects_fractional_step_count(self):
        with pytest.raises(DomainError):
            IntegrationSpec(0.0, 1.0, 0.3, 1.0, 0.0)

    @pytest.mark.parametrize("end", ["x_start", "x_end"])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_ends(self, end, x):
        ends = {"x_start": 0.0, "x_end": 1.0, end: x}
        with pytest.raises(DomainError, match=f"{end} must be finite, got {x!r}"):
            IntegrationSpec(ends["x_start"], ends["x_end"], 1e-3, 1.0, 0.0)

    @pytest.mark.parametrize("field", ["value", "derivative"])
    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_state(self, field, v):
        # refused by name, not by integrate's halving gate on a NaN gap
        state = {"value": 1.0, "derivative": 0.0, field: v}
        with pytest.raises(DomainError, match=f"^{field} must be finite, got {v!r}$"):
            IntegrationSpec(0.0, 1.0, 1e-3, state["value"], state["derivative"])

    def test_numpy_fields_are_floats(self):
        # np.float64 fields are stored as Python floats, and refused with
        # a float's repr
        spec = IntegrationSpec(*map(np.float64, (0.0, 1.0, 1e-3, 1.0, 0.0)))
        assert [type(v) for v in vars(spec).values()] == [float] * 5
        with pytest.raises(DomainError, match="^x_end must be finite, got inf$"):
            IntegrationSpec(0.0, np.float64(math.inf), 1e-3, 1.0, 0.0)

    def test_step_count(self):
        assert IntegrationSpec(0.0, 2.0, 1e-3, 1.0, 0.0).n_steps == 2000
        assert IntegrationSpec(2.0, 0.0, 0.5, 1.0, 0.0).n_steps == 4


class TestIntegrate:
    def test_constant_mass_sine_limit(self):
        # flat mass, no potential: phi = cos(kx), k^2 = H M0 E
        E = 1.0
        k = math.sqrt(U.H_per_m0 * CONST_MASS.M0 * E)
        got = integrate(IntegrationSpec(0.0, 2.0, 1e-3, 1.0, 0.0),
                        E, CONST_MASS, None, U)
        assert got.value == pytest.approx(math.cos(2.0 * k), abs=1e-10)
        assert got.derivative == pytest.approx(-k * math.sin(2.0 * k), abs=1e-10)

    def test_sloped_mass_airy_limit(self):
        # the exterior closed form reproduced from marched initial data
        E = 0.1
        v0, d0 = airy_state(-2.0, E)
        got = integrate(IntegrationSpec(-2.0, 0.0, 1e-3, v0, d0), E, MASS, None, U)
        v1, d1 = airy_state(0.0, E)
        scale = max(abs(v1), abs(d1))
        assert abs(got.value - v1) / scale < 1e-9
        assert abs(got.derivative - d1) / scale < 1e-9

    def test_march_inverts(self):
        E = 0.1
        v0, d0 = airy_state(-2.0, E)
        fwd = integrate(IntegrationSpec(-2.0, 0.0, 1e-3, v0, d0), E, MASS, None, U)
        bwd = integrate(IntegrationSpec(0.0, -2.0, 1e-3, fwd.value, fwd.derivative),
                        E, MASS, None, U)
        scale = max(abs(v0), abs(d0))
        assert abs(bwd.value - v0) / scale < 1e-10
        assert abs(bwd.derivative - d0) / scale < 1e-10

    def test_convergence_order(self):
        # slope of the halving gap on the constant-coefficient case; the
        # coarse runs fail the gate, which is itself part of the contract,
        # so the gap is read from either outcome.
        def gap_at(step):
            spec = IntegrationSpec(0.0, 3.2, step, 1.0, 0.0)
            try:
                return integrate(spec, 1.0, CONST_MASS, None, U).halving_gap
            except AccuracyError as exc:
                return exc.value
        gaps = [gap_at(h) for h in (0.32, 0.16, 0.08)]
        orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
        assert min(orders) > 3.5

    def test_halving_gate_raises(self):
        spec = IntegrationSpec(0.0, 3.2, 0.32, 1.0, 0.0)
        with pytest.raises(AccuracyError) as info:
            integrate(spec, 1.0, CONST_MASS, None, U)
        assert info.value.value > HALVING_GATE
        assert f"gap {info.value.value!r}" in str(info.value)
        # the gap grows with k: 0.5 eV fails by less, 1e-6 eV passes
        with pytest.raises(AccuracyError) as lower:
            integrate(spec, 0.5, CONST_MASS, None, U)
        assert HALVING_GATE < lower.value.value < info.value.value
        assert integrate(spec, 1e-6, CONST_MASS, None, U).halving_gap \
            <= HALVING_GATE


def reference_march(x0, x1, n, v, d, weight, friction):
    """_march as the step-by-step loop it was before the product form, with
    weight and friction (None for the plain equation) called at each RK4
    stage; the loop that wrote the weight out gave the same bits."""
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


def reference_step_matrices(x, h, weight, friction):
    """_step_matrices as it was before its entries were written out: RK4
    applied to the unit states (1, 0) and (0, 1) at once, as (2, n)
    broadcasts, stacked to m[row, column, step]."""
    H, M0, M1, rel, alpha = weight
    neg_h, neg_m1 = -H, -M1
    half = 0.5 * h
    sixth = h / 6.0
    points = (x, x + half, x + h)
    masses = [M0 - M1 * p for p in points]
    w0, wm, we = (neg_h * m * (rel + alpha * p) for m, p in zip(masses, points))
    if friction:
        f0, fm, fe = (neg_m1 / m for m in masses)
    v = np.array([1.0, 0.0]).reshape(2, 1)
    d = np.array([0.0, 1.0]).reshape(2, 1)
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


def reference_product_march(x0, x1, n, v, d, weight, friction):
    """_march as it was before the pair layout: each block's matrices in
    step order (reference_step_matrices), multiplied by stride-2 views of
    the even and odd steps, with a concatenate carrying an odd level's
    last step."""
    v, d = float(v), float(d)
    h = (x1 - x0) / n
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _MARCH_BLOCK):
            x = x0 + np.arange(start, min(n, start + _MARCH_BLOCK)) * h
            m = reference_step_matrices(x, h, weight, friction)
            while m.shape[2] > 1:
                k = m.shape[2] // 2 * 2
                later, earlier = m[:, :, 1:k:2], m[:, :, 0:k:2]
                pairs = later[:, :1] * earlier[:1] + later[:, 1:] * earlier[1:]
                m = (np.concatenate([pairs, m[:, :, k:]], axis=2)
                     if k < m.shape[2] else pairs)
            (mvv, mvd), (mdv, mdd) = m[:, :, 0]
            v, d = mvv * v + mvd * d, mdv * v + mdd * d
    return float(v), float(d)


def called_weight(E, pp):
    """The weight as integrate built it before, one lambda per profile."""
    if pp is None:
        return lambda x: U.H_per_m0 * MASS.mass_at(x) * E
    rel = E - pp.edge_eV
    return lambda x: U.H_per_m0 * MASS.mass_at(x) * (rel + pp.alpha * x)


def called_friction(full):
    return (lambda x: -MASS.M1 / MASS.mass_at(x)) if full else None


def assert_near_loop(want, got, rel=1e-12):
    """Endpoints within rel of the loop's on its state scale: the product
    march rounds in another order."""
    (wv, wd), (gv, gd) = want, got
    scale = max(abs(wv), abs(wd))
    assert abs(gv - wv) <= rel * scale, (wv, gv)
    assert abs(gd - wd) <= rel * scale, (wd, gd)


def march_box(seed=4093, counts=(1, _MARCH_BLOCK - 1, _MARCH_BLOCK,
                                  _MARCH_BLOCK + 1, 3 * _MARCH_BLOCK + 7)):
    """Seeded march cases: (x0, x1, n, E, v, d, pp, full) for every step
    count in counts (by default around the block size), friction on and
    off, on each side of the mass zero x* = 1 nm (friction is singular
    there) and in both directions."""
    rng = random.Random(seed)
    cases = []
    for n in counts:
        for full in (False, True):
            for left in (True, False):
                span = n * rng.uniform(1e-4, 2e-3)
                if left:
                    hi = rng.uniform(-1.0, 0.9)
                    lo = hi - span
                else:
                    lo = rng.uniform(1.1, 3.0)
                    hi = lo + span
                x0, x1 = (lo, hi) if rng.random() < 0.5 else (hi, lo)
                E, v, d = (rng.uniform(*box)
                           for box in ((0.02, 2.25), (-1.0, 1.0), (-1.0, 1.0)))
                cases.append((x0, x1, n, E, v, d,
                              rng.choice((BARRIER, None)), full))
    return cases


class TestMarch:
    @pytest.mark.parametrize("pp", [BARRIER, None])
    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("x0, x1", [(0.0, 0.9), (7.0, 1.4), (-2.0, 0.0)])
    def test_inline_weight_is_the_called_one(self, pp, full, x0, x1):
        for E in (0.07, 0.6, 2.1):
            want = reference_march(x0, x1, 700, 0.3, -1.1, called_weight(E, pp),
                                   called_friction(full))
            got = _march(x0, x1, 700, 0.3, -1.1, make_weight(E, MASS, pp, U),
                         full)
            assert_near_loop(want, got)
        # the weight integrate passes on, as ode_residual sees it
        weight, want = make_weight(0.6, MASS, pp, U), called_weight(0.6, pp)
        for x in np.linspace(x0, x1, 9).tolist():
            assert weight(x).hex() == want(x).hex()

    def test_product_agrees_with_the_step_loop(self):
        for x0, x1, n, E, v, d, pp, full in march_box():
            want = reference_march(x0, x1, n, v, d, called_weight(E, pp),
                                   called_friction(full))
            got = _march(x0, x1, n, v, d, make_weight(E, MASS, pp, U), full)
            assert all(type(g) is float for g in got)
            assert_near_loop(want, got)

    def test_product_is_the_unit_state_product(self):
        # the written-out step matrices and the pair layout give the bits
        # of the unit-state product with stride-2 pairs, at every block
        # size; 856 and 1712 are matched_b1's partial blocks
        cases = march_box() + march_box(
            seed=4094, counts=(2, 3, 5, 856, 1712, 4096, 14000))
        assert {pp for *_, pp, _ in cases} == {BARRIER, None}
        for x0, x1, n, E, v, d, pp, full in cases:
            weight = make_weight(E, MASS, pp, U)
            want = reference_product_march(x0, x1, n, v, d, weight, full)
            got = _march(x0, x1, n, v, d, weight, full)
            assert [g.hex() for g in got] == [w.hex() for w in want], \
                (x0, x1, n, full)

    def test_step_matrices_are_the_unit_state_steps(self):
        # steps up to 0.8 nm, so that the diagonal 1 + (h/6)(...) keeps
        # the low bits of its sum
        x = np.linspace(-2.0, 0.1, 301)
        for E, pp, full in ((0.07, BARRIER, False), (2.1, None, True),
                            (0.6, BARRIER, True), (1.3, None, False)):
            weight = make_weight(E, MASS, pp, U)
            for h in (1e-3, -7e-4, 0.3, -0.8):
                want = reference_step_matrices(x, h, weight, full)
                got = _step_matrices(x, h, weight, full)
                assert got.shape == want.shape == (2, 2, len(x))
                assert got.tobytes() == want.tobytes()

    def test_nan_energy_fails_the_gate(self):
        spec = IntegrationSpec(0.0, 7.0, 1e-3, 0.3, -1.1)
        with pytest.raises(AccuracyError, match=r"gap nan$") as info:
            integrate(spec, math.nan, MASS, BARRIER, U)
        assert math.isnan(info.value.value)


class TestPairLayout:
    @staticmethod
    def replay(k):
        """The levels of _march's product replayed on step ids: per level
        its (earlier, later, carried) ids."""
        ids = _pair_layout(k).tolist()
        levels = []
        while len(ids) > 1:
            p = len(ids) // 2
            levels.append((ids[:p], ids[p:2 * p], ids[2 * p:]))
            ids = [i // 2 for i in ids[:p] + ids[2 * p:]]
        return levels

    @pytest.mark.parametrize("k", [*range(1, 65), 856, 1712, _MARCH_BLOCK])
    def test_is_a_permutation(self, k):
        layout = _pair_layout(k)
        assert layout.dtype == np.intp and not layout.flags.writeable
        assert sorted(layout.tolist()) == list(range(k))

    def test_full_block_is_the_bit_reversal(self):
        bits = _MARCH_BLOCK.bit_length() - 1
        assert _MARCH_BLOCK == 1 << bits
        assert _pair_layout(_MARCH_BLOCK).tolist() == [
            int(format(i, f"0{bits}b")[::-1], 2) for i in range(_MARCH_BLOCK)]

    @pytest.mark.parametrize("k", [*range(1, 65), 856, 1712, _MARCH_BLOCK])
    def test_levels_pair_adjacent_ids(self, k):
        # each level pairs id 2i (earlier, first half) with 2i + 1 (later,
        # second half) and carries an odd level's last id last
        size = k
        for earlier, later, carried in self.replay(k):
            assert all(e % 2 == 0 for e in earlier)
            assert later == [e + 1 for e in earlier]
            assert carried == ([size - 1] if size % 2 else [])
            size = (size + 1) // 2
        assert size == 1


class TestFullEquation:
    # The mass-gradient term -(m'/m) phi' is singular at the mass zero, so
    # crossing ranges are truncated ten steps short of it.  This mode only
    # quantifies the size of the dropped term; nothing downstream gates on it.

    def test_truncates_before_mass_zero(self):
        got = integrate(IntegrationSpec(0.0, 2.0, 1e-2, 1.0, 0.0),
                        0.1, MASS, BARRIER, U, full_equation=True)
        assert got.x_stop == pytest.approx(MASS.mass_zero_nm - 0.1, abs=1e-12)

    def test_truncates_from_above(self):
        got = integrate(IntegrationSpec(2.0, 0.0, 1e-3, 1.0, 0.0),
                        0.1, MASS, BARRIER, U, full_equation=True)
        assert got.x_stop == pytest.approx(MASS.mass_zero_nm + 0.01, abs=1e-12)

    @pytest.mark.parametrize("x0, x1, x_stop", [(0.0, 1.0, 0.99),
                                                 (2.0, 1.0, 1.01)])
    def test_range_ending_at_mass_zero_stops_short(self, x0, x1, x_stop):
        # the mass zero x* = 1 nm is an end of the range: the march stops
        # ten steps short of it, as a crossing does, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrate(IntegrationSpec(x0, x1, 1e-3, 1.0, 0.0),
                            0.1, MASS, BARRIER, U, full_equation=True)
        assert got.x_stop == pytest.approx(x_stop, abs=1e-12)
        # the same as the range that ends there
        want = integrate(IntegrationSpec(x0, got.x_stop, 1e-3, 1.0, 0.0),
                         0.1, MASS, BARRIER, U, full_equation=True)
        assert (got.value, got.derivative) == (want.value, want.derivative)

    @pytest.mark.parametrize("x0, x1", [(1.0, 0.0), (1.0, 2.0), (1.005, 0.0)])
    def test_range_starting_at_mass_zero_is_refused(self, x0, x1):
        # from x* (or within ten steps of it) there is nothing to march
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"mass zero x\* = 1\.0 nm"):
                integrate(IntegrationSpec(x0, x1, 1e-3, 1.0, 0.0),
                          0.1, MASS, BARRIER, U, full_equation=True)

    @pytest.mark.parametrize("E", [5e307, 1.7e308])
    @pytest.mark.parametrize("pp", [BARRIER, None])
    def test_overflow_is_refused(self, E, pp):
        # the weight overflows the step matrices: the endpoints are not
        # finite and the halving gate refuses them with a NaN gap.  The
        # last two read (nan, nan) when the matrices came from the unit
        # states, whose exact zeros met an infinite stage as 0 * inf
        for spec, endpoint in (
                (IntegrationSpec(0.0, 0.5, 1e-3, 1.0, 0.0), "nan, nan"),
                (IntegrationSpec(2.0, 0.0, 1e-3, 0.3, -1.1), "nan, nan"),
                (IntegrationSpec(5.56, 6.26, 1e-3, 0.4, 0.3), "inf, inf"),
                (IntegrationSpec(3.737, 3.738, 1e-3, -0.7, -0.6),
                 "-inf, -inf")):
            with pytest.raises(AccuracyError) as info:
                integrate(spec, E, MASS, pp, U, full_equation=True)
            assert str(info.value) == (
                f"halving gate failed: endpoint ({endpoint}) vs "
                f"coarse ({endpoint}), gap nan")
            assert math.isnan(info.value.value)

    def test_constant_mass_reduces_to_plain(self):
        spec = IntegrationSpec(0.0, 2.0, 1e-3, 1.0, 0.0)
        full = integrate(spec, 1.0, CONST_MASS, None, U, full_equation=True)
        plain = integrate(spec, 1.0, CONST_MASS, None, U)
        assert full.value == plain.value
        assert full.derivative == plain.derivative

    def test_dropped_term_is_visible(self):
        # the approximation the closed forms rely on costs about 1% here
        spec = IntegrationSpec(0.0, 0.5, 1e-3, 1.0, 0.0)
        full = integrate(spec, 0.1, MASS, BARRIER, U, full_equation=True)
        plain = integrate(spec, 0.1, MASS, BARRIER, U)
        rel = abs(full.value - plain.value) / abs(plain.value)
        assert 1e-3 < rel < 0.1


class TestOdeResidual:
    def test_zero_function(self):
        xs = [i * 1e-2 for i in range(201)]
        report = ode_residual(xs, [0.0] * 201, lambda x: 1.0)
        assert report.residual == 0.0
        assert report.conclusive

    def test_airy_samples_conclusive(self):
        E = 0.1
        xs = [i * 1e-3 for i in range(2001)]
        vals = [airy_state(x, E)[0] for x in xs]
        weight = lambda x: U.H_per_m0 * MASS.mass_at(x) * E
        report = ode_residual(xs, vals, weight)
        assert report.conclusive
        assert report.residual < 1e-6

    def test_coarse_grid_is_inconclusive(self):
        E = 0.1
        xs = [i * 0.1 for i in range(21)]
        vals = [airy_state(x, E)[0] for x in xs]
        weight = lambda x: U.H_per_m0 * MASS.mass_at(x) * E
        report = ode_residual(xs, vals, weight)
        assert not report.conclusive
        assert report.floor > 1e-6

    def test_flags_wrong_function(self):
        # cos(3x) against phi'' + phi = 0: residual 8 cos(3x) at its worst
        xs = [i * 1e-2 for i in range(201)]
        report = ode_residual(xs, [math.cos(3.0 * x) for x in xs], lambda x: 1.0)
        assert report.residual == pytest.approx(8.0, rel=1e-3)
        assert report.residual > 1e3 * report.floor

    def test_validation(self):
        with pytest.raises(DomainError):
            ode_residual([0.0, 0.1, 0.2, 0.3], [1.0] * 4, lambda x: 1.0)
        with pytest.raises(DomainError):
            ode_residual([0.0, 0.1, 0.3, 0.4, 0.5], [1.0] * 5, lambda x: 1.0)
        with pytest.raises(DomainError):
            ode_residual([0.0] * 6, [1.0] * 6, lambda x: 1.0)  # zero step

    def test_matches_the_sample_loop(self):
        # seeded grids, some with NaN samples or a jittered node, against
        # the loop: same doubles and verdict, or the same refusal, on every
        # NaN-free grid; a NaN sample makes the report NaN and inconclusive,
        # and a NaN node is refused, where the loop passed over both
        rng = random.Random(512)
        weights = (lambda x: 1.0, lambda x: -x, make_weight(0.4, MASS, BARRIER, U))
        for _ in range(150):
            m, h = rng.choice((5, 6, 9, 60)), rng.choice((1e-3, 1e-2, 0.1))
            xs = [i * h for i in range(m)]
            vals = [math.cos(3.0 * x) + rng.uniform(-1e-4, 1e-4) for x in xs]
            for _ in range(rng.choice((0, 0, 1, 2))):
                vals[rng.randrange(m)] = math.nan
            if rng.random() < 0.3:
                xs[rng.randrange(1, m)] += rng.choice((1e-12, 1e-6, math.nan))
            weight = rng.choice(weights)
            if any(math.isnan(x) for x in xs):
                with pytest.raises(DomainError, match="uniform"):
                    ode_residual(xs, vals, weight)
                continue
            try:
                want = reference_ode_residual(xs, vals, weight)
            except DomainError as exc:
                with pytest.raises(DomainError, match=str(exc)):
                    ode_residual(xs, vals, weight)
                continue
            got = ode_residual(xs, vals, weight)
            if any(math.isnan(v) for v in vals):
                assert math.isnan(got.residual) and math.isnan(got.floor)
                assert got.conclusive is False
                continue
            assert (got.residual.hex(), got.conclusive, got.floor.hex()) == \
                (want[0].hex(), want[1], want[2].hex())

    def test_nan_samples_and_grid_checks_pinned(self):
        # a NaN sample or weight value at any index makes every maximum
        # NaN: the residual and the floor are NaN and the verdict is not
        # conclusive, so a NaN can never read as a passing 0
        xs = [i * 1e-2 for i in range(201)]
        cosine = [math.cos(3.0 * x) for x in xs]
        for i in (0, 57, 200):
            for base in ([0.0] * 201, cosine):
                vals = base[:]
                vals[i] = math.nan
                report = ode_residual(xs, vals, lambda x: 1.0)
                assert math.isnan(report.residual)
                assert math.isnan(report.floor)
                assert report.conclusive is False
            weight = lambda x, i=i: np.where(np.arange(201) == i, math.nan, 1.0)
            report = ode_residual(xs, cosine, weight)
            assert math.isnan(report.residual) and not report.conclusive
        # the loop's doubles on the NaN-free cosine, frozen from it
        pinned = ("0x1.fff04f2a353a2p+2", False, "0x1.61d42d2e4a000p-11")
        report = ode_residual(xs, cosine, lambda x: 1.0)
        assert (report.residual.hex(), report.conclusive,
                report.floor.hex()) == pinned
        # spacing within 1e-9 of the first step passes; a NaN spacing and
        # a 1e-6 departure are refused
        for bump, passes in ((1e-12, True), (math.nan, False), (1e-6, False)):
            grid = xs[:]
            grid[100] += bump
            if passes:
                report = ode_residual(grid, cosine, lambda x: 1.0)
                assert (report.residual.hex(), report.conclusive,
                        report.floor.hex()) == pinned
            else:
                with pytest.raises(DomainError, match="uniform"):
                    ode_residual(grid, cosine, lambda x: 1.0)


class TestMatchedTransmission:
    def test_rejects_well(self):
        well = PotentialProfile(V0=0.45, alpha=0.0045, a=7.0, kind="well")
        with pytest.raises(DomainError):
            matched_transmission(0.1, MASS, well, U)

    def test_vanishing_barrier_is_transparent(self):
        thin = PotentialProfile(V0=0.45, alpha=0.45 / 1e-4, a=1e-4)
        assert abs(matched_transmission(0.1, MASS, thin, U) - 1.0) < 1e-3

    def test_infinite_energy_is_refused_by_name(self):
        for fn in (matched_b1, matched_transmission):
            with pytest.raises(DomainError, match="finite E, got inf"):
                fn(math.inf, MASS, BARRIER, U)

    def test_frozen_signed_amplitudes(self):
        # the frozen doubles, as Python floats or np.float64; the 1e-3 nm
        # march's within its own error of them (1.9e-12 in b1 at most
        # here, so 3.8e-12 in T), and within 1e-12 of the multi-step Airy
        # march's and of the step loop's
        for E, b1, t, raw_b1, raw_t, *references in ORACLE_TABLE:
            for e in (E, np.float64(E)):
                got_b1 = matched_b1(e, MASS, BARRIER, U)
                got_t = matched_transmission(e, MASS, BARRIER, U)
                assert type(got_b1) is float and type(got_t) is float
                assert (got_b1.hex(), got_t.hex()) == (b1, t)
            assert float.fromhex(raw_b1) == pytest.approx(
                float.fromhex(b1), rel=2.5e-12, abs=0.0)
            assert float.fromhex(raw_t) == pytest.approx(
                float.fromhex(t), rel=5e-12, abs=0.0)
            for ref_b1, ref_t in zip(references[::2], references[1::2]):
                assert float.fromhex(raw_b1) == pytest.approx(
                    float.fromhex(ref_b1), rel=1e-12, abs=0.0)
                assert float.fromhex(raw_t) == pytest.approx(
                    float.fromhex(ref_t), rel=1e-12, abs=0.0)


def projected_b1(E, mp, pp, step):
    """matched_b1's projection of integrate's endpoint across the profile
    at about step nm, as matched_b1 took it from one integrate call
    before the step ladder: b1, or the AccuracyError of the gate."""
    k = airy_scale(E, mp, U)
    tail = airy_ai(airy_argument(pp.a, E, mp, U))
    y1 = airy_argument(0.0, E, mp, U)
    (ai, aip), (bi_v, bi_d) = airy_ai(y1), airy_bi(y1)
    n = max(2, math.ceil(pp.a / step))
    got = integrate(IntegrationSpec(pp.a, 0.0, pp.a / n, tail.value,
                                    k * tail.derivative), E, mp, pp, U)
    return ((got.value * k * bi_d - got.derivative * bi_v)
            / (k * (ai * bi_d - aip * bi_v)))


def box_point(i):
    """(E, mp, pp) of test_scatter.parameter_box(0)'s point i."""
    E, M0, M1, V0, alpha, a = list(parameter_box(0))[i]
    return E, MassParams(M0=M0, M1=M1), PotentialProfile(V0=V0, alpha=alpha,
                                                         a=a)


def counted_marches(monkeypatch):
    """The step counts of every _march call from here on, in order."""
    counts = []
    march = triq.oracle._march

    def spied(x0, x1, n, *args):
        counts.append(n)
        return march(x0, x1, n, *args)

    monkeypatch.setattr(triq.oracle, "_march", spied)
    return counts


class TestStepLadder:
    def test_endpoint_is_the_extrapolated_pair(self):
        # integrate's endpoint is v + (v - v_coarse) / 15 of its two
        # marches, each component, with friction on and off
        for x0, x1, n, E, v, d, pp, full in march_box(counts=(1, 700, 2049)):
            weight = make_weight(E, MASS, pp, U)
            fine = _march(x0, x1, 2 * n, v, d, weight, full)
            coarse = _march(x0, x1, n, v, d, weight, full)
            got = integrate(IntegrationSpec(x0, x1, abs(x1 - x0) / n, v, d),
                            E, MASS, pp, U, full_equation=full)
            assert got.x_stop == x1
            want = [f + (f - c) / 15.0 for f, c in zip(fine, coarse)]
            assert [got.value.hex(), got.derivative.hex()] == \
                [w.hex() for w in want]

    @pytest.mark.parametrize("E", [0.1, 0.8508635454386844, 2.25])
    def test_passing_pair_is_the_2e_3_pair(self, E, monkeypatch):
        # 3500 + 7000 steps across the default 7 nm, half of the 1e-3 nm
        # pair's marching
        want = projected_b1(E, MASS, BARRIER, 2e-3)
        counts = counted_marches(monkeypatch)
        assert matched_b1(E, MASS, BARRIER, U).hex() == want.hex()
        assert counts == [7000, 3500]

    @pytest.mark.parametrize("i, counts", [
        # the 1e-3 pair marches its coarse run again, though the 2e-3
        # pair's fine march took the same steps
        (3, [10924, 5462, 21848, 10924]),
        # ceil(a / 1e-3) is odd: the 1e-3 pair's coarse run is its own
        (64, [8466, 4233, 16930, 8465]),
    ])
    def test_failing_pair_falls_back_to_the_1e_3_pair(self, i, counts,
                                                       monkeypatch):
        # two of the three solved box points (E = 2.195 and 2.278 eV) where
        # the 2e-3 pair fails the halving gate: b1 is the 1e-3 pair's
        E, mp, pp = box_point(i)
        with pytest.raises(AccuracyError):
            projected_b1(E, mp, pp, 2e-3)
        want = projected_b1(E, mp, pp, 1e-3)
        got = counted_marches(monkeypatch)
        assert matched_b1(E, mp, pp, U).hex() == want.hex()
        assert got == counts

    def test_both_pairs_failing_raise_the_1e_3_pairs_error(self):
        # at 50 eV both pairs fail the gate; the error is the one the
        # oracle raised when it marched the 1e-3 pair alone
        message = ("halving gate failed: endpoint (0.2272402970696099, "
                   "-2.2821533188928864) vs coarse (0.227240277629218, "
                   "-2.2821531244206317), gap 8.521436887446667e-08")
        for step in (2e-3, 1e-3):
            with pytest.raises(AccuracyError):
                projected_b1(50.0, MASS, BARRIER, step)
        with pytest.raises(AccuracyError) as info:
            matched_b1(50.0, MASS, BARRIER, U)
        assert str(info.value) == message
        assert info.value.value == 8.521436887446667e-08
