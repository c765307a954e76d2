"""Marcher tests: textbook limits, convergence order, and residual verdicts."""

import math

import numpy as np
import pytest

from triq.errors import AccuracyError, DomainError
from triq.model import (
    MassParams,
    PotentialProfile,
    airy_argument,
    airy_scale,
    make_units,
)
from triq.oracle import (
    HALVING_GATE,
    IntegrationSpec,
    integrate,
    matched_b1,
    matched_transmission,
    ode_residual,
)
from triq.special import airy_ai

U = make_units()
MASS = MassParams()
BARRIER = PotentialProfile()
CONST_MASS = MassParams(M0=0.067, M1=0.0)

# (E, b1.hex(), T.hex()) of the scalar oracle at 0.1 eV and at 8 energies
# of random.Random(2094).uniform(0.02, 2.25), sorted; b1 < 0 below the pole
ORACLE_TABLE = [
    (0.05042571650522533, '-0x1.4346844acb058p-3', '0x1.4112cf1af154bp+5'),
    (0.1, '-0x1.63c73bf7ff250p-4', '0x1.0916afaabb8b0p+7'),
    (0.1347147285142501, '-0x1.270157e1aea3dp-5', '0x1.818f014e3c182p+9'),
    (0.1944721481704037, '0x1.2e1f53e7fca99p-5', '0x1.6f9b774c74246p+9'),
    (0.4282323117754124, '0x1.ac87982154e13p-3', '0x1.6d71135a5d13ep+4'),
    (0.8508635454386844, '0x1.68003cc423dd4p-2', '0x1.02e804a11b4cfp+3'),
    (2.0038573936543607, '0x1.fd0faead279f7p-2', '0x1.02f6d8414dec1p+2'),
    (2.1018640002132267, '0x1.0222ad318e7b7p-1', '0x1.f7905a8b95720p+1'),
    (2.161580790473181, '0x1.043a72b2756a1p-1', '0x1.ef7f2a417a01bp+1'),
]


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
        # on a grid every energy is gated and the worst one named (the gap
        # grows with k; 1e-6 eV alone passes)
        with pytest.raises(AccuracyError, match=r" at E = 1\.0 eV") as grid:
            integrate(spec, np.array([1e-6, 1.0, 0.5]), CONST_MASS, None, U)
        assert grid.value.value == info.value.value


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


class TestMatchedTransmission:
    def test_rejects_well(self):
        well = PotentialProfile(V0=0.45, alpha=0.0045, a=7.0, kind="well")
        with pytest.raises(DomainError):
            matched_transmission(0.1, MASS, well, U)

    def test_vanishing_barrier_is_transparent(self):
        thin = PotentialProfile(V0=0.45, alpha=0.45 / 1e-4, a=1e-4)
        assert abs(matched_transmission(0.1, MASS, thin, U) - 1.0) < 1e-3

    def test_frozen_signed_amplitudes(self):
        # scalar calls give the doubles frozen before the march took
        # arrays, and one lockstep march over the grid gives the same bits
        grid = np.array([E for E, _, _ in ORACLE_TABLE])
        lockstep = zip(matched_b1(grid, MASS, BARRIER, U),
                       matched_transmission(grid, MASS, BARRIER, U))
        for (E, b1, t), (grid_b1, grid_t) in zip(ORACLE_TABLE, lockstep):
            assert matched_b1(E, MASS, BARRIER, U).hex() == b1 == grid_b1.hex()
            assert (matched_transmission(E, MASS, BARRIER, U).hex() == t
                    == grid_t.hex())
        assert grid.tolist() == [E for E, _, _ in ORACLE_TABLE]  # untouched
