"""Marcher tests: textbook limits, convergence order, and residual verdicts."""

import math

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
    matched_transmission,
    ode_residual,
)
from triq.special import airy_ai

U = make_units()
MASS = MassParams()
BARRIER = PotentialProfile()
CONST_MASS = MassParams(M0=0.067, M1=0.0)


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
        with pytest.raises(AccuracyError) as info:
            integrate(IntegrationSpec(0.0, 3.2, 0.32, 1.0, 0.0),
                      1.0, CONST_MASS, None, U)
        assert info.value.value > HALVING_GATE

    def test_trajectory_on_requested_grid(self):
        got = integrate(IntegrationSpec(0.0, 0.5, 1e-2, 1.0, 0.0),
                        0.1, MASS, BARRIER, U, interior=True)
        assert len(got.xs) == 51
        assert got.xs[0] == 0.0 and got.xs[-1] == 0.5
        assert got.xs[1] - got.xs[0] == pytest.approx(1e-2, rel=1e-12)
        assert got.values[0] == 1.0 and got.derivatives[0] == 0.0
        assert got.values[-1] == got.value


class TestFullEquation:
    # The mass-gradient term -(m'/m) phi' is singular at the mass zero, so
    # crossing ranges are truncated ten steps short of it.  This mode only
    # quantifies the size of the dropped term; nothing downstream gates on it.

    def test_truncates_before_mass_zero(self):
        got = integrate(IntegrationSpec(0.0, 2.0, 1e-2, 1.0, 0.0),
                        0.1, MASS, BARRIER, U, full_equation=True, interior=True)
        assert got.x_stop == pytest.approx(MASS.mass_zero_nm - 0.1, abs=1e-12)
        assert got.xs[-1] == got.x_stop

    def test_truncates_from_above(self):
        got = integrate(IntegrationSpec(2.0, 0.0, 1e-3, 1.0, 0.0),
                        0.1, MASS, BARRIER, U, full_equation=True, interior=True)
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
        full = integrate(spec, 0.1, MASS, BARRIER, U, full_equation=True,
                         interior=True)
        plain = integrate(spec, 0.1, MASS, BARRIER, U, interior=True)
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
    def test_frozen_default(self):
        t = matched_transmission(0.1, MASS, BARRIER, U)
        assert t == pytest.approx(132.54430898227582, rel=1e-10)

    def test_rejects_well(self):
        well = PotentialProfile(V0=0.45, alpha=0.0045, a=7.0, kind="well")
        with pytest.raises(DomainError):
            matched_transmission(0.1, MASS, well, U)

    def test_vanishing_barrier_is_transparent(self):
        thin = PotentialProfile(V0=0.45, alpha=0.45 / 1e-4, a=1e-4)
        assert abs(matched_transmission(0.1, MASS, thin, U) - 1.0) < 1e-3
