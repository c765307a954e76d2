import dataclasses
import math
import random
import re

import numpy as np
import pytest

from triq.errors import DomainError
from triq.model import (
    MassParams,
    PotentialProfile,
    UnitSystem,
    _barrier_coefficients,
    airy_argument,
    airy_scale,
    barrier_coefficients,
    make_units,
    well_coefficients,
)

U = make_units()
MASS = MassParams()
BARRIER = PotentialProfile()
WELL = PotentialProfile(V0=0.45, alpha=0.0045, a=7.0, kind="well")


def value_at(pp, x):
    """The profile's potential V(x) in eV: edge_eV - alpha x on (0, a),
    zero outside."""
    if x <= 0.0 or x >= pp.a:
        return 0.0
    return pp.edge_eV - pp.alpha * x


class TestUnits:
    def test_frozen_values(self):
        assert U.hbar2_over_2m0 == pytest.approx(0.0378133102852204, rel=1e-15)
        assert U.H_per_m0 == pytest.approx(26.445714285714285, rel=1e-15)

    def test_reciprocal_exact(self):
        assert U.H_per_m0 == 1.0 / U.hbar2_over_2m0
        assert U.H_per_m0 * U.hbar2_over_2m0 == 1.0

    def test_si_rederivation(self):
        # hbar^2/(2 m0) in J m^2, converted to eV nm^2 independently.
        si = (1.05e-34) ** 2 / (2.0 * 9.1e-31)
        assert U.hbar2_over_2m0 == pytest.approx(si / 1.602e-19 * 1e18, rel=1e-12)


class TestMassParams:
    def test_defaults(self):
        assert MASS.M0 == 0.067
        assert MASS.M1 == 0.067
        assert MASS.mass_zero_nm == 1.0

    def test_mass_at_is_linear(self):
        assert MASS.mass_at(0.0) == MASS.M0
        assert MASS.mass_at(MASS.mass_zero_nm) == pytest.approx(0.0, abs=1e-18)
        assert MASS.mass_at(3.0) == pytest.approx(0.067 - 0.201, rel=1e-15)

    def test_constant_mass_has_no_zero(self):
        assert MassParams(M0=0.067, M1=0.0).mass_zero_nm == math.inf

    def test_validation(self):
        with pytest.raises(DomainError, match="^M0 must be positive, got 0.0$"):
            MassParams(M0=0.0)
        with pytest.raises(DomainError, match="^M1 must be non-negative, got -0.1$"):
            MassParams(M1=-0.1)

    @pytest.mark.parametrize("name", ["M0", "M1"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_refused_by_name(self, name, value):
        # np.float64 input gets the Python float's message
        for v in (value, np.float64(value)):
            with pytest.raises(DomainError, match=f"^{name} must be finite, got {value!r}$"):
                MassParams(**{name: v})


class TestPotentialProfile:
    def test_barrier_shape(self):
        assert value_at(BARRIER, -1.0) == 0.0
        assert value_at(BARRIER, 8.0) == 0.0
        assert value_at(BARRIER, 1.0) == pytest.approx(0.45 - 0.45 / 7.0)
        assert BARRIER.edge_eV == 0.45

    def test_well_shape(self):
        assert value_at(WELL, 2.0) == pytest.approx(-0.45 - 0.009)
        assert WELL.edge_eV == -0.45

    def test_validation(self):
        with pytest.raises(DomainError):
            PotentialProfile(kind="step")
        with pytest.raises(DomainError, match="^alpha must be positive, got 0.0$"):
            PotentialProfile(alpha=0.0)
        with pytest.raises(DomainError, match="^a must be positive, got -1.0$"):
            PotentialProfile(a=-1.0)

    @pytest.mark.parametrize("name", ["V0", "alpha", "a"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_refused_by_name(self, name, value):
        # np.float64 input gets the Python float's message
        for v in (value, np.float64(value)):
            with pytest.raises(DomainError, match=f"^{name} must be finite, got {value!r}$"):
                PotentialProfile(**{name: v})


class TestCoefficients:
    def test_expansion_identity_barrier(self):
        # -(a1 x^2 + a2 x + a3) must equal H m(x)(E - V(x)) identically;
        # this is the sign-fixing check, against a direct expansion.
        rng = random.Random(42)
        for _ in range(100):
            E = rng.uniform(0.01, 2.0)
            x = rng.uniform(0.0, BARRIER.a)
            rc = barrier_coefficients(E, MASS, BARRIER, U)
            lhs = -(rc.a1 * x * x + rc.a2 * x + rc.a3)
            rhs = U.H_per_m0 * MASS.mass_at(x) * (E - (BARRIER.V0 - BARRIER.alpha * x))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_expansion_identity_well(self):
        rng = random.Random(43)
        for _ in range(100):
            E = rng.uniform(-0.8, 0.5)
            x = rng.uniform(0.0, WELL.a)
            rc = well_coefficients(E, MASS, WELL, U)
            lhs = -(rc.a1 * x * x + rc.a2 * x + rc.a3)
            rhs = U.H_per_m0 * MASS.mass_at(x) * (E - (-WELL.V0 - WELL.alpha * x))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_coefficient_pass_keeps_the_airy_scale(self):
        # the lone route takes k from the coefficient pass: the pair is
        # barrier_coefficients and airy_scale double for double, and a
        # refused energy raises barrier_coefficients' error
        for E in (1e-300, 0.02, 0.1, 2.25, 1e6, np.float64(0.3)):
            for signs in (False, True):
                rc, k = _barrier_coefficients(E, MASS, BARRIER, U, signs)
                assert rc == barrier_coefficients(E, MASS, BARRIER, U, signs)
                assert k.hex() == airy_scale(E, MASS, U).hex()
        for E in (0.0, -1.0, math.inf, math.nan, 1e300):
            with pytest.raises(DomainError) as want:
                barrier_coefficients(E, MASS, BARRIER, U)
            with pytest.raises(DomainError, match=re.escape(str(want.value))):
                _barrier_coefficients(E, MASS, BARRIER, U, False)

    def test_printed_signs_flip_a3_only(self):
        rc = barrier_coefficients(0.1, MASS, BARRIER, U)
        flipped = barrier_coefficients(0.1, MASS, BARRIER, U, printed_signs=True)
        assert flipped.a1 == rc.a1
        assert flipped.a2 == rc.a2
        assert flipped.a3 == -rc.a3

    def test_well_is_barrier_with_negated_height(self):
        # field-by-field agreement under V0 -> -V0 at equal alpha
        E = 0.3
        rcw = well_coefficients(E, MASS, WELL, U)
        H = U.H_per_m0
        gap = -WELL.V0 - E
        assert rcw.a1 == H * MASS.M1 * WELL.alpha
        assert rcw.a2 == -H * (MASS.M0 * WELL.alpha + MASS.M1 * gap)
        assert rcw.a3 == H * MASS.M0 * gap
        rcb = barrier_coefficients(E, MASS, PotentialProfile(alpha=WELL.alpha), U)
        assert rcw.a1 == rcb.a1

    def test_lambda_formula(self):
        rc = barrier_coefficients(0.25, MASS, BARRIER, U)
        assert rc.lam == (4.0 * rc.a1 * rc.a3 - rc.a2 ** 2) / (4.0 * rc.a1)

    def test_lambda_closed_form(self):
        # lam = -(H M1 / 4 alpha)(V0 - E - M0 alpha / M1)^2, always <= 0
        for E in (0.05, 0.1, 0.45, 1.3):
            rc = barrier_coefficients(E, MASS, BARRIER, U)
            H = U.H_per_m0
            expect = -(H * MASS.M1 / (4.0 * BARRIER.alpha)) * (
                BARRIER.V0 - E - MASS.M0 * BARRIER.alpha / MASS.M1) ** 2
            assert rc.lam == pytest.approx(expect, rel=1e-12)
            assert rc.lam <= 0.0
            assert rc.b_param <= 0.25

    def test_matching_arguments(self):
        rc = barrier_coefficients(0.1, MASS, BARRIER, U)
        assert rc.y2 == rc.a2 / (2.0 * rc.a1)
        assert rc.y4 - rc.y2 == BARRIER.a
        assert rc.y1 == airy_argument(0.0, 0.1, MASS, U)
        assert rc.y3 == airy_argument(BARRIER.a, 0.1, MASS, U)

    def test_well_negative_energy_has_nan_exterior(self):
        rc = well_coefficients(-0.3, MASS, WELL, U)
        assert math.isnan(rc.y1) and math.isnan(rc.y3)
        assert math.isfinite(rc.y2) and math.isfinite(rc.y4)

    def test_well_coefficients_are_floats_for_an_np_float64(self):
        # E is taken to a Python float where it enters, so every field for
        # an np.float64 energy is the float call's, bit for bit
        for E in (-0.1, -0.3, 0.2):
            want = well_coefficients(E, MASS, WELL, U)
            got = well_coefficients(np.float64(E), MASS, WELL, U)
            for field in dataclasses.fields(got):
                value = getattr(got, field.name)
                assert type(value) is float, field.name
                assert value.hex() == getattr(want, field.name).hex()
        # an np.float64 gets the Python float's message
        for E in (math.nan, np.float64(math.inf)):
            with pytest.raises(DomainError,
                               match=f"^energy must be finite, got {float(E)!r}$"):
                well_coefficients(E, MASS, WELL, U)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(DomainError):
            barrier_coefficients(0.1, MASS, WELL, U)
        with pytest.raises(DomainError):
            well_coefficients(-0.1, MASS, BARRIER, U)
        with pytest.raises(DomainError):
            barrier_coefficients(-0.1, MASS, BARRIER, U)

    def test_energy_refusals_name_the_energy(self):
        # +inf is refused where E enters; E <= 0 and NaN keep their message
        with pytest.raises(DomainError,
                           match="^scattering energy must be finite, got inf$"):
            barrier_coefficients(math.inf, MASS, BARRIER, U)
        with pytest.raises(DomainError,
                           match="^exterior Airy form needs a finite E, got inf$"):
            airy_scale(math.inf, MASS, U)
        for E in (0.0, -0.1, -math.inf, math.nan):
            with pytest.raises(DomainError, match=(
                    f"^scattering energy must be positive, got {E!r}$")):
                barrier_coefficients(E, MASS, BARRIER, U)
            with pytest.raises(DomainError, match=(
                    f"^exterior Airy form needs E > 0, got {E!r}$")):
                airy_scale(E, MASS, U)

    def test_overflowing_energy_refused_by_name(self):
        # a2^2 overflows lam from about 7.6e153 eV, H E from about 6.8e306
        assert math.isfinite(barrier_coefficients(1e153, MASS, BARRIER, U).lam)
        for E in (1e155, 1e300, 6.7e306):
            with pytest.raises(DomainError, match=re.escape(
                    f"scattering energy overflows the interior coefficients, "
                    f"got {E!r}") + "$"):
                barrier_coefficients(E, MASS, BARRIER, U)
        assert math.isfinite(airy_scale(6.7e306, MASS, U))
        for E in (6.9e306, 1e308, 1.7976931348623157e308):
            for refuse in (lambda: airy_scale(E, MASS, U),
                           lambda: barrier_coefficients(E, MASS, BARRIER, U)):
                with pytest.raises(DomainError, match=re.escape(
                        f"exterior Airy form overflows at E = {E!r}") + "$"):
                    refuse()
        # M0 above M1: H E M0 overflows first, and airy_argument takes it
        heavy = MassParams(M0=2.0, M1=0.067)
        with pytest.raises(DomainError, match="^exterior Airy form overflows"):
            airy_scale(3.5e306, heavy, U)


class TestAiryArgument:
    def test_interface_values(self):
        E = 0.1
        k = airy_scale(E, MASS, U)
        y1 = airy_argument(0.0, E, MASS, U)
        assert y1 == pytest.approx(-U.H_per_m0 * E * MASS.M0 / k ** 2, rel=1e-14)
        y3 = airy_argument(BARRIER.a, E, MASS, U)
        assert y3 == pytest.approx(k * BARRIER.a + y1, rel=1e-14)

    def test_numpy_input_gives_the_float(self):
        want = airy_argument(2.0, 0.3, MASS, U)
        for x, E in ((np.float64(2.0), 0.3), (2.0, np.float64(0.3)),
                     (np.float64(2.0), np.float64(0.3))):
            got = airy_argument(x, E, MASS, U)
            assert type(got) is float and got.hex() == want.hex()

    def test_mass_zero_maps_to_turning_point(self):
        for E in (0.02, 0.1, 0.7, 2.0):
            y = airy_argument(MASS.mass_zero_nm, E, MASS, U)
            assert abs(y) <= 1e-12

    def test_si_rederivation(self):
        # rebuild a1 and the Airy scale in SI units and convert back
        E = 0.37
        rc = barrier_coefficients(E, MASS, BARRIER, U)
        hbar, m0, ev = 1.05e-34, 9.1e-31, 1.602e-19
        H_si = 2.0 / hbar ** 2  # 1/(J^2 s^2) -> combines with kg to 1/(J m^2)
        a1_si = H_si * (MASS.M1 * m0 / 1e-9) * (BARRIER.alpha * ev / 1e-9)
        assert rc.a1 == pytest.approx(a1_si * 1e-36, rel=1e-12)
        k_si = (H_si * E * ev * MASS.M1 * m0 / 1e-9) ** (1.0 / 3.0)
        assert airy_scale(E, MASS, U) == pytest.approx(k_si * 1e-9, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            airy_argument(0.0, 0.0, MASS, U)
        with pytest.raises(DomainError):
            airy_argument(0.0, 0.1, MassParams(M1=0.0), U)
