"""Bound-spectrum tests: the closed-form ladder against the quantization rule."""

import math

import numpy as np
import pytest

import triq.bound
from triq.bound import (
    TABLE1_PUBLISHED_EV,
    TABLE1_REFERENCE_EV,
    count_bound_states,
    energy_level,
    level_spacing_scale,
    spectrum,
    table1_report,
)
from triq.errors import DomainError
from triq.model import MassParams, PotentialProfile, make_units, well_coefficients
from triq.special import kummer_m

U = make_units()
MASS = MassParams()
WELL = PotentialProfile(V0=0.45, alpha=0.0045, a=7.0, kind="well")
BARRIER = PotentialProfile()


class TestLevels:
    def test_frozen_ground_levels(self):
        assert energy_level(0, MASS, WELL, U).E_n == pytest.approx(
            -0.42438160290590843, rel=1e-14)
        assert energy_level(1, MASS, WELL, U).E_n == pytest.approx(
            -0.38715321672427905, rel=1e-14)

    def test_quantization_residual(self):
        # E_n must land exactly where the interior factor truncates,
        # re-derived through the coefficient path rather than the formula.
        for n in range(6):
            lev = energy_level(n, MASS, WELL, U)
            assert lev.residual <= 1e-10
            assert lev.below_zero

    def test_spacing_identity(self):
        s = level_spacing_scale(MASS, WELL, U)
        e0 = energy_level(0, MASS, WELL, U).E_n
        e1 = energy_level(1, MASS, WELL, U).E_n
        assert e1 - e0 == pytest.approx(s * (math.sqrt(5.0) - 1.0), rel=1e-12)

    def test_kummer_factor_terminates(self):
        # At E_n the interior Kummer series is a degree-n polynomial, so
        # its (n+1)-th finite difference on an integer grid vanishes while
        # the n-th stays O(1).
        for n in (0, 1, 3, 5):
            lev = energy_level(n, MASS, WELL, U)
            b = well_coefficients(lev.E_n, MASS, WELL, U).b_param
            vals = np.array([kummer_m(b, 0.5, float(k)) for k in range(n + 3)])
            lead = np.diff(vals, n=n)[0]
            assert abs(lead) > 0.5
            assert np.max(np.abs(np.diff(vals, n=n + 1))) <= 1e-10 * abs(lead)

    def test_levels_sit_inside_the_well(self):
        bottom = -WELL.V0 - WELL.alpha * WELL.a
        for n in (0, 10, 56):
            e = energy_level(n, MASS, WELL, U).E_n
            assert bottom < e < 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            energy_level(-1, MASS, WELL, U)
        with pytest.raises(DomainError):
            energy_level(1.5, MASS, WELL, U)
        with pytest.raises(DomainError):
            energy_level(math.nan, MASS, WELL, U)
        with pytest.raises(DomainError):
            energy_level(math.inf, MASS, WELL, U)
        with pytest.raises(DomainError):
            energy_level(0, MASS, BARRIER, U)
        with pytest.raises(DomainError):
            energy_level(0, MassParams(M1=0.0), WELL, U)


class TestSpectrum:
    def test_monotone_with_concave_spacing(self):
        es = [lev.E_n for lev in spectrum(MASS, WELL, U)]
        gaps = [b - a for a, b in zip(es, es[1:])]
        assert all(b > a for a, b in zip(es, es[1:]))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_terminates_at_first_unbound_level(self):
        levels = spectrum(MASS, WELL, U)
        assert all(lev.below_zero for lev in levels[:-1])
        assert not levels[-1].below_zero
        assert levels[-1].E_n >= 0.0

    def test_residuals_hold_across_the_spectrum(self):
        assert max(lev.residual for lev in spectrum(MASS, WELL, U)) <= 1e-10

    def test_count_frozen(self):
        assert count_bound_states(MASS, WELL, U) == 57
        assert len(spectrum(MASS, WELL, U)) == 58

    def test_count_non_increasing_in_slope(self):
        # steeper tilt lifts the whole ladder, over two decades of slope
        counts = []
        for al in np.logspace(math.log10(0.0045), math.log10(0.45), 9):
            pp = PotentialProfile(V0=0.45, alpha=float(al), a=7.0, kind="well")
            counts.append(count_bound_states(MASS, pp, U))
        assert counts[0] == 57
        assert counts[-1] == 0
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_steep_well_nearly_empty(self):
        pp = PotentialProfile(V0=0.45, alpha=45.0, a=7.0, kind="well")
        assert count_bound_states(MASS, pp, U) <= 1

    @pytest.mark.parametrize("alpha", [1e-4, 3e-4, 1e-3, 0.0045, 0.01,
                                       0.0643, 0.45, 45.0])
    def test_count_is_the_level_walk(self, alpha):
        # the closed-form count is where a walk up the ladder first meets
        # a level at or above zero
        pp = PotentialProfile(V0=0.45, alpha=alpha, a=7.0, kind="well")
        n = 0
        while energy_level(n, MASS, pp, U).below_zero:
            n += 1
        assert count_bound_states(MASS, pp, U) == n
        assert [lev.n for lev in spectrum(MASS, pp, U)] == list(range(n + 1))

    def test_shallow_slope_refused_before_listing(self, monkeypatch):
        # about 1.7e7 levels at alpha = 1e-6 and 1.7e10 at 1e-8: counted
        # in closed form, refused by spectrum without evaluating a level
        evaluated = []
        monkeypatch.setattr(triq.bound, "energy_level",
                            lambda n, *args: evaluated.append(n)
                            or energy_level(n, *args))
        for alpha, count in ((1e-6, 16846979), (1e-8, 16846904592)):
            pp = PotentialProfile(V0=0.45, alpha=alpha, a=7.0, kind="well")
            assert count_bound_states(MASS, pp, U) == count
            assert len(evaluated) <= 2
            with pytest.raises(DomainError, match=f"^{count} bound levels"):
                spectrum(MASS, pp, U)
            assert len(evaluated) <= 4
            del evaluated[:]

    @pytest.mark.parametrize("alpha, shown", [
        (1.6e-12, "8324154322675034"),  # at most 2^53: the integer
        (1.4e-12, "10170166044099786"),  # past it: %.17g of the double
        (1e-100, "1.6846903842689358e+148")])
    def test_huge_count_refused_with_its_digits(self, alpha, shown):
        pp = PotentialProfile(V0=0.45, alpha=alpha, a=7.0, kind="well")
        count = count_bound_states(MASS, pp, U)
        assert (count > 2 ** 53) == (alpha < 1.5e-12)
        with pytest.raises(DomainError) as refused:
            spectrum(MASS, pp, U)
        assert str(refused.value) == (
            f"{shown} bound levels, more than the 100000 a spectrum lists")

    def test_listing_limit(self, monkeypatch):
        monkeypatch.setattr(triq.bound, "MAX_LISTED_LEVELS", 56)
        with pytest.raises(DomainError, match="^57 bound levels"):
            spectrum(MASS, WELL, U)
        monkeypatch.setattr(triq.bound, "MAX_LISTED_LEVELS", 57)
        assert len(spectrum(MASS, WELL, U)) == 58

    def test_underflowing_spacing_refused(self):
        pp = PotentialProfile(V0=0.45, alpha=1e-200, a=7.0, kind="well")
        with pytest.raises(DomainError, match="overflows"):
            count_bound_states(MASS, pp, U)

    @pytest.mark.parametrize("pp", [
        PotentialProfile(V0=0.45, alpha=1e103, a=7.0, kind="well"),
        PotentialProfile(V0=1e300, alpha=1e300 / 7.0, a=7.0, kind="well"),
        PotentialProfile(V0=0.45, alpha=0.45 / 1e-300, a=1e-300, kind="well")])
    def test_overflowing_spacing_refused(self, pp):
        # alpha^3 overflows a float power above about 5.6e102 eV/nm
        with pytest.raises(OverflowError):
            pp.alpha ** 3
        for call in (lambda: spectrum(MASS, pp, U),
                     lambda: count_bound_states(MASS, pp, U),
                     lambda: energy_level(0, MASS, pp, U)):
            with pytest.raises(DomainError,
                               match="^level spacing overflows at alpha = "):
                call()


class TestTableReport:
    def test_rows_carry_both_published_columns(self):
        rows = table1_report(MASS, WELL, U)
        assert len(rows) == len(TABLE1_PUBLISHED_EV) == len(TABLE1_REFERENCE_EV)
        for n, row in enumerate(rows):
            assert row.level.n == n
            assert row.published_eV == TABLE1_PUBLISHED_EV[n]
            assert row.reference_eV == TABLE1_REFERENCE_EV[n]
            assert row.gap_published == abs(row.level.E_n - row.published_eV)
            assert row.gap_reference == abs(row.level.E_n - row.reference_eV)
            assert row.level.residual <= 1e-10

    def test_requires_well(self):
        with pytest.raises(DomainError):
            table1_report(MASS, BARRIER, U)
