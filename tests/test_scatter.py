"""Matching-solver tests: closed-form basis against the integration oracle.

The interior basis functions are verified as ODE solutions in their own
right (residual + Wronskian + trajectory agreement), then the assembled
4x4 solve is checked against the independently marched transmission.
"""

import math
import warnings

import numpy as np
import pytest

import triq.scatter
import triq.special
from triq.errors import AccuracyError, ConditioningError, DomainError
from triq.model import (MassParams, PotentialProfile, airy_scale,
                        barrier_coefficients, make_units)
from triq.oracle import (IntegrationSpec, _make_weight, integrate,
                         matched_transmission, ode_residual)
from triq.scatter import (
    FIDELITY_MODES,
    RegionIIBasis,
    _div,
    abbreviations_at,
    assemble_matching,
    basis_for,
    rescale_diagnostic,
    solve_matching,
    sweep,
    transmission,
)
from triq.special import airy_ai, airy_bi, recip_gamma

U = make_units()
MASS = MassParams()
BARRIER = PotentialProfile()

# Transmission at the published operating point, frozen from this solver
# after it agreed with the marching oracle to 3.9e-14.
T_DEFAULT = 132.54430898227582


def wronskian_exact(basis: RegionIIBasis) -> float:
    # P(0.25-quirk-free) at the vertex is (1, 0), so W = Q'(vertex); in
    # closed form that is -2 sqrt(pi) a1^(1/4) / Gamma(b), constant in x.
    return (-2.0 * math.sqrt(math.pi) * math.sqrt(basis.sqrt_a1)
            * recip_gamma(basis.b_param))


class TestRegionIIBasis:
    @pytest.mark.parametrize("which", ["first", "second"])
    def test_is_ode_solution(self, which):
        basis = basis_for(barrier_coefficients(0.1, MASS, BARRIER, U))
        fn = getattr(basis, which)
        n = 7000
        xs = [BARRIER.a * i / n for i in range(n + 1)]
        values = [fn(basis.kernels(x))[0] for x in xs]
        report = ode_residual(xs, values, _make_weight(0.1, MASS, BARRIER, U))
        assert report.conclusive
        assert report.residual <= 1e-6

    @pytest.mark.parametrize("E", [0.1, 2.25])
    def test_wronskian_constant_and_closed(self, E):
        basis = basis_for(barrier_coefficients(E, MASS, BARRIER, U))
        expect = wronskian_exact(basis)
        for x in (0.0, 1.75, -basis.y_offset, 5.25, BARRIER.a):
            ker = basis.kernels(x)
            p, pd = basis.first(ker)
            q, qd = basis.second(ker)
            assert p * qd - q * pd == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_trajectory_matches_marcher(self, which):
        basis = basis_for(barrier_coefficients(0.1, MASS, BARRIER, U))
        fn = getattr(basis, which)
        v0, d0 = fn(basis.kernels(0.0))
        spec = IntegrationSpec(x_start=0.0, x_end=BARRIER.a, step=1e-3,
                               value=v0, derivative=d0)
        got = integrate(spec, 0.1, MASS, BARRIER, U)
        va, da = fn(basis.kernels(BARRIER.a))
        scale = max(abs(va), abs(da))
        assert abs(got.value - va) <= 1e-8 * scale
        assert abs(got.derivative - da) <= 1e-8 * scale

    def test_second_smooth_across_vertex(self):
        # the unsigned sqrt(z) branch would kink where y = 0; the signed
        # branch must show only O(h) derivative variation there
        basis = basis_for(barrier_coefficients(0.1, MASS, BARRIER, U))
        x0 = -basis.y_offset
        h = 1e-5
        _, d_minus = basis.second(basis.kernels(x0 - h))
        q0, d0 = basis.second(basis.kernels(x0))
        _, d_plus = basis.second(basis.kernels(x0 + h))
        assert abs(d_plus - d_minus) <= 5.0 * h * max(1.0, abs(q0))
        # at the vertex the first solution is exactly (1, 0), so the
        # Wronskian collapses onto Q' alone
        assert d0 == pytest.approx(wronskian_exact(basis), rel=1e-13)

    def test_second_refuses_hopeless_point(self):
        # deep parameter with moderate z: the Kummer core itself taps out,
        # and the failure must surface as an error, not a wrong number
        basis = RegionIIBasis(b_param=-24.833, sqrt_a1=1.0, y_offset=0.0)
        with pytest.raises(AccuracyError):
            basis.second(basis.kernels(math.sqrt(33.574)))

    def test_large_z_route_engaged(self):
        # at the far interface of the high-energy corner the subtraction
        # form has no digits left; the value must still match the exact
        # Wronskian partner relation
        basis = basis_for(barrier_coefficients(2.25, MASS, BARRIER, U))
        ker = basis.kernels(BARRIER.a)
        assert ker.z > 100.0
        p, pd = basis.first(ker)
        q, qd = basis.second(ker)
        assert p * qd - q * pd == pytest.approx(wronskian_exact(basis), rel=1e-12)


class TestAbbreviations:
    def test_value_columns_consistent(self):
        # f1' and f3'-f5' reduce back to the basis values at the interface
        basis = basis_for(barrier_coefficients(0.1, MASS, BARRIER, U))
        ker0 = basis.kernels(0.0)
        fset = abbreviations_at(basis, ker0)
        p0, _ = basis.first(ker0)
        assert fset.f1p == pytest.approx(p0, rel=1e-13)

    def test_printed_f8_gap(self):
        # printed f8 = f2 - f1 misses the 4b factor; the chain rule gives
        # P'(0) = f8 + (4b - 1) f2 exactly
        basis = basis_for(barrier_coefficients(0.1, MASS, BARRIER, U))
        ker0 = basis.kernels(0.0)
        fset = abbreviations_at(basis, ker0)
        _, pd0 = basis.first(ker0)
        recovered = fset.f8 + (4.0 * basis.b_param - 1.0) * fset.f2
        assert recovered == pytest.approx(pd0, rel=1e-12)
        assert abs(fset.f8 - pd0) > 1e-3 * abs(pd0)


class TestMatching:
    def test_solution_satisfies_continuity(self):
        E = 0.1
        system = assemble_matching(E, MASS, BARRIER, U)
        sol = solve_matching(system, E=E)
        rc = barrier_coefficients(E, MASS, BARRIER, U)
        basis = basis_for(rc)
        k = airy_scale(E, MASS, U)
        ai, bi = airy_ai(rc.y1), airy_bi(rc.y1)
        left = (sol.b1 * ai.value + sol.b2 * bi.value,
                k * (sol.b1 * ai.derivative + sol.b2 * bi.derivative))

        def wave(x):
            ker = basis.kernels(x)
            fv, fd = basis.first(ker)
            sv, sd = basis.second(ker)
            return sol.b3 * fv + sol.b4 * sv, sol.b3 * fd + sol.b4 * sd

        mid0 = wave(0.0)
        mida = wave(BARRIER.a)
        assert left[0] == pytest.approx(mid0[0], rel=1e-10)
        assert left[1] == pytest.approx(mid0[1], rel=1e-10)
        assert mida[0] == pytest.approx(system.rhs[2], rel=1e-10)
        assert mida[1] == pytest.approx(system.rhs[3], rel=1e-10)

    def test_residual_within_contract(self):
        for E in (0.1, 0.8, 2.25):
            sol = solve_matching(assemble_matching(E, MASS, BARRIER, U), E=E)
            assert sol.residual <= 1e-9
            assert sol.condition_estimate >= 1.0

    def test_condition_estimate_on_demand(self, monkeypatch):
        # the SVD runs when condition_estimate is read, not in the solve
        calls = []
        cond = np.linalg.cond

        def counted(m):
            calls.append(m)
            return cond(m)

        monkeypatch.setattr(np.linalg, "cond", counted)
        sol = transmission(0.8, MASS, BARRIER, U).solution
        assert calls == []
        assert sol.condition_estimate == cond(sol.equilibrated) >= 1.0
        assert len(calls) == 1

    def test_frozen_amplitudes(self):
        sol = solve_matching(assemble_matching(0.1, MASS, BARRIER, U), E=0.1)
        assert sol.b1 == pytest.approx(-0.086859926464917109, rel=1e-9)
        assert sol.b2 == pytest.approx(0.039951925436630502, rel=1e-9)
        assert sol.b3 == pytest.approx(-0.00015787698796240637, rel=1e-9)
        assert sol.b4 == pytest.approx(0.026516081490021756, rel=1e-9)

    def test_nonfinite_system_rejected(self):
        system = assemble_matching(0.1, MASS, BARRIER, U)
        bad = system._replace(matrix=system.matrix * math.nan)
        with pytest.raises(ConditioningError):
            solve_matching(bad, E=0.1)

    def test_singular_system_rejected(self):
        system = assemble_matching(0.1, MASS, BARRIER, U)
        bad = system._replace(matrix=np.zeros((4, 4)))
        with pytest.raises(ConditioningError):
            solve_matching(bad, E=0.1)

    def test_well_profile_rejected(self):
        well = PotentialProfile(V0=0.45, alpha=0.0045, a=7.0, kind="well")
        with pytest.raises(DomainError):
            transmission(0.1, MASS, well, U)


class TestTransmission:
    def test_matches_oracle_at_default(self):
        res = transmission(0.1, MASS, BARRIER, U)
        oracle = matched_transmission(0.1, MASS, BARRIER, U)
        assert res.T_solve == pytest.approx(oracle, rel=1e-6)
        assert res.T_solve == pytest.approx(T_DEFAULT, rel=1e-10)

    @pytest.mark.parametrize("E", [0.45, 1.0, 1.7, 2.25])
    def test_matches_oracle_past_crossover(self, E):
        # the regression that motivated the large-z route: these energies
        # used to come back with no correct digits
        res = transmission(E, MASS, BARRIER, U)
        oracle = matched_transmission(E, MASS, BARRIER, U)
        assert res.T_solve == pytest.approx(oracle, rel=1e-6)

    def test_rescale_invariance(self):
        solve_ratio, paper_ratio = rescale_diagnostic(0.1, MASS, BARRIER, U)
        assert solve_ratio == pytest.approx(1.0, abs=1e-12)
        assert paper_ratio == pytest.approx(2.0 ** -4, rel=1e-9)

    def test_resonance_sentinel(self):
        # b1 changes sign once in this bracket; pin it down and the solver
        # must report the pole as +inf rather than a huge finite number
        lo, hi = 0.15, 0.19
        b1_at = lambda E: solve_matching(
            assemble_matching(E, MASS, BARRIER, U), E=E).b1
        flo = b1_at(lo)
        assert flo * b1_at(hi) < 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fmid = b1_at(mid)
            if fmid == 0.0 or abs(fmid) < 1e-300:
                lo = hi = mid
                break
            if (fmid < 0.0) == (flo < 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        res = transmission(0.5 * (lo + hi), MASS, BARRIER, U)
        assert res.resonant
        assert math.isinf(res.T_solve)

    def test_fidelity_modes_run_and_diverge(self):
        results = {mode: transmission(0.1, MASS, BARRIER, U, fidelity=mode)
                   for mode in FIDELITY_MODES}
        base = results["none"]
        assert base.T_solve == pytest.approx(T_DEFAULT, rel=1e-10)
        for mode in ("signs", "t2", "all"):
            assert results[mode].T_solve != pytest.approx(base.T_solve, rel=1e-6)

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(DomainError):
            transmission(0.1, MASS, BARRIER, U, fidelity="verbatim")

    def test_paper_column_always_reported(self):
        res = transmission(0.1, MASS, BARRIER, U)
        assert math.isfinite(res.T_paper)
        assert res.T_paper == pytest.approx((res.t1 / res.t2) ** 2, rel=1e-12)

    def test_printed_gamma_overflow_leaves_t_solve(self):
        # b = -58.6 puts the printed f6 argument 4b - 3/4 past the 1/Gamma
        # overflow.  T_solve never reads f6: the point solves and only the
        # printed column goes NaN.  A mode that puts f6 into the matrix
        # still refuses the point.
        mp = MassParams(M1=0.02)
        pp = PotentialProfile(V0=5.0, alpha=0.45 / 7.0, a=2.0)
        E = 0.19073486328125
        res = transmission(E, mp, pp, U)
        oracle = matched_transmission(E, mp, pp, U)
        assert res.T_solve == pytest.approx(oracle, rel=1e-6)
        assert math.isnan(res.t1) and math.isnan(res.t2)
        assert math.isnan(res.T_paper)
        with pytest.raises(ConditioningError):
            transmission(E, mp, pp, U, fidelity="t2")

    def test_refusals_above_the_barrier_are_the_kummer_guards(self):
        # the 100-point 2.25-3.9 eV grid of the CLI: the refused points are
        # refused by the Kummer series, not by the printed f6's 1/Gamma
        reasons = []
        for i in range(100):
            try:
                transmission(2.25 + (3.9 - 2.25) * i / 99, MASS, BARRIER, U)
            except AccuracyError as exc:
                reasons.append(str(exc))
        assert len(reasons) == 45
        assert all(r.startswith("kummer_m cancellation too severe")
                   for r in reasons)


def reference_paper_form(E, fidelity):
    """(t1, t2, T_paper) with every interface quantity evaluated afresh."""
    rc = barrier_coefficients(E, MASS, BARRIER, U,
                              printed_signs=fidelity in ("signs", "all"))
    basis = basis_for(rc)
    k = airy_scale(E, MASS, U)
    fset = abbreviations_at(basis, basis.kernels(0.0))
    gset = abbreviations_at(basis, basis.kernels(rc.y4 - rc.y2))
    ai_a = airy_ai(rc.y3)
    bi0 = airy_bi(rc.y1)
    t1 = k / math.pi * (gset.f1p * gset.f9 - gset.f8 * gset.f7)
    t2 = ((gset.f9 * ai_a.value - k * gset.f7 * ai_a.derivative)
          * (k * fset.f1p * bi0.derivative - fset.f8 * bi0.value)
          * (k * gset.f1p * ai_a.derivative - gset.f8 * ai_a.value)
          * (k * fset.f7 * bi0.derivative - fset.f9 * bi0.value))
    ratio = _div(t1, t2)
    return t1, t2, ratio * ratio


class TestInterfaceEvaluatedOnce:
    # the 200-point wide sweep grid of the CLI (0.02-2.25 eV)
    GRID = [0.02 + (2.25 - 0.02) * i / 199 for i in range(200)]

    def test_kummer_series_per_point(self, monkeypatch):
        # two interfaces, four series each: M(b;1/2), M(b+1;3/2) and the
        # two odd-branch regularized kernels; the even regularized pair
        # reuses the first two
        calls = []
        series = triq.special._kummer_series

        def counted(*args):
            calls.append(args)
            return series(*args)

        monkeypatch.setattr(triq.special, "_kummer_series", counted)
        for E in (0.1, 2.2):
            for mode in FIDELITY_MODES:
                del calls[:]
                transmission(E, MASS, BARRIER, U, fidelity=mode)
                assert len(calls) == 8

    def test_recip_gamma_per_point(self, monkeypatch):
        # 1/Gamma of b, b + 1/2 and the printed f6 argument, once per point
        # and shared by both interfaces; the 1/Gamma(c) constants of the
        # regularized kernels are module constants
        calls = []
        rg = triq.special.recip_gamma

        def counted(x):
            calls.append(x)
            return rg(x)

        for module in (triq.special, triq.scatter):
            monkeypatch.setattr(module, "recip_gamma", counted)
        for E in (0.1, 2.2):
            for mode in FIDELITY_MODES:
                del calls[:]
                transmission(E, MASS, BARRIER, U, fidelity=mode)
                assert len(calls) == 3

    @pytest.mark.parametrize("mode", FIDELITY_MODES)
    def test_paper_form_matches_fresh_evaluation(self, mode):
        for E in self.GRID:
            res = transmission(E, MASS, BARRIER, U, fidelity=mode)
            got = (res.t1, res.t2, res.T_paper)
            want = reference_paper_form(E, mode)
            assert [v.hex() for v in got] == [v.hex() for v in want], E


class TestSweep:
    def test_error_rows_flagged_not_raised(self):
        rows = sweep("E", [-0.5, 0.1], MASS, BARRIER, U)
        assert rows[0].result is None
        assert rows[0].flags == ("DomainError",)
        assert rows[1].flags == ()
        assert rows[1].result.T_solve == pytest.approx(T_DEFAULT, rel=1e-10)

    def test_auto_alpha_resolves_per_point(self):
        rows = sweep("V0", [0.005], MASS, BARRIER, U, E=0.1, auto_alpha=True)
        fixed = sweep("V0", [0.005], MASS, BARRIER, U, E=0.1, auto_alpha=False)
        assert rows[0].result.T_solve == pytest.approx(1.0616171726721406, rel=1e-8)
        # at the base alpha the low barrier is a deep sloped well instead
        assert fixed[0].result.T_solve < 0.01

    def test_width_axis(self):
        rows = sweep("a", [1e-4, 7.0], MASS, BARRIER, U, E=0.1, auto_alpha=True)
        assert abs(rows[0].result.T_solve - 1.0) < 1e-3
        assert rows[1].result.T_solve == pytest.approx(T_DEFAULT, rel=1e-10)

    def test_numpy_grid_matches_float_grid(self):
        # at x = a the two companion terms cancel to exactly 0 near 1.925 and
        # 2.037 eV; np.float64 energies must not overflow there, and must
        # give the same doubles as Python floats
        grid = np.linspace(0.02, 2.25, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows_np = sweep("E", grid, MASS, BARRIER, U)
        rows_py = sweep("E", [float(v) for v in grid], MASS, BARRIER, U)

        def key(row):
            r = row.result
            s = r.solution
            nums = (r.T_solve, r.T_paper, r.t1, r.t2, s.b1, s.b2, s.b3,
                    s.b4, r.residual)
            return [float(v).hex() for v in nums], row.flags

        assert [key(r) for r in rows_np] == [key(r) for r in rows_py]

    def test_only_numeric_faults_folded(self, monkeypatch):
        # 3.9 eV is in the Kummer refusal band: flagged, not raised
        rows = sweep("E", [0.1, 3.9], MASS, BARRIER, U)
        assert rows[0].flags == ()
        assert rows[1].result is None
        assert rows[1].flags == ("AccuracyError",)

        def fault(exc):
            def raiser(*args, **kwargs):
                raise exc
            return raiser

        monkeypatch.setattr(triq.scatter, "solve_matching",
                            fault(ZeroDivisionError("float division by zero")))
        rows = sweep("E", [0.1], MASS, BARRIER, U)
        assert rows[0].flags == ("ZeroDivisionError",)
        monkeypatch.setattr(triq.scatter, "solve_matching",
                            fault(TypeError("a bug, not a numeric fault")))
        with pytest.raises(TypeError):
            sweep("E", [0.1], MASS, BARRIER, U)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            sweep("k", [0.1], MASS, BARRIER, U)
        with pytest.raises(DomainError):
            sweep("E", [], MASS, BARRIER, U)
        with pytest.raises(DomainError):
            sweep("E", [0.2, 0.1], MASS, BARRIER, U)
