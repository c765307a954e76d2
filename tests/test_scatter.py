"""Matching-solver tests: closed-form basis against the integration oracle.

The interior basis functions are verified as ODE solutions in their own
right (residual + Wronskian + trajectory agreement), then the assembled
4x4 solve is checked against the independently marched transmission.
"""

import collections
import contextlib
import io
import math
import random
import re
import warnings

import numpy as np
import pytest

import triq
import triq.model
import triq.oracle
import triq.scatter
import triq.special
import triq.validate
from triq.cli import (RunConfig, _csv_rows, _fmt, cmd_transmission,
                      cmd_tunnelling, main)
from triq.errors import (AccuracyError, ConditioningError, DomainError,
                         TriqError)
from triq.model import (MassParams, PotentialProfile, airy_scale,
                        barrier_coefficients, make_units)
from triq.oracle import (IntegrationSpec, integrate, make_weight, matched_b1,
                         matched_transmission, ode_residual)
from triq.scatter import (
    FIDELITY_MODES,
    AbbreviationSet,
    MatchingSystem,
    MatchSolution,
    RegionIIBasis,
    TransmissionResult,
    _div,
    _Kernels,
    abbreviations_at,
    assemble_matching,
    basis_for,
    rescale_diagnostic,
    solve_matching,
    sweep,
    transmission,
)
from triq.special import airy_ai, airy_bi, recip_gamma

from test_special import rerun_routes

U = make_units()
MASS = MassParams()
BARRIER = PotentialProfile()

# most of parameter_box(0)'s 200 points the closed form may refuse; at 31
# when pinned, all of them AccuracyErrors
BOX_REFUSALS = 31


def parameter_box(seed, n=200):
    """Seeded GaAs-like points (E, M0, M1, V0, alpha, a): E 0.02-3 eV, V0
    0.05-1 eV, a 1-12 nm, alpha 0.3-1.5 times V0/a, M0 0.03-0.2 and M1/M0
    0-1.5."""
    rng = random.Random(seed)
    for _ in range(n):
        V0 = rng.uniform(0.05, 1.0)
        a = rng.uniform(1.0, 12.0)
        M0 = rng.uniform(0.03, 0.2)
        yield (rng.uniform(0.02, 3.0), M0, M0 * rng.uniform(0.0, 1.5),
               V0, V0 / a * rng.uniform(0.3, 1.5), a)


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
        grid = basis.kernels(np.array(xs))
        values = [fn(point)[0] for point in kernel_points(grid)]
        report = ode_residual(xs, values, make_weight(0.1, MASS, BARRIER, U))
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
        # across 0.02-2.25 eV each solution is marched in its growing
        # direction, first from x = 0 and second back from x = a: marched
        # forward, second loses digits of its own (3.6e-11 at 0.27 eV) and
        # fails the halving gate from 0.52 eV.  The far end's worst is
        # 5.5e-13 of max(|v|, |v'|) (first, 2.0 eV); a 1e-10 relative error
        # in second's value reads 5e-11 or more at every energy
        start, end = (0.0, BARRIER.a) if which == "first" else (BARRIER.a, 0.0)
        for E in linear_grid(0.02, 2.25, 10):
            basis = basis_for(barrier_coefficients(E, MASS, BARRIER, U))
            fn = getattr(basis, which)
            v0, d0 = fn(basis.kernels(start))
            spec = IntegrationSpec(x_start=start, x_end=end, step=1e-3,
                                   value=v0, derivative=d0)
            got = integrate(spec, E, MASS, BARRIER, U)
            v, d = fn(basis.kernels(end))
            scale = max(abs(v), abs(d))
            assert abs(got.value - v) <= 5e-12 * scale, E
            assert abs(got.derivative - d) <= 5e-12 * scale, E

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

    @pytest.mark.parametrize("E, xs", [
        (0.1, [i * 1e-3 for i in range(7001)]),  # validate's interior grid
        (2.25, [BARRIER.a * i / 140 for i in range(141)]),  # DD reruns
    ])
    def test_grid_kernels_are_the_scalar_doubles(self, E, xs):
        basis = basis_for(barrier_coefficients(E, MASS, BARRIER, U))
        grid = basis.kernels(np.array(xs))
        assert all(isinstance(f, np.ndarray) for f in grid)
        for x, point in zip(xs, kernel_points(grid)):
            assert ([f.hex() for f in point]
                    == [f.hex() for f in basis.kernels(x)]), x

    @pytest.mark.parametrize("zs", [
        [200.0, 150.4, 148.8, 130.0],  # third series first, at 150.4
        [200.0, 148.8, 130.0],  # fourth series only, at 148.8
        [200.0, 130.0],  # all four refuse: the first one's error
        [200.0, 301.0, 130.0],  # past the envelope
        [200.0, math.nan, 130.0],  # not finite
    ])
    def test_grid_kernels_raise_the_first_scalar_error(self, zs):
        # b = -40 with the vertex at x = 0, so z = x^2; each series refuses
        # on its own band of z
        basis = RegionIIBasis(b_param=-40.0, sqrt_a1=1.0, y_offset=0.0)
        xs = [math.sqrt(z) for z in zs]
        first = None
        for x in xs:
            try:
                basis.kernels(x)
            except TriqError as exc:
                first = exc
                break
        with pytest.raises(type(first)) as grid:
            basis.kernels(np.array(xs))
        assert str(grid.value) == str(first)

    @pytest.mark.parametrize("E, fractions", [
        (0.1, 2461), (0.8, 6144), (2.25, 5044)])
    def test_grid_second_is_the_point_loop(self, monkeypatch, E, fractions):
        # validate's interior grid at three energies, where most points at
        # y > 0 try the continued fraction: every double, and every
        # continued fraction, of a point loop
        basis = basis_for(barrier_coefficients(E, MASS, BARRIER, U))
        grid = basis.kernels(np.array([i * 1e-3 for i in range(7001)]))
        counts = counted_routes(monkeypatch)
        want = second_outcome(lambda: second_loop(basis, grid))
        assert counts["tricomi"] == fractions
        counts["tricomi"] = 0
        assert second_outcome(lambda: basis.second(grid)) == want
        assert counts["tricomi"] == fractions

    @pytest.mark.parametrize("zs, error", [
        ([1.0, 4.0, 14.0, 20.0], AccuracyError),  # the guard case, mid-grid
        ([14.5, 14.0], AccuracyError),  # two refusals: the first one's
        ([1.0, 14.0, 17.0, 16.0], AccuracyError),  # before a failing route
        ([1.0, 17.0, 14.0], DomainError),  # a failing route first
        # the subtraction's 1.9e-6 at z = 9 is within budget, but tries the
        # continued fraction, whose failure refuses the point
        ([1.0, 9.0, 17.0], DomainError),
    ])
    def test_grid_second_raises_the_first_scalar_error(self, monkeypatch, zs,
                                                       error):
        # b = 2.2 with the vertex at x = 0, so z = x^2: z = 14 and 14.5 are
        # too large for the subtraction form, and there the spied continued
        # fraction cannot help; at z = 9 and 17 it fails
        basis = RegionIIBasis(b_param=2.2, sqrt_a1=1.0, y_offset=0.0)
        failing_continued_fraction(monkeypatch, {9.0, 17.0}, {14.0, 14.5})
        grid = basis.kernels(np.sqrt(zs))
        want = second_outcome(lambda: second_loop(basis, grid))
        assert want[0] == error.__name__
        if error is DomainError:
            assert want[1] == f"spied continued-fraction failure at z={zs[1]!r}"
        assert second_outcome(lambda: basis.second(grid)) == want

    def test_grid_second_small_and_numpy_scalar_kernels(self):
        # empty and one-point grids, and kernels of np.float64 scalars,
        # which take the float route and give Python floats
        basis = basis_for(barrier_coefficients(2.25, MASS, BARRIER, U))
        grid = basis.kernels(np.array([0.5, BARRIER.a]))
        value, deriv = basis.second(_Kernels._make(f[:0] for f in grid))
        assert value.shape == deriv.shape == (0,)
        for i, point in enumerate(kernel_points(grid)):
            want = [v.hex() for v in basis.second(point)]
            one = basis.second(_Kernels._make(f[i:i + 1] for f in grid))
            assert [v.hex() for v in np.concatenate(one).tolist()] == want
            scalars = _Kernels._make(f[i] for f in grid)
            assert all(type(f) is np.float64 for f in scalars)
            got = basis.second(scalars)
            assert [type(v) for v in got] == [float, float]
            assert [v.hex() for v in got] == want

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
    def test_grid_abbreviations_at_the_vertex(self):
        # y = 0 at x = 0: the printed f1', f3' and f5' divide by
        # sqrt(a1) y = 0, and each grid element must be the scalar double
        bases = [RegionIIBasis(b_param=b, sqrt_a1=s, y_offset=0.0)
                 for b, s in ((0.3, 1.0), (-2.7, 0.4), (1.5, 2.0), (-0.5, 0.7))]
        b, s, offset = (np.array(v) for v in zip(
            *((p.b_param, p.sqrt_a1, p.y_offset) for p in bases)))
        ker0, kera = triq.scatter._interface_kernels(b, s, offset,
                                                     np.ones(len(b)))
        assert not np.isnan([*ker0, *kera]).any()  # all eight series stand
        rg = [getattr(p, name) for p in bases for name in ("rg_bh", "rg_b", "rg_f6")]
        rg_bh, rg_b, rg_f6 = np.reshape(rg, (-1, 3)).T
        grid = triq.scatter._abbreviations(b, s, rg_bh, rg_b, rg_f6, ker0)
        for j, basis in enumerate(bases):
            want = abbreviations_at(basis, basis.kernels(0.0))
            assert want.f1p != want.f1p  # 0/0, the NaN branch
            for name in ("f1p", "f3p", "f5p", "f7"):
                assert getattr(grid, name)[j].item().hex() == \
                    getattr(want, name).hex(), (j, name)

    def test_grid_div_is_the_scalar_div(self):
        # 0/0 and NaN/0 are NaN, x/0 an inf of x's sign whatever the sign
        # of the zero, and any other quotient the IEEE one
        num = [0.0, -0.0, math.nan, 1.5, -2.0, math.inf, -math.inf, 3.0,
               -3.0, 1e-300, math.nan]
        den = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, 7.0, -0.5, 1e300,
               math.inf]
        got = _div(np.array(num), np.array(den)).tolist()
        assert [v.hex() for v in got] == \
            [_div(n, d).hex() for n, d in zip(num, den)]

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
        (sol,) = solve_matching([system], E=[E])
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
            (sol,) = solve_matching([assemble_matching(E, MASS, BARRIER, U)],
                                    E=[E])
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
        (sol,) = solve_matching([assemble_matching(0.1, MASS, BARRIER, U)],
                                E=[0.1])
        assert sol.b1 == pytest.approx(-0.086859926464917109, rel=1e-9)
        assert sol.b2 == pytest.approx(0.039951925436630502, rel=1e-9)
        assert sol.b3 == pytest.approx(-0.00015787698796240637, rel=1e-9)
        assert sol.b4 == pytest.approx(0.026516081490021756, rel=1e-9)

    def test_nonfinite_system_rejected(self):
        system = assemble_matching(0.1, MASS, BARRIER, U)
        bad = system._replace(matrix=system.matrix * math.nan)
        (sol,) = solve_matching([bad], E=[0.1])
        assert isinstance(sol, ConditioningError)

    def test_singular_system_rejected(self):
        system = assemble_matching(0.1, MASS, BARRIER, U)
        bad = system._replace(matrix=np.zeros((4, 4)))
        (sol,) = solve_matching([bad], E=[0.1])
        assert isinstance(sol, ConditioningError)

    def test_well_profile_rejected(self):
        well = PotentialProfile(V0=0.45, alpha=0.0045, a=7.0, kind="well")
        with pytest.raises(DomainError):
            transmission(0.1, MASS, well, U)


class TestTransmission:
    # each oracle check's budget is at least 10x above its measured worst,
    # but the printed-gamma point's, where the closed form's own error
    # sets the gap
    def test_matches_oracle_at_default(self):
        # 1.4e-14
        res = transmission(0.1, MASS, BARRIER, U)
        oracle = matched_transmission(0.1, MASS, BARRIER, U)
        assert res.T_solve == pytest.approx(oracle, rel=1e-12)
        assert res.T_solve == pytest.approx(T_DEFAULT, rel=1e-10)

    @pytest.mark.parametrize("E", [0.45, 1.0, 1.7, 2.25])
    def test_matches_oracle_past_crossover(self, E):
        # the regression that motivated the companion's second route: these
        # energies used to come back with no correct digits.  At most
        # 3.1e-13 (2.25 eV); 4.6e-12, the oracle's own error, before the
        # oracle extrapolated its halving pair, and 2.7e-9 at 0.45 eV with
        # the large-z recurrence as that route
        res = transmission(E, MASS, BARRIER, U)
        oracle = matched_transmission(E, MASS, BARRIER, U)
        assert res.T_solve == pytest.approx(oracle, rel=4e-12)

    def test_parameter_box_agrees_with_the_oracle(self):
        # over a seeded box, each point is computed by both routes with the
        # same signed b1 to 4e-11, or refused by a TriqError naming its
        # value.  The worst is 3.6e-12; it was 1.6e-10, the oracle's own
        # error (test_reference.py), before the oracle extrapolated its
        # halving pair
        refused = {"closed form": 0, "oracle": 0}
        for E, M0, M1, V0, alpha, a in parameter_box(0):
            mp = MassParams(M0=M0, M1=M1)
            pp = PotentialProfile(V0=V0, alpha=alpha, a=a)
            routes = {"closed form": lambda: transmission(E, mp, pp,
                                                          U).solution.b1,
                      "oracle": lambda: matched_b1(E, mp, pp, U)}
            got = {}
            for route, fn in routes.items():
                try:
                    got[route] = fn()
                except TriqError as exc:
                    refused[route] += 1
                    value = (exc.value if isinstance(exc, AccuracyError)
                             else getattr(exc, "energy_eV", None))
                    assert value is not None and repr(value) in str(exc), exc
            if len(got) == 2:
                b1, oracle = got["closed form"], got["oracle"]
                assert abs(oracle / b1 - 1.0) <= 4e-11, (E, M0, M1, V0, alpha, a)
        assert refused["closed form"] <= BOX_REFUSALS
        assert refused["oracle"] == 0

    def test_infinite_energy_is_refused_by_name(self):
        # refused where the energy enters, not by the Airy kernel's NaN
        message = "scattering energy must be finite, got inf"
        with pytest.raises(DomainError, match=f"^{message}$"):
            transmission(math.inf, MASS, BARRIER, U)
        table = sweep("E", [0.1, math.inf], MASS, BARRIER, U)
        assert refusal_names(table) == [None, "DomainError"]
        got = sweep_outcomes("E", [0.1, math.inf], MASS, BARRIER,
                             U, 0.1, "none", False)
        assert str(got[1]) == message

    @pytest.mark.parametrize("E, message", [
        (1e155, "scattering energy overflows the interior coefficients, got 1e+155"),
        (7e306, "exterior Airy form overflows at E = 7e+306"),
        (1e308, "exterior Airy form overflows at E = 1e+308"),
    ])
    def test_overflowing_energy_is_refused_by_name(self, E, message):
        # refused where the coefficients overflow, not by the Airy kernel's
        # NaN or its accuracy limit, alone and as a sweep row
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            transmission(E, MASS, BARRIER, U)
        table = sweep("E", [0.1, E], MASS, BARRIER, U)
        assert refusal_names(table) == [None, "DomainError"]
        got = sweep_outcomes("E", [0.1, E], MASS, BARRIER,
                             U, 0.1, "none", False)
        assert str(got[1]) == message

    def test_rescale_invariance(self):
        solve_ratio, paper_ratio = rescale_diagnostic(0.1, MASS, BARRIER, U)
        assert solve_ratio == pytest.approx(1.0, abs=1e-12)
        assert paper_ratio == pytest.approx(2.0 ** -4, rel=1e-9)

    def test_pole_is_reported_huge_or_inf(self):
        # b1 changes sign once in this bracket; pinned down, the pole's
        # T_solve = (1/b1)^2 is huge, or +inf if b1 came out exactly 0
        lo, hi = 0.15, 0.19
        b1_at = lambda E: solve_matching(
            [assemble_matching(E, MASS, BARRIER, U)], E=[E])[0].b1
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
        assert res.T_solve > 1e20

    def test_exact_zero_b1_is_inf(self, monkeypatch):
        # a solve giving b1 == 0.0 exactly is the pole itself: T_solve is
        # +inf, as oracle.matched_transmission reports it, not a refusal.
        # Planted in _solve_systems, the one solve of a point and a sweep
        solve = triq.scatter._solve_systems

        def zero_b1(a, rhs, E):
            x, *rest = solve(a, rhs, E)
            x[:, 0] = 0.0
            return x, *rest

        monkeypatch.setattr(triq.scatter, "_solve_systems", zero_b1)
        res = transmission(0.1, MASS, BARRIER, U)
        assert res.solution.b1 == 0.0
        assert res.T_solve == math.inf
        table = sweep("E", [0.1, 0.2], MASS, BARRIER, U)
        assert refusal_names(table) == [None, None]
        assert table.T_solve.tolist() == [math.inf] * 2

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
        # 2.3e-13, the closed form's own error: its b1 is 1.2e-13 off the
        # mpmath reference of test_reference.py, the oracle's 1.1e-14 (the
        # gap read 5.0e-14 while the oracle's error, 1.0e-13, offset it)
        assert res.T_solve == pytest.approx(oracle, rel=1e-12)
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

    def test_one_point_takes_the_scalar_kernels(self, monkeypatch):
        # a lone point, through transmission() or a one-point sweep, sums
        # its 8 series in the scalar loop, never in the array summer
        calls = {"scalar": 0, "array": 0}

        def counter(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(triq.special, "_kummer_series",
                            counter("scalar", triq.special._kummer_series))
        monkeypatch.setattr(triq.special, "_kummer_series_array",
                            counter("array", triq.special._kummer_series_array))
        for run in (lambda: transmission(2.2, MASS, BARRIER, U),
                    lambda: sweep("E", [2.2], MASS, BARRIER, U)):
            calls.update(scalar=0, array=0)
            run()
            assert calls == {"scalar": 8, "array": 0}

    def test_scalar_airy_only_for_lone_points_and_refusals(self, monkeypatch):
        # both Airy suites and a sweep of two or more points take Airy from
        # the array route, its asymptotic regimes over arrays too; a scalar
        # call is made only by a lone point, or by the lone route of a point
        # the grid refuses
        calls = scalar_airy_calls(monkeypatch)
        asym = asymptotic_airy_calls(monkeypatch)
        triq.validate.suite_airy_wronskian()
        triq.validate.suite_airy_equation()
        sweep("E", TestInterfaceEvaluatedOnce.GRID, MASS, BARRIER, U)
        assert calls == []
        assert sorted(set(asym)) == [("_airy_asym_neg", "array"),
                                     ("_airy_asym_pos", "array")]
        # 3000 and 1e4 eV put y3 past Bi's limit (the point is refused by
        # its kernels, not by Airy); no energy makes y1 or y3 NaN (one whose
        # H E overflows is refused with its coefficients, before Airy), so
        # NaN is planted in those of 2 eV, where the grid's coefficient pass
        # and the scalar route take them
        coefficients = triq.model._coefficients

        def planted(E, *args):
            (a1, a2, a3, lam, y1, y2, y3, y4), k = coefficients(E, *args)
            if np.ndim(E):
                y1, y3 = (np.where(E == 2.0, math.nan, y) for y in (y1, y3))
            elif E == 2.0:
                y1 = y3 = math.nan
            return (a1, a2, a3, lam, y1, y2, y3, y4), k

        for module in (triq.model, triq.scatter):
            monkeypatch.setattr(module, "_coefficients", planted)
        grid = [0.1, 3000.0, 1e4, 1e308, 2.0]
        sent = points_sent_alone(monkeypatch)
        counts = counted_routes(monkeypatch)
        fractions = fraction_z(monkeypatch)
        got = sweep_outcomes("E", grid, MASS, BARRIER, U, 0.1,
                             "none", False)
        assert [E for E, _ in sent] == grid[1:]
        grid_calls, grid_counts, grid_z = calls[:], taken(counts), fractions[:]
        del calls[:], fractions[:]
        loop_outcomes("E", grid[1:])
        assert grid_calls == calls
        assert [name for name, _ in calls] == ["airy_ai", "airy_bi",
                                               "airy_ai"] * 2 + ["airy_ai"]
        alone_counts = taken(counts)
        assert [outcome_key(g) for g in got] == \
            [outcome_key(w) for w in loop_outcomes("E", grid)]
        # the grid passes 2 eV through its Kummer pass with NaN Airy
        # values, so it makes the reruns of 2 eV's kernels, which the lone
        # route, stopped at Airy, never reaches
        loop_reruns = taken(counts)["reruns"] + alone_counts["reruns"]
        loop_z = fractions[:]
        basis = basis_for(barrier_coefficients(2.0, MASS, BARRIER, U))
        basis.kernels(0.0), basis.kernels(BARRIER.a)
        assert len(counts["reruns"]) == 1
        assert sorted(grid_counts["reruns"]) == sorted(loop_reruns + counts["reruns"])
        assert_fractions_of_the_loop(
            grid_z, loop_z, interface_z([(E, BARRIER) for E in grid[1:]],
                                        MASS, False))
        del calls[:]
        del asym[:]
        transmission(0.1, MASS, BARRIER, U)
        rc = barrier_coefficients(0.1, MASS, BARRIER, U)
        assert calls == [("airy_ai", rc.y1), ("airy_bi", rc.y1),
                         ("airy_ai", rc.y3)]
        # past 8, the lone point's y3 takes the scalar asymptotic call
        transmission(2.25, MASS, BARRIER, U)
        assert barrier_coefficients(2.25, MASS, BARRIER, U).y3 > 8.0
        assert asym == [("_airy_asym_pos", "scalar")]

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

    def test_grid_makes_no_per_point_calls(self, monkeypatch):
        # a sweep of two or more points builds its systems in grid passes:
        # no per-point _barrier_coefficients, basis_for, abbreviations_at,
        # second(), scalar 1/Gamma or scalar asymptotic Airy call, and its
        # one _paper_closed_form call takes the whole grid.  A lone point
        # takes the scalar route and makes them all, and so does each point
        # the stacked solve refuses and sends alone
        calls = []
        asym = asymptotic_airy_calls(monkeypatch)

        def spy(name, fn, into=calls):
            def spied(*args, **kwargs):
                into.append(name)
                return fn(*args, **kwargs)
            return spied

        for owner, name in ((triq.scatter, "_barrier_coefficients"),
                            (triq.scatter, "basis_for"),
                            (triq.scatter, "abbreviations_at"),
                            (triq.scatter.RegionIIBasis, "second"),
                            (triq.scatter, "recip_gamma"),
                            (triq.special, "recip_gamma")):
            monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
        paper = []
        closed_form = triq.scatter._paper_closed_form

        def spied_paper(system):
            paper.append(np.shape(system.airy_scale))
            return closed_form(system)

        monkeypatch.setattr(triq.scatter, "_paper_closed_form", spied_paper)
        # a 200-point CLI sweep whose points are all delivered formats its
        # CSV from the table's columns: it builds no per-point result
        built = []
        for cls in (MatchSolution, TransmissionResult):
            monkeypatch.setattr(cls, "__init__",
                                spy(cls.__name__, cls.__init__, built))
        sent = points_sent_alone(monkeypatch)
        cmd_transmission(RunConfig(min=0.02, max=2.25, points=200))
        cmd_tunnelling(RunConfig(min=0.02, max=0.44, points=200))
        assert (sent, paper, built) == ([], [(200,)] * 2, [])
        # nor does one whose refused points are solved alone: each such
        # point's lone route gives a one-row table
        cmd_transmission(RunConfig(min=2.25, max=3.9, points=100))
        assert (len(sent), built) == (45, [])
        del paper[:], calls[:], asym[:]
        for mode in FIDELITY_MODES:
            # nor does sweep(), whose table is the result
            sweep("E", self.GRID, MASS, BARRIER, U, fidelity=mode)
        assert (calls, built) == ([], [])
        assert set(asym) == {("_airy_asym_pos", "array")}
        del asym[:]
        # 3.9 eV is refused by its kernels, so the closed form takes the
        # 2-row stack and the stack refuses 3.9 eV: its calls are its lone
        # route's, which stops before the closed form
        for mode in FIDELITY_MODES:
            sweep("E", [0.1, 3.9], MASS, BARRIER, U, fidelity=mode)
        sent = calls[:], [a for a in asym if a[1] == "scalar"]
        del calls[:]
        del asym[:]
        for mode in FIDELITY_MODES:
            with pytest.raises(AccuracyError):
                transmission(3.9, MASS, BARRIER, U, fidelity=mode)
        assert sent == (calls, asym)
        assert calls and set(asym) == {("_airy_asym_pos", "scalar")}
        # one call per sweep
        modes = len(FIDELITY_MODES)
        assert paper == [(200,)] * modes + [(2,)] * modes
        del calls[:]
        del paper[:]
        del asym[:]
        transmission(2.25, MASS, BARRIER, U)
        assert sorted(calls) == sorted(["_barrier_coefficients", "basis_for",
                                        "abbreviations_at", "abbreviations_at",
                                        "second", "second", "recip_gamma",
                                        "recip_gamma", "recip_gamma"])
        assert paper == [()]
        assert asym == [("_airy_asym_pos", "scalar")]

    @pytest.mark.parametrize("mode", FIDELITY_MODES)
    def test_paper_form_matches_fresh_evaluation(self, mode):
        for E in self.GRID:
            res = transmission(E, MASS, BARRIER, U, fidelity=mode)
            got = (res.t1, res.t2, res.T_paper)
            want = reference_paper_form(E, mode)
            assert [v.hex() for v in got] == [v.hex() for v in want], E


def loop_outcomes(axis, values, mp=MASS, pp=BARRIER, E=0.1, fidelity="none",
                  auto_alpha=False):
    """A transmission() call per grid value: its result, or its error."""
    out = []
    for v in values:
        try:
            if axis == "E":
                point_E, point_pp = v, pp
            elif axis == "V0":
                point_E = E
                point_pp = PotentialProfile(
                    V0=v, alpha=(v / pp.a if auto_alpha else pp.alpha),
                    a=pp.a, kind=pp.kind)
            else:
                point_E = E
                point_pp = PotentialProfile(
                    V0=pp.V0, alpha=(pp.V0 / v if auto_alpha else pp.alpha),
                    a=v, kind=pp.kind)
            out.append(transmission(point_E, mp, point_pp, U, fidelity=fidelity))
        except (TriqError, ArithmeticError) as exc:
            out.append(exc)
    return out


def refusal_names(table):
    """Per point of a sweep's table, its error's class name, or None where
    it solved."""
    return [None if exc is None else type(exc).__name__ for exc in table.refusal]


def sweep_outcomes(axis, values, mp, pp, u, E, fidelity, auto_alpha):
    """Per grid value, the TransmissionResult or error of its entries in
    the sweep's table, the grid taken as given."""
    printed = triq.scatter._printed(fidelity)
    return triq.scatter._outcomes(triq.scatter._solved(
        triq.scatter._grid_points(axis, values, pp, E, auto_alpha), mp, u,
        printed))


def loop_csv_rows(values, outcomes):
    """The CSV rows of a loop's outcomes, every field as _fmt prints it.
    b5 is 1 on a solved row; a refused row is NaN in every numeric column,
    b5 included."""
    rows = []
    for v, got in zip(values, outcomes):
        if isinstance(got, Exception):
            nums, flag = [math.nan] * 10, type(got).__name__
        else:
            s = got.solution
            nums, flag = [got.T_solve, got.T_paper, got.t1, got.t2, s.b1, s.b2,
                          s.b3, s.b4, 1.0, got.residual], ""
        rows.append("".join(_fmt(float(x)) + "," for x in [v, *nums]) + flag)
    return rows


def outcome_key(got):
    """Every double of a result by .hex(), or an error's class, message,
    value and energy."""
    if isinstance(got, TriqError | ArithmeticError):
        return (type(got).__name__, str(got), getattr(got, "value", None),
                getattr(got, "energy_eV", None))
    s = got.solution
    nums = (got.E, got.T_solve, got.T_paper, got.t1, got.t2, got.residual,
            s.b1, s.b2, s.b3, s.b4)
    return [float(v).hex() for v in nums]


def scalar_airy_calls(monkeypatch):
    """(name, y) of every scalar airy_ai / airy_bi call, in order, spied on
    in each module that binds the function."""
    calls = []
    for name in ("airy_ai", "airy_bi"):
        fn = getattr(triq.special, name)

        def counted(y, _name=name, _fn=fn):
            calls.append((_name, y))
            return _fn(y)

        for module in (triq.special, triq.scatter, triq.oracle, triq.validate):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


def asymptotic_airy_calls(monkeypatch):
    """(name, "scalar" or "array") of every _airy_asym_pos / _airy_asym_neg
    call, in order."""
    calls = []
    for name in ("_airy_asym_pos", "_airy_asym_neg"):
        fn = getattr(triq.special, name)

        def counted(y, _name=name, _fn=fn):
            calls.append((_name, "array" if np.ndim(y) else "scalar"))
            return _fn(y)

        monkeypatch.setattr(triq.special, name, counted)
    return calls


def counted_routes(monkeypatch):
    """The Kummer reruns (rerun_routes: "reruns", "passed" and "integer",
    lists of (b, c, z)) and a counter of the companion's continued
    fractions ("tricomi"): a float tricomi_u_cf call counts one, an array
    call one per element."""
    counts = rerun_routes(monkeypatch)
    counts["tricomi"] = 0
    cf = triq.scatter.tricomi_u_cf

    def counted(b, c, z, *inputs):
        counts["tricomi"] += np.size(z)
        return cf(b, c, z, *inputs)

    monkeypatch.setattr(triq.scatter, "tricomi_u_cf", counted)
    return counts


def taken(counts):
    """A copy of counted_routes' counts so far, which are then cleared."""
    got = {k: v[:] if isinstance(v, list) else v for k, v in counts.items()}
    for v in counts.values():
        if isinstance(v, list):
            del v[:]
    counts["tricomi"] = 0
    return got


def fraction_z(monkeypatch):
    """z of every continued fraction the companion takes, in call order:
    one for a float tricomi_u_cf call, one per element of an array call."""
    zs = []
    cf = triq.scatter.tricomi_u_cf

    def spied(b, c, z, *inputs):
        zs.extend(np.atleast_1d(z).tolist())
        return cf(b, c, z, *inputs)

    monkeypatch.setattr(triq.scatter, "tricomi_u_cf", spied)
    return zs


def interface_z(points, mp, printed_signs):
    """The set of z at x = 0 and x = a of each (energy, profile) point
    whose coefficients stand, as RegionIIBasis.kernels takes them."""
    out = set()
    for E, pp in points:
        try:
            basis = basis_for(barrier_coefficients(
                E, mp, pp, U, printed_signs=printed_signs))
        except (TriqError, ArithmeticError):
            continue
        for x in (0.0, pp.a):
            y = x + basis.y_offset
            out.add(basis.sqrt_a1 * y * y)
    return out


def assert_fractions_of_the_loop(grid_z, loop_z, alone_z):
    """The continued fractions of a grid run (grid_z, its lone routes'
    included) hold every one of a point loop's (loop_z, the loop over
    every point and then over the points sent alone), and any more only
    at an interface of a point sent alone (alone_z): the grid passes every
    point, and may take the fraction at x = a of a point whose lone route
    stopped before it."""
    grid, loop = collections.Counter(grid_z), collections.Counter(loop_z)
    assert loop <= grid
    assert set(grid - loop) <= alone_z


def points_sent_alone(monkeypatch):
    """The (energy, profile) points given to the lone-point route
    (scatter._alone), in call order."""
    sent = []
    alone = triq.scatter._alone

    def spied(point, *args):
        sent.append(point)
        return alone(point, *args)

    monkeypatch.setattr(triq.scatter, "_alone", spied)
    return sent


def finite_system(system):
    """Whether every number in a lone point's MatchingSystem is finite."""
    return all(map(math.isfinite, [
        *system.matrix.ravel().tolist(), *system.rhs.tolist(),
        system.airy_scale, *system.fset, *system.gset, *system.bi0,
        *system.ai_a]))


def failing_continued_fraction(monkeypatch, failing, unreliable=()):
    """Make the companion's continued fraction fail at every z in failing,
    where a float call raises and an array call gives a NaN estimate, and
    give an infinite estimate at every z in unreliable, as it does where it
    cannot help."""
    cf = triq.scatter.tricomi_u_cf

    def spied(b, c, z, *inputs):
        u, du, est = cf(b, c, z, *inputs)
        if np.ndim(z):
            for i, zi in enumerate(z.tolist()):
                if zi in failing or zi in unreliable:
                    est[i] = math.nan if zi in failing else math.inf
            return u, du, est
        if z in failing:
            raise DomainError(f"spied continued-fraction failure at z={z!r}")
        return u, du, (math.inf if z in unreliable else est)

    monkeypatch.setattr(triq.scatter, "tricomi_u_cf", spied)


def failing_recip_gamma(monkeypatch, failing):
    """Make 1/Gamma fail at every x in failing: the scalar calls raise
    failing[x], and the array calls give NaN there."""
    rg, rg_array = triq.scatter.recip_gamma, triq.scatter._recip_gamma_array

    def spied(x):
        if x in failing:
            raise failing[x]
        return rg(x)

    def spied_array(x):
        values = rg_array(x)
        for i, xi in enumerate(np.asarray(x).tolist()):
            if xi in failing:
                values[i] = math.nan
        return values

    monkeypatch.setattr(triq.scatter, "recip_gamma", spied)
    monkeypatch.setattr(triq.scatter, "_recip_gamma_array", spied_array)


# kernel_points converts grid kernels to Python floats this many points at
# a time
POINTS_BLOCK = 256


def kernel_points(ker):
    """Per-point kernels of Python floats from grid kernels, in order: the
    scalar route's own input.  Converted a block at a time, so a long grid
    is never held as Python floats all at once."""
    for i in range(0, len(ker.y), POINTS_BLOCK):
        block = (f[i:i + POINTS_BLOCK].tolist() for f in ker)
        yield from map(_Kernels._make, zip(*block))


def second_loop(basis, grid):
    """(values, derivatives) of second() on each point of grid kernels in
    turn, as lists of Python floats; the first refusal is raised."""
    pairs = [basis.second(point) for point in kernel_points(grid)]
    return [v for v, _ in pairs], [d for _, d in pairs]


def second_outcome(run):
    """Hex of the (values, derivatives) run returns, or the error's class
    name, message and offending value."""
    try:
        values, derivs = run()
    except TriqError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "value", None)
    return [[float(v).hex() for v in vs] for vs in (values, derivs)]


def reference_solve(system):
    """(b1..b4, residual, equilibrated matrix) of solve_matching as it read
    for one system before systems were stacked."""
    a = system.matrix
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(system.rhs)):
        raise ConditioningError("matching system has non-finite entries")
    row = np.max(np.abs(a), axis=1)
    row = np.exp2(-np.round(np.log2(np.where(row == 0.0, 1.0, row))))
    scaled = a * row[:, None]
    col = np.max(np.abs(scaled), axis=0)
    col = np.exp2(-np.round(np.log2(np.where(col == 0.0, 1.0, col))))
    scaled = scaled * col[None, :]
    try:
        x = col * np.linalg.solve(scaled, system.rhs * row)
    except np.linalg.LinAlgError:
        raise ConditioningError("matching system is singular")
    worst = 0.0
    for i in range(4):
        arow = a[i]
        scale = sum(abs(arow[j] * x[j]) for j in range(4)) + abs(system.rhs[i])
        gap = abs(float(arow @ x) - system.rhs[i])
        worst = max(worst, gap / max(scale, 1e-300))
    return [float(v) for v in x], float(worst), scaled


def linear_grid(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


# the steep-mass profile of test_printed_gamma_overflow_leaves_t_solve
STEEP = (MassParams(M1=0.02), PotentialProfile(V0=5.0, alpha=0.45 / 7.0, a=2.0))


def test_every_package_export_resolves():
    # README's library use imports from triq itself: every name in its
    # __all__ is there, the sweep and its table among them
    for name in triq.__all__:
        getattr(triq, name)
    assert (triq.sweep, triq.SweepTable) == (sweep, triq.scatter.SweepTable)


class TestSweep:
    @pytest.mark.parametrize("axis, values, fidelity, auto_alpha, setup", [
        # E axis across plain sums, DD reruns and the refusal band
        ("E", linear_grid(0.02, 6.0, 45), "none", False, None),
        # the 100-point refusal band of the CLI, 45 points refused
        ("E", linear_grid(2.25, 3.9, 100), "none", False, None),
        ("E", linear_grid(0.02, 6.0, 45), "signs", False, None),
        ("E", linear_grid(0.02, 6.0, 45), "t2", False, None),
        ("E", linear_grid(0.02, 6.0, 45), "all", False, None),
        ("V0", linear_grid(0.005, 1.5, 40), "none", True, None),
        ("V0", linear_grid(0.005, 1.5, 40), "none", False, None),
        ("a", linear_grid(1e-4, 14.0, 40), "none", True, None),
        ("a", linear_grid(1e-4, 14.0, 40), "none", False, None),
        # a DomainError point and NaN T_paper; under t2 the printed f6
        # makes the other 4 systems non-finite (ConditioningError)
        ("E", [-0.5] + linear_grid(0.15, 0.2, 4), "none", False, STEEP),
        ("E", [-0.5] + linear_grid(0.15, 0.2, 4), "t2", False, STEEP),
        # one point left after the coefficient pass, then none
        ("E", [-0.5, 0.1], "none", False, None),
        ("E", [-0.5, -0.1], "none", False, None),
        # the steep 0.02-3 eV CLI golden: 12 NaN T_paper rows the grid
        # delivers and 6 AccuracyError rows; under t2 the 12 are refused
        ("E", linear_grid(0.02, 3.0, 60), "none", False, STEEP),
        ("E", linear_grid(0.02, 3.0, 60), "t2", False, STEEP),
    ])
    def test_grid_path_is_the_point_loop(self, monkeypatch, axis, values,
                                         fidelity, auto_alpha, setup):
        # every row and refusal of the grid path is what a loop of
        # transmission() calls gives, double for double.  The grid sends
        # alone exactly the points its stacked solve refuses, which are the
        # refused points: one whose lone system is non-finite only in its
        # printed sets is the grid's row.  It makes each rerun of the loop
        # once, and the lone route makes those of the points sent alone.
        # It takes every continued fraction of the loop, and more only at
        # points sent alone
        mp, pp = setup or (MASS, BARRIER)
        counts = counted_routes(monkeypatch)
        fractions = fraction_z(monkeypatch)
        sent = points_sent_alone(monkeypatch)
        want = loop_outcomes(axis, values, mp, pp, fidelity=fidelity,
                             auto_alpha=auto_alpha)
        loop_counts, loop_z = taken(counts), fractions[:]
        del sent[:], fractions[:]
        got = sweep_outcomes(axis, values, mp, pp, U,
                             0.1, fidelity, auto_alpha)
        grid_counts, grid_z = taken(counts), fractions[:]
        assert [outcome_key(g) for g in got] == [outcome_key(w) for w in want]
        points = triq.scatter._grid_points(axis, values, pp, 0.1, auto_alpha)
        alone = [points.index(p) for p in sent]
        refused = [i for i, w in enumerate(want) if isinstance(w, Exception)]
        non_finite = [i for i, w in enumerate(want)
                      if not isinstance(w, Exception) and not finite_system(
                          assemble_matching(points[i][0], mp, points[i][1], U,
                                            fidelity))]
        assert alone == refused
        if setup:
            assert non_finite == [i for i, w in enumerate(want)
                                  if not isinstance(w, Exception)
                                  and math.isnan(w.T_paper)]
        if len(values) == 60:
            # the steep golden: 6 AccuracyError rows and 12 whose f6
            # 1/Gamma overflows, NaN T_paper under none and refused under
            # t2; only the refused go alone
            kinds = collections.Counter(type(w).__name__ for w in want)
            printed_nan = (len(non_finite) if fidelity == "none"
                           else kinds["ConditioningError"])
            assert (kinds["AccuracyError"], printed_nan, len(alone)) == \
                (6, 12, 6 if fidelity == "none" else 18)
        taken(counts)
        del fractions[:]
        loop_outcomes(axis, [values[i] for i in alone], mp, pp,
                      fidelity=fidelity, auto_alpha=auto_alpha)
        alone_counts = taken(counts)
        # the grid's reruns are the loop's and the lone routes'; the pass
        # took every input the loop reruns, and the fixed-point rerun
        # serves the lone routes and what the pass did not prove
        assert sorted(grid_counts["reruns"]) == \
            sorted(loop_counts["reruns"] + alone_counts["reruns"])
        assert set(loop_counts["reruns"]) <= set(grid_counts["passed"])
        fallbacks = len(grid_counts["integer"]) - len(alone_counts["reruns"])
        assert 0 <= fallbacks <= len(grid_counts["passed"])
        assert_fractions_of_the_loop(
            grid_z, loop_z + fractions,
            interface_z([points[i] for i in alone], mp,
                        fidelity in ("signs", "all")))
        # sweep(), which checks the grid first, gives the same table, and
        # the CSV rows the CLI formats from it are the loop's, formatted a
        # field at a time
        table = sweep(axis, values, mp, pp, U, E=0.1, fidelity=fidelity,
                      auto_alpha=auto_alpha)
        assert [outcome_key(o) for o in triq.scatter._outcomes(table)] == \
            [outcome_key(g) for g in got]
        assert _csv_rows(values, table) == loop_csv_rows(values, want)
        if values[0] == 2.25:
            assert sum(isinstance(g, AccuracyError) for g in got) == 45
            assert len(alone) == 45 and not non_finite
            assert len(loop_counts["reruns"]) == 271
            # the 45 lone routes rerun 51 series before their refusals
            assert len(grid_counts["reruns"]) == 271 + 51
            assert (len(grid_counts["passed"]), fallbacks) == (400, 45)

    @pytest.mark.parametrize("fidelity", FIDELITY_MODES)
    def test_each_point_keeps_its_first_error(self, monkeypatch, fidelity):
        # faults planted at single points of a 12-point grid, a NaN in the
        # grid passes and an error in the scalar route: each such point is
        # refused by the stacked solve, sent alone and reports the error
        # _point_system raises first there (1/Gamma(b + 1/2), then
        # 1/Gamma(b), then a non-overflow fault of f6's 1/Gamma, then
        # second() at x = 0, then at x = a), and its neighbours keep their
        # rows.  The printed-column modes never call second(), so none of
        # its faults refuses a point there.  An overflowed f6 1/Gamma (point
        # 4) puts a NaN only in the printed sets, so under the canonical
        # columns the grid delivers that point's row.
        grid = linear_grid(0.5, 2.25, 12)
        printed_signs = fidelity in ("signs", "all")
        bases = [basis_for(barrier_coefficients(E, MASS, BARRIER, U,
                                                printed_signs=printed_signs))
                 for E in grid]
        b = [basis.b_param for basis in bases]
        z0 = [basis.kernels(0.0).z for basis in bases]
        za = [basis.kernels(BARRIER.a).z for basis in bases]

        def overflow(x):
            return AccuracyError(f"spied 1/Gamma overflow at x={x!r}", value=x)

        f6 = [0.25 + (4.0 * v - 1.0) for v in b]
        failing_recip_gamma(monkeypatch, {
            b[1] + 0.5: overflow(b[1] + 0.5), b[1]: overflow(b[1]),
            b[3]: overflow(b[3]),
            f6[4]: overflow(f6[4]),  # f6 goes NaN; the point stands
            # at point 0, where y < 0 at x = 0: the grid reads the NaN as
            # an overflow and takes second() there, which tries no
            # continued fraction
            f6[0]: ZeroDivisionError("spied f6 fault")})
        failing_continued_fraction(monkeypatch, {za[3], za[10]})
        refused = {z0[0], za[5], z0[8], za[8]}
        second, companion = RegionIIBasis.second, triq.scatter._companion_grid

        def refusal(z):
            return AccuracyError(f"spied refusal at z={z!r}", value=z)

        def spied_second(basis, ker):
            got = second(basis, ker)
            if ker.z in refused:
                raise refusal(ker.z)
            return got

        def spied_companion(b, s, rg_b, rg_bh, ker):
            value, deriv = companion(b, s, rg_b, rg_bh, ker)
            for i, z in enumerate(ker.z.tolist()):
                if z in refused:
                    value[i] = deriv[i] = math.nan
            return value, deriv

        monkeypatch.setattr(RegionIIBasis, "second", spied_second)
        monkeypatch.setattr(triq.scatter, "_companion_grid", spied_companion)
        counts = counted_routes(monkeypatch)
        fractions = fraction_z(monkeypatch)
        sent = points_sent_alone(monkeypatch)
        want = loop_outcomes("E", grid, fidelity=fidelity)
        loop_counts, loop_z = taken(counts), fractions[:]
        del sent[:], fractions[:]
        got = sweep_outcomes("E", grid, MASS, BARRIER, U, 0.1,
                             fidelity, False)
        grid_counts, grid_z = taken(counts), fractions[:]
        assert [outcome_key(g) for g in got] == [outcome_key(w) for w in want]
        alone = [grid.index(E) for E, _ in sent]
        del fractions[:]
        loop_outcomes("E", [grid[i] for i in alone], fidelity=fidelity)
        assert sorted(grid_counts["reruns"]) == \
            sorted(loop_counts["reruns"] + counts["reruns"])
        assert_fractions_of_the_loop(
            grid_z, loop_z + fractions,
            {z for i in alone for z in (z0[i], za[i])})
        errors = {i: str(g) for i, g in enumerate(got) if isinstance(g, Exception)}
        expect = {1: str(overflow(b[1] + 0.5)), 3: str(overflow(b[3])),
                  0: "spied f6 fault"}
        if fidelity in ("none", "signs"):
            expect.update({5: str(refusal(za[5])), 8: str(refusal(z0[8])),
                           10: f"spied continued-fraction failure at z={za[10]!r}"})
            assert math.isnan(got[4].T_paper) and math.isfinite(got[4].T_solve)
        else:
            # the printed f6 column is NaN: a non-finite system
            expect[4] = "matching system has non-finite entries"
        assert errors == expect
        assert alone == sorted(expect)

    def test_every_pass_takes_every_point(self, monkeypatch):
        # on the 100-point refusal band, where 45 points are refused, the
        # Airy, Kummer and companion passes each take all 100 points: a
        # refusal travels as NaN, and no pass is narrowed to the points
        # an earlier pass kept
        sizes = {"_exterior_airy": [], "_interface_kernels": [],
                 "_companion_grid": []}
        for name, seen in sizes.items():
            def recorded(*args, _fn=getattr(triq.scatter, name), _seen=seen):
                _seen.append(np.size(args[0]))
                return _fn(*args)
            monkeypatch.setattr(triq.scatter, name, recorded)
        table = sweep("E", linear_grid(2.25, 3.9, 100), MASS, BARRIER, U)
        assert sum(exc is not None for exc in table.refusal) == 45
        assert sizes == {"_exterior_airy": [100], "_interface_kernels": [100],
                         "_companion_grid": [100, 100]}

    @pytest.mark.parametrize("fidelity", FIDELITY_MODES)
    def test_point_sent_alone_keeps_its_row(self, monkeypatch, fidelity):
        # a NaN planted in one grid kernel value of a point that its lone
        # route solves: the grid sends that point alone, its row is a lone
        # transmission() call's bit for bit, and its neighbours keep theirs
        grid = linear_grid(0.02, 2.25, 12)
        want = [outcome_key(g) for g in sweep_outcomes(
            "E", grid, MASS, BARRIER, U, 0.1, fidelity, False)]
        kummer = triq.scatter._kummer_m_array

        def planted(b, c, z):
            values = kummer(b, c, z)
            values[5, 6] = math.nan  # point 5's third series at x = a
            return values

        monkeypatch.setattr(triq.scatter, "_kummer_m_array", planted)
        sent = points_sent_alone(monkeypatch)
        got = sweep_outcomes("E", grid, MASS, BARRIER, U, 0.1,
                             fidelity, False)
        assert [E for E, _ in sent] == [grid[5]]
        assert [outcome_key(g) for g in got] == want
        lone = transmission(grid[5], MASS, BARRIER, U, fidelity=fidelity)
        assert outcome_key(got[5]) == outcome_key(lone)

    @pytest.mark.parametrize("auto_alpha", [True, False])
    def test_non_positive_width_is_refused_by_name(self, auto_alpha):
        # a width that is not positive is the profile's refusal, whether
        # alpha is re-sloped per point or kept
        values = [0.0, -0.0, -1.0, 2.0]
        points = triq.scatter._grid_points("a", values, BARRIER, 0.1,
                                           auto_alpha)
        for a, point in zip(values[:3], points):
            assert isinstance(point, DomainError)
            assert str(point) == f"a must be positive, got {a!r}"
        assert points[3] == (0.1, PotentialProfile(
            alpha=0.225 if auto_alpha else BARRIER.alpha, a=2.0))
        table = sweep("a", [-1.0, 0.0, 2.0], MASS, BARRIER, U,
                      auto_alpha=auto_alpha)
        assert refusal_names(table) == ["DomainError"] * 2 + [None]

    def test_numpy_parameters_give_the_float_outcome(self):
        # a seeded GaAs-like box: energies and every mass and profile
        # parameter as np.float64 give the doubles, or the error class and
        # message, of Python floats, and raise no warning
        for params in parameter_box(20261018):
            outcomes = []
            for E, M0, M1, V0, alpha, a in (params, map(np.float64, params)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    outcomes.append(loop_outcomes(
                        "E", [E], MassParams(M0=M0, M1=M1),
                        PotentialProfile(V0=V0, alpha=alpha, a=a))[0])
            want, got = (outcome_key(o)[:2] if isinstance(o, Exception)
                         else outcome_key(o) for o in outcomes)
            assert got == want, params

    def test_exterior_airy_takes_bi_at_y1_only(self, monkeypatch):
        # one _airy_array call over every y1 then every y3, asking Bi at
        # the y1 alone: nothing reads Bi at y3
        calls = []
        airy = triq.scatter._airy_array

        def spy(y, bi_at=True):
            calls.append((y.size, np.broadcast_to(bi_at, y.shape).tolist()))
            return airy(y, bi_at)
        monkeypatch.setattr(triq.scatter, "_airy_array", spy)
        table = sweep("E", [0.02 + 0.42 * i / 49 for i in range(50)],
                      MASS, BARRIER, U)
        assert calls == [(100, [True] * 50 + [False] * 50)]
        assert table.refusal == [None] * 50

    def test_stacked_solve_refuses_only_the_bad_members(self):
        # 80 systems (both column modes) with a singular and a non-finite
        # member, solved as one stack: every other system gets the doubles
        # the single-system solve gave, and only the bad two are refused
        energies = linear_grid(0.02, 2.25, 40) * 2
        systems = [assemble_matching(E, MASS, BARRIER, U,
                                     fidelity="t2" if i >= 40 else "none")
                   for i, E in enumerate(energies)]
        systems[7] = systems[7]._replace(matrix=np.zeros((4, 4)))
        systems[50] = systems[50]._replace(matrix=systems[50].matrix * math.nan)
        got = solve_matching(systems, E=energies)
        for i, (system, sol) in enumerate(zip(systems, got)):
            if i in (7, 50):
                with pytest.raises(ConditioningError) as want:
                    reference_solve(system)
                assert isinstance(sol, ConditioningError)
                assert str(sol) == str(want.value)
                assert sol.energy_eV == energies[i]
                continue
            x, residual, scaled = reference_solve(system)
            assert [float(v).hex() for v in (sol.b1, sol.b2, sol.b3, sol.b4,
                                             sol.residual)] == \
                [v.hex() for v in x + [residual]]
            assert (sol.equilibrated == scaled).all()
        assert solve_matching([], E=[]) == []

    @pytest.mark.parametrize("fidelity, count", [("t2", 98), ("all", 122)])
    def test_printed_column_rows_near_b1_zero_stay_finite(self, fidelity,
                                                          count):
        # in printed-column systems |b1..b4| ~ 1e-12 against the fixed
        # b5 = 1, so these rows of the 0.02-2.25 eV sweep have |b1| below
        # 1e-12 of max(|b1|..|b4|, 1); T_solve is their finite (1/b1)^2,
        # unflagged, not an inf in place of a real number
        table = sweep("E", linear_grid(0.02, 2.25, 200), MASS, BARRIER, U,
                      fidelity=fidelity)
        assert table.refusal == [None] * 200
        b = np.abs(table.b)
        small = np.flatnonzero(b[:, 0] < 1e-12 * np.maximum(b.max(axis=1), 1.0))
        assert len(small) == count
        for i in small.tolist():
            r = 1.0 / table.b[i, 0].item()
            T_solve = table.T_solve[i].item()
            assert math.isfinite(T_solve)
            assert T_solve.hex() == (r * r).hex()

    def test_error_rows_flagged_not_raised(self):
        table = sweep("E", [-0.5, 0.1], MASS, BARRIER, U)
        assert refusal_names(table) == ["DomainError", None]
        assert math.isnan(table.T_solve[0])
        assert table.T_solve[1] == pytest.approx(T_DEFAULT, rel=1e-10)

    def test_auto_alpha_resolves_per_point(self):
        auto = sweep("V0", [0.005], MASS, BARRIER, U, E=0.1, auto_alpha=True)
        fixed = sweep("V0", [0.005], MASS, BARRIER, U, E=0.1, auto_alpha=False)
        assert auto.T_solve[0] == pytest.approx(1.0616171726721406, rel=1e-8)
        # at the base alpha the low barrier is a deep sloped well instead
        assert fixed.T_solve[0] < 0.01

    def test_width_axis(self):
        table = sweep("a", [1e-4, 7.0], MASS, BARRIER, U, E=0.1, auto_alpha=True)
        assert abs(table.T_solve[0] - 1.0) < 1e-3
        assert table.T_solve[1] == pytest.approx(T_DEFAULT, rel=1e-10)

    def test_numpy_grid_matches_float_grid(self):
        # at x = a the two companion terms cancel to exactly 0 near 1.925 and
        # 2.037 eV; np.float64 energies must not overflow there, and must
        # give the same doubles as Python floats and as a transmission()
        # call per np.float64 point
        grid = np.linspace(0.02, 2.25, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sweep_outcomes("E", grid, MASS, BARRIER, U,
                                 0.1, "none", False)
            want = loop_outcomes("E", grid)
        table_py = sweep("E", [float(v) for v in grid], MASS, BARRIER, U)
        assert [outcome_key(g) for g in got] == [outcome_key(w) for w in want]
        assert [outcome_key(g) for g in got] == \
            [outcome_key(o) for o in triq.scatter._outcomes(table_py)]
        assert table_py.refusal == [None] * 200

    def test_only_numeric_faults_folded(self, monkeypatch):
        # 3.9 eV is in the Kummer refusal band: flagged, not raised
        table = sweep("E", [0.1, 3.9], MASS, BARRIER, U)
        assert refusal_names(table) == [None, "AccuracyError"]
        assert math.isnan(table.T_solve[1])

        def fault(exc):
            def raiser(*args, **kwargs):
                raise exc
            return raiser

        # planted in _solve_systems, the one solve of a point and a sweep
        monkeypatch.setattr(triq.scatter, "_solve_systems",
                            fault(ZeroDivisionError("float division by zero")))
        table = sweep("E", [0.1], MASS, BARRIER, U)
        assert refusal_names(table) == ["ZeroDivisionError"]
        table = sweep("E", [0.1, 0.2], MASS, BARRIER, U)
        assert refusal_names(table) == ["ZeroDivisionError"] * 2
        assert np.isnan(table.T_solve).all()
        monkeypatch.setattr(triq.scatter, "_solve_systems",
                            fault(TypeError("a bug, not a numeric fault")))
        with pytest.raises(TypeError):
            sweep("E", [0.1], MASS, BARRIER, U)
        with pytest.raises(TypeError):
            sweep("E", [0.1, 0.2], MASS, BARRIER, U)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            sweep("k", [0.1], MASS, BARRIER, U)
        with pytest.raises(DomainError):
            sweep("E", [], MASS, BARRIER, U)
        with pytest.raises(DomainError):
            sweep("E", [0.2, 0.1], MASS, BARRIER, U)
        with pytest.raises(DomainError, match="fidelity"):
            sweep("E", [0.1, 0.2], MASS, BARRIER, U, fidelity="verbatim")


# the runs whose output bytes test_cli.py pins
PINNED_CLI_RUNS = [
    "transmission --min 0.02 --max 2.25 --points 200",
    "transmission --min 0.02 --max 2.25 --points 200 --paper-fidelity t2",
    "transmission --min 0.02 --max 2.25 --points 200 --paper-fidelity all",
    "transmission --min 0.02 --max 2.25 --points 200 --paper_fidelity all",
    "tunnelling --min 0.02 --max 0.44 --points 200",
    "transmission --axis V0 --min 0.05 --max 0.9 --points 120",
    "transmission --axis a --min 1 --max 12 --points 120",
    "transmission --min 0.02 --max 2.25 --points 200 --paper-fidelity signs",
    "transmission --min 2.25 --max 3.9 --points 100",
    "transmission --min 2.2 --points 1",
    "transmission --min 3.9 --points 1",
    "transmission --V0_eV 5 --a_nm 2 --alpha_eV_per_nm 0.0642857142857143 "
    "--M1_m0_per_nm 0.02 --min 0.02 --max 3 --points 60",
    "transmission --V0_eV 5 --a_nm 2 --alpha_eV_per_nm 0.0642857142857143 "
    "--M1_m0_per_nm 0.02 --min 0.02 --max 3 --points 60 --paper_fidelity t2",
    "transmission --axis a --min 0 --max 1 --points 3",
    "validate",
]


def reference_residuals(a, rhs, x):
    """_residuals as it read with one float(arow @ xs) dot per matrix row."""
    parts = np.abs(a * x[:, None, :])
    scale = parts[..., 0] + parts[..., 1] + parts[..., 2] + parts[..., 3] + np.abs(rhs)
    dots = [float(arow @ xs) for rows, xs in zip(a, x) for arow in rows]
    gap = np.abs(np.reshape(dots, rhs.shape) - rhs)
    return np.fmax.reduce(gap / np.maximum(scale, 1e-300), axis=1,
                          initial=0.0).tolist()


def reference_coefficients(points, mp, u, printed_signs):
    """Per (energy, profile) point, .hex() of (a, y1, y2, y3, b, sqrt(a1),
    k) from the per-point loop the grid had, barrier_coefficients,
    airy_scale and basis_for, or the error's class name and message."""
    out = []
    for E, pp in points:
        try:
            rc = barrier_coefficients(E, mp, pp, u, printed_signs=printed_signs)
            k = airy_scale(E, mp, u)
        except (TriqError, ArithmeticError) as exc:
            out.append((type(exc).__name__, str(exc)))
            continue
        basis = basis_for(rc)
        out.append([v.hex() for v in (pp.a, rc.y1, rc.y2, rc.y3, basis.b_param,
                                      basis.sqrt_a1, k)])
    return out


def grid_coefficients(points, mp, u, printed_signs):
    """reference_coefficients' form of one _grid_coefficients call, with
    "refused" for a point it refuses: one with a NaN value, whose values
    but the width are then all NaN."""
    values = triq.scatter._grid_coefficients(points, mp, u, printed_signs)
    out = []
    for point in zip(*(v.tolist() for v in values)):
        refused = any(map(math.isnan, point[1:]))
        assert not refused or all(map(math.isnan, point[1:]))
        out.append("refused" if refused else [v.hex() for v in point])
    return out


def refused_coefficients(points, mp, u, printed_signs):
    """reference_coefficients with each error read as "refused"."""
    return [w if isinstance(w, list) else "refused"
            for w in reference_coefficients(points, mp, u, printed_signs)]


def reference_closed_form(k, fset, gset, bi0, ai_a):
    """(t1, t2, T_paper) of one point as _paper_closed_form read on Python
    floats, a call per point."""
    ai3, aip3 = ai_a
    t1 = k / math.pi * (gset.f1p * gset.f9 - gset.f8 * gset.f7)
    t2 = ((gset.f9 * ai3 - k * gset.f7 * aip3)
          * (k * fset.f1p * bi0.derivative - fset.f8 * bi0.value)
          * (k * gset.f1p * aip3 - gset.f8 * ai3)
          * (k * fset.f7 * bi0.derivative - fset.f9 * bi0.value))
    ratio = _div(t1, t2)
    return t1, t2, ratio * ratio


def closed_form_points(system):
    """Per point of a system (floats, or arrays over a grid), .hex() of
    _paper_closed_form's values and of reference_closed_form's."""
    got = [np.atleast_1d(v).tolist()
           for v in triq.scatter._paper_closed_form(system)]
    if not np.ndim(system.airy_scale):
        per_point = [system]
    else:
        per_point = [MatchingSystem._make(
            type(f)._make(g[i].item() for g in f) if isinstance(f, tuple)
            else f[i].item() if f.ndim == 1 else f[i] for f in system) for i in range(len(system.airy_scale))]
    want = [reference_closed_form(p.airy_scale, p.fset, p.gset, p.bi0, p.ai_a)
            for p in per_point]
    return ([[v.hex() for v in point] for point in zip(*got)],
            [[v.hex() for v in point] for point in want])


class TestGridPassesAreThePointLoops:
    """The grid passes of a sweep against the per-point loops they
    replace, .hex() for .hex(), or error for error."""

    @pytest.mark.parametrize("argv", PINNED_CLI_RUNS)
    def test_pinned_cli_runs(self, monkeypatch, argv):
        # every coefficient pass, closed form and residual stack of the run
        seen = {"_grid_coefficients": [], "_paper_closed_form": [],
                "_residuals": []}
        for name, calls in seen.items():
            def recorded(*args, _fn=getattr(triq.scatter, name), _calls=calls):
                _calls.append(args)
                return _fn(*args)
            monkeypatch.setattr(triq.scatter, name, recorded)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv.split()) == 0
        monkeypatch.undo()
        lone = argv.endswith("--points 1") or argv == "validate"
        assert len(seen["_grid_coefficients"]) == (not lone)
        # all but the refused lone point solve and take the closed form
        solved = argv != "transmission --min 3.9 --points 1"
        assert bool(seen["_paper_closed_form"]) == bool(seen["_residuals"]) == solved
        for args in seen["_grid_coefficients"]:
            assert grid_coefficients(*args) == refused_coefficients(*args)
        for (system,) in seen["_paper_closed_form"]:
            got, want = closed_form_points(system)
            assert got == want
        for a, rhs, x in seen["_residuals"]:
            assert [v.hex() for v in triq.scatter._residuals(a, rhs, x)] == \
                [v.hex() for v in reference_residuals(a, rhs, x)]

    def test_residuals_on_random_stacks(self):
        # 4x4 systems with exponents +-60, and rows of NaN, +-inf and zeros
        rng = np.random.default_rng(20261019)
        n = 2000
        a = rng.uniform(-1.0, 1.0, (n, 4, 4)) * 2.0 ** rng.integers(-60, 61, (n, 4, 4))
        rhs = rng.uniform(-1.0, 1.0, (n, 4)) * 2.0 ** rng.integers(-60, 61, (n, 4))
        x = rng.uniform(-1.0, 1.0, (n, 4)) * 2.0 ** rng.integers(-60, 61, (n, 4))
        for value, rows in ((math.nan, rng.integers(0, n, 40)),
                            (math.inf, rng.integers(0, n, 40)),
                            (-math.inf, rng.integers(0, n, 40)),
                            (0.0, rng.integers(0, n, 40))):
            a[rows, rng.integers(0, 4, rows.size)] = value
        a[rng.integers(0, n, 20), :, 2] = 0.0
        x[rng.integers(0, n, 20), 1] = math.nan
        with np.errstate(all="ignore"):
            got = triq.scatter._residuals(a, rhs, x)
            want = reference_residuals(a, rhs, x)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_coefficients_on_random_points(self):
        # points each pass refuses, in the scalar order: E <= 0, NaN or
        # inf, an overflowing H E, a well, M1 = 0, a1 underflowing to 0
        # (lam divides by it) and k underflowing (y1 divides by k^2)
        rng = random.Random(20261019)
        energies = ([rng.uniform(0.001, 5.0) for _ in range(60)]
                    + [0.0, -0.2, math.nan, math.inf, 1e-300, 5e-324,
                       6.9e306, 1e307, 1e308])
        profiles = [PotentialProfile(V0=rng.uniform(0.05, 1.0),
                                     alpha=rng.uniform(0.005, 0.2),
                                     a=rng.uniform(1.0, 12.0))
                    for _ in energies]
        points = list(zip(energies, profiles))
        well = PotentialProfile(kind="well")
        for mp, pts in ((MASS, points), (MassParams(M0=0.2, M1=0.1), points),
                        (MassParams(M1=0.0), points[:5]),
                        (MassParams(M1=5e-324), [(0.1, PotentialProfile(
                            alpha=1e-300)), (0.1, BARRIER)]),
                        (MassParams(M1=1e-300), [(5e-324, BARRIER), (0.1, BARRIER)]),
                        (MASS, [(0.1, well), (0.2, BARRIER)])):
            for printed_signs in (False, True):
                want = refused_coefficients(pts, mp, U, printed_signs)
                assert grid_coefficients(pts, mp, U, printed_signs) == want
        kinds = {w[0] for w in reference_coefficients(
            points[-9:] + [(0.1, well)], MASS, U, False) if isinstance(w, tuple)}
        assert kinds == {"DomainError"}
        assert reference_coefficients([(0.1, PotentialProfile(alpha=1e-300))],
                                      MassParams(M1=5e-324), U, False)[0][0] == \
            reference_coefficients([(5e-324, BARRIER)], MassParams(M1=1e-300),
                                   U, False)[0][0] == "ZeroDivisionError"

    def test_closed_form_on_random_systems(self):
        # abbreviation sets, Airy pairs and k with zeros (t2 = 0 takes
        # _div's branch), NaN, +-inf and overflowing products
        rng = np.random.default_rng(20261020)
        n = 3000

        def column():
            v = rng.uniform(-1.0, 1.0, n) * 2.0 ** rng.integers(-300, 301, n)
            for value in (0.0, math.nan, math.inf, -math.inf):
                v[rng.integers(0, n, 60)] = value
            return v

        abbreviations = [AbbreviationSet._make(column() for _ in range(12))
                         for _ in range(2)]
        zero = rng.integers(0, n, 100)
        for f in ("f1p", "f8", "f9", "f7"):
            getattr(abbreviations[1], f)[zero] = 0.0
        system = MatchingSystem(
            matrix=np.zeros((n, 4, 4)), rhs=np.zeros((n, 4)),
            airy_scale=np.abs(column()), fset=abbreviations[0],
            gset=abbreviations[1], bi0=triq.special.AiryPair(column(), column()),
            ai_a=triq.special.AiryPair(column(), column()))
        got, want = closed_form_points(system)
        assert got == want
