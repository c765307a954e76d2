"""Release gates, one test per gate.

Each test prints a single verdict line (PASS/FAIL plus the measured
numbers next to their budgets) before asserting, so the captured output
doubles as a report; run with -rA to see the lines for passing gates.

Gates 4 and 5 check the transmission the stated wave equation gives, not
a flux probability.  The exterior is written in Airy functions, so the
mass m(x) = M0 - M1 x stays linear on the whole line and turns negative
beyond x* = M0/M1 (1 nm by default).  Past the profile the wave is the
decaying Ai, no transmitted current exists, and T_solve = (1/b1)^2 (the
transmitted amplitude fixed at 1) is a ratio of real amplitudes: it is not bounded by 1, it has a pole wherever
b1 crosses zero, and above the barrier it settles on a plateau near 4
(the barrier slows the evanescent decay in the m < 0 region).  The gates
therefore take the limits the model does promise and the independent RK4
oracle as their references: each b1 sign change must be reproduced by the
oracle's signed b1, T must settle beyond the last pole, and T -> 1 as
the profile vanishes.
"""

import dataclasses
import math
import random
import time

import numpy as np

from triq.bound import count_bound_states, spectrum, table1_report
from triq.cli import main
from triq.model import (MassParams, PotentialProfile, barrier_coefficients,
                        make_units, well_coefficients)
from triq.oracle import IntegrationSpec, integrate, matched_b1, matched_transmission
from triq.scatter import (assemble_matching, basis_for, rescale_diagnostic,
                          solve_matching, sweep, transmission)
from triq.special import airy_ai, airy_bi

from test_model import value_at

U = make_units()
MASS = MassParams()
BARRIER = PotentialProfile()
WELL = PotentialProfile(V0=0.45, alpha=0.0045, a=7.0, kind="well")

# 200 energies strictly inside (0.02, 5 V0), shared by gates 4 and 7
SHAPE_GRID = [float(e) for e in np.linspace(0.02, 2.25, 202)[1:-1]]


def _verdict(num, name, ok, detail):
    print(f"gate {num}/8 {name}: {'PASS' if ok else 'FAIL'} -- {detail}",
          flush=True)


def _solve_values(table, values, gate):
    """T_solve of a sweep's table, values its grid; every point must solve."""
    for v, exc in zip(values, table.refusal):
        assert exc is None, \
            f"gate {gate}: point {v!r} failed: {type(exc).__name__}"
    return table.T_solve


def test_gate_1_special_functions():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(2001):
        y = -12.0 + 20.0 * i / 2000.0
        ai = airy_ai(y)
        bi = airy_bi(y)
        worst = max(worst, abs(ai.value * bi.derivative
                               - ai.derivative * bi.value - 1.0 / math.pi))
    g13 = math.gamma(1.0 / 3.0)
    g23 = math.gamma(2.0 / 3.0)
    origin = max(
        abs(airy_ai(0.0).value / (3.0 ** (-2.0 / 3.0) / g23) - 1.0),
        abs(airy_ai(0.0).derivative / (-(3.0 ** (-1.0 / 3.0)) / g13) - 1.0),
        abs(airy_bi(0.0).value / (3.0 ** (-1.0 / 6.0) / g23) - 1.0))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and origin <= 1e-12 and dt <= 1.0
    _verdict(1, "special functions", ok,
             f"wronskian {worst:.3e} <= 1e-10 on 2001 pts of [-12, 8], "
             f"origin values {origin:.3e} <= 1e-12, {dt:.2f}s <= 1s")
    assert worst <= 1e-10
    assert origin <= 1e-12
    assert dt <= 1.0


def test_gate_2_coefficient_signs():
    rng = random.Random(20260815)
    worst = 0.0
    for pp in (BARRIER, WELL):
        for _ in range(100):
            if pp.kind == "barrier":
                E = rng.uniform(0.02, 2.25)
                rc = barrier_coefficients(E, MASS, pp, U)
            else:
                E = rng.uniform(-pp.V0, 0.5)
                rc = well_coefficients(E, MASS, pp, U)
            x = rng.uniform(1e-6, pp.a - 1e-6)
            lhs = -(rc.a1 * x * x + rc.a2 * x + rc.a3)
            rhs = U.H_per_m0 * MASS.mass_at(x) * (E - value_at(pp, x))
            # scale by the term magnitudes: at the mass zero both sides
            # cancel to float dust and a pointwise ratio measures nothing
            scale = abs(rc.a1 * x * x) + abs(rc.a2 * x) + abs(rc.a3)
            worst = max(worst, abs(lhs - rhs) / max(scale, abs(rhs)))
    ok = worst <= 1e-12
    _verdict(2, "coefficient signs", ok,
             f"barrier and well expansion identity, 100 random (E, x) "
             f"each: {worst:.3e} <= 1e-12")
    assert worst <= 1e-12


def test_gate_3_closed_form_vs_oracle():
    t0 = time.perf_counter()
    worst_wave = 0.0
    for E in (0.05, 0.1, 0.2, 0.3, 0.45, 0.6):
        (sol,) = solve_matching([assemble_matching(E, MASS, BARRIER, U)], E=[E])
        basis = basis_for(barrier_coefficients(E, MASS, BARRIER, U))

        def wave(x):
            ker = basis.kernels(x)
            fv, fd = basis.first(ker)
            sv, sd = basis.second(ker)
            return sol.b3 * fv + sol.b4 * sv, sol.b3 * fd + sol.b4 * sd

        # march in the growing direction (a -> 0): the solved wave decays
        # toward x = a at these energies, which starves the halving gate;
        # chained over 140 segments of 0.05 nm to compare at their ends
        nodes = np.linspace(BARRIER.a, 0.0, 141).tolist()
        states = [wave(nodes[0])]
        for x0, x1 in zip(nodes, nodes[1:]):
            res = integrate(IntegrationSpec(x0, x1, 1e-3, *states[-1]),
                            E, MASS, BARRIER, U)
            states.append((res.value, res.derivative))
        closed = np.array([wave(x)[0] for x in nodes])
        marched = np.array([v for v, _ in states])
        scale = max(np.max(np.abs(closed)), np.max(np.abs(marched)))
        worst_wave = max(worst_wave, np.max(np.abs(closed - marched)) / scale)

    energies = np.linspace(0.05, 2.25, 50)
    ts = np.array([transmission(float(E), MASS, BARRIER, U).T_solve
                   for E in energies])
    oracle_ts = np.array([matched_transmission(E, MASS, BARRIER, U)
                          for E in energies])
    # 3.3e-13; 4.6e-12, the oracle's own error, before it extrapolated
    # its halving pair, and 4.9e-9 with the large-z recurrence in the
    # companion solution's continued fraction's place
    worst_t = float(np.max(np.abs(ts / oracle_ts - 1.0)))
    dt = time.perf_counter() - t0
    ok = worst_wave <= 1e-6 and worst_t <= 4e-12 and dt <= 30.0
    _verdict(3, "closed form vs oracle", ok,
             f"interior wave vs integration {worst_wave:.3e} <= 1e-6 over "
             f"six energies, transmission vs independent march {worst_t:.3e}"
             f" <= 4e-12 on 50 pts, {dt:.1f}s <= 30s")
    assert worst_wave <= 1e-6
    assert worst_t <= 4e-12
    assert dt <= 30.0


def _oracle(fn, points):
    """fn (matched_b1 or matched_transmission) at each (E, profile) point."""
    return np.array([fn(E, MASS, pp, U) for E, pp in points])


def _poles(points, table):
    """b1 sign changes between neighbouring grid points, checked by the oracle.

    points[i] is the (E, profile) of the table's point i.  Returns the bracket indices
    i (b1 changes sign between i and i + 1) and the worst relative gap
    between the oracle's signed b1 and the solved one over both ends of
    every bracket; a gap below 1 means the oracle reproduces the sign.
    """
    b1 = table.b[:, 0]
    brackets = [i for i in range(len(b1) - 1)
                if (b1[i] > 0.0) != (b1[i + 1] > 0.0)]
    ends = [j for i in brackets for j in (i, i + 1)]
    gaps = np.abs(_oracle(matched_b1, [points[j] for j in ends])
                  / b1[ends] - 1.0)
    return brackets, float(np.max(gaps, initial=0.0))


def _oracle_gap(points, T):
    """Worst |T_solve / T_oracle - 1| over the given points."""
    return float(np.max(np.abs(T / _oracle(matched_transmission, points)
                               - 1.0)))


def _largest_step_beyond(T, brackets):
    """Largest point-to-point change of T past the last pole bracket."""
    start = brackets[-1] + 1 if brackets else 0
    return float(np.max(np.diff(T[start:]), initial=-math.inf))


def test_gate_4_high_energy_shape():
    table = sweep("E", SHAPE_GRID, MASS, BARRIER, U)
    T = _solve_values(table, SHAPE_GRID, gate=4)
    points = [(E, BARRIER) for E in SHAPE_GRID]
    top = len(T) // 10
    decile = T[-top:]
    brackets, pole_gap = _poles(points, table)
    step = _largest_step_beyond(T, brackets)
    oracle = _oracle_gap(points[-top:], decile)
    poles = ", ".join(f"({SHAPE_GRID[i]:.5f}, {SHAPE_GRID[i + 1]:.5f})"
                      for i in brackets)
    # each oracle budget is 10x its worst (7.1e-13 and 6.0e-14), rounded up
    ok = (decile.min() >= 0.95 and pole_gap <= 6e-13 and step <= 0.0
          and oracle <= 8e-12)
    _verdict(4, "high energy shape", ok,
             f"top decile min T {decile.min():.4f} >= 0.95, vs oracle "
             f"{oracle:.3e} <= 8e-12; b1 sign changes in E [{poles}] eV, "
             f"oracle b1 gap {pole_gap:.3e} <= 6e-13; largest step beyond "
             f"the last {step:.4g} <= 0")
    assert decile.min() >= 0.95
    assert pole_gap <= 6e-13, (
        f"a b1 sign change in E [{poles}] eV is not the oracle's: worst "
        f"relative b1 gap {pole_gap:.3g}")
    assert step <= 0.0, (
        f"T rises by {step:.6g} between neighbouring energies beyond the "
        f"last pole: the transmission rings instead of settling")
    assert oracle <= 8e-12


def test_gate_5_growth_shape():
    # log grids toward the shallow and thin limits, where the profile
    # vanishes and T -> 1 (first order in V0, about 12 /eV at E = 0.1 eV);
    # V0 cannot go lower because the closed form refuses V0 below ~0.0048
    # eV here (Kummer cancellation guard, |z| <= 300 envelope below 0.003).
    # The slope tracks V0/a per point so the profile stays triangular.
    v0_grid = [float(v) for v in
               np.logspace(math.log10(0.005), math.log10(0.45), 50)]
    v0_table = sweep("V0", v0_grid, MASS, BARRIER, U, E=0.1, auto_alpha=True)
    Tv = _solve_values(v0_table, v0_grid, gate=5)
    v0_points = [(0.1, dataclasses.replace(BARRIER, V0=v,
                                           alpha=v / BARRIER.a))
                 for v in v0_grid]
    a_grid = [float(a) for a in np.logspace(-4.0, math.log10(7.0), 50)]
    a_table = sweep("a", a_grid, MASS, BARRIER, U, E=0.1, auto_alpha=True)
    Ta = _solve_values(a_table, a_grid, gate=5)
    a_points = [(0.1, dataclasses.replace(BARRIER, a=a,
                                          alpha=BARRIER.V0 / a))
                for a in a_grid]
    # T is smooth in V0 and T(0) = 1 exactly: extrapolate the quadratic
    # through the three shallowest points to V0 = 0
    v0_limit = float(np.polyval(np.polyfit(v0_grid[:3], Tv[:3], 2), 0.0))
    v0_start = abs(v0_limit - 1.0)
    a_start = abs(Ta[0] - 1.0)
    v0_oracle = _oracle_gap(v0_points, Tv)
    a_oracle = _oracle_gap(a_points, Ta)
    v0_brackets, v0_gap = _poles(v0_points, v0_table)
    a_brackets, a_gap = _poles(a_points, a_table)
    pole_gap = float(np.max([v0_gap, a_gap]))
    v0_rise = _largest_step_beyond(Tv, v0_brackets)
    a_rise = _largest_step_beyond(Ta, a_brackets)
    poles = "; ".join(
        f"{name} [" + ", ".join(f"({grid[i]:.5g}, {grid[i + 1]:.5g})"
                                for i in brackets) + "]"
        for name, grid, brackets in (("V0", v0_grid, v0_brackets),
                                     ("a", a_grid, a_brackets)))
    # each oracle budget is 10x its worst (3.6e-13, 8.1e-14 and 1.5e-14),
    # rounded up
    ok = (v0_start <= 1e-3 and a_start <= 1e-3 and v0_oracle <= 4e-12
          and a_oracle <= 9e-13 and pole_gap <= 2e-13
          and v0_rise <= 0.02 and a_rise <= 0.02)
    _verdict(5, "growth shape", ok,
             f"|T-1| at V0 -> 0 {v0_start:.3e} <= 1e-3, at smallest a "
             f"{a_start:.3e} <= 1e-3; vs oracle along V0 {v0_oracle:.3e} "
             f"<= 4e-12, along a {a_oracle:.3e} <= 9e-13; b1 sign changes "
             f"{poles}, oracle b1 gap {pole_gap:.3e} <= 2e-13; largest "
             f"increase beyond the last along V0 {v0_rise:.6g}, along a "
             f"{a_rise:.6g} <= 0.02")
    assert v0_start <= 1e-3, (
        f"T extrapolates to {v0_limit:.6f} at V0 = 0, not 1")
    assert a_start <= 1e-3
    assert v0_oracle <= 4e-12
    assert a_oracle <= 9e-13
    assert pole_gap <= 2e-13, (
        f"a b1 sign change ({poles}) is not the oracle's: worst relative "
        f"b1 gap {pole_gap:.3g}")
    assert v0_rise <= 0.02, (
        f"T rises by {v0_rise:.6g} between successive V0 points beyond "
        f"the last pole")
    assert a_rise <= 0.02, (
        f"T rises by {a_rise:.6g} between successive width points beyond "
        f"the last pole")


def test_gate_6_bound_states():
    levels = spectrum(MASS, WELL, U)
    resid = max(row.residual for row in levels[:6])
    energies = [row.E_n for row in levels]
    increasing = all(b > a for a, b in zip(energies, energies[1:]))
    counts = [count_bound_states(MASS, dataclasses.replace(WELL, alpha=a), U)
              for a in np.logspace(math.log10(0.0045),
                                   math.log10(0.45), 9)]
    shrinking = all(b <= a for a, b in zip(counts, counts[1:]))
    report = table1_report(MASS, WELL, U)
    published = ", ".join(
        f"{row.published_eV!r} eV published vs {row.level.E_n:.5f} computed"
        for row in report)
    ok = resid <= 1e-10 and increasing and shrinking
    _verdict(6, "bound states", ok,
             f"quantization residual {resid:.3e} <= 1e-10 for n = 0..5, "
             f"levels strictly increasing {increasing}, counts {counts} "
             f"non-increasing over two decades of slope; {published} "
             f"(emitted, not gated)")
    assert resid <= 1e-10
    assert increasing
    assert shrinking
    assert all(c >= 0 for c in counts)


def test_gate_7_published_form_diagnostics():
    spread = {}
    flagged = {}
    for mode in ("none", "signs", "t2", "all"):
        table = sweep("E", SHAPE_GRID, MASS, BARRIER, U, fidelity=mode)
        assert len(table.refusal) == len(SHAPE_GRID)
        flagged[mode] = sum(exc is not None for exc in table.refusal)
        T_paper, T_solve = table.T_paper, table.T_solve
        comparable = (np.isfinite(T_paper) & np.isfinite(T_solve)
                      & (T_solve != 0.0))
        div = np.abs(T_paper[comparable] / T_solve[comparable] - 1.0)
        assert div.size, f"mode {mode} produced no comparable points"
        spread[mode] = float(div.max())
    solve_ratio, paper_ratio = rescale_diagnostic(0.1, MASS, BARRIER, U)
    invariance = abs(solve_ratio - 1.0)
    scaling = abs(paper_ratio / 2.0 ** -4 - 1.0)
    ok = invariance <= 1e-12 and scaling <= 1e-9
    detail = ", ".join(f"{m}: {flagged[m]} flagged, "
                       f"max |T_paper/T_solve - 1| {spread[m]:.3g}"
                       for m in spread)
    _verdict(7, "published form diagnostics", ok,
             f"{detail}; doubling the transmitted amplitude leaves T_solve "
             f"at ratio {solve_ratio!r} and sends T_paper to {paper_ratio!r}"
             f" (2^-4, so the printed form tracks normalization)")
    assert invariance <= 1e-12
    assert scaling <= 1e-9
    assert abs(paper_ratio - 1.0) > 0.5


def test_gate_8_cli_determinism(tmp_path, capsys):
    runs = {
        "transmission": ["transmission", "--min", "0.05", "--max", "0.3",
                         "--points", "7"],
        "tunnelling": ["tunnelling", "--min", "0.05", "--max", "0.44",
                       "--points", "6"],
        "bound": ["bound", "--kind", "well",
                  "--alpha_eV_per_nm", "0.0045"],
    }
    stable = True
    for name, argv in runs.items():
        outs = []
        for tag in ("first", "second"):
            path = tmp_path / f"{name}-{tag}.csv"
            assert main(argv + ["--out", str(path)]) == 0
            outs.append(path.read_bytes())
        stable = stable and outs[0] == outs[1]
        assert outs[0] == outs[1], f"{name} output differs between runs"
    texts = []
    for _ in range(2):
        assert main(["validate"]) == 0
        texts.append(capsys.readouterr().out)
    stable = stable and texts[0] == texts[1]
    _verdict(8, "cli determinism", stable,
             "transmission, tunnelling, bound and validate each run twice, "
             "byte-identical")
    assert texts[0] == texts[1], "validate output differs between runs"
