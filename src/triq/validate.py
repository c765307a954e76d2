"""Invariant suites behind the validate subcommand.

Each suite recomputes an identity through a route independent of the code
that produced it (closed form against marcher, derivative against central
difference, identity against direct expansion) and reports its worst
deviation against a fixed budget.  The INFO lines document measured gaps
between the canonical path and the published closed forms; they are
informational by design: the gaps are genuine properties of the printed
formulas, kept reproducible behind the fidelity modes, not defects to
patch silently.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .bound import (TABLE1_PUBLISHED_EV, TABLE1_REFERENCE_EV, TABLE1_WELL,
                    energy_level)
from .model import MassParams, PotentialProfile, barrier_coefficients, make_units
from .oracle import (IntegrationSpec, integrate, make_weight,
                     matched_transmission, ode_residual)
from .scatter import (RESCALE, abbreviations_at, basis_for,
                      rescale_diagnostic, transmission)
from .special import (_airy_array, airy_ai, airy_bi, gamma, kummer_m,
                      recip_gamma, tricomi_u_cf)

__all__ = ["SuiteResult", "run_suites", "info_lines"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    worst: float
    budget: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.budget


def _worst(deviations) -> float:
    """The largest deviation, NaN if any is NaN, so a NaN sample fails its
    suite (Python's max keeps the first of two unordered values, so it can
    drop a NaN).  Deviations are absolute values, so none is negative."""
    return float(np.max(np.asarray(deviations, dtype=float)))


def _airy_grid(ys):
    """_airy_array over a suite's grid.  A refused sample is NaN: the scalar
    calls are made at each such sample in order, so the error raised is the
    one a loop of them raises first."""
    grid = _airy_array(ys)
    for i in np.flatnonzero(np.isnan(grid.ai) | np.isnan(grid.bi)).tolist():
        airy_ai(ys[i])
        airy_bi(ys[i])
    return grid


def _default_setup():
    u = make_units()
    mp = MassParams()
    pp = PotentialProfile()
    return u, mp, pp


def suite_airy_wronskian() -> SuiteResult:
    # pi (Ai Bi' - Ai' Bi) = 1 on both sides of the turning point
    g = _airy_grid([-12.0 + 18.0 * i / 2000.0 for i in range(2001)])
    w = math.pi * (g.ai * g.bip - g.aip * g.bi)
    return SuiteResult(name="airy-wronskian", worst=_worst(np.abs(w - 1.0)),
                       budget=1e-12)


def suite_airy_equation() -> SuiteResult:
    xs = [-5.0 + i * 1e-3 for i in range(7001)]
    report = ode_residual(xs, _airy_grid(xs).ai, lambda x: -x)
    worst = report.residual if report.conclusive else math.inf
    return SuiteResult(name="airy-equation", worst=worst, budget=1e-6)


def suite_gamma_recurrence() -> SuiteResult:
    rng = random.Random(7)
    deviations = []
    for _ in range(200):
        x = rng.uniform(0.05, 12.0)
        deviations.append(abs(gamma(x + 1.0) / (x * gamma(x)) - 1.0))
        deviations.append(abs(gamma(x) * recip_gamma(x) - 1.0))
    return SuiteResult(name="gamma-recurrence", worst=_worst(deviations),
                       budget=1e-12)


def suite_kummer_derivative() -> SuiteResult:
    # d/dz M(b; c; z) = (b/c) M(b+1; c+1; z) against a central difference
    rng = random.Random(11)
    h = 1e-6
    deviations = []
    for _ in range(60):
        b = rng.uniform(-8.0, 2.0)
        c = rng.choice([0.5, 1.5])
        z = rng.uniform(0.1, 12.0)
        fd = (kummer_m(b, c, z + h) - kummer_m(b, c, z - h)) / (2.0 * h)
        exact = b / c * kummer_m(b + 1.0, c + 1.0, z)
        deviations.append(abs(fd - exact) / max(1.0, abs(exact)))
    return SuiteResult(name="kummer-derivative", worst=_worst(deviations),
                       budget=1e-6)


def suite_tricomi_shift() -> SuiteResult:
    # U(b; 1/2; z) = sqrt(z) U(b + 1/2; 3/2; z): the continued fraction and
    # the Wronskian at two parameter pairs, from independent Kummer values
    deviations = []
    for b, z in ((-6.2, 70.0), (-17.49, 141.83), (-0.9, 45.0), (0.4, 60.0)):
        lhs, rhs = (tricomi_u_cf(p, c, z, kummer_m(p, c, z) * recip_gamma(c),
                                 kummer_m(p + 1.0, c + 1.0, z)
                                 * recip_gamma(c + 1.0), recip_gamma(p))[0]
                    for p, c in ((b, 0.5), (b + 0.5, 1.5)))
        deviations.append(abs(lhs - math.sqrt(z) * rhs) / abs(lhs))
    return SuiteResult(name="tricomi-shift", worst=_worst(deviations),
                       budget=1e-9)


def suite_interior_coefficients() -> SuiteResult:
    # -(a1 x^2 + a2 x + a3) must reproduce H m(x)(E - V(x)) identically
    u, mp, pp = _default_setup()
    rng = random.Random(42)
    deviations = []
    for _ in range(100):
        E = rng.uniform(0.01, 2.0)
        x = rng.uniform(0.0, pp.a)
        rc = barrier_coefficients(E, mp, pp, u)
        lhs = -(rc.a1 * x * x + rc.a2 * x + rc.a3)
        rhs = u.H_per_m0 * mp.mass_at(x) * (E - (pp.V0 - pp.alpha * x))
        deviations.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
    return SuiteResult(name="interior-coefficients", worst=_worst(deviations),
                       budget=1e-11)


def suite_interior_equation() -> SuiteResult:
    u, mp, pp = _default_setup()
    E = 0.1
    basis = basis_for(barrier_coefficients(E, mp, pp, u))
    xs = [i * 1e-3 for i in range(7001)]
    ker = basis.kernels(np.array(xs))
    first_vals = basis.first(ker)[0].tolist()
    second_vals = basis.second(ker)[0].tolist()
    weight = make_weight(E, mp, pp, u)
    reports = [ode_residual(xs, vals, weight)
               for vals in (first_vals, second_vals)]
    worst = _worst([r.residual if r.conclusive else math.inf for r in reports])
    return SuiteResult(name="interior-equation", worst=worst, budget=1e-6)


def suite_interior_wronskian() -> SuiteResult:
    # P Q' - P' Q = -2 sqrt(pi) a1^(1/4) / Gamma(b), constant in x.  The
    # worst is 6.7e-14; it was 1.4e-10 (E = 0.8 here) with the large-z
    # recurrence in the companion solution's continued fraction's place
    u, mp, pp = _default_setup()
    deviations = []
    for E in (0.1, 0.8, 2.25):
        basis = basis_for(barrier_coefficients(E, mp, pp, u))
        exact = (-2.0 * math.sqrt(math.pi) * math.sqrt(basis.sqrt_a1)
                 * basis.rg_b)
        for x in (0.0, 1.75, -basis.y_offset, 5.25, pp.a):
            ker = basis.kernels(x)
            fv, fd = basis.first(ker)
            sv, sd = basis.second(ker)
            deviations.append(abs((fv * sd - fd * sv) / exact - 1.0))
    return SuiteResult(name="interior-wronskian", worst=_worst(deviations),
                       budget=1e-8)


def suite_march_agreement() -> SuiteResult:
    # closed-form interior trajectory against the marcher, seeded at x = 0
    u, mp, pp = _default_setup()
    E = 0.1
    basis = basis_for(barrier_coefficients(E, mp, pp, u))
    v0, d0 = basis.first(basis.kernels(0.0))
    spec = IntegrationSpec(x_start=0.0, x_end=pp.a, step=1e-3,
                           value=v0, derivative=d0)
    got = integrate(spec, E, mp, pp, u)
    va, da = basis.first(basis.kernels(pp.a))
    scale = max(abs(va), abs(da))
    worst = _worst([abs(got.value - va), abs(got.derivative - da)]) / scale
    return SuiteResult(name="march-agreement", worst=worst, budget=1e-7)


def suite_transmission_agreement() -> SuiteResult:
    u, mp, pp = _default_setup()
    deviations = []
    for E in (0.1, 0.45, 1.0, 1.7, 2.25):
        solved = transmission(E, mp, pp, u).T_solve
        marched = matched_transmission(E, mp, pp, u)
        deviations.append(abs(solved / marched - 1.0))
    # the worst is 4.6e-12 (2.25 eV), the oracle's own error; 2.7e-9 at
    # 0.45 eV with the large-z recurrence as the companion's second route
    return SuiteResult(name="transmission-agreement", worst=_worst(deviations),
                       budget=1e-10)


def suite_bound_residuals() -> SuiteResult:
    u = make_units()
    mp = MassParams()
    worst = _worst([energy_level(n, mp, TABLE1_WELL, u).residual
                    for n in range(6)])
    return SuiteResult(name="bound-residuals", worst=worst, budget=1e-10)


def run_suites() -> list[SuiteResult]:
    return [
        suite_airy_wronskian(),
        suite_airy_equation(),
        suite_gamma_recurrence(),
        suite_kummer_derivative(),
        suite_tricomi_shift(),
        suite_interior_coefficients(),
        suite_interior_equation(),
        suite_interior_wronskian(),
        suite_march_agreement(),
        suite_transmission_agreement(),
        suite_bound_residuals(),
    ]


def info_lines() -> list[str]:
    """Measured gaps against the published closed forms, recomputed live."""
    u, mp, pp = _default_setup()
    E = 0.1
    res = transmission(E, mp, pp, u)
    rs = rescale_diagnostic(E, mp, pp, u)
    rc = barrier_coefficients(E, mp, pp, u)
    flipped = barrier_coefficients(E, mp, pp, u, printed_signs=True)
    basis = basis_for(rc)
    ker0 = basis.kernels(0.0)
    fset = abbreviations_at(basis, ker0)
    dpdx0 = basis.first(ker0)[1]
    b_alt = 0.25 * (1.0 + rc.lam / (4.0 * rc.a1))
    lines = [
        f"printed closed form at E = {E:g} eV: T_paper/T_solve = "
        f"{res.T_paper / res.T_solve:.6g} (bracket degrees mismatch, "
        f"see the rescale line)",
        f"transmitted-amplitude rescale s = {RESCALE:g}: T_solve ratio "
        f"{rs[0]:.6g} (scale-free), T_paper ratio {rs[1]:.6g} (printed form "
        f"goes as s^-4 = {RESCALE ** -4})",
        f"printed constant-term sign: a3 = {rc.a3:.6g} canonical vs "
        f"{flipped.a3:.6g} printed at E = {E:g} eV; fidelity 'signs' keeps "
        f"the printed sign",
        f"published first-parameter denominator reads 4 a1 where the "
        f"reduction gives sqrt(a1): b = {rc.b_param:.6g} vs {b_alt:.6g} at "
        f"E = {E:g} eV; only the sqrt(a1) form passes the interior-equation "
        f"suite",
        f"printed f8 shorthand omits the chain-rule 4b factor: f8 = "
        f"{fset.f8:.6g} vs dP/dx(0) = {dpdx0:.6g}",
        f"printed f6 reciprocal-gamma argument is 4b - 3/4 where the "
        f"derivative chain uses b: 1/Gamma = "
        f"{basis.rg_f6:.6g} vs {basis.rg_b:.6g}",
        f"printed f5' divides by a1^(1/4) y where the value column divides "
        f"by sqrt(a1) y, leaving a stray a1^(1/4) = "
        f"{math.sqrt(basis.sqrt_a1):.6g}",
    ]
    for mode in ("signs", "t2", "all"):
        alt = transmission(E, mp, pp, u, fidelity=mode)
        shift = alt.T_solve / res.T_solve - 1.0
        lines.append(f"fidelity '{mode}': T_solve shifts by {shift:+.3e} "
                     f"relative at E = {E:g} eV")
    e0 = energy_level(0, mp, TABLE1_WELL, u).E_n
    e1 = energy_level(1, mp, TABLE1_WELL, u).E_n
    lines.append(
        f"lowest well levels: computed {e0:.5f}, {e1:.5f} eV; published "
        f"{TABLE1_PUBLISHED_EV[0]:.5f}, {TABLE1_PUBLISHED_EV[1]:.5f} eV; "
        f"earlier reference {TABLE1_REFERENCE_EV[0]:.5f}, "
        f"{TABLE1_REFERENCE_EV[1]:.5f} eV; "
        f"the unit reading behind the published column is unresolved, so "
        f"the gap is reported rather than rescaled away")
    shallow = PotentialProfile(V0=0.005, alpha=0.005 / 7.0, a=7.0)
    t_shallow = transmission(E, mp, shallow, u).T_solve
    thin = PotentialProfile(V0=0.45, alpha=0.45 / 1e-4, a=1e-4)
    t_thin = transmission(E, mp, thin, u).T_solve
    lines.append(
        f"published starting value T = 1 for small barriers: computed "
        f"T = {t_shallow:.6g} at V0 = 0.005 eV (slope V0/a) and "
        f"T = {t_thin:.6g} at a = 1e-4 nm")
    return lines
