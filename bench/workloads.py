"""The benchmark's workloads: CLI arguments made from a seed, and output checks.

Every workload is one closed-loop caller of ``triq.cli.main``: the next
pass starts when the previous one returns.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from triq import MassParams, PotentialProfile, make_units
from triq.oracle import matched_transmission

# ``triq validate``'s own agreement budget for closed form vs oracle
ORACLE_BUDGET = 1e-6
ORACLE_SAMPLE = 8
SUITE_COUNT = 11


@dataclass(frozen=True)
class Workload:
    name: str
    command: str      # triq subcommand
    band: tuple       # (lo, hi) energy band in eV, or None
    points: int

    def argv(self, seed: int) -> list[str]:
        if self.band is None:
            return [self.command]
        lo, hi = sweep_band(self.band, self.points, seed)
        return [self.command, "--min", repr(lo), "--max", repr(hi),
                "--points", str(self.points)]


# Why each workload exists is stated in BENCHMARK.json and bench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("sweep_wide", "transmission", (0.02, 2.25), 200),
    Workload("sweep_subbarrier", "tunnelling", (0.02, 0.44), 200),
    Workload("validate", "validate", None, 0),
)}


def sweep_band(band: tuple, points: int, seed: int) -> tuple[float, float]:
    """Grid ends for a seed: seed 0 is the band itself; any other seed shifts
    the grid by a fraction of one step and keeps it strictly inside the band."""
    lo, hi = band
    if seed == 0:
        return lo, hi
    u = 0.05 + 0.9 * random.Random(seed).random()
    step = (hi - lo) / (points - 1)
    return lo + u * step, hi - (1.0 - u) * step


def _sweep_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines or not lines[0].startswith("axis,T_solve,"):
        raise ValueError("sweep output has no CSV header")
    return [ln.split(",") for ln in lines[1:]]


def check_sweep(w: Workload, seed: int, text: str) -> tuple[int, int, list[str]]:
    """(rows attempted, rows flagged with an error, problems) of one output."""
    problems = []
    rows = _sweep_rows(text)
    lo, hi = sweep_band(w.band, w.points, seed)
    axis = [float(r[0]) for r in rows]
    if len(rows) != w.points:
        problems.append(f"{len(rows)} rows, expected {w.points}")
    elif axis[0] != lo or not math.isclose(axis[-1], hi, rel_tol=1e-14):
        problems.append(f"grid ends {axis[0]!r}..{axis[-1]!r}, expected {lo!r}..{hi!r}")
    if any(not a < b for a, b in zip(axis, axis[1:])):
        problems.append("grid not strictly increasing")
    failed = 0
    for r in rows:
        flags = [f for f in r[-1].split(";") if f and f != "resonance"]
        if flags:
            failed += 1
        elif not float(r[1]) > 0.0:
            problems.append(f"T_solve {r[1]} at E = {r[0]} is not positive")
    return len(rows), failed, problems


def oracle_deviation(text: str, seed: int) -> tuple[float, list[float]]:
    """Worst |T_solve / T_oracle - 1| over a seeded subsample of the rows.

    T_solve is read back from the 17-digit CSV; the oracle integrates the
    interior numerically and shares no kernel code with the closed form.
    """
    rows = [r for r in _sweep_rows(text) if not r[-1]]
    picked = sorted(random.Random(seed).sample(range(len(rows)),
                                               min(ORACLE_SAMPLE, len(rows))))
    u, mp, pp = make_units(), MassParams(), PotentialProfile()
    worst = 0.0
    energies = []
    for i in picked:
        E, t_solve = float(rows[i][0]), float(rows[i][1])
        energies.append(E)
        worst = max(worst, abs(t_solve / matched_transmission(E, mp, pp, u) - 1.0))
    return worst, energies


def check_validate(text: str, status: int) -> tuple[dict, list[str]]:
    """({suite: (worst, budget)}, problems) of one ``triq validate`` output."""
    problems = []
    suites = {}
    for line in text.splitlines():
        if line[:4] in ("PASS", "FAIL"):
            parts = line.split()
            worst, budget = float(parts[3]), float(parts[5])
            suites[parts[1]] = (worst, budget)
            if line[:4] == "FAIL" or not worst <= budget:
                problems.append(f"suite {parts[1]} failed: "
                                f"worst {worst:g} > {budget:g}")
    if status != 0:
        problems.append(f"triq validate exited {status}")
    if len(suites) != SUITE_COUNT:
        problems.append(f"{len(suites)} suites ran, expected {SUITE_COUNT}")
    if f"{SUITE_COUNT} of {SUITE_COUNT} suites passed" not in text:
        problems.append("summary line missing")
    return suites, problems


def check(w: Workload, seed: int, text: str,
          status: int) -> tuple[int, int, dict, list[str]]:
    """(items attempted, items failed, figures, problems) of one pass's output.

    Items are CSV rows for a sweep and suites for ``validate``.  The figures
    are ``oracle_dev``, the worst |T_solve / T_oracle - 1| (over a seeded
    row sample, or validate's transmission-agreement suite), and
    ``suite_margin``, the largest worst / budget over the run's checks.
    """
    if w.band is None:
        suites, problems = check_validate(text, status)
        if "transmission-agreement" not in suites:
            problems.append("transmission-agreement suite missing")
        failed = sum(1 for worst, budget in suites.values() if not worst <= budget)
        figures = {"oracle_dev": suites.get("transmission-agreement", (1.0,))[0],
                   "suite_margin": max((x / b for x, b in suites.values()),
                                       default=1.0),
                   "suites": suites}
        return len(suites), failed, figures, problems
    rows, failed, problems = check_sweep(w, seed, text)
    dev, energies = oracle_deviation(text, seed)
    if not dev <= ORACLE_BUDGET:
        problems.append(f"oracle_dev {dev:.3e} above {ORACLE_BUDGET:g}")
    figures = {"oracle_dev": dev, "suite_margin": dev / ORACLE_BUDGET,
               "oracle_energies_eV": energies}
    return rows, failed, figures, problems
