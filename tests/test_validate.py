"""Suite-runner tests: clean build passes, perturbed constants do not."""

import importlib.util
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

import triq.scatter
import triq.validate
from triq.errors import AccuracyError
from triq.special import AiryPair, gamma, recip_gamma
from triq.validate import info_lines, run_suites

ROOT = Path(__file__).resolve().parent.parent

# worst deviation of every suite, frozen by .hex(): validate prints four
# digits of each, too few to show a change in the last bits
FROZEN_WORST = {
    "airy-wronskian": "0x1.3c80000000000p-43",
    # airy-equation, kummer-derivative, interior-equation and
    # march-agreement judge by oracle marches and a contiguous relation;
    # by central differences, and march-agreement's 1e-3 nm pair, they gave
    # 0x1.3b5a27828baa9p-22 (2.9e-7), 0x1.89868e730cfd2p-22 (3.7e-7),
    # 0x1.045b480c93e7fp-22 (2.4e-7) and 0x1.120a0abc46432p-45 (3.0e-14)
    "airy-equation": "0x1.78b74f27cceb9p-46",
    "gamma-recurrence": "0x1.3000000000000p-47",
    "kummer-derivative": "0x1.ff7ffcf5a7706p-44",
    # the companion's continued fraction moved these three; the large-z
    # recurrence gave 0x1.bb3b5c60d2ce8p-52 (3.8e-16), 0x1.3c46800000000p-33
    # (1.4e-10) and 0x1.77bd340000000p-29 (2.7e-9)
    "tricomi-shift": "0x1.f0b1cc717eb4fp-48",
    "interior-coefficients": "0x1.c000000000000p-51",
    "interior-equation": "0x1.585172b9a6421p-43",
    "interior-wronskian": "0x1.2e80000000000p-44",
    "march-agreement": "0x1.7aeb1ea583eb1p-49",
    # the block solve moved this one; the equilibrated LU gave
    # 0x1.5a20000000000p-42 (3.074e-13)
    "transmission-agreement": "0x1.59a0000000000p-42",
    "bound-residuals": "0x1.8000000000000p-49",
}


def nan_ai_grid_at(exact, y_nan):
    """_airy_array with Ai and Ai' NaN at the one sample equal to y_nan."""
    def patched(y):
        grid = exact(y)
        hit = np.asarray(y) == y_nan
        assert hit.sum() == 1
        return grid._replace(ai=np.where(hit, math.nan, grid.ai),
                             aip=np.where(hit, math.nan, grid.aip))
    return patched


class TestSuites:
    def test_clean_build_passes_everything(self):
        results = run_suites()
        assert len(results) == 11
        for suite in results:
            assert suite.passed, f"{suite.name}: {suite.worst} > {suite.budget}"
            assert math.isfinite(suite.worst) and suite.worst >= 0.0
        assert {s.name: s.worst.hex() for s in results} == FROZEN_WORST

    def test_perturbed_airy_fails_wronskian_only(self, monkeypatch):
        # shift the suites' Ai values by 1e-8; nothing else may react
        exact = triq.validate._airy_array

        def perturbed(y):
            grid = exact(y)
            return grid._replace(ai=grid.ai + 1e-8)

        monkeypatch.setattr(triq.validate, "_airy_array", perturbed)
        results = {s.name: s for s in run_suites()}
        assert not results["airy-wronskian"].passed
        for name, suite in results.items():
            if name != "airy-wronskian":
                assert suite.passed

    def test_nan_airy_sample_fails_the_equation_suite(self, monkeypatch):
        # a NaN Ai at the last segment end, which only ends a march, and
        # at y = -1, which ends one and seeds the next (whose halving gate
        # then refuses): either fails airy-equation
        exact = triq.validate.airy_ai
        for y_nan in (2.0, -1.0):
            monkeypatch.setattr(
                triq.validate, "airy_ai",
                lambda y, y_nan=y_nan: (AiryPair(math.nan, math.nan)
                                        if y == y_nan else exact(y)))
            suite = triq.validate.suite_airy_equation()
            assert math.isnan(suite.worst), y_nan
            assert not suite.passed

    def test_relative_error_in_second_fails_the_interior_equation(
            self, monkeypatch):
        # a 1e-10 relative error in the companion's value alone reads
        # 5.7e-11 at the far end of its march, which no homogeneous
        # residual sees; a uniform factor on both would cancel
        second = triq.scatter.RegionIIBasis.second

        def planted(basis, ker):
            value, deriv = second(basis, ker)
            return value * (1.0 + 1e-10), deriv

        monkeypatch.setattr(triq.scatter.RegionIIBasis, "second", planted)
        suite = triq.validate.suite_interior_equation()
        assert suite.worst > 1e-11
        assert not suite.passed

    def test_parameter_error_in_kummer_fails_the_derivative(self, monkeypatch):
        # kummer_m off by a factor 1 + 1e-11 b reads 1.3e-10: the three
        # series of the relation take three different b
        exact = triq.validate.kummer_m
        monkeypatch.setattr(triq.validate, "kummer_m",
                            lambda b, c, z: exact(b, c, z) * (1.0 + 1e-11 * b))
        suite = triq.validate.suite_kummer_derivative()
        assert suite.worst > 1e-11
        assert not suite.passed

    def test_nan_airy_sample_fails_the_wronskian_suite(self, monkeypatch):
        # a NaN Ai near y = 0 among the 2001 samples; a max() fold that
        # drops it would report the clean 1.4e-13 and pass
        y_nan = -12.0 + 18.0 * 1333 / 2000.0  # the grid's sample at -0.003
        monkeypatch.setattr(triq.validate, "_airy_array",
                            nan_ai_grid_at(triq.validate._airy_array, y_nan))
        suite = triq.validate.suite_airy_wronskian()
        assert math.isnan(suite.worst)
        assert not suite.passed

    def test_nan_gamma_sample_fails_the_recurrence_suite(self, monkeypatch):
        # 1/Gamma NaN past x = 11.9, as the array marks a refused element:
        # the seeded draws reach that band, and a max() fold that drops
        # the NaN would pass at 8.4e-15
        exact = triq.validate._recip_gamma_array
        monkeypatch.setattr(triq.validate, "_recip_gamma_array",
                            lambda x: np.where(x > 11.9, math.nan, exact(x)))
        suite = triq.validate.suite_gamma_recurrence()
        assert math.isnan(suite.worst)
        assert not suite.passed

    def test_gamma_recurrence_is_the_scalar_loop(self):
        # the suite's array pass against the gamma() and recip_gamma()
        # loop it replaced: the same worst, to the bit
        rng = random.Random(7)
        deviations = []
        for _ in range(200):
            x = rng.uniform(0.05, 12.0)
            deviations.append(abs(gamma(x + 1.0) / (x * gamma(x)) - 1.0))
            deviations.append(abs(gamma(x) * recip_gamma(x) - 1.0))
        want = max(deviations)
        assert want.hex() == FROZEN_WORST["gamma-recurrence"]
        assert triq.validate.suite_gamma_recurrence().worst.hex() == want.hex()

    @pytest.mark.parametrize("ys, message", [
        # Bi's overflow at 120, not Ai's refusal of the later sample
        ([0.0, 120.0, -1e7], "airy_bi overflow at y=120.0"),
        # both refuse -1e7: Ai's call comes first
        ([0.0, -1e7], "airy_ai accuracy lost at y=-10000000.0, below "
                      "-1000000.0"),
    ])
    def test_refused_airy_sample_raises_the_scalar_loops_error(self, ys,
                                                               message):
        # the array marks each refused sample NaN; the scalar calls made
        # there raise what a loop of airy_ai, airy_bi calls raises first
        with pytest.raises(AccuracyError) as info:
            triq.validate._airy_grid(ys)
        assert str(info.value) == message

    def test_suite_names_are_stable(self):
        names = [s.name for s in run_suites()]
        assert names == [
            "airy-wronskian", "airy-equation", "gamma-recurrence",
            "kummer-derivative", "tricomi-shift", "interior-coefficients",
            "interior-equation", "interior-wronskian", "march-agreement",
            "transmission-agreement", "bound-residuals",
        ]


def bench_tracing():
    """bench/tracing.py, loaded from its file; bench/ is not a package."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchBindings:
    """The benchmark wraps functions by name; a name that no longer
    resolves stops its run."""

    def test_every_traced_function_resolves(self):
        for label, owner, attr in bench_tracing()._targets():
            assert callable(getattr(owner, attr, None)), (label, attr)

    def test_suite_functions_match_the_benchmark_metrics(self):
        # the tracer names a suite by its suite_* function; BENCHMARK.json
        # lists a validate.<suite>.s metric for each, read only here
        contract = json.loads((ROOT / "BENCHMARK.json").read_text(
            encoding="utf-8"))
        benched = {spec["name"][len("validate."):-len(".s")]
                   for spec in contract["per_layer"]
                   if spec["name"].startswith("validate.")
                   and spec["name"].endswith(".s")}
        benched.discard("info_lines")
        suites = set(bench_tracing().SUITES)
        assert suites == benched
        assert suites == {s.name for s in run_suites()}


class TestInfoLines:
    def test_documented_gaps_render(self):
        lines = info_lines()
        assert len(lines) >= 10
        assert all(isinstance(line, str) and line for line in lines)
        text = "\n".join(lines)
        # the headline numbers the gaps are known by
        assert "0.0625" in text
        assert "-0.29407" in text
        assert "sqrt(a1)" in text
