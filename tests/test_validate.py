"""Suite-runner tests: clean build passes, perturbed constants do not."""

import math

import numpy as np
import pytest

import triq.scatter
import triq.validate
from triq.errors import AccuracyError
from triq.validate import info_lines, run_suites

# worst deviation of every suite, frozen by .hex(): validate prints four
# digits of each, too few to show a change in the last bits
FROZEN_WORST = {
    "airy-wronskian": "0x1.3c80000000000p-43",
    "airy-equation": "0x1.3b5a27828baa9p-22",
    "gamma-recurrence": "0x1.3000000000000p-47",
    "kummer-derivative": "0x1.89868e730cfd2p-22",
    # the companion's continued fraction moved these three; the large-z
    # recurrence gave 0x1.bb3b5c60d2ce8p-52 (3.8e-16), 0x1.3c46800000000p-33
    # (1.4e-10) and 0x1.77bd340000000p-29 (2.7e-9)
    "tricomi-shift": "0x1.f0b1cc717eb4fp-48",
    "interior-coefficients": "0x1.c000000000000p-51",
    # numpy's libm moved this one; math's gave 0x1.04330c162c390p-22
    "interior-equation": "0x1.045b480c93e7fp-22",
    "interior-wronskian": "0x1.2e80000000000p-44",
    # the step-by-step march gave 0x1.f4b6b1a3dc08ep-48 (6.95e-15) and
    # 0x1.77ba780000000p-29; the product march rounds in another order
    "march-agreement": "0x1.0ea7f151a75ecp-45",
    "transmission-agreement": "0x1.41ba000000000p-38",
    "bound-residuals": "0x1.8000000000000p-49",
}


def nan_ai_at(exact, y_nan):
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

    def test_interior_equation_takes_one_grid_second(self, monkeypatch):
        # the companion solution over the suite's 7001 points is one
        # second() call on the grid kernels, never split into points
        calls = []
        second = triq.scatter.RegionIIBasis.second

        def spied(basis, ker):
            calls.append(len(ker.y))
            return second(basis, ker)

        monkeypatch.setattr(triq.scatter.RegionIIBasis, "second", spied)
        suite = triq.validate.suite_interior_equation()
        assert calls == [7001]
        assert suite.worst.hex() == FROZEN_WORST["interior-equation"]

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
        # one NaN Ai value among the 7001 samples of airy-equation makes
        # its residual report inconclusive, so the suite fails
        y_nan = -5.0 + 3500 * 1e-3  # the grid's sample at -1.5
        monkeypatch.setattr(triq.validate, "_airy_array",
                            nan_ai_at(triq.validate._airy_array, y_nan))
        suite = triq.validate.suite_airy_equation()
        assert suite.worst == math.inf
        assert not suite.passed

    def test_nan_airy_sample_fails_the_wronskian_suite(self, monkeypatch):
        # a NaN Ai near y = 0 among the 2001 samples; a max() fold that
        # drops it would report the clean 1.4e-13 and pass
        y_nan = -12.0 + 18.0 * 1333 / 2000.0  # the grid's sample at -0.003
        monkeypatch.setattr(triq.validate, "_airy_array",
                            nan_ai_at(triq.validate._airy_array, y_nan))
        suite = triq.validate.suite_airy_wronskian()
        assert math.isnan(suite.worst)
        assert not suite.passed

    def test_nan_gamma_sample_fails_the_recurrence_suite(self, monkeypatch):
        # gamma NaN past x = 11.9: the seeded draws reach that band, and
        # a max() fold that drops the NaN would pass at 8.4e-15
        exact = triq.validate.gamma
        monkeypatch.setattr(triq.validate, "gamma",
                            lambda x: math.nan if x > 11.9 else exact(x))
        suite = triq.validate.suite_gamma_recurrence()
        assert math.isnan(suite.worst)
        assert not suite.passed

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
