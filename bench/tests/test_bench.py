"""Tests of the benchmark's own machinery.

    python3 -m pytest -q bench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from triq import cli, scatter, special  # noqa: E402


def _bindings():
    holders = tracing._triq_modules() + [scatter.RegionIIBasis]
    return {(id(h), k): v for h in holders for k, v in vars(h).items()}


def test_wrappers_restore_every_attribute_even_when_a_pass_raises():
    before = _bindings()
    originals = {id(getattr(owner, attr)) for _, owner, attr in tracing._targets()}
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(tracer):
            # every binding of a traced function is patched, in every module
            still_original = [k for k, v in _bindings().items() if id(v) in originals]
            assert still_original == []
            assert special.kummer_m is not before[(id(special), "kummer_m")]
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("argv", [
    ["transmission", "--min", "1.9", "--max", "2.25", "--points", "5"],
    ["tunnelling", "--min", "0.02", "--max", "0.44", "--points", "5"],
    ["validate"],
])
def test_traced_output_is_byte_identical_to_untraced(argv):
    _, plain, plain_status = run.run_pass(argv)
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracing.root_span(tracer):
        _, traced, traced_status = run.run_pass(argv)
    assert len(tracer.start) > 1
    assert (traced, traced_status) == (plain, plain_status)


def _taken_branch(monkeypatch, fn, y):
    """The regime the Airy routine really takes at y, read from its helpers."""
    seen = []
    for helper in ("_airy_asym_pos", "_airy_series_pair", "_airy_march",
                   "_airy_asym_neg"):
        original = getattr(special, helper)

        def spy(*args, _name=helper, _fn=original):
            seen.append((_name, args[0]))
            return _fn(*args)
        monkeypatch.setattr(special, helper, spy)
    fn(y)
    monkeypatch.undo()
    names = [n for n, _ in seen]
    if "_airy_march" in names:
        return "march_pos" if y > 0 else "march_neg"
    return {"_airy_asym_pos": "asym_pos", "_airy_series_pair": "series",
            "_airy_asym_neg": "asym_neg"}[names[0]]


def test_airy_classifier_matches_the_branch_taken(monkeypatch):
    probes = [-12.0, -9.5, -9.4999, -6.0, -4.5, -4.4999, 0.0, 2.9, 3.0,
              3.0001, 5.0, 7.9999, 8.0, 11.0]
    for kind, fn in (("ai", special.airy_ai), ("bi", special.airy_bi)):
        for y in probes:
            assert tracing.airy_regime(y, kind) == _taken_branch(monkeypatch, fn, y)


def test_airy_classifier_reads_the_constants_of_special(monkeypatch):
    assert tracing.airy_regime(6.0, "ai") == "march_pos"
    monkeypatch.setattr(special, "_AIRY_ASYM_POS", 5.0)
    assert tracing.airy_regime(6.0, "ai") == "asym_pos"
    monkeypatch.setattr(special, "_AIRY_SERIES_HI_AI", 1.0)
    assert tracing.airy_regime(2.0, "ai") == "march_pos"
    monkeypatch.setattr(special, "_AIRY_SERIES_LO", -1.0)
    assert tracing.airy_regime(-2.0, "bi") == "march_neg"
    monkeypatch.setattr(special, "_AIRY_ASYM_NEG", -1.5)
    assert tracing.airy_regime(-2.0, "bi") == "asym_neg"


def _cli_grid(argv):
    args = cli._build_parser().parse_args(argv)
    return cli._grid(cli._load_config(args))


def test_seed_zero_is_the_roadmap_grid():
    w = workloads.WORKLOADS["sweep_wide"]
    assert w.argv(0) == ["transmission", "--min", "0.02", "--max", "2.25",
                         "--points", "200"]
    assert workloads.WORKLOADS["sweep_subbarrier"].argv(0)[1:5] == [
        "--min", "0.02", "--max", "0.44"]


@pytest.mark.parametrize("name", ["sweep_wide", "sweep_subbarrier"])
def test_nonzero_seed_moves_the_grid_inside_its_band(name):
    w = workloads.WORKLOADS[name]
    lo, hi = w.band
    step = (hi - lo) / (w.points - 1)
    base = _cli_grid(w.argv(0))
    for seed in (1, 2, 3, 17, 12345):
        grid = _cli_grid(w.argv(seed))
        assert len(grid) == w.points
        assert lo < grid[0] < lo + step
        assert hi - step < grid[-1] < hi
        assert grid != base


def test_self_time_is_span_minus_child_spans():
    tracer = tracing.Tracer()
    root = tracer.open(tracer.name_id(tracing.ROOT))
    kern = tracer.open(tracer.name_id("scatter.kernels"))
    series = tracer.open(tracer.name_id("special.kummer"))
    tracer.close(series, 1.0, 3.0)
    tracer.close(kern, 0.5, 4.0)
    tracer.close(root, 0.0, 10.0)
    m, _ = tracing.pass_metrics(tracer)
    assert m["special.self_s"] == 2.0
    assert m["scatter.self_s"] == 1.5
    assert m["cli.self_s"] == 6.5
    assert m["scatter.kernels.s"] == 3.5
    assert m["special.kummer.calls"] == 1


def test_validate_check_rejects_a_failing_suite():
    _, text, status = run.run_pass(["validate"])
    w = workloads.WORKLOADS["validate"]
    attempted, failed, figures, problems = workloads.check(w, 0, text, status)
    assert (attempted, failed, problems) == (11, 0, [])
    assert 0.0 < figures["suite_margin"] <= 1.0
    assert 0.0 < figures["oracle_dev"] <= workloads.ORACLE_BUDGET
    broken = text.replace("PASS", "FAIL", 1)
    assert workloads.check(w, 0, broken, 1)[3]


def test_sweep_check_counts_flagged_rows_and_catches_a_short_grid():
    w = workloads.Workload("tiny", "transmission", (0.1, 0.4), 4)
    _, text, _ = run.run_pass(w.argv(3))
    assert workloads.check_sweep(w, 3, text) == (4, 0, [])
    flagged = text.rstrip("\n") + "AccuracyError\n"
    assert workloads.check_sweep(w, 3, flagged)[:2] == (4, 1)
    short = text.rstrip("\n").rsplit("\n", 1)[0] + "\n"
    assert workloads.check_sweep(w, 3, short)[2]
    assert workloads.check_sweep(w, 4, text)[2]  # another seed's grid
