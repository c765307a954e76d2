"""Benchmark of triq: one workload, measured for a fixed time, one JSON result.

    python3 bench/run.py --workload sweep_wide --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; ``triq`` is imported from its
``src/`` and nowhere else.  One process, one thread (BLAS pinned to one),
one closed-loop caller of ``triq.cli.main``.

The timed loop runs untraced passes for ``--seconds``, each right after a
fixed pure-Python calibration loop.  With ``--trace 1`` every untraced
pass is followed by a traced one (see tracing.py); with ``--trace 0`` a
single traced pass after the loop gives the route mix.  Set-up time is
sampled in fresh interpreters between passes, spread over the run; peak
memory is read from one more fresh process after it, and then the outputs
are checked.

Every metric is printed as ``name value unit``; the last line is the
JSON result, holding the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0`` and its ``per_layer`` metrics with ``--trace 1``.  A full
record goes to ``bench/out/BENCH_<workload>_seed<seed>_trace<t>.json``.
Exit status is 0 when every check passes, 1 when one fails, 2 when the
benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 3
SETUP_RUNS = 11
CHILD_TIMEOUT_S = 60

_SETUP_CODE = ("import time, triq.cli; "
               "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))")
# VmHWM, not ru_maxrss: the latter keeps the spawning parent's peak across exec
_RSS_CODE = """
import contextlib, io, sys
from triq.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(ln.split()[1] for ln in fh if ln.startswith("VmHWM:")))
"""


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_triq():
    if not (SRC / "triq" / "cli.py").is_file():
        _fail(f"no triq sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import triq
    if SRC not in Path(triq.__file__).resolve().parents:
        _fail(f"imported triq from {triq.__file__}, not from {SRC}")
    return triq


def calibrate() -> float:
    """Seconds of a fixed float loop that does not touch triq."""
    t0 = time.perf_counter()
    x, y = 0.0, 1.0
    for _ in range(400_000):
        x = x * 0.999 + y * 1.0001
        y = y - x * 1e-7
    return time.perf_counter() - t0


def run_pass(argv: list[str]) -> tuple[float, str, int]:
    """(wall seconds, stdout text, exit status) of one ``triq.cli.main`` call."""
    from triq.cli import main
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        status = main(argv)
    return time.perf_counter() - t0, buf.getvalue(), status


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import as an installed user would
    return env


def _child(args: list[str]) -> str:
    done = subprocess.run([sys.executable, *args], env=_child_env(), cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    return done.stdout.strip().splitlines()[-1]


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter to ``import triq.cli`` done."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    return float(_child(["-c", _SETUP_CODE])) - t0


def measure_peak_rss_mb(argv: list[str]) -> float:
    """Peak resident memory of a fresh process running one pass."""
    return int(_child(["-c", _RSS_CODE, *argv])) / 1024.0


def machine_info(calibration_s: float) -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "calibration_s": calibration_s}


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads with triq
    _import_triq()
    import tracing
    import workloads

    w = workloads.WORKLOADS[args.workload]
    cmd = w.argv(args.seed)
    tracer = tracing.Tracer()
    walls, rels, cals, setup = [], [], [], []
    traced_walls, layer_samples, tx_times = [], [], []

    def traced_pass():
        tracer.clear()
        with tracing.installed(tracer), tracing.root_span(tracer):
            got = run_pass(cmd)
        m, tx = tracing.pass_metrics(tracer)
        layer_samples.append(m)
        tx_times.extend(tx)
        traced_walls.append(got[0])
        outputs.add(got[1:])

    _, ref_text, ref_status = run_pass(cmd)  # warm-up, and the reference
    outputs = {(ref_text, ref_status)}
    measure_setup()  # byte-compiles and warms the file cache
    start = time.perf_counter()
    while time.perf_counter() < start + args.seconds or len(walls) < MIN_PASSES:
        # set-up samples are spread over the run, between passes
        if time.perf_counter() >= start + len(setup) * args.seconds / SETUP_RUNS:
            setup.append(measure_setup())
        gc.collect()  # every pass starts from the same heap state
        cal = calibrate()
        wall, text, status = run_pass(cmd)
        walls.append(wall)
        cals.append(cal)
        rels.append(wall / cal)
        outputs.add((text, status))
        if args.trace:
            traced_pass()
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"SPANS_{w.name}_seed{args.seed}.tsv.gz"))
    else:
        traced_pass()  # the route mix, outside the timed loop
    while len(setup) < SETUP_RUNS:
        setup.append(measure_setup())

    why = next(x["why"] for x in contract["workloads"] if x["name"] == w.name)
    record = {"workload": w.name, "why": why, "seed": args.seed,
              "argv": ["triq", *cmd], "seconds": args.seconds,
              "trace": args.trace, "passes": len(walls),
              "traced_passes": len(traced_walls),
              "output_sha256": hashlib.sha256(ref_text.encode()).hexdigest()}
    if w.band is None:
        record["seed_note"] = "validate has no inputs; the seed is ignored"
    attempted, failed, figures, problems = workloads.check(
        w, args.seed, ref_text, ref_status)
    if len(outputs) != 1:
        problems.append(f"passes gave {len(outputs)} different outputs")
    record.update(figures)
    record["setup_samples_s"] = setup

    median = statistics.median
    values = {"wall_rel": median(rels),
              "setup_s": median(setup),
              "peak_rss_mb": measure_peak_rss_mb(cmd),
              "wall_s": median(walls),
              "failed_frac": failed / attempted if attempted else 1.0,
              "oracle_dev": figures["oracle_dev"],
              "suite_margin": figures["suite_margin"]}
    for key in layer_samples[0]:  # a pass's value, so counts stay whole
        values[key] = statistics.median_low(s[key] for s in layer_samples)
    values["scatter.transmission.p50_ms"] = tracing.percentile_ms(tx_times, 50)
    values["scatter.transmission.p95_ms"] = tracing.percentile_ms(tx_times, 95)
    values["trace.overhead"] = median(traced_walls) / median(walls) - 1.0
    record["transmission_samples"] = len(tx_times)
    record["machine"] = machine_info(median(cals))
    record["route_mix"] = {k: v for k, v in values.items()
                           if k.startswith("special.airy.") and k.endswith(".calls")
                           or k in ("special.kummer.dd.calls",
                                    "scatter.recurrence_attempts")}

    metrics = {}
    for group in ("end_to_end", "per_layer"):
        metrics[group] = {}
        for spec in contract[group]:
            name = spec["name"]
            if name not in values:
                _fail(f"BENCHMARK.json names {name!r}, which the run does not produce")
            metrics[group][name] = {"value": values[name], "unit": spec["unit"]}
            print(f"{name} {values[name]!r} {spec['unit']}")
    record["metrics"] = metrics
    record["problems"] = problems
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{w.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for p in problems:
        print(f"check failed: {p}")
    print(json.dumps({"correct": not problems,
                      "attempted": attempted * len(walls),
                      "failed": failed * len(walls),
                      "metrics": metrics["per_layer" if args.trace else "end_to_end"]}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
