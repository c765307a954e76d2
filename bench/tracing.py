"""Span tracing of the triq layers, done from outside the package.

Wrappers are installed over module and class attributes for the length of
one ``installed`` block and restored when it ends, also when the traced
code raises.  A function is patched in every ``triq`` module that binds
it, because ``scatter``, ``oracle`` and ``validate`` import kernels with
``from .special import ...`` and would otherwise keep calling the
original.  The sources under ``src/`` are never touched.

Each call of a wrapped function records one span (name, start, end,
parent) in flat arrays; ``pass_metrics`` turns the spans of one pass into
call counts, inclusive times and self times (span minus child spans).
"""

from __future__ import annotations

import gzip
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from triq import bound, oracle, scatter, special, validate

ROOT = "cli.pass"
LAYERS = ("cli", "special", "scatter", "oracle", "validate", "bound")
AIRY_REGIMES = ("series", "march_pos", "march_neg", "asym_pos", "asym_neg")
SUITES = tuple(name[len("suite_"):].replace("_", "-")
               for name in dir(validate) if name.startswith("suite_"))


def airy_regime(y: float, kind: str) -> str:
    """Branch ``special.airy_ai`` (kind "ai") or ``airy_bi`` ("bi") takes at y.

    Reads the boundaries from ``special`` at every call, so the classifier
    follows any change to them.
    """
    if y >= special._AIRY_ASYM_POS:
        return "asym_pos"
    if kind == "ai" and y > special._AIRY_SERIES_HI_AI:
        return "march_pos"
    if y >= special._AIRY_SERIES_LO:
        return "series"
    if y > special._AIRY_ASYM_NEG:
        return "march_neg"
    return "asym_neg"


def _targets():
    """(span name or Airy kind, owner, attribute) for every traced function."""
    out = [
        ("scatter.sweep", scatter, "sweep"),
        ("scatter.transmission", scatter, "transmission"),
        ("scatter.assemble", scatter, "assemble_matching"),
        ("scatter.solve", scatter, "solve_matching"),
        ("scatter.paper_form", scatter, "_paper_closed_form"),
        ("scatter.kernels", scatter.RegionIIBasis, "kernels"),
        ("scatter.second", scatter.RegionIIBasis, "second"),
        ("special.kummer_m", special, "kummer_m"),
        ("special.kummer_m_regularized", special, "kummer_m_regularized"),
        ("special.kummer", special, "_kummer_series"),
        ("special.kummer.dd", special, "_kummer_series_dd"),
        ("special.tricomi_large_z", special, "tricomi_u_large_z"),
        ("special.recip_gamma", special, "recip_gamma"),
        ("special.gamma", special, "gamma"),
        ("ai", special, "airy_ai"),
        ("bi", special, "airy_bi"),
        ("oracle.matched", oracle, "matched_transmission"),
        ("oracle.integrate", oracle, "integrate"),
        ("oracle.march", oracle, "_march"),
        ("oracle.ode_residual", oracle, "ode_residual"),
        ("bound.energy_level", bound, "energy_level"),
        ("validate.run_suites", validate, "run_suites"),
        ("validate.info_lines", validate, "info_lines"),
    ]
    out += [(f"validate.{suite}", validate, "suite_" + suite.replace("-", "_"))
            for suite in SUITES]
    return out


class Tracer:
    """Spans of the current pass, kept in memory until ``clear``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.rk4_steps = 0

    def clear(self) -> None:
        # cleared in place: the installed wrappers hold these arrays
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        del self.stack[1:]
        self.rk4_steps = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def close(self, i: int, t0: float, t1: float) -> None:
        self.stack.pop()
        self.start[i] = t0
        self.end[i] = t1

    def wrap(self, fn, label: str):
        """Wrapper recording one span per call of fn."""
        open_, close = self.open, self.close
        if label in ("ai", "bi"):
            ids = {r: self.name_id(f"special.airy.{r}") for r in AIRY_REGIMES}

            def traced(y, *args, **kwargs):
                i = open_(ids[airy_regime(y, label)])
                t0 = perf_counter()
                try:
                    return fn(y, *args, **kwargs)
                finally:
                    close(i, t0, perf_counter())
            return traced
        nid = self.name_id(label)
        if label == "oracle.march":
            march = fn

            def fn(x0, x1, n, *args, **kwargs):
                self.rk4_steps += n  # n RK4 steps from x0 to x1
                return march(x0, x1, n, *args, **kwargs)

        def traced(*args, **kwargs):
            i = open_(nid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(i, t0, perf_counter())
        return traced

    def write(self, path: str) -> None:
        """Spans of the current pass as gzip TSV, times relative to its start."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def _triq_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "triq" or n.startswith("triq."))]


@contextmanager
def installed(tracer: Tracer):
    """Patch every binding of every traced function; restore on exit."""
    saved = []
    try:
        for label, owner, attr in _targets():
            original = getattr(owner, attr)
            wrapper = tracer.wrap(original, label)
            holders = [owner] + [m for m in _triq_modules() if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        saved.append((holder, key, original))
                        setattr(holder, key, wrapper)
        yield tracer
    finally:
        for holder, key, original in reversed(saved):
            setattr(holder, key, original)


@contextmanager
def root_span(tracer: Tracer):
    i = tracer.open(tracer.name_id(ROOT))
    t0 = perf_counter()
    try:
        yield
    finally:
        tracer.close(i, t0, perf_counter())


def pass_metrics(tracer: Tracer) -> tuple[dict, list[float]]:
    """Per-layer metrics of one traced pass, and its transmission times (s)."""
    names = tracer.names
    n = len(tracer.start)
    nid = tracer.name_id
    tx, series, tricomi, second = (nid("scatter.transmission"),
                                   nid("special.kummer"),
                                   nid("special.tricomi_large_z"),
                                   nid("scatter.second"))
    calls = Counter()
    incl = defaultdict(float)
    own = defaultdict(float)
    child = [0.0] * n
    inside_tx = bytearray(n)
    series_in_tx = 0
    recurrence = 0
    tx_times = []
    for i in range(n):  # parents are opened before their children
        p = tracer.parent[i]
        k = tracer.name[i]
        inside_tx[i] = k == tx or (p >= 0 and inside_tx[p])
        if k == series and inside_tx[i]:
            series_in_tx += 1
        if k == tricomi and p >= 0 and tracer.name[p] == second:
            recurrence += 1
    for i in range(n - 1, -1, -1):  # children are settled before parents
        d = tracer.end[i] - tracer.start[i]
        p = tracer.parent[i]
        if p >= 0:
            child[p] += d
        k = tracer.name[i]
        calls[k] += 1
        incl[k] += d
        own[k] += d - child[i]
        if k == tx:
            tx_times.append(d)

    def c(name):
        return calls[nid(name)]

    def s(name):
        return incl[nid(name)]

    m = {}
    kummer, dd = c("special.kummer"), c("special.kummer.dd")
    m["special.kummer.calls"] = kummer
    m["special.kummer.s"] = s("special.kummer")
    m["special.kummer.dd.calls"] = dd
    m["special.kummer.dd.s"] = s("special.kummer.dd")
    m["special.kummer.plain_kept"] = (kummer - dd) / kummer if kummer else 0.0
    for r in AIRY_REGIMES:
        m[f"special.airy.{r}.calls"] = c(f"special.airy.{r}")
        m[f"special.airy.{r}.s"] = s(f"special.airy.{r}")
    m["special.tricomi_large_z.calls"] = c("special.tricomi_large_z")
    m["special.recip_gamma.calls"] = c("special.recip_gamma")
    transmissions = c("scatter.transmission")
    m["scatter.kummer_per_point"] = (series_in_tx / transmissions
                                     if transmissions else 0.0)
    m["scatter.kernels.calls"] = c("scatter.kernels")
    for short in ("kernels", "paper_form", "assemble", "solve", "second"):
        m[f"scatter.{short}.s"] = s(f"scatter.{short}")
    m["scatter.recurrence_attempts"] = recurrence
    m["scatter.transmission.calls"] = transmissions
    m["oracle.matched.calls"] = c("oracle.matched")
    m["oracle.matched.s"] = s("oracle.matched")
    m["oracle.integrate.calls"] = c("oracle.integrate")
    m["oracle.integrate.s"] = s("oracle.integrate")
    m["oracle.rk4_steps"] = tracer.rk4_steps
    for suite in SUITES:
        m[f"validate.{suite}.s"] = s(f"validate.{suite}")
    m["validate.info_lines.s"] = s("validate.info_lines")
    m["bound.energy_level.calls"] = c("bound.energy_level")
    m["bound.energy_level.s"] = s("bound.energy_level")
    layer_self = defaultdict(float)
    for k, t in own.items():
        layer_self[names[k].split(".", 1)[0]] += t
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m, tx_times


def percentile_ms(times: list[float], q: int) -> float:
    """q-th percentile of durations in seconds, in ms (0.0 for no samples)."""
    if not times:
        return 0.0
    if len(times) == 1:
        return times[0] * 1e3
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1e3
