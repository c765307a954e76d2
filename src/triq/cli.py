"""Command-line front end: flat-file config, deterministic sweeps, reports.

Four subcommands: transmission and tunnelling emit CSV sweeps, bound emits
a spectrum report, validate runs the invariant suites.  Output is byte
deterministic: 17-significant-digit floats, fixed key order, no
timestamps, and a git-style content hash of the effective configuration in
the header so a file can be traced back to its exact inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys
from dataclasses import dataclass
from typing import Union

from .bound import spectrum, table1_report
from .errors import DomainError, TriqError
from .model import KINDS, MassParams, PotentialProfile, make_units
from .scatter import AXES, FIDELITY_MODES, sweep
from .validate import info_lines, run_suites

CSV_HEADER = "axis,T_solve,T_paper,t1,t2,b1,b2,b3,b4,b5,residual,flags"


@dataclass(frozen=True)
class RunConfig:
    V0_eV: float = 0.45
    alpha_eV_per_nm: Union[float, str] = "auto"  # "auto" resolves to V0/a
    a_nm: float = 7.0
    kind: str = "barrier"
    M0_m0: float = 0.067
    M1_m0_per_nm: float = 0.067
    E_eV: float = 0.1  # fixed energy for V0- and a-axis sweeps
    axis: str = "E"
    min: float = 0.02
    max: float = 1.0
    points: int = 200
    paper_fidelity: str = "none"
    out: str = ""  # empty writes to stdout

    @property
    def resolved_alpha(self) -> float:
        if self.alpha_eV_per_nm == "auto":
            return self.V0_eV / self.a_nm
        return self.alpha_eV_per_nm


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _coerce(name: str, raw: str):
    if name in ("kind", "axis", "paper_fidelity", "out"):
        return raw
    if name == "points":
        return int(raw)
    if name == "alpha_eV_per_nm" and raw == "auto":
        return raw
    return float(raw)


def render(config: RunConfig) -> str:
    lines = []
    for field in dataclasses.fields(config):
        lines.append(f"{field.name} = {_fmt(getattr(config, field.name))}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> RunConfig:
    names = {f.name for f in dataclasses.fields(RunConfig)}
    got = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DomainError(f"config line {lineno}: expected key = value")
        key = key.strip()
        if key not in names:
            raise DomainError(f"config line {lineno}: unknown key {key!r}")
        try:
            got[key] = _coerce(key, value.strip())
        except ValueError:
            raise DomainError(f"config line {lineno}: bad value for {key!r}")
    return RunConfig(**got)


def validate_config(config: RunConfig) -> None:
    if config.kind not in KINDS:
        raise DomainError(f"kind must be one of {KINDS}, got {config.kind!r}")
    if config.axis not in AXES:
        raise DomainError(f"axis must be one of {AXES}, got {config.axis!r}")
    if config.paper_fidelity not in FIDELITY_MODES:
        raise DomainError(f"paper_fidelity must be one of {FIDELITY_MODES}, "
                          f"got {config.paper_fidelity!r}")
    if config.points < 1:
        raise DomainError(f"points must be >= 1, got {config.points}")
    if config.points > 1 and not config.min < config.max:
        raise DomainError("min must be below max for a multi-point sweep")
    for name in ("V0_eV", "a_nm", "M0_m0", "M1_m0_per_nm"):
        if not getattr(config, name) > 0.0:
            raise DomainError(f"{name} must be positive")
    if config.alpha_eV_per_nm != "auto" and not config.alpha_eV_per_nm > 0.0:
        raise DomainError("alpha_eV_per_nm must be positive or 'auto'")


def config_hash(config: RunConfig) -> str:
    # identifies what is computed, not where it lands: the output path is
    # normalized away so reruns to different files stay byte-identical
    body = render(dataclasses.replace(config, out="")).encode()
    return hashlib.sha1(b"blob %d\0" % len(body) + body).hexdigest()


def _grid(config: RunConfig) -> list[float]:
    if config.points == 1:
        return [config.min]
    span = config.max - config.min
    return [config.min + span * i / (config.points - 1)
            for i in range(config.points)]


def _physics(config: RunConfig):
    u = make_units()
    mp = MassParams(M0=config.M0_m0, M1=config.M1_m0_per_nm)
    pp = PotentialProfile(V0=config.V0_eV, alpha=config.resolved_alpha,
                          a=config.a_nm, kind=config.kind)
    return u, mp, pp


def _metadata(config: RunConfig, title: str) -> list[str]:
    mass_zero = (config.M0_m0 / config.M1_m0_per_nm
                 if config.M1_m0_per_nm > 0.0 else math.inf)
    auto = " (auto)" if config.alpha_eV_per_nm == "auto" else ""
    return [
        f"# {title}",
        f"# config sha1 {config_hash(config)}",
        f"# V0_eV = {_fmt(config.V0_eV)}; alpha_eV_per_nm = "
        f"{_fmt(config.resolved_alpha)}{auto}; a_nm = {_fmt(config.a_nm)}; "
        f"kind = {config.kind}",
        f"# M0_m0 = {_fmt(config.M0_m0)}; M1_m0_per_nm = "
        f"{_fmt(config.M1_m0_per_nm)}; mass zero x* = {_fmt(mass_zero)} nm",
        f"# axis = {config.axis}; min = {_fmt(config.min)}; max = "
        f"{_fmt(config.max)}; points = {config.points}; E_eV = "
        f"{_fmt(config.E_eV)}; paper_fidelity = {config.paper_fidelity}",
    ]


def _csv_rows(rows) -> list[str]:
    out = []
    for row in rows:
        if row.result is None:
            nums = [row.axis_value] + [math.nan] * 10
        else:
            r = row.result
            s = r.solution
            nums = [row.axis_value, r.T_solve, r.T_paper, r.t1, r.t2,
                    s.b1, s.b2, s.b3, s.b4, s.b5, r.residual]
        out.append(",".join(_fmt(float(v)) for v in nums)
                   + "," + ";".join(row.flags))
    return out


def _run_sweep(config: RunConfig, values: list[float]):
    u, mp, pp = _physics(config)
    auto = config.alpha_eV_per_nm == "auto" and config.axis in ("V0", "a")
    return sweep(config.axis, values, mp, pp, u, E=config.E_eV,
                 fidelity=config.paper_fidelity, auto_alpha=auto)


def cmd_transmission(config: RunConfig) -> str:
    if config.kind != "barrier":
        raise DomainError("transmission sweeps need kind = barrier")
    rows = _run_sweep(config, _grid(config))
    lines = _metadata(config, "transmission sweep")
    lines.append(CSV_HEADER)
    lines.extend(_csv_rows(rows))
    return "\n".join(lines) + "\n"


def cmd_tunnelling(config: RunConfig) -> str:
    if config.kind != "barrier":
        raise DomainError("tunnelling sweeps need kind = barrier")
    if config.axis != "E":
        raise DomainError("tunnelling is defined on the energy axis only")
    full = _grid(config)
    values = [e for e in full if 0.0 < e < config.V0_eV]
    if not values:
        raise DomainError("no grid points fall inside 0 < E < V0")
    rows = _run_sweep(config, values)
    lines = _metadata(config, "tunnelling sweep")
    lines.append("# note: tunnelling is read here as the sub-barrier branch "
                 "of the transmission; grid clipped to 0 < E < V0, keeping "
                 f"{len(values)} of {len(full)} points")
    lines.append(CSV_HEADER)
    lines.extend(_csv_rows(rows))
    return "\n".join(lines) + "\n"


def cmd_bound(config: RunConfig) -> str:
    if config.kind != "well":
        raise DomainError("bound states need kind = well (pass --kind well)")
    u, mp, pp = _physics(config)
    levels = spectrum(mp, pp, u)
    lines = _metadata(config, "bound-state report")
    lines.append(f"count = {len(levels) - 1}")
    lines.append("n,E_n_eV,residual,below_zero")
    for lev in levels:
        lines.append(f"{lev.n},{_fmt(lev.E_n)},{_fmt(lev.residual)},"
                     f"{'true' if lev.below_zero else 'false'}")
    lines.append("# comparison against the published table (lowest levels);")
    lines.append("# the unit reading behind the published values is "
                 "unresolved, so gaps are reported, not fitted away")
    lines.append("n,computed_eV,published_eV,gap_eV,reference_eV,gap_eV")
    for row in table1_report(mp, pp, u):
        # published columns are printed decimals, not computed doubles;
        # shortest repr keeps them readable as given
        lines.append(f"{row.level.n},{_fmt(row.level.E_n)},"
                     f"{row.published_eV!r},{_fmt(row.gap_published)},"
                     f"{row.reference_eV!r},{_fmt(row.gap_reference)}")
    return "\n".join(lines) + "\n"


def cmd_validate() -> tuple[str, int]:
    suites = run_suites()
    lines = []
    for s in suites:
        tag = "PASS" if s.passed else "FAIL"
        lines.append(f"{tag}  {s.name:24s} worst {s.worst:.3e}  "
                     f"budget {s.budget:.1e}")
    for line in info_lines():
        lines.append(f"INFO  {line}")
    failed = sum(1 for s in suites if not s.passed)
    lines.append(f"{len(suites) - failed} of {len(suites)} suites passed")
    return "\n".join(lines) + "\n", 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="flat key = value file; flags override it")
    common.add_argument("--out", metavar="PATH")
    common.add_argument("--axis", choices=AXES)
    common.add_argument("--min", type=float)
    common.add_argument("--max", type=float)
    common.add_argument("--points", type=int)
    common.add_argument("--paper_fidelity", "--paper-fidelity",
                        choices=FIDELITY_MODES)
    common.add_argument("--V0_eV", type=float)
    common.add_argument("--alpha_eV_per_nm", metavar="EV_PER_NM|auto")
    common.add_argument("--a_nm", type=float)
    common.add_argument("--kind", choices=KINDS)
    common.add_argument("--M0_m0", type=float)
    common.add_argument("--M1_m0_per_nm", type=float)
    common.add_argument("--E_eV", type=float)
    parser = argparse.ArgumentParser(
        prog="triq",
        description="triangular-profile quantum transmission and bound states")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("transmission", "tunnelling", "bound", "validate"):
        sub.add_parser(name, parents=[common])
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = parse(fh.read())
    else:
        config = RunConfig()
    overrides = {}
    for field in dataclasses.fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            overrides[field.name] = _coerce(field.name, value)
    config = dataclasses.replace(config, **overrides)
    validate_config(config)
    return config


def _emit(text: str, out: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            text, status = cmd_validate()
            _emit(text, args.out or "")
            return status
        config = _load_config(args)
        command = {"transmission": cmd_transmission,
                   "tunnelling": cmd_tunnelling,
                   "bound": cmd_bound}[args.command]
        _emit(command(config), config.out)
    except (TriqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
