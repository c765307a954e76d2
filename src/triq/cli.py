"""Command-line front end: flat-file config, deterministic sweeps, reports.

Four commands: transmission and tunnelling emit CSV sweeps, bound emits
a spectrum report, validate runs the invariant suites.  One flag per
RunConfig field, named after it.  Output is byte
deterministic: 17-significant-digit floats, fixed key order, no
timestamps, and a git-style content hash of the effective configuration in
the header so a file can be traced back to its exact inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from typing import Union

try:
    # the interpreter's built-in SHA-1 gives the same bits without loading
    # OpenSSL's libcrypto, several MB of resident memory for one short digest
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1

from .bound import spectrum, table1_report
from .errors import DomainError, TriqError, require_finite
from .model import KINDS, MassParams, PotentialProfile, make_units
from .scatter import AXES, FIDELITY_MODES, SweepTable, sweep
from .validate import info_lines, run_suites

CSV_HEADER = "axis,T_solve,T_paper,t1,t2,b1,b2,b3,b4,b5,residual,flags"


@dataclass(frozen=True)
class RunConfig:
    V0_eV: float = PotentialProfile.V0
    alpha_eV_per_nm: Union[float, str] = "auto"  # "auto" resolves to V0/a
    a_nm: float = PotentialProfile.a
    kind: str = PotentialProfile.kind
    M0_m0: float = MassParams.M0
    M1_m0_per_nm: float = MassParams.M1
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


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}

# the keys with a closed set of values, checked by the flags and by
# validate_config
_CHOICES = {"kind": KINDS, "axis": AXES, "paper_fidelity": FIDELITY_MODES}

# extra spellings of a flag, beside the config key itself
_ALIASES = {"paper_fidelity": ("--paper-fidelity",)}


# every float the reports print: 17 significant digits, enough to read the
# double back exactly
_FLOAT = "%.17g"


def _fmt(v) -> str:
    if isinstance(v, float):
        return _FLOAT % v
    return str(v)


def _coerce(name: str, raw):
    """raw as the type of the field's default; "auto" stands for a float."""
    default = _DEFAULTS[name]
    if default == "auto":  # resolved later, see RunConfig.resolved_alpha
        return raw if raw == "auto" else float(raw)
    return type(default)(raw)


def render(config: RunConfig) -> str:
    lines = []
    for field in dataclasses.fields(config):
        lines.append(f"{field.name} = {_fmt(getattr(config, field.name))}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> RunConfig:
    got = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DomainError(f"config line {lineno}: expected key = value")
        key = key.strip()
        if key not in _DEFAULTS:
            raise DomainError(f"config line {lineno}: unknown key {key!r}")
        try:
            got[key] = _coerce(key, value.strip())
        except ValueError:
            raise DomainError(f"config line {lineno}: bad value for {key!r}")
    return RunConfig(**got)


def validate_config(config: RunConfig) -> None:
    for name, choices in _CHOICES.items():
        value = getattr(config, name)
        if value not in choices:
            raise DomainError(f"{name} must be one of {choices}, got {value!r}")
    if config.points < 1:
        raise DomainError(f"points must be >= 1, got {config.points}")
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, float):
            require_finite(field.name, value)
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
    return sha1(b"blob %d\0" % len(body) + body).hexdigest()


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
    mass_zero = MassParams(M0=config.M0_m0, M1=config.M1_m0_per_nm).mass_zero_nm
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


# the 11 numeric columns as _fmt prints a float, then the flags
_CSV_ROW = (_FLOAT + ",") * 11


def _csv_rows(values: list[float], table: SweepTable) -> list[str]:
    """The CSV rows of a sweep from its grid values and its table, read as
    Python floats a column at a time.  b5 is 1 on a solved row; a refused
    row is NaN in every numeric column, b5 included, and flagged with its
    error's class name."""
    b5 = [1.0 if exc is None else math.nan for exc in table.refusal]
    flags = ["" if exc is None else type(exc).__name__ for exc in table.refusal]
    columns = zip(values, table.T_solve.tolist(), table.T_paper.tolist(),
                  table.t1.tolist(), table.t2.tolist(), *table.b.T.tolist(),
                  b5, table.residual.tolist())
    return [_CSV_ROW % nums + flag for nums, flag in zip(columns, flags)]


def _sweep_report(config: RunConfig, name: str, clip: bool = False) -> str:
    """CSV report of a barrier sweep; clip keeps its energies 0 < E < V0."""
    if config.kind != "barrier":
        raise DomainError(f"{name} sweeps need kind = barrier")
    lines = _metadata(config, f"{name} sweep")
    values = full = _grid(config)
    if clip:
        if config.axis != "E":
            raise DomainError(f"{name} is defined on the energy axis only")
        values = [e for e in full if 0.0 < e < config.V0_eV]
        if not values:
            raise DomainError("no grid points fall inside 0 < E < V0")
        lines.append(f"# note: {name} is read here as the sub-barrier branch "
                     "of the transmission; grid clipped to 0 < E < V0, keeping "
                     f"{len(values)} of {len(full)} points")
    u, mp, pp = _physics(config)
    auto = config.alpha_eV_per_nm == "auto" and config.axis in ("V0", "a")
    table = sweep(config.axis, values, mp, pp, u, E=config.E_eV,
                  fidelity=config.paper_fidelity, auto_alpha=auto)
    lines.append(CSV_HEADER)
    lines.extend(_csv_rows(values, table))
    return "\n".join(lines) + "\n"


def cmd_transmission(config: RunConfig) -> str:
    return _sweep_report(config, "transmission")


def cmd_tunnelling(config: RunConfig) -> str:
    return _sweep_report(config, "tunnelling", clip=True)


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


# the report commands main dispatches; validate takes no config
_COMMANDS = {"transmission": cmd_transmission, "tunnelling": cmd_tunnelling,
             "bound": cmd_bound}


@functools.cache  # built on first use; parse_args leaves a parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triq",
        description="triangular-profile quantum transmission and bound states")
    parser.add_argument("command", choices=(*_COMMANDS, "validate"))
    parser.add_argument("--config", metavar="PATH",
                        help="flat key = value file; flags override it")
    for field in dataclasses.fields(RunConfig):
        cast = type(field.default)
        parser.add_argument(f"--{field.name}", *_ALIASES.get(field.name, ()),
                            type=None if cast is str else cast,
                            choices=_CHOICES.get(field.name),
                            help=f"default {field.default!r}")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = parse(fh.read())
    else:
        config = RunConfig()
    overrides = {}
    for name in _DEFAULTS:
        value = getattr(args, name)
        if value is not None:
            try:
                overrides[name] = _coerce(name, value)
            except ValueError:
                raise DomainError(f"bad value for {name!r}: {value!r}")
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
        _emit(_COMMANDS[args.command](config), config.out)
    except (TriqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
