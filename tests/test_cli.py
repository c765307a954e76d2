"""CLI tests: golden schema, byte determinism, config plumbing, error rows."""

import dataclasses
import hashlib
import math
import random
import sys

import numpy as np
import pytest

import triq.scatter
from triq.cli import (
    _CSV_ROW,
    CSV_HEADER,
    _build_parser,
    _coerce,
    _fmt,
    _load_config,
    RunConfig,
    cmd_transmission,
    config_hash,
    main,
    parse,
    render,
    validate_config,
)
from triq.errors import DomainError

from test_special import run_python

SMALL = ["--min", "0.05", "--max", "0.3", "--points", "5"]


def data_rows(text):
    lines = text.splitlines()
    start = lines.index(CSV_HEADER) + 1
    return [line.split(",") for line in lines[start:] if not line.startswith("#")]


def _golden(argv, digest):
    """One pinned run; its test id is the argv alone, so a re-pin keeps it."""
    return pytest.param(argv, digest, id=argv)


class TestGolden:
    def test_header_is_pinned(self):
        assert CSV_HEADER == "axis,T_solve,T_paper,t1,t2,b1,b2,b3,b4,b5,residual,flags"

    def test_header_emitted_once(self):
        text = cmd_transmission(RunConfig(points=1, min=0.1))
        assert text.count(CSV_HEADER) == 1

    # The companion solution's continued fraction moved every digest here
    # whose runs take second() (all but t2, all and the refused 3.9 eV);
    # the large-z recurrence gave, in order: f25c8831..., 7c77c72e...,
    # 16b21d9a..., ef100e50..., fc758e65..., 9fe9fce9..., b19dcbaa... and
    # validate 28fddb6d...
    # numpy's exp, log and roots in place of the C library's moved every
    # digest but the two one-point runs, at rounding level; math's gave, in
    # order: a01b8571..., db5c0645..., c44fb6e2... (both spellings),
    # 3f4c3c29..., 2798dc82..., b0015c53..., 85064be0..., 48c77af0... and
    # validate 488dba1a... (interior-equation worst 2.423e-07)
    # The block solve (two 2x2 Cramer solves in place of the equilibrated
    # LU) moved b1..b4, T_solve and residual at rounding level in every
    # run that solves a row, all but the refused 3.9 eV point; T_paper,
    # t1, t2 and the flags kept their bytes.  The LU gave, in order:
    # 389876af..., 9eba2f7d..., 8b0451c6... (both spellings), 61896033...,
    # 7bab8802..., 7a7f26c9..., d10f5624..., 2749e156..., cd844587...,
    # 3b92864c..., 031a60c9..., ee5d74f6... and validate 160dec2f...
    # (transmission-agreement worst 3.074e-13)
    # Solving from the four brackets, with the Airy columns unscaled and
    # det0 = k/pi, and the residual's row sums left to right in place of
    # BLAS dots, moved b1..b4, T_solve and residual again at rounding
    # level, in the same runs; T_paper, t1, t2, the flags and validate
    # kept their bytes.  The 4x4 Cramer stack gave, in order:
    # de0727d6..., 00afa99b..., db405406... (both spellings), 4eee4ee8...,
    # c025a8ee..., 8a60d1d5..., 4d654f7b..., 00fbca87..., 8dd73aa1...,
    # 3ce045d1..., 468c17d4... and 88de55fd...
    @pytest.mark.parametrize("argv, digest", [
        _golden("transmission --min 0.02 --max 2.25 --points 200",
                "d0e22d48b25404dcfaab4cdfbfd8f142faae4506267d5b389a191f03a7913961"),
        # the printed-column modes: rows near a b1 zero print the finite
        # (1/b1)^2, up to 1.5e44, unflagged
        _golden("transmission --min 0.02 --max 2.25 --points 200 --paper-fidelity t2",
                "53bc791333d70ac9758440a583c0a483c41154790c396587ee5d297609c0fed2"),
        _golden("transmission --min 0.02 --max 2.25 --points 200 --paper-fidelity all",
                "50b52a587f5a594253a6c7224f3c997eb2418d75cde69fbbb83daef0fca4ecde"),
        # the config-key spelling of the flag, same bytes as its alias above
        _golden("transmission --min 0.02 --max 2.25 --points 200 --paper_fidelity all",
                "50b52a587f5a594253a6c7224f3c997eb2418d75cde69fbbb83daef0fca4ecde"),
        _golden("tunnelling --min 0.02 --max 0.44 --points 200",
                "cd2bf2e4ab7708dbaee839ae1f0cf19fcff04304b7f5e7eb47eb5f4d2dfaf6de"),
        # the V0 axis with the default auto alpha, and the refusal band
        # (45 of 100 rows refused by the Kummer guards, 271 DD reruns)
        _golden("transmission --axis V0 --min 0.05 --max 0.9 --points 120",
                "3f8c1a502b1bb7cc71d41ef253e950b39e8a3814d0df2ba63110039f8c26879c"),
        # the width axis, where the x = a interface moves from point to point
        _golden("transmission --axis a --min 1 --max 12 --points 120",
                "222fadcee580af87fb250306e8fdcd9852e97ad7ac4b187385adcc5ed720d40f"),
        # the printed-sign interior with the canonical columns
        _golden("transmission --min 0.02 --max 2.25 --points 200 --paper-fidelity signs",
                "e391a38f6c3bbfaf708b141dbc54665bdd173fff620dcc98b22097d5ac0f5fbb"),
        _golden("transmission --min 2.25 --max 3.9 --points 100",
                "225ddc399173eb7e7f20373d097c86b493d0fd532b277bfa28191b6a9612002f"),
        # one-point runs: a double-double point and a refused row
        _golden("transmission --min 2.2 --points 1",
                "470ce06c0c2d4b90d9f347f6465a7b140769eaf04b675173a270276d7fc70d11"),
        _golden("transmission --min 3.9 --points 1",
                "4c001cf2f8650c8638805d93c349761c599e7158eaf463a77a72e311436b132e"),
        # the steep-mass barrier of README's NaN T_paper example: 42 solved
        # rows, 12 with a NaN T_paper, t1 and t2 beside a finite T_solve
        # (f6's 1/Gamma overflows) and 6 AccuracyError rows; under t2 the
        # printed f6 column makes those 12 ConditioningError rows
        _golden("transmission --V0_eV 5 --a_nm 2 --alpha_eV_per_nm 0.0642857142857143 "
                "--M1_m0_per_nm 0.02 --min 0.02 --max 3 --points 60",
                "af759a4d270be9993fd2cd202d5b2f0da36419cadb59d9c67987c8f7d8137ed7"),
        _golden("transmission --V0_eV 5 --a_nm 2 --alpha_eV_per_nm 0.0642857142857143 "
                "--M1_m0_per_nm 0.02 --min 0.02 --max 3 --points 60 --paper_fidelity t2",
                "3c627f9f01888f02db98c1db36912c479864e191b1fc6a1df4cf549b2650321e"),
        # a DomainError row: the zero width, refused before the grid passes
        _golden("transmission --axis a --min 0 --max 1 --points 3",
                "2f84db97cf128c4a275effa2443661b88aed23ccaa1047c323ab51a9b1fc3a38"),
        # march-agreement prints worst 3.042e-14, interior-equation
        # 2.425e-07 and transmission-agreement 3.070e-13 against 4.0e-12.
        # Before the oracle extrapolated its halving pair: b6285252...,
        # with 3.005e-14 (6.949e-15 from the step-by-step march before the
        # product form) and 4.572e-12 against 1.0e-10
        _golden("validate",
                "f3393045604ecfa45cce13bfb35b69e940aee87d363b2b10afd7beadb256b32e"),
    ])
    def test_output_bytes_pinned(self, argv, digest, capsys):
        # every byte of these runs is frozen: a refactor that moves any
        # 17-digit figure, flag or INFO line changes the digest
        assert main(argv.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestConfig:
    def test_round_trip_defaults(self):
        assert parse(render(RunConfig())) == RunConfig()

    def test_round_trip_modified(self):
        config = RunConfig(V0_eV=0.3, alpha_eV_per_nm=0.0045, axis="a",
                           min=1e-4, max=7.0, points=33,
                           paper_fidelity="t2", out="x.csv", kind="well")
        assert parse(render(config)) == config

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nV0_eV = 0.3  # trailing\npoints = 7\n"
        config = parse(text)
        assert config.V0_eV == 0.3 and config.points == 7
        assert config.a_nm == 7.0  # untouched default

    def test_bad_lines_rejected(self):
        with pytest.raises(DomainError):
            parse("no_such_key = 1\n")
        with pytest.raises(DomainError):
            parse("V0_eV 0.3\n")
        with pytest.raises(DomainError):
            parse("points = many\n")

    def test_auto_alpha_resolves(self):
        config = RunConfig()
        assert config.resolved_alpha == pytest.approx(0.45 / 7.0, rel=1e-15)
        assert RunConfig(alpha_eV_per_nm=0.01).resolved_alpha == 0.01

    def test_validation(self):
        for bad in (RunConfig(points=0), RunConfig(min=0.5, max=0.1),
                    RunConfig(V0_eV=-1.0), RunConfig(axis="x"),
                    RunConfig(kind="step"), RunConfig(paper_fidelity="most"),
                    RunConfig(alpha_eV_per_nm=-0.1)):
            with pytest.raises(DomainError):
                validate_config(bad)
        validate_config(RunConfig(points=1, min=0.5, max=0.1))  # single point

    @pytest.mark.parametrize("name", ["min", "max", "E_eV"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_values_refused_by_name(self, name, value):
        for points in (1, 3):
            config = RunConfig(points=points, **{name: value})
            with pytest.raises(DomainError,
                               match=f"^{name} must be finite, got {value!r}$"):
                validate_config(config)

    @pytest.mark.parametrize("name", ["V0_eV", "a_nm", "M0_m0", "M1_m0_per_nm",
                                      "alpha_eV_per_nm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_refused_by_name(self, name, value):
        with pytest.raises(DomainError,
                           match=f"^{name} must be finite, got {value!r}$"):
            validate_config(RunConfig(**{name: value}))

    def test_non_positive_parameters_keep_their_message(self):
        for name in ("V0_eV", "a_nm", "M0_m0", "M1_m0_per_nm"):
            with pytest.raises(DomainError, match=f"^{name} must be positive$"):
                validate_config(RunConfig(**{name: 0.0}))
        with pytest.raises(DomainError,
                           match="^alpha_eV_per_nm must be positive or 'auto'$"):
            validate_config(RunConfig(alpha_eV_per_nm=-0.1))

    @pytest.mark.parametrize("argv, message", [
        (["--max", "inf", "--points", "3"], "max must be finite, got inf"),
        (["--points", "1", "--min", "nan"], "min must be finite, got nan"),
        (["--axis", "V0", "--E_eV=-inf", "--min", "0.1", "--max", "0.4",
          "--points", "2"], "E_eV must be finite, got -inf"),
        (["--V0_eV", "inf", "--points", "1", "--min", "0.1"],
         "V0_eV must be finite, got inf"),
        (["--alpha_eV_per_nm", "nan"], "alpha_eV_per_nm must be finite, got nan"),
        (["--M0_m0=-inf"], "M0_m0 must be finite, got -inf"),
    ])
    def test_non_finite_grid_flags_exit_two(self, tmp_path, capsys, argv,
                                            message):
        out = tmp_path / "t.csv"
        assert main(["transmission", "--out", str(out)] + argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_hash_is_git_blob_sha1(self):
        body = render(RunConfig()).encode()
        expect = hashlib.sha1(b"blob %d\0" % len(body) + body).hexdigest()
        assert config_hash(RunConfig()) == expect
        assert config_hash(RunConfig(points=7)) != expect

    def test_run_leaves_hashlib_unloaded(self, tmp_path):
        # the header hash takes the built-in SHA-1, so a run never loads
        # OpenSSL's libcrypto
        code = (
            "import sys\n"
            "from triq.cli import main\n"
            "assert main(['transmission', '--points', '2', '--out', "
            f"{str(tmp_path / 't.csv')!r}]) == 0\n"
            "assert main(['validate']) == 0\n"
            "loaded = {'hashlib', '_hashlib'} & set(sys.modules)\n"
            "sys.exit(sorted(loaded) or None)\n")
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "t.csv").exists()

    def test_hash_without_the_builtin_sha1(self):
        # an interpreter without _sha1 takes hashlib's, with the same digest
        configs = (RunConfig(), RunConfig(points=7),
                   RunConfig(paper_fidelity="t2"))
        code = (
            "import sys\n"
            "sys.modules['_sha1'] = None\n"
            "from triq.cli import RunConfig, config_hash\n"
            "assert 'hashlib' in sys.modules\n"
            f"for config in {configs!r}:\n"
            "    print(config_hash(config))\n")
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [config_hash(c) for c in configs]


FIELDS = [field.name for field in dataclasses.fields(RunConfig)]

# a value for every field, none of them its default, that validate_config
# accepts
SAMPLE = RunConfig(V0_eV=0.3, alpha_eV_per_nm=0.0045, a_nm=5.0, kind="well",
                   M0_m0=0.07, M1_m0_per_nm=0.05, E_eV=0.2, axis="a",
                   min=1.0, max=6.0, points=9, paper_fidelity="t2",
                   out="x.csv")


class TestFlags:
    """The flags are the RunConfig fields, one --<name> each."""

    def test_sample_moves_every_field(self):
        for name in FIELDS:
            assert getattr(SAMPLE, name) != getattr(RunConfig(), name), name

    @pytest.mark.parametrize("name", FIELDS)
    def test_flag_parses_to_the_type_of_the_default(self, name):
        value = getattr(SAMPLE, name)
        args = _build_parser().parse_args(["validate", f"--{name}",
                                           _fmt(value)])
        got = _coerce(name, getattr(args, name))
        default = getattr(RunConfig(), name)
        assert type(got) is (float if default == "auto" else type(default))
        assert got == value

    def test_auto_alpha_and_the_hyphen_alias(self):
        args = _build_parser().parse_args(
            ["validate", "--alpha_eV_per_nm", "auto", "--paper-fidelity", "all"])
        assert _coerce("alpha_eV_per_nm", args.alpha_eV_per_nm) == "auto"
        assert args.paper_fidelity == "all"

    @pytest.mark.parametrize("flag", ["--kind", "--axis", "--paper_fidelity",
                                      "--paper-fidelity"])
    def test_bad_choice_exits_two(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["transmission", flag, "bogus"])
        assert exit_.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_flags_load_what_the_rendered_file_loads(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(render(SAMPLE))
        flags = [arg for name in FIELDS
                 for arg in (f"--{name}", _fmt(getattr(SAMPLE, name)))]
        parser = _build_parser()
        from_flags = _load_config(parser.parse_args(["bound"] + flags))
        from_file = _load_config(parser.parse_args(
            ["bound", "--config", str(cfg)]))
        assert from_flags == from_file == SAMPLE

    def test_help_names_every_field(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        for name in FIELDS + ["paper-fidelity"]:
            assert f"--{name} " in out, name

    def test_bad_alpha_is_refused_by_name(self, capsys):
        # the one untyped numeric flag is coerced after parsing; a value
        # that is neither a float nor auto exits 2 with no traceback
        assert main(["transmission", "--alpha_eV_per_nm", "steep"]) == 2
        assert capsys.readouterr().err == (
            "error: bad value for 'alpha_eV_per_nm': 'steep'\n")


class TestTransmissionCommand:
    def test_row_count_and_schema(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["transmission", "--out", str(out)] + SMALL) == 0
        rows = data_rows(out.read_text())
        assert len(rows) == 5
        assert all(len(r) == len(CSV_HEADER.split(",")) for r in rows)

    def test_sweeps_call_scatter_sweep(self, monkeypatch, capsys):
        # every binding of scatter.sweep in the package is spied on, as a
        # span tracer wraps a function by name: both sweep commands call it
        original, calls = triq.scatter.sweep, []

        def spied(axis, values, *args, **kwargs):
            calls.append((axis, len(values)))
            return original(axis, values, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "triq" or name.startswith("triq."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, spied)
        assert main(["transmission"] + SMALL) == 0
        assert main(["tunnelling"] + SMALL) == 0
        assert calls == [("E", 5), ("E", 5)]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["transmission", "--out", str(a)] + SMALL)
        main(["transmission", "--out", str(b)] + SMALL)
        assert a.read_bytes() == b.read_bytes()

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("V0_eV = 0.3\npoints = 2\nmin = 0.05\nmax = 0.1\n")
        out = tmp_path / "t.csv"
        assert main(["transmission", "--config", str(cfg), "--V0_eV", "0.45",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "V0_eV = 0.45000000000000001" in text
        assert len(data_rows(text)) == 2

    def test_metadata_lines(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["transmission", "--out", str(out), "--points", "1",
              "--min", "0.1"])
        text = out.read_text()
        # hash is independent of where the file lands
        assert f"# config sha1 {config_hash(RunConfig(points=1, min=0.1))}" in text
        assert "(auto)" in text
        assert "mass zero x* = 1 nm" in text

    def test_math_errors_become_flag_rows(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["transmission", "--out", str(out), "--min", "-0.1",
                     "--max", "0.1", "--points", "3"]) == 0
        rows = data_rows(out.read_text())
        assert len(rows) == 3
        assert rows[0][-1] == "DomainError"
        assert rows[0][1] == "nan"
        assert rows[-1][-1] == ""
        assert float(rows[-1][1]) == pytest.approx(132.54430898227582, rel=1e-10)

    @pytest.mark.parametrize("points, rows", [("3", ["0", "1", "2"]),
                                              ("1", ["0"])])
    def test_zero_width_row_is_refused_by_name(self, tmp_path, points, rows):
        # auto alpha on the width axis: a = 0 is refused as a = -1 is,
        # as a DomainError, not by the division V0 / a
        out = tmp_path / "t.csv"
        assert main(["transmission", "--axis", "a", "--min", "0", "--max", "2",
                     "--points", points, "--out", str(out)]) == 0
        got = data_rows(out.read_text())
        assert [r[0] for r in got] == rows
        assert got[0][1:] == ["nan"] * 10 + ["DomainError"]
        assert all(r[-1] == "" for r in got[1:])

    def test_row_template_is_fmt_of_each_column(self):
        # one "%.17g," template per row prints what _fmt(float(v)) does,
        # and _fmt what the f-string "{v:.17g}" did, nan, inf and -0
        # included, for Python floats and np.float64
        rng = random.Random(20183)
        rows = [(0.1, math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                 1.7976931348623157e308, -1e-300, 1.0, 0.30000000000000004)]
        rows += [tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320, 308)
                       for _ in range(11)) for _ in range(200)]
        for row in rows + [tuple(map(np.float64, row)) for row in rows]:
            assert _CSV_ROW % row == "".join(_fmt(float(v)) + "," for v in row)
            assert [_fmt(float(v)) for v in row] == [f"{float(v):.17g}" for v in row]

    def test_stdout_when_no_out(self, capsys):
        assert main(["transmission", "--points", "1", "--min", "0.1"]) == 0
        assert CSV_HEADER in capsys.readouterr().out

    def test_well_rejected(self, capsys):
        assert main(["transmission", "--kind", "well", "--points", "1",
                     "--min", "0.1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_path(self, tmp_path, capsys):
        missing = tmp_path / "no" / "dir" / "t.csv"
        assert main(["transmission", "--out", str(missing), "--points", "1",
                     "--min", "0.1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestTunnellingCommand:
    def test_clips_to_sub_barrier_range(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["tunnelling", "--out", str(out), "--points", "6"]) == 0
        text = out.read_text()
        assert "clipped to 0 < E < V0" in text
        rows = data_rows(text)
        assert len(rows) == 3
        assert all(0.0 < float(r[0]) < 0.45 for r in rows)

    def test_same_schema_as_transmission(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["tunnelling", "--out", str(out), "--points", "6"])
        assert CSV_HEADER in out.read_text()

    def test_energy_axis_only(self, capsys):
        assert main(["tunnelling", "--axis", "V0", "--points", "2",
                     "--min", "0.1", "--max", "0.2"]) == 2
        capsys.readouterr()

    def test_empty_clip_rejected(self, capsys):
        assert main(["tunnelling", "--min", "0.5", "--max", "0.9",
                     "--points", "3"]) == 2
        capsys.readouterr()


class TestBoundCommand:
    WELL_ARGS = ["bound", "--kind", "well", "--alpha_eV_per_nm", "0.0045"]

    def test_report_contents(self, tmp_path):
        out = tmp_path / "b.txt"
        assert main(self.WELL_ARGS + ["--out", str(out)]) == 0
        text = out.read_text()
        assert "count = 57" in text
        assert "-0.42438160290590843" in text
        assert "-0.29407" in text and "-0.20986" in text

    def test_residual_column_small(self, tmp_path):
        out = tmp_path / "b.txt"
        main(self.WELL_ARGS + ["--out", str(out)])
        lines = out.read_text().splitlines()
        start = lines.index("n,E_n_eV,residual,below_zero") + 1
        rows = [l.split(",") for l in lines[start:start + 58]]
        assert len(rows) == 58
        assert all(float(r[2]) <= 1e-10 for r in rows)
        assert [r[3] for r in rows].count("false") == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(self.WELL_ARGS + ["--out", str(a)])
        main(self.WELL_ARGS + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_barrier_rejected(self, capsys):
        assert main(["bound"]) == 2
        assert "kind = well" in capsys.readouterr().err

    def test_huge_count_exits_two(self, capsys):
        # a 151-digit level count prints as %.17g (bound.spectrum)
        assert main(["bound", "--kind", "well", "--M1_m0_per_nm", "1e300"]) == 2
        assert capsys.readouterr().err == (
            "error: 3.9931073426593482e+150 bound levels, more than the "
            "100000 a spectrum lists\n")

    @pytest.mark.parametrize("flags", [["--alpha_eV_per_nm", "1e103"],
                                       ["--V0_eV", "1e300"],
                                       ["--a_nm", "1e-300"]])
    def test_overflowing_spacing_exits_two(self, flags, capsys):
        # the last two through alpha = auto = V0/a
        assert main(["bound", "--kind", "well"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: level spacing overflows at alpha = ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestValidateCommand:
    def test_clean_build_exits_zero(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "11 of 11 suites passed" in out
        assert "INFO" in out and "FAIL" not in out
