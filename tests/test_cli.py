"""CLI tests: golden schema, byte determinism, config plumbing, error rows."""

import hashlib
import math
import random

import numpy as np
import pytest

from triq.cli import (
    _CSV_ROW,
    CSV_HEADER,
    _fmt,
    RunConfig,
    cmd_transmission,
    config_hash,
    main,
    parse,
    render,
    validate_config,
)
from triq.errors import DomainError

SMALL = ["--min", "0.05", "--max", "0.3", "--points", "5"]


def data_rows(text):
    lines = text.splitlines()
    start = lines.index(CSV_HEADER) + 1
    return [line.split(",") for line in lines[start:] if not line.startswith("#")]


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
    @pytest.mark.parametrize("argv, digest", [
        ("transmission --min 0.02 --max 2.25 --points 200",
         "389876aff3533b46166c54483e8a111cb2378d6cedb2bb88405a91d731899011"),
        # the printed-column modes: rows near a b1 zero print the finite
        # (1/b1)^2, up to 1.5e44, unflagged
        ("transmission --min 0.02 --max 2.25 --points 200 --paper-fidelity t2",
         "9eba2f7dddfa38e4a2d0c3588e177d3b425279f5376f0964cf39cc535f9cdc46"),
        ("transmission --min 0.02 --max 2.25 --points 200 --paper-fidelity all",
         "8b0451c60286d6ad150f662b3af2871299dbf49fb396a745c616859f4ce98dca"),
        # the config-key spelling of the flag, same bytes as its alias above
        ("transmission --min 0.02 --max 2.25 --points 200 --paper_fidelity all",
         "8b0451c60286d6ad150f662b3af2871299dbf49fb396a745c616859f4ce98dca"),
        ("tunnelling --min 0.02 --max 0.44 --points 200",
         "61896033b7fa5adb475667cc23dacf731943339517945ca5a500d3d1d3af8188"),
        # the V0 axis with the default auto alpha, and the refusal band
        # (45 of 100 rows refused by the Kummer guards, 271 DD reruns)
        ("transmission --axis V0 --min 0.05 --max 0.9 --points 120",
         "7bab8802e83f131b3dfc6f6907acff07f5030e2af7a1ab72aeb20aca3c9b938c"),
        # the width axis, where the x = a interface moves from point to point
        ("transmission --axis a --min 1 --max 12 --points 120",
         "7a7f26c976b38230d0c9bd6507c4cdb86d607b75b9d8f4ec1efeb33646962677"),
        # the printed-sign interior with the canonical columns
        ("transmission --min 0.02 --max 2.25 --points 200 --paper-fidelity signs",
         "d10f5624af6cfa46e8e4bd18c0a4c35f1c84d659fde25c2d476b1fb7e0aa4d01"),
        ("transmission --min 2.25 --max 3.9 --points 100",
         "2749e1566189a9c7b7bbe4886ebe9718be4e29a086f418f53569cea9ec39e11d"),
        # one-point runs: a double-double point and a refused row
        ("transmission --min 2.2 --points 1",
         "cd844587bec430b5dc850baedb38c55385d6ee7d5c744e12a0523f05e9b9e68d"),
        ("transmission --min 3.9 --points 1",
         "4c001cf2f8650c8638805d93c349761c599e7158eaf463a77a72e311436b132e"),
        # march-agreement prints worst 3.005e-14 (6.949e-15 from the
        # step-by-step march before the product form), interior-equation
        # 2.425e-07
        ("validate",
         "b628525272c9d3a7e0250f6517f6ac1c7781426a690e67b89eeac15889d2fa36"),
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


class TestTransmissionCommand:
    def test_row_count_and_schema(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["transmission", "--out", str(out)] + SMALL) == 0
        rows = data_rows(out.read_text())
        assert len(rows) == 5
        assert all(len(r) == len(CSV_HEADER.split(",")) for r in rows)

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
        # one "%.17g," template per row prints what _fmt(float(v)) did,
        # nan, inf and -0 included, for Python floats and np.float64
        rng = random.Random(20183)
        rows = [(0.1, math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                 1.7976931348623157e308, -1e-300, 1.0, 0.30000000000000004)]
        rows += [tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320, 308)
                       for _ in range(11)) for _ in range(200)]
        for row in rows + [tuple(map(np.float64, row)) for row in rows]:
            assert _CSV_ROW % row == "".join(_fmt(float(v)) + "," for v in row)

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


class TestValidateCommand:
    def test_clean_build_exits_zero(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "11 of 11 suites passed" in out
        assert "INFO" in out and "FAIL" not in out
