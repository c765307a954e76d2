"""CLI tests: golden schema, byte determinism, config plumbing, error rows."""

import hashlib

import pytest

from triq.cli import (
    CSV_HEADER,
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

    @pytest.mark.parametrize("argv, digest", [
        ("transmission --min 0.02 --max 2.25 --points 200",
         "42b94fc88293c93947ce31bc298a8dac17e1355ce82f2ba7f4f648f76e3fc6a4"),
        ("transmission --min 0.02 --max 2.25 --points 200 --paper-fidelity all",
         "576871dbea81512e1f1420619fdb08b2cba5b0a273d7e51ea6a588f6af58d613"),
        # the config-key spelling of the flag, same bytes as its alias above
        ("transmission --min 0.02 --max 2.25 --points 200 --paper_fidelity all",
         "576871dbea81512e1f1420619fdb08b2cba5b0a273d7e51ea6a588f6af58d613"),
        ("tunnelling --min 0.02 --max 0.44 --points 200",
         "a87c0a9bc20e456e8399ff7d42dc476dc32ae105d017799d47202799457a4a0b"),
        ("validate",
         "eaf83caf42e188c11c19556464efde4adec90a0c7c5ed1f20aca3597660925b2"),
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
