"""Command-line interface: config handling, CSV contract, exit codes."""

import pytest

from qdmcell.cli import (_COMMANDS, _KEY_UNITS, build_config, main,
                         read_config_file)

NUMERIC_KEYS = [k for k in _KEY_UNITS if k not in ("kind", "alignment")]

IV_HEADER = "Gamma_over_gamma,j_over_egamma,V_mV,P_over_gamma_meV,coh13,coh24"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigParsing:
    def test_flat_file_with_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# reference molecule\n"
                       "kind = qdm\n"
                       "gamma_c = 50  # fast escape\n"
                       "\n"
                       "d = 4\n")
        values = read_config_file(str(cfg))
        assert values == {"kind": "qdm", "gamma_c": 50.0, "d": 4.0}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("coupling = 3\n")
        with pytest.raises(Exception, match="unknown key"):
            read_config_file(str(cfg))

    def test_overrides_win_over_file(self):
        config = build_config({"gamma_c": 50.0}, {"gamma_c": 200.0})
        assert config.params.gamma_c == 200.0

    def test_distance_sets_tunnelings(self):
        config = build_config({}, {"d": 10.0})
        p = config.resolved_params()
        assert p.Te == pytest.approx(1.44, rel=0.02)

    def test_bad_values_rejected(self):
        for overrides in ({"kind": "molecule"}, {"alignment": "Z9"},
                          {"grid_n": "many"}, {"gamma_c": "-4"},
                          {"E12": "abc"}):
            with pytest.raises(Exception):
                build_config({}, overrides)


class TestCsvContract:
    def test_iv_curve_columns_and_metadata(self, capsys):
        code, out, _ = _run(capsys, "iv-curve", "--set", "grid_n=60")
        assert code == 0
        lines = out.splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == IV_HEADER
        assert len(body) == 1 + 60  # header + one row per grid point
        assert any(ln.startswith("# gamma_c = ") for ln in meta)
        assert any(ln.startswith("# kind = ") for ln in meta)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for path in (out_a, out_b):
            assert main(["iv-curve", "--set", "grid_n=60",
                         "-o", str(path)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_max_power_single_row(self, capsys):
        code, out, _ = _run(capsys, "max-power", "--set", "grid_n=60")
        assert code == 0
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert body[0].startswith("Gamma_star_over_gamma,")
        assert len(body) == 2

    def test_alignments_table(self, capsys):
        code, out, _ = _run(capsys, "alignments")
        assert code == 0
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert body[0] == "alignment,delta_e_meV,delta_h_meV"
        assert body[1:] == ["0,3,3", "A1,0,6", "A2,6,0", "B1,-2,8",
                            "B2,4,2"]

    def test_gamma_grid_row_count_matches_grid(self, capsys):
        # One row per cell of the 40 x 40 escape-rate grid.
        code, out, err = _run(capsys, "gamma-grid", "--set", "d=2")
        assert code == 0
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        n_failed = sum("failed" in ln for ln in err.splitlines())
        assert len(body) - 1 == 40 * 40 - n_failed


class TestExitCodes:
    def test_config_error_is_two(self, capsys):
        code, _, err = _run(capsys, "iv-curve", "--set", "volume=11")
        assert code == 2
        assert "config error" in err

    def test_missing_config_file_is_two(self, capsys):
        code, _, err = _run(capsys, "iv-curve", "-c", "/no/such/file.cfg")
        assert code == 2

    def test_numerical_failure_is_three(self, capsys):
        # A dark cell has no interior power maximum.
        code, _, err = _run(capsys, "max-power", "--set", "kTs=0.01",
                            "--set", "grid_n=60")
        assert code == 3
        assert "numerical failure" in err

    def test_invalid_geometry_is_config_error(self, capsys):
        code, _, err = _run(capsys, "iv-curve", "--set", "delta_c=-1")
        assert code == 2

    def test_scan_invalid_geometry_is_one_config_error(self, capsys):
        # Every cell shares the geometry: one error, no partial CSV.
        code, out, err = _run(capsys, "gamma-grid", "--set", "delta_c=-1")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: ")

    @pytest.mark.parametrize("command", ["max-power", "gamma-grid"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_non_finite_value_is_config_error(self, capsys, command, value,
                                              key):
        code, out, err = _run(capsys, command, "--set", f"{key}={value}")
        assert code == 2
        assert out == ""
        assert err.startswith("config error: ")
        assert "Traceback" not in err

    def test_overflowing_occupation_is_config_error(self, capsys):
        code, _, err = _run(capsys, "max-power", "--set", "delta_v=1e-320")
        assert code == 2
        assert err.startswith("config error: ")

    @pytest.mark.parametrize("argv", [
        ("max-power", "gamma_c=1e308"), ("max-power", "hbar_gamma=1e-320"),
        ("max-power", "Te=1e300"), ("iv-curve", "kTc=1e305"),
        ("gamma-grid", "hbar_gamma=1e-320")])
    def test_overflowing_generator_entry_is_config_error(self, capsys, argv):
        command, setting = argv
        code, out, err = _run(capsys, command, "--set", setting)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: generator entry ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("alignments", "-o", "/nonexistent/dir/x.csv"),
        ("verify", "--set", "seed=-1")])
    def test_bad_output_path_or_seed_is_config_error(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("setting, command", [
        pytest.param(setting, command, id=f"{setting}-{command}")
        for setting, commands in (
            ("alignment=A2", ("efficiency-vs-d", "phonon-assisted")),
            ("d=4", ("efficiency-vs-d", "phonon-assisted")),
            ("kind=sqd", ("gamma-grid", "efficiency-vs-d", "phonon-assisted")),
            ("kind=qdm", ("gamma-grid", "efficiency-vs-d", "phonon-assisted")),
            ("grid_n=50",
             ("gamma-grid", "efficiency-vs-d", "phonon-assisted")))
        for command in commands])
    def test_scan_rejects_keys_it_ignores(self, capsys, command, setting):
        # These scans compute from the base parameters; a metadata block
        # claiming the key was applied would misreport the run.
        code, out, err = _run(capsys, command, "--set", setting)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: ")
        assert len(err.splitlines()) == 1

    def test_removed_gamma_key_is_config_error(self, capsys):
        code, _, err = _run(capsys, "max-power", "--set", "gamma=1")
        assert code == 2
        assert "unknown key 'gamma'" in err


class TestHelp:
    def test_every_subcommand_has_a_description(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        listing = capsys.readouterr().out.split("positional arguments:")[1]
        for name in _COMMANDS:
            line = next(ln for ln in listing.splitlines()
                        if ln.split()[:1] == [name])
            assert len(line.split()) > 1, name


class TestCalibrateAndVerify:
    def test_calibrate_prints_reference_numbers(self, capsys):
        code, out, _ = _run(capsys, "calibrate")
        assert code == 0
        assert "hbar_gamma" in out
        voc = float(out.split("Voc = ")[1].split(" mV")[0])
        assert voc == pytest.approx(871.0, rel=0.02)
        jsc = float(out.split("jsc = ")[1].split(" e*gamma")[0])
        assert jsc == pytest.approx(0.018, rel=0.10)
        pm = float(out.split("Pm = ")[1].split(" gamma*meV")[0])
        assert pm == pytest.approx(13.66, rel=0.10)

    def test_verify_prints_pass_fail_per_criterion(self, capsys):
        code, out, _ = _run(capsys, "verify")
        lines = [ln for ln in out.splitlines()
                 if ln.startswith("criterion ")]
        assert len(lines) == 8
        assert all(("[PASS]" in ln) or ("[FAIL]" in ln) for ln in lines)
        assert code == 0
