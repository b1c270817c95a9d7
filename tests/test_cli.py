"""Command-line interface: config handling, CSV contract, exit codes."""

import contextlib
import io
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import qdmcell
from qdmcell import (BAND_ALIGNMENTS, GridSpec, ModelParams,
                     apply_band_alignment, build_generator, cli)
from qdmcell.cli import (_COMMANDS, _KEY_UNITS, build_config, main,
                         read_config_file)
from qdmcell.errors import (ConfigError, DegenerateSteadyStateError,
                            DomainError, InvalidGeometryError,
                            NumericalSolveError)
from qdmcell.sweeps import MAX_GRID_N

NUMERIC_KEYS = [k for k in _KEY_UNITS if k not in ("kind", "alignment")]

# Two valid values of every config key, the first at or near its default.
SETTINGS = {
    "kind": ("qdm", "sqd"), "alignment": ("0", "A2"), "d": ("2", "4"),
    "E12": ("1115", "1000"), "Te": ("4.4", "3"), "Th": ("0.6", "2"),
    "delta_c": ("2", "1.5"), "delta_e": ("3", "2.5"),
    "delta_h": ("3", "2.5"), "delta_v": ("2", "1.5"),
    "gamma1": ("1", "0.8"), "gamma2": ("1", "0.8"),
    "gamma_13": ("0", "0.01"), "gamma_24": ("0", "0.01"),
    "gamma_c": ("100", "50"), "gamma_v": ("0.05", "0.1"),
    "hbar_gamma": ("0.000658", "0.001"), "kTc": ("25.9", "20"),
    "kTs": ("500", "400"), "grid_n": ("200", "50"),
    "gamma_min": ("1e-06", "1e-05"), "gamma_max": ("1000000", "100000"),
    "seed": ("20260823", "7"),
}
CSV_COMMANDS = [c for c in _COMMANDS if c not in ("calibrate", "verify")]
# A value of every key that moves a run reading it.  The load bracket moves
# a run only where it cuts off the maximum.
MOVED = {**{key: values[1] for key, values in SETTINGS.items()},
         "gamma_min": "100", "gamma_max": "1"}

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
        # A line without '=' is rejected before its key is read.
        cfg.write_text("kTs 25\n")
        with pytest.raises(ConfigError) as exc:
            read_config_file(str(cfg))
        assert str(exc.value) == f"{cfg}:1: expected key = value"

    def test_overrides_win_over_file(self):
        config = build_config({"gamma_c": 50.0}, {"gamma_c": 200.0})
        assert config.params.gamma_c == 200.0

    def test_distance_sets_tunnelings(self):
        config = build_config({}, {"d": 10.0})
        p = config.resolved_params()
        assert p.Te == pytest.approx(1.44, rel=0.02)

    def test_distance_in_file_with_tunneling_override_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            build_config({"d": 2.0}, {"Te": 5.0})

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
        code, out, _ = _run(capsys, "max-power")
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
    def test_config_error_is_two(self, capsys, tmp_path):
        code, _, err = _run(capsys, "iv-curve", "--set", "volume=11")
        assert code == 2
        assert "config error" in err
        # Values and lines that do not parse.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kTs 25\n")
        for argv, want in [
                (("--set", "kTs=abc"), "kTs must be a number, got 'abc'"),
                (("--set", "foo"), "override 'foo': expected key=value"),
                (("-c", str(cfg)), f"{cfg}:1: expected key = value")]:
            code, out, err = _run(capsys, "max-power", *argv)
            assert (code, out, err) == (2, "", f"config error: {want}\n")

    def test_missing_config_file_is_two(self, capsys):
        code, _, err = _run(capsys, "iv-curve", "-c", "/no/such/file.cfg")
        assert code == 2

    def test_numerical_failure_is_three(self, capsys):
        # A dark cell has no interior power maximum.
        code, _, err = _run(capsys, "max-power", "--set", "kTs=0.01")
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

    # A layout that every device of the scan's stack shares: the run ends
    # with the lone device's config error.
    @pytest.mark.parametrize("command, name, value", [
        ("efficiency-vs-d", "delta_c", -1.0),
        ("phonon-assisted", "delta_e", 2000.0),
        ("gamma-grid", "delta_h", 2000.0)])
    def test_scan_shared_layout_error_is_the_lone_error(self, capsys,
                                                        command, name, value):
        with pytest.raises(InvalidGeometryError) as want:
            build_generator(ModelParams(**{name: value}), "qdm")
        code, out, err = _run(capsys, command, "--set", f"{name}={value:g}")
        assert (code, out) == (2, "")
        assert err == f"config error: {want.value}\n"

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

    def test_max_power_does_not_take_grid_n(self, capsys):
        # Its search reads only the load grid's bounds.
        code, out, err = _run(capsys, "max-power", "--set", "grid_n=60")
        assert (code, out) == (2, "")
        assert err == "config error: max-power does not take grid_n\n"

    def test_removed_gamma_key_is_config_error(self, capsys):
        code, _, err = _run(capsys, "max-power", "--set", "gamma=1")
        assert code == 2
        assert "unknown key 'gamma'" in err


# The subcommands that build devices from their config.
MODEL_COMMANDS = ["iv-curve", "max-power", "gamma-grid", "efficiency-vs-d",
                  "phonon-assisted"]
# Values at the edges of the numeric keys' domains: zeros, the smallest
# floats either side of 0, tiny and huge magnitudes (1e153 pushes a
# generator entry near its bound of about 1e154), and non-finite values.
# grid_n takes its least count, a count past each end of its domain and
# a huge one; its largest count, MAX_GRID_N, would print 10**6 rows, so
# test_sweeps builds that grid instead.
EDGES = ("0", "-0", "-5e-324", "5e-324", "1e-300", "1e-3", "1e3", "1e153",
         "1e300", "-1e300", "nan", "inf", "-inf")
EDGE_VALUES = {"kind": ("qdm", "sqd"), "alignment": BAND_ALIGNMENTS,
               "grid_n": ("49", "50", "2000", str(MAX_GRID_N + 1),
                          "10000000000000000")}


def _lone_devices(command: str, p: ModelParams, kind: str) -> list:
    """(params, kind) of the lone devices whose input errors end a run of
    ``command`` on the resolved device ``p``: the device itself, or the
    cells of a scan.  Of gamma-grid's 40 x 40 cells, the corners suffice,
    since the escape rates enter no level and every entry's magnitude
    grows with them."""
    if command in ("iv-curve", "max-power"):
        return [(p, kind)]
    if command == "gamma-grid":
        return [(p.replace(gamma_c=gc, gamma_v=gv), k)
                for gc, gv in ((1.0, 1e-4), (500.0, 20.0))
                for k in ("qdm", "sqd")]
    if command == "efficiency-vs-d":
        return [(apply_band_alignment(p, a).with_distance(d), "qdm")
                for a in BAND_ALIGNMENTS for d in range(2, 11)]
    return [(p.replace(gamma_c=gc, gamma_v=gv, gamma_13=g_ph,
                       gamma_24=g_ph).with_distance(d), "qdm")
            for gc, gv in ((100.0, 0.05), (50.0, 5.0)) for d in (2.0, 10.0)
            for g_ph in (0.0, 0.001, 0.01, 0.1)]


def _is_input_error(command: str, overrides: dict) -> bool:
    """Whether the library rejects the run's input: its load grid, d
    given with Te or Th, or a lone ``ModelParams`` or ``build_generator``
    call of one of its devices."""
    values = {k: v if k in ("kind", "alignment") else
              int(v) if k == "grid_n" else float(v)
              for k, v in overrides.items()}
    kind, alignment = values.pop("kind", "qdm"), values.pop("alignment", "0")
    d = values.pop("d", None)
    grid = {name: values.pop(key) for key, name in (
        ("grid_n", "n"), ("gamma_min", "gamma_min"),
        ("gamma_max", "gamma_max")) if key in values}
    if d is not None and values.keys() & {"Te", "Th"}:
        return True
    try:
        GridSpec(**grid)
        p = apply_band_alignment(ModelParams(**values), alignment)
        if d is not None:
            p = p.with_distance(d)
        for q, k in _lone_devices(command, p, kind):
            build_generator(q, k)
    except (DomainError, InvalidGeometryError):
        return True
    return False


@st.composite
def _model_runs(draw) -> tuple:
    """A model subcommand and one to three of its keys at domain edges."""
    command = draw(st.sampled_from(MODEL_COMMANDS))
    keys = draw(st.lists(st.sampled_from(_COMMANDS[command][1]),
                         min_size=1, max_size=3, unique=True))
    return command, {k: draw(st.sampled_from(EDGE_VALUES.get(k, EDGES)))
                     for k in keys}


class TestFuzz:
    """Runs at the edges of the domain end with a documented exit code,
    never a traceback or a NaN cell, and exit 2 exactly where the library
    rejects the input."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(run=_model_runs())
    # A layout that every device of a scan shares.
    @example(run=("efficiency-vs-d", {"delta_c": "-1"}))
    @example(run=("phonon-assisted", {"delta_e": "2000"}))
    @example(run=("gamma-grid", {"delta_h": "2000"}))
    # A load grid far past the ceiling: a config error, nothing allocated.
    @example(run=("iv-curve", {"grid_n": "10000000000000000"}))
    # Every point dropped, and every cell failed: exit 0 with no rows.
    @example(run=("iv-curve", {"kTs": "1e-300"}))
    @example(run=("gamma-grid", {"kTc": "1e-300"}))
    def test_edge_settings(self, run):
        command, overrides = run
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *(arg for k, v in overrides.items()
                                    for arg in ("--set", f"{k}={v}"))])
        assert code in (0, 2, 3), err.getvalue()
        assert (code == 2) == _is_input_error(command, overrides), (
            code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        for line in out.getvalue().splitlines():
            if not line.startswith("#"):
                assert not {"nan", "inf", "-inf"} & set(
                    line.lower().split(",")), line


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full device")


def _child_env() -> dict:
    """The environment of a child interpreter that imports this qdmcell."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(qdmcell.__file__)))


def _cli_process(*argv, stdout, buffered: bool) -> subprocess.Popen:
    """``qdmcell`` in a child interpreter, writing to ``stdout``."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "qdmcell.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env,
                            text=True)


class TestOutputErrors:
    """A write that fails ends in one ``output error`` line and exit 2."""

    @needs_dev_full
    def test_full_output_file(self, capsys):
        code, out, err = _run(capsys, "alignments", "-o", "/dev/full")
        assert code == 2
        assert out == ""
        assert re.fullmatch(r"output error: .*No space left on device\n",
                            err)

    @needs_dev_full
    @pytest.mark.parametrize("buffered", [True, False])
    def test_full_stdout(self, buffered):
        with open("/dev/full", "w") as full:
            proc = _cli_process("alignments", stdout=full, buffered=buffered)
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert re.fullmatch(r"output error: .*No space left on device\n",
                            err)

    @pytest.mark.parametrize("buffered", [True, False])
    def test_reader_closes_pipe_early(self, buffered):
        # Far more than a pipe holds, so the writer is still writing when
        # the reader goes.
        proc = _cli_process("iv-curve", "--set", "grid_n=5000",
                            stdout=subprocess.PIPE, buffered=buffered)
        first = f"# qdmcell {qdmcell.__version__} iv-curve\n"
        assert proc.stdout.readline() == first
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
        assert proc.returncode == 2
        assert re.fullmatch(r"output error: .*Broken pipe\n", err)


def _meta(out: str) -> list:
    """(key, value) of each config line of a CSV '#' block."""
    return [tuple(ln[2:].split(" = ", 1)) for ln in out.splitlines()
            if ln.startswith("# ") and " = " in ln]


class TestKeyTable:
    """Each subcommand takes exactly the config keys it reads."""

    def test_settings_cover_every_key(self):
        assert list(SETTINGS) == list(_KEY_UNITS)
        assert "Gamma" not in _KEY_UNITS

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_every_key_it_does_not_read_is_config_error(self, capsys,
                                                        command):
        # A metadata block claiming an unread key was applied would
        # misreport the run.
        unread = [k for k in _KEY_UNITS if k not in _COMMANDS[command][1]]
        for key in unread:
            for value in SETTINGS[key]:
                code, out, err = _run(capsys, command, "--set",
                                      f"{key}={value}")
                assert (code, out) == (2, ""), (key, value)
                assert err == f"config error: {command} does not take {key}\n"
        code, out, err = _run(capsys, command, "--set", "Gamma=1")
        assert (code, out) == (2, "")
        assert err.startswith("config error: unknown key 'Gamma'")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_config_file_keys_are_checked_alike(self, capsys, tmp_path,
                                                command):
        unread = sorted(k for k in _KEY_UNITS
                        if k not in _COMMANDS[command][1])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {SETTINGS[k][1]}\n" for k in unread))
        code, out, err = _run(capsys, command, "-c", str(cfg))
        assert (code, out) == (2, "")
        assert err == (f"config error: {command} does not take "
                       f"{', '.join(unread)}\n")

    @pytest.mark.parametrize("command", CSV_COMMANDS)
    def test_metadata_lists_the_keys_it_reads(self, capsys, tmp_path,
                                              command):
        # The default '#' block names each key of the table row once, in
        # the row's order, and its key lines, fed back as a config file,
        # rerun its run byte for byte: each printed value reads back as
        # the same float.  d is empty by default, which leaves it unset:
        # the tunnelings stand.  A block with d also prints the Te and Th
        # it sets, and its rerun takes those and not d.
        def rerun(out, drop=()):
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in _meta(out)
                                   if k not in drop))
            code, again, _ = _run(capsys, command, "-c", str(cfg))
            assert code == 0
            return again

        code, out, _ = _run(capsys, command)
        assert code == 0
        meta = _meta(out)
        assert tuple(k for k, _ in meta) == _COMMANDS[command][1]
        assert rerun(out) == out
        if "d" in _COMMANDS[command][1]:
            assert ("d", "") in meta
            code, out, _ = _run(capsys, command, "--set", "d=2")
            assert code == 0
            assert [v for k, v in _meta(out) if k == "d"] == ["2"]
            assert rerun(out, drop=("d",)) == out.replace("# d = 2\n",
                                                         "# d = \n")

    @pytest.mark.parametrize("command", CSV_COMMANDS)
    def test_every_key_it_reads_moves_the_run(self, capsys, command):
        # Each key a subcommand takes changes its rows or its exit code.
        def result(*argv):
            code, out, _ = _run(capsys, command, *argv)
            return code, [ln for ln in out.splitlines()
                          if not ln.startswith("#")]

        default = result()
        assert default[0] == 0
        for key in _COMMANDS[command][1]:
            assert result("--set", f"{key}={MOVED[key]}") != default, key

    def test_verify_passes_its_seed_on(self, capsys, monkeypatch):
        # The gate and the calibration run on fixed reference devices.
        assert _COMMANDS["verify"][1] == ("seed",)
        assert _COMMANDS["calibrate"][1] == ()
        seeds = []
        monkeypatch.setattr(cli, "run_all",
                            lambda seed: seeds.append(seed) or [])
        code, out, _ = _run(capsys, "verify", "--set", "seed=7")
        assert (code, out, seeds) == (0, "0/0 criteria passed\n", [7])

    @pytest.mark.parametrize("argv", [
        ("--set", "d=2", "--set", "Te=5"),
        ("--set", "Th=1", "--set", "d=2"),
        ("--set", "d=2", "--set", "Te=5", "--set", "Th=1")])
    def test_distance_with_tunnelings_is_config_error(self, capsys, argv):
        # d sets Te and Th itself; taking both would drop one silently.
        code, out, err = _run(capsys, "iv-curve", *argv)
        assert (code, out) == (2, "")
        assert err == ("config error: d sets Te and Th; give d or Te and "
                       "Th, not both\n")


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

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_subcommand_help_lists_its_keys(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        epilog = capsys.readouterr().out.split("Config keys")[1]
        assert tuple(re.findall(r"(\w+)\s+\[", epilog)) \
            == _COMMANDS[command][1]
        for key in _COMMANDS[command][1]:
            assert f"[{_KEY_UNITS[key]}]" in " ".join(epilog.split())


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

    @pytest.mark.parametrize("target, error, failed", [
        ("calibrate", NumericalSolveError("residual too large"), (1, 2)),
        ("gamma_grid_scan", DegenerateSteadyStateError("two classes"), (4,))],
        ids=["calibrate", "criterion_4"])
    def test_verify_reports_every_criterion_when_one_raises(
            self, capsys, monkeypatch, target, error, failed):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(qdmcell.acceptance, target, fail)
        code, out, err = _run(capsys, "verify")
        verdicts = re.findall(r"^criterion (\d+) \[(PASS|FAIL)\] (.+)$", out,
                              re.MULTILINE)
        assert [int(k) for k, _, _ in verdicts] == list(range(1, 9))
        assert [int(k) for k, v, _ in verdicts if v == "FAIL"] == list(failed)
        raised = f"    FAIL raised {type(error).__name__}: {error}\n"
        for k in failed:
            name = qdmcell.acceptance.NAMES[k]
            assert f"criterion {k} [FAIL] {name}\n{raised}" in out
        assert out.endswith(f"{8 - len(failed)}/8 criteria passed\n")
        assert (code, err) == (3, "")

    def test_verify_imports_neither_numpy_random_nor_openssl(self):
        # In a fresh interpreter, since this one may have loaded both.
        # numpy.random brings secrets, hashlib and OpenSSL's _hashlib in
        # with it: about 6 MB of the gate's peak memory.
        script = (
            "import contextlib, io, sys\n"
            "from qdmcell.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = main(['verify'])\n"
            "print(code, out.getvalue().splitlines()[-1])\n"
            "print(sorted({'numpy.random', '_hashlib'} & set(sys.modules)))\n")
        child = subprocess.run([sys.executable, "-c", script],
                               env=_child_env(), capture_output=True,
                               text=True, timeout=120)
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout == "0 8/8 criteria passed\n[]\n"
