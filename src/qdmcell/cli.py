"""Command-line front end.

Flat key=value configs, ``--key=value`` overrides, deterministic CSV
output with a '#' metadata block.  Exit codes: 0 success, 2 config or
output error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import NamedTuple

from . import __version__
from .acceptance import DEFAULT_SEED, calibrate, run_all
from .errors import (NUMERICAL_ERRORS, ConfigError, DomainError,
                     InvalidGeometryError)
from .model import BAND_ALIGNMENTS, ModelParams, apply_band_alignment
from .sweeps import (GridSpec, efficiency_vs_distance, gamma_grid_scan,
                     iv_curve, max_power_point, phonon_assisted_comparison)

# Config keys with their units, in the order a CSV '#' block lists them.
# Rates are multiples of gamma; energies are meV.
_KEY_UNITS = {
    "kind": "qdm|sqd",
    "alignment": "|".join(BAND_ALIGNMENTS),
    "d": "nm (sets Te, Th from the exponential fit)",
    "E12": "meV", "Te": "meV", "Th": "meV",
    "delta_c": "meV", "delta_e": "meV", "delta_h": "meV", "delta_v": "meV",
    "gamma1": "gamma", "gamma2": "gamma", "gamma_13": "gamma",
    "gamma_24": "gamma", "gamma_c": "gamma", "gamma_v": "gamma",
    "hbar_gamma": "meV", "kTc": "meV", "kTs": "meV",
    "grid_n": "points", "gamma_min": "gamma", "gamma_max": "gamma",
    "seed": "integer",
}


class RunConfig(NamedTuple):
    """Resolved run configuration (model + sweep controls)."""

    params: ModelParams
    kind: str = "qdm"
    alignment: str = "0"
    d: float | None = None
    grid_n: int = GridSpec.n
    gamma_min: float = GridSpec.gamma_min
    gamma_max: float = GridSpec.gamma_max
    seed: int = DEFAULT_SEED

    def grid(self) -> GridSpec:
        return GridSpec(n=self.grid_n, gamma_min=self.gamma_min,
                        gamma_max=self.gamma_max)

    def resolved_params(self) -> ModelParams:
        p = apply_band_alignment(self.params, self.alignment)
        if self.d is not None:
            p = p.with_distance(self.d)
        return p


def _fmt(x, exact: bool = False) -> str:
    # exact: ``repr`` where 12 digits do not read back as the same float.
    if not isinstance(x, float):
        return str(x)
    text = format(x, ".12g")
    return repr(x) if exact and float(text) != x else text


def _parse_setting(key: str, raw: str, where: str = ""):
    """Check that ``key`` is a config key and parse its value."""
    if key not in _KEY_UNITS:
        raise ConfigError(f"{where}unknown key {key!r} "
                          f"(known: {', '.join(sorted(_KEY_UNITS))})")
    raw = raw.strip()
    if key in ("kind", "alignment"):
        return raw
    if key == "d" and not raw:
        return None  # unset, as a default '#' block prints it
    if key in ("grid_n", "seed"):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {raw!r}")
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}")


def read_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file ('#' comments, blank lines ok)."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = (s.strip() for s in text.split("=", 1))
        values[key] = _parse_setting(key, raw, f"{path}:{lineno}: ")
    return values


def _parse_overrides(pairs) -> dict:
    values = {}
    for item in pairs or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, raw = item.split("=", 1)
        values[key.strip()] = _parse_setting(key.strip(), raw)
    return values


_RUN_KEYS = set(RunConfig._fields) - {"params"}


def build_config(file_values: dict, override_values: dict) -> RunConfig:
    merged = {**file_values, **override_values}
    if merged.get("d") is not None and merged.keys() & {"Te", "Th"}:
        raise ConfigError("d sets Te and Th; give d or Te and Th, not both")
    run = {key: merged.pop(key) for key in _RUN_KEYS & merged.keys()}
    if run.get("kind", "qdm") not in ("qdm", "sqd"):
        raise ConfigError(f"kind must be qdm or sqd, got {run['kind']!r}")
    if run.get("alignment", "0") not in BAND_ALIGNMENTS:
        raise ConfigError(f"alignment must be one of "
                          f"{'/'.join(BAND_ALIGNMENTS)}, "
                          f"got {run['alignment']!r}")
    try:
        params = ModelParams(**merged)
    except (TypeError, DomainError) as exc:
        raise ConfigError(f"invalid model parameters: {exc}")
    try:
        cfg = RunConfig(params=params, **run)
        if cfg.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
        cfg.grid()  # validate sweep bounds eagerly
        cfg.resolved_params()
    except (TypeError, DomainError) as exc:
        raise ConfigError(str(exc))
    return cfg


def _write_csv(out, subcommand: str, config: RunConfig,
               header: list, rows: list) -> None:
    out.write(f"# qdmcell {__version__} {subcommand}\n")
    p = config.resolved_params()
    for key in _COMMANDS[subcommand][1]:
        value = getattr(config if key in _RUN_KEYS else p, key)
        out.write(f"# {key} = {'' if value is None else _fmt(value, True)}\n")
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _cmd_iv_curve(config: RunConfig, out) -> int:
    """Current, voltage, power and coherences over the load grid."""
    p = config.resolved_params()
    curve = iv_curve(p, kind=config.kind, grid=config.grid())
    rows = zip(*(curve.column(name).tolist()
                 for name in ("Gamma", "j", "V", "P", "coh13", "coh24")))
    _write_csv(out, "iv-curve", config,
               ["Gamma_over_gamma", "j_over_egamma", "V_mV",
                "P_over_gamma_meV", "coh13", "coh24"], rows)
    if curve.n_dropped:
        print(f"note: dropped {curve.n_dropped} load points with undefined "
              "voltage", file=sys.stderr)
    return 0


def _cmd_max_power(config: RunConfig, out) -> int:
    """The maximum-power point of the configured device."""
    p = config.resolved_params()
    mpp = max_power_point(p, kind=config.kind, grid=config.grid())
    _write_csv(out, "max-power", config,
               ["Gamma_star_over_gamma", "j_over_egamma", "V_mV",
                "Pm_over_gamma_meV", "eta", "coh13", "coh24"],
               [mpp[:7]])
    return 0


def _cmd_gamma_grid(config: RunConfig, out) -> int:
    """Molecule-over-single-dot current gain on an escape-rate grid."""
    p = config.resolved_params()
    scan = gamma_grid_scan(p, grid=config.grid())
    rows = []
    failed = {(iv, ic) for iv, ic, _ in scan.failures}
    for iv, gv in enumerate(scan.gamma_v_values):
        for ic, gc in enumerate(scan.gamma_c_values):
            if (iv, ic) not in failed:
                rows.append((gc, gv, scan.delta_j[iv, ic]))
    _write_csv(out, "gamma-grid", config,
               ["gamma_c_over_gamma", "gamma_v_over_gamma", "delta_j"], rows)
    for iv, ic, msg in scan.failures:
        print(f"cell gamma_v={scan.gamma_v_values[iv]:g}, "
              f"gamma_c={scan.gamma_c_values[ic]:g} failed: {msg}",
              file=sys.stderr)
    return 0


def _cmd_efficiency_vs_d(config: RunConfig, out) -> int:
    """Maximum power and efficiency versus barrier width, per alignment."""
    rows = efficiency_vs_distance(config.params, grid=config.grid())
    _write_csv(out, "efficiency-vs-d", config,
               ["alignment", "d_nm", "Pm_over_gamma_meV", "eta",
                "coh13", "coh24"], rows)
    return 0


def _cmd_phonon_assisted(config: RunConfig, out) -> int:
    """Maximum-power gain from phonon-assisted interdot tunneling."""
    rows = phonon_assisted_comparison(config.params, grid=config.grid())
    _write_csv(out, "phonon-assisted", config,
               ["gamma_c_over_gamma", "gamma_v_over_gamma", "d_nm",
                "gamma_ph_over_gamma", "Pm_over_gamma_meV", "eta",
                "delta_Pm"], rows)
    return 0


def _cmd_alignments(config: RunConfig, out) -> int:
    """The interdot detunings of each band alignment."""
    rows = []
    for tag in BAND_ALIGNMENTS:
        p = apply_band_alignment(config.params, tag)
        rows.append((tag, p.delta_e, p.delta_h))
    _write_csv(out, "alignments", config,
               ["alignment", "delta_e_meV", "delta_h_meV"], rows)
    return 0


def _cmd_calibrate(config: RunConfig, out) -> int:
    """Fit hbar*gamma to the published single-dot and molecule numbers."""
    cal = calibrate()
    out.write(f"hbar_gamma = {cal.hbar_gamma:g} meV\n")
    out.write(f"single dot:  Voc = {cal.sqd_Voc:.2f} mV, "
              f"jsc = {cal.sqd_jsc:.5f} e*gamma, "
              f"Pm = {cal.sqd_Pm:.3f} gamma*meV\n")
    out.write(f"molecule:    jsc = {cal.qdm_jsc:.5f} e*gamma, "
              f"Pm = {cal.qdm_Pm:.3f} gamma*meV\n")
    return 0


def _cmd_verify(config: RunConfig, out) -> int:
    """Run the acceptance criteria; exit 3 if any fails."""
    results = run_all(seed=config.seed)
    for r in results:
        out.write(f"criterion {r.number} "
                  f"[{'PASS' if r.passed else 'FAIL'}] {r.name}\n")
        for line in r.details:
            out.write(f"    {line}\n")
    n_fail = sum(not r.passed for r in results)
    out.write(f"{len(results) - n_fail}/{len(results)} criteria passed\n")
    return 0 if n_fail == 0 else 3


def _keys(names: str) -> tuple:
    """The named config keys, in the order of ``_KEY_UNITS``."""
    return tuple(sorted(names.split(), key=list(_KEY_UNITS).index))


# Every model run reads the device and the load bracket of its search.
_DEVICE = ("E12 delta_c delta_e delta_h delta_v gamma1 gamma2 hbar_gamma "
           "kTc kTs gamma_min gamma_max")
_LONE = f"kind alignment d Te Th gamma_13 gamma_24 gamma_c gamma_v {_DEVICE}"

# Each subcommand with the config keys it reads.  It rejects every other
# key, and its CSV '#' block lists exactly these.  Only iv-curve reads
# the load grid's size.  A scan sets what it sweeps itself: gamma-grid
# the escape rates and both kinds, efficiency-vs-d the band alignment and
# the barrier width, phonon-assisted the escape rates, the width and the
# assisted rates.
_COMMANDS = {
    "iv-curve": (_cmd_iv_curve, _keys(f"grid_n {_LONE}")),
    "max-power": (_cmd_max_power, _keys(_LONE)),
    "gamma-grid": (_cmd_gamma_grid,
                   _keys(f"alignment d Te Th gamma_13 gamma_24 {_DEVICE}")),
    "efficiency-vs-d": (_cmd_efficiency_vs_d,
                        _keys(f"gamma_13 gamma_24 gamma_c gamma_v {_DEVICE}")),
    "phonon-assisted": (_cmd_phonon_assisted, _keys(_DEVICE)),
    "alignments": (_cmd_alignments, _keys("delta_c delta_e delta_h delta_v")),
    "calibrate": (_cmd_calibrate, ()),
    "verify": (_cmd_verify, ("seed",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdmcell",
        description="Steady-state photovoltaics of a tunnel-coupled "
                    "quantum-dot molecule.",
        epilog="Each subcommand's --help lists the config keys it reads.")
    parser.add_argument("--version", action="version",
                        version=f"qdmcell {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (fn, keys) in _COMMANDS.items():
        sp = sub.add_parser(
            name, help=fn.__doc__, description=fn.__doc__,
            epilog="Config keys (also usable as --set key=value): "
                   + ("; ".join(f"{k} [{_KEY_UNITS[k]}]" for k in keys)
                      or "none"))
        sp.add_argument("-c", "--config", metavar="FILE",
                        help="flat key = value config file")
        sp.add_argument("-o", "--output", metavar="FILE", default="-",
                        help="output path ('-' for stdout, the default)")
        sp.add_argument("--set", metavar="KEY=VALUE", action="append",
                        dest="overrides",
                        help="override a config key (repeatable)")
    return parser


def _discard_stdout() -> None:
    # The interpreter flushes stdout again as it exits, and would report
    # the same failure a second time; point the descriptor at the null
    # device so what is left in the buffer goes nowhere.
    with contextlib.suppress(OSError, ValueError):
        fd = sys.stdout.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    run, keys = _COMMANDS[args.subcommand]
    try:
        file_values = read_config_file(args.config) if args.config else {}
        overrides = _parse_overrides(args.overrides)
        unread = (file_values.keys() | overrides.keys()) - set(keys)
        if unread:
            raise ConfigError(f"{args.subcommand} does not take "
                              f"{', '.join(sorted(unread))}")
        config = build_config(file_values, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        output = (contextlib.nullcontext(sys.stdout) if args.output == "-"
                  else open(args.output, "w", encoding="utf-8", newline="\n"))
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        with output as out:
            code = run(config, out)
            out.flush()
            return code
    except OSError as exc:
        if args.output == "-":
            _discard_stdout()
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, InvalidGeometryError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
