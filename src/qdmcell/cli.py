"""Command-line front end.

Flat key=value configs, ``--key=value`` overrides, deterministic CSV
output with a '#' metadata block.  Exit codes: 0 success, 2 config
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields

from . import __version__
from .acceptance import calibrate, run_all
from .errors import (BoundaryMaximumError, ConfigError,
                     DegenerateSteadyStateError, DomainError,
                     InvalidGeometryError, NumericalSolveError, StepSizeError,
                     UndefinedEfficiencyError, VoltageUndefinedError)
from .model import BAND_ALIGNMENTS, ModelParams, apply_band_alignment
from .sweeps import (GridSpec, efficiency_vs_distance, gamma_grid_scan,
                     iv_curve, max_power_point, phonon_assisted_comparison)

_PARAM_KEYS = {f.name for f in fields(ModelParams)}

# All recognized config keys with their units, for --help and rejection
# diagnostics.  Rates are multiples of gamma; energies are meV.
_KEY_UNITS = {
    "kind": "qdm|sqd",
    "alignment": "|".join(BAND_ALIGNMENTS),
    "d": "nm (sets Te, Th from the exponential fit)",
    "E12": "meV", "delta_e": "meV", "delta_h": "meV",
    "delta_c": "meV", "delta_v": "meV", "Te": "meV", "Th": "meV",
    "gamma1": "gamma", "gamma2": "gamma",
    "gamma_c": "gamma", "gamma_v": "gamma", "Gamma": "gamma",
    "gamma_13": "gamma", "gamma_24": "gamma",
    "kTs": "meV", "kTc": "meV", "hbar_gamma": "meV",
    "grid_n": "points", "gamma_min": "gamma", "gamma_max": "gamma",
    "seed": "integer",
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration (model + sweep controls)."""

    params: ModelParams
    kind: str = "qdm"
    alignment: str = "0"
    d: float | None = None
    grid_n: int = 200
    gamma_min: float = 1e-6
    gamma_max: float = 1e6
    seed: int = 20260823

    def grid(self) -> GridSpec:
        return GridSpec(n=self.grid_n, gamma_min=self.gamma_min,
                        gamma_max=self.gamma_max)

    def resolved_params(self) -> ModelParams:
        p = apply_band_alignment(self.params, self.alignment)
        if self.d is not None:
            p = p.with_distance(self.d)
        return p

    def items(self):
        """(key, value) pairs of every recognized key, resolved."""
        p = self.resolved_params()
        out = [("kind", self.kind), ("alignment", self.alignment),
               ("d", "" if self.d is None else _fmt(self.d))]
        out += [(k, _fmt(getattr(p, k))) for k in sorted(_PARAM_KEYS)]
        out += [("grid_n", str(self.grid_n)),
                ("gamma_min", _fmt(self.gamma_min)),
                ("gamma_max", _fmt(self.gamma_max)),
                ("seed", str(self.seed))]
        return out


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in ("kind", "alignment"):
        return raw
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
        if key not in _KEY_UNITS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} "
                              f"(known: {', '.join(sorted(_KEY_UNITS))})")
        values[key] = _parse_value(key, raw)
    return values


def _parse_overrides(pairs) -> dict:
    values = {}
    for item in pairs or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in _KEY_UNITS:
            raise ConfigError(f"unknown key {key!r} "
                              f"(known: {', '.join(sorted(_KEY_UNITS))})")
        values[key] = _parse_value(key, raw)
    return values


def build_config(file_values: dict, override_values: dict) -> RunConfig:
    merged = dict(file_values)
    merged.update(override_values)
    kind = merged.pop("kind", "qdm")
    if kind not in ("qdm", "sqd"):
        raise ConfigError(f"kind must be qdm or sqd, got {kind!r}")
    alignment = merged.pop("alignment", "0")
    if alignment not in BAND_ALIGNMENTS:
        raise ConfigError(f"alignment must be one of "
                          f"{'/'.join(BAND_ALIGNMENTS)}, got {alignment!r}")
    d = merged.pop("d", None)
    grid_n = merged.pop("grid_n", 200)
    gamma_min = merged.pop("gamma_min", 1e-6)
    gamma_max = merged.pop("gamma_max", 1e6)
    seed = merged.pop("seed", 20260823)
    try:
        params = ModelParams(**merged)
    except (TypeError, DomainError) as exc:
        raise ConfigError(f"invalid model parameters: {exc}")
    try:
        cfg = RunConfig(params=params, kind=kind, alignment=alignment,
                        d=None if d is None else float(d),
                        grid_n=int(grid_n), gamma_min=float(gamma_min),
                        gamma_max=float(gamma_max), seed=int(seed))
        cfg.grid()  # validate sweep bounds eagerly
        cfg.resolved_params()
    except DomainError as exc:
        raise ConfigError(str(exc))
    return cfg


def _write_csv(out, subcommand: str, config: RunConfig,
               header: list, rows: list) -> None:
    out.write(f"# qdmcell {__version__} {subcommand}\n")
    for key, value in config.items():
        out.write(f"# {key} = {value}\n")
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _cmd_iv_curve(config: RunConfig, out) -> int:
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
    p = config.resolved_params()
    mpp = max_power_point(p, kind=config.kind, grid=config.grid())
    _write_csv(out, "max-power", config,
               ["Gamma_star_over_gamma", "j_over_egamma", "V_mV",
                "Pm_over_gamma_meV", "eta", "coh13", "coh24"],
               [(mpp.Gamma_star, mpp.j_mpp, mpp.V_mpp, mpp.P_m, mpp.eta,
                 mpp.coh13, mpp.coh24)])
    return 0


def _cmd_gamma_grid(config: RunConfig, out) -> int:
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
    rows = efficiency_vs_distance(config.params, grid=config.grid())
    _write_csv(out, "efficiency-vs-d", config,
               ["alignment", "d_nm", "Pm_over_gamma_meV", "eta",
                "coh13", "coh24"],
               [(r.alignment, r.d, r.P_m, r.eta, r.max_coh13, r.max_coh24)
                for r in rows])
    return 0


def _cmd_phonon_assisted(config: RunConfig, out) -> int:
    rows = phonon_assisted_comparison(config.params, grid=config.grid())
    _write_csv(out, "phonon-assisted", config,
               ["gamma_c_over_gamma", "gamma_v_over_gamma", "d_nm",
                "gamma_ph_over_gamma", "Pm_over_gamma_meV", "eta",
                "delta_Pm"],
               [(r.gamma_c, r.gamma_v, r.d, r.gamma_13, r.P_m, r.eta,
                 r.delta_Pm) for r in rows])
    return 0


def _cmd_alignments(config: RunConfig, out) -> int:
    rows = []
    for tag in BAND_ALIGNMENTS:
        p = apply_band_alignment(config.params, tag)
        rows.append((tag, p.delta_e, p.delta_h))
    _write_csv(out, "alignments", config,
               ["alignment", "delta_e_meV", "delta_h_meV"], rows)
    return 0


def _cmd_calibrate(config: RunConfig, out) -> int:
    cal = calibrate()
    out.write(f"hbar_gamma = {cal.hbar_gamma:g} meV\n")
    out.write(f"single dot:  Voc = {cal.sqd_Voc:.2f} mV, "
              f"jsc = {cal.sqd_jsc:.5f} e*gamma, "
              f"Pm = {cal.sqd_Pm:.3f} gamma*meV\n")
    out.write(f"molecule:    jsc = {cal.qdm_jsc:.5f} e*gamma, "
              f"Pm = {cal.qdm_Pm:.3f} gamma*meV\n")
    return 0


def _cmd_verify(config: RunConfig, out) -> int:
    results = run_all(seed=config.seed)
    for r in results:
        out.write(f"criterion {r.number} "
                  f"[{'PASS' if r.passed else 'FAIL'}] {r.name}\n")
        for line in r.details:
            out.write(f"    {line}\n")
    n_fail = sum(not r.passed for r in results)
    out.write(f"{len(results) - n_fail}/{len(results)} criteria passed\n")
    return 0 if n_fail == 0 else 3


_COMMANDS = {
    "iv-curve": _cmd_iv_curve,
    "max-power": _cmd_max_power,
    "gamma-grid": _cmd_gamma_grid,
    "efficiency-vs-d": _cmd_efficiency_vs_d,
    "phonon-assisted": _cmd_phonon_assisted,
    "alignments": _cmd_alignments,
    "calibrate": _cmd_calibrate,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdmcell",
        description="Steady-state photovoltaics of a tunnel-coupled "
                    "quantum-dot molecule.",
        epilog="Config keys (also usable as --set key=value): "
               + "; ".join(f"{k} [{u}]" for k, u in _KEY_UNITS.items()))
    parser.add_argument("--version", action="version",
                        version=f"qdmcell {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, fn in _COMMANDS.items():
        sp = sub.add_parser(name, help=fn.__doc__)
        sp.add_argument("-c", "--config", metavar="FILE",
                        help="flat key = value config file")
        sp.add_argument("-o", "--output", metavar="FILE", default="-",
                        help="output path ('-' for stdout, the default)")
        sp.add_argument("--set", metavar="KEY=VALUE", action="append",
                        dest="overrides",
                        help="override a config key (repeatable)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values = read_config_file(args.config) if args.config else {}
        config = build_config(file_values, _parse_overrides(args.overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.output == "-":
            return _COMMANDS[args.subcommand](config, sys.stdout)
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            return _COMMANDS[args.subcommand](config, fh)
    except (ConfigError, InvalidGeometryError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalSolveError, DegenerateSteadyStateError,
            BoundaryMaximumError, VoltageUndefinedError,
            UndefinedEfficiencyError, StepSizeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
