"""Physical model of the quantum-dot-molecule photocell.

Six levels: conduction states |1>, |3| of the two dots, valence states
|2>, |4>, and the contact (electrode) states |5>, |6>.  Solar radiation
pumps |2>->|1> and |4>->|3>, ambient phonons relax |3>->|5> and |6>->|2>,
and an external load transfers |5>->|6> at rate Gamma.  Energies are in
meV, all rates in multiples of the reference radiative rate gamma.

The reduced state is a real 10-vector:

    (rho11..rho66, Re rho13, Im rho13, Re rho24, Im rho24)

The single-dot baseline uses the same layout and leaves |3>, |4> and
both coherences at zero.

The channels of the master equation are written once, in
``_add_channels``.  ``build_generator``, the one builder and the only
place a load enters, returns a ``GeneratorStack``, matrices M[i, j, k]
with the devices last: a lone device is a stack of one, and the scans
pass arrays of the fields that vary, one entry per device.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvalidGeometryError

# State-vector layout.
IDX_P11, IDX_P22, IDX_P33, IDX_P44, IDX_P55, IDX_P66 = range(6)
IDX_RE13, IDX_IM13, IDX_RE24, IDX_IM24 = 6, 7, 8, 9
N_STATE = 10
POPULATION_INDICES = (IDX_P11, IDX_P22, IDX_P33, IDX_P44, IDX_P55, IDX_P66)

QDM_ACTIVE = tuple(range(N_STATE))
SQD_ACTIVE = (IDX_P11, IDX_P22, IDX_P55, IDX_P66)

# Energy equivalent of the reference rate: gamma = 1/ns for a typical
# InAs radiative lifetime, i.e. hbar*gamma = 6.58e-4 meV.
HBAR_GAMMA_DEFAULT = 6.58e-4

# Exponential fits of the electron/hole anticrossing energies versus
# barrier width (meV, nm): amplitude * exp(-d / decay).
TUNNELING_FIT_E = (11.67, 7.14)
TUNNELING_FIT_H = (2.2, 3.37)

# Floor on the phonon energy entering the assisted-tunneling occupation,
# so exactly resonant levels do not hit the Bose divergence.
PHONON_ENERGY_FLOOR = 0.01

BAND_ALIGNMENTS = ("0", "A1", "A2", "B1", "B2")


# 1/x is finite for every x at or above this.
_SMALLEST_INVERTIBLE = 2.0 / sys.float_info.max

# Bound on the generator entries: eliminating the coherences adds squares
# of them (D^2 + Delta^2), which stays finite below this.
_RATE_LIMIT = math.sqrt(sys.float_info.max / 2.0)


def _bose(E, kT):
    # 1/(exp(E/kT) - 1) where the domain checks hold, on floats or arrays.
    # ``math`` takes an array's distinct ratios (few in a scan): numpy's
    # vectorised exp/expm1 may differ from the C library's in the last bit.
    x = E / kT
    if not isinstance(x, float):
        ratios, where = np.unique(x, return_inverse=True)
        return np.array([_bose(r, 1.0) for r in ratios.tolist()])[where]
    if x > 700.0:  # expm1 would overflow; occupation ~ e^-x
        return math.exp(-x)
    em1 = math.expm1(x)
    if not em1 >= _SMALLEST_INVERTIBLE:
        raise DomainError(f"thermal occupation overflows at E/kT = {x}")
    return 1.0 / em1


def bose_occupation(E: float, kT: float) -> float:
    """Mean thermal occupation 1/(exp(E/kT) - 1) of a mode at energy E."""
    if not E > 0.0:
        raise DomainError(f"bose_occupation needs E > 0, got {E}")
    if not 0.0 < kT < math.inf:
        raise DomainError(f"bose_occupation needs finite kT > 0, got {kT}")
    return _bose(E, kT)


def tunneling_from_distance(d: float) -> tuple[float, float]:
    """Electron/hole tunneling energies (meV) for barrier width d (nm).

    Half of the exponentially fitted anticrossing energies, following a
    two-level avoided-crossing picture.
    """
    if not 0.0 < d < math.inf:
        raise DomainError(f"barrier width must be finite and positive, "
                          f"got {d}")
    amp_e, dec_e = TUNNELING_FIT_E
    amp_h, dec_h = TUNNELING_FIT_H
    return 0.5 * amp_e * math.exp(-d / dec_e), 0.5 * amp_h * math.exp(-d / dec_h)


_TE_D2, _TH_D2 = tunneling_from_distance(2.0)


# The domain of each parameter: lower bound <= value < inf.  Every bound
# is closed, so "positive" uses the smallest positive float; NaN fails
# every bound.  ``ModelParams`` checks floats, ``build_generator`` the
# arrays of the fields it varies.
_FIELD_RULES = (
    (("gamma1", "gamma2", "gamma_c", "gamma_v", "gamma_13", "gamma_24"),
     0.0, "rate {} must be finite and >= 0"),
    (("kTs", "kTc", "E12", "hbar_gamma"), math.ulp(0.0),
     "{} must be finite and positive"),
    (("delta_e", "delta_h", "delta_c", "delta_v", "Te", "Th"),
     -sys.float_info.max, "{} must be finite"),
)


@dataclass(frozen=True)
class ModelParams:
    """All physical inputs of a device; the load rate is a sweep axis.

    Energies in meV; every rate is a multiple of the reference radiative
    rate gamma.  ``hbar_gamma`` converts tunneling/detuning energies
    into that rate unit.  Defaults are the reference operating point:
    dot-1 gap 1115 meV, 3 meV interdot detunings, 2 meV contact offsets,
    tunnelings for a 2 nm barrier, sun at 500 meV, lattice at 25.9 meV.
    """

    E12: float = 1115.0
    delta_e: float = 3.0
    delta_h: float = 3.0
    delta_c: float = 2.0
    delta_v: float = 2.0
    Te: float = _TE_D2
    Th: float = _TH_D2
    gamma1: float = 1.0
    gamma2: float = 1.0
    gamma_c: float = 100.0
    gamma_v: float = 0.05
    kTs: float = 500.0
    kTc: float = 25.9
    hbar_gamma: float = HBAR_GAMMA_DEFAULT
    gamma_13: float = 0.0
    gamma_24: float = 0.0

    def __post_init__(self):
        values, inf = self.__dict__, math.inf
        for names, low, message in _FIELD_RULES:
            for name in names:
                if not low <= values[name] < inf:
                    raise DomainError(message.format(name))

    def replace(self, **changes) -> "ModelParams":
        # ``dataclasses.replace`` without its per-field ``__init__`` call.
        if unknown := changes.keys() - self.__dict__.keys():
            raise TypeError(f"ModelParams has no field {sorted(unknown)}")
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__, **changes)
        copy.__post_init__()
        return copy

    def with_distance(self, d: float) -> "ModelParams":
        """Set both tunneling energies from the barrier width d (nm)."""
        te, th = tunneling_from_distance(d)
        return self.replace(Te=te, Th=th)


class LevelEnergies(NamedTuple):
    """Absolute level energies w1..w6 (meV), the valence state of dot 1 at
    zero, and the transition energies E12 = w1 - w2, E34 = w3 - w4,
    E35 = w3 - w5, E62 = w6 - w2 and e5_minus_e6 = w5 - w6.  The fields
    are floats for one device, or one entry per device of a stack.
    """

    w1: float
    w2: float
    w3: float
    w4: float
    w5: float
    w6: float
    E12: float
    E34: float
    E35: float
    E62: float
    e5_minus_e6: float


def _place_levels(f, kind: str) -> LevelEnergies:
    # The six levels from the gap, detunings and contact offsets in ``f``
    # (floats, or arrays over a stack).  The single dot has only |1>, |2>,
    # |5>, |6>: |3>, |4> are aliased onto |1>, |2>, so its conduction
    # contact hangs delta_c below |1> and the derived fields stay defined.
    w1, w2 = f["E12"], 0.0
    if kind == "qdm":
        w3, w4 = w1 - f["delta_e"], w2 + f["delta_h"]
    elif kind == "sqd":
        w3, w4 = w1, w2
    else:
        raise DomainError(f"unknown model kind {kind!r}")
    w5, w6 = w3 - f["delta_c"], w2 + f["delta_v"]
    return LevelEnergies(w1, w2, w3, w4, w5, w6, w1 - w2, w3 - w4, w3 - w5,
                         w6 - w2, w5 - w6)


def _level_checks(e: LevelEnergies, kind: str) -> list:
    # Whether each device's levels are a layout of the model, as ordered
    # (ok, error) pairs (see ``_record``).
    downhill = (e.E35 > 0.0) & (e.E62 > 0.0)
    if kind == "sqd":
        return [(downhill, lambda k: InvalidGeometryError(
            "contact offsets delta_c, delta_v must be positive for the "
            "single-dot model"))]
    return [
        ((abs(e.w3) < math.inf) & (abs(e.w5) < math.inf),
         lambda k: DomainError("level energies overflow: w3 = "
                               f"{np.ravel(e.w3)[k]}, w5 = "
                               f"{np.ravel(e.w5)[k]}")),
        (e.E34 > 0.0, lambda k: InvalidGeometryError(
            f"E34 = {np.ravel(e.E34)[k]} meV <= 0: detunings exceed the "
            "gap")),
        (downhill, lambda k: InvalidGeometryError(
            "phonon channels must be downhill: need E35 > 0 and E62 > 0, "
            f"got E35 = {np.ravel(e.E35)[k]}, E62 = {np.ravel(e.E62)[k]}"))]


def _record(errors: list, checks) -> list:
    # Record, for each device not failed yet (None in ``errors``), the
    # error of the first of ``checks`` it fails, and return ``errors``.
    # The checks are (ok, error) pairs in the order they apply: ``ok`` is
    # a bool for all devices or one per device, ``error(k)`` device k's
    # exception.
    for ok, error in checks:
        if ok is True or ok is not False and np.count_nonzero(ok) == ok.size:
            continue
        for k in np.flatnonzero(~np.broadcast_to(ok, len(errors))):
            if errors[k] is None:
                errors[k] = error(int(k))
    return errors


def _raise_first(errors) -> None:
    # Raise the first error that ``_record`` recorded, if any.
    for exc in errors:
        if exc is not None:
            raise exc


class ThermalOccupations(NamedTuple):
    """Mean photon (n1, n2) and phonon (nc, nv) reservoir occupations."""

    n1: float
    n2: float
    nc: float
    nv: float


def _occupations(e: LevelEnergies, f, kind: str) -> tuple:
    # n1, n2, nc, nv; the single dot has no second dot, hence no n2.
    kTs, kTc = f["kTs"], f["kTc"]
    return (_bose(e.E12, kTs), _bose(e.E34, kTs) if kind == "qdm" else None,
            _bose(e.E35, kTc), _bose(e.E62, kTc))


def thermal_occupations(params: ModelParams) -> ThermalOccupations:
    """Reservoir occupations for the molecule's four incoherent channels."""
    e = _place_levels(params.__dict__, "qdm")
    _raise_first(_record([None], _level_checks(e, "qdm")))
    return ThermalOccupations(*_occupations(e, params.__dict__, "qdm"))


def apply_band_alignment(params: ModelParams, config: str) -> ModelParams:
    """Replace the interdot detunings with one of the resonant alignments.

    ``config`` is one of "0", "A1", "A2", "B1", "B2".  The base params
    carry the reference detunings; contact offsets are kept fixed.  "A"
    configurations make the conduction (valence) levels of the two dots
    degenerate; "B" configurations align a dot level with its contact.
    """
    de0, dh0 = params.delta_e, params.delta_h
    if config == "0":
        return params
    if config == "A1":
        de, dh = 0.0, dh0 + de0
    elif config == "A2":
        de, dh = dh0 + de0, 0.0
    elif config == "B1":
        de, dh = -params.delta_c, dh0 + de0 + params.delta_c
    elif config == "B2":
        de, dh = de0 + dh0 - params.delta_v, params.delta_v
    else:
        raise DomainError(f"unknown band alignment {config!r}; "
                          f"expected one of {BAND_ALIGNMENTS}")
    return params.replace(delta_e=de, delta_h=dh)


def _add_thermal_channel(M: np.ndarray, upper: int, lower: int,
                         rate: float, n: float) -> None:
    # Two-level thermal (detailed-balance) population channel:
    # downhill at rate*(n+1), uphill at rate*n.
    M[upper, upper] -= rate * (n + 1.0)
    M[lower, upper] += rate * (n + 1.0)
    M[lower, lower] -= rate * n
    M[upper, lower] += rate * n


def _add_channels(M: np.ndarray, f, e: LevelEnergies, kind: str) -> None:
    # Every channel of the zero-load master equation, into a lone device's
    # (10, 10) M from floats or a stack's (10, 10, N) from fields that are
    # floats or one value per device: the same arithmetic in the same order.
    g1, g2, gc, gv = f["gamma1"], f["gamma2"], f["gamma_c"], f["gamma_v"]
    n1, n2, nc, nv = _occupations(e, f, kind)
    qdm = kind == "qdm"
    _add_thermal_channel(M, IDX_P11, IDX_P22, g1, n1)
    # Valence contact sits above the dot-1 valence state: |6> -> |2> is
    # the phonon-emission direction.
    _add_thermal_channel(M, IDX_P66, IDX_P22, gv, nv)
    if qdm:
        _add_thermal_channel(M, IDX_P33, IDX_P44, g2, n2)
    # Electrons leave through the second dot; the single dot's from |1>.
    _add_thermal_channel(M, IDX_P33 if qdm else IDX_P11, IDX_P55, gc, nc)
    if not qdm:
        return

    # Each interdot pair (a, b), with coherence rho_ab = re + i im:
    # coherent tunneling t, detuning (w_a - w_b) and damping, in units of
    # gamma through hbar_gamma; then the phonon-assisted channel.
    hg, kTc = f["hbar_gamma"], f["kTc"]
    for a, b, re, im, t, gap, damp, rate in (
            (IDX_P11, IDX_P33, IDX_RE13, IDX_IM13, f["Te"] / hg, e.w1 - e.w3,
             0.5 * (g1 * (n1 + 1.0) + g2 * (n2 + 1.0) + gc * (nc + 1.0)),
             f["gamma_13"]),
            (IDX_P22, IDX_P44, IDX_RE24, IDX_IM24, f["Th"] / hg, e.w2 - e.w4,
             0.5 * (g1 * n1 + g2 * n2 + gv * nv), f["gamma_24"])):
        det = gap / hg
        M[a, im] += -2.0 * t
        M[b, im] += 2.0 * t
        M[re, re] += -damp
        M[re, im] += det
        M[im, re] += -det
        M[im, im] += -damp
        M[im, b] += -t
        M[im, a] += t
        # Phonon-assisted tunneling: a thermal channel downhill across the
        # gap, with the phonon energy floored so that resonant levels stay
        # off the Bose divergence, and the dephasing it adds to rho_ab.
        # The devices of a stack without it get E / False = inf, so n = 0.
        on = rate > 0.0  # a bool for a lone device
        if on is False or not np.count_nonzero(on):
            continue
        n = _bose(np.maximum(abs(gap), PHONON_ENERGY_FLOOR) / on, kTc)
        _add_thermal_channel(M, a, b, rate * (gap >= 0.0), n)
        _add_thermal_channel(M, b, a, rate * (gap < 0.0), n)
        extra = 0.5 * rate * (2.0 * n + 1.0)
        M[re, re] -= extra
        M[im, im] -= extra


@dataclass(frozen=True)
class GeneratorStack:
    """Real linear generators d/dt x = M x on the 10-component state,
    device k's at ``matrix[..., k]``; ``active`` lists the components the
    model couples.  The energies the maximum-power search reads, ``kTc``
    and ``max_rate`` (each matrix's largest entry in magnitude) hold one
    value per device."""

    matrix: np.ndarray  # (10, 10, N)
    active: tuple
    e5_minus_e6: np.ndarray
    E12: np.ndarray
    E34: np.ndarray
    kTc: np.ndarray
    max_rate: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "max_rate",
                           np.abs(self.matrix).max(axis=(0, 1)))


def _check_fields(params: ModelParams, names) -> None:
    # Only the fields of ``params`` vary; the load is an argument.
    if unknown := names - params.__dict__.keys():
        raise DomainError(f"cannot vary {sorted(unknown)} in a generator "
                          f"stack; fields: {', '.join(params.__dict__)}")


def _stack_columns(params: ModelParams, varied: dict, Gamma) -> tuple:
    # The fields, floats of ``params`` or arrays of ``varied``; the load;
    # the device count; the varied fields' checks in ``ModelParams``' order.
    _check_fields(params, varied.keys())
    cols = {name: np.asarray(values, dtype=float)
            for name, values in varied.items()}
    shapes = {col.shape for col in cols.values()}
    if np.ndim(Gamma):
        Gamma = np.asarray(Gamma, dtype=float)
        shapes.add(Gamma.shape)
    if len(shapes) > 1 or any(len(s) != 1 or s == (0,) for s in shapes):
        raise DomainError("varied fields need equal-length nonempty 1-D "
                          f"arrays, got shapes {sorted(shapes)}")
    checks = [((cols[name] >= low) & (cols[name] < math.inf),
               lambda k, text=message.format(name): DomainError(text))
              for names, low, message in _FIELD_RULES
              for name in names if name in cols]
    return (dict(params.__dict__, **cols), Gamma,
            shapes.pop()[0] if shapes else 1, checks)


def build_generator(params: ModelParams, kind: str, Gamma=0.0,
                    **varied) -> GeneratorStack:
    """Generators of the molecule ("qdm") or of the single dot ("sqd")
    with the same gap at load rate ``Gamma``: a float, or one per device.

    ``varied`` maps fields to equal-length arrays, one entry per device,
    and ``params`` sets the others; without either the stack holds the
    device of ``params``.  Device k's matrix is, bit for bit, the lone
    build of its own parameters and load.  Input errors (``DomainError``,
    ``InvalidGeometryError``) are checked in order (the varied fields'
    domains, the load, the level layout, every entry below the rate
    limit); the first device that fails raises its first failed check.

    The molecule's coupled population/coherence equations carry the
    conjugate coherences as Re/Im rho13 and Re/Im rho24.  The single dot
    couples four levels, the dot pair |1>, |2> and the contacts, with the
    conduction escape attached directly to |1>; it ignores the tunnelings
    and the second dot, and its coherence components stay zero.
    """
    if not varied and isinstance(Gamma, (int, float)):
        return _build(params.__dict__, Gamma, 1, [], kind, lone=True)
    # Overflow and invalid values end up in entries that the checks reject.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _build(*_stack_columns(params, varied, Gamma), kind)


def _build(f, Gamma, n: int, checks: list, kind: str,
           lone: bool = False) -> GeneratorStack:
    # ``build_generator`` from fields ``f`` after the varied fields'
    # ``checks``; a lone device fills its 2-D view entry by entry.
    e = _place_levels(f, kind)
    errors = _record([None] * n, [*checks, (
        (Gamma >= 0.0) & (Gamma < math.inf),
        lambda k: DomainError("load rate Gamma must be finite and >= 0, "
                              f"got {np.ravel(Gamma)[k]}")),
        *_level_checks(e, kind)])
    _raise_first(errors)
    M = np.zeros((N_STATE, N_STATE, n))
    fill = M[..., 0] if lone else M
    _add_channels(fill, f, e, kind)
    fill[IDX_P55, IDX_P55] += -Gamma
    fill[IDX_P66, IDX_P55] += Gamma
    values = (e.e5_minus_e6, e.E12, e.E34, f["kTc"])
    energies = (np.array(values)[:, None] if lone
                else np.array([np.broadcast_to(v, n) for v in values]))
    M.setflags(write=False)
    energies.setflags(write=False)
    g = GeneratorStack(M, QDM_ACTIVE if kind == "qdm" else SQD_ACTIVE,
                       *energies)
    _raise_first(_record(errors, [(
        g.max_rate < _RATE_LIMIT, lambda k: DomainError(
            f"generator entry {g.max_rate[k]:.3e} (gamma units) is not "
            f"below {_RATE_LIMIT:.3e}: a rate, or a tunneling or detuning "
            "over hbar_gamma, overflows"))]))
    return g
