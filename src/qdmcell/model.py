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
``_add_channels``.  ``build_generator`` fills one device's matrix from
floats; the parameter scans build all their devices at once with
``build_generator_stack``, which takes a base parameter set plus arrays
of the fields that vary and fills the zero-load generators from arrays,
as one (N, 10, 10) stack equal, entry for entry, to the single-device
builds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

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


def _bose_of_ratio(x: float) -> float:
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
    return _bose_of_ratio(E / kT)


def _bose_stack(E: np.ndarray, kT) -> np.ndarray:
    # ``bose_occupation`` over arrays the domain checks already cover.  The
    # exponentials go through ``math`` once per distinct ratio: numpy's
    # vectorised exp/expm1 may differ from the C library's in the last bit,
    # and a scan holds few distinct energies.
    ratios, where = np.unique(E / kT, return_inverse=True)
    return np.array([_bose_of_ratio(x) for x in ratios.tolist()])[where]


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
# every bound.  ``ModelParams`` checks floats, ``build_generator_stack``
# arrays.
_FIELD_RULES = (
    (("gamma1", "gamma2", "gamma_c", "gamma_v", "Gamma", "gamma_13",
      "gamma_24"), 0.0, "rate {} must be finite and >= 0"),
    (("kTs", "kTc", "E12", "hbar_gamma"), math.ulp(0.0),
     "{} must be finite and positive"),
    (("delta_e", "delta_h", "delta_c", "delta_v", "Te", "Th"),
     -sys.float_info.max, "{} must be finite"),
)


@dataclass(frozen=True)
class ModelParams:
    """All physical inputs.

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
    Gamma: float = 1.0
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


# The fields a generator stack may vary: all but the load.
_STACK_FIELDS = tuple(f.name for f in fields(ModelParams) if f.name != "Gamma")


@dataclass(frozen=True)
class LevelEnergies:
    """Absolute level energies (meV) and the derived transition energies.

    Reference: valence state of dot 1 at zero.  The fields are floats for
    one device, or arrays with one entry per device of a generator stack.
    """

    w1: float
    w2: float
    w3: float
    w4: float
    w5: float
    w6: float

    @property
    def E12(self) -> float:
        return self.w1 - self.w2

    @property
    def E34(self) -> float:
        return self.w3 - self.w4

    @property
    def E35(self) -> float:
        return self.w3 - self.w5

    @property
    def E62(self) -> float:
        return self.w6 - self.w2

    @property
    def e5_minus_e6(self) -> float:
        return self.w5 - self.w6


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
    return LevelEnergies(w1, w2, w3, w4, w3 - f["delta_c"], w2 + f["delta_v"])


def _device_levels(params: ModelParams, kind: str) -> LevelEnergies:
    # One device's levels; a layout outside the model raises.
    e = _place_levels(params.__dict__, kind)
    if kind == "sqd":
        if e.E35 <= 0.0 or e.E62 <= 0.0:
            raise InvalidGeometryError(
                "contact offsets delta_c, delta_v must be positive for the "
                "single-dot model")
        return e
    if not (abs(e.w3) < math.inf and abs(e.w5) < math.inf):
        raise DomainError(
            f"level energies overflow: w3 = {e.w3}, w5 = {e.w5}")
    if e.E34 <= 0.0:
        raise InvalidGeometryError(
            f"E34 = {e.E34} meV <= 0: detunings exceed the gap")
    if e.E35 <= 0.0 or e.E62 <= 0.0:
        raise InvalidGeometryError(
            "phonon channels must be downhill: need E35 > 0 and E62 > 0, "
            f"got E35 = {e.E35}, E62 = {e.E62}")
    return e


@dataclass(frozen=True)
class ThermalOccupations:
    """Mean photon (n1, n2) and phonon (nc, nv) reservoir occupations."""

    n1: float
    n2: float
    nc: float
    nv: float


def _occupations(e: LevelEnergies, f, occupation, kind: str) -> tuple:
    # n1, n2, nc, nv; the single dot has no second dot, hence no n2.
    kTs, kTc = f["kTs"], f["kTc"]
    return (occupation(e.E12, kTs),
            occupation(e.E34, kTs) if kind == "qdm" else None,
            occupation(e.E35, kTc), occupation(e.E62, kTc))


def thermal_occupations(params: ModelParams) -> ThermalOccupations:
    """Reservoir occupations for the molecule's four incoherent channels."""
    return ThermalOccupations(*_occupations(
        _device_levels(params, "qdm"), params.__dict__, bose_occupation,
        "qdm"))


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


@dataclass(frozen=True)
class GeneratorMatrix:
    """Real linear generator d/dt x = M x on the 10-component state.

    ``energies`` places the device's levels; ``active`` lists the state
    components the model actually couples.
    """

    matrix: np.ndarray
    energies: LevelEnergies
    active: tuple

    def __post_init__(self):
        self.matrix.setflags(write=False)
        if not self.max_rate < _RATE_LIMIT:
            raise DomainError(
                f"generator entry {self.max_rate:.3e} (gamma units) is not "
                f"below {_RATE_LIMIT:.3e}: a rate, or a tunneling or "
                "detuning over hbar_gamma, overflows")

    @property
    def max_rate(self) -> float:
        return float(np.abs(self.matrix).max())


def _add_thermal_channel(M: np.ndarray, upper: int, lower: int,
                         rate: float, n: float) -> None:
    # Two-level thermal (detailed-balance) population channel:
    # downhill at rate*(n+1), uphill at rate*n.
    M[upper, upper] -= rate * (n + 1.0)
    M[lower, upper] += rate * (n + 1.0)
    M[lower, lower] -= rate * n
    M[upper, lower] += rate * n


def _add_channels(M: np.ndarray, f, e: LevelEnergies, occupation,
                  kind: str) -> None:
    # Every channel of the zero-load master equation, written once for
    # both builders.  One device fills a (10, 10) M from floats (``f`` is
    # ``params.__dict__``, ``occupation`` is ``bose_occupation``); a stack
    # fills (10, 10, N), devices last, from arrays (``_bose_stack``).  The
    # arithmetic and its order are the same for both, so each matrix of a
    # stack equals its single-device build bit for bit.
    g1, g2, gc, gv = f["gamma1"], f["gamma2"], f["gamma_c"], f["gamma_v"]
    n1, n2, nc, nv = _occupations(e, f, occupation, kind)
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
        on = rate > 0.0
        if not np.count_nonzero(on):
            continue
        n = occupation(np.maximum(abs(gap), PHONON_ENERGY_FLOOR) / on, kTc)
        _add_thermal_channel(M, a, b, rate * (gap >= 0.0), n)
        _add_thermal_channel(M, b, a, rate * (gap < 0.0), n)
        extra = 0.5 * rate * (2.0 * n + 1.0)
        M[re, re] -= extra
        M[im, im] -= extra


def build_generator(params: ModelParams, kind: str) -> GeneratorMatrix:
    """Generator of one device: the molecule ("qdm") or the single dot
    ("sqd") with the same gap.

    The molecule's coupled population/coherence equations carry the
    conjugate coherences as Re/Im rho13 and Re/Im rho24.  The single dot
    couples four levels, the dot pair |1>, |2> and the contacts, with the
    conduction escape attached directly to |1>; it ignores the tunnelings
    and the second dot, and its coherence components stay zero.
    """
    energies = _device_levels(params, kind)
    M = np.zeros((N_STATE, N_STATE))
    _add_channels(M, params.__dict__, energies, bose_occupation, kind)
    M[IDX_P55, IDX_P55] += -params.Gamma
    M[IDX_P66, IDX_P55] += params.Gamma
    return GeneratorMatrix(M, energies,
                           QDM_ACTIVE if kind == "qdm" else SQD_ACTIVE)


@dataclass(frozen=True)
class GeneratorStack:
    """Zero-load generators of a batch of devices, with the energies that
    the maximum-power search needs; one entry per device."""

    matrix: np.ndarray  # (N, 10, 10)
    active: tuple
    e5_minus_e6: np.ndarray
    E12: np.ndarray
    E34: np.ndarray
    kTc: np.ndarray


def _stack_columns(params: ModelParams, varied: dict) -> tuple:
    # Every field as an array over the devices, and per device whether
    # the varied fields are in their domain.
    unknown = set(varied) - set(_STACK_FIELDS)
    if unknown:
        raise DomainError(f"cannot vary {sorted(unknown)} in a generator "
                          f"stack; fields: {', '.join(_STACK_FIELDS)}")
    cols = {name: np.asarray(values, dtype=float)
            for name, values in varied.items()}
    shapes = {col.shape for col in cols.values()}
    if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
        raise DomainError("varied fields need equal-length 1-D arrays, got "
                          f"shapes {sorted(shapes)}")
    n = shapes.pop()[0] if shapes else 1
    ok = np.ones(n, dtype=bool)
    for names, low, _ in _FIELD_RULES:
        for name in names:
            if name in cols:
                ok &= (cols[name] >= low) & (cols[name] < math.inf)
    for name in _STACK_FIELDS:
        cols.setdefault(name, np.full(n, getattr(params, name)))
    return cols, ok


def _raise_first_invalid(params: ModelParams, cols: dict, ok: np.ndarray,
                         kind: str) -> None:
    # The first device not ``ok`` raises its single-device input error.
    if not ok.all():
        k = int(np.argmin(ok))
        build_generator(params.replace(
            **{name: float(col[k]) for name, col in cols.items()}), kind)
        raise DomainError(f"device {k} is outside the model's domain")


# Overflow and invalid values end up in entries that the checks reject.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def build_generator_stack(params: ModelParams, kind: str,
                          **varied) -> GeneratorStack:
    """Zero-load generators of many devices in one array pass.

    ``params`` sets every field that ``varied`` does not; ``varied`` maps
    field names to equal-length arrays, one entry per device.  The stack
    fills the same channels as ``build_generator``, so entry for entry it
    equals the matrices of ``build_generator(device.replace(Gamma=0.0),
    kind)``.  An input error (``DomainError``, ``InvalidGeometryError``)
    is raised once, for the first device that has one, by building that
    device on the single-device path.
    """
    c, ok = _stack_columns(params, varied)
    e = _place_levels(c, kind)
    ok &= ((abs(e.w3) < math.inf) & (abs(e.w5) < math.inf)
           & (e.E34 > 0.0) & (e.E35 > 0.0) & (e.E62 > 0.0))
    _raise_first_invalid(params, c, ok, kind)
    M = np.zeros((N_STATE, N_STATE, len(ok)))
    _add_channels(M, c, e, _bose_stack, kind)
    # Devices first, once every device's entries are in the range that
    # ``GeneratorMatrix`` accepts.
    _raise_first_invalid(params, c, np.abs(M).max(axis=(0, 1)) < _RATE_LIMIT,
                         kind)
    return GeneratorStack(np.ascontiguousarray(np.moveaxis(M, -1, 0)),
                          QDM_ACTIVE if kind == "qdm" else SQD_ACTIVE,
                          e.e5_minus_e6, e.E12, e.E34, c["kTc"])
