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

``build_generator`` builds one device's generator; it is the
single-device path and the reference for everything else.  The
parameter scans build all their devices at once with
``build_generator_stack``, which takes a base parameter set plus arrays
of the fields that vary and returns the zero-load generators as one
(N, 10, 10) stack, entry for entry equal to the single-device builds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace

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


_TE_D2, _TH_D2 = 0.5 * 11.67 * math.exp(-2 / 7.14), 0.5 * 2.2 * math.exp(-2 / 3.37)


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
        return replace(self, **changes)

    def with_distance(self, d: float) -> "ModelParams":
        """Set both tunneling energies from the barrier width d (nm)."""
        te, th = tunneling_from_distance(d)
        return replace(self, Te=te, Th=th)


# The fields a generator stack may vary: all but the load.
_STACK_FIELDS = tuple(f.name for f in fields(ModelParams) if f.name != "Gamma")


@dataclass(frozen=True)
class LevelEnergies:
    """Absolute level energies (meV) and the derived transition energies.

    Reference: valence state of dot 1 at zero.
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


def derive_level_energies(params: ModelParams) -> LevelEnergies:
    """Place the six levels from the gap, detunings, and contact offsets."""
    w2 = 0.0
    w1 = params.E12
    w3 = w1 - params.delta_e
    w4 = w2 + params.delta_h
    w5 = w3 - params.delta_c
    w6 = w2 + params.delta_v
    if not (abs(w3) < math.inf and abs(w5) < math.inf):
        raise DomainError(f"level energies overflow: w3 = {w3}, w5 = {w5}")
    energies = LevelEnergies(w1, w2, w3, w4, w5, w6)
    if energies.E34 <= 0.0:
        raise InvalidGeometryError(
            f"E34 = {energies.E34} meV <= 0: detunings exceed the gap")
    if energies.E35 <= 0.0 or energies.E62 <= 0.0:
        raise InvalidGeometryError(
            "phonon channels must be downhill: need E35 > 0 and E62 > 0, "
            f"got E35 = {energies.E35}, E62 = {energies.E62}")
    return energies


def _sqd_level_energies(params: ModelParams) -> LevelEnergies:
    # Single dot: only |1>, |2>, |5>, |6> are physical.  The conduction
    # contact hangs delta_c below |1>; |3>, |4> are aliased onto |1>, |2>
    # so the derived fields stay well defined.
    w2 = 0.0
    w1 = params.E12
    w5 = w1 - params.delta_c
    w6 = w2 + params.delta_v
    energies = LevelEnergies(w1, w2, w1, w2, w5, w6)
    if energies.E35 <= 0.0 or energies.E62 <= 0.0:
        raise InvalidGeometryError(
            "contact offsets delta_c, delta_v must be positive for the "
            "single-dot model")
    return energies


@dataclass(frozen=True)
class ThermalOccupations:
    """Mean photon (n1, n2) and phonon (nc, nv) reservoir occupations."""

    n1: float
    n2: float
    nc: float
    nv: float


def thermal_occupations(params: ModelParams) -> ThermalOccupations:
    """Reservoir occupations for the molecule's four incoherent channels."""
    return _occupations(derive_level_energies(params), params)


def _occupations(energies: LevelEnergies,
                 params: ModelParams) -> ThermalOccupations:
    return ThermalOccupations(
        n1=bose_occupation(energies.E12, params.kTs),
        n2=bose_occupation(energies.E34, params.kTs),
        nc=bose_occupation(energies.E35, params.kTc),
        nv=bose_occupation(energies.E62, params.kTc),
    )


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


def _add_phonon_assisted(M: np.ndarray, rate: float, gap: float, kTc: float,
                         levels: tuple, coherence: tuple) -> None:
    # Optional phonon-assisted tunneling across the interdot gap
    # w_a - w_b of ``levels`` (a, b): an incoherent thermal channel with a
    # floored phonon energy, and the dephasing it adds to ``coherence``.
    if not rate > 0.0:
        return
    n_ph = bose_occupation(max(abs(gap), PHONON_ENERGY_FLOOR), kTc)
    a, b = levels
    upper, lower = (a, b) if gap >= 0 else (b, a)
    _add_thermal_channel(M, upper, lower, rate, n_ph)
    extra = 0.5 * rate * (2.0 * n_ph + 1.0)
    for k in coherence:
        M[k, k] -= extra


def build_qdm_generator(params: ModelParams) -> GeneratorMatrix:
    """Generator of the six-level molecule master equation.

    Encodes the coupled population/coherence equations with the conjugate
    coherences eliminated in favor of Re/Im rho13 and Re/Im rho24.
    Tunneling and detuning energies are converted to the gamma time unit
    through hbar_gamma.
    """
    energies = derive_level_energies(params)
    occ = _occupations(energies, params)
    n1, n2, nc, nv = occ.n1, occ.n2, occ.nc, occ.nv
    g1, g2 = params.gamma1, params.gamma2
    gc, gv, load = params.gamma_c, params.gamma_v, params.Gamma

    # Angular frequencies in units of gamma.
    te = params.Te / params.hbar_gamma
    th = params.Th / params.hbar_gamma
    det_e = (energies.w1 - energies.w3) / params.hbar_gamma
    det_h = (energies.w2 - energies.w4) / params.hbar_gamma

    M = np.zeros((N_STATE, N_STATE))

    # Populations.
    M[IDX_P11, IDX_IM13] += -2.0 * te
    _add_thermal_channel(M, IDX_P11, IDX_P22, g1, n1)
    M[IDX_P22, IDX_IM24] += -2.0 * th
    # Valence contact sits above the dot-1 valence state: |6> -> |2> is
    # the phonon-emission direction.
    _add_thermal_channel(M, IDX_P66, IDX_P22, gv, nv)
    M[IDX_P33, IDX_IM13] += 2.0 * te
    _add_thermal_channel(M, IDX_P33, IDX_P44, g2, n2)
    _add_thermal_channel(M, IDX_P33, IDX_P55, gc, nc)
    M[IDX_P44, IDX_IM24] += 2.0 * th
    M[IDX_P55, IDX_P55] += -load
    M[IDX_P66, IDX_P55] += load

    # Conduction coherence rho13 = a + i b.
    damp13 = 0.5 * (g1 * (n1 + 1.0) + g2 * (n2 + 1.0) + gc * (nc + 1.0))
    M[IDX_RE13, IDX_RE13] += -damp13
    M[IDX_RE13, IDX_IM13] += det_e
    M[IDX_IM13, IDX_RE13] += -det_e
    M[IDX_IM13, IDX_IM13] += -damp13
    M[IDX_IM13, IDX_P33] += -te
    M[IDX_IM13, IDX_P11] += te

    # Valence coherence rho24.
    damp24 = 0.5 * (g1 * n1 + g2 * n2 + gv * nv)
    M[IDX_RE24, IDX_RE24] += -damp24
    M[IDX_RE24, IDX_IM24] += det_h
    M[IDX_IM24, IDX_RE24] += -det_h
    M[IDX_IM24, IDX_IM24] += -damp24
    M[IDX_IM24, IDX_P44] += -th
    M[IDX_IM24, IDX_P22] += th

    _add_phonon_assisted(M, params.gamma_13, energies.w1 - energies.w3,
                         params.kTc, (IDX_P11, IDX_P33), (IDX_RE13, IDX_IM13))
    _add_phonon_assisted(M, params.gamma_24, energies.w2 - energies.w4,
                         params.kTc, (IDX_P22, IDX_P44), (IDX_RE24, IDX_IM24))

    return GeneratorMatrix(M, energies, QDM_ACTIVE)


def build_sqd_generator(params: ModelParams) -> GeneratorMatrix:
    """Generator of the single-dot baseline with the same gap.

    Four active levels: the dot pair |1>, |2> plus the contacts, with the
    conduction escape attached directly to |1>.  Tunnelings and the
    second dot are ignored; all coherence components stay zero.
    """
    energies = _sqd_level_energies(params)
    n1 = bose_occupation(energies.E12, params.kTs)
    nc = bose_occupation(energies.E35, params.kTc)
    nv = bose_occupation(energies.E62, params.kTc)

    M = np.zeros((N_STATE, N_STATE))
    _add_thermal_channel(M, IDX_P11, IDX_P22, params.gamma1, n1)
    _add_thermal_channel(M, IDX_P11, IDX_P55, params.gamma_c, nc)
    _add_thermal_channel(M, IDX_P66, IDX_P22, params.gamma_v, nv)
    M[IDX_P55, IDX_P55] += -params.Gamma
    M[IDX_P66, IDX_P55] += params.Gamma

    return GeneratorMatrix(M, energies, SQD_ACTIVE)


def build_generator(params: ModelParams, kind: str) -> GeneratorMatrix:
    """Dispatch on model kind ("qdm" or "sqd")."""
    if kind == "qdm":
        return build_qdm_generator(params)
    if kind == "sqd":
        return build_sqd_generator(params)
    raise DomainError(f"unknown model kind {kind!r}")


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
@np.errstate(over="ignore", invalid="ignore")
def build_generator_stack(params: ModelParams, kind: str,
                          **varied) -> GeneratorStack:
    """Zero-load generators of many devices in one array pass.

    ``params`` sets every field that ``varied`` does not; ``varied`` maps
    field names to equal-length arrays, one entry per device.  Entry for
    entry the stack equals the matrices of
    ``build_generator(device.replace(Gamma=0.0), kind)``, which stays the
    single-device path and the reference: the same arithmetic runs in the
    same order, on arrays.  An input error (``DomainError``,
    ``InvalidGeometryError``) is raised once, for the first device that
    has one, by building that device on the single-device path.
    """
    if kind not in ("qdm", "sqd"):
        raise DomainError(f"unknown model kind {kind!r}")
    c, ok = _stack_columns(params, varied)
    n = len(ok)
    # Level energies as in ``derive_level_energies`` (the single dot
    # aliases |3>, |4> onto |1>, |2>), and the checks of both.
    w1 = c["E12"]
    w2 = np.zeros(n)
    w6 = w2 + c["delta_v"]
    if kind == "qdm":
        w3 = w1 - c["delta_e"]
        w4 = w2 + c["delta_h"]
        w5 = w3 - c["delta_c"]
    else:
        w3, w4 = w1, w2
        w5 = w1 - c["delta_c"]
    ok &= ((abs(w3) < math.inf) & (abs(w5) < math.inf)
           & (w3 - w4 > 0.0) & (w3 - w5 > 0.0) & (w6 - w2 > 0.0))
    _raise_first_invalid(params, c, ok, kind)
    g1, g2, gc, gv = c["gamma1"], c["gamma2"], c["gamma_c"], c["gamma_v"]
    kTs, kTc = c["kTs"], c["kTc"]
    # Devices on the last axis, so that M[i, j] is every device's entry
    # and the single-device helpers apply as they are.
    M = np.zeros((N_STATE, N_STATE, n))

    n1 = _bose_stack(w1 - w2, kTs)
    nc = _bose_stack(w3 - w5, kTc)
    nv = _bose_stack(w6 - w2, kTc)
    if kind == "sqd":
        _add_thermal_channel(M, IDX_P11, IDX_P22, g1, n1)
        _add_thermal_channel(M, IDX_P11, IDX_P55, gc, nc)
        _add_thermal_channel(M, IDX_P66, IDX_P22, gv, nv)
        return GeneratorStack(_devices_first(M, params, c, kind),
                              SQD_ACTIVE, w5 - w6, w1 - w2, w3 - w4, kTc)

    n2 = _bose_stack(w3 - w4, kTs)
    te = c["Te"] / c["hbar_gamma"]
    th = c["Th"] / c["hbar_gamma"]
    det_e = (w1 - w3) / c["hbar_gamma"]
    det_h = (w2 - w4) / c["hbar_gamma"]

    M[IDX_P11, IDX_IM13] += -2.0 * te
    _add_thermal_channel(M, IDX_P11, IDX_P22, g1, n1)
    M[IDX_P22, IDX_IM24] += -2.0 * th
    _add_thermal_channel(M, IDX_P66, IDX_P22, gv, nv)
    M[IDX_P33, IDX_IM13] += 2.0 * te
    _add_thermal_channel(M, IDX_P33, IDX_P44, g2, n2)
    _add_thermal_channel(M, IDX_P33, IDX_P55, gc, nc)
    M[IDX_P44, IDX_IM24] += 2.0 * th

    damp13 = 0.5 * (g1 * (n1 + 1.0) + g2 * (n2 + 1.0) + gc * (nc + 1.0))
    M[IDX_RE13, IDX_RE13] += -damp13
    M[IDX_RE13, IDX_IM13] += det_e
    M[IDX_IM13, IDX_RE13] += -det_e
    M[IDX_IM13, IDX_IM13] += -damp13
    M[IDX_IM13, IDX_P33] += -te
    M[IDX_IM13, IDX_P11] += te

    damp24 = 0.5 * (g1 * n1 + g2 * n2 + gv * nv)
    M[IDX_RE24, IDX_RE24] += -damp24
    M[IDX_RE24, IDX_IM24] += det_h
    M[IDX_IM24, IDX_RE24] += -det_h
    M[IDX_IM24, IDX_IM24] += -damp24
    M[IDX_IM24, IDX_P44] += -th
    M[IDX_IM24, IDX_P22] += th

    # ``_add_phonon_assisted`` on the stack: a channel downhill from the
    # first level of the pair where its gap is >= 0, else from the second,
    # and none where the rate is zero.
    for rate, gap, (a, b), coherence in (
            (c["gamma_13"], w1 - w3, (IDX_P11, IDX_P33),
             (IDX_RE13, IDX_IM13)),
            (c["gamma_24"], w2 - w4, (IDX_P22, IDX_P44),
             (IDX_RE24, IDX_IM24))):
        on = rate > 0.0
        if not on.any():
            continue
        n_ph = np.zeros(n)
        n_ph[on] = _bose_stack(
            np.maximum(abs(gap[on]), PHONON_ENERGY_FLOOR), kTc[on])
        from_a = gap >= 0
        _add_thermal_channel(M, a, b, np.where(from_a, rate, 0.0), n_ph)
        _add_thermal_channel(M, b, a, np.where(from_a, 0.0, rate), n_ph)
        for k in coherence:
            M[k, k] -= 0.5 * rate * (2.0 * n_ph + 1.0)
    return GeneratorStack(_devices_first(M, params, c, kind), QDM_ACTIVE,
                          w5 - w6, w1 - w2, w3 - w4, kTc)


def _devices_first(M: np.ndarray, params: ModelParams, cols: dict,
                   kind: str) -> np.ndarray:
    # Devices first, once every device's entries are in the range that
    # ``GeneratorMatrix`` accepts.
    _raise_first_invalid(params, cols,
                         np.abs(M).max(axis=(0, 1)) < _RATE_LIMIT, kind)
    return np.ascontiguousarray(np.moveaxis(M, -1, 0))
