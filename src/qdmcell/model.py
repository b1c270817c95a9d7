"""Physical model of the quantum-dot-molecule photocell.

Six levels: conduction states |1>, |3| of the two dots, valence states
|2>, |4>, and the contact (electrode) states |5>, |6>.  Solar radiation
pumps |2>->|1> and |4>->|3>, ambient phonons relax |3>->|5> and |6>->|2>,
and an external load transfers |5>->|6> at rate Gamma.  Energies are in
meV, all rates in multiples of the reference radiative rate gamma.

The reduced state is a real 12-vector:

    (rho11..rho66, Re rho13, Im rho13, Re rho24, Im rho24, spare, spare)

The two spare slots are always zero; they keep the layout identical for
the molecule and the single-dot baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, InvalidGeometryError

# State-vector layout.
IDX_P11, IDX_P22, IDX_P33, IDX_P44, IDX_P55, IDX_P66 = range(6)
IDX_RE13, IDX_IM13, IDX_RE24, IDX_IM24 = 6, 7, 8, 9
IDX_SPARE0, IDX_SPARE1 = 10, 11
N_STATE = 12
POPULATION_INDICES = (IDX_P11, IDX_P22, IDX_P33, IDX_P44, IDX_P55, IDX_P66)

QDM_ACTIVE = tuple(range(10))
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


def bose_occupation(E: float, kT: float) -> float:
    """Mean thermal occupation 1/(exp(E/kT) - 1) of a mode at energy E."""
    if E <= 0.0:
        raise DomainError(f"bose_occupation needs E > 0, got {E}")
    if kT <= 0.0:
        raise DomainError(f"bose_occupation needs kT > 0, got {kT}")
    x = E / kT
    if x > 700.0:  # expm1 would overflow; occupation ~ e^-x
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def tunneling_from_distance(d: float) -> tuple[float, float]:
    """Electron/hole tunneling energies (meV) for barrier width d (nm).

    Half of the exponentially fitted anticrossing energies, following a
    two-level avoided-crossing picture.
    """
    if d <= 0.0:
        raise DomainError(f"barrier width must be positive, got {d}")
    amp_e, dec_e = TUNNELING_FIT_E
    amp_h, dec_h = TUNNELING_FIT_H
    return 0.5 * amp_e * math.exp(-d / dec_e), 0.5 * amp_h * math.exp(-d / dec_h)


_TE_D2, _TH_D2 = 0.5 * 11.67 * math.exp(-2 / 7.14), 0.5 * 2.2 * math.exp(-2 / 3.37)


@dataclass(frozen=True)
class ModelParams:
    """All physical inputs.

    Energies in meV; every rate is a multiple of the reference radiative
    rate ``gamma``.  ``hbar_gamma`` converts tunneling/detuning energies
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
    gamma: float = 1.0
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
        for name in ("gamma", "gamma1", "gamma2", "gamma_c", "gamma_v",
                     "Gamma", "gamma_13", "gamma_24"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"rate {name} must be >= 0")
        if self.kTs <= 0.0 or self.kTc <= 0.0:
            raise DomainError("temperatures kTs, kTc must be positive")
        if self.E12 <= 0.0:
            raise DomainError("E12 must be positive")
        if self.hbar_gamma <= 0.0:
            raise DomainError("hbar_gamma must be positive")

    def replace(self, **changes) -> "ModelParams":
        return replace(self, **changes)

    def with_distance(self, d: float) -> "ModelParams":
        """Set both tunneling energies from the barrier width d (nm)."""
        te, th = tunneling_from_distance(d)
        return replace(self, Te=te, Th=th)


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
    energies = derive_level_energies(params)
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
    """Real linear generator d/dt x = M x on the 12-component state.

    ``kind`` records which physical model produced it ("qdm" or "sqd");
    ``active`` lists the state components the model actually couples.
    """

    matrix: np.ndarray
    kind: str
    params: ModelParams
    energies: LevelEnergies
    occupations: ThermalOccupations
    active: tuple = field(default=QDM_ACTIVE)

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def max_rate(self) -> float:
        m = float(np.abs(self.matrix).max())
        return m


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
    occ = thermal_occupations(params)
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

    return GeneratorMatrix(M, "qdm", params, energies, occ, QDM_ACTIVE)


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
    occ = ThermalOccupations(n1=n1, n2=n1, nc=nc, nv=nv)

    M = np.zeros((N_STATE, N_STATE))
    _add_thermal_channel(M, IDX_P11, IDX_P22, params.gamma1, n1)
    _add_thermal_channel(M, IDX_P11, IDX_P55, params.gamma_c, nc)
    _add_thermal_channel(M, IDX_P66, IDX_P22, params.gamma_v, nv)
    M[IDX_P55, IDX_P55] += -params.Gamma
    M[IDX_P66, IDX_P55] += params.Gamma

    return GeneratorMatrix(M, "sqd", params, energies, occ, SQD_ACTIVE)


def build_generator(params: ModelParams, kind: str) -> GeneratorMatrix:
    """Dispatch on model kind ("qdm" or "sqd")."""
    if kind == "qdm":
        return build_qdm_generator(params)
    if kind == "sqd":
        return build_sqd_generator(params)
    raise DomainError(f"unknown model kind {kind!r}")
