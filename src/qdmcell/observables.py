"""Photovoltaic observables of a stationary state.

Units: current in e*gamma, voltage in meV per elementary charge (so the
numbers read as mV), power in gamma*meV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UndefinedEfficiencyError, VoltageUndefinedError
from .model import (IDX_P11, IDX_P22, IDX_P33, IDX_P44, IDX_P55, IDX_P66,
                    LevelEnergies)
from .steady import SteadyState

_POPULATION_GUARD = 1e-300


@dataclass(frozen=True)
class PhotovoltaicPoint:
    """One point of a current-voltage characteristic."""

    Gamma: float
    j: float
    V: float
    P: float
    coh13: float
    coh24: float
    state: SteadyState


def current(state: SteadyState, Gamma: float) -> float:
    """Load current j = Gamma * rho55 (e*gamma units)."""
    return Gamma * max(state.x[IDX_P55], 0.0)


def voltage(state: SteadyState, energies: LevelEnergies, kTc: float) -> float:
    """Photovoltage (E5 - E6) + kTc * ln(rho55/rho66)."""
    p55 = state.x[IDX_P55]
    p66 = state.x[IDX_P66]
    if p55 <= _POPULATION_GUARD or p66 <= _POPULATION_GUARD:
        raise VoltageUndefinedError(
            f"contact populations too small (rho55={p55:.3e}, "
            f"rho66={p66:.3e}); voltage undefined")
    return energies.e5_minus_e6 + kTc * math.log(p55 / p66)


def power(j: float, V: float) -> float:
    """Delivered power P = j V (gamma*meV)."""
    return j * V


def supplied_power(j: float, E: float) -> float:
    """Power drawn from the radiation field by a net photon flux j
    absorbed at photon energy E, j * E / e."""
    return j * E


def absorption_fluxes(x, M) -> tuple:
    """Net photon absorption fluxes (J1, J2) of the state vector x under
    the generator matrix M (either may be stacked, one per device).

    Read off the generator's pump entries: J1 = M[1,2] rho22 - M[2,1] rho11
    for |2>->|1> at E12 and J2 = M[3,4] rho44 - M[4,3] rho33 for |4>->|3>
    at E34.  The single dot has no second channel, so its J2 is 0.  In a
    stationary state J1 + J2 equals the load current: the interdot
    channels move carriers between the dots without exchanging photons.
    The load enters no pump entry, so any load rate's generator will do.
    """
    j1 = (M[..., IDX_P11, IDX_P22] * x[..., IDX_P22]
          - M[..., IDX_P22, IDX_P11] * x[..., IDX_P11])
    j2 = (M[..., IDX_P33, IDX_P44] * x[..., IDX_P44]
          - M[..., IDX_P44, IDX_P33] * x[..., IDX_P33])
    return j1, j2


def efficiency(Pm: float, P_S_at_mpp: float) -> float:
    """Conversion efficiency Pm / P_S at the maximum-power point."""
    if P_S_at_mpp <= 0.0:
        raise UndefinedEfficiencyError(
            "supplied power is zero; efficiency undefined")
    return Pm / P_S_at_mpp


def coherence_magnitudes(state: SteadyState) -> tuple[float, float]:
    """(|rho13|, |rho24|) of the stationary state."""
    return abs(state.rho13), abs(state.rho24)


def photovoltaic_point(state: SteadyState, Gamma: float,
                       energies: LevelEnergies, kTc: float) -> PhotovoltaicPoint:
    """Bundle all observables at one load rate."""
    j = current(state, Gamma)
    V = voltage(state, energies, kTc)
    c13, c24 = coherence_magnitudes(state)
    return PhotovoltaicPoint(Gamma=Gamma, j=j, V=V, P=power(j, V),
                             coh13=c13, coh24=c24, state=state)
