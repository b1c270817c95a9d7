"""Photovoltaic observables of one stationary state: ``photovoltaic_point``
(current, voltage, power, coherence magnitudes) and the absorption fluxes
that the efficiency charges.  The curves and scans of ``sweeps`` compute
the same quantities from the chain form.

Units: current in e*gamma, voltage in meV per elementary charge (so the
numbers read as mV), power in gamma*meV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import VoltageUndefinedError
from .model import (IDX_P11, IDX_P22, IDX_P33, IDX_P44, IDX_P55, IDX_P66,
                    LevelEnergies)
from .steady import SteadyState

_POPULATION_GUARD = 1e-300


# Nothing in the package calls ``photovoltaic_point``: the benchmark's
# tracer wraps it by name (perfbench/layers.py), so it and its result type
# stay until the benchmark drops them.
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


def photovoltaic_point(state: SteadyState, Gamma: float,
                       energies: LevelEnergies, kTc: float) -> PhotovoltaicPoint:
    """Every observable at load rate Gamma: the current j = Gamma rho55,
    the voltage V = (E5 - E6) + kTc ln(rho55/rho66), the power P = j V
    and the coherence magnitudes |rho13|, |rho24|.  Raises
    ``VoltageUndefinedError`` if a contact population vanishes."""
    p55, p66 = state.x[IDX_P55], state.x[IDX_P66]
    if p55 <= _POPULATION_GUARD or p66 <= _POPULATION_GUARD:
        raise VoltageUndefinedError(
            f"contact populations too small (rho55={p55:.3e}, "
            f"rho66={p66:.3e}); voltage undefined")
    j = Gamma * p55
    V = energies.e5_minus_e6 + kTc * math.log(p55 / p66)
    return PhotovoltaicPoint(Gamma=Gamma, j=j, V=V, P=j * V,
                             coh13=abs(state.rho13), coh24=abs(state.rho24),
                             state=state)
