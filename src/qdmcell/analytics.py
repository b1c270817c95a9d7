"""Closed-form reference models.

First-order short-circuit currents in the strong-tunneling limit, the
molecule/single-dot current ratio bound, and the driven two-level-system
steady state used to explain why coherence saturates and then decays as
the drive grows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def asymptotic_current_qdm(n1: float, n2: float, nv: float) -> float:
    """Strong-tunneling short-circuit current (n1+n2)(nv+1)/(3nv+2)."""
    if min(n1, n2, nv) < 0.0:
        raise DomainError("occupations must be nonnegative")
    return (n1 + n2) * (nv + 1.0) / (3.0 * nv + 2.0)


def asymptotic_current_sqd(n1: float, nv: float) -> float:
    """Single-dot short-circuit current n1(nv+1)/(2nv+1)."""
    if min(n1, nv) < 0.0:
        raise DomainError("occupations must be nonnegative")
    return n1 * (nv + 1.0) / (2.0 * nv + 1.0)


def current_ratio_bound(nv: float) -> float:
    """Upper bound (4nv+2)/(3nv+2) on the current gain for identical dots.

    Strictly increasing in nv with supremum 4/3.
    """
    if nv < 0.0:
        raise DomainError("occupation must be nonnegative")
    return (4.0 * nv + 2.0) / (3.0 * nv + 2.0)


@dataclass(frozen=True)
class TlsParams:
    """Driven two-level system with phenomenological damping.

    W: drive coupling; delta: transition detuning; gamma0/gammap:
    population and coherence damping.  All in the same rate unit.  Each
    may be a numpy array; ``tls_steady`` then evaluates them elementwise.
    """

    W: float
    delta: float
    gamma0: float
    gammap: float

    def __post_init__(self):
        # low <= value < inf, elementwise; NaN fails every bound.
        for name, low, what in (
                ("gamma0", math.ulp(0.0), "finite and positive"),
                ("gammap", math.ulp(0.0), "finite and positive"),
                ("W", 0.0, "finite and nonnegative"),
                ("delta", -sys.float_info.max, "finite")):
            value = np.asarray(getattr(self, name), dtype=float)
            if not ((value >= low) & (value < math.inf)).all():
                raise DomainError(f"{name} must be {what}")


@dataclass(frozen=True)
class TlsSteadyState:
    rho_ee: float
    rho_eg: complex

    @property
    def coherence(self) -> float:
        return abs(self.rho_eg)


def tls_steady(p: TlsParams) -> TlsSteadyState:
    """Stationary population and coherence of the driven two-level system.

    Satisfies rho_ee = (gammap/gamma0) * W / sqrt(gammap^2 + delta^2)
    * |rho_eg| identically.
    """
    denom = 1.0 + (p.delta / p.gammap) ** 2 + p.W ** 2 / (p.gamma0 * p.gammap)
    rho_ee = (p.W ** 2 / (2.0 * p.gamma0 * p.gammap)) / denom
    rho_eg = (-1j * (p.W / (2.0 * p.gammap))
              * (1.0 + 1j * p.delta / p.gammap) / denom)
    return TlsSteadyState(rho_ee=rho_ee, rho_eg=rho_eg)


def tls_saturation_threshold(delta: float, gamma0: float,
                             gammap: float) -> float:
    """Drive strength where the stationary coherence peaks.

    W' = sqrt(gamma0/gammap) * sqrt(delta^2 + gammap^2); beyond it the
    population saturates and the coherence decays.
    """
    if gammap <= 0.0 or gamma0 <= 0.0:
        raise DomainError("damping rates must be positive")
    return math.sqrt(gamma0 / gammap) * math.sqrt(delta ** 2 + gammap ** 2)


@dataclass(frozen=True)
class LinearityResult:
    slope: float
    r_squared: float
    n_excluded: int


def coherence_linearity_check(dataset) -> LinearityResult:
    """Fit j/(e*gamma*|rho13|) against the tunneling energy, through 0.

    ``dataset`` holds (Te, j, coh13) triples; points with vanishing
    coherence are excluded and counted.  R^2 uses the uncentered total
    sum of squares, the usual convention for a through-origin fit.
    """
    rows = [(te, j, c) for te, j, c in dataset if c > 0.0]
    n_excluded = len(dataset) - len(rows)
    if len(rows) < 5:
        raise DomainError("need at least 5 usable points")
    x = np.array([te for te, _, _ in rows])
    y = np.array([j / c for _, j, c in rows])
    slope = float((x * y).sum() / (x * x).sum())
    ss_res = float(((y - slope * x) ** 2).sum())
    ss_tot = float((y ** 2).sum())
    return LinearityResult(slope=slope, r_squared=1.0 - ss_res / ss_tot,
                           n_excluded=n_excluded)
