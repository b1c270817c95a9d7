"""Stationary solutions of the photocell generator.

``solve_steady(build_generator(params, kind, Gamma=g))`` is the read-only
state vector x with M x = 0 and the populations summing to one.  A
fixed-step RK4 propagator of the same linear system serves as an
independent cross-check; it is an oracle, not a production path.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (DegenerateSteadyStateError, NumericalSolveError,
                     StepSizeError)
from .model import GeneratorMatrix, N_STATE, POPULATION_INDICES

TRACE_TOL = 1e-12
DEGENERACY_TOL = 1e-12
RESIDUAL_TOL = 1e-10


def _check_trace_conserving(G: GeneratorMatrix) -> None:
    scale = G.max_rate
    col_sums = G.matrix[list(POPULATION_INDICES), :].sum(axis=0)
    if np.abs(col_sums).max() > TRACE_TOL * scale:
        raise NumericalSolveError(
            "generator is not trace conserving: population rows sum to "
            f"{np.abs(col_sums).max():.3e} (scale {scale:.3e})")


def solve_steady(G: GeneratorMatrix) -> np.ndarray:
    """Unique stationary state of a trace-conserving generator; rounding
    may leave a vanishing population slightly negative.

    One population row is traded for the normalization constraint (the
    |6> row, a fixed choice that keeps results bit-reproducible).  Raises
    if the generator supports more than one stationary state.  Only the
    components in ``G.active`` are solved for; the others stay zero.

    The LU solution is refined twice against the trace-exact system: each
    population diagonal rebuilt as minus the other population entries of
    its column, the residual computed in ``np.longdouble``.  That removes
    both the rounding of the diagonals as built and the LU solve's own
    error.  Where ``longdouble`` is just ``double``, it removes only the
    LU part.
    """
    _check_trace_conserving(G)

    active = list(G.active)
    A = G.matrix[np.ix_(active, active)]

    scale = float(np.abs(A).max())
    if scale == 0.0:
        raise DegenerateSteadyStateError(
            "zero generator: every state is stationary")

    # The trace direction accounts for exactly one null dimension; any
    # further (near-)null dimension signals disconnected blocks.
    sv = np.linalg.svd(A, compute_uv=False)
    if len(sv) >= 2 and sv[-2] < DEGENERACY_TOL * scale:
        raise DegenerateSteadyStateError(
            "multiple steady states: the generator has disconnected blocks")

    pops = list(POPULATION_INDICES)
    exact = G.matrix.astype(np.longdouble)
    exact[pops, pops] = 0.0
    exact[pops, pops] = -exact[pops].sum(axis=0)[pops]
    exact = exact[np.ix_(active, active)]
    pop_pos = [k for k, i in enumerate(active) if i in POPULATION_INDICES]
    norm_row = pop_pos[-1]
    exact[norm_row, :] = 0.0
    exact[norm_row, pop_pos] = 1.0
    B = exact.astype(float)
    b = np.zeros(len(active), dtype=np.longdouble)
    b[norm_row] = 1.0

    try:
        sol = np.linalg.solve(B, b.astype(float))
        for _ in range(2):
            sol += np.linalg.solve(B, (b - exact @ sol).astype(float))
    except np.linalg.LinAlgError as exc:
        raise NumericalSolveError("singular constrained system") from exc

    x = np.zeros(N_STATE)
    x[active] = sol
    res = residual(G, x)
    if res > RESIDUAL_TOL * scale:
        raise NumericalSolveError(
            f"steady-state residual {res:.3e} exceeds {RESIDUAL_TOL:.0e} x "
            f"largest generator entry {scale:.3e}")
    x.setflags(write=False)
    return x


def residual(G: GeneratorMatrix, x: np.ndarray) -> float:
    """Max-norm of M x; zero for exact stationary states."""
    return float(np.abs(G.matrix @ np.asarray(x, dtype=float)).max())


def evolve(G: GeneratorMatrix, x0: np.ndarray, t_final: float,
           dt: float) -> np.ndarray:
    """Propagate d/dt x = M x with fixed-step classical RK4.

    The generator is constant, so one RK4 step is the linear map
    I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24; the full evolution is that
    matrix raised to the step count (computed by repeated squaring, which
    is bit-identical to stepping).  Requires dt * max-rate <= 0.1.
    """
    if t_final <= 0.0:
        raise StepSizeError(f"t_final must be positive, got {t_final}")
    max_rate = G.max_rate
    if dt <= 0.0 or dt * max_rate > 0.1:
        raise StepSizeError(
            f"dt = {dt} too large for max rate {max_rate:.3e}: "
            "need dt * max_rate <= 0.1")

    n_steps = max(1, math.ceil(t_final / dt))
    H = dt * G.matrix
    step = np.eye(N_STATE) + H @ (np.eye(N_STATE) + H @ (
        np.eye(N_STATE) / 2.0 + H @ (np.eye(N_STATE) / 6.0 + H / 24.0)))
    return np.linalg.matrix_power(step, n_steps) @ np.asarray(x0, dtype=float)
