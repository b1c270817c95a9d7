"""Stationary solutions of the photocell generators.

``solve_steady(build_generator(params, kind, Gamma=g))`` is the read-only
(10, N) array of the stack's stationary states x, M x = 0 with the
populations summing to one, a column per device.  A fixed-step RK4
propagator is an independent cross-check (an oracle, not a production
path).  Each column equals its lone device's bit for bit, and the first
device that fails raises the error of the first check it fails.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (DegenerateSteadyStateError, NumericalSolveError,
                     StepSizeError)
from .model import (IDX_P11, IDX_P66, N_STATE, POPULATION_INDICES,
                    GeneratorStack, _raise_first, _record)

TRACE_TOL = 1e-12
DEGENERACY_TOL = 1e-12
RESIDUAL_TOL = 1e-10


def _devices_first(a: np.ndarray) -> np.ndarray:
    # A (..., N) stack as (N, ...), each matrix contiguous, so numpy's
    # linear algebra treats device k as it treats a lone matrix.
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _states(x) -> np.ndarray:
    # States, one for all (10,) or one per device (10, N), as (N, 10, 1).
    return _devices_first(np.reshape(np.asarray(x, float), (N_STATE, 1, -1)))


def _generator_checks(G: GeneratorStack) -> list:
    # The checks both solvers make first, as ordered (ok, error) pairs
    # (see ``model._record``): finite entries, zero population-row sums.
    trace = np.abs(np.add.reduce(G.matrix[IDX_P11:IDX_P66 + 1])).max(axis=0)
    return [(G.max_rate < math.inf, lambda k: NumericalSolveError(
                "generator entries are not finite: largest magnitude "
                f"{G.max_rate[k]}")),
            (trace <= TRACE_TOL * G.max_rate, lambda k: NumericalSolveError(
                "generator is not trace conserving: population rows sum to "
                f"{trace[k]:.3e} (scale {G.max_rate[k]:.3e})"))]


# Failed devices may overflow on their way to the checks that reject them.
@np.errstate(all="ignore")
def solve_steady(G: GeneratorStack) -> np.ndarray:
    """Unique stationary state of each trace-conserving generator of the
    stack; rounding may leave a vanishing population slightly negative.
    Only the components in ``G.active`` are solved for; the others stay
    zero.  Raises if a generator supports more than one stationary state.

    One population row, |6>'s (a fixed choice that keeps results
    bit-reproducible), is traded for the normalization.  The LU solution
    is refined twice against the trace-exact system, each population
    diagonal rebuilt as minus the other population entries of its column
    and the residual computed in ``np.longdouble``: that removes both the
    diagonals' rounding as built and the LU solve's own error (only the
    latter where ``longdouble`` is just ``double``).
    """
    # A device with a non-finite entry fails the first check; zeroing its
    # matrix keeps the SVD and the LU from failing on it.
    M = np.where(G.max_rate < math.inf, G.matrix, 0.0)
    n, pops, active = M.shape[-1], list(POPULATION_INDICES), list(G.active)
    A = M[np.ix_(active, active)]
    scale = np.abs(A).max(axis=(0, 1))
    # The trace direction accounts for exactly one null dimension; any
    # further (near-)null dimension signals disconnected blocks.
    sv = np.linalg.svd(_devices_first(A), compute_uv=False)
    connected = (~(sv[:, -2] < DEGENERACY_TOL * scale) if len(active) >= 2
                 else True)

    exact = M.astype(np.longdouble)
    exact[pops, pops] = 0.0
    exact[pops, pops] = -exact[pops].sum(axis=0)[pops]
    exact = _devices_first(exact[np.ix_(active, active)])
    pop_pos = [k for k, i in enumerate(active) if i in POPULATION_INDICES]
    norm_row = pop_pos[-1]
    exact[:, norm_row, :] = 0.0
    exact[:, norm_row, pop_pos] = 1.0
    B = exact.astype(float)
    b = np.zeros((len(active), 1), dtype=np.longdouble)
    b[norm_row] = 1.0
    # A zero LU pivot would stop the solve of every device.
    regular = np.linalg.slogdet(B)[0] != 0.0
    B[~regular] = np.eye(len(active))
    sol = np.linalg.solve(B, np.broadcast_to(b.astype(float),
                                             (n, len(active), 1)))
    for _ in range(2):
        sol += np.linalg.solve(B, (b - exact @ sol).astype(float))

    x = np.zeros((N_STATE, n))
    x[active] = sol[..., 0].T
    res = residual(G, x)
    _raise_first(_record([None] * n, [
        *_generator_checks(G),
        (scale != 0.0, lambda k: DegenerateSteadyStateError(
            "zero generator: every state is stationary")),
        (connected, lambda k: DegenerateSteadyStateError(
            "multiple steady states: the generator has disconnected blocks")),
        (regular, lambda k: NumericalSolveError(
            "singular constrained system")),
        (~(res > RESIDUAL_TOL * scale), lambda k: NumericalSolveError(
            f"steady-state residual {res[k]:.3e} exceeds {RESIDUAL_TOL:.0e} "
            f"x largest generator entry {scale[k]:.3e}"))]))
    x.setflags(write=False)
    return x


def residual(G: GeneratorStack, x) -> np.ndarray:
    """Max-norm of M x per device, (N,); zero for exact stationary states.
    ``x`` is one state per device, (10, N), or one for all, (10,)."""
    return np.abs(_devices_first(G.matrix) @ _states(x)).max(axis=(1, 2))


@np.errstate(all="ignore")  # bad times fail the checks
def evolve(G: GeneratorStack, x0, t_final, dt) -> np.ndarray:
    """Propagate d/dt x = M x from ``x0`` (one state per device or one
    for all) with fixed-step RK4 to the (10, N) states at ``t_final``;
    ``t_final`` and ``dt`` are floats or one value per device.

    One RK4 step is the linear map I + hM + (hM)^2/2 + (hM)^3/6 +
    (hM)^4/24, raised to each device's step count ceil(t_final / dt) by
    repeated squaring of the stack's own matrices.  The power equals
    ``np.linalg.matrix_power``'s bit for bit, except that three steps are
    a(aa), not (aa)a.  It is not the step applied one at a time: on the
    default molecule (Gamma = 1, dt = 0.05 / max rate) the two differ by
    up to 4.4e-16 at 5 steps and 5.1e-14 at 1 000.  Requires finite
    entries, finite t_final > 0 and dt > 0, dt * max-rate <= 0.1 and
    under 2^63 steps.
    """
    t_final, dt = (np.broadcast_to(np.asarray(v, dtype=float),
                                   G.max_rate.shape) for v in (t_final, dt))
    steps = np.ceil(t_final / dt)
    # Finite entries first, but not trace conservation: a propagator
    # needs no stationary state.
    _raise_first(_record([None] * len(dt), [
        _generator_checks(G)[0],
        ((t_final > 0.0) & (t_final < math.inf), lambda k: StepSizeError(
            f"t_final must be finite and positive, got {t_final[k]}")),
        ((dt > 0.0) & (dt < math.inf), lambda k: StepSizeError(
            f"dt must be finite and positive, got {dt[k]}")),
        (dt * G.max_rate <= 0.1, lambda k: StepSizeError(
            f"dt = {dt[k]} too large for max rate {G.max_rate[k]:.3e}: "
            "need dt * max_rate <= 0.1")),
        (steps < 2.0 ** 63, lambda k: StepSizeError(
            f"t_final / dt = {steps[k]:.3e} steps: too many to count"))]))

    H = dt[:, None, None] * _devices_first(G.matrix)
    eye = np.eye(N_STATE)
    step = eye + H @ (eye + H @ (eye / 2.0 + H @ (eye / 6.0 + H / 24.0)))
    # Each device's count in binary: the squares z of the step multiply
    # into the power at each set bit.
    count = np.maximum(steps, 1.0).astype(np.int64)
    power, started, z = np.empty_like(step), np.zeros(len(dt), bool), step
    while True:
        bit = (count & 1).astype(bool)
        power[bit & started] = power[bit & started] @ z[bit & started]
        power[bit & ~started] = z[bit & ~started]
        started |= bit
        count >>= 1
        if not count.any():
            return (power @ _states(x0))[..., 0].T
        z = z @ z
