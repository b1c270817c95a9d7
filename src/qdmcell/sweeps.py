"""Load-rate sweeps and parameter scans on the exact rate chain.

Every stationary state here is rho(Gamma) = (x_a + Gamma x_b) / (S_a +
Gamma S_b), the chain form of ``_chain_form``.  The single-device
functions (``iv_curve``, ``max_power_point``, ``open_circuit_voltage``,
``short_circuit_current``) read it for one ``build_generator`` call,
built once per (params, kind) and held read-only in a two-entry memo
(``_device_chain``), so a curve and its open-circuit voltage share it; the
parameter scans treat the devices as a batch axis and read it for one
``model.build_generator_stack`` call (equal, entry for entry, to
``build_generator``) in ``max_power_batch``.  Both find the maximum-power
load by the same Newton iteration (``_max_power``), one device's on
floats with numpy's log (the C library's may differ in the last bit and
move the maximum off the batch's); its curve evaluates only the six
state rows it reads.  Scan rows are named tuples whose fields follow the
CLI's CSV columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (BoundaryMaximumError, DegenerateSteadyStateError,
                     DomainError, NumericalSolveError,
                     UndefinedEfficiencyError, VoltageUndefinedError)
from .model import (BAND_ALIGNMENTS, IDX_IM13, IDX_IM24, IDX_P11, IDX_P22,
                    IDX_P33, IDX_P44, IDX_P55, IDX_P66, IDX_RE13, IDX_RE24,
                    N_STATE, POPULATION_INDICES, QDM_ACTIVE, SQD_ACTIVE,
                    GeneratorStack, ModelParams, apply_band_alignment,
                    build_generator, build_generator_stack,
                    tunneling_from_distance)
from .observables import _POPULATION_GUARD, absorption_fluxes
from .steady import RESIDUAL_TOL, TRACE_TOL

# Far above the maximum a Newton step about halves Gamma (the power slope
# is close to a quadratic there).  No float range needs 2 100 halvings.
_NEWTON_STEPS = 2200
# Where the maximum-power search samples its bracket, in ln Gamma.
_SPACING = np.linspace(0.0, 1.0, 9)


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced load-rate grid (gamma units)."""

    n: int = 200
    gamma_min: float = 1e-6
    gamma_max: float = 1e6

    def __post_init__(self):
        if self.n < 50:
            raise DomainError("load grid needs at least 50 points")
        if not 0.0 < self.gamma_min < self.gamma_max < math.inf:
            raise DomainError("need 0 < gamma_min < gamma_max < inf")

    def values(self) -> np.ndarray:
        return np.logspace(math.log10(self.gamma_min),
                           math.log10(self.gamma_max), self.n)


@dataclass(frozen=True, eq=False)
class ChainForm:
    """Stationary states of a stack of devices at every load rate: device
    k's state at load Gamma is (x_a[k] + Gamma x_b[k]) / (s_a[k] +
    Gamma s_b[k]), with |5> at weight 1 in x_a and 0 in x_b.  A device
    whose contact |5> is empty at every load has x_a = x_b = 0, s_a = 1.
    """

    stack: GeneratorStack
    x_a: np.ndarray
    x_b: np.ndarray
    s_a: np.ndarray
    s_b: np.ndarray

    # A load so large that the weights overflow leaves rho55 at 0 or NaN,
    # below any guard, as its true value is.
    @np.errstate(over="ignore", invalid="ignore")
    def states(self, gamma) -> np.ndarray:
        """States at load(s) ``gamma``, which broadcast against the
        devices: one load per device, or any number for a single one."""
        gamma = np.asarray(gamma, dtype=float)
        return ((self.x_a + gamma[..., None] * self.x_b)
                / (self.s_a + gamma * self.s_b)[..., None])

    def voltage(self, gamma) -> np.ndarray:
        """(E5 - E6) + kTc ln(rho55/rho66), where rho55/rho66 is
        1/(a6 + Gamma b6); the contact populations must be positive."""
        return self.stack.e5_minus_e6 - self.stack.kTc * np.log(
            self.x_a[:, IDX_P66] + gamma * self.x_b[:, IDX_P66])


@dataclass(frozen=True, eq=False)
class IVCurve:
    """Current-voltage characteristic over a load grid.

    ``columns`` maps Gamma, j, V, P, coh13 and coh24 to read-only arrays
    over the kept load points; ``chain`` (one device) gives the state at
    any other load.
    """

    columns: dict
    params: ModelParams
    kind: str
    grid: GridSpec
    chain: ChainForm
    n_dropped: int = 0

    def __post_init__(self):
        for values in self.columns.values():
            values.setflags(write=False)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


@dataclass(frozen=True)
class MaxPowerPoint:
    """Maximum-power state of a load sweep.

    ``eta`` is P_m over the power drawn from the radiation field,
    E12*J1 + E34*J2, with J_k the net absorption flux of optical channel
    k (see ``observables.absorption_fluxes``).  For the single dot it is
    P_m / (E12 * j_mpp) = V_mpp / E12.
    """

    Gamma_star: float
    j_mpp: float
    V_mpp: float
    P_m: float
    eta: float
    coh13: float = 0.0
    coh24: float = 0.0


@dataclass(frozen=True)
class MaxPowerBatch:
    """Maximum-power points of a batch of devices, one entry per device.

    A device that failed is NaN in every array, and ``errors`` holds the
    typed exception it raised (None where it succeeded).
    """

    Gamma_star: np.ndarray
    j_mpp: np.ndarray
    V_mpp: np.ndarray
    P_m: np.ndarray
    eta: np.ndarray
    coh13: np.ndarray
    coh24: np.ndarray
    errors: tuple

    def raise_first(self) -> None:
        """Raise the error of the first device that failed, if any."""
        for exc in self.errors:
            if exc is not None:
                raise exc


@dataclass(frozen=True)
class ShortCircuitCurrent:
    value: float
    from_crossing: bool  # False: tail value, a lower bound only


@dataclass(frozen=True)
class OpenCircuitVoltage:
    value: float


@dataclass(frozen=True)
class CurrentGain:
    """Molecule-over-single-dot comparison at the maximum-power points."""

    delta_j: float
    delta_Pm: float


class EfficiencyRow(NamedTuple):
    """A maximum-power point of ``efficiency_vs_distance``."""

    alignment: str
    d: float
    P_m: float
    eta: float
    coh13: float
    coh24: float


class PhononAssistedRow(NamedTuple):
    """A maximum-power point of ``phonon_assisted_comparison``; its
    assisted rate ``gamma_ph`` sets gamma_13 and gamma_24."""

    gamma_c: float
    gamma_v: float
    d: float
    gamma_ph: float
    P_m: float
    eta: float
    delta_Pm: float


# Coherences eliminated in closed form, (rho_a, rho_b, Re, Im).  Their
# generator rows read d Re/dt = -D Re + Delta Im and
# d Im/dt = -Delta Re - D Im + t (rho_a - rho_b).
_COHERENCES = ((IDX_P11, IDX_P33, IDX_RE13, IDX_IM13),
               (IDX_P22, IDX_P44, IDX_RE24, IDX_IM24))


def _chain_layout(active: tuple) -> tuple:
    # The state-vector index of each chain state, |5> first; per coherent
    # pair (a, b, re, im) and the chain positions of a and b; a mask, 0 on
    # the diagonal and the coherent links; flat generator indices (row *
    # N_STATE + column) of the population rates and of t, -D, Delta, -2 t.
    pops = [IDX_P55] + [i for i in active
                        if i in POPULATION_INDICES and i != IDX_P55]
    pairs = [(a, b, re, im, pops.index(a), pops.index(b))
             for a, b, re, im in _COHERENCES if im in active]
    pairs = tuple(np.array(col) for col in zip(*pairs))
    a, b, re, im, ia, ib = pairs or (np.zeros(0, dtype=int),) * 6
    others = 1.0 - np.eye(len(pops))
    others[ia, ib] = others[ib, ia] = 0.0
    index = np.array(pops) * N_STATE
    return (pops, pairs, others[:, :, None], index[:, None] + pops,
            np.array([im * N_STATE + a, re * N_STATE + re,
                      re * N_STATE + im, a * N_STATE + im]))


_LAYOUTS = {active: _chain_layout(active)
            for active in (QDM_ACTIVE, SQD_ACTIVE)}


def _fail(errors: list, bad: np.ndarray, make) -> None:
    """Record ``make(k)`` for each device k flagged in ``bad`` that has not
    failed yet."""
    if np.count_nonzero(bad):
        for k in np.flatnonzero(bad):
            if errors[k] is None:
                errors[k] = make(int(k))


def _gth(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary weights ``w[i, k]`` (state 0 at 1) of rate chains by
    Grassmann-Taksar-Heyman elimination, and per chain whether every
    pivot was positive: whether every state reaches state 0.
    ``R[j, i, k]`` is chain k's rate i -> j; the diagonal is ignored.
    Every step adds, multiplies or divides nonnegative numbers, so each
    weight keeps a small relative error however small it is.
    """
    R = R.copy()
    n = len(R)
    pivots, entries = [], []
    for k in range(n - 1, 0, -1):
        pivot = np.add.reduce(R[:k, k])
        # Rates into k, per unit of k's exit rate to the states left.
        into = R[k, :k] / pivot
        R[:k, :k] += R[:k, k, None] * into
        pivots.append(pivot)
        entries.append(into)
    weights = np.ones(R.shape[1:])
    for k, into in zip(range(1, n), reversed(entries)):
        weights[k] = np.add.reduce(weights[:k] * into)
    return weights, np.minimum.reduce(pivots) > 0.0


def _closed_classes(R: np.ndarray) -> np.ndarray:
    """Per chain of ``R`` (laid out as in ``_gth``): whether it has one
    closed class of states."""
    # reach[k, i, j]: in chain k, state i reaches state j.
    reach = (R.transpose(2, 1, 0) > 0.0) | np.eye(len(R), dtype=bool)
    for _ in range(3):  # paths of up to eight links cover six states
        reach = reach @ reach
    recurrent = (~reach | reach.transpose(0, 2, 1)).all(axis=2)
    return (reach | ~recurrent[:, :, None]
            | ~recurrent[:, None, :]).all(axis=(1, 2))


def _population_difference(rates: np.ndarray, others: np.ndarray,
                           W: np.ndarray, a: np.ndarray, b: np.ndarray,
                           kappa: np.ndarray) -> np.ndarray:
    """rho_a - rho_b of the chain weights ``W[i, s, k]`` (state i of x_a,
    s = 0, or of x_b, s = 1, of device k) for each pair of chain states
    a[p], b[p] that a coherence couples with the rate kappa[p].
    ``rates[j, i, k]`` is device k's incoherent rate i -> j, and
    ``others`` the same without the coherent links and the diagonal.

    Taken directly the difference cancels where the coherent rate locks
    the two populations together.  The balance of a, or of b, gives it
    from the net flow J through the other links instead,
    (kappa + r_ba) (rho_a - rho_b) = J - (r_ab - r_ba) rho_a; of the
    three sums, the one that cancels least is used.
    """
    # Each state's flows from and to the other states; all terms >= 0.
    pair, n = np.concatenate([a, b]), len(a)
    inflow = np.einsum("jik,isk->jsk", others, W)[pair]
    outflow = np.add.reduce(others)[pair, None] * W[pair]
    xa, xb = W[a], W[b]
    r_ba = rates[a, b][:, None]
    link = (r_ba - rates[b, a][:, None]) * xa
    den = kappa[:, None] + r_ba
    usable, link_size = den > 0.0, np.abs(link)
    diff = xa - xb
    cancel = (xa + xb) / np.abs(diff)
    for flow, size in ((outflow[n:] - inflow[n:], outflow[n:] + inflow[n:]),
                       (inflow[:n] - outflow[:n], inflow[:n] + outflow[:n])):
        flow = flow + link
        flow_cancel = (size + link_size) / np.abs(flow)
        better = (flow_cancel < cancel) & usable
        diff = np.where(better, flow / den, diff)
        cancel = np.where(better, flow_cancel, cancel)
    return diff


@np.errstate(all="ignore")
def _chain_form(stack: GeneratorStack, errors: list) -> ChainForm:
    """The chain form of every zero-load generator in ``stack``.

    The coherences obey a linear system that the load does not enter, so
    they are eliminated in closed form and leave a rate chain on the
    populations with a symmetric rate kappa = 2 t^2 D / (D^2 + Delta^2)
    across each coherent pair.  By the Markov-chain tree theorem every
    spanning tree rooted away from |5> leaves |5> by either 5 -> 3 (5 -> 1
    for the single dot) or the load, and those rooted at |5> use neither.
    So GTH rooted at |5> gives x_a on the chain, and x_b on the chain with
    the non-load exits of |5> replaced by a unit load; x_b[5] = 0.  A zero
    pivot means some level cannot reach |5>: the device fails if it has
    more than one closed class of levels.  Failures are recorded in
    ``errors``; failed devices carry zeros, NaN or inf, which checks flag.
    """
    pops, pairs, mask, rate_entries, pair_entries = _LAYOUTS[stack.active]
    # Devices on the last axis: M[i, j] is every device's entry.
    M = stack.matrix.transpose(1, 2, 0)
    n_dev = M.shape[-1]
    flat = M.reshape(-1, n_dev)
    scale = np.abs(M).max(axis=(0, 1))
    trace = np.abs(np.add.reduce(M[IDX_P11:IDX_P66 + 1])).max(axis=0)
    _fail(errors, ~(trace <= TRACE_TOL * scale),
          lambda k: NumericalSolveError(
              "generator is not trace conserving: population rows sum to "
              f"{trace[k]:.3e} (scale {scale[k]:.3e})"))

    # rates[j, i] is the incoherent rate i -> j between chain states.
    rates = flat[rate_entries]
    chain = rates.copy()
    if pairs:  # the single dot has no coherences
        a, b, re, im, ia, ib = pairs
        t, D, det, two_t = flat[pair_entries]
        D = -D
        den = D * D + det * det
        _fail(errors, ~(den > 0.0).all(axis=0),
              lambda k: DegenerateSteadyStateError(
                  "undamped resonant coherence: multiple steady states"))
        # Re and Im of each coherence per unit rho_a - rho_b.
        re_c, im_c = t * det / den, t * D / den
        kappa = -two_t * im_c
        chain[ia, ib] += kappa
        chain[ib, ia] += kappa
    # The chains of x_a, then of x_b, whose |5> leaves only by a unit load.
    chains = np.concatenate([chain, chain], axis=-1)
    chains[:, 0, n_dev:] = 0.0
    chains[pops.index(IDX_P66), 0, n_dev:] = 1.0
    W, ok = _gth(chains)
    W = W.reshape(len(pops), 2, n_dev)
    ok = ok[:n_dev] & ok[n_dev:]
    # Weights of x_a that overflow, as they do behind a zero pivot, leave
    # rho55 at 0 to working precision: the empty form.
    empty = ~np.isfinite(np.add.reduce(W[:, 0]))
    if not ok.all():
        _fail(errors, ~ok & ~_closed_classes(
            chains[..., :n_dev] + chains[..., n_dev:]),
            lambda k: DegenerateSteadyStateError(
                "reducible rate chain: more than one closed class of "
                "levels, so more than one steady state"))
    W[..., empty] = 0.0
    W[0, 1] = 0.0
    X = np.zeros((len(M), 2, n_dev))
    X[pops] = W
    if pairs:
        diff = _population_difference(rates, rates * mask, W, ia, ib, kappa)
        X[re] = re_c[:, None] * diff
        X[im] = im_c[:, None] * diff
    s_a, s_b = np.add.reduce(W)
    s_a[empty] = 1.0

    # M(Gamma) x(Gamma) = (c0 + Gamma c1) / (S_a + Gamma S_b): the load
    # term acting on x_b vanishes because x_b[5] = 0.  Bounding c0 and c1
    # bounds the residual at every load by RESIDUAL_TOL times the largest
    # generator entry.
    R = np.einsum("ijk,jsk->isk", M, X)
    R[IDX_P55, 1] -= X[IDX_P55, 0]
    R[IDX_P66, 1] += X[IDX_P55, 0]
    c0, c1 = np.abs(R).max(axis=0)
    _fail(errors, ~((c0 <= RESIDUAL_TOL * scale * s_a)
                    & (c1 <= RESIDUAL_TOL * scale * s_b)),
          lambda k: NumericalSolveError(
              f"chain-form residual {c0[k] / s_a[k]:.3e} + Gamma "
              f"{c1[k] / s_b[k]:.3e} exceeds {RESIDUAL_TOL:.0e} x largest "
              f"generator entry {scale[k]:.3e}"))
    return ChainForm(stack, *X.transpose(1, 2, 0), s_a, s_b)


# Two entries hold a molecule and its single-dot twin, so characterising
# both with interleaved calls still builds each once.  Errors are not
# cached: a failing device runs every check again on each call.
@functools.lru_cache(maxsize=2)
def _device_chain(params: ModelParams, kind: str) -> ChainForm:
    """Chain form of one device, from ``build_generator``; raises the
    device's error if it fails.  Its arrays are read-only, since every
    caller with the same (params, kind) shares them."""
    g = build_generator(params.replace(Gamma=0.0), kind)
    e = g.energies
    stack = GeneratorStack(g.matrix[None], g.active, *(
        np.array([v]) for v in (e.e5_minus_e6, e.E12, e.E34, params.kTc)))
    errors = [None]
    chain = _chain_form(stack, errors)
    if errors[0] is not None:
        raise errors[0]
    for values in (chain.x_a, chain.x_b, chain.s_a, chain.s_b, stack.matrix,
                   stack.e5_minus_e6, stack.E12, stack.E34, stack.kTc):
        values.setflags(write=False)
    return chain


@np.errstate(all="ignore")  # as in ``_chain_form``
def _max_power(chain: ChainForm, lo: np.ndarray, hi: np.ndarray,
               errors: list) -> MaxPowerBatch:
    """Maximum-power point of each device of ``chain`` between the loads
    ``lo`` and ``hi``, one pair per device.

    With j = Gamma/(s_a + Gamma s_b) and V = (E5 - E6) - kTc ln w6,
    w6 = a6 + Gamma b6, dP/dGamma has the sign of the concave
    f = s_a V w6 - kTc b6 Gamma (s_a + Gamma s_b), so f(lo) > 0 > f(hi)
    brackets one maximum (else ``BoundaryMaximumError``).  A concave
    function lies below its tangents, so Newton's method on f from a
    point where f < 0 falls monotonically onto the root until rounding
    stops it.  eta is P_m over E12*J1 + E34*J2, the absorbed power.
    """
    # f and df/dGamma over s_a b6 > 0, with w6 = b6 (A + Gamma).
    b6, kTc = chain.x_b[:, IDX_P66], chain.stack.kTc
    A, r = chain.x_a[:, IDX_P66] / b6, chain.s_b / chain.s_a
    e56 = chain.stack.e5_minus_e6 - kTc * np.log(b6)

    def slope(gamma, log=np.log):
        v = e56 - kTc * log(A + gamma)
        q = 1.0 + r * gamma
        return v * (A + gamma) - kTc * gamma * q, v - 2.0 * kTc * q

    # f at points spaced evenly in ln Gamma from lo to hi; Newton starts
    # from the first point right of the maximum.
    points = lo ** (1.0 - _SPACING[:, None]) * hi ** _SPACING[:, None]
    f = slope(points)[0]
    first = (f < 0.0).argmax(axis=0), np.arange(len(lo))
    gamma, f_start = points[first], f[first]

    def unbracketed(k):
        if not chain.x_a[k, IDX_P55] > 0.0:
            return BoundaryMaximumError(
                "the conduction contact is empty at every load: no power")
        if not f[0, k] > 0.0:
            return BoundaryMaximumError(
                f"power does not rise above Gamma = {lo[k]:g}: no positive "
                "interior maximum; widen the load grid")
        if not f[-1, k] < 0.0:
            return BoundaryMaximumError(
                f"power still rises at Gamma = {hi[k]:g}; widen the load grid")
        return NumericalSolveError(
            f"power slope overflows at Gamma = {gamma[k]:g}")

    _fail(errors, ~((f[0] > 0.0) & (f[-1] < 0.0) & (-np.inf < f_start)),
          unbracketed)
    moving = np.array([e is None for e in errors], dtype=bool)
    if len(gamma) == 1:
        # One device steps on floats with numpy's log (module docstring).
        A, r, e56, kTc, g = (float(v[0]) for v in (A, r, e56, kTc, gamma))
        for _ in range(_NEWTON_STEPS if moving[0] else 0):
            f, df = slope(g, lambda x: float(np.log(x)))
            step = g - (f / df if df else np.divide(f, df))  # x/0 as numpy
            if not step < g:
                moving[0] = False
                break
            g = step
        gamma = np.array([g])
    else:
        for _ in range(_NEWTON_STEPS):
            if not np.count_nonzero(moving):
                break
            f, df = slope(gamma)
            step = gamma - f / df
            moving &= step < gamma
            # A device whose step no longer falls stays where it is, and so
            # keeps failing that test; failed devices' values are dropped.
            gamma = np.fmin(step, gamma)
    _fail(errors, moving, lambda k: NumericalSolveError(
        f"maximum-power search still moving after {_NEWTON_STEPS} steps"))

    x = chain.states(gamma)
    j = gamma * x[:, IDX_P55]
    V = chain.voltage(gamma)
    P = j * V
    j1, j2 = absorption_fluxes(x, chain.stack.matrix)
    supplied = j1 * chain.stack.E12 + j2 * chain.stack.E34
    _fail(errors, ~((P > 0.0) & (supplied > 0.0)),
          lambda k: BoundaryMaximumError("no positive power at the maximum")
          if not P[k] > 0.0 else UndefinedEfficiencyError(
              "supplied power is zero; efficiency undefined"))
    columns = np.array([gamma, j, V, P, P / supplied,
                        np.hypot(x[:, IDX_RE13], x[:, IDX_IM13]),
                        np.hypot(x[:, IDX_RE24], x[:, IDX_IM24])])
    failed = [e is not None for e in errors]
    if any(failed):
        columns[:, failed] = np.nan
    return MaxPowerBatch(*columns, errors=tuple(errors))


def iv_curve(params: ModelParams, kind: str = "qdm",
             grid: GridSpec | None = None,
             alignment: str = "0") -> IVCurve:
    """Stationary observables at every load rate of a log grid, all read
    at once from the device's chain form.  Points where the voltage is
    undefined (vanishing contact population) are dropped and counted in
    ``n_dropped``.
    """
    grid = grid or GridSpec()
    params = apply_band_alignment(params, alignment)
    chain = _device_chain(params, kind)
    gammas = grid.values()
    # ``ChainForm.states`` for the six components read, as rows over loads.
    with np.errstate(over="ignore", invalid="ignore"):
        p55, p66, re13, im13, re24, im24 = x = (
            (chain.x_a[0, IDX_P55:, None] + chain.x_b[0, IDX_P55:, None]
             * gammas) / (chain.s_a[0] + gammas * chain.s_b[0]))
    keep = (p55 > _POPULATION_GUARD) & (p66 > _POPULATION_GUARD)
    if not keep.all():
        (p55, p66, re13, im13, re24, im24), gammas = x[:, keep], gammas[keep]
    j = gammas * p55
    V = chain.voltage(gammas)
    columns = {"Gamma": gammas, "j": j, "V": V, "P": j * V,
               "coh13": np.hypot(re13, im13), "coh24": np.hypot(re24, im24)}
    return IVCurve(columns=columns, params=params, kind=kind, grid=grid,
                   chain=chain, n_dropped=int(len(keep) - keep.sum()))


def max_power_point(params: ModelParams | None = None,
                    kind: str | None = None,
                    curve: IVCurve | None = None,
                    grid: GridSpec | None = None) -> MaxPowerPoint:
    """Locate the interior power maximum of ``curve`` (given alone), or of
    ``iv_curve(params, kind, grid)``, by default of kind "qdm".

    The grid argmax and its two neighbours bracket the maximum, which
    ``_max_power`` then solves for to rounding on the curve's chain form.
    A maximum on the grid boundary raises; the grid must be widened.
    """
    if curve is None:
        if params is None:
            raise DomainError("need either params or a precomputed curve")
        curve = iv_curve(params, "qdm" if kind is None else kind, grid)
    elif (kind not in (None, curve.kind)
          or any(v is not None for v in (params, grid))):
        raise DomainError("a precomputed curve takes no other argument")
    gammas, powers = curve.column("Gamma"), curve.column("P")
    if len(powers) == 0:
        raise BoundaryMaximumError("curve has no valid points")
    k = int(powers.argmax())
    if powers[k] <= 0.0:
        raise BoundaryMaximumError("no positive power anywhere on the grid")
    if k == 0 or k == len(powers) - 1:
        raise BoundaryMaximumError(
            f"power maximum at grid edge Gamma = {gammas[k]:g}; "
            "widen the load grid")
    mpp = _max_power(curve.chain, gammas[[k - 1]], gammas[[k + 1]], [None])
    mpp.raise_first()
    return MaxPowerPoint(*(float(getattr(mpp, name)[0]) for name in (
        "Gamma_star", "j_mpp", "V_mpp", "P_m", "eta", "coh13", "coh24")))


def open_circuit_voltage(params: ModelParams,
                         kind: str = "qdm") -> OpenCircuitVoltage:
    """Voltage exactly at zero load, (E5 - E6) - kTc ln a6; raises
    ``VoltageUndefinedError`` if a contact population vanishes there."""
    chain = _device_chain(params, kind)
    p55, p66 = chain.x_a[0, IDX_P55:IDX_P66 + 1] / chain.s_a[0]
    if not (p55 > _POPULATION_GUARD and p66 > _POPULATION_GUARD):
        raise VoltageUndefinedError(
            f"contact populations too small at zero load (rho55={p55:.3e}, "
            f"rho66={p66:.3e}); open-circuit voltage undefined")
    return OpenCircuitVoltage(value=float(chain.voltage(0.0)[0]))


@np.errstate(over="ignore")  # an overflowing crossing fails the check
def _short_circuit_load(chain: ChainForm) -> float:
    """Load rate where the voltage of a one-device chain vanishes:
    a6 + Gamma b6 = exp((E5 - E6)/kTc)."""
    a6, b6 = float(chain.x_a[0, IDX_P66]), float(chain.x_b[0, IDX_P66])
    r = float(np.exp(chain.stack.e5_minus_e6[0] / chain.stack.kTc[0]))
    if not (b6 > 0.0 and a6 < r < math.inf):
        raise NumericalSolveError(
            f"no short-circuit load at positive Gamma: a6 = {a6:.3e}, "
            f"b6 = {b6:.3e}, exp((E5 - E6)/kTc) = {r:.3e}")
    return (r - a6) / b6


def short_circuit_current(curve: IVCurve) -> ShortCircuitCurrent:
    """Current where the voltage, which falls with the load, crosses
    zero: solved in closed form if the curve reaches V <= 0, else the
    current at its largest load, flagged as a lower bound.
    """
    volts = curve.column("V")
    if len(volts) == 0:
        raise VoltageUndefinedError("empty curve: no short-circuit estimate")
    if volts[-1] > 0.0:
        return ShortCircuitCurrent(value=float(curve.column("j")[-1]),
                                   from_crossing=False)
    chain = curve.chain
    gamma = _short_circuit_load(chain)
    return ShortCircuitCurrent(
        value=float(gamma / (chain.s_a[0] + gamma * chain.s_b[0])),
        from_crossing=True)


def relative_current_gain(params: ModelParams) -> CurrentGain:
    """Gain of the molecule over its single-dot counterpart.

    Both devices are evaluated at their own maximum-power points; the
    single-dot twin shares every parameter and simply drops the second
    dot.
    """
    mpp_qdm = max_power_point(params, kind="qdm")
    mpp_sqd = max_power_point(params, kind="sqd")
    if mpp_sqd.j_mpp == 0.0:
        raise UndefinedEfficiencyError(
            "single-dot current vanishes; relative gain undefined")
    return CurrentGain(
        delta_j=(mpp_qdm.j_mpp - mpp_sqd.j_mpp) / mpp_sqd.j_mpp,
        delta_Pm=(mpp_qdm.P_m - mpp_sqd.P_m) / mpp_sqd.P_m)


def max_power_batch(params: ModelParams, kind: str = "qdm",
                    grid: GridSpec | None = None,
                    **varied) -> MaxPowerBatch:
    """Maximum-power points of ``params`` with the fields in ``varied``
    set from equal-length arrays, one device per entry (see
    ``build_generator_stack``), between ``grid.gamma_min`` and
    ``grid.gamma_max``.  An input error in any device raises at once;
    numerical failures are recorded per device.
    """
    grid = grid or GridSpec()
    stack = build_generator_stack(params, kind, **varied)
    errors = [None] * len(stack.matrix)
    chain = _chain_form(stack, errors)
    bounds = np.full((2, len(errors)), [[grid.gamma_min], [grid.gamma_max]])
    return _max_power(chain, *bounds, errors)


@dataclass(frozen=True)
class GammaGridScan:
    """Relative current gain over an escape-rate grid."""

    gamma_c_values: np.ndarray
    gamma_v_values: np.ndarray
    delta_j: np.ndarray  # shape (len(gamma_v), len(gamma_c))
    failures: tuple  # (iv, ic, message)


def gamma_grid_scan(params: ModelParams,
                    gamma_c_grid: np.ndarray | None = None,
                    gamma_v_grid: np.ndarray | None = None,
                    grid: GridSpec | None = None) -> GammaGridScan:
    """Relative current gain on a log-log escape-rate grid.

    Every cell's molecule and single dot go through one
    ``max_power_batch`` call per kind.  Failed cells are NaN and recorded
    in ``failures``, with the single dot's error first.
    """
    gc_vals = (np.logspace(0, math.log10(500.0), 40)
               if gamma_c_grid is None else np.asarray(gamma_c_grid, float))
    gv_vals = (np.logspace(-4, math.log10(20.0), 40)
               if gamma_v_grid is None else np.asarray(gamma_v_grid, float))
    gc_cells, gv_cells = np.meshgrid(gc_vals, gv_vals)
    cells = dict(gamma_c=gc_cells.ravel(), gamma_v=gv_cells.ravel())
    sqd = max_power_batch(params, kind="sqd", grid=grid, **cells)
    qdm = max_power_batch(params, kind="qdm", grid=grid, **cells)
    delta = (qdm.j_mpp - sqd.j_mpp) / sqd.j_mpp
    failures = []
    for k, (err_sqd, err_qdm) in enumerate(zip(sqd.errors, qdm.errors)):
        exc = err_sqd or err_qdm
        if exc is not None:
            failures.append((*divmod(k, len(gc_vals)),
                             f"{type(exc).__name__}: {exc}"))
    return GammaGridScan(gamma_c_values=gc_vals, gamma_v_values=gv_vals,
                         delta_j=delta.reshape(len(gv_vals), len(gc_vals)),
                         failures=tuple(failures))


def efficiency_vs_distance(params: ModelParams,
                           d_grid=None, alignments=None,
                           grid: GridSpec | None = None) -> list:
    """Maximum-power efficiency versus barrier width per band alignment:
    one ``EfficiencyRow`` per (alignment, d), alignments outermost.

    Raises the first device's error if any fails.
    """
    d_grid = list(d_grid) if d_grid is not None else list(range(2, 11))
    alignments = tuple(alignments) if alignments is not None else BAND_ALIGNMENTS
    cells = [(alignment, float(d)) for alignment in alignments
             for d in d_grid]
    aligned = {a: apply_band_alignment(params, a) for a in alignments}
    tunnelings = {d: tunneling_from_distance(d) for _, d in cells}
    mpp = max_power_batch(
        params, kind="qdm", grid=grid,
        delta_e=[aligned[a].delta_e for a, _ in cells],
        delta_h=[aligned[a].delta_h for a, _ in cells],
        Te=[tunnelings[d][0] for _, d in cells],
        Th=[tunnelings[d][1] for _, d in cells])
    mpp.raise_first()
    return [EfficiencyRow(alignment, d, float(mpp.P_m[k]), float(mpp.eta[k]),
                          float(mpp.coh13[k]), float(mpp.coh24[k]))
            for k, (alignment, d) in enumerate(cells)]


def phonon_assisted_comparison(params: ModelParams,
                               rates=(0.001, 0.01, 0.1),
                               rate_sets=((100.0, 0.05), (50.0, 5.0)),
                               distances=(2.0, 10.0),
                               grid: GridSpec | None = None) -> list:
    """Maximum power with incoherent interdot channels, versus without.

    One ``PhononAssistedRow`` per (escape-rate set, barrier width,
    assisted rate) cell, with the relative gain of P_m over the
    coherent-only baseline, whose own row has assisted rate 0.  Raises
    the first device's error if any fails.
    """
    g_phs = (0.0,) + tuple(rates)
    cells = [(gc, gv, float(d), g_ph) for gc, gv in rate_sets
             for d in distances for g_ph in g_phs]
    gc_col, gv_col, d_col, g_ph_col = np.array(cells).T
    te, th = np.array([tunneling_from_distance(d) for d in d_col]).T
    mpp = max_power_batch(params, kind="qdm", grid=grid, gamma_c=gc_col,
                          gamma_v=gv_col, Te=te, Th=th, gamma_13=g_ph_col,
                          gamma_24=g_ph_col)
    mpp.raise_first()
    rows = []
    for k, (gc, gv, d, g_ph) in enumerate(cells):
        base = mpp.P_m[k - k % len(g_phs)]
        rows.append(PhononAssistedRow(
            gc, gv, d, g_ph, float(mpp.P_m[k]), float(mpp.eta[k]),
            float((mpp.P_m[k] - base) / base)))
    return rows
