"""Load-rate sweeps and parameter scans on the exact rate chain.

Every stationary state here is rho(Gamma) = (x_a + Gamma x_b) / (S_a +
Gamma S_b), the chain form of ``_chain_form``, whose coherences come from
rate chains with the coherent links cut, free of cancellation; it adds
the load to zero-load ``build_generator`` stacks.  The single-device
functions (``iv_curve``, ``max_power_point``, ``open_circuit_voltage``,
``short_circuit_current``) read it for a one-device stack, built once
per (params, kind) and held read-only in a two-entry memo
(``_device_chain``); the scans treat the devices as a batch axis, one
stack of the varied fields in ``max_power_batch``.  With the devices on
the last axis, one ``ChainForm.states`` serves a curve (one device, many
loads) and a batch (one load per device).  Both find the maximum-power
load by one search (``_max_power``) between the load grid's bounds, so a
lone device's maximum is its batch row bit for bit; one device's Newton
iteration runs on floats with numpy's log (the C library's may differ in
the last bit and move the maximum off the batch's).  Every result record
but the curve, which carries its chain form, is a named tuple: a scan
row's fields follow the CLI's CSV columns, and a maximum's fields are
floats for a lone device or per-device arrays.
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
                    GeneratorStack, ModelParams, _check_fields, _raise_first,
                    _record, apply_band_alignment, build_generator,
                    tunneling_from_distance)
from .observables import _POPULATION_GUARD, absorption_fluxes
from .steady import RESIDUAL_TOL, _generator_checks

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
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 50):
            raise DomainError("load grid needs an integer of at least 50 "
                              f"points, got {self.n!r}")
        if not 0.0 < self.gamma_min < self.gamma_max < math.inf:
            raise DomainError("need 0 < gamma_min < gamma_max < inf")

    def values(self) -> np.ndarray:
        return np.logspace(math.log10(self.gamma_min),
                           math.log10(self.gamma_max), self.n)


@dataclass(frozen=True, eq=False)
class ChainForm:
    """Stationary states of a stack of devices at every load rate: device
    k's state at load Gamma is (x_a[:, k] + Gamma x_b[:, k]) / (s_a[k] +
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
    def states(self, gamma, rows=slice(None)) -> np.ndarray:
        """States at load(s) ``gamma``, one column each: one load per
        device, or any number of loads for a single device; only the state
        ``rows`` if given."""
        return ((self.x_a[rows] + gamma * self.x_b[rows])
                / (self.s_a + gamma * self.s_b))

    def voltage(self, gamma) -> np.ndarray:
        """(E5 - E6) + kTc ln(rho55/rho66), where rho55/rho66 is
        1/(a6 + Gamma b6); the contact populations must be positive."""
        return self.stack.e5_minus_e6 - self.stack.kTc * np.log(
            self.x_a[IDX_P66] + gamma * self.x_b[IDX_P66])


@dataclass(frozen=True, eq=False)
class IVCurve:
    """Current-voltage characteristic over a load grid.

    ``columns`` maps Gamma, j, V, P, coh13 and coh24 to read-only arrays
    over the kept load points; ``chain`` (one device) gives the state at
    any other load.
    """

    columns: dict
    params: ModelParams
    grid: GridSpec
    chain: ChainForm
    n_dropped: int = 0

    def __post_init__(self):
        for values in self.columns.values():
            values.setflags(write=False)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


class MaxPowerPoint(NamedTuple):
    """Maximum-power point of a load sweep: floats for a lone device, or
    one entry per device of a batch.

    ``eta`` is P_m over the power drawn from the radiation field,
    E12*J1 + E34*J2, with J_k the net absorption flux of optical channel
    k (see ``observables.absorption_fluxes``).  For the single dot it is
    P_m / (E12 * j_mpp) = V_mpp / E12.  A device that failed is NaN in
    every value, and ``errors`` holds the typed exception it raised (None
    where it succeeded).
    """

    Gamma_star: float
    j_mpp: float
    V_mpp: float
    P_m: float
    eta: float
    coh13: float
    coh24: float
    errors: tuple

    def raise_first(self) -> None:
        """Raise the error of the first device that failed, if any."""
        _raise_first(self.errors)


class ShortCircuitCurrent(NamedTuple):
    value: float
    from_crossing: bool  # False: tail value, a lower bound only


class OpenCircuitVoltage(NamedTuple):
    value: float


class CurrentGain(NamedTuple):
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
    # pair (a, b, re, im) and the chain positions of a and b; flat
    # generator indices (row * N_STATE + column) of the population rates
    # and of t, -D, Delta, -2 t.
    pops = [IDX_P55] + [i for i in active
                        if i in POPULATION_INDICES and i != IDX_P55]
    pairs = [(a, b, re, im, pops.index(a), pops.index(b))
             for a, b, re, im in _COHERENCES if im in active]
    pairs = tuple(np.array(col) for col in zip(*pairs))
    a, b, re, im, _, _ = pairs or (np.zeros(0, dtype=int),) * 6
    index = np.array(pops) * N_STATE
    return (pops, pairs, index[:, None] + pops,
            np.array([im * N_STATE + a, re * N_STATE + re,
                      re * N_STATE + im, a * N_STATE + im]))


_LAYOUTS = {active: _chain_layout(active)
            for active in (QDM_ACTIVE, SQD_ACTIVE)}


def _gth(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary weights ``w[i, r, k]`` of rate chains by
    Grassmann-Taksar-Heyman elimination, for two roots r at once, and the
    pivots ``p[i - 1, k]`` they share, state i's exit rate to the states
    left when it is eliminated.
    ``R[j, c, k]`` is chain k's rate into state j from column c (k may be
    several axes).  State i >= 1 is column i + 1.  State 0 leaves by
    column 1 in root a (r = 0) and by column 0 in root b (r = 1); no pivot
    reads either.  ``w[0]`` is column 1's weight, 1 in root a and 0 in
    root b.  The diagonal is ignored, and ``R`` is overwritten.
    Every step adds, multiplies or divides nonnegative numbers, so each
    weight keeps a small relative error however small it is.  Every state
    reaches state 0 where every pivot is positive, and the product of the
    pivots is the sum over the spanning trees rooted at state 0.
    """
    n = len(R)
    pivots, entries = [], []
    for k in range(n - 1, 0, -1):  # state k, column k + 1
        pivot = np.add.reduce(R[:k, k + 1])
        # Rates into k, per unit of k's exit rate to the states left.
        into = R[k, :k + 1] / pivot
        R[:k, :k + 1] += R[:k, k + 1, None] * into
        pivots.append(pivot)
        entries.append(into)
    # weights[c, r]: column c's weight in root r's chain; a root column
    # outside its own chain weighs an exact 0.
    weights = np.zeros((n + 1, 2) + R.shape[2:])
    weights[1, 0] = weights[0, 1] = 1.0
    for c, into in zip(range(2, n + 1), reversed(entries)):
        weights[c] = np.add.reduce(weights[:c] * into[:, None])
    return weights[1:], np.array(pivots[::-1])


def _closed_classes(link: np.ndarray) -> np.ndarray:
    """Per chain k: whether it has one closed class of states, where
    ``link[j, i, k]`` says that its rate i -> j is positive."""
    # reach[k, i, j]: in chain k, state i reaches state j.
    reach = link.transpose(2, 1, 0) | np.eye(len(link), dtype=bool)
    for _ in range(3):  # paths of up to eight links cover six states
        reach = reach @ reach
    recurrent = (~reach | reach.transpose(0, 2, 1)).all(axis=2)
    return (reach | ~recurrent[:, :, None]
            | ~recurrent[:, None, :]).all(axis=(1, 2))


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
    the non-load exits of |5> replaced by a unit load; x_b[5] = 0.  The two
    differ only in |5>'s exit column, which no pivot reads, so one
    elimination with both as root columns gives them, with shared pivots.
    A zero pivot means some level cannot reach |5>: the device fails if it
    has more than one closed class of levels.  Failures are recorded in
    ``errors``; failed devices carry zeros, NaN or inf, which checks flag.

    The coherences are multiples of rho_a - rho_b, which cancels where
    kappa locks the pair.  Trees rooted at a entering from b and at b
    entering from a pair up, so the tree sums' difference W_a - W_b sees
    the a-b link only through r_ba - r_ab: a chain with the link cut to
    that net rate one way (plus a symmetric tie too weak to lock) has the
    same difference.  As the pivots' product is the tree sum rooted at
    |5>, rho_a - rho_b = (w'_a - w'_b) prod(p'/p) from the cut chain's
    weights w' and pivots p' and the chain's pivots p.
    """
    pops, pairs, rate_entries, pair_entries = _LAYOUTS[stack.active]
    M = stack.matrix
    n_dev = M.shape[-1]
    flat = M.reshape(-1, n_dev)
    scale = stack.max_rate
    _record(errors, _generator_checks(stack))

    # rates[j, i] is the incoherent rate i -> j between chain states.
    rates = flat[rate_entries]
    # Chain set s (the chain, then the cut ones) at [:, :, s], columns as
    # in ``_gth``: x_b's root column, whose |5> leaves only by a unit load,
    # then the chain's own, |5> (x_a's root) first.
    i6 = pops.index(IDX_P66)
    cuts = np.arange(1, len(pairs[0]) + 1) if pairs else ()
    chains = np.empty((len(rates), len(rates) + 1, 1 + len(cuts), n_dev))
    chains[:, 0] = 0.0
    chains[i6, 0] = 1.0
    chains[:, 1:] = rates[:, :, None]
    if pairs:  # the single dot has no coherences
        a, b, re, im, ia, ib = pairs
        t, D, det, two_t = flat[pair_entries]
        D = -D
        den = D * D + det * det
        _record(errors, [(
            (den > 0.0).all(axis=0), lambda k: DegenerateSteadyStateError(
                "undamped resonant coherence: multiple steady states"))])
        # Re and Im of each coherence per unit rho_a - rho_b.
        re_c, im_c = t * det / den, t * D / den
        kappa = -two_t * im_c
        chains[ia, ib + 1] += kappa[:, None]
        chains[ib, ia + 1] += kappa[:, None]
        # Pair p's cut chain, set 1 + p, links the pair by its net
        # incoherent rate b -> a, formed without kappa, which would cancel
        # digits, and a tie that keeps a bridge connected, 2^-52 of the
        # smaller exit rate.
        net = rates[ia, ib] - rates[ib, ia]
        tie = 2.0 ** -52 * np.minimum(-rates[ia, ia], -rates[ib, ib])
        chains[ia, ib + 1, cuts] = np.maximum(net, 0.0) + tie
        chains[ib, ia + 1, cuts] = np.maximum(-net, 0.0) + tie
    W, pivots = _gth(chains)
    ok = (pivots[:, 0] > 0.0).all(axis=0)
    # Weights of x_a that overflow, as they do behind a zero pivot, leave
    # rho55 at 0 to working precision: the empty form.
    empty = ~np.isfinite(np.add.reduce(W[:, 0, 0]))
    if not ok.all():
        # The chain's links, with x_b's unit load.
        link = rates > 0.0
        link[i6, 0] = True
        if pairs:
            link[ia, ib] = rates[ia, ib] + kappa > 0.0
            link[ib, ia] = rates[ib, ia] + kappa > 0.0
        _record(errors, [(
            ok | _closed_classes(link), lambda k: DegenerateSteadyStateError(
                "reducible rate chain: more than one closed class of "
                "levels, so more than one steady state"))])
    w = W[:, :, 0]
    w[..., empty] = 0.0
    X = np.zeros((len(M), 2, n_dev))
    X[pops] = w
    if pairs:
        diff = (W[ia, :, cuts] - W[ib, :, cuts]) * np.multiply.reduce(
            pivots[:, 1:] / pivots[:, :1])[:, None]
        lost = ~np.isfinite(diff)
        if lost.any():
            # A cut chain has a zero pivot where a state of the pair has no
            # incoherent exit: its net inflow, kappa (rho_a - rho_b) (or
            # minus that for b), then sums terms >= 0.
            rows = np.where((rates[ia, ia] >= rates[ib, ib])[:, None],
                            rates[ia], -rates[ib])
            diff[lost] = (np.einsum("pjk,jsk->psk", rows, w)
                          / kappa[:, None])[lost]
        diff[..., empty] = 0.0
        X[re] = re_c[:, None] * diff
        X[im] = im_c[:, None] * diff
    s_a, s_b = np.add.reduce(w)
    s_a[empty] = 1.0

    # M(Gamma) x(Gamma) = (c0 + Gamma c1) / (S_a + Gamma S_b): the load
    # term acting on x_b vanishes because x_b[5] = 0.  Bounding c0 and c1
    # bounds the residual at every load by RESIDUAL_TOL times the largest
    # generator entry.
    R = np.einsum("ijk,jsk->isk", M, X)
    R[IDX_P55, 1] -= X[IDX_P55, 0]
    R[IDX_P66, 1] += X[IDX_P55, 0]
    c0, c1 = np.abs(R).max(axis=0)
    _record(errors, [(
        (c0 <= RESIDUAL_TOL * scale * s_a)
        & (c1 <= RESIDUAL_TOL * scale * s_b), lambda k: NumericalSolveError(
            f"chain-form residual {c0[k] / s_a[k]:.3e} + Gamma "
            f"{c1[k] / s_b[k]:.3e} exceeds {RESIDUAL_TOL:.0e} x largest "
            f"generator entry {scale[k]:.3e}"))])
    return ChainForm(stack, X[:, 0], X[:, 1], s_a, s_b)


# Two entries hold a molecule and its single-dot twin, so characterising
# both with interleaved calls still builds each once.  Errors are not
# cached: a failing device runs every check again on each call.
@functools.lru_cache(maxsize=2)
def _device_chain(params: ModelParams, kind: str) -> ChainForm:
    """Chain form of one device's ``build_generator`` stack; raises the
    device's error if it fails.  Its arrays are read-only, since every
    caller with the same (params, kind) shares them."""
    errors = [None]
    chain = _chain_form(build_generator(params, kind), errors)
    _raise_first(errors)
    for values in (chain.x_a, chain.x_b, chain.s_a, chain.s_b):
        values.setflags(write=False)
    return chain


@np.errstate(all="ignore")  # as in ``_chain_form``
def _max_power(chain: ChainForm, grid: GridSpec,
               errors: list) -> MaxPowerPoint:
    """Maximum-power point of each device of ``chain`` between the loads
    lo = ``grid.gamma_min`` and hi = ``grid.gamma_max``.

    With j = Gamma/(s_a + Gamma s_b) and V = (E5 - E6) - kTc ln w6,
    w6 = a6 + Gamma b6, dP/dGamma has the sign of the concave
    f = s_a V w6 - kTc b6 Gamma (s_a + Gamma s_b), so f(lo) > 0 > f(hi)
    brackets one maximum (else ``BoundaryMaximumError``).  A concave
    function lies below its tangents, so Newton's method on f from a
    point where f < 0 falls monotonically onto the root until rounding
    stops it.  eta is P_m over E12*J1 + E34*J2, the absorbed power.
    """
    # f and df/dGamma over s_a b6 > 0, with w6 = b6 (A + Gamma).
    b6, kTc = chain.x_b[IDX_P66], chain.stack.kTc
    A, r = chain.x_a[IDX_P66] / b6, chain.s_b / chain.s_a
    e56 = chain.stack.e5_minus_e6 - kTc * np.log(b6)

    def slope(gamma, log=np.log):
        v = e56 - kTc * log(A + gamma)
        q = 1.0 + r * gamma
        return v * (A + gamma) - kTc * gamma * q, v - 2.0 * kTc * q

    # f at points spaced evenly in ln Gamma from lo to hi; Newton starts
    # from the first point right of the maximum.
    lo, hi = grid.gamma_min, grid.gamma_max
    points = lo ** (1.0 - _SPACING) * hi ** _SPACING
    f = slope(points[:, None])[0]
    first = (f < 0.0).argmax(axis=0)
    gamma, f_start = points[first], f[first, np.arange(len(errors))]
    _record(errors, [
        (chain.x_a[IDX_P55] > 0.0, lambda k: BoundaryMaximumError(
            "the conduction contact is empty at every load: no power")),
        (f[0] > 0.0, lambda k: BoundaryMaximumError(
            f"power does not rise above Gamma = {lo:g}: no positive "
            "interior maximum; widen the load grid")),
        (f[-1] < 0.0, lambda k: BoundaryMaximumError(
            f"power still rises at Gamma = {hi:g}; widen the load grid")),
        (-np.inf < f_start, lambda k: NumericalSolveError(
            f"power slope overflows at Gamma = {gamma[k]:g}"))])
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
    _record(errors, [(~moving, lambda k: NumericalSolveError(
        f"maximum-power search still moving after {_NEWTON_STEPS} steps"))])

    x = chain.states(gamma)
    j = gamma * x[IDX_P55]
    V = chain.voltage(gamma)
    P = j * V
    j1, j2 = absorption_fluxes(x, chain.stack.matrix)
    supplied = j1 * chain.stack.E12 + j2 * chain.stack.E34
    _record(errors, [
        (P > 0.0, lambda k: BoundaryMaximumError(
            "no positive power at the maximum")),
        (supplied > 0.0, lambda k: UndefinedEfficiencyError(
            "supplied power is zero; efficiency undefined"))])
    columns = np.array([gamma, j, V, P, P / supplied,
                        np.hypot(x[IDX_RE13], x[IDX_IM13]),
                        np.hypot(x[IDX_RE24], x[IDX_IM24])])
    failed = [e is not None for e in errors]
    if any(failed):
        columns[:, failed] = np.nan
    return MaxPowerPoint(*columns, errors=tuple(errors))


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
    p55, p66, re13, im13, re24, im24 = x = chain.states(
        gammas, slice(IDX_P55, None))
    keep = (p55 > _POPULATION_GUARD) & (p66 > _POPULATION_GUARD)
    if not keep.all():
        (p55, p66, re13, im13, re24, im24), gammas = x[:, keep], gammas[keep]
    j = gammas * p55
    V = chain.voltage(gammas)
    columns = {"Gamma": gammas, "j": j, "V": V, "P": j * V,
               "coh13": np.hypot(re13, im13), "coh24": np.hypot(re24, im24)}
    return IVCurve(columns=columns, params=params, grid=grid, chain=chain,
                   n_dropped=int(len(keep) - keep.sum()))


def max_power_point(params: ModelParams | None = None,
                    kind: str | None = None,
                    curve: IVCurve | None = None,
                    grid: GridSpec | None = None) -> MaxPowerPoint:
    """Interior power maximum of the device of ``curve`` (given alone)
    between its grid's bounds, or of ``params`` (kind "qdm" by default)
    between those of ``grid``: ``max_power_batch``'s row for the device,
    bit for bit, as floats.  A maximum at either bound raises; the grid
    must be widened.
    """
    if curve is None:
        if params is None:
            raise DomainError("need either params or a precomputed curve")
        chain = _device_chain(params, "qdm" if kind is None else kind)
    elif any(v is not None for v in (params, kind, grid)):
        raise DomainError("a precomputed curve takes no other argument")
    else:
        chain, grid = curve.chain, curve.grid
    mpp = _max_power(chain, grid or GridSpec(), [None])
    mpp.raise_first()
    return MaxPowerPoint(*(float(v[0]) for v in mpp[:-1]), mpp.errors)


def open_circuit_voltage(params: ModelParams,
                         kind: str = "qdm") -> OpenCircuitVoltage:
    """Voltage exactly at zero load, (E5 - E6) - kTc ln a6; raises
    ``VoltageUndefinedError`` if a contact population vanishes there."""
    chain = _device_chain(params, kind)
    p55, p66 = chain.states(0.0, slice(IDX_P55, IDX_P66 + 1))[:, 0]
    if not (p55 > _POPULATION_GUARD and p66 > _POPULATION_GUARD):
        raise VoltageUndefinedError(
            f"contact populations too small at zero load (rho55={p55:.3e}, "
            f"rho66={p66:.3e}); open-circuit voltage undefined")
    return OpenCircuitVoltage(value=float(chain.voltage(0.0)[0]))


@np.errstate(over="ignore")  # an overflowing crossing fails the check
def _short_circuit_load(chain: ChainForm) -> float:
    """Load rate where the voltage of a one-device chain vanishes:
    a6 + Gamma b6 = exp((E5 - E6)/kTc)."""
    a6, b6 = float(chain.x_a[IDX_P66, 0]), float(chain.x_b[IDX_P66, 0])
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
    return CurrentGain(
        delta_j=(mpp_qdm.j_mpp - mpp_sqd.j_mpp) / mpp_sqd.j_mpp,
        delta_Pm=(mpp_qdm.P_m - mpp_sqd.P_m) / mpp_sqd.P_m)


def max_power_batch(params: ModelParams, kind: str = "qdm",
                    grid: GridSpec | None = None,
                    **varied) -> MaxPowerPoint:
    """Maximum-power points, between ``grid.gamma_min`` and
    ``grid.gamma_max``, of the devices of ``build_generator(params, kind,
    **varied)``.  An input error in any device raises at once; numerical
    failures are recorded per device.
    """
    # The chain form adds the load itself: ``Gamma`` is not a field here.
    _check_fields(params, varied.keys())
    stack = build_generator(params, kind, **varied)
    errors = [None] * stack.matrix.shape[-1]
    return _max_power(_chain_form(stack, errors), grid or GridSpec(), errors)


class GammaGridScan(NamedTuple):
    """Relative current gain over an escape-rate grid."""

    gamma_c_values: np.ndarray
    gamma_v_values: np.ndarray
    delta_j: np.ndarray  # shape (len(gamma_v), len(gamma_c))
    failures: tuple  # (iv, ic, message)


def gamma_grid_scan(params: ModelParams,
                    grid: GridSpec | None = None) -> GammaGridScan:
    """Relative current gain on the paper's 40 x 40 log-log escape-rate
    grid: gamma_c from 1 to 500, gamma_v from 1e-4 to 20.

    Every cell's molecule and single dot go through one
    ``max_power_batch`` call per kind.  Failed cells are NaN and recorded
    in ``failures``, with the single dot's error first.
    """
    gc_vals = np.logspace(0, math.log10(500.0), 40)
    gv_vals = np.logspace(-4, math.log10(20.0), 40)
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
                           grid: GridSpec | None = None) -> list:
    """Maximum-power efficiency at d = 2, 3, ..., 10 nm per band alignment:
    one ``EfficiencyRow`` per (alignment, d), alignments outermost.

    Raises the first device's error if any fails.
    """
    cells = [(alignment, float(d)) for alignment in BAND_ALIGNMENTS
             for d in range(2, 11)]
    aligned = {a: apply_band_alignment(params, a) for a in BAND_ALIGNMENTS}
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
                               grid: GridSpec | None = None) -> list:
    """Maximum power with incoherent interdot channels, versus without.

    One ``PhononAssistedRow`` per cell: (gamma_c, gamma_v) of (100, 0.05)
    or (50, 5), d of 2 or 10 nm, and assisted rate 0 (the coherent-only
    baseline), 0.001, 0.01 or 0.1, with the relative gain of P_m over the
    baseline.  Raises the first device's error if any fails.
    """
    g_phs = (0.0, 0.001, 0.01, 0.1)
    cells = [(gc, gv, d, g_ph) for gc, gv in ((100.0, 0.05), (50.0, 5.0))
             for d in (2.0, 10.0) for g_ph in g_phs]
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
