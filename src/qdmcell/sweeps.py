"""Load-rate sweeps and parameter scans.

Once the |6> row is traded for the normalization, the load rate enters
the constrained system at the single entry (5,5).  ``LoadSweep`` thus
gives the stationary state of one device at any load in closed form
(Sherman-Morrison) from one solve at a reference load, and the
single-device functions (``iv_curve``, ``max_power_point``, ...)
evaluate it.

The parameter scans (``gamma_grid_scan``, ``efficiency_vs_distance``,
``phonon_assisted_comparison``) treat the devices as a batch axis
instead.  A scan passes its base parameters and the arrays of the fields
it varies to ``max_power_batch``, which takes the zero-load generators of
all devices from one ``model.build_generator_stack`` call (equal, entry
for entry, to ``build_generator``, the single-device path), eliminates
the coherences in closed form, solves the remaining six-state rate chain
exactly by GTH elimination, and finds every maximum-power point in one
vectorised call per model kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BoundaryMaximumError, DegenerateSteadyStateError,
                     DomainError, NumericalSolveError,
                     UndefinedEfficiencyError, VoltageUndefinedError)
from .model import (BAND_ALIGNMENTS, IDX_IM13, IDX_IM24, IDX_P11, IDX_P22,
                    IDX_P33, IDX_P44, IDX_P55, IDX_P66, IDX_RE13, IDX_RE24,
                    ModelParams, N_STATE, POPULATION_INDICES,
                    apply_band_alignment, build_generator,
                    build_generator_stack, tunneling_from_distance)
from .observables import (_POPULATION_GUARD, absorption_fluxes, efficiency,
                          photovoltaic_point, supplied_power, voltage)
from .steady import (RESIDUAL_TOL, TRACE_TOL, SteadyState, solve_steady)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Load rate of the one validated solve behind every sweep.
_GAMMA_REF = 1.0


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


class LoadSweep:
    """Exact stationary states of one parameter set at every load rate.

    With the |6> row traded for the normalization (as in ``solve_steady``)
    the constrained matrix is B(Gamma) = B(Gr) - (Gamma - Gr) e5 e5^T for
    the reference load Gr.  From x0 = B(Gr)^-1 b and y = B(Gr)^-1 e5,
    Sherman-Morrison gives x(Gamma) = x0 + t y with
    t = (Gamma - Gr) rho55 and rho55 = x0[5] / (1 - (Gamma - Gr) y5).
    """

    def __init__(self, params: ModelParams, kind: str):
        self.params = params
        # Trace conservation, degeneracy and the residual are checked once,
        # at the reference load; adding load only ever adds couplings.  The
        # load enters no pump entry, so this generator also serves
        # ``absorption_fluxes`` at every load.
        self.generator = build_generator(params.replace(Gamma=_GAMMA_REF),
                                         kind)
        solve_steady(self.generator)
        self.active = active = list(self.generator.active)
        self.A = self.generator.matrix[np.ix_(active, active)]
        self.r5, self.r6 = active.index(IDX_P55), active.index(IDX_P66)
        B = self.A.copy()
        B[self.r6] = [float(i in POPULATION_INDICES) for i in active]
        # Right-hand sides b (the normalization) and e5.
        sol = np.linalg.solve(B, np.eye(len(active))[:, [self.r6, self.r5]])
        self.x0, self.y = sol[:, 0], sol[:, 1]
        self.y5 = float(self.y[self.r5])
        if not self.y5 < 0.0:
            raise NumericalSolveError(
                f"load response y5 = {self.y5:.3e} is not negative")
        # Largest generator entry apart from the two the load changes.
        rest = np.abs(self.A)
        rest[[self.r5, self.r6], self.r5] = 0.0
        self._rest_scale = float(rest.max())

    def contacts(self, gamma):
        """(rho55, rho66) at load rate(s) ``gamma``.  The denominator grows
        with Gamma (y5 < 0): it is positive above any load checked in
        ``states``."""
        d = gamma - _GAMMA_REF
        p55 = self.x0[self.r5] / (1.0 - d * self.y5)
        return p55, self.x0[self.r6] + d * p55 * self.y[self.r6]

    def states(self, gammas) -> tuple[np.ndarray, np.ndarray]:
        """Stationary states (one full-layout row per load) and the max-norm
        residual of the full generator at each load."""
        gammas = np.asarray(gammas, dtype=float)
        d = gammas - _GAMMA_REF
        if not (1.0 - d * self.y5 > 0.0).all():
            raise NumericalSolveError(
                "load rate below the range of the rank-one sweep: "
                f"1 - (Gamma - {_GAMMA_REF:g}) y5 <= 0 at y5 = {self.y5:.3e}")
        p55, _ = self.contacts(gammas)
        X = self.x0 + (d * p55)[:, None] * self.y
        X[:, self.r5] = p55
        # M(Gamma) x = M(Gr) x plus the load's transfer of d*rho55 from |5>
        # to |6>.
        R = X @ self.A.T
        R[:, self.r5] -= d * p55
        R[:, self.r6] += d * p55
        res = np.abs(R).max(axis=1)
        scale = np.maximum(self._rest_scale, np.maximum(
            np.abs(self.A[self.r5, self.r5] - d),
            np.abs(self.A[self.r6, self.r5] + d)))
        bad = np.flatnonzero(res > RESIDUAL_TOL * scale)
        if bad.size:
            k = int(bad[0])
            raise NumericalSolveError(
                f"steady solve residual {res[k]:.3e} at Gamma = {gammas[k]:g}")
        full = np.zeros((len(gammas), N_STATE))
        full[:, self.active] = X
        return full, res

    def state(self, gamma: float) -> SteadyState:
        X, res = self.states([gamma])
        return SteadyState(x=X[0], residual=float(res[0]),
                           condition_estimate=float("nan"))

    def voltage(self, p55, p66):
        """Photovoltage (E5 - E6) + kTc ln(rho55/rho66); populations must
        exceed the voltage guard."""
        return (self.generator.energies.e5_minus_e6
                + self.params.kTc * np.log(p55 / p66))

    def power(self, gamma: float) -> float:
        """Delivered power at one load rate; -inf where V is undefined."""
        p55, p66 = self.contacts(gamma)
        if not (p55 > _POPULATION_GUARD and p66 > _POPULATION_GUARD):
            return -math.inf
        return float(gamma * p55 * self.voltage(p55, p66))

    def short_circuit(self) -> tuple[float, float]:
        """(Gamma, j) where V = 0, i.e. rho55 = r rho66 with
        r = exp(-(E5 - E6)/kTc).

        Along the sweep rho66 = x0[6] + (rho55 - x0[5]) y6/y5, so the
        crossing is solved for rho55 directly.  Solving for t instead would
        cancel x0[5] against t*y5, as rho55 ~ r is tiny there.
        """
        r = math.exp(-self.generator.energies.e5_minus_e6 / self.params.kTc)
        x55, x66 = self.x0[self.r5], self.x0[self.r6]
        ratio = self.y[self.r6] / self.y5
        p66_inf = x66 - x55 * ratio  # rho66 at infinite load
        den = 1.0 - r * ratio
        if not (r > 0.0 and p66_inf > 0.0 and den > 0.0):
            raise NumericalSolveError(
                f"no short-circuit load: r = {r:.3e}, rho66 at infinite "
                f"load {p66_inf:.3e}, denominator {den:.3e}")
        p55 = r * p66_inf / den
        gamma = _GAMMA_REF + (p55 - x55) / (p55 * self.y5)
        if not gamma > 0.0:
            raise NumericalSolveError(
                f"voltage vanishes only at negative load {gamma:.3e}")
        return gamma, float(gamma * p55)


@dataclass(frozen=True, eq=False)
class IVCurve:
    """Current-voltage characteristic over a load grid.

    ``columns`` maps Gamma, j, V, P, coh13 and coh24 to read-only arrays
    over the kept load points; ``sweep`` evaluates any other load.
    """

    columns: dict
    params: ModelParams
    kind: str
    alignment: str
    grid: GridSpec
    sweep: LoadSweep
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
    qdm: MaxPowerPoint
    sqd: MaxPowerPoint


@dataclass(frozen=True)
class ScenarioResult:
    """One row of a parameter scan."""

    kind: str
    alignment: str = "0"
    d: float | None = None
    gamma_c: float | None = None
    gamma_v: float | None = None
    gamma_13: float = 0.0
    gamma_24: float = 0.0
    P_m: float | None = None
    eta: float | None = None
    delta_Pm: float | None = None
    max_coh13: float | None = None
    max_coh24: float | None = None


def iv_curve(params: ModelParams, kind: str = "qdm",
             grid: GridSpec | None = None,
             alignment: str = "0") -> IVCurve:
    """Stationary observables at every load rate of a log grid.

    All loads are evaluated at once from the closed form of one
    ``LoadSweep``, with the residual of the full generator checked at
    each.  Points where the entropic voltage term is undefined (vanishing
    contact population) are dropped and counted in ``n_dropped``.
    """
    grid = grid or GridSpec()
    params = apply_band_alignment(params, alignment)
    sweep = LoadSweep(params, kind)
    gammas = grid.values()
    X, _ = sweep.states(gammas)
    keep = ((X[:, IDX_P55] > _POPULATION_GUARD)
            & (X[:, IDX_P66] > _POPULATION_GUARD))
    X, gammas = X[keep], gammas[keep]
    j = gammas * X[:, IDX_P55]
    V = sweep.voltage(X[:, IDX_P55], X[:, IDX_P66])
    columns = {"Gamma": gammas, "j": j, "V": V, "P": j * V,
               "coh13": np.hypot(X[:, IDX_RE13], X[:, IDX_IM13]),
               "coh24": np.hypot(X[:, IDX_RE24], X[:, IDX_IM24])}
    return IVCurve(columns=columns, params=params, kind=kind,
                   alignment=alignment, grid=grid, sweep=sweep,
                   n_dropped=int(len(keep) - keep.sum()))


def _golden_max(f, lo: float, hi: float, tol: float = 1e-6):
    """Golden-section maximization on [lo, hi]; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def max_power_point(params: ModelParams | None = None, kind: str = "qdm",
                    curve: IVCurve | None = None,
                    grid: GridSpec | None = None,
                    alignment: str = "0") -> MaxPowerPoint:
    """Locate the interior power maximum of the load sweep.

    The grid argmax is refined by golden-section search on log(Gamma) to
    1e-6 relative tolerance, each step one closed-form evaluation of the
    curve's ``LoadSweep``.  A maximum on the grid boundary raises; the
    grid must be widened.  The efficiency divides P_m by the power the
    two optical channels absorb at that state, E12*J1 + E34*J2; a
    non-positive supplied power raises ``UndefinedEfficiencyError``.
    """
    if curve is None:
        if params is None:
            raise DomainError("need either params or a precomputed curve")
        curve = iv_curve(params, kind=kind, grid=grid, alignment=alignment)
    sweep = curve.sweep
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

    u_star, p_star = _golden_max(lambda u: sweep.power(math.exp(u)),
                                 math.log(gammas[k - 1]),
                                 math.log(gammas[k + 1]))
    gamma = math.exp(u_star) if p_star >= powers[k] else float(gammas[k])
    energies = sweep.generator.energies
    best = photovoltaic_point(sweep.state(gamma), gamma, energies,
                              curve.params.kTc)
    j1, j2 = absorption_fluxes(best.state, sweep.generator)
    eta = efficiency(best.P, supplied_power(j1, energies.E12)
                     + supplied_power(j2, energies.E34))
    return MaxPowerPoint(Gamma_star=best.Gamma, j_mpp=best.j, V_mpp=best.V,
                         P_m=best.P, eta=eta, coh13=best.coh13,
                         coh24=best.coh24)


def open_circuit_voltage(params: ModelParams,
                         kind: str = "qdm") -> OpenCircuitVoltage:
    """Voltage in the vanishing-load limit, evaluated exactly at Gamma = 0.

    Raises ``VoltageUndefinedError`` if a contact population vanishes
    there.
    """
    sweep = LoadSweep(params, kind)
    return OpenCircuitVoltage(value=voltage(
        sweep.state(0.0), sweep.generator.energies, params.kTc))


def short_circuit_current(curve: IVCurve) -> ShortCircuitCurrent:
    """Current where the voltage crosses zero.

    The voltage falls monotonically with the load.  If the curve reaches
    V <= 0, the crossing is solved in closed form on the curve's sweep.
    If it never does, the current at the largest valid load is returned
    and flagged as a lower bound.
    """
    volts = curve.column("V")
    if len(volts) == 0:
        raise VoltageUndefinedError("empty curve: no short-circuit estimate")
    if volts[-1] > 0.0:
        return ShortCircuitCurrent(value=float(curve.column("j")[-1]),
                                   from_crossing=False)
    return ShortCircuitCurrent(value=curve.sweep.short_circuit()[1],
                               from_crossing=True)


def relative_current_gain(params: ModelParams,
                          grid: GridSpec | None = None) -> CurrentGain:
    """Gain of the molecule over its single-dot counterpart.

    Both devices are evaluated at their own maximum-power points; the
    single-dot twin shares every parameter and simply drops the second
    dot.
    """
    mpp_qdm = max_power_point(params, kind="qdm", grid=grid)
    mpp_sqd = max_power_point(params, kind="sqd", grid=grid)
    if mpp_sqd.j_mpp == 0.0:
        raise UndefinedEfficiencyError(
            "single-dot current vanishes; relative gain undefined")
    return CurrentGain(
        delta_j=(mpp_qdm.j_mpp - mpp_sqd.j_mpp) / mpp_sqd.j_mpp,
        delta_Pm=(mpp_qdm.P_m - mpp_sqd.P_m) / mpp_sqd.P_m,
        qdm=mpp_qdm, sqd=mpp_sqd)


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


# Coherences eliminated in closed form, (rho_a, rho_b, Re, Im).  Their
# generator rows read d Re/dt = -D Re + Delta Im and
# d Im/dt = -Delta Re - D Im + t (rho_a - rho_b).
_COHERENCES = ((IDX_P11, IDX_P33, IDX_RE13, IDX_IM13),
               (IDX_P22, IDX_P44, IDX_RE24, IDX_IM24))


def _fail(errors: list, bad: np.ndarray, make) -> None:
    """Record ``make(k)`` for each device k flagged in ``bad`` that has not
    failed yet."""
    for k in np.flatnonzero(bad):
        if errors[k] is None:
            errors[k] = make(int(k))


def _gth(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary weights of a stack of rate chains by Grassmann-Taksar-
    Heyman elimination; ``Q[k, i, j]`` is chain k's rate i -> j, and its
    diagonal is ignored.

    Every step adds, multiplies or divides nonnegative numbers, so each
    weight keeps a small relative error however small it is.  Returns the
    weights, with state 0 at 1, and per chain whether every pivot was
    positive; a zero pivot means the chain is reducible.
    """
    Q = Q.copy()
    n_chain, n, _ = Q.shape
    ok = np.ones(n_chain, dtype=bool)
    for k in range(n - 1, 0, -1):
        pivot = Q[:, k, :k].sum(axis=1)
        ok &= pivot > 0.0
        Q[:, :k, k] /= np.where(pivot > 0.0, pivot, 1.0)[:, None]
        Q[:, :k, :k] += Q[:, :k, k, None] * Q[:, None, k, :k]
    weights = np.zeros((n_chain, n))
    weights[:, 0] = 1.0
    for k in range(1, n):
        weights[:, k] = (weights[:, :k] * Q[:, :k, k]).sum(axis=1)
    return weights, ok


def _population_difference(M: np.ndarray, X: np.ndarray, pops: list,
                           a: int, b: int, kappa: np.ndarray) -> np.ndarray:
    """rho_a - rho_b of the states X (stacked over M's devices), for the
    levels a, b that a coherence couples with the rate kappa.

    Taken directly the difference cancels where the coherent rate locks
    the two populations together.  The balance of a, or of b, gives it
    from the net flow J through the other links instead:
    (kappa + r_ba) (rho_a - rho_b) = J - (r_ab - r_ba) rho_a, with r the
    incoherent rates of the link.  Every population carries a small
    relative error, so of the three sums the one that cancels least, by
    sum |terms| / |sum|, is the most accurate and is used.
    """
    js = [j for j in pops if j not in (a, b)]
    xa, xb, xj = X[..., a, None], X[..., b, None], X[..., js]
    r_ba = M[:, a, b]
    link = ((r_ba - M[:, b, a]) * X[..., a])[..., None]
    den = kappa + r_ba
    diff = X[..., a] - X[..., b]
    with np.errstate(divide="ignore", invalid="ignore"):
        cancel = (np.abs(X[..., a]) + np.abs(X[..., b])) / np.abs(diff)
        for parts in ((M[:, js, b] * xb, -M[:, b, js] * xj, link),
                      (M[:, a, js] * xj, -M[:, js, a] * xa, link)):
            terms = np.concatenate(parts, axis=-1)
            flow = terms.sum(axis=-1)
            flow_cancel = np.abs(terms).sum(axis=-1) / np.abs(flow)
            better = (flow_cancel < cancel) & (den > 0.0)
            diff = np.where(better, flow / den, diff)
            cancel = np.where(better, flow_cancel, cancel)
    return diff


def _chain_form(M: np.ndarray, active: tuple, errors: list) -> tuple:
    """Load-free state x_a and load response x_b of each zero-load
    generator in the stack ``M``, and their population sums S_a, S_b: the
    stationary state at load Gamma is (x_a + Gamma x_b) / (S_a + Gamma S_b).

    The coherences are eliminated in closed form, which leaves a rate
    chain on the populations with a symmetric rate kappa = 2 t^2 D /
    (D^2 + Delta^2) across each coherent pair.  By the Markov-chain tree
    theorem every spanning tree rooted away from |5> leaves |5> by either
    5 -> 3 (5 -> 1 for the single dot) or the load 5 -> 6, and those
    rooted at |5> use neither.  So GTH on the chain gives x_a, and GTH on
    the chain with the non-load exits of |5> replaced by a unit load gives
    x_b, each scaled to a unit |5> weight; x_b[5] = 0.  Devices failing a
    check are recorded in ``errors``.
    """
    pops = [i for i in active if i in POPULATION_INDICES]
    c5, c6 = pops.index(IDX_P55), pops.index(IDX_P66)
    scale = np.abs(M).max(axis=(1, 2))
    trace = np.abs(M[:, POPULATION_INDICES, :].sum(axis=1)).max(axis=1)
    _fail(errors, ~(trace <= TRACE_TOL * scale),
          lambda k: NumericalSolveError(
              "generator is not trace conserving: population rows sum to "
              f"{trace[k]:.3e} (scale {scale[k]:.3e})"))

    # The population rate i -> j sits at M[j, i].
    Q = np.swapaxes(M[:, pops][:, :, pops], 1, 2).copy()
    per_diff = []  # (a, b, re, im, Re and Im per unit rho_a - rho_b, kappa)
    for a, b, re, im in _COHERENCES:
        if im not in active:
            continue
        t, D, det = M[:, im, a], -M[:, re, re], M[:, re, im]
        den = D * D + det * det
        _fail(errors, ~(den > 0.0), lambda k: DegenerateSteadyStateError(
            "undamped resonant coherence: multiple steady states"))
        re_c, im_c = t * det / den, t * D / den
        kappa = -M[:, a, im] * im_c
        Q[:, pops.index(a), pops.index(b)] += kappa
        Q[:, pops.index(b), pops.index(a)] += kappa
        per_diff.append((a, b, re, im, re_c, im_c, kappa))

    w_a, ok_a = _gth(Q)
    Q[:, c5, :] = 0.0
    Q[:, c5, c6] = 1.0
    w_b, ok_b = _gth(Q)
    _fail(errors, ~(ok_a & ok_b), lambda k: DegenerateSteadyStateError(
        "reducible rate chain: a level cannot reach the others (zero "
        "elimination pivot)"))
    X = np.zeros((2,) + M.shape[:2])
    X[0][:, pops] = w_a / w_a[:, c5, None]
    X[1][:, pops] = w_b / w_b[:, c5, None]
    X[1][:, IDX_P55] = 0.0
    for a, b, re, im, re_c, im_c, kappa in per_diff:
        diff = _population_difference(M, X, pops, a, b, kappa)
        X[:, :, re] = re_c * diff
        X[:, :, im] = im_c * diff
    x_a, x_b = X

    # M(Gamma) x(Gamma) = (c0 + Gamma c1) / (S_a + Gamma S_b): the load
    # term acting on x_b vanishes because x_b[5] = 0.  Bounding c0 and c1
    # bounds the residual at every load by RESIDUAL_TOL times the largest
    # generator entry.
    s_a, s_b = x_a[:, pops].sum(axis=1), x_b[:, pops].sum(axis=1)
    c0 = np.abs(np.einsum("kij,kj->ki", M, x_a)).max(axis=1)
    c1 = np.einsum("kij,kj->ki", M, x_b)
    c1[:, IDX_P55] -= x_a[:, IDX_P55]
    c1[:, IDX_P66] += x_a[:, IDX_P55]
    c1 = np.abs(c1).max(axis=1)
    _fail(errors, ~((c0 <= RESIDUAL_TOL * scale * s_a)
                    & (c1 <= RESIDUAL_TOL * scale * s_b)),
          lambda k: NumericalSolveError(
              f"chain-form residual {c0[k] / s_a[k]:.3e} + Gamma "
              f"{c1[k] / s_b[k]:.3e} exceeds {RESIDUAL_TOL:.0e} x largest "
              f"generator entry {scale[k]:.3e}"))
    return x_a, x_b, s_a, s_b


def max_power_batch(params: ModelParams, kind: str = "qdm",
                    grid: GridSpec | None = None,
                    **varied) -> MaxPowerBatch:
    """Maximum-power points of a batch of devices, in one pass.

    The devices are ``params`` with the fields in ``varied`` set from
    equal-length arrays, one entry per device (see
    ``build_generator_stack``).  An input error in any device raises at
    once; only numerical failures are recorded per device.

    Each device becomes the chain form of ``_chain_form``, so that
    j = Gamma/(S_a + Gamma S_b) and V = (E5 - E6) - kTc ln(a6 + Gamma b6).
    dP/dGamma has the sign of
    f = S_a V (a6 + Gamma b6) - kTc b6 Gamma (S_a + Gamma S_b), which is
    concave in Gamma; f(gamma_min) > 0 > f(gamma_max) thus brackets one
    maximum, found by bisection in ln(Gamma) to rounding.  Without that
    bracket the maximum is not inside the load range, and the device
    fails with ``BoundaryMaximumError``.  ``grid.n`` is not used.  eta is
    taken as in ``max_power_point``.
    """
    grid = grid or GridSpec()
    stack = build_generator_stack(params, kind, **varied)
    M = stack.matrix
    e56, E12, E34, kTc = stack.e5_minus_e6, stack.E12, stack.E34, stack.kTc
    n_dev = len(M)
    errors = [None] * n_dev

    # Failed devices carry zeros, NaN or inf from here on.
    with np.errstate(all="ignore"):
        x_a, x_b, s_a, s_b = _chain_form(M, stack.active, errors)
        a6, b6 = x_a[:, IDX_P66], x_b[:, IDX_P66]

        def slope(gamma):
            w6 = a6 + gamma * b6
            return (s_a * (e56 - kTc * np.log(w6)) * w6
                    - kTc * b6 * gamma * (s_a + gamma * s_b))

        _fail(errors, ~(slope(grid.gamma_min) > 0.0),
              lambda k: BoundaryMaximumError(
                  f"power does not rise above Gamma = {grid.gamma_min:g}: "
                  "no positive interior maximum; widen the load grid"))
        _fail(errors, ~(slope(grid.gamma_max) < 0.0),
              lambda k: BoundaryMaximumError(
                  f"power still rises at Gamma = {grid.gamma_max:g}; "
                  "widen the load grid"))
        lo = np.full(n_dev, math.log(grid.gamma_min))
        hi = np.full(n_dev, math.log(grid.gamma_max))
        failed = np.array([e is not None for e in errors], dtype=bool)
        hi[failed] = lo[failed]
        while True:
            mid = 0.5 * (lo + hi)
            if ((mid == lo) | (mid == hi)).all():
                break
            rising = slope(np.exp(mid)) > 0.0
            lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid)

        gamma = np.exp(mid)
        x = (x_a + gamma[:, None] * x_b) / (s_a + gamma * s_b)[:, None]
        j = gamma * x[:, IDX_P55]
        V = e56 - kTc * np.log(a6 + gamma * b6)
        P = j * V
        _fail(errors, ~(P > 0.0), lambda k: BoundaryMaximumError(
            "no positive power at the maximum"))
        # Net absorption fluxes, read off the pump entries as in
        # ``absorption_fluxes``.
        j1 = (M[:, IDX_P11, IDX_P22] * x[:, IDX_P22]
              - M[:, IDX_P22, IDX_P11] * x[:, IDX_P11])
        j2 = (M[:, IDX_P33, IDX_P44] * x[:, IDX_P44]
              - M[:, IDX_P44, IDX_P33] * x[:, IDX_P33])
        supplied = E12 * j1 + E34 * j2
        _fail(errors, ~(supplied > 0.0), lambda k: UndefinedEfficiencyError(
            "supplied power is zero; efficiency undefined"))
        columns = np.array([gamma, j, V, P, P / supplied,
                            np.hypot(x[:, IDX_RE13], x[:, IDX_IM13]),
                            np.hypot(x[:, IDX_RE24], x[:, IDX_IM24])])
    columns[:, [e is not None for e in errors]] = np.nan
    return MaxPowerBatch(*columns, errors=tuple(errors))


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
    """Maximum-power efficiency versus barrier width per band alignment.

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
    return [ScenarioResult(
        kind="qdm", alignment=alignment, d=d, gamma_c=params.gamma_c,
        gamma_v=params.gamma_v, P_m=float(mpp.P_m[k]), eta=float(mpp.eta[k]),
        max_coh13=float(mpp.coh13[k]), max_coh24=float(mpp.coh24[k]))
        for k, (alignment, d) in enumerate(cells)]


def phonon_assisted_comparison(params: ModelParams,
                               rates=(0.001, 0.01, 0.1),
                               rate_sets=((100.0, 0.05), (50.0, 5.0)),
                               distances=(2.0, 10.0),
                               grid: GridSpec | None = None) -> list:
    """Maximum power with incoherent interdot channels, versus without.

    Rows carry the relative gain of P_m over the coherent-only baseline
    for each (escape-rate set, barrier width, assisted rate) cell; the
    baseline's own row has assisted rate 0.  Raises the first device's
    error if any fails.
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
        rows.append(ScenarioResult(
            kind="qdm", d=d, gamma_c=gc, gamma_v=gv, gamma_13=g_ph,
            gamma_24=g_ph, P_m=float(mpp.P_m[k]), eta=float(mpp.eta[k]),
            delta_Pm=float((mpp.P_m[k] - base) / base)))
    return rows
