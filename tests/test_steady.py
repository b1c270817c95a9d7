"""Stationary solver and the time-evolution cross-check, on stacks of
devices: a lone device is a stack of one."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from qdmcell import (DegenerateSteadyStateError, GeneratorStack, ModelParams,
                     NumericalSolveError, StepSizeError, build_generator,
                     evolve, residual, solve_steady)
from qdmcell.model import (IDX_P11, IDX_P22, IDX_P33, IDX_P44, IDX_P55,
                           IDX_P66, IDX_RE13, N_STATE)
from qdmcell.steady import RESIDUAL_TOL
from qdmcell.sweeps import _chain_form
from test_sweeps import _batch_fields, _high_precision_solve


def _zero_generator_params():
    return ModelParams(Te=0.0, Th=0.0, delta_e=0.0, delta_h=0.0, gamma1=0.0,
                       gamma2=0.0, gamma_c=0.0, gamma_v=0.0)


def _zero_generator():
    return build_generator(_zero_generator_params(), "qdm")


class TestSolveSteady:
    def test_zero_generator_is_degenerate(self):
        with pytest.raises(DegenerateSteadyStateError):
            solve_steady(_zero_generator())

    def test_disconnected_blocks_reported(self):
        # Cutting the tunneling and the second dot's pump leaves |4>
        # decoupled: one stationary state per block.
        g = build_generator(ModelParams(Te=0.0, Th=0.0, gamma2=0.0), "qdm",
                            Gamma=1.0)
        with pytest.raises(DegenerateSteadyStateError) as exc:
            solve_steady(g)
        assert "multiple steady states" in str(exc.value)

    def test_block_restriction_pins_decoupled_states(self):
        g = build_generator(ModelParams(Te=0.0, Th=0.0, gamma2=0.0), "qdm",
                            Gamma=1.0)
        # The block of |1>: |4> and the coherences decouple.
        x = solve_steady(replace(
            g, active=(IDX_P11, IDX_P22, IDX_P33, IDX_P55, IDX_P66)))[:, 0]
        assert x[IDX_P44] == 0.0
        assert x[:6].sum() == pytest.approx(1.0, abs=1e-12)
        # With the interdot cycle cut, nothing can reach the conduction
        # contact: the degenerate molecule carries no current.
        assert abs(x[IDX_P55]) <= 1e-12

    def test_normalization_and_positivity(self):
        for kind in ("qdm", "sqd"):
            pops = solve_steady(build_generator(ModelParams(), kind,
                                                Gamma=1.0))[:6, 0]
            assert pops.sum() == pytest.approx(1.0, abs=1e-12)
            assert pops.min() >= 0.0

    def test_residual_within_tolerance(self):
        g = build_generator(ModelParams(), "qdm", Gamma=1.0)
        x = solve_steady(g)
        assert residual(g, x) <= RESIDUAL_TOL * g.max_rate
        assert x.shape == (N_STATE, 1) and not x.flags.writeable

    def test_matches_trace_exact_reference(self):
        # A device from criterion 8's domain where an unrefined LU solve
        # is 1.01e-12 off, over that criterion's 1e-12 bound: 4.8e-13
        # from rounding the population diagonals as built, 5.3e-13 from
        # the solve itself.
        p = ModelParams(gamma_c=197.76791079147617,
                        gamma_v=0.0013647673284908103).with_distance(
                            9.542943348549683)
        g = build_generator(p, "qdm", Gamma=0.00514474214255742)
        want = _high_precision_solve(
            g, 40, lambda mp, x: [float(x.get(i, 0)) for i in range(N_STATE)])
        assert np.abs(solve_steady(g)[:, 0] - want).max() <= 1e-15

    def test_deterministic_bit_identical(self):
        g = build_generator(ModelParams().with_distance(3.0), "qdm",
                            Gamma=1.0)
        assert (solve_steady(g) == solve_steady(g)).all()


def _altered(kind: str, entry: tuple, value: float, k: int = 1) -> tuple:
    """Two copies of the default zero-load device, device ``k`` with its
    matrix ``entry`` set to ``value``, and the unchanged stack."""
    g = build_generator(ModelParams(), kind, gamma_c=[100.0, 100.0])
    M = g.matrix.copy()
    M[entry + (k,)] = value
    return replace(g, matrix=M), g


class TestSolverChecks:
    """Both solvers, the direct solve and the chain form, check a stack
    in the same order and report a failing device with the same error."""

    def test_trace_violation(self):
        # A rate from |4> into |1> that leaves |4> no faster.
        g, _ = _altered("qdm", (IDX_P11, IDX_P44), 0.5)
        message = ("generator is not trace conserving: population rows sum "
                   f"to 5.000e-01 (scale {g.max_rate[1]:.3e})")
        with pytest.raises(NumericalSolveError) as exc:
            solve_steady(g)
        assert str(exc.value) == message
        errors = [None, None]
        _chain_form(g, errors)
        assert errors[0] is None
        assert type(errors[1]) is NumericalSolveError
        assert str(errors[1]) == message

    def test_residual_outside_the_solved_components(self):
        # The single dot solves only its active components; a rate from
        # |1> into the inactive Re rho13 leaves that row unbalanced.
        g, clean = _altered("sqd", (IDX_RE13, IDX_P11), 1.0)
        x = solve_steady(clean)
        with pytest.raises(NumericalSolveError) as exc:
            solve_steady(g)
        assert str(exc.value) == (
            f"steady-state residual {residual(g, x)[1]:.3e} exceeds 1e-10 "
            f"x largest generator entry {clean.max_rate[1]:.3e}")
        chain = _chain_form(clean, [None, None])
        errors = [None, None]
        _chain_form(g, errors)
        assert errors[0] is None
        assert type(errors[1]) is NumericalSolveError
        assert str(errors[1]) == (
            "chain-form residual "
            f"{chain.x_a[IDX_P11, 1] / chain.s_a[1]:.3e} + Gamma "
            f"{chain.x_b[IDX_P11, 1] / chain.s_b[1]:.3e} exceeds 1e-10 x "
            f"largest generator entry {g.max_rate[1]:.3e}")

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("entry, value", [
        ((IDX_RE13, IDX_RE13), np.nan), ((IDX_P33, IDX_P11), np.inf)])
    def test_non_finite_entry_fails_its_device_alone(self, k, entry, value):
        g, clean = _altered("qdm", entry, value, k)
        message = ("generator entries are not finite: largest magnitude "
                   f"{value}")
        # Neither the SVD nor the LU sees the spoiled device.
        with pytest.raises(NumericalSolveError) as exc:
            solve_steady(g)
        assert str(exc.value) == message
        errors = [None, None]
        chain = _chain_form(g, errors)
        assert type(errors[k]) is NumericalSolveError
        assert str(errors[k]) == message
        assert errors[1 - k] is None
        want = _chain_form(clean, [None, None])
        for name in ("x_a", "x_b", "s_a", "s_b"):
            assert (getattr(chain, name)[..., 1 - k].tobytes()
                    == getattr(want, name)[..., 1 - k].tobytes())


class TestResidual:
    def test_uniform_state_is_not_steady(self):
        g = build_generator(ModelParams(), "qdm")
        x = np.zeros(N_STATE)
        x[:6] = 1.0 / 6.0
        assert residual(g, x).shape == (1,)
        assert residual(g, x) > 1e-3

    def test_zero_generator_any_state(self):
        g = _zero_generator()
        rng = np.random.default_rng(3)
        assert residual(g, rng.standard_normal(N_STATE)) == 0.0

    def test_one_value_per_device(self):
        g = build_generator(ModelParams(), "qdm", Gamma=[0.5, 2.0])
        x = solve_steady(g)
        assert residual(g, x).shape == (2,)
        # Each device's state is stationary for it, not for the other.
        assert (residual(g, x[:, ::-1]) > 1e3 * residual(g, x)).all()


class TestEvolve:
    def test_zero_generator_keeps_state(self):
        g = _zero_generator()
        x0 = np.arange(N_STATE, dtype=float)
        assert (evolve(g, x0, 10.0, 0.5) == x0[:, None]).all()

    def test_pure_load_channel_decays_exponentially(self):
        load = 2.0
        g = build_generator(ModelParams(
            Te=0.0, Th=0.0, delta_e=0.0, delta_h=0.0, gamma1=0.0,
            gamma2=0.0, gamma_c=0.0, gamma_v=0.0), "qdm", Gamma=load)
        x0 = np.zeros(N_STATE)
        x0[IDX_P55] = 1.0
        t = 1.3
        x = evolve(g, x0, t, 0.01 / load)[:, 0]
        assert x[IDX_P55] == pytest.approx(math.exp(-load * t), abs=1e-9)
        assert x[IDX_P66] == pytest.approx(1.0 - math.exp(-load * t),
                                           abs=1e-9)

    def test_trace_conserved_along_evolution(self):
        g = build_generator(ModelParams(), "qdm")
        x0 = np.zeros(N_STATE)
        x0[IDX_P22] = 1.0
        x = evolve(g, x0, 5.0, 0.05 / g.max_rate)[:, 0]
        assert x[:6].sum() == pytest.approx(1.0, abs=1e-9)

    def test_long_time_limit_matches_steady_state(self):
        # Two different initial states must forget where they started.
        p, load = ModelParams(), 1.0
        g = build_generator(p, "qdm", Gamma=load)
        ss = solve_steady(g)
        t = 50.0 / min(p.gamma_v, p.gamma1, load)
        dt = 0.08 / g.max_rate
        for start in (IDX_P11, IDX_P66):
            x0 = np.zeros(N_STATE)
            x0[start] = 1.0
            x = evolve(g, x0, t, dt)
            assert x.shape == (N_STATE, 1)
            assert np.abs(x - ss).max() <= 1e-6

    def test_step_size_guard(self):
        g = build_generator(ModelParams(), "qdm")
        x0 = np.zeros(N_STATE)
        x0[IDX_P22] = 1.0
        with pytest.raises(StepSizeError, match="too large for max rate"):
            evolve(g, x0, 1.0, 1.0)  # dt * max_rate >> 0.1
        with pytest.raises(StepSizeError):
            evolve(g, x0, -1.0, 1e-6)
        # A step that is not a positive float is not blamed on its size.
        for dt in (0.0, math.nan, -1e-6, math.inf):
            with pytest.raises(StepSizeError) as exc:
                evolve(g, x0, 1.0, dt)
            assert str(exc.value) == ("dt must be finite and positive, "
                                      f"got {dt}")

    def test_bit_identical_reruns(self):
        g = build_generator(ModelParams().with_distance(6.0), "qdm")
        x0 = np.zeros(N_STATE)
        x0[IDX_P22] = 1.0
        a = evolve(g, x0, 3.0, 0.05 / g.max_rate)
        b = evolve(g, x0, 3.0, 0.05 / g.max_rate)
        assert (a == b).all()

    @pytest.mark.parametrize("k", [0, 1])
    def test_non_finite_entry_is_not_blamed_on_the_step(self, k):
        g, _ = _altered("qdm", (IDX_RE13, IDX_RE13), np.nan, k)
        x0 = np.zeros(N_STATE)
        x0[IDX_P22] = 1.0
        with pytest.raises(NumericalSolveError) as exc:
            evolve(g, x0, 1.0, 1e-6)
        assert str(exc.value) == ("generator entries are not finite: "
                                  "largest magnitude nan")

    def test_trace_is_not_checked(self):
        # A propagator, unlike a stationary solve, has a meaning without
        # trace conservation.
        g, _ = _altered("qdm", (IDX_P11, IDX_P44), 0.5)
        x0 = np.zeros(N_STATE)
        x0[IDX_P22] = 1.0
        assert np.isfinite(evolve(g, x0, 1e-3, 1e-6)).all()

    # A time that is not finite, or a step count too large to count.
    @pytest.mark.parametrize("t_final, dt", [
        (math.nan, 1e-6), (math.inf, 1e-6), (1.0, math.nan), (1e300, 1e-9)])
    def test_non_finite_times_raise_step_size_error(self, t_final, dt):
        g = build_generator(ModelParams(), "qdm")
        x0 = np.zeros(N_STATE)
        x0[IDX_P22] = 1.0
        with pytest.raises(StepSizeError):
            evolve(g, x0, t_final, dt)
        # In a stack, the device with the bad time raises.
        g2 = build_generator(ModelParams(), "qdm", gamma_c=[100.0, 50.0])
        with pytest.raises(StepSizeError):
            evolve(g2, x0, [1.0, t_final], [1e-6, dt])


def _devices(n: int, seed: int) -> list:
    """(params, kind, load) of ``n`` seeded devices of both kinds, over
    the domain of the property suite."""
    rng = random.Random(seed)
    return [(ModelParams(gamma_c=10 ** rng.uniform(0.0, 2.7),
                         gamma_v=10 ** rng.uniform(-3.0, 1.0)).with_distance(
                             rng.uniform(2.0, 10.0)),
             ("qdm", "sqd")[k % 2], 10 ** rng.uniform(-3.0, 3.0))
            for k in range(n)]


def _stack(devices, kind):
    """The devices of ``kind`` as one stack, each at its own load."""
    chosen = [(p, load) for p, k, load in devices if k == kind]
    return build_generator(ModelParams(), kind,
                           Gamma=[load for _, load in chosen],
                           **_batch_fields([p for p, _ in chosen])), chosen


def _device(g: GeneratorStack, k: int = 0) -> GeneratorStack:
    """Device ``k`` of stack ``g``, as a stack of one."""
    return GeneratorStack(g.matrix[..., k:k + 1], g.active, *(
        v[k:k + 1] for v in (g.e5_minus_e6, g.E12, g.E34, g.kTc)))


def _joined(stacks) -> GeneratorStack:
    """Stacks of one device each, with one ``active``, as one stack."""
    return GeneratorStack(
        np.concatenate([g.matrix for g in stacks], axis=-1), stacks[0].active,
        *(np.concatenate([getattr(g, name) for g in stacks])
          for name in ("e5_minus_e6", "E12", "E34", "kTc")))


def _solve(devices):
    return solve_steady(_joined([g for g, _, _ in devices]))


def _evolve(devices):
    x0 = np.zeros(N_STATE)
    x0[IDX_P22] = 1.0
    g, t_final, dt = zip(*devices)
    return evolve(_joined(g), x0, list(t_final), list(dt))


def _singular_system() -> GeneratorStack:
    # On (|1>, |2>, Re rho13): a block that solves, then a trace-conserving
    # block whose one stationary state has no population, (1, -1, 0): it
    # passes the degeneracy check, and the normalized system is singular.
    M = np.zeros((N_STATE, N_STATE, 2))
    active = (IDX_P11, IDX_P22, IDX_RE13)
    block = np.ix_(active, active)
    M[block + (0,)] = [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, -1.0]]
    M[block + (1,)] = [[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]
    return GeneratorStack(M, active, *np.zeros((4, 2)))


# Each check of each solver, as the solver and a stack of two devices: one
# that passes every check, then one that fails this one.  The solvers
# take devices as (stack of one, t_final, dt); ``solve_steady`` reads
# only the stack.
_FINE = (1e-3, 1e-6)  # a time and a step that every good device takes
_GOOD = build_generator(ModelParams(), "qdm", Gamma=1.0)
_SOLVER_CHECKS = {
    "solve-non-finite-entry": lambda: (_solve, _altered(
        "qdm", (IDX_RE13, IDX_RE13), np.nan)[0]),
    "solve-trace": lambda: (_solve, _altered(
        "qdm", (IDX_P11, IDX_P44), 0.5)[0]),
    "solve-zero-generator": lambda: (_solve, _joined(
        [_GOOD, _zero_generator()])),
    "solve-disconnected-blocks": lambda: (_solve, _joined(
        [_GOOD, build_generator(ModelParams(Te=0.0, Th=0.0, gamma2=0.0),
                                "qdm", Gamma=1.0)])),
    "solve-singular-system": lambda: (_solve, _singular_system()),
    "solve-residual": lambda: (_solve, _altered(
        "sqd", (IDX_RE13, IDX_P11), 1.0)[0]),
    "evolve-non-finite-entry": lambda: (_evolve, _altered(
        "qdm", (IDX_P33, IDX_P11), np.inf)[0]),
}
# evolve's step checks, as the bad device's (t_final, dt).
_STEP_CHECKS = {"t_final-0": (0.0, 1e-6), "t_final-nan": (math.nan, 1e-6),
                "t_final-inf": (math.inf, 1e-6), "dt-0": (1.0, 0.0),
                "dt-nan": (1.0, math.nan), "dt-negative": (1.0, -1e-6),
                "dt-inf": (1.0, math.inf), "dt-too-large": (1.0, 1e-3),
                "too-many-steps": (1e300, 1e-9)}


class TestStackedOracle:
    @pytest.mark.parametrize("kind", ["qdm", "sqd"])
    def test_solve_column_is_the_lone_solve(self, kind):
        g, chosen = _stack(_devices(60, 11), kind)
        x = solve_steady(g)
        assert x.shape == (N_STATE, len(chosen)) and not x.flags.writeable
        for k, (p, load) in enumerate(chosen):
            lone = solve_steady(build_generator(p, kind, Gamma=load))
            assert x[:, k].tobytes() == lone[:, 0].tobytes()

    def test_first_failing_device_raises_its_error(self):
        # Device 1 has disconnected blocks and device 2 is the zero
        # generator: device 1 raises, though device 2 fails an earlier
        # check.
        devices = [ModelParams(), ModelParams(Te=0.0, Th=0.0, gamma2=0.0),
                   _zero_generator_params()]
        g = build_generator(ModelParams(), "qdm", Gamma=[1.0, 1.0, 0.0],
                            **_batch_fields(devices))
        with pytest.raises(DegenerateSteadyStateError,
                           match="multiple steady states"):
            solve_steady(g)
        with pytest.raises(DegenerateSteadyStateError,
                           match="zero generator"):
            solve_steady(build_generator(ModelParams(), "qdm",
                                         Gamma=[1.0, 0.0],
                                         **_batch_fields(devices[::2])))

    def test_singular_constrained_system_raises_for_its_device(self):
        g = _singular_system()
        with pytest.raises(NumericalSolveError,
                           match="singular constrained system"):
            solve_steady(g)
        # Alone, the first device solves.
        x = solve_steady(_device(g, 0))
        assert x[[IDX_P11, IDX_P22], 0].tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("n, k", [(2, 0), (2, 1), (3, 0), (3, 1),
                                      (3, 2)])
    @pytest.mark.parametrize("check", [*_SOLVER_CHECKS, *_STEP_CHECKS])
    def test_failing_device_raises_its_lone_error(self, check, n, k):
        # Device k of n fails ``check``; the others pass every check.
        if check in _SOLVER_CHECKS:
            solver, pair = _SOLVER_CHECKS[check]()
            good, bad = ((_device(pair, j), *_FINE) for j in (0, 1))
        else:
            solver, good = _evolve, (_GOOD, *_FINE)
            bad = (_GOOD, *_STEP_CHECKS[check])
        with pytest.raises((NumericalSolveError, DegenerateSteadyStateError,
                            StepSizeError)) as lone:
            solver([bad])
        with pytest.raises(type(lone.value)) as stacked:
            solver([good] * k + [bad] + [good] * (n - 1 - k))
        assert type(stacked.value) is type(lone.value)
        assert str(stacked.value) == str(lone.value)
        solver([good] * n)

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 7, 1000, 12345])
    def test_evolve_is_the_rk4_step_to_a_power(self, steps):
        # Per device: the RK4 step matrix raised by numpy's matrix_power.
        # At three steps numpy computes (a a) a and the stack a (a a); on
        # 400 devices of this domain they differed by at most 1.1e-16
        # (eps / 2) in any component.  Every other count is bit for bit.
        devices = _devices(50, 12)
        rng = random.Random(steps)
        for kind in ("qdm", "sqd"):
            g, chosen = _stack(devices, kind)
            n = len(chosen)
            dt = 0.05 / g.max_rate
            x0 = np.zeros((N_STATE, n))
            x0[[rng.randrange(6) for _ in range(n)], range(n)] = 1.0
            x = evolve(g, x0, (steps - 0.5) * dt, dt)
            eye = np.eye(N_STATE)
            for k in range(n):
                H = dt[k] * g.matrix[..., k]
                step = eye + H @ (eye + H @ (eye / 2.0 + H @ (
                    eye / 6.0 + H / 24.0)))
                want = np.linalg.matrix_power(step, steps) @ x0[:, k]
                if steps == 3:
                    assert np.abs(x[:, k] - want).max() <= 2 * np.finfo(
                        float).eps
                else:
                    assert x[:, k].tobytes() == want.tobytes()

    def test_evolve_counts_steps_per_device(self):
        # Two copies of one device, evolved for different times, are the
        # lone evolutions for those times.
        g = build_generator(ModelParams(), "qdm", Gamma=[1.0, 1.0])
        x0 = np.zeros(N_STATE)
        x0[IDX_P22] = 1.0
        dt = 0.05 / g.max_rate
        x = evolve(g, x0, [1.0, 7.0], dt)
        lone = build_generator(ModelParams(), "qdm", Gamma=1.0)
        for k, t in enumerate((1.0, 7.0)):
            assert (x[:, k].tobytes()
                    == evolve(lone, x0, t, dt[k])[:, 0].tobytes())
