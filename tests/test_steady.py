"""Stationary solver and the time-evolution cross-check."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qdmcell import (DegenerateSteadyStateError, ModelParams, StepSizeError,
                     build_generator, evolve, residual, solve_steady)
from qdmcell.model import (IDX_P11, IDX_P22, IDX_P33, IDX_P44, IDX_P55,
                           IDX_P66, N_STATE)
from qdmcell.steady import RESIDUAL_TOL
from test_sweeps import _high_precision_solve


def _zero_generator():
    return build_generator(ModelParams(
        Te=0.0, Th=0.0, delta_e=0.0, delta_h=0.0, gamma1=0.0, gamma2=0.0,
        gamma_c=0.0, gamma_v=0.0), "qdm")


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
            g, active=(IDX_P11, IDX_P22, IDX_P33, IDX_P55, IDX_P66)))
        assert x[IDX_P44] == 0.0
        assert x[:6].sum() == pytest.approx(1.0, abs=1e-12)
        # With the interdot cycle cut, nothing can reach the conduction
        # contact: the degenerate molecule carries no current.
        assert abs(x[IDX_P55]) <= 1e-12

    def test_normalization_and_positivity(self):
        for kind in ("qdm", "sqd"):
            pops = solve_steady(build_generator(ModelParams(), kind,
                                                Gamma=1.0))[:6]
            assert pops.sum() == pytest.approx(1.0, abs=1e-12)
            assert pops.min() >= 0.0

    def test_residual_within_tolerance(self):
        g = build_generator(ModelParams(), "qdm", Gamma=1.0)
        x = solve_steady(g)
        assert residual(g, x) <= RESIDUAL_TOL * g.max_rate
        assert x.shape == (N_STATE,) and not x.flags.writeable

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
        assert np.abs(solve_steady(g) - want).max() <= 1e-15

    def test_deterministic_bit_identical(self):
        g = build_generator(ModelParams().with_distance(3.0), "qdm",
                            Gamma=1.0)
        assert (solve_steady(g) == solve_steady(g)).all()


class TestResidual:
    def test_uniform_state_is_not_steady(self):
        g = build_generator(ModelParams(), "qdm")
        x = np.zeros(N_STATE)
        x[:6] = 1.0 / 6.0
        assert residual(g, x) > 1e-3

    def test_zero_generator_any_state(self):
        g = _zero_generator()
        rng = np.random.default_rng(3)
        assert residual(g, rng.standard_normal(N_STATE)) == 0.0


class TestEvolve:
    def test_zero_generator_keeps_state(self):
        g = _zero_generator()
        x0 = np.arange(N_STATE, dtype=float)
        assert (evolve(g, x0, 10.0, 0.5) == x0).all()

    def test_pure_load_channel_decays_exponentially(self):
        load = 2.0
        g = build_generator(ModelParams(
            Te=0.0, Th=0.0, delta_e=0.0, delta_h=0.0, gamma1=0.0,
            gamma2=0.0, gamma_c=0.0, gamma_v=0.0), "qdm", Gamma=load)
        x0 = np.zeros(N_STATE)
        x0[IDX_P55] = 1.0
        t = 1.3
        x = evolve(g, x0, t, 0.01 / load)
        assert x[IDX_P55] == pytest.approx(math.exp(-load * t), abs=1e-9)
        assert x[IDX_P66] == pytest.approx(1.0 - math.exp(-load * t),
                                           abs=1e-9)

    def test_trace_conserved_along_evolution(self):
        g = build_generator(ModelParams(), "qdm")
        x0 = np.zeros(N_STATE)
        x0[IDX_P22] = 1.0
        x = evolve(g, x0, 5.0, 0.05 / g.max_rate)
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
            assert np.abs(x - ss).max() <= 1e-6

    def test_step_size_guard(self):
        g = build_generator(ModelParams(), "qdm")
        x0 = np.zeros(N_STATE)
        x0[IDX_P22] = 1.0
        with pytest.raises(StepSizeError):
            evolve(g, x0, 1.0, 1.0)  # dt * max_rate >> 0.1
        with pytest.raises(StepSizeError):
            evolve(g, x0, -1.0, 1e-6)

    def test_bit_identical_reruns(self):
        g = build_generator(ModelParams().with_distance(6.0), "qdm")
        x0 = np.zeros(N_STATE)
        x0[IDX_P22] = 1.0
        a = evolve(g, x0, 3.0, 0.05 / g.max_rate)
        b = evolve(g, x0, 3.0, 0.05 / g.max_rate)
        assert (a == b).all()
