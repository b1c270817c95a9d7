"""Photovoltaic observables: the current, voltage, power and coherences
that ``photovoltaic_point`` reads off one stationary state, and the
absorption fluxes the efficiency charges."""

import math

import numpy as np
import pytest

from qdmcell import (BAND_ALIGNMENTS, ModelParams, VoltageUndefinedError,
                     absorption_fluxes, apply_band_alignment,
                     build_generator, iv_curve, max_power_point,
                     photovoltaic_point, solve_steady)
from qdmcell.model import IDX_P11, IDX_P55, IDX_P66, N_STATE
from qdmcell.steady import SteadyState

_DEFAULT = ModelParams()
_LEVELS = build_generator(_DEFAULT, "qdm").energies


def _state(**components) -> SteadyState:
    x = np.zeros(N_STATE)
    for key, value in components.items():
        x[int(key[1:])] = value
    return SteadyState(x=x, residual=0.0)


def _point(state: SteadyState, Gamma: float = 1.0):
    # The default device's levels and lattice temperature.
    return photovoltaic_point(state, Gamma, _LEVELS, _DEFAULT.kTc)


def _solved_point(params: ModelParams, kind: str):
    g = build_generator(params, kind)
    return photovoltaic_point(solve_steady(g), params.Gamma, g.energies,
                              params.kTc)


class TestCurrent:
    def test_open_circuit_is_zero(self):
        pt = _solved_point(ModelParams(Gamma=0.0), "qdm")
        assert pt.j == 0.0
        assert pt.P == 0.0

    def test_dark_cell_carries_nothing(self):
        # No pumping: the conduction side stays empty at any load, so no
        # current flows and the contact voltage is undefined.
        ss = solve_steady(build_generator(ModelParams(kTs=1e-2), "qdm"))
        assert ss.x[IDX_P11] <= 1e-15
        assert ss.x[IDX_P55] <= 1e-15
        with pytest.raises(VoltageUndefinedError):
            _point(ss)

    def test_proportional_to_contact_population(self):
        assert _point(_state(p4=0.25, p5=0.25), 3.0).j == pytest.approx(0.75)


class TestVoltage:
    def test_equal_contacts_give_level_splitting(self):
        ss = _state(p4=0.3, p5=0.3)
        assert _point(ss).V == pytest.approx(_LEVELS.e5_minus_e6)

    def test_entropic_term_adds_one_kT_per_efold(self):
        ss = _state(p4=0.3 * np.e, p5=0.3)
        assert _point(ss).V == pytest.approx(
            _LEVELS.e5_minus_e6 + _DEFAULT.kTc)

    def test_vanishing_contact_population_raises(self):
        for ss in (_state(p4=0.5), _state(p5=0.5)):
            with pytest.raises(VoltageUndefinedError):
                _point(ss)


class TestPower:
    def test_product(self):
        pt = _point(_state(p4=0.25, p5=0.25), 3.0)
        assert pt.P == pytest.approx(0.75 * _LEVELS.e5_minus_e6)


class TestSuppliedPower:
    def test_supplied_exceeds_delivered_along_sweeps(self):
        # V <= E12 on physical curves, so P_S = j E12 >= P = j V.
        for kind in ("qdm", "sqd"):
            curve = iv_curve(_DEFAULT, kind=kind)
            j = curve.column("j")
            assert (_DEFAULT.E12 * j >= curve.column("P") - 1e-12).all()


class TestAbsorptionFluxes:
    @staticmethod
    def _mpp_state(params, kind):
        # Oracle solve at the maximum-power load, independent of the
        # stacked solves inside the sweep.
        mpp = max_power_point(params, kind=kind)
        g = build_generator(params.replace(Gamma=mpp.Gamma_star), kind)
        ss = solve_steady(g)
        return g, ss, photovoltaic_point(ss, mpp.Gamma_star, g.energies,
                                         params.kTc)

    @pytest.mark.parametrize("rate", [0.0, 0.001, 0.1])
    @pytest.mark.parametrize("alignment", BAND_ALIGNMENTS)
    def test_fluxes_sum_to_load_current(self, alignment, rate):
        # Interdot channels move carriers without exchanging photons, so
        # the absorbed fluxes carry the whole load current.
        p = apply_band_alignment(ModelParams(gamma_13=rate, gamma_24=rate),
                                 alignment)
        g, ss, pt = self._mpp_state(p, "qdm")
        j1, j2 = absorption_fluxes(ss.x, g.matrix)
        assert j2 > 0.0
        assert j1 + j2 == pytest.approx(pt.j, rel=1e-10)

    def test_single_dot_has_no_second_channel(self):
        g, ss, pt = self._mpp_state(_DEFAULT, "sqd")
        j1, j2 = absorption_fluxes(ss.x, g.matrix)
        assert j2 == 0.0
        assert j1 == pytest.approx(pt.j, rel=1e-10)


class TestCoherences:
    def test_no_tunneling_no_coherence(self):
        assert _solved_point(ModelParams(Te=0.0), "qdm").coh13 == 0.0

    def test_sqd_state_has_no_coherence(self):
        pt = _solved_point(_DEFAULT, "sqd")
        assert (pt.coh13, pt.coh24) == (0.0, 0.0)

    def test_molecule_sustains_coherence(self):
        pt = _solved_point(_DEFAULT, "qdm")
        assert pt.coh13 > 0.0
        assert pt.coh24 > 0.0


class TestPhotovoltaicPoint:
    def test_bundles_consistently(self):
        p = _DEFAULT
        g = build_generator(p, "qdm")
        ss = solve_steady(g)
        pt = photovoltaic_point(ss, p.Gamma, g.energies, p.kTc)
        p55, p66 = ss.x[IDX_P55], ss.x[IDX_P66]
        assert pt.Gamma == p.Gamma
        assert pt.state is ss
        assert pt.j == p.Gamma * p55
        assert pt.V == g.energies.e5_minus_e6 + p.kTc * math.log(p55 / p66)
        assert pt.P == pt.j * pt.V
        assert (pt.coh13, pt.coh24) == (abs(ss.rho13), abs(ss.rho24))
