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
from qdmcell.model import (IDX_IM13, IDX_IM24, IDX_P11, IDX_P55, IDX_P66,
                           IDX_RE13, IDX_RE24, N_STATE, _place_levels)

_DEFAULT = ModelParams()
_LEVELS = _place_levels(_DEFAULT.__dict__, "qdm")


def _state(**components) -> np.ndarray:
    x = np.zeros(N_STATE)
    for key, value in components.items():
        x[int(key[1:])] = value
    return x


def _point(state: np.ndarray, Gamma: float = 1.0):
    # The default device's levels and lattice temperature.
    return photovoltaic_point(state, Gamma, _LEVELS, _DEFAULT.kTc)


def _lone_state(params: ModelParams, kind: str, Gamma: float):
    # The matrix and stationary state of the one-device stack.
    g = build_generator(params, kind, Gamma=Gamma)
    return g.matrix[..., 0], solve_steady(g)[:, 0]


def _solved_point(params: ModelParams, kind: str, Gamma: float = 1.0):
    return photovoltaic_point(_lone_state(params, kind, Gamma)[1], Gamma,
                              _place_levels(params.__dict__, kind), params.kTc)


class TestCurrent:
    def test_open_circuit_is_zero(self):
        pt = _solved_point(ModelParams(), "qdm", Gamma=0.0)
        assert pt.j == 0.0
        assert pt.P == 0.0

    def test_dark_cell_carries_nothing(self):
        # No pumping: the conduction side stays empty at any load, so no
        # current flows and the contact voltage is undefined.
        _, ss = _lone_state(ModelParams(kTs=1e-2), "qdm", 1.0)
        assert ss[IDX_P11] <= 1e-15
        assert ss[IDX_P55] <= 1e-15
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
        M, ss = _lone_state(params, kind, mpp.Gamma_star)
        return M, ss, photovoltaic_point(
            ss, mpp.Gamma_star, _place_levels(params.__dict__, kind),
            params.kTc)

    @pytest.mark.parametrize("rate", [0.0, 0.001, 0.1])
    @pytest.mark.parametrize("alignment", BAND_ALIGNMENTS)
    def test_fluxes_sum_to_load_current(self, alignment, rate):
        # Interdot channels move carriers without exchanging photons, so
        # the absorbed fluxes carry the whole load current.
        p = apply_band_alignment(ModelParams(gamma_13=rate, gamma_24=rate),
                                 alignment)
        M, ss, pt = self._mpp_state(p, "qdm")
        j1, j2 = absorption_fluxes(ss, M)
        assert j2 > 0.0
        assert j1 + j2 == pytest.approx(pt.j, rel=1e-10)

    def test_single_dot_has_no_second_channel(self):
        M, ss, pt = self._mpp_state(_DEFAULT, "sqd")
        j1, j2 = absorption_fluxes(ss, M)
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
        p, load = _DEFAULT, 1.0
        _, ss = _lone_state(p, "qdm", load)
        pt = photovoltaic_point(ss, load, _LEVELS, p.kTc)
        p55, p66 = ss[IDX_P55], ss[IDX_P66]
        assert pt.Gamma == load
        assert pt.state is ss
        assert pt.j == load * p55
        assert pt.V == _LEVELS.e5_minus_e6 + p.kTc * math.log(p55 / p66)
        assert pt.P == pt.j * pt.V
        assert (pt.coh13, pt.coh24) == (
            abs(complex(ss[IDX_RE13], ss[IDX_IM13])),
            abs(complex(ss[IDX_RE24], ss[IDX_IM24])))
