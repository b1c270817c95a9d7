"""Photovoltaic observables: current, voltage, power, efficiency."""

import numpy as np
import pytest

from qdmcell import (BAND_ALIGNMENTS, ModelParams, UndefinedEfficiencyError,
                     VoltageUndefinedError, absorption_fluxes,
                     apply_band_alignment, build_generator,
                     build_qdm_generator, coherence_magnitudes, current,
                     derive_level_energies, efficiency, iv_curve,
                     max_power_point, photovoltaic_point, power,
                     solve_steady, supplied_power, voltage)
from qdmcell.model import IDX_P11, N_STATE
from qdmcell.steady import SteadyState


def _state(**components) -> SteadyState:
    x = np.zeros(N_STATE)
    for key, value in components.items():
        x[int(key[1:])] = value
    return SteadyState(x=x, residual=0.0, condition_estimate=1.0)


class TestCurrent:
    def test_open_circuit_is_zero(self):
        ss = solve_steady(build_qdm_generator(ModelParams(Gamma=0.0)))
        assert current(ss, 0.0) == 0.0

    def test_dark_cell_carries_nothing(self):
        # No pumping: the conduction side stays empty at any load.
        ss = solve_steady(build_qdm_generator(ModelParams(kTs=1e-2)))
        assert ss.x[IDX_P11] <= 1e-15
        assert current(ss, 1.0) <= 1e-15

    def test_proportional_to_contact_population(self):
        ss = _state(p4=0.25)
        assert current(ss, 3.0) == pytest.approx(0.75)


class TestVoltage:
    def test_equal_contacts_give_level_splitting(self):
        p = ModelParams()
        e = derive_level_energies(p)
        ss = _state(p4=0.3, p5=0.3)
        assert voltage(ss, e, p.kTc) == pytest.approx(e.e5_minus_e6)

    def test_entropic_term_adds_one_kT_per_efold(self):
        p = ModelParams()
        e = derive_level_energies(p)
        ss = _state(p4=0.3 * np.e, p5=0.3)
        assert voltage(ss, e, p.kTc) == pytest.approx(
            e.e5_minus_e6 + p.kTc)

    def test_vanishing_contact_population_raises(self):
        p = ModelParams()
        e = derive_level_energies(p)
        with pytest.raises(VoltageUndefinedError):
            voltage(_state(p4=0.5), e, p.kTc)


class TestPower:
    def test_zero_current_zero_power(self):
        assert power(0.0, 800.0) == 0.0

    def test_product(self):
        assert power(0.02, 900.0) == pytest.approx(18.0)


class TestSuppliedPower:
    def test_zero_current(self):
        assert supplied_power(0.0, 1115.0) == 0.0

    def test_reference_product(self):
        assert supplied_power(0.0300, 920.0) == pytest.approx(27.6)

    def test_supplied_exceeds_delivered_along_sweeps(self):
        # V <= E12 on physical curves, so P_S = j E12 >= P = j V.
        for kind in ("qdm", "sqd"):
            curve = iv_curve(ModelParams(), kind=kind)
            j = curve.column("j")
            assert (supplied_power(1.0, 1115.0) * j >=
                    curve.column("P") - 1e-12).all()


class TestEfficiency:
    def test_zero_power(self):
        assert efficiency(0.0, 27.6) == 0.0

    def test_zero_supplied_power_raises(self):
        with pytest.raises(UndefinedEfficiencyError):
            efficiency(1.0, 0.0)


class TestAbsorptionFluxes:
    @staticmethod
    def _mpp_state(params, kind):
        # Oracle solve at the maximum-power load, independent of the
        # stacked solves inside the sweep.
        mpp = max_power_point(params, kind=kind)
        g = build_generator(params.replace(Gamma=mpp.Gamma_star), kind)
        return mpp, g, solve_steady(g)

    @pytest.mark.parametrize("rate", [0.0, 0.001, 0.1])
    @pytest.mark.parametrize("alignment", BAND_ALIGNMENTS)
    def test_fluxes_sum_to_load_current(self, alignment, rate):
        # Interdot channels move carriers without exchanging photons, so
        # the absorbed fluxes carry the whole load current.
        p = apply_band_alignment(ModelParams(gamma_13=rate, gamma_24=rate),
                                 alignment)
        mpp, g, ss = self._mpp_state(p, "qdm")
        j1, j2 = absorption_fluxes(ss.x, g.matrix)
        assert j2 > 0.0
        assert j1 + j2 == pytest.approx(current(ss, mpp.Gamma_star),
                                        rel=1e-10)

    def test_single_dot_has_no_second_channel(self):
        mpp, g, ss = self._mpp_state(ModelParams(), "sqd")
        j1, j2 = absorption_fluxes(ss.x, g.matrix)
        assert j2 == 0.0
        assert j1 == pytest.approx(current(ss, mpp.Gamma_star), rel=1e-10)


class TestCoherences:
    def test_no_tunneling_no_coherence(self):
        ss = solve_steady(build_qdm_generator(ModelParams(Te=0.0)))
        c13, _ = coherence_magnitudes(ss)
        assert c13 == 0.0

    def test_sqd_state_has_no_coherence(self):
        ss = solve_steady(build_generator(ModelParams(), "sqd"))
        assert coherence_magnitudes(ss) == (0.0, 0.0)

    def test_molecule_sustains_coherence(self):
        ss = solve_steady(build_qdm_generator(ModelParams()))
        c13, c24 = coherence_magnitudes(ss)
        assert c13 > 0.0
        assert c24 > 0.0


class TestPhotovoltaicPoint:
    def test_bundles_consistently(self):
        p = ModelParams()
        g = build_qdm_generator(p)
        ss = solve_steady(g)
        pt = photovoltaic_point(ss, p.Gamma, g.energies, p.kTc)
        assert pt.j == current(ss, p.Gamma)
        assert pt.V == voltage(ss, g.energies, p.kTc)
        assert pt.P == pt.j * pt.V
        assert (pt.coh13, pt.coh24) == coherence_magnitudes(ss)
