"""Closed-form reference models and the coherence linearity fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdmcell import (DomainError, ModelParams, TlsParams,
                     asymptotic_current_qdm, asymptotic_current_sqd,
                     coherence_linearity_check, current_ratio_bound,
                     iv_curve, max_power_point, tls_saturation_threshold,
                     tls_steady)

_rates = st.floats(min_value=1e-2, max_value=1e2)


_NON_FINITE_CALLS = [
    (current_ratio_bound, (math.nan,)),
    (current_ratio_bound, (math.inf,)),
    (asymptotic_current_qdm, (math.nan, 1.0, 1.0)),
    (asymptotic_current_qdm, (1.0, 1.0, math.inf)),
    (asymptotic_current_sqd, (math.inf, 1.0)),
    (asymptotic_current_sqd, (1.0, math.nan)),
    (tls_saturation_threshold, (0.0, math.nan, 1.0)),
    (tls_saturation_threshold, (0.0, 1.0, math.inf)),
    (tls_saturation_threshold, (math.inf, 1.0, 1.0)),
    (tls_saturation_threshold, (math.nan, 1.0, 1.0)),
]


@pytest.mark.parametrize("formula, args", _NON_FINITE_CALLS, ids=[
    f"{formula.__name__}{args}".replace(" ", "")
    for formula, args in _NON_FINITE_CALLS])
def test_closed_forms_reject_nan_and_infinity(formula, args):
    with pytest.raises(DomainError):
        formula(*args)


class TestAsymptoticCurrents:
    def test_qdm_cold_phonon_limit(self):
        assert asymptotic_current_qdm(0.1, 0.3, 0.0) == pytest.approx(0.2)

    def test_qdm_reference_occupations(self):
        assert asymptotic_current_qdm(0.12048, 0.12048, 12.4585) == \
            pytest.approx(0.0824, abs=1e-4)

    def test_sqd_cold_phonon_limit(self):
        assert asymptotic_current_sqd(0.4, 0.0) == pytest.approx(0.4)

    def test_sqd_reference_occupations(self):
        assert asymptotic_current_sqd(0.12048, 12.4585) == \
            pytest.approx(0.0626, abs=1e-4)

    def test_negative_occupations_rejected(self):
        with pytest.raises(DomainError):
            asymptotic_current_qdm(-0.1, 0.1, 1.0)
        with pytest.raises(DomainError):
            asymptotic_current_sqd(0.1, -1.0)


class TestCurrentRatioBound:
    def test_endpoints(self):
        assert current_ratio_bound(0.0) == 1.0
        assert current_ratio_bound(1e12) == pytest.approx(4.0 / 3.0,
                                                          abs=1e-9)

    def test_reference_occupation(self):
        assert current_ratio_bound(12.4585) == pytest.approx(1.3165,
                                                             abs=1e-4)

    def test_strictly_increasing_below_supremum(self):
        grid = np.linspace(0.0, 100.0, 2001)
        vals = [current_ratio_bound(nv) for nv in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 4.0 / 3.0


class TestTlsSteadyState:
    def test_no_drive_no_excitation(self):
        st_ = tls_steady(TlsParams(W=0.0, delta=1.0, gamma0=1.0, gammap=2.0))
        assert st_.rho_ee == 0.0
        assert st_.rho_eg == 0.0

    def test_resonant_matched_drive(self):
        # delta = 0, W^2 = gamma0 * gammap: population is 1/4.
        st_ = tls_steady(TlsParams(W=math.sqrt(6.0), delta=0.0,
                                   gamma0=2.0, gammap=3.0))
        assert st_.rho_ee == pytest.approx(0.25, abs=1e-14)

    def test_saturation_limit(self):
        st_ = tls_steady(TlsParams(W=1e6, delta=0.0, gamma0=1.0,
                                   gammap=1.0))
        assert st_.rho_ee == pytest.approx(0.5, abs=1e-9)
        assert st_.coherence == pytest.approx(0.0, abs=1e-5)

    @settings(max_examples=200)
    @given(W=st.floats(min_value=1e-3, max_value=1e3),
           delta=st.floats(min_value=-10.0, max_value=10.0),
           gamma0=_rates, gammap=_rates)
    def test_population_coherence_identity(self, W, delta, gamma0, gammap):
        # rho_ee = (gammap/gamma0) W / sqrt(gammap^2 + delta^2) |rho_eg|
        # holds identically in the stationary state.
        st_ = tls_steady(TlsParams(W=W, delta=delta, gamma0=gamma0,
                                   gammap=gammap))
        predicted = (gammap / gamma0) * W / math.hypot(gammap, delta) \
            * st_.coherence
        assert abs(st_.rho_ee - predicted) <= 1e-12

    def test_invalid_damping_rejected(self):
        with pytest.raises(DomainError):
            TlsParams(W=1.0, delta=0.0, gamma0=0.0, gammap=1.0)
        with pytest.raises(DomainError):
            TlsParams(W=-1.0, delta=0.0, gamma0=1.0, gammap=1.0)

    def test_non_finite_values_rejected(self):
        with pytest.raises(DomainError):
            TlsParams(W=1.0, delta=0.0, gamma0=math.nan, gammap=1.0)
        with pytest.raises(DomainError):
            TlsParams(W=np.array([1.0, math.inf]), delta=0.0, gamma0=1.0,
                      gammap=1.0)


class TestSaturationThreshold:
    def test_symmetric_resonant_case(self):
        assert tls_saturation_threshold(0.0, 2.0, 2.0) == pytest.approx(2.0)

    def test_fast_population_damping(self):
        # gamma0 = 4 gammap on resonance: threshold at 2 gammap.
        assert tls_saturation_threshold(0.0, 4.0, 1.0) == pytest.approx(2.0)

    @settings(max_examples=25, deadline=None)
    @given(delta=st.floats(min_value=-3.0, max_value=3.0),
           gamma0=st.floats(min_value=0.2, max_value=5.0),
           gammap=st.floats(min_value=0.2, max_value=5.0))
    def test_matches_numeric_argmax(self, delta, gamma0, gammap):
        w_ref = tls_saturation_threshold(delta, gamma0, gammap)
        ws = np.linspace(0.2 * w_ref, 5.0 * w_ref, 20001)
        cohs = tls_steady(TlsParams(W=ws, delta=delta, gamma0=gamma0,
                                    gammap=gammap)).coherence
        w_num = ws[int(np.argmax(cohs))]
        assert abs(w_num - w_ref) <= 1e-3 * w_ref


class TestCoherenceLinearity:
    def test_exactly_linear_data(self):
        slope = 3.5
        data = [(te, slope * te * 0.01, 0.01) for te in (1, 2, 3, 4, 5, 6)]
        fit = coherence_linearity_check(data)
        assert fit.slope == pytest.approx(slope, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_excluded == 0

    def test_zero_coherence_points_excluded(self):
        data = [(te, 2.0 * te * 0.01, 0.01) for te in (1, 2, 3, 4, 5)]
        data.append((6.0, 0.1, 0.0))
        fit = coherence_linearity_check(data)
        assert fit.n_excluded == 1

    def test_too_few_points_rejected(self):
        with pytest.raises(DomainError):
            coherence_linearity_check([(1.0, 1.0, 0.5)] * 4
                                      + [(2.0, 1.0, 0.0)])

    # Five usable points each, with no line to fit or a value no fit reads.
    _DEGENERATE = {
        "every-j-0": [(te, 0.0, 0.01) for te in (1, 2, 3, 4, 5)],
        "every-Te-0": [(0.0, j, 0.01) for j in (1, 2, 3, 4, 5)],
        "a-nan": [(1.0, 0.01, 0.01)] * 4 + [(2.0, math.nan, 0.01)],
        "an-inf": [(1.0, 0.01, 0.01)] * 4 + [(math.inf, 0.02, 0.01)],
    }

    @pytest.mark.parametrize("data", _DEGENERATE.values(), ids=_DEGENERATE)
    def test_degenerate_data_rejected(self, data):
        with pytest.raises(DomainError):
            coherence_linearity_check(data)

    @pytest.mark.parametrize("gc,gv", [(100.0, 0.05), (50.0, 5.0)])
    def test_current_coherence_ratio_linear_in_tunneling(self, gc, gv):
        data = []
        for d in range(2, 11):
            p = ModelParams(gamma_c=gc, gamma_v=gv).with_distance(float(d))
            mpp = max_power_point(p, kind="qdm")
            data.append((p.Te, mpp.j_mpp, mpp.coh13))
        fit = coherence_linearity_check(data)
        assert fit.r_squared >= 0.98
        assert fit.slope > 0.0


class TestCoherenceTrends:
    def test_valence_coherence_grows_with_hole_tunneling(self):
        # Smaller d means larger Th; at slow valence relaxation the
        # stationary |rho24| at maximum power grows with tunneling,
        # i.e. shrinks as the barrier widens.
        cohs = []
        for d in (2.0, 4.0, 6.0, 8.0, 10.0):
            p = ModelParams(gamma_v=0.005).with_distance(d)
            cohs.append(max_power_point(p, kind="qdm").coh24)
        assert all(b < a for a, b in zip(cohs, cohs[1:]))

    def test_valence_coherence_dominates_conduction(self):
        # Hole tunneling is far weaker than electron tunneling, so the
        # valence coherence is the larger of the two.
        mpp = max_power_point(ModelParams().with_distance(2.0), kind="qdm")
        assert mpp.coh24 / mpp.coh13 > 10.0

    def test_peak_conduction_coherence_decreasing_in_tunneling(self):
        peaks = []
        for d in (2.0, 6.0, 10.0):
            curve = iv_curve(ModelParams().with_distance(d), kind="qdm")
            peaks.append(curve.column("coh13").max())
        assert peaks[0] < peaks[1] < peaks[2]
