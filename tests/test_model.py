"""Generator construction: occupations, energies, alignments, structure."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdmcell import (BAND_ALIGNMENTS, DomainError, InvalidGeometryError,
                     ModelParams, apply_band_alignment, build_generator,
                     max_power_batch, thermal_occupations,
                     tunneling_from_distance)
from qdmcell.model import (IDX_IM13, IDX_P22, IDX_P55, IDX_P66, N_STATE,
                           PHONON_ENERGY_FLOOR, POPULATION_INDICES,
                           QDM_ACTIVE, SQD_ACTIVE, _FIELD_RULES,
                           _add_channels, _bose, _place_levels)
from qdmcell.steady import solve_steady
from test_sweeps import _batch_fields


class TestBoseOccupation:
    def test_solar_occupation_at_reference_gap(self):
        assert _bose(1115.0, 500.0) == pytest.approx(1.0 / math.expm1(2.23),
                                                     abs=1e-15)
        assert _bose(1115.0, 500.0) == pytest.approx(0.12048, abs=1e-5)

    def test_phonon_occupation_at_contact_offset(self):
        assert _bose(2.0, 25.9) == pytest.approx(12.4564, abs=1e-3)

    def test_exponential_suppression(self):
        # E/kT = 40: occupation ~ 4.25e-18, zero within 1e-15.
        assert _bose(40.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_domain_errors(self):
        # The last pair's occupation would overflow to inf.
        for E, kT in ((math.nan, 1.0), (1.0, math.nan), (1.0, math.inf),
                      (1e-320, 25.9)):
            with pytest.raises(DomainError):
                _bose(E, kT)


class TestTunnelingFit:
    def test_two_nanometers(self):
        te, th = tunneling_from_distance(2.0)
        assert te == pytest.approx(4.41, rel=0.02)
        assert th == pytest.approx(1.1 * math.exp(-2 / 3.37), rel=1e-12)

    def test_ten_nanometers(self):
        te, th = tunneling_from_distance(10.0)
        assert te == pytest.approx(1.44, rel=0.02)
        assert th == pytest.approx(0.057, rel=0.02)

    def test_wide_barrier_decouples(self):
        te, th = tunneling_from_distance(1e4)
        assert te == pytest.approx(0.0, abs=1e-300)
        assert th == pytest.approx(0.0, abs=1e-300)

    def test_monotone_decreasing(self):
        pairs = [tunneling_from_distance(d) for d in range(2, 11)]
        assert all(a[0] > b[0] and a[1] > b[1]
                   for a, b in zip(pairs, pairs[1:]))

    def test_invalid_width(self):
        for d in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                tunneling_from_distance(d)


class TestLevelEnergies:
    def test_default_transition_energies(self):
        e = _place_levels(ModelParams().__dict__, "qdm")
        assert e.E12 == 1115.0
        assert e.E34 == 1109.0  # E12 - (delta_e + delta_h)
        assert e.E35 == 2.0
        assert e.E62 == 2.0
        assert e.e5_minus_e6 == 1115.0 - 3.0 - 2.0 - 2.0

    def test_degenerate_offsets_rejected(self):
        with pytest.raises(InvalidGeometryError):
            build_generator(ModelParams(delta_c=0.0, delta_v=0.0), "qdm")

    def test_detunings_exceeding_gap_rejected(self):
        with pytest.raises(InvalidGeometryError):
            build_generator(ModelParams(delta_e=600.0, delta_h=600.0), "qdm")

    def test_alignment_a1_makes_conduction_resonant(self):
        e = _place_levels(
            apply_band_alignment(ModelParams(), "A1").__dict__, "qdm")
        assert e.w1 == e.w3


class TestThermalOccupations:
    def test_defaults(self):
        occ = thermal_occupations(ModelParams())
        assert occ.n1 == pytest.approx(0.12048, abs=1e-5)
        assert occ.nc == pytest.approx(12.4564, abs=1e-3)
        assert occ.nv == pytest.approx(12.4564, abs=1e-3)

    def test_cold_sun_is_dark(self):
        occ = thermal_occupations(ModelParams(kTs=1e-2))
        assert occ.n1 == 0.0
        assert occ.n2 == 0.0

    def test_zero_detuning_symmetry(self):
        occ = thermal_occupations(ModelParams(delta_e=1.5, delta_h=-1.5))
        assert occ.n2 == occ.n1


class TestBandAlignments:
    def test_table_values(self):
        base = ModelParams()
        for tag, de, dh in (("A1", 0.0, 6.0), ("A2", 6.0, 0.0),
                            ("B1", -2.0, 8.0), ("B2", 4.0, 2.0)):
            p = apply_band_alignment(base, tag)
            assert (p.delta_e, p.delta_h) == (de, dh)

    def test_identity_and_unknown(self):
        base = ModelParams()
        assert apply_band_alignment(base, "0") is base
        with pytest.raises(DomainError):
            apply_band_alignment(base, "C3")

    def test_total_detuning_preserved(self):
        # Every alignment redistributes delta_e + delta_h without
        # changing the sum, so E34 is alignment-invariant.
        base = ModelParams()
        for tag in ("A1", "A2", "B1", "B2"):
            p = apply_band_alignment(base, tag)
            assert p.delta_e + p.delta_h == pytest.approx(6.0, abs=1e-12)
            assert build_generator(p, "qdm").E34 == pytest.approx([1109.0])


class TestGeneratorStructure:
    def test_zero_rates_give_zero_matrix(self):
        p = ModelParams(Te=0.0, Th=0.0, delta_e=0.0, delta_h=0.0,
                        gamma1=0.0, gamma2=0.0, gamma_c=0.0, gamma_v=0.0)
        g = build_generator(p, "qdm")
        assert not g.matrix.any()

    def test_trace_conservation(self):
        # Columns of the population block sum to zero: probability only
        # moves between levels.
        for kind in ("qdm", "sqd"):
            g = build_generator(ModelParams(), kind)
            col_sums = g.matrix[list(POPULATION_INDICES), :].sum(axis=0)
            assert np.abs(col_sums).max() <= 1e-14 * g.max_rate[0]

    def test_active_sets(self):
        assert build_generator(ModelParams(), "qdm").active == QDM_ACTIVE
        assert build_generator(ModelParams(), "sqd").active == SQD_ACTIVE
        with pytest.raises(DomainError):
            build_generator(ModelParams(), "tls")

    def test_rate_rescaling_homogeneity(self):
        # Scaling every rate by lam (and the energy unit down by lam)
        # rescales time only: M -> lam * M.
        p = ModelParams().with_distance(4.0)
        lam = 2.5
        q = p.replace(gamma1=p.gamma1 * lam, gamma2=p.gamma2 * lam,
                      gamma_c=p.gamma_c * lam, gamma_v=p.gamma_v * lam,
                      hbar_gamma=p.hbar_gamma / lam)
        assert np.allclose(build_generator(q, "qdm", Gamma=lam).matrix,
                           lam * build_generator(p, "qdm", Gamma=1.0).matrix,
                           rtol=1e-12, atol=0.0)

    def test_matrix_is_frozen(self):
        g = build_generator(ModelParams(), "qdm")
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 1.0

    def test_sqd_has_no_coherence_terms(self):
        g = build_generator(ModelParams(), "sqd")
        assert not g.matrix[IDX_IM13:].any()
        assert not g.matrix[:, IDX_IM13:].any()

    def test_detailed_balance_of_isolated_valence_channel(self):
        # Only the valence phonon channel active: the {|2>, |6>} block
        # relaxes to the Boltzmann ratio rho66/rho22 = nv/(nv+1).
        p = ModelParams(Te=0.0, Th=0.0, gamma1=0.0, gamma2=0.0,
                        gamma_c=0.0)
        g = build_generator(p, "qdm")
        x = solve_steady(replace(g, active=(IDX_P22, IDX_P66)))[:, 0]
        nv = thermal_occupations(p).nv
        assert x[IDX_P66] / x[IDX_P22] == pytest.approx(
            nv / (nv + 1.0), rel=1e-12)

    def test_phonon_assisted_channels_preserve_trace(self):
        p = ModelParams(gamma_13=0.01, gamma_24=0.01)
        g = build_generator(p, "qdm")
        col_sums = g.matrix[list(POPULATION_INDICES), :].sum(axis=0)
        assert np.abs(col_sums).max() <= 1e-14 * g.max_rate[0]

    def test_phonon_floor_handles_resonant_levels(self):
        # Degenerate interdot levels would put a zero energy into the
        # Bose factor; the floor keeps the build finite.
        p = ModelParams(delta_e=0.0, delta_h=6.0, gamma_13=0.01,
                        gamma_24=0.01)
        g = build_generator(p, "qdm")
        assert np.isfinite(g.matrix).all()


class TestParamValidation:
    def test_negative_rates_rejected(self):
        with pytest.raises(DomainError):
            ModelParams(gamma_c=-1.0)
        with pytest.raises(DomainError):
            build_generator(ModelParams(), "qdm", Gamma=-0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_load_rejected(self, value):
        # The load is an argument of the build, not a device field.
        for kind in ("qdm", "sqd"):
            with pytest.raises(DomainError, match="load rate Gamma"):
                build_generator(ModelParams(), kind, Gamma=value)
        with pytest.raises(TypeError):
            ModelParams(Gamma=1.0)

    def test_nonpositive_temperatures_rejected(self):
        with pytest.raises(DomainError):
            ModelParams(kTs=0.0)
        with pytest.raises(DomainError):
            ModelParams(kTc=-1.0)

    @pytest.mark.parametrize("name", [f.name for f in fields(ModelParams)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(DomainError):
            ModelParams(**{name: value})

    @pytest.mark.parametrize("name", [f.name for f in fields(ModelParams)])
    def test_replace_checks_like_the_constructor(self, name):
        p = ModelParams()
        value = getattr(p, name) * 1.5 + 0.1
        q = p.replace(**{name: value})
        assert q == replace(p, **{name: value})
        assert type(q) is ModelParams and getattr(p, name) != value
        with pytest.raises(DomainError):
            p.replace(**{name: math.nan})
        with pytest.raises(TypeError):
            p.replace(**{name: value, "gamma": 1.0})

    def test_overflowing_level_energies_rejected(self):
        with pytest.raises(DomainError, match="level energies overflow"):
            build_generator(ModelParams(E12=1e308, delta_e=-1e308), "qdm")

    @pytest.mark.parametrize("kind", ["qdm", "sqd"])
    @pytest.mark.parametrize("values", [
        {"gamma_c": 1e308}, {"gamma_v": 1e200}, {"kTc": 1e305},
        {"hbar_gamma": 1e-320}, {"Te": 1e300}])
    def test_overflowing_generator_entries_rejected(self, kind, values):
        # The coherence elimination squares the entries, so an entry is
        # rejected once its square overflows, not only when it is inf.
        p = ModelParams(**values)
        if kind == "sqd" and ("hbar_gamma" in values or "Te" in values):
            build_generator(p, kind)  # the single dot has no tunneling
            return
        with pytest.raises(DomainError, match="generator entry"):
            build_generator(p, kind)

    def test_default_tunnelings_are_the_2nm_barrier(self):
        assert ModelParams() == ModelParams().with_distance(2.0)

    def test_with_distance_sets_both_tunnelings(self):
        p = ModelParams().with_distance(5.0)
        te, th = tunneling_from_distance(5.0)
        assert (p.Te, p.Th) == (te, th)


# Devices over the scans' ranges; kTs reaches 1.5 meV, where E12/kTs > 700
# takes the exp(-x) branch of the occupation, and gamma_13 = gamma_24 = 0.1
# opens phonon-assisted gaps of both signs across the alignments.
_stack_devices = st.builds(
    lambda d, gc, gv, g_ph, kTs, alignment: apply_band_alignment(
        ModelParams(gamma_c=gc, gamma_v=gv, gamma_13=g_ph, gamma_24=g_ph,
                    kTs=kTs), alignment).with_distance(d),
    d=st.floats(min_value=2.0, max_value=10.0),
    gc=st.floats(min_value=0.0, max_value=math.log10(500.0)).map(
        lambda e: 10.0 ** e),
    gv=st.floats(min_value=-4.0, max_value=math.log10(20.0)).map(
        lambda e: 10.0 ** e),
    g_ph=st.sampled_from((0.0, 1e-3, 0.1)),
    kTs=st.floats(min_value=1.5, max_value=500.0),
    alignment=st.sampled_from(BAND_ALIGNMENTS))
_kinds = st.sampled_from(("qdm", "sqd"))

# One bad field or load each; whether and how a device fails is decided by
# its lone build (the single dot ignores delta_e, for one).
_BAD_FIELDS = (("gamma_c", -1.0), ("gamma_v", math.nan), ("kTs", math.inf),
               ("Te", -math.inf), ("E12", 0.0), ("delta_c", -1.0),
               ("delta_v", 0.0), ("delta_e", 2000.0), ("gamma_c", 1e308),
               ("hbar_gamma", 1e-320), ("Gamma", -1.0), ("Gamma", math.nan),
               ("Gamma", math.inf))
_loads = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3))


def _lone_device_error(values: dict, kind: str, load: float):
    try:
        build_generator(ModelParams(**values), kind, Gamma=load)
    except (DomainError, InvalidGeometryError) as exc:
        return exc
    return None


class TestHermitianCrossCheck:
    """Rebuild each generator from the complex master equation on the 6x6
    density matrix, d rho/dt = -i[H, rho] + sum_k D[L_k] rho, and compare
    the real-packed matrices of lone builds and of stacks with it."""

    @staticmethod
    def _reference(p, kind, Gamma):
        # Levels |1>..|6> are rows 0..5; the single dot has no |3>, |4>,
        # and its conduction contact hangs delta_c below |1>.
        w1 = p.E12
        w3 = w1 - p.delta_e if kind == "qdm" else w1
        w = (w1, 0.0, w3, p.delta_h, w3 - p.delta_c, p.delta_v)
        H = np.zeros((6, 6), dtype=complex)
        jumps = [(Gamma, 4, 5)]  # (rate, from, to): the load |5> -> |6>

        def thermal(upper, lower, rate, energy, kT):
            n = _bose(energy, kT)
            jumps.extend([(rate * (n + 1), upper, lower),
                          (rate * n, lower, upper)])

        thermal(0, 1, p.gamma1, w[0] - w[1], p.kTs)
        thermal(5, 1, p.gamma_v, w[5] - w[1], p.kTc)
        if kind == "sqd":
            thermal(0, 4, p.gamma_c, w[0] - w[4], p.kTc)
        else:
            thermal(2, 3, p.gamma2, w[2] - w[3], p.kTs)
            thermal(2, 4, p.gamma_c, w[2] - w[4], p.kTc)
            for a, b, t, rate in ((0, 2, p.Te, p.gamma_13),
                                  (1, 3, p.Th, p.gamma_24)):
                # Only the splitting within each tunnel pair enters the
                # kept coherences, so it sits on the pair's first level.
                gap = w[a] - w[b]
                H[a, a] = gap / p.hbar_gamma
                H[a, b] = H[b, a] = t / p.hbar_gamma
                if rate > 0.0:
                    upper, lower = (a, b) if gap >= 0.0 else (b, a)
                    thermal(upper, lower, rate,
                            max(abs(gap), PHONON_ENERGY_FLOOR), p.kTc)

        M = np.zeros((N_STATE, N_STATE))
        for j in range(N_STATE):
            x = np.eye(N_STATE)[j]
            rho = np.diag(x[:6]).astype(complex)
            rho[0, 2] = complex(x[6], x[7])
            rho[1, 3] = complex(x[8], x[9])
            rho[2, 0], rho[3, 1] = rho[0, 2].conjugate(), rho[1, 3].conjugate()
            d = -1j * (H @ rho - rho @ H)
            for rate, u, v in jumps:  # D[L] with L = sqrt(rate) |v><u|
                d[v, v] += rate * rho[u, u]
                d[u, :] -= 0.5 * rate * rho[u, :]
                d[:, u] -= 0.5 * rate * rho[:, u]
            M[:, j] = [*d.diagonal().real, d[0, 2].real, d[0, 2].imag,
                       d[1, 3].real, d[1, 3].imag]
        if kind == "sqd":  # the single dot carries no coherences
            M[6:] = M[:, 6:] = 0.0
        return M

    def _assert_matches(self, matrix, p, kind, Gamma=0.0):
        ref = self._reference(p, kind, Gamma)
        assert np.abs(matrix - ref).max() <= 1e-12 * np.abs(ref).max()

    def _assert_both_builders_match(self, p, kind):
        # A lone build, and a device varied in a stack, at zero load.
        lone = build_generator(p, kind, Gamma=1.0)
        self._assert_matches(lone.matrix[..., 0], p, kind, Gamma=1.0)
        self._assert_matches(
            build_generator(p, kind, gamma_c=[p.gamma_c]).matrix[..., 0],
            p, kind)

    def test_real_packing_matches_complex_equations(self):
        p = ModelParams().with_distance(3.0)
        g = build_generator(p, "qdm", Gamma=1.0)
        self._assert_matches(g.matrix[..., 0], p, "qdm", Gamma=1.0)

    # Assisted gaps of both signs: w1 - w3 = delta_e and w2 - w4 =
    # -delta_h; A1 and A2 put one pair on resonance, onto the floor.
    @pytest.mark.parametrize("g13, g24", [(0.0, 0.0), (0.1, 0.0),
                                          (0.0, 1e-3), (0.1, 0.1)])
    @pytest.mark.parametrize("device", [
        *BAND_ALIGNMENTS, "negative_detunings"])
    def test_channels_match_complex_equations(self, device, g13, g24):
        base = ModelParams(gamma_13=g13, gamma_24=g24)
        p = (base.replace(delta_e=-1.0, delta_h=-1.5)
             if device == "negative_detunings"
             else apply_band_alignment(base, device))
        for q in (p, p.with_distance(10.0)):
            self._assert_both_builders_match(q, "qdm")

    @pytest.mark.parametrize("p", [
        ModelParams(),
        ModelParams(delta_c=0.5, delta_v=7.0, gamma_c=3.0, kTs=5.0)])
    def test_single_dot_matches_complex_equations(self, p):
        self._assert_both_builders_match(p, "sqd")

    @settings(max_examples=50, deadline=None)
    @given(devices=st.lists(_stack_devices, min_size=1, max_size=4),
           kind=_kinds)
    def test_random_devices_match_complex_equations(self, devices, kind):
        loads = np.arange(len(devices)) / 2.0
        stack = build_generator(ModelParams(), kind, Gamma=loads,
                                **_batch_fields(devices))
        for k, p in enumerate(devices):
            self._assert_matches(build_generator(p, kind).matrix[..., 0],
                                 p, kind)
            self._assert_matches(stack.matrix[..., k], p, kind, loads[k])


class TestGeneratorStack:
    @settings(max_examples=100, deadline=None)
    @given(devices=st.lists(st.tuples(_stack_devices, _loads), min_size=1,
                            max_size=4),
           kind=_kinds)
    def test_equals_single_device_builds(self, devices, kind):
        # Device k of a varied stack, with a load per device, is the lone
        # build of its own parameters and load, bit for bit: array_equal
        # would let -0.0 stand for 0.0.
        params, loads = zip(*devices)
        stack = build_generator(ModelParams(), kind, Gamma=list(loads),
                                **_batch_fields(params))
        assert stack.matrix.shape == (N_STATE, N_STATE, len(devices))
        for k, (p, load) in enumerate(devices):
            lone = build_generator(p, kind, Gamma=load)
            assert lone.active == stack.active
            for name in ("matrix", "e5_minus_e6", "E12", "E34", "kTc",
                         "max_rate"):
                assert (getattr(stack, name)[..., k].tobytes()
                        == getattr(lone, name)[..., 0].tobytes())

    @pytest.mark.parametrize("kind", ["qdm", "sqd"])
    @pytest.mark.parametrize("name, value", _BAD_FIELDS)
    @settings(max_examples=5, deadline=None)
    @given(devices=st.lists(st.tuples(_stack_devices, _loads), min_size=1,
                            max_size=4),
           data=st.data())
    def test_invalid_device_raises_its_single_device_error(
            self, kind, name, value, devices, data):
        k = data.draw(st.integers(min_value=0, max_value=len(devices) - 1))
        params, loads = zip(*devices)
        varied, loads = _batch_fields(params), np.array(loads)
        (loads if name == "Gamma" else varied[name])[k] = value
        want = _lone_device_error(
            {f: float(v[k]) for f, v in varied.items()}, kind, loads[k])
        if want is None:
            build_generator(ModelParams(), kind, Gamma=loads, **varied)
            return
        with pytest.raises(type(want)) as got:
            build_generator(ModelParams(), kind, Gamma=loads, **varied)
        assert str(got.value) == str(want)

    def test_first_failing_device_raises_its_first_failed_check(self):
        # Device 1's field fails the first check, device 0's layout a later
        # one: device 0 raises.  Device 1 alone raises its own error.
        varied = dict(delta_e=[2000.0, 3.0], gamma_c=[100.0, -1.0])
        with pytest.raises(InvalidGeometryError, match="E34 = "):
            build_generator(ModelParams(), "qdm", **varied)
        with pytest.raises(DomainError, match="rate gamma_c"):
            build_generator(ModelParams(), "qdm", Gamma=[1.0, 1.0],
                            delta_e=[3.0, 3.0], gamma_c=[100.0, -1.0])

    def test_base_fields_fill_the_rest(self):
        base = ModelParams().with_distance(4.0)
        stack = build_generator(base, "qdm", gamma_c=[1.0, 50.0])
        for k, gc in enumerate((1.0, 50.0)):
            want = build_generator(base.replace(gamma_c=gc), "qdm").matrix
            assert np.array_equal(stack.matrix[..., k], want[..., 0])

    @pytest.mark.parametrize("kind", ["qdm", "sqd"])
    def test_zero_load_build_is_a_stack_entry(self, kind):
        # Bit for bit: array_equal would let -0.0 stand for 0.0.
        for p in (ModelParams(), ModelParams(gamma_13=0.1, kTs=3.0)):
            stack = build_generator(ModelParams(), kind, Gamma=[0.0, 2.5],
                                    **_batch_fields([p, p]))
            for k, load in enumerate((0.0, 2.5)):
                assert (build_generator(p, kind, Gamma=load).matrix.tobytes()
                        == stack.matrix[..., k].tobytes())

    def test_bad_requests_rejected(self):
        with pytest.raises(DomainError, match=r"cannot vary \['gamma'\]"):
            build_generator(ModelParams(), "qdm", gamma=[1.0])
        with pytest.raises(DomainError):
            build_generator(ModelParams(), "qdm", gamma_c=[1.0, 2.0],
                            gamma_v=[1.0])
        with pytest.raises(DomainError):
            build_generator(ModelParams(), "qdm", Gamma=[1.0, 2.0],
                            gamma_c=[1.0])
        with pytest.raises(DomainError):
            build_generator(ModelParams(), "qdm", gamma_c=5.0)
        with pytest.raises(DomainError):
            build_generator(ModelParams(), "dqd", gamma_c=[1.0])

    def test_lone_device_is_a_stack_of_one(self):
        g = build_generator(ModelParams(), "qdm", Gamma=2.0)
        assert g.matrix.shape == (N_STATE, N_STATE, 1)
        for name in ("e5_minus_e6", "E12", "E34", "kTc", "max_rate"):
            assert getattr(g, name).shape == (1,)
        assert g.max_rate[0] == np.abs(g.matrix).max()


class TestLoneArithmeticOracle:
    """A lone build as plain matrix arithmetic: every channel added into a
    (10, 10) array, then the load, entry by entry."""

    @settings(max_examples=60, deadline=None)
    @given(device=_stack_devices, load=_loads, kind=_kinds)
    def test_stack_of_one_is_the_matrix_arithmetic(self, device, load, kind):
        f = device.__dict__
        M = np.zeros((N_STATE, N_STATE))
        _add_channels(M, f, _place_levels(f, kind), kind)
        M[IDX_P55, IDX_P55] += -load
        M[IDX_P66, IDX_P55] += load
        g = build_generator(device, kind, Gamma=load)
        assert g.matrix[..., 0].tobytes() == M.tobytes()


def _stack_error(call):
    try:
        call()
    except (DomainError, InvalidGeometryError) as exc:
        return exc
    return None


def _assert_same_error(got, want):
    # Also passes when neither call raised.
    assert type(got) is type(want)
    assert str(got) == str(want)


class TestSharedInvalidValues:
    """A layout or load that the whole stack shares, invalid: every device
    reads it, and the stack raises the lone device's error."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind, bad", [
        ("qdm", {"delta_c": -1.0}), ("qdm", {"delta_c": 0.0}),
        ("qdm", {"delta_v": -1.0}), ("qdm", {"delta_e": 2000.0}),
        ("qdm", {"delta_h": 2000.0}),
        ("qdm", {"E12": 1.7e308, "delta_e": -1.7e308})])
    def test_shared_layout(self, kind, bad, n):
        p, gamma_c = ModelParams(**bad), np.linspace(1.0, 2.0, n)
        want = _lone_device_error(bad, kind, 0.0)
        _assert_same_error(_stack_error(
            lambda: build_generator(p, kind, gamma_c=gamma_c)), want)
        _assert_same_error(_stack_error(
            lambda: max_power_batch(p, kind, gamma_c=gamma_c)), want)

    @pytest.mark.parametrize("kind", ["qdm", "sqd"])
    @pytest.mark.parametrize("load", [-1.0, math.nan, math.inf])
    def test_shared_load(self, kind, load):
        want = _lone_device_error({}, kind, load)
        _assert_same_error(_stack_error(lambda: build_generator(
            ModelParams(), kind, Gamma=load, gamma_c=[1.0, 2.0])), want)


# Bad values of every field rule (just below its bound, inf, NaN), of each
# layout check, of the entry bound and of the load; each case sets one or
# two fields, or the load.
_BAD_CASES = (
    *({name: value} for names, low, _ in _FIELD_RULES for name in names
      for value in (math.nextafter(low, -math.inf), math.inf, math.nan)),
    {"E12": 1.7e308, "delta_e": -1.7e308}, {"delta_e": 2000.0},
    {"delta_h": 2000.0}, {"delta_c": -1.0}, {"delta_v": 0.0},
    {"gamma_c": 1e308}, {"hbar_gamma": 1e-320},
    {"Gamma": -1.0}, {"Gamma": math.nan}, {"Gamma": math.inf})
_FIELD_NAMES = tuple(f.name for f in fields(ModelParams))


def _first_lone_error(base: dict, varied: dict, kind: str, loads, n: int):
    """The error of the first device whose lone build fails, or None."""
    loads = np.broadcast_to(loads, n)
    return next((exc for j in range(n) if (exc := _lone_device_error(
        dict(base, **{f: float(v[j]) for f, v in varied.items()}), kind,
        float(loads[j]))) is not None), None)


def _is_field_value(values: dict) -> bool:
    try:
        ModelParams(**values)
    except DomainError:
        return False
    return True


class TestStackErrorsAreLoneErrors:
    """For every field rule, layout check and the load, a stack raises
    the error of its first failing device's lone build, whether the bad
    value is varied at any device position or shared through ``params``
    while other fields vary."""

    @pytest.mark.parametrize("case", _BAD_CASES, ids=lambda case: ",".join(
        f"{name}={value:g}" for name, value in case.items()))
    @settings(max_examples=4, derandomize=True, deadline=None)
    @given(kind=_kinds,
           devices=st.lists(st.tuples(_stack_devices, _loads), min_size=1,
                            max_size=3),
           data=st.data())
    def test_stack_error_is_the_lone_error(self, case, kind, devices, data):
        n, bad = len(devices), dict(case)
        load = bad.pop("Gamma", None)
        others = data.draw(st.sets(st.sampled_from(
            [f for f in _FIELD_NAMES if f not in bad]), min_size=1))
        params, loads = zip(*devices)
        columns, loads = _batch_fields(params), np.array(loads)
        varied = {f: columns[f] for f in others}
        base = ModelParams().__dict__
        # ``params`` can share a layout or the load, not a field's bad value.
        if data.draw(st.booleans()) and _is_field_value(bad):
            base = dict(base, **bad)
            loads = loads if load is None else load
        else:
            k = data.draw(st.integers(min_value=0, max_value=n - 1))
            for f, value in bad.items():
                varied[f] = np.full(n, base[f])
                varied[f][k] = value
            if load is not None:
                loads[k] = load
        p = ModelParams(**base)
        calls = [(loads, lambda: build_generator(p, kind, Gamma=loads,
                                                 **varied))]
        if load is None:  # the maximum search sweeps its own load
            calls.append((0.0, lambda: max_power_batch(p, kind, **varied)))
        for lone_loads, call in calls:
            _assert_same_error(_stack_error(call), _first_lone_error(
                base, varied, kind, lone_loads, n))
