"""Generator construction: occupations, energies, alignments, structure."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdmcell import (BAND_ALIGNMENTS, DomainError, InvalidGeometryError,
                     ModelParams, apply_band_alignment, bose_occupation,
                     build_generator, build_generator_stack,
                     build_qdm_generator, build_sqd_generator,
                     derive_level_energies, thermal_occupations,
                     tunneling_from_distance)
from qdmcell.model import (IDX_IM13, IDX_P22, IDX_P66,
                           POPULATION_INDICES, QDM_ACTIVE, SQD_ACTIVE)
from qdmcell.steady import solve_steady


class TestBoseOccupation:
    def test_solar_occupation_at_reference_gap(self):
        assert bose_occupation(1115.0, 500.0) == pytest.approx(
            1.0 / math.expm1(2.23), abs=1e-15)
        assert bose_occupation(1115.0, 500.0) == pytest.approx(0.12048,
                                                               abs=1e-5)

    def test_phonon_occupation_at_contact_offset(self):
        assert bose_occupation(2.0, 25.9) == pytest.approx(12.4564, abs=1e-3)

    def test_exponential_suppression(self):
        # E/kT = 40: occupation ~ 4.25e-18, zero within 1e-15.
        assert bose_occupation(40.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bose_occupation(0.0, 1.0)
        with pytest.raises(DomainError):
            bose_occupation(1.0, 0.0)
        # The last pair's occupation would overflow to inf.
        for E, kT in ((math.nan, 1.0), (1.0, math.nan), (1.0, math.inf),
                      (1e-320, 25.9)):
            with pytest.raises(DomainError):
                bose_occupation(E, kT)


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
        e = derive_level_energies(ModelParams())
        assert e.E12 == 1115.0
        assert e.E34 == 1109.0  # E12 - (delta_e + delta_h)
        assert e.E35 == 2.0
        assert e.E62 == 2.0
        assert e.e5_minus_e6 == 1115.0 - 3.0 - 2.0 - 2.0

    def test_degenerate_offsets_rejected(self):
        with pytest.raises(InvalidGeometryError):
            derive_level_energies(ModelParams(delta_c=0.0, delta_v=0.0))

    def test_detunings_exceeding_gap_rejected(self):
        with pytest.raises(InvalidGeometryError):
            derive_level_energies(ModelParams(delta_e=600.0, delta_h=600.0))

    def test_alignment_a1_makes_conduction_resonant(self):
        e = derive_level_energies(
            apply_band_alignment(ModelParams(), "A1"))
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
            assert derive_level_energies(p).E34 == pytest.approx(1109.0)


class TestGeneratorStructure:
    def test_zero_rates_give_zero_matrix(self):
        p = ModelParams(Te=0.0, Th=0.0, delta_e=0.0, delta_h=0.0,
                        gamma1=0.0, gamma2=0.0, gamma_c=0.0, gamma_v=0.0,
                        Gamma=0.0)
        g = build_qdm_generator(p)
        assert not g.matrix.any()

    def test_trace_conservation(self):
        # Columns of the population block sum to zero: probability only
        # moves between levels.
        for kind in ("qdm", "sqd"):
            g = build_generator(ModelParams(), kind)
            col_sums = g.matrix[list(POPULATION_INDICES), :].sum(axis=0)
            assert np.abs(col_sums).max() <= 1e-14 * g.max_rate

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
                      Gamma=p.Gamma * lam, hbar_gamma=p.hbar_gamma / lam)
        assert np.allclose(build_qdm_generator(q).matrix,
                           lam * build_qdm_generator(p).matrix,
                           rtol=1e-12, atol=0.0)

    def test_matrix_is_frozen(self):
        g = build_qdm_generator(ModelParams())
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 1.0

    def test_sqd_has_no_coherence_terms(self):
        g = build_sqd_generator(ModelParams())
        assert not g.matrix[IDX_IM13:].any()
        assert not g.matrix[:, IDX_IM13:].any()

    def test_detailed_balance_of_isolated_valence_channel(self):
        # Only the valence phonon channel active: the {|2>, |6>} block
        # relaxes to the Boltzmann ratio rho66/rho22 = nv/(nv+1).
        p = ModelParams(Te=0.0, Th=0.0, gamma1=0.0, gamma2=0.0,
                        gamma_c=0.0, Gamma=0.0)
        g = build_qdm_generator(p)
        ss = solve_steady(g, block_of=IDX_P22)
        nv = g.occupations.nv
        assert ss.x[IDX_P66] / ss.x[IDX_P22] == pytest.approx(
            nv / (nv + 1.0), rel=1e-12)

    def test_phonon_assisted_channels_preserve_trace(self):
        p = ModelParams(gamma_13=0.01, gamma_24=0.01)
        g = build_qdm_generator(p)
        col_sums = g.matrix[list(POPULATION_INDICES), :].sum(axis=0)
        assert np.abs(col_sums).max() <= 1e-14 * g.max_rate

    def test_phonon_floor_handles_resonant_levels(self):
        # Degenerate interdot levels would put a zero energy into the
        # Bose factor; the floor keeps the build finite.
        p = ModelParams(delta_e=0.0, delta_h=6.0, gamma_13=0.01,
                        gamma_24=0.01)
        g = build_qdm_generator(p)
        assert np.isfinite(g.matrix).all()


class TestHermitianCrossCheck:
    """Rebuild the molecule equations on the 10 complex variables of the
    original master equation and compare against the real-packed form."""

    @staticmethod
    def _complex_rhs(p, rho):
        # rho: dict with p11..p66 (real) and r13, r24 (complex).
        e = derive_level_energies(p)
        occ = thermal_occupations(p)
        te, th = p.Te / p.hbar_gamma, p.Th / p.hbar_gamma
        de = (e.w1 - e.w3) / p.hbar_gamma
        dh = (e.w2 - e.w4) / p.hbar_gamma
        g1, g2 = p.gamma1, p.gamma2
        gc, gv, load = p.gamma_c, p.gamma_v, p.Gamma
        n1, n2, nc, nv = occ.n1, occ.n2, occ.nc, occ.nv
        r13, r24 = rho["r13"], rho["r24"]
        out = {}
        out["p11"] = (1j * te * (r13 - r13.conjugate())).real \
            - g1 * ((n1 + 1) * rho["p11"] - n1 * rho["p22"])
        out["p33"] = (-1j * te * (r13 - r13.conjugate())).real \
            - g2 * ((n2 + 1) * rho["p33"] - n2 * rho["p44"]) \
            - gc * ((nc + 1) * rho["p33"] - nc * rho["p55"])
        out["p22"] = (1j * th * (r24 - r24.conjugate())).real \
            + g1 * ((n1 + 1) * rho["p11"] - n1 * rho["p22"]) \
            + gv * ((nv + 1) * rho["p66"] - nv * rho["p22"])
        out["p44"] = (-1j * th * (r24 - r24.conjugate())).real \
            + g2 * ((n2 + 1) * rho["p33"] - n2 * rho["p44"])
        out["p55"] = gc * ((nc + 1) * rho["p33"] - nc * rho["p55"]) \
            - load * rho["p55"]
        out["p66"] = load * rho["p55"] \
            - gv * ((nv + 1) * rho["p66"] - nv * rho["p22"])
        damp13 = 0.5 * (g1 * (n1 + 1) + g2 * (n2 + 1) + gc * (nc + 1))
        out["r13"] = (-1j * de - damp13) * r13 \
            + 1j * te * (rho["p11"] - rho["p33"])
        damp24 = 0.5 * (g1 * n1 + g2 * n2 + gv * nv)
        out["r24"] = (-1j * dh - damp24) * r24 \
            + 1j * th * (rho["p22"] - rho["p44"])
        return out

    def test_real_packing_matches_complex_equations(self):
        p = ModelParams().with_distance(3.0)
        g = build_qdm_generator(p)
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.standard_normal(12)
            x[10:] = 0.0
            rho = {"p11": x[0], "p22": x[1], "p33": x[2], "p44": x[3],
                   "p55": x[4], "p66": x[5],
                   "r13": complex(x[6], x[7]), "r24": complex(x[8], x[9])}
            ref = self._complex_rhs(p, rho)
            got = g.matrix @ x
            scale = np.abs(got).max()
            for key, idx in (("p11", 0), ("p22", 1), ("p33", 2),
                             ("p44", 3), ("p55", 4), ("p66", 5)):
                assert got[idx] == pytest.approx(ref[key],
                                                 abs=1e-12 * scale)
            assert got[6] == pytest.approx(ref["r13"].real,
                                           abs=1e-12 * scale)
            assert got[7] == pytest.approx(ref["r13"].imag,
                                           abs=1e-12 * scale)
            assert got[8] == pytest.approx(ref["r24"].real,
                                           abs=1e-12 * scale)
            assert got[9] == pytest.approx(ref["r24"].imag,
                                           abs=1e-12 * scale)


class TestParamValidation:
    def test_negative_rates_rejected(self):
        with pytest.raises(DomainError):
            ModelParams(gamma_c=-1.0)
        with pytest.raises(DomainError):
            ModelParams(Gamma=-0.5)

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

    def test_overflowing_level_energies_rejected(self):
        with pytest.raises(DomainError):
            derive_level_energies(ModelParams(E12=1e308, delta_e=-1e308))

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

    def test_with_distance_sets_both_tunnelings(self):
        p = ModelParams().with_distance(5.0)
        te, th = tunneling_from_distance(5.0)
        assert (p.Te, p.Th) == (te, th)


def _stack_fields(devices) -> dict:
    """Every field but the load of each device, as batch arrays."""
    return {f.name: np.array([getattr(p, f.name) for p in devices])
            for f in fields(ModelParams) if f.name != "Gamma"}


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

# One bad field each; whether and how a device fails is decided by the
# single-device path (the single dot ignores delta_e, for one).
_BAD_FIELDS = (("gamma_c", -1.0), ("gamma_v", math.nan), ("kTs", math.inf),
               ("Te", -math.inf), ("E12", 0.0), ("delta_c", -1.0),
               ("delta_v", 0.0), ("delta_e", 2000.0), ("gamma_c", 1e308),
               ("hbar_gamma", 1e-320))


def _single_device_error(values: dict, kind: str):
    try:
        build_generator(ModelParams(**values), kind)
    except (DomainError, InvalidGeometryError) as exc:
        return exc
    return None


class TestGeneratorStack:
    @settings(max_examples=100, deadline=None)
    @given(devices=st.lists(_stack_devices, min_size=1, max_size=4),
           kind=_kinds)
    def test_equals_single_device_builds(self, devices, kind):
        stack = build_generator_stack(ModelParams(), kind,
                                      **_stack_fields(devices))
        singles = [build_generator(p.replace(Gamma=0.0), kind)
                   for p in devices]
        assert np.array_equal(stack.matrix,
                              np.array([g.matrix for g in singles]))
        assert stack.active == singles[0].active
        for name, want in (
                ("e5_minus_e6", [g.energies.e5_minus_e6 for g in singles]),
                ("E12", [g.energies.E12 for g in singles]),
                ("E34", [g.energies.E34 for g in singles]),
                ("kTc", [p.kTc for p in devices])):
            assert np.array_equal(getattr(stack, name), want)

    @pytest.mark.parametrize("kind", ["qdm", "sqd"])
    @pytest.mark.parametrize("name, value", _BAD_FIELDS)
    @settings(max_examples=5, deadline=None)
    @given(devices=st.lists(_stack_devices, min_size=1, max_size=4),
           data=st.data())
    def test_invalid_device_raises_its_single_device_error(
            self, kind, name, value, devices, data):
        k = data.draw(st.integers(min_value=0, max_value=len(devices) - 1))
        varied = _stack_fields(devices)
        varied[name][k] = value
        want = _single_device_error(
            {f: float(v[k]) for f, v in varied.items()}, kind)
        if want is None:
            build_generator_stack(ModelParams(), kind, **varied)
            return
        with pytest.raises(type(want)) as got:
            build_generator_stack(ModelParams(), kind, **varied)
        assert str(got.value) == str(want)

    def test_base_fields_fill_the_rest(self):
        base = ModelParams().with_distance(4.0)
        stack = build_generator_stack(base, "qdm", gamma_c=[1.0, 50.0])
        for k, gc in enumerate((1.0, 50.0)):
            want = build_generator(base.replace(gamma_c=gc, Gamma=0.0),
                                   "qdm").matrix
            assert np.array_equal(stack.matrix[k], want)

    def test_bad_requests_rejected(self):
        with pytest.raises(DomainError):
            build_generator_stack(ModelParams(), "qdm", Gamma=[1.0])
        with pytest.raises(DomainError):
            build_generator_stack(ModelParams(), "qdm", gamma_c=[1.0, 2.0],
                                  gamma_v=[1.0])
        with pytest.raises(DomainError):
            build_generator_stack(ModelParams(), "dqd", gamma_c=[1.0])
