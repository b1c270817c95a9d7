"""Load sweeps, maximum-power search, and parameter scans."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qdmcell import (BAND_ALIGNMENTS, BoundaryMaximumError,
                     DegenerateSteadyStateError,
                     DomainError, GridSpec, InvalidGeometryError, ModelParams,
                     UndefinedEfficiencyError, VoltageUndefinedError,
                     absorption_fluxes,
                     apply_band_alignment, build_generator,
                     efficiency_vs_distance, gamma_grid_scan, iv_curve,
                     max_power_point, open_circuit_voltage,
                     phonon_assisted_comparison, photovoltaic_point,
                     relative_current_gain, short_circuit_current,
                     solve_steady)
from qdmcell.model import (IDX_IM13, IDX_IM24, IDX_P11, IDX_P22, IDX_P33,
                           IDX_P55, IDX_P66, IDX_RE13, IDX_RE24,
                           POPULATION_INDICES, GeneratorStack)
from qdmcell.observables import _POPULATION_GUARD
from qdmcell.sweeps import (ChainForm, MaxPowerPoint, _device_chain,
                            _max_power, _short_circuit_load,
                            max_power_batch)

def _high_precision_solve(g, digits: int, read):
    """``read(mpmath, x)`` at ``digits`` digits, with x the stationary
    state of generator ``g`` (indexed by state component) solved by
    mpmath at that precision, the |6> row traded for the normalization.
    """
    mpmath = pytest.importorskip("mpmath")
    active = list(g.active)
    r6 = active.index(IDX_P66)
    with mpmath.workdps(digits):
        B = mpmath.matrix(g.matrix[np.ix_(active, active)].tolist())
        for c, i in enumerate(active):
            B[r6, c] = 1 if i in POPULATION_INDICES else 0
        sol = mpmath.lu_solve(B, mpmath.matrix(
            [int(c == r6) for c in range(len(active))]))
        return read(mpmath, {i: sol[c] for c, i in enumerate(active)})


GUIMARD_SQD = ModelParams(E12=920.0, gamma1=0.19, gamma_c=100.0,
                          gamma_v=0.05)
GUIMARD_QDM = GUIMARD_SQD.replace(delta_e=0.0, delta_h=0.0,
                                  gamma2=0.19).with_distance(2.0)


class TestGridSpec:
    def test_defaults(self):
        vals = GridSpec().values()
        assert len(vals) == 200
        assert vals[0] == pytest.approx(1e-6)
        assert vals[-1] == pytest.approx(1e6)

    def test_minimum_resolution_enforced(self):
        with pytest.raises(DomainError):
            GridSpec(n=10)
        with pytest.raises(DomainError):
            GridSpec(gamma_min=1.0, gamma_max=0.1)


class TestIvCurve:
    def test_curve_invariants(self):
        curve = iv_curve(ModelParams(), kind="qdm")
        gammas = curve.column("Gamma")
        assert len(curve.column("Gamma")) + curve.n_dropped == 200
        assert len(curve.column("Gamma")) >= 50
        assert (np.diff(gammas) > 0).all()
        for name in ("j", "V", "P", "coh13", "coh24"):
            assert np.isfinite(curve.column(name)).all()

    def test_molecule_outperforms_single_dot(self):
        qdm = iv_curve(ModelParams().with_distance(2.0), kind="qdm")
        sqd = iv_curve(ModelParams(), kind="sqd")
        assert short_circuit_current(qdm).value > \
            short_circuit_current(sqd).value

    def test_wide_barrier_approaches_single_dot(self):
        # The molecule's advantage decays with the barrier width.
        jsc = {d: short_circuit_current(
            iv_curve(ModelParams().with_distance(float(d)), kind="qdm")).value
            for d in (2, 4, 6, 10)}
        assert jsc[2] > jsc[4] > jsc[6] > jsc[10]
        j_sqd = short_circuit_current(iv_curve(ModelParams(),
                                               kind="sqd")).value
        assert abs(jsc[10] - j_sqd) / j_sqd < 0.01
        assert abs(jsc[2] - j_sqd) / j_sqd > 0.05

    def test_dark_cell_carries_no_current(self):
        curve = iv_curve(ModelParams(kTs=1e-2), kind="qdm")
        assert (curve.column("j") <= 1e-12).all()
        # Points with an empty conduction contact are dropped.
        assert curve.n_dropped > 0
        assert len(curve.column("Gamma")) + curve.n_dropped == 200

    @pytest.mark.parametrize("kind", ["qdm", "sqd"])
    @pytest.mark.parametrize("kTs", [1.5, 1.52, 1.6])
    def test_cold_sun_leaves_the_contact_empty(self, kind, kTs):
        # rho55 falls below the float range here: a pivot underflows
        # (1.5), the weights overflow (1.52), or Gamma x_b does at large
        # loads (1.6).  No warning, every point dropped, no V_oc.
        p = ModelParams(kTs=kTs)
        curve = iv_curve(p, kind=kind)
        assert curve.n_dropped == 200
        with pytest.raises(BoundaryMaximumError):
            max_power_point(curve=curve)
        with pytest.raises(VoltageUndefinedError):
            open_circuit_voltage(p, kind=kind)

    def test_deterministic_bit_identical(self):
        a = iv_curve(ModelParams(), kind="qdm")
        b = iv_curve(ModelParams(), kind="qdm")
        assert (a.column("j") == b.column("j")).all()
        assert (a.column("V") == b.column("V")).all()

    @pytest.mark.parametrize("kind", ["qdm", "sqd"])
    def test_near_dark_voltage_matches_high_precision_solve(self, kind):
        # A cold sun reverses the voltage to near E12 (1 - kTc/kTs), about
        # -4 660 mV, with rho55 near 1e-97.
        p = ModelParams(kTs=5.0)
        curve = iv_curve(p, kind=kind)
        assert curve.n_dropped == 0
        gamma, got = curve.column("Gamma")[0], curve.column("V")[0]
        assert gamma == GridSpec().gamma_min
        g = build_generator(p.replace(Gamma=gamma), kind)

        def voltage(mpmath, x):
            assert x[IDX_P55] > 0
            return float(g.energies.e5_minus_e6
                         + p.kTc * mpmath.log(x[IDX_P55] / x[IDX_P66]))

        # The elimination cancels down to the 1e-97 scale of rho55 (at 50
        # digits it returns a negative rho55), so the solve carries 50
        # digits beyond it.
        want = _high_precision_solve(g, 150, voltage)
        assert want == pytest.approx(-4650.0, abs=20.0)
        assert abs(got - want) <= 1e-9 * abs(want)


class TestMaxPowerPoint:
    def test_single_dot_reference(self):
        mpp = max_power_point(GUIMARD_SQD, kind="sqd")
        assert mpp.P_m == pytest.approx(13.66, rel=0.10)
        assert mpp.eta == pytest.approx(mpp.V_mpp / 920.0, rel=1e-12)

    def test_molecule_reference(self):
        mpp = max_power_point(GUIMARD_QDM, kind="qdm")
        assert mpp.P_m > max_power_point(GUIMARD_SQD, kind="sqd").P_m

    def test_dark_cell_has_no_interior_maximum(self):
        with pytest.raises(BoundaryMaximumError):
            max_power_point(ModelParams(kTs=1e-2), kind="qdm")

    def test_refinement_improves_on_grid(self):
        coarse = iv_curve(ModelParams(), kind="qdm", grid=GridSpec(n=50))
        mpp = max_power_point(curve=coarse)
        assert mpp.P_m >= coarse.column("P").max()

    def test_requires_params_or_curve(self):
        with pytest.raises(DomainError):
            max_power_point()

    def test_curve_takes_no_other_argument(self):
        curve = iv_curve(ModelParams(), kind="qdm", grid=GridSpec(n=50))
        mpp = max_power_point(curve=curve)
        assert max_power_point(kind="qdm", curve=curve) == mpp
        for other in (dict(params=ModelParams()), dict(kind="sqd"),
                      dict(grid=GridSpec(n=50))):
            with pytest.raises(DomainError, match="takes no other argument"):
                max_power_point(curve=curve, **other)

    @pytest.mark.parametrize("alignment", ["0", "A2", "B1"])
    def test_molecule_eta_charges_each_channel_at_its_gap(self, alignment):
        p = apply_band_alignment(ModelParams(), alignment)
        mpp = max_power_point(p, kind="qdm")
        g = build_generator(p.replace(Gamma=mpp.Gamma_star), "qdm")
        j1, j2 = absorption_fluxes(solve_steady(g).x, g.matrix)
        supplied = g.energies.E12 * j1 + g.energies.E34 * j2
        assert mpp.eta == pytest.approx(mpp.P_m / supplied, rel=1e-10)
        # Dot 2 absorbs below E12, so charging it at E12 understates eta.
        assert mpp.eta > mpp.V_mpp / p.E12

    def test_non_positive_supplied_power_raises(self, monkeypatch):
        monkeypatch.setattr("qdmcell.sweeps.absorption_fluxes",
                            lambda state, generator: (0.0, 0.0))
        with pytest.raises(UndefinedEfficiencyError):
            max_power_point(ModelParams(), kind="qdm")


class TestOpenCircuitVoltage:
    def test_single_dot_reference(self):
        voc = open_circuit_voltage(GUIMARD_SQD, kind="sqd")
        assert voc.value == pytest.approx(871.0, rel=0.02)

    def test_a2_alignment_dominates_reference_configuration(self):
        # The resonant-conduction alignment carries more current at
        # every shared operating voltage, hence more power.
        p0 = ModelParams().with_distance(2.0)
        pa = apply_band_alignment(ModelParams(), "A2").with_distance(2.0)
        c0 = iv_curve(p0, kind="qdm")
        ca = iv_curve(pa, kind="qdm")
        # Compare over the operating range; within ~kTc/2 of A2's
        # (3 mV lower) open-circuit voltage both currents cut off
        # exponentially and the ordering flips trivially.
        v_top = open_circuit_voltage(pa, kind="qdm").value - 10.0
        v0, j0 = c0.column("V")[::-1], c0.column("j")[::-1]
        va, ja = ca.column("V")[::-1], ca.column("j")[::-1]
        vs = np.linspace(max(v0[0], va[0]), v_top, 100)
        assert (np.interp(vs, va, ja) >= np.interp(vs, v0, j0)).all()
        assert max_power_point(curve=ca).P_m > max_power_point(curve=c0).P_m

    def test_empty_contact_leaves_voltage_undefined(self):
        # Without conduction escape nothing fills |5> under any load.
        with pytest.raises(VoltageUndefinedError):
            open_circuit_voltage(ModelParams(gamma_c=0.0), kind="qdm")
        with pytest.raises(VoltageUndefinedError):
            open_circuit_voltage(ModelParams(kTs=1e-2), kind="qdm")


class TestDeviceChainMemo:
    @pytest.mark.parametrize("kind", ["qdm", "sqd"])
    def test_characterisation_builds_each_device_once(self, monkeypatch,
                                                       kind):
        builds = []

        def counting_build(params, kind):
            builds.append(kind)
            return build_generator(params, kind)

        monkeypatch.setattr("qdmcell.sweeps.build_generator", counting_build)
        _device_chain.cache_clear()
        curve = iv_curve(ModelParams(), kind=kind, alignment="A2")
        max_power_point(curve=curve)
        short_circuit_current(curve)
        open_circuit_voltage(curve.params, kind)
        assert builds == [kind]

    def test_shared_form_is_read_only(self):
        chain = iv_curve(ModelParams(), kind="qdm").chain
        stack = chain.stack
        for values in (chain.x_a, chain.x_b, chain.s_a, chain.s_b,
                       stack.matrix, stack.e5_minus_e6, stack.E12,
                       stack.E34, stack.kTc):
            with pytest.raises(ValueError):
                values[0] = 1.0
        assert chain.x_a[0, IDX_P55] == 1.0

    @pytest.mark.parametrize("kind", ["qdm", "sqd"])
    @pytest.mark.parametrize("alignment", BAND_ALIGNMENTS)
    @pytest.mark.parametrize("g_ph", [0.0, 0.1])
    def test_cached_form_equals_a_fresh_build(self, kind, alignment, g_ph):
        p = apply_band_alignment(
            ModelParams(gamma_13=g_ph, gamma_24=g_ph), alignment)
        cached = _device_chain(p, kind)
        assert _device_chain(p, kind) is cached
        fresh = _device_chain.__wrapped__(p, kind)
        for name in ("x_a", "x_b", "s_a", "s_b"):
            assert np.array_equal(getattr(cached, name), getattr(fresh, name))
        for name in ("matrix", "e5_minus_e6", "E12", "E34", "kTc"):
            assert np.array_equal(getattr(cached.stack, name),
                                  getattr(fresh.stack, name))

    def test_failing_device_raises_on_every_call(self):
        p = ModelParams(Te=0.0, Th=0.0, gamma2=0.0)
        for _ in range(2):
            with pytest.raises(DegenerateSteadyStateError):
                _device_chain(p, "qdm")

    @pytest.mark.parametrize("kind", ["qdm", "sqd"])
    def test_changed_field_or_kind_is_a_new_entry(self, kind):
        # The old entry is fetched again before each change, so it is
        # still held when the changed device is looked up.
        p = ModelParams()
        other = "sqd" if kind == "qdm" else "qdm"
        old = _device_chain(p, kind)
        assert _device_chain(p, other).stack.active != old.stack.active
        for f in fields(ModelParams):
            old = _device_chain(p, kind)
            changed = p.replace(**{f.name: getattr(p, f.name) * 1.5 + 0.1})
            new = _device_chain(changed, kind)
            assert new is not old
            assert np.array_equal(new.x_a,
                                  _device_chain.__wrapped__(changed, kind).x_a)


class TestShortCircuitCurrent:
    def test_single_dot_reference(self):
        jsc = short_circuit_current(iv_curve(GUIMARD_SQD, kind="sqd"))
        assert jsc.value == pytest.approx(0.018, rel=0.10)

    def test_reference_point_is_flagged_tail_value(self):
        # At the reference operating point V = 0 is only reached at
        # absurdly large loads; the tail value is a saturated lower
        # bound.
        jsc = short_circuit_current(iv_curve(ModelParams(), kind="qdm"))
        assert not jsc.from_crossing
        curve = iv_curve(ModelParams(), kind="qdm",
                         grid=GridSpec(gamma_max=1e5))
        assert jsc.value == pytest.approx(
            short_circuit_current(curve).value, rel=1e-4)


class TestRelativeCurrentGain:
    def test_reference_rate_sets(self):
        slow = relative_current_gain(
            ModelParams(gamma_c=100.0, gamma_v=0.05).with_distance(2.0))
        fast = relative_current_gain(
            ModelParams(gamma_c=50.0, gamma_v=5.0).with_distance(2.0))
        assert slow.delta_j == pytest.approx(0.07, abs=0.03)
        assert fast.delta_j == pytest.approx(0.31, abs=0.03)
        assert slow.delta_Pm == pytest.approx(0.09, abs=0.03)
        assert fast.delta_Pm == pytest.approx(0.32, abs=0.03)

    def test_degenerate_molecule_carries_no_current(self):
        # Cutting both tunnelings breaks the photocurrent cycle (which
        # spans both dots), so the degenerate molecule cannot deliver
        # power: the only stationary current is zero.
        p = ModelParams(Te=0.0, Th=0.0, gamma2=0.0)
        # Solved on the block of |1>: |4> and the coherences decouple.
        ss = solve_steady(replace(
            build_generator(p, "qdm"),
            active=(IDX_P11, IDX_P22, IDX_P33, IDX_P55, IDX_P66)))
        assert abs(p.Gamma * ss.x[IDX_P55]) <= 1e-12
        # Sweeps refuse the degenerate build outright rather than
        # reporting a meaningless gain.
        with pytest.raises(DegenerateSteadyStateError):
            max_power_point(p, kind="qdm")


class TestGammaGridScan:
    def test_small_scan_structure(self):
        gc = np.logspace(1, 2, 4)
        gv = np.logspace(-2, 1, 5)
        scan = gamma_grid_scan(ModelParams().with_distance(2.0),
                               gamma_c_grid=gc, gamma_v_grid=gv,
                               grid=GridSpec(n=60))
        assert scan.delta_j.shape == (5, 4)
        assert not scan.failures
        assert np.isfinite(scan.delta_j).all()
        # Fast valence relaxation and much faster conduction escape is
        # where the molecule pays off most.
        assert scan.delta_j[-1, -1] == scan.delta_j.max()
        assert 0.10 <= scan.delta_j.max() <= 0.33

    def test_gain_band_contains_ten_to_twenty_percent(self):
        gc = np.logspace(1.5, np.log10(500.0), 6)
        gv = np.logspace(-2, np.log10(20.0), 6)
        scan = gamma_grid_scan(ModelParams().with_distance(2.0),
                               gamma_c_grid=gc, gamma_v_grid=gv,
                               grid=GridSpec(n=60))
        band = scan.delta_j[(scan.delta_j >= 0.10) & (scan.delta_j <= 0.20)]
        assert band.size > 0

    def test_strong_tunneling_gains_at_least_weak(self):
        gc = np.logspace(1, 2, 3)
        gv = np.logspace(-1, 0, 3)
        a = gamma_grid_scan(ModelParams().with_distance(2.0),
                            gamma_c_grid=gc, gamma_v_grid=gv)
        b = gamma_grid_scan(ModelParams().with_distance(10.0),
                            gamma_c_grid=gc, gamma_v_grid=gv)
        assert not a.failures and not b.failures
        assert (a.delta_j >= b.delta_j - 1e-9).all()

    def test_reducible_device_is_recorded_not_fatal(self):
        # Without tunneling and dot-2 pumping the molecule's chain falls
        # apart; the single dot does not use those parameters.
        cut = ModelParams(Te=0.0, Th=0.0, gamma2=0.0)
        batch = max_power_batch(
            ModelParams(), kind="qdm",
            **_batch_fields([ModelParams(), cut, ModelParams()]))
        assert batch.errors[0] is None and batch.errors[2] is None
        assert isinstance(batch.errors[1], DegenerateSteadyStateError)
        assert np.isnan(batch.P_m[1])
        assert np.isfinite(batch.P_m[[0, 2]]).all()
        scan = gamma_grid_scan(cut, gamma_c_grid=[10.0, 100.0],
                               gamma_v_grid=[0.05, 5.0])
        assert [(iv, ic) for iv, ic, _ in scan.failures] == [
            (0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(msg.startswith("DegenerateSteadyStateError: ")
                   for _, _, msg in scan.failures)
        assert np.isnan(scan.delta_j).all()

    def test_dark_good_and_degenerate_devices_in_one_batch(self):
        # The dark cell's contact |5> is transient (its one closed class
        # is |2>, |4>, |6>), so it has a steady state but no power; the
        # cut molecule has two closed classes and no unique steady state.
        dark = ModelParams(kTs=1e-2)
        cut = ModelParams(Te=0.0, Th=0.0, gamma2=0.0)
        batch = max_power_batch(
            ModelParams(), kind="qdm",
            **_batch_fields([dark, ModelParams(), cut]))
        assert isinstance(batch.errors[0], BoundaryMaximumError)
        assert batch.errors[1] is None
        assert isinstance(batch.errors[2], DegenerateSteadyStateError)
        assert np.isnan(batch.P_m[[0, 2]]).all()
        assert batch.P_m[1] == max_power_batch(ModelParams()).P_m[0]
        # The dark cell's steady state exists; its contact is empty.
        ss = solve_steady(build_generator(dark, "qdm"))
        assert ss.x[IDX_P55] <= 1e-300


class TestEfficiencyVsDistance:
    def test_alignment_sweep_rows(self):
        rows = efficiency_vs_distance(ModelParams(), d_grid=(2.0, 10.0),
                                      grid=GridSpec(n=100))
        assert len(rows) == 10  # 5 alignments x 2 distances
        assert all(0.0 < r.eta < 0.9482 for r in rows)
        for d in (2.0, 10.0):
            best = max((r for r in rows if r.d == d), key=lambda r: r.P_m)
            assert best.alignment == "A2"

    def test_a2_valence_coherence_strongly_suppressed(self):
        rows = efficiency_vs_distance(ModelParams(), d_grid=(2.0,),
                                      alignments=("0", "A2"),
                                      grid=GridSpec(n=100))
        by_tag = {r.alignment: r for r in rows}
        assert by_tag["A2"].coh24 < 1e-3
        assert by_tag["A2"].coh24 < by_tag["0"].coh24 / 1000.0


class TestScanErrors:
    def test_input_errors_raise_once(self):
        # A geometry shared by every cell is one input error, not a failed
        # cell each.
        with pytest.raises(InvalidGeometryError):
            gamma_grid_scan(ModelParams(delta_c=-1.0),
                            gamma_c_grid=[10.0, 100.0],
                            gamma_v_grid=[0.05, 5.0])
        with pytest.raises(DomainError):
            max_power_batch(ModelParams(), kind="qdm",
                            gamma_c=[100.0, -1.0, np.nan])

    def test_scans_raise_first_typed_error(self):
        # Every maximum lies above a load range that ends at 1e-3.
        narrow = GridSpec(gamma_max=1e-3)
        with pytest.raises(BoundaryMaximumError):
            efficiency_vs_distance(ModelParams(), d_grid=(2.0,), grid=narrow)
        with pytest.raises(BoundaryMaximumError):
            phonon_assisted_comparison(ModelParams(), grid=narrow)


class TestPhononAssistedComparison:
    def test_zero_rate_bit_identical_to_baseline(self):
        p = ModelParams(gamma_c=100.0, gamma_v=0.05).with_distance(2.0)
        base = max_power_point(p, kind="qdm")
        same = max_power_point(p.replace(gamma_13=0.0, gamma_24=0.0),
                               kind="qdm")
        assert base == same

    def test_assisted_channels_help_weak_tunneling_most(self):
        rows = phonon_assisted_comparison(ModelParams(), rates=(0.001,),
                                          rate_sets=((100.0, 0.05),),
                                          grid=GridSpec(n=100))
        gains = {r.d: r.delta_Pm for r in rows if r.gamma_ph > 0.0}
        assert gains[2.0] > 0.0
        assert gains[10.0] > gains[2.0]

    def test_fast_relaxation_set_unaffected_at_strong_tunneling(self):
        rows = phonon_assisted_comparison(ModelParams(), rates=(0.001,),
                                          rate_sets=((50.0, 5.0),),
                                          distances=(2.0,),
                                          grid=GridSpec(n=100))
        gain = next(r.delta_Pm for r in rows if r.gamma_ph > 0.0)
        assert abs(gain) < 0.01


def _batch_fields(devices) -> dict:
    """Every field but the load of each device, as batch arrays."""
    return {f.name: np.array([getattr(p, f.name) for p in devices])
            for f in fields(ModelParams) if f.name != "Gamma"}


def _device(d, gc, gv, g_ph, alignment) -> ModelParams:
    return apply_band_alignment(
        ModelParams(gamma_c=gc, gamma_v=gv, gamma_13=g_ph, gamma_24=g_ph),
        alignment).with_distance(d)


# Devices across the escape-rate ranges of the scans, with optional
# phonon-assisted channels (gamma_13 = gamma_24).
_devices = st.builds(
    _device,
    d=st.floats(min_value=2.0, max_value=10.0),
    gc=st.floats(min_value=0.0, max_value=np.log10(500.0)).map(
        lambda e: 10.0 ** e),
    gv=st.floats(min_value=-4.0, max_value=np.log10(20.0)).map(
        lambda e: 10.0 ** e),
    g_ph=st.sampled_from((0.0, 0.001, 0.1)),
    alignment=st.sampled_from(BAND_ALIGNMENTS))
_kinds = st.sampled_from(("qdm", "sqd"))


class TestLoadSweepProperties:
    @settings(max_examples=100, deadline=None)
    @given(p=_devices, kind=_kinds,
           log_gamma=st.floats(min_value=-6.0, max_value=6.0))
    def test_closed_form_matches_direct_solve(self, p, kind, log_gamma):
        gamma = 10.0 ** log_gamma
        direct = solve_steady(build_generator(p.replace(Gamma=gamma), kind))
        closed = _device_chain(p, kind).states(gamma)[0]
        assert np.abs(closed - direct.x).max() <= 1e-10

    @settings(max_examples=50, deadline=None)
    @given(p=_devices, kind=_kinds)
    def test_open_circuit_voltage_is_zero_load_state(self, p, kind):
        g = build_generator(p.replace(Gamma=0.0), kind)
        want = photovoltaic_point(solve_steady(g), 0.0, g.energies, p.kTc).V
        assert open_circuit_voltage(p, kind).value == pytest.approx(
            want, rel=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(p=_devices, kind=_kinds,
           gamma_max=st.sampled_from((1e6, 1e25)))
    def test_short_circuit_crossing_is_exact(self, p, kind, gamma_max):
        # V reaches 0 near Gamma ~ 1e17 at kTc = 25.9 meV, so the wide
        # grid crosses and the default grid ends on the tail.
        curve = iv_curve(p, kind=kind, grid=GridSpec(gamma_max=gamma_max))
        jsc = short_circuit_current(curve)
        assert jsc.from_crossing == (gamma_max > 1e6)
        if not jsc.from_crossing:
            assert jsc.value == curve.column("j")[-1]
            return
        gamma = _short_circuit_load(curve.chain)
        state = curve.chain.states(gamma)[0]
        # The voltage from the normalized populations, not from the
        # a6 + Gamma b6 form the crossing was solved with.
        e56 = build_generator(curve.params, kind).energies.e5_minus_e6
        V = e56 + p.kTc * np.log(state[IDX_P55] / state[IDX_P66])
        assert abs(V) <= 1e-9
        assert jsc.value == pytest.approx(gamma * state[IDX_P55], rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(p=_devices, kind=_kinds)
    def test_device_invariants(self, p, kind):
        curve = iv_curve(p, kind=kind)
        mpp = max_power_point(curve=curve)
        voc = open_circuit_voltage(p, kind)
        jsc = short_circuit_current(curve)
        assert voc.value >= mpp.V_mpp
        assert mpp.j_mpp <= jsc.value
        assert 0.0 <= mpp.eta < 1.0 - p.kTc / p.kTs


def _twin(chain: ChainForm) -> ChainForm:
    """A one-device chain form held twice, which ``_max_power`` searches
    on its array branch."""
    s = chain.stack
    stack = GeneratorStack(np.repeat(s.matrix, 2, axis=0), s.active, *(
        np.repeat(v, 2) for v in (s.e5_minus_e6, s.E12, s.E34, s.kTc)))
    return ChainForm(stack, *(np.repeat(v, 2, axis=0) for v in (
        chain.x_a, chain.x_b, chain.s_a, chain.s_b)))


class TestSingleDeviceFastPaths:
    """The single-device path computes less than the general one, to the
    same bits."""

    @settings(max_examples=50, deadline=None)
    @given(p=_devices, kind=_kinds, n=st.sampled_from((50, 2000)),
           kTs=st.sampled_from((None, 1.5, 1.52, 1.6)))
    @example(p=ModelParams(), kind="qdm", n=50, kTs=1.6)
    @example(p=ModelParams(), kind="sqd", n=2000, kTs=1.52)
    def test_curve_columns_equal_full_states(self, p, kind, n, kTs):
        # A cold sun drops some or all of the points.
        if kTs is not None:
            p = p.replace(kTs=kTs)
        curve = iv_curve(p, kind=kind, grid=GridSpec(n=n))
        gammas = curve.grid.values()
        X = curve.chain.states(gammas)
        keep = ((X[:, IDX_P55] > _POPULATION_GUARD)
                & (X[:, IDX_P66] > _POPULATION_GUARD))
        X, gammas = X[keep], gammas[keep]
        j = gammas * X[:, IDX_P55]
        V = curve.chain.voltage(gammas)
        want = {"Gamma": gammas, "j": j, "V": V, "P": j * V,
                "coh13": np.hypot(X[:, IDX_RE13], X[:, IDX_IM13]),
                "coh24": np.hypot(X[:, IDX_RE24], X[:, IDX_IM24])}
        assert list(curve.columns) == list(want)
        for name, values in want.items():
            assert curve.column(name).tobytes() == values.tobytes(), name
        assert curve.n_dropped == n - np.count_nonzero(keep)

    @settings(max_examples=50, deadline=None)
    @given(p=_devices, kind=_kinds, n=st.sampled_from((50, 200, 2000)))
    # Devices whose maximum a C-library log in the lone Newton iteration
    # moves by an ulp: it differs from numpy's in the last bit for about
    # one argument in 10 000.
    @example(p=_device(3.4926101753866785, 19.03111120378649,
                       7.225123480583942, 0.001, "B2"), kind="qdm", n=200)
    @example(p=_device(8.536628114971567, 384.1782943221369,
                       0.0005122947943677336, 0.1, "A2"), kind="qdm", n=200)
    @example(p=_device(2.9098844565390802, 13.89805956044057,
                       14.495227933974562, 0.001, "B1"), kind="sqd", n=200)
    @example(p=_device(3.8895007595079223, 64.79244682059677,
                       0.008836853701285743, 0.0, "0"), kind="sqd", n=200)
    def test_lone_maximum_equals_array_branch(self, p, kind, n):
        curve = iv_curve(p, kind=kind, grid=GridSpec(n=n))
        mpp = max_power_point(curve=curve)
        gammas = curve.column("Gamma")
        k = int(curve.column("P").argmax())
        batch = _max_power(_twin(curve.chain), gammas[[k - 1] * 2],
                           gammas[[k + 1] * 2], [None, None])
        assert batch.errors == (None, None)
        for f in fields(MaxPowerPoint):
            got = np.array([getattr(mpp, f.name)] * 2)
            assert got.tobytes() == getattr(batch, f.name).tobytes(), f.name


# The same devices under a hot sun, where ``solve_steady`` (and so the
# single-device path) is accurate to well below the tolerances.
_hot_devices = st.builds(lambda p, kTs: p.replace(kTs=kTs), _devices,
                         st.floats(min_value=100.0, max_value=500.0))


class TestMaxPowerBatch:
    @settings(max_examples=50, deadline=None)
    @given(devices=st.lists(_hot_devices, min_size=1, max_size=3),
           kind=_kinds)
    def test_matches_direct_solve_at_maximum(self, devices, kind):
        batch = max_power_batch(ModelParams(), kind=kind,
                                **_batch_fields(devices))
        assert batch.errors == (None,) * len(devices)
        for k, p in enumerate(devices):
            gamma = float(batch.Gamma_star[k])
            g = build_generator(p.replace(Gamma=gamma), kind)
            ss = solve_steady(g)
            j1, j2 = absorption_fluxes(ss.x, g.matrix)
            j = gamma * ss.x[IDX_P55]
            V = photovoltaic_point(ss, gamma, g.energies, p.kTc).V
            want = {"j_mpp": j, "V_mpp": V,
                    "eta": j * V / (g.energies.E12 * j1
                                    + g.energies.E34 * j2),
                    "coh13": abs(ss.rho13), "coh24": abs(ss.rho24)}
            for name, value in want.items():
                assert getattr(batch, name)[k] == pytest.approx(
                    value, rel=1e-9, abs=0.0)
            # The same device alone gives the same bits.
            alone = max_power_batch(p, kind=kind)
            for name in ("Gamma_star", "j_mpp", "V_mpp", "P_m", "eta",
                         "coh13", "coh24"):
                assert getattr(alone, name)[0] == getattr(batch, name)[k]

    @settings(max_examples=40, deadline=None)
    @given(p=_devices, kind=_kinds,
           kTs=st.floats(min_value=25.9, max_value=500.0),
           log_gamma=st.floats(min_value=-6.0, max_value=6.0))
    def test_populations_match_high_precision_solve(self, p, kind, kTs,
                                                    log_gamma):
        p, gamma = p.replace(kTs=kTs), 10.0 ** log_gamma
        g = build_generator(p.replace(Gamma=gamma), kind)
        pops = [i for i in g.active if i in POPULATION_INDICES]
        got = _device_chain(p, kind).states(gamma)[0, pops]
        want = np.array(_high_precision_solve(
            g, 50, lambda mpmath, x: [float(x[i]) for i in pops]))
        assert (want > 0.0).all()
        assert (np.abs(got - want) <= 1e-10 * want).all()

    @pytest.mark.parametrize("kind", ["qdm", "sqd"])
    def test_any_bracket_gives_the_same_maximum(self, kind):
        # Far above the maximum the power slope overflows; the search
        # starts from a sample right of the maximum where it does not.
        near = max_power_batch(ModelParams(), kind=kind)
        wide = max_power_batch(ModelParams(), kind=kind, grid=GridSpec(
            gamma_min=1e-300, gamma_max=1e300))
        assert wide.errors == (None,)
        assert wide.P_m[0] == pytest.approx(near.P_m[0], rel=1e-12)
        assert wide.Gamma_star[0] == pytest.approx(near.Gamma_star[0],
                                                   rel=1e-9)

    def test_coherences_match_high_precision_solve(self):
        # In the resonant alignments a coherent rate can lock two
        # populations together; their difference, and so the coherence,
        # is then read off the net flows.  Taken directly it lost up to
        # 2 % there, in about one device in six of this sample (drawn
        # uniformly: hypothesis rarely reaches the middle of the ranges).
        rng = np.random.default_rng(20261018)
        checked = 0
        while checked < 30:
            p = apply_band_alignment(ModelParams(
                gamma_c=10.0 ** rng.uniform(0.0, np.log10(500.0)),
                gamma_v=10.0 ** rng.uniform(-4.0, np.log10(20.0)),
                gamma_13=(g_ph := rng.choice((0.0, 0.001, 0.1))),
                gamma_24=g_ph, kTs=rng.uniform(25.9, 500.0)),
                rng.choice(("A1", "A2"))).with_distance(rng.uniform(2.0, 10.0))
            batch = max_power_batch(p, kind="qdm")
            if batch.errors != (None,):
                continue  # no interior maximum to test at
            checked += 1
            g = build_generator(p.replace(Gamma=float(batch.Gamma_star[0])),
                                "qdm")
            want = _high_precision_solve(g, 50, lambda mpmath, x: [
                float(mpmath.hypot(x[re], x[im]))
                for re, im in ((IDX_RE13, IDX_IM13), (IDX_RE24, IDX_IM24))])
            for got, w in zip((batch.coh13[0], batch.coh24[0]), want):
                assert got == pytest.approx(w, rel=1e-9, abs=0.0)
