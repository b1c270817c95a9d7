"""Load sweeps, maximum-power search, and parameter scans."""

import math
import tracemalloc
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qdmcell import (BAND_ALIGNMENTS, BoundaryMaximumError,
                     DegenerateSteadyStateError,
                     DomainError, GridSpec, InvalidGeometryError, ModelParams,
                     UndefinedEfficiencyError, VoltageUndefinedError,
                     absorption_fluxes,
                     apply_band_alignment, build_generator,
                     current_ratio_bound,
                     efficiency_vs_distance, gamma_grid_scan, iv_curve,
                     max_power_point, open_circuit_voltage,
                     phonon_assisted_comparison, photovoltaic_point,
                     relative_current_gain, short_circuit_current,
                     solve_steady, tunneling_from_distance)
from qdmcell.model import (IDX_IM13, IDX_IM24, IDX_P11, IDX_P22, IDX_P33,
                           IDX_P44, IDX_P55, IDX_P66, IDX_RE13, IDX_RE24,
                           N_STATE, POPULATION_INDICES, GeneratorStack,
                           _bose, _place_levels)
from qdmcell.observables import _POPULATION_GUARD
from qdmcell.sweeps import (ChainForm, MaxPowerPoint, _device_chain, _gth,
                            _max_power, _short_circuit_load,
                            max_power_batch)

def _gauss(A: list) -> list:
    """Solution of the augmented system ``A`` (rows of mpmath numbers, the
    right-hand side last) by Gaussian elimination with partial pivoting,
    at the working precision; zero entries are skipped."""
    n = len(A)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(A[i][k]))
        A[k], A[p] = A[p], A[k]
        for row in A[k + 1:]:
            if row[k]:
                f = row[k] / A[k][k]
                for j in range(k + 1, n + 1):
                    row[j] -= f * A[k][j]
    x = [0] * n
    for k in reversed(range(n)):
        x[k] = (A[k][n] - mpmath.fsum(A[k][j] * x[j]
                                      for j in range(k + 1, n))) / A[k][k]
    return x


def _high_precision_solve(g, digits: int, read, load=0):
    """``read(mpmath, x)`` at ``digits`` digits, with x the stationary
    state of the one-device stack ``g`` (indexed by state component)
    solved at that precision, the |6> row traded for the normalization.
    ``load``, an mpmath number, is added exactly to g's load rate
    |5> -> |6>.  Each population diagonal is rebuilt in mpmath as minus
    the other population entries of its column, so the reference conserves
    the trace exactly, as the chain form does, and not only to the
    rounding of the diagonal as built.
    """
    active = list(g.active)
    pops = [c for c, i in enumerate(active) if i in POPULATION_INDICES]
    r5, r6 = active.index(IDX_P55), active.index(IDX_P66)
    with mpmath.workdps(digits):
        B = [[mpmath.mpf(v) for v in row]
             for row in g.matrix[..., 0][np.ix_(active, active)].tolist()]
        B[r6][r5] += load
        for c in pops:
            B[c][c] = -mpmath.fsum(B[r][c] for r in pops if r != c)
        B[r6] = [int(c in pops) for c in range(len(active))]
        for c, row in enumerate(B):
            row.append(int(c == r6))
        sol = _gauss(B)
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

    @pytest.mark.parametrize("n", [60.5, 60.0, "60"])
    def test_point_count_must_be_an_integer(self, n):
        with pytest.raises(DomainError, match="integer"):
            GridSpec(n=n)
        assert len(GridSpec(n=np.int64(60)).values()) == 60


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
        g = build_generator(p, kind, Gamma=gamma)

        def voltage(mpmath, x):
            assert x[IDX_P55] > 0
            return float(float(g.e5_minus_e6[0])
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
        for other in (dict(params=ModelParams()), dict(kind="qdm"),
                      dict(kind="sqd"), dict(grid=GridSpec(n=50))):
            with pytest.raises(DomainError, match="takes no other argument"):
                max_power_point(curve=curve, **other)

    @pytest.mark.parametrize("alignment", ["0", "A2", "B1"])
    def test_molecule_eta_charges_each_channel_at_its_gap(self, alignment):
        p = apply_band_alignment(ModelParams(), alignment)
        mpp = max_power_point(p, kind="qdm")
        g = build_generator(p, "qdm", Gamma=mpp.Gamma_star)
        j1, j2 = absorption_fluxes(solve_steady(g), g.matrix)
        supplied = (g.E12 * j1 + g.E34 * j2)[0]
        assert mpp.eta == pytest.approx(mpp.P_m / supplied, rel=1e-10)
        # Dot 2 absorbs below E12, so charging it at E12 understates eta.
        assert mpp.eta > mpp.V_mpp / p.E12

    def test_non_positive_supplied_power_raises(self, monkeypatch):
        monkeypatch.setattr("qdmcell.sweeps.absorption_fluxes",
                            lambda state, generator: (0.0, 0.0))
        with pytest.raises(UndefinedEfficiencyError):
            max_power_point(ModelParams(), kind="qdm")

    def test_undamped_resonant_coherence_is_degenerate(self):
        # No pump and no conduction escape leave rho13 undamped, and
        # delta_e = 0 makes it resonant: D = Delta = 0.
        undamped = ModelParams(gamma1=0.0, gamma2=0.0, gamma_c=0.0,
                               delta_e=0.0)
        message = "undamped resonant coherence: multiple steady states"
        with pytest.raises(DegenerateSteadyStateError) as exc:
            max_power_point(undamped)
        assert str(exc.value) == message
        # In a batch it is recorded for that device alone, either way round.
        for devices in ([ModelParams(), undamped], [undamped, ModelParams()]):
            batch = max_power_batch(ModelParams(), **_batch_fields(devices))
            bad = devices.index(undamped)
            assert type(batch.errors[bad]) is DegenerateSteadyStateError
            assert str(batch.errors[bad]) == message
            assert batch.errors[1 - bad] is None
            assert np.isnan(batch.P_m[bad])
            assert batch.P_m[1 - bad] == max_power_point(ModelParams()).P_m


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
        assert chain.x_a[IDX_P55, 0] == 1.0

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

    def test_empty_curve_raises(self):
        # A dark cell's contact is empty at every load: all 200 points drop.
        curve = iv_curve(ModelParams(kTs=1e-2))
        assert curve.n_dropped == 200 and len(curve.column("V")) == 0
        with pytest.raises(VoltageUndefinedError) as exc:
            short_circuit_current(curve)
        assert str(exc.value) == "empty curve: no short-circuit estimate"


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
        p, load = ModelParams(Te=0.0, Th=0.0, gamma2=0.0), 1.0
        # Solved on the block of |1>: |4> and the coherences decouple.
        x = solve_steady(replace(
            build_generator(p, "qdm", Gamma=load),
            active=(IDX_P11, IDX_P22, IDX_P33, IDX_P55, IDX_P66)))[:, 0]
        assert abs(load * x[IDX_P55]) <= 1e-12
        # Sweeps refuse the degenerate build outright rather than
        # reporting a meaningless gain.
        with pytest.raises(DegenerateSteadyStateError):
            max_power_point(p, kind="qdm")


class TestGammaGridScan:
    def test_published_scan_structure(self):
        scan = gamma_grid_scan(ModelParams().with_distance(2.0))
        assert scan.delta_j.shape == (40, 40)
        assert scan.gamma_c_values[[0, -1]] == pytest.approx([1.0, 500.0])
        assert scan.gamma_v_values[[0, -1]] == pytest.approx([1e-4, 20.0])
        assert not scan.failures
        assert np.isfinite(scan.delta_j).all()
        # Fast valence relaxation and much faster conduction escape is
        # where the molecule pays off most.
        assert scan.delta_j[-1, -1] == scan.delta_j.max()
        assert 0.10 <= scan.delta_j.max() <= 0.33

    def test_gain_band_contains_ten_to_twenty_percent(self):
        scan = gamma_grid_scan(ModelParams().with_distance(2.0))
        band = scan.delta_j[(scan.delta_j >= 0.10) & (scan.delta_j <= 0.20)]
        assert band.size > 0

    def test_strong_tunneling_gains_at_least_weak(self):
        a = gamma_grid_scan(ModelParams().with_distance(2.0))
        b = gamma_grid_scan(ModelParams().with_distance(10.0))
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
        scan = gamma_grid_scan(cut)
        assert [(iv, ic) for iv, ic, _ in scan.failures] == [
            (iv, ic) for iv in range(40) for ic in range(40)]
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
        x = solve_steady(build_generator(dark, "qdm", Gamma=1.0))[:, 0]
        assert x[IDX_P55] <= 1e-300


class TestIdenticalDots:
    def test_current_gain_stays_below_the_ceiling(self):
        # Identical dots (delta_e = delta_h = 0, gamma1 = gamma2, no
        # assisted tunneling): the molecule's j_mpp over the single dot's
        # stays below (4nv+2)/(3nv+2), its strong-tunneling limit, across
        # this domain.  The closest device comes within 2.6e-5 of it.
        rng = np.random.default_rng(5)
        n = 10_000

        def log_uniform(lo, hi):
            return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)

        gamma, delta_v = log_uniform(0.22, 3.3), rng.uniform(2.0, 16.4, n)
        te, th = np.array([tunneling_from_distance(d)
                           for d in rng.uniform(0.5, 25.0, n)]).T
        cells = dict(kTs=log_uniform(46.0, 1099.0), gamma1=gamma,
                     gamma2=gamma, delta_v=delta_v, Te=te, Th=th,
                     gamma_c=log_uniform(1e-2, 1e5),
                     gamma_v=log_uniform(1e-5, 1e3))
        base = ModelParams(delta_e=0.0, delta_h=0.0)
        qdm = max_power_batch(base, kind="qdm", **cells)
        sqd = max_power_batch(base, kind="sqd", **cells)
        ok = np.isfinite(qdm.j_mpp) & np.isfinite(sqd.j_mpp)
        assert ok.mean() >= 0.99
        bound = np.array([current_ratio_bound(_bose(dv, base.kTc))
                          for dv in delta_v])
        ratio = qdm.j_mpp[ok] / sqd.j_mpp[ok]
        assert (ratio <= bound[ok] * (1.0 + 1e-12)).all()


class TestEfficiencyVsDistance:
    def test_alignment_sweep_rows(self):
        rows = efficiency_vs_distance(ModelParams())
        assert [(r.alignment, r.d) for r in rows] == [
            (a, float(d)) for a in BAND_ALIGNMENTS for d in range(2, 11)]
        assert all(0.0 < r.eta < 0.9482 for r in rows)
        for d in (2.0, 10.0):
            best = max((r for r in rows if r.d == d), key=lambda r: r.P_m)
            assert best.alignment == "A2"

    def test_a2_valence_coherence_strongly_suppressed(self):
        by_tag = {r.alignment: r for r in efficiency_vs_distance(ModelParams())
                  if r.d == 2.0}
        assert by_tag["A2"].coh24 < 1e-3
        assert by_tag["A2"].coh24 < by_tag["0"].coh24 / 1000.0


class TestScanErrors:
    def test_input_errors_raise_once(self):
        # A geometry shared by every cell is one input error, not a failed
        # cell each.
        with pytest.raises(InvalidGeometryError):
            gamma_grid_scan(ModelParams(delta_c=-1.0))
        with pytest.raises(DomainError):
            max_power_batch(ModelParams(), kind="qdm",
                            gamma_c=[100.0, -1.0, np.nan])

    def test_load_is_not_a_batch_field(self):
        # The chain form adds the load itself, so the zero-load stack it
        # reads must not take one.
        with pytest.raises(DomainError, match=r"cannot vary \['Gamma'\]"):
            max_power_batch(ModelParams(), Gamma=[1.0])
        with pytest.raises(DomainError,
                           match=r"cannot vary \['Gamma', 'gamma'\]"):
            max_power_batch(ModelParams(), gamma_c=[1.0], Gamma=[1.0],
                            gamma=[1.0])

    def test_empty_batches_raise_domain_error(self):
        with pytest.raises(DomainError, match="nonempty"):
            max_power_batch(ModelParams(), gamma_c=[])

    def test_scans_raise_first_typed_error(self):
        # Every maximum lies above a load range that ends at 1e-3.
        narrow = GridSpec(gamma_max=1e-3)
        with pytest.raises(BoundaryMaximumError):
            efficiency_vs_distance(ModelParams(), grid=narrow)
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
        gains = {r.d: r.delta_Pm for r in phonon_assisted_comparison(
            ModelParams()) if (r.gamma_c, r.gamma_ph) == (100.0, 0.001)}
        assert gains[2.0] > 0.0
        assert gains[10.0] > gains[2.0]

    def test_fast_relaxation_set_unaffected_at_strong_tunneling(self):
        rows = phonon_assisted_comparison(ModelParams())
        (gain,) = [r.delta_Pm for r in rows
                   if (r.gamma_c, r.d, r.gamma_ph) == (50.0, 2.0, 0.001)]
        assert abs(gain) < 0.01


def _batch_fields(devices) -> dict:
    """Every field of each device, as batch arrays."""
    return {f.name: np.array([getattr(p, f.name) for p in devices])
            for f in fields(ModelParams)}


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


def _wide_device(g1, g2, gc, gv, g_ph, hg, kTs, d, alignment) -> ModelParams:
    return apply_band_alignment(ModelParams(
        gamma1=g1, gamma2=g2, gamma_c=gc, gamma_v=gv, gamma_13=g_ph,
        gamma_24=g_ph, hbar_gamma=hg, kTs=kTs), alignment).with_distance(d)


# The domain of the high-precision reference tests, far wider than the
# scans': log10 ranges of the rates, hbar*gamma and kTs, the assisted
# rates and the barrier width in nm.
_WIDE_LOG10 = dict(g1=(-1.0, 1.0), g2=(-1.0, 1.0), gc=(-2.0, 3.0),
                   gv=(-4.0, 2.0), hg=(-5.0, -2.0),
                   kTs=(np.log10(25.9), np.log10(6000.0)))
_WIDE_G_PH = (0.0, 1e-4, 0.01, 1.0)
_WIDE_D = (0.5, 25.0)
_wide_devices = st.builds(
    _wide_device,
    **{name: st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0 ** e)
       for name, (lo, hi) in _WIDE_LOG10.items()},
    g_ph=st.sampled_from(_WIDE_G_PH),
    d=st.floats(min_value=_WIDE_D[0], max_value=_WIDE_D[1]),
    alignment=st.sampled_from(BAND_ALIGNMENTS))


class TestLoadSweepProperties:
    @settings(max_examples=100, deadline=None)
    @given(p=_devices, kind=_kinds,
           log_gamma=st.floats(min_value=-6.0, max_value=6.0))
    def test_closed_form_matches_direct_solve(self, p, kind, log_gamma):
        gamma = 10.0 ** log_gamma
        direct = solve_steady(build_generator(p, kind, Gamma=gamma))[:, 0]
        closed = _device_chain(p, kind).states(gamma)[:, 0]
        assert np.abs(closed - direct).max() <= 1e-10

    @settings(max_examples=50, deadline=None)
    @given(p=_devices, kind=_kinds)
    def test_open_circuit_voltage_is_zero_load_state(self, p, kind):
        want = photovoltaic_point(
            solve_steady(build_generator(p, kind))[:, 0], 0.0,
            _place_levels(p.__dict__, kind), p.kTc).V
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
        state = curve.chain.states(gamma)[:, 0]
        # The voltage from the normalized populations, not from the
        # a6 + Gamma b6 form the crossing was solved with.
        e56 = _place_levels(curve.params.__dict__, kind).e5_minus_e6
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
        assert mpp.j_mpp > 0.0 and mpp.V_mpp > 0.0 and mpp.P_m > 0.0
        assert voc.value >= mpp.V_mpp
        assert mpp.j_mpp <= jsc.value
        assert 0.0 <= mpp.eta < 1.0 - p.kTc / p.kTs


def _twin(chain: ChainForm) -> ChainForm:
    """A one-device chain form held twice, which ``_max_power`` searches
    on its array branch."""
    s = chain.stack
    stack = GeneratorStack(np.repeat(s.matrix, 2, axis=-1), s.active, *(
        np.repeat(v, 2) for v in (s.e5_minus_e6, s.E12, s.E34, s.kTc)))
    return ChainForm(stack, *(np.repeat(v, 2, axis=-1) for v in (
        chain.x_a, chain.x_b, chain.s_a, chain.s_b)))


class TestSingleDeviceFastPaths:
    """A curve reads its columns from ``ChainForm.states``, and the lone
    device's float Newton iteration computes less than the array one, to
    the same bits."""

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
        keep = ((X[IDX_P55] > _POPULATION_GUARD)
                & (X[IDX_P66] > _POPULATION_GUARD))
        X, gammas = X[:, keep], gammas[keep]
        j = gammas * X[IDX_P55]
        V = curve.chain.voltage(gammas)
        want = {"Gamma": gammas, "j": j, "V": V, "P": j * V,
                "coh13": np.hypot(X[IDX_RE13], X[IDX_IM13]),
                "coh24": np.hypot(X[IDX_RE24], X[IDX_IM24])}
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
        batch = _max_power(_twin(curve.chain), curve.grid, [None, None])
        assert batch.errors == (None, None)
        for name in MaxPowerPoint._fields[:-1]:  # all but ``errors``
            got = np.array([getattr(mpp, name)] * 2)
            assert got.tobytes() == getattr(batch, name).tobytes(), name


def _routes(p: ModelParams, kind: str, grid: GridSpec) -> tuple:
    """The lone device's two routes to its maximum."""
    return (lambda: max_power_point(p, kind=kind, grid=grid),
            lambda: max_power_point(curve=iv_curve(p, kind=kind, grid=grid)))


# Devices whose search bracket fails, with their load grids.
_EDGE_DEVICES = {
    "grid-ends-at-1e-3": (ModelParams(), "qdm", GridSpec(gamma_max=1e-3)),
    "grid-starts-at-1e3": (ModelParams(), "qdm", GridSpec(gamma_min=1e3)),
    "dark-cell": (ModelParams(kTs=1e-2), "qdm", GridSpec()),
    "cold-single-dot": (ModelParams(kTs=1.5), "sqd", GridSpec()),
    "cut-molecule": (ModelParams(Te=0.0, Th=0.0), "qdm", GridSpec()),
    "gamma_c-0": (ModelParams(gamma_c=0.0), "qdm", GridSpec()),
}


class TestOneMaximumSearch:
    """A lone device's maximum, from its params or from its curve, is its
    row of ``max_power_batch``: one search between the grid's bounds."""

    @settings(max_examples=50, deadline=None)
    @given(p=_devices, kind=_kinds, grid=st.sampled_from((
        GridSpec(n=50), GridSpec(), GridSpec(n=2000),
        GridSpec(n=60, gamma_min=1e-9, gamma_max=1e9))))
    # Devices whose maximum moved in its last bits when the curve's
    # largest sampled power and its neighbours bracketed the search.
    @example(p=_device(6.983, 100.476, 1.642, 0.1, "B2"), kind="qdm",
             grid=GridSpec())
    @example(p=_device(4.838, 26.071, 1.293, 0.0, "B2"), kind="sqd",
             grid=GridSpec())
    def test_lone_maximum_is_its_batch_row(self, p, kind, grid):
        batch = max_power_batch(p, kind=kind, grid=grid)
        assert batch.errors == (None,)
        for route in _routes(p, kind, grid):
            mpp = route()
            assert type(mpp) is type(batch)
            assert mpp.errors == batch.errors
            for name in MaxPowerPoint._fields[:-1]:  # all but ``errors``
                got = np.array([getattr(mpp, name)])
                assert got.tobytes() == getattr(batch, name).tobytes(), name

    @pytest.mark.parametrize("p, kind, grid", _EDGE_DEVICES.values(),
                             ids=_EDGE_DEVICES)
    def test_lone_device_raises_its_batch_error(self, p, kind, grid):
        err = max_power_batch(p, kind=kind, grid=grid).errors[0]
        assert err is not None
        for route in _routes(p, kind, grid):
            with pytest.raises(type(err)) as info:
                route()
            assert type(info.value) is type(err)
            assert str(info.value) == str(err)


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
            g = build_generator(p, kind, Gamma=gamma)
            x = solve_steady(g)[:, 0]
            j1, j2 = absorption_fluxes(x, g.matrix[..., 0])
            e = _place_levels(p.__dict__, kind)
            pt = photovoltaic_point(x, gamma, e, p.kTc)
            want = {"j_mpp": pt.j, "V_mpp": pt.V,
                    "eta": pt.P / (e.E12 * j1 + e.E34 * j2),
                    "coh13": pt.coh13, "coh24": pt.coh24}
            for name, value in want.items():
                assert getattr(batch, name)[k] == pytest.approx(
                    value, rel=1e-9, abs=0.0)
            # The same device alone gives the same bits.
            alone = max_power_batch(p, kind=kind)
            for name in ("Gamma_star", "j_mpp", "V_mpp", "P_m", "eta",
                         "coh13", "coh24"):
                assert getattr(alone, name)[0] == getattr(batch, name)[k]

    @settings(max_examples=40, deadline=None)
    @given(p=_wide_devices, kind=_kinds,
           log_gamma=st.floats(min_value=-6.0, max_value=6.0))
    def test_populations_match_high_precision_solve(self, p, kind, log_gamma):
        gamma = 10.0 ** log_gamma
        g = build_generator(p, kind, Gamma=gamma)
        pops = [i for i in g.active if i in POPULATION_INDICES]
        got = _device_chain(p, kind).states(gamma)[pops, 0]
        want = np.array(_high_precision_solve(
            g, 50, lambda mpmath, x: [float(x[i]) for i in pops]))
        assert (want > 0.0).all()
        assert (np.abs(got - want) <= 1e-14 * want).all()

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

    def test_escape_scan_batch_peak_memory(self):
        # The molecules of ``gamma_grid_scan``'s default 40 x 40 grid, as
        # one batch; the first call sets up what is built only once.
        gc, gv = np.meshgrid(np.logspace(0.0, math.log10(500.0), 40),
                             np.logspace(-4.0, math.log10(20.0), 40))
        p = ModelParams().with_distance(2.0)
        cells = dict(gamma_c=gc.ravel(), gamma_v=gv.ravel())
        max_power_batch(p, kind="qdm", **cells)
        tracemalloc.start()
        try:
            max_power_batch(p, kind="qdm", **cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One elimination for x_a and x_b peaks at 5.5 MiB, one for each
        # at 7.4 MiB.
        assert peak < 6.5 * 2 ** 20


def _high_precision_maximum(p: ModelParams, kind: str, gamma0: float):
    """Device ``p``'s maximum-power point at 40 digits: the root of
    dP/d ln Gamma by ``mpmath.findroot`` on ``mpmath.diff``, from
    ln ``gamma0``, with every state from ``_high_precision_solve`` at the
    working precision.  Maps Gamma_star, P_m, j_mpp, V_mpp and eta to
    (value, cancellation factor of its float formula): V = (E5 - E6) +
    kTc ln(rho55/rho66) cancels where V is small against E5 - E6, which
    Gamma*, j and P inherit through V, and the supplied power
    E12 J1 + E34 J2 cancels where each pump nearly balances."""
    g = build_generator(p, kind)
    e, M = _place_levels(p.__dict__, kind), g.matrix[..., 0]

    def at(ln_gamma):
        gamma = mpmath.exp(ln_gamma)

        def read(mpmath, x):
            entropic = p.kTc * mpmath.log(x[IDX_P55] / x[IDX_P66])
            pumps = [e.E12 * M[IDX_P11, IDX_P22] * x[IDX_P22],
                     -e.E12 * M[IDX_P22, IDX_P11] * x[IDX_P11],
                     e.E34 * M[IDX_P33, IDX_P44] * x.get(IDX_P44, 0),
                     -e.E34 * M[IDX_P44, IDX_P33] * x.get(IDX_P33, 0)]
            return gamma, gamma * x[IDX_P55], entropic, pumps
        return _high_precision_solve(g, mpmath.mp.dps, read, load=gamma)

    def power(ln_gamma):
        _, j, entropic, _ = at(ln_gamma)
        return j * (e.e5_minus_e6 + entropic)

    with mpmath.workdps(40):
        gamma, j, entropic, pumps = at(mpmath.findroot(
            lambda t: mpmath.diff(power, t), mpmath.log(gamma0)))
        V = e.e5_minus_e6 + entropic
        supplied = mpmath.fsum(pumps)
        k_V = (abs(e.e5_minus_e6) + abs(entropic)) / abs(V)
        k_S = mpmath.fsum(abs(t) for t in pumps) / abs(supplied)
        return {name: (float(value), float(cond)) for name, value, cond in (
            ("Gamma_star", gamma, k_V), ("P_m", j * V, k_V),
            ("j_mpp", j, k_V), ("V_mpp", V, k_V),
            ("eta", j * V / supplied, k_V + k_S))}


class TestHighPrecisionMaximum:
    def test_elimination_matches_mpmath_lu_solve(self):
        # A generator is singular; shifted by -1 it is not.
        g = build_generator(ModelParams(gamma_13=0.01, gamma_24=0.01),
                            "qdm", Gamma=1.0)
        A = [[mpmath.mpf(v) for v in row]
             for row in (g.matrix[..., 0] - np.eye(N_STATE)).tolist()]
        b = [mpmath.mpf(k) for k in range(1, N_STATE + 1)]
        with mpmath.workdps(40):
            want = mpmath.lu_solve(mpmath.matrix(A), mpmath.matrix(b))
            got = _gauss([row + [v] for row, v in zip(A, b)])
            assert all(abs(got[i] - want[i]) <= mpmath.mpf(10) ** -36
                       * abs(want[i]) for i in range(N_STATE))

    def test_maxima_match_40_digit_maxima(self):
        # Both routes' maxima of seeded wide devices and of the devices
        # behind criteria 3 and 7, to 1e-14 relative times the
        # cancellation factor of each quantity's formula.  In this sample
        # that factor reaches 189 for V and 248 for eta, where a flat
        # 1e-14 fails V_mpp, P_m and eta (1.1e-14); every error stays
        # below 5e-16 times its factor.  The search starts from the
        # curve's grid argmax, not from Gamma*.
        rng = np.random.default_rng(7)
        wide = [_wide_device(
            **{name: 10.0 ** rng.uniform(lo, hi)
               for name, (lo, hi) in _WIDE_LOG10.items()},
            g_ph=rng.choice(_WIDE_G_PH), d=rng.uniform(*_WIDE_D),
            alignment=rng.choice(BAND_ALIGNMENTS)) for _ in range(20)]
        rate_sets = ((100.0, 0.05), (50.0, 5.0))
        gains = [ModelParams(gamma_c=gc, gamma_v=gv).with_distance(2.0)
                 for gc, gv in rate_sets]
        assisted = [ModelParams(gamma_c=gc, gamma_v=gv, gamma_13=g_ph,
                                gamma_24=g_ph).with_distance(d)
                    for gc, gv in rate_sets for d in (2.0, 10.0)
                    for g_ph in (0.001, 0.01)]
        for kind, devices in (("qdm", wide + gains + assisted),
                              ("sqd", wide + gains)):
            batch = max_power_batch(ModelParams(), kind=kind,
                                    **_batch_fields(devices))
            for k, p in enumerate(devices):
                curve = iv_curve(p, kind=kind)
                alone = max_power_point(curve=curve)
                start = curve.column("Gamma")[curve.column("P").argmax()]
                for name, (want, cond) in _high_precision_maximum(
                        p, kind, start).items():
                    for got in (getattr(alone, name), getattr(batch, name)[k]):
                        assert abs(got - want) <= 1e-14 * cond * abs(want), (
                            name, kind, p)


def _coherences(p: ModelParams, gamma: float) -> tuple:
    """The molecule's coherences rho13 and rho24 at load ``gamma``: from
    the chain form, and from the 60-digit reference."""
    x = _device_chain(p, "qdm").states(gamma)[:, 0]
    got = np.array([complex(x[IDX_RE13], x[IDX_IM13]),
                    complex(x[IDX_RE24], x[IDX_IM24])])
    want = np.array(_high_precision_solve(
        build_generator(p, "qdm", Gamma=gamma), 60,
        lambda mpmath, x: [complex(x[re], x[im]) for re, im in (
            (IDX_RE13, IDX_IM13), (IDX_RE24, IDX_IM24))]))
    return got, want


class TestCoherences:
    """Each coherence is a multiple of rho_a - rho_b, which cancels where
    a coherent rate locks the two populations together.  The chain form
    takes it from a chain with the coherent link cut, where nothing
    cancels."""

    def test_wide_sample_matches_high_precision_solve(self):
        rng = np.random.default_rng(1)
        for _ in range(240):
            p = _wide_device(
                **{name: 10.0 ** rng.uniform(lo, hi)
                   for name, (lo, hi) in _WIDE_LOG10.items()},
                g_ph=rng.choice(_WIDE_G_PH), d=rng.uniform(*_WIDE_D),
                alignment=rng.choice(BAND_ALIGNMENTS))
            got, want = _coherences(p, 10.0 ** rng.uniform(-6.0, 6.0))
            assert (np.abs(got - want) <= 2e-11 * np.abs(want)).all(), p

    # A link that is the only path between two parts of the chain (Te = 0
    # leaves 2-4 as one, Th = 0 leaves 1-3), or a level of the pair
    # without any incoherent exit (gamma1 = 0 leaves |1> so, gamma2 = 0
    # leaves |4>, unless the assisted rates join them).
    @pytest.mark.parametrize("cut, alignment", [
        ("Te", "0"), ("Te", "A2"), ("Th", "0"), ("Th", "A1"),
        ("gamma1", "0"), ("gamma1", "A1"), ("gamma1", "A2"),
        ("gamma2", "0"), ("gamma2", "A1"), ("gamma2", "A2")])
    @pytest.mark.parametrize("g_ph", [0.0, 0.1])
    @pytest.mark.parametrize("kTs", [27.0, 500.0])
    def test_bridges_and_hanging_levels(self, cut, alignment, g_ph, kTs):
        p = apply_band_alignment(
            ModelParams(gamma_13=g_ph, gamma_24=g_ph, kTs=kTs),
            alignment).replace(**{cut: 0.0})
        for gamma in (1e-3, 1.0, 1e3):
            got, want = _coherences(p, gamma)
            # An exact zero (a level with no incoherent link at all) must
            # come out exactly.
            assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all(), gamma


def _one_root_gth(R: np.ndarray) -> tuple:
    """GTH elimination of rate chains ``R[j, i, k]`` (rate i -> j) rooted
    at state 0, written out for one root: weights with state 0 at 1, and
    pivots."""
    R, n = R.copy(), len(R)
    pivots, entries = [], []
    for k in range(n - 1, 0, -1):
        pivot = np.add.reduce(R[:k, k])
        into = R[k, :k] / pivot
        R[:k, :k] += R[:k, k, None] * into
        pivots.append(pivot)
        entries.append(into)
    weights = np.ones(R.shape[1:])
    for k, into in zip(range(1, n), reversed(entries)):
        weights[k] = np.add.reduce(weights[:k] * into)
    return weights, np.array(pivots[::-1])


class TestGth:
    @pytest.mark.parametrize("n", [4, 6])
    def test_two_roots_equal_two_one_root_eliminations(self, n):
        # Chains a and b differ only in state 0's exits; rates span twelve
        # decades and a third of them are 0, so some pivots are 0.
        rng = np.random.default_rng(n)
        m = 400
        a = 10.0 ** rng.uniform(-6.0, 6.0, (n, n, m))
        a[rng.random((n, n, m)) < 0.3] = 0.0
        b = a.copy()
        b[:, 0] = 10.0 ** rng.uniform(-6.0, 6.0, (n, m))
        b[:, 0][rng.random((n, m)) < 0.5] = 0.0
        # A chain whose last state has no exit to the others.
        a[:, n - 1, -1] = b[:, n - 1, -1] = 0.0
        with np.errstate(all="ignore"):
            W, pivots = _gth(np.concatenate([b[:, :1], a], axis=1))
            (w_a, p_a), (w_b, p_b) = _one_root_gth(a), _one_root_gth(b)
        assert W.shape == (n, 2, m) and pivots.shape == (n - 1, m)
        assert pivots.tobytes() == p_a.tobytes() == p_b.tobytes()
        good = (pivots > 0.0).all(axis=0)
        assert 0 < good.sum() < m - 1 and not good[-1]
        assert (W[0, 0] == 1.0).all() and (W[0, 1] == 0.0).all()
        for r, w in enumerate((w_a, w_b)):
            assert W[1:, r, good].tobytes() == w[1:, good].tobytes()
            # Behind a zero pivot both are non-finite.
            assert not np.isfinite(W[:, r, ~good]).all(axis=0).any()
            assert not np.isfinite(w[:, ~good]).all(axis=0).any()
