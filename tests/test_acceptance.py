"""Acceptance gate: every built-in verification criterion, one test each.

Each test prints a PASS/FAIL line (run pytest with -s or check the
captured output) and asserts the criterion outcome.  Criterion details
document the achieved values next to the targets.
"""

import time

import numpy as np
import pytest

from qdmcell import (GammaGridScan, ModelParams, NumericalSolveError,
                     acceptance, iv_curve, max_power_point,
                     short_circuit_current)
from qdmcell.acceptance import (GUIMARD_QDM, GUIMARD_SQD, Calibration,
                                calibrate, criterion_1, criterion_2,
                                criterion_3, criterion_4, criterion_5,
                                criterion_6, criterion_7, criterion_8)


@pytest.fixture(scope="module")
def cal() -> Calibration:
    return calibrate()


def _report(result):
    line = (f"criterion {result.number} "
            f"[{'PASS' if result.passed else 'FAIL'}] {result.name}")
    print(line)
    for detail in result.details:
        print("   ", detail)
    assert result.passed, "\n".join([line] + list(result.details))


QUANT = "ok   quantitative targets met"


def test_criterion_1_single_dot_calibration():
    start = time.monotonic()
    result = criterion_1(calibrate())
    assert time.monotonic() - start < 30.0
    _report(result)


def test_no_hbar_gamma_reaches_the_molecule_targets(cal):
    # hbar*gamma -> 0 is the strong-tunneling limit Te/hbar*gamma -> inf.
    # The molecule's jsc and Pm rise monotonically toward it as hbar*gamma
    # falls, but by far less than the gap to their targets, so the
    # calibration fits nothing: it runs at the default, and criterion 2
    # says why.
    def jsc_pm(params, kind):
        curve = iv_curve(params, kind=kind)
        return (short_circuit_current(curve).value,
                max_power_point(curve=curve).P_m)

    falling = (1e-2, 1e-3, ModelParams.hbar_gamma, 1e-4, 1e-8)
    qdm = np.array([jsc_pm(GUIMARD_QDM.replace(hbar_gamma=hg), "qdm")
                    for hg in falling])
    assert (np.diff(qdm, axis=0) > 0.0).all()
    assert tuple(qdm[2]) == (cal.qdm_jsc, cal.qdm_Pm)
    spread = float(((qdm[-1] - qdm[0]) / qdm[0]).max())
    # The figure criterion 2 prints, for the same range of hbar*gamma.
    assert 2e-4 < spread < 3e-4
    assert ("no hbar_gamma reaches the targets: jsc and Pm change by less "
            "than 3e-4 relative over hbar_gamma from 1e-8 to 1e-2 meV"
            ) in criterion_2(cal).details
    # Even in the limit both lie below their targets' +-10% bands.
    assert qdm[-1][0] < 0.9 * 0.0300 and qdm[-1][1] < 0.9 * 22.28
    # The single dot has no coherent term.
    assert {jsc_pm(GUIMARD_SQD.replace(hbar_gamma=hg), "sqd")
            for hg in falling} == {(cal.sqd_jsc, cal.sqd_Pm)}


def test_criterion_2_molecule_calibration(cal):
    result = criterion_2(cal)
    _report(result)
    # The verdict line says when only the qualitative ordering passed.
    assert result.name.endswith(" (qualitative fallback)") \
        == (QUANT not in result.details)


def test_criterion_3_relative_gains():
    _report(criterion_3())


EDGE = "d=2: the maximum is on the grid's edge ("


def test_criterion_4_grid_scan_ceiling():
    result = criterion_4()
    _report(result)
    # The paper's grid peaks in its corner: a note, not a verdict.
    assert [ln for ln in result.details if ln.startswith(EDGE)] == [
        EDGE + "gv = 20 is the highest of 40, gc = 500 is the highest of "
        "40): a larger gain may lie outside the grid"]


@pytest.mark.parametrize("peak, note", [
    ((1, 1), None), ((0, 1), "gv = 0.1 is the lowest of 3"),
    ((1, 2), "gc = 100 is the highest of 3"),
    ((2, 0), "gv = 10 is the highest of 3, gc = 1 is the lowest of 3")],
    ids=["interior", "gv-edge", "gc-edge", "corner"])
def test_criterion_4_notes_a_maximum_on_the_grid_edge(monkeypatch, peak,
                                                      note):
    dj = np.full((3, 3), 0.01)
    dj[peak] = 0.3
    scan = GammaGridScan(np.array([1.0, 10.0, 100.0]),
                         np.array([0.1, 1.0, 10.0]), dj, ())
    monkeypatch.setattr(acceptance, "gamma_grid_scan", lambda p: scan)
    notes = [ln for ln in criterion_4().details if ln.startswith(EDGE)]
    assert notes == ([] if note is None else [
        f"{EDGE}{note}): a larger gain may lie outside the grid"])


def test_criterion_4_raises_when_every_cell_fails(monkeypatch):
    # A typed error, which verify reports as this criterion's failure,
    # and not numpy's ValueError for an all-NaN argmax.
    failed = GammaGridScan(np.ones(2), np.ones(2), np.full((2, 2), np.nan),
                           tuple((iv, ic, "NumericalSolveError: residual")
                                 for iv in range(2) for ic in range(2)))
    monkeypatch.setattr(acceptance, "gamma_grid_scan", lambda p: failed)
    with pytest.raises(NumericalSolveError,
                       match="every cell of the d=2 scan failed, the first "
                             "with NumericalSolveError: residual"):
        criterion_4()


def test_criterion_5_asymptotic_oracle():
    _report(criterion_5())


def test_criterion_6_carnot_and_alignment_bounds():
    # eta charges each absorbed photon at its own gap (E12*J1 + E34*J2).
    # The A2 ordering depends on it: dot 2 carries half of A2's current,
    # so charging those photons at E12 would understate A2 the most.
    # The details list reports the achieved ordering.
    _report(criterion_6())


def test_criterion_7_phonon_assisted_gains():
    result = criterion_7()
    _report(result)
    # The published gains hold at the assisted rate 0.01; the signature
    # at 0.001 stays checked.
    assert result.name == "phonon-assisted tunneling gains"
    assert QUANT in result.details
    for check in (
            "assisted tunneling helps at both d",
            "gain larger at weak tunneling (d=10)",
            "gamma_ph = 0.001, rate set (50, 5), d=2: power unchanged "
            "within 1% (",
            "gamma_ph = 0.01, rate set (100, 0.05), d=2: gain ",
            "gamma_ph = 0.01, rate set (100, 0.05), d=10: gain ",
            "gamma_ph = 0.01, rate set (50, 5), d=2: power unchanged "
            "within 1% ("):
        assert sum(ln.startswith("ok   " + check)
                   for ln in result.details) == 1, check


def test_criterion_8_property_suite():
    result = criterion_8()
    _report(result)
    # The gate checks the chain form, which gives every published number,
    # and not only the two oracles against each other.
    assert sum(ln.startswith(
        "ok   chain form matches the direct solve on the same 100 parameter "
        "sets (worst componentwise diff ") for ln in result.details) == 1


@pytest.mark.parametrize("seed", [63, 287])
def test_criterion_8_passes_where_an_unrefined_solve_misses(seed):
    # These seeds draw devices where the direct solve, without its
    # refinement against the trace-exact system, is 1.09e-12 and
    # 1.06e-12 off the chain form: over the 1e-12 bound.
    _report(criterion_8(seed=seed))
