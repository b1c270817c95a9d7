"""Acceptance gate: every built-in verification criterion, one test each.

Each test prints a PASS/FAIL line (run pytest with -s or check the
captured output) and asserts the criterion outcome.  Criterion details
document the achieved values next to the targets.
"""

import dataclasses
import time

import pytest

from qdmcell.acceptance import (HBAR_GAMMA_CANDIDATES, Calibration,
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


@pytest.mark.parametrize("index, edge", [(0, "lowest"), (-1, "highest"),
                                         (4, None)])
def test_criterion_1_flags_an_optimum_at_the_range_edge(cal, index, edge):
    moved = dataclasses.replace(cal,
                                hbar_gamma=HBAR_GAMMA_CANDIDATES[index])
    notes = [ln for ln in criterion_1(moved).details
             if ln.startswith("hbar_gamma is the ")]
    if edge is None:
        assert notes == []
    else:
        assert notes == [f"hbar_gamma is the {edge} of the 9 candidates "
                         "(0.0001 to 0.01 meV): the best fit may lie "
                         "outside the range"]


def test_criterion_2_molecule_calibration(cal):
    result = criterion_2(cal)
    _report(result)
    # The verdict line says when only the qualitative ordering passed.
    assert result.name.endswith(" (qualitative fallback)") \
        == (QUANT not in result.details)


def test_criterion_3_relative_gains():
    _report(criterion_3())


def test_criterion_4_grid_scan_ceiling():
    _report(criterion_4())


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
    _report(criterion_8())
