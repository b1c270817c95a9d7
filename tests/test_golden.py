"""Golden CLI outputs: every subcommand's output, byte for byte.

The files under ``tests/golden/`` hold the outputs of the runs below; the
40x40 escape-rate scan is kept as its sha256 digest.  A change that
should leave every published number alone must leave these alone too.
Regenerate a file only for a change that moves its numbers on purpose,
and say by how much.
"""

import hashlib
from pathlib import Path

import pytest

from qdmcell.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# Golden file -> the subcommand and overrides that produce it.
RUNS = {
    "calibrate.txt": ["calibrate"],
    "alignments.txt": ["alignments"],
    "max-power.txt": ["max-power"],
    "iv-curve.txt": ["iv-curve", "--set", "grid_n=60"],
    "efficiency-vs-d.txt": ["efficiency-vs-d"],
    "phonon-assisted.txt": ["phonon-assisted"],
    "verify.txt": ["verify"],
}
GAMMA_GRID_SHA256 = (
    "405563bc75721de32cf450fb043ab9ad82386896b4d32f577256e8691c56c3ce")


def _output(tmp_path, argv) -> bytes:
    out = tmp_path / "out"
    assert main([*argv, "-o", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", RUNS)
def test_output_is_golden(tmp_path, capsys, name):
    assert _output(tmp_path, RUNS[name]) == (GOLDEN / name).read_bytes()
    assert capsys.readouterr().err == ""


def test_gamma_grid_digest_is_golden(tmp_path):
    got = _output(tmp_path, ["gamma-grid", "--set", "d=2"])
    assert hashlib.sha256(got).hexdigest() == GAMMA_GRID_SHA256
