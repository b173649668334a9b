"""Golden CLI outputs: stdout must match the recorded files byte for byte.

Each ``tests/golden/<name>.json`` is the stdout of

    PYTHONPATH=src python -m nilwitness.cli <argv>

with the argv listed for it in ``CASES`` (``verify_K8`` and ``verify_K10``
read the recorded ``construct_K8.json`` and ``construct_K10.json``,
``coinv_Zp3_K8_in`` classifies the series in
``series_K8.json`` and ``coinv_Q_K12_in`` the rational series in
``series_K12.json``), run from the repository root. The files were recorded
before the word, series and lamplighter layers were rebuilt on one
expression walk (``construct_K10`` before the free Lie layer moved to Magnus
rows), and pin those outputs across refactors. ``report_w8`` was re-recorded
and ``coinv_Zp3_K8_in`` recorded when the coinvariant classes moved to the
closed form through the involution, which changed the ``witness_classes``
section of ``report`` and the shape of ``theta_classes``. ``phi_Q_K24``
(shifts by large and negative powers of b) and ``coinv_Q_K12_in`` were
recorded before (1 + x)^r and the involution moved to their binomial closed
forms, and pin those two maps. ``verify_K10`` was recorded before
witness words moved from truncation K + 1 to K, the change that touched
the certificate most. ``coinv_Q_K16`` and ``coinv_Zp3_K24`` were recorded
before exact elimination and the wedge moved to nonzero entries, and pin
ranks past K = 12. ``coinv_Q_K24`` (the CLI's weight limit) and
``coinv_Zp5_K20`` were recorded before the relation rows of the shift moved
to their closed form. When a change is meant to alter an output,
re-run the command by hand, write its stdout over the file and say so in
the change.
"""

import io
import sys
from pathlib import Path

import pytest

from nilwitness import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
PHI_WORD = "[a,_3 b] [a,b,a]^-2 b"
PHI_SHIFTS = "[a,b^-3] [[a,b^1346],b^-52]^-2 [a,b^286092] b^-5"

CASES = {
    "phi_Z": ["phi", "--word", PHI_WORD, "--weight", "8", "--ring", "Z"],
    "phi_Q": ["phi", "--word", PHI_WORD, "--weight", "8", "--ring", "Q"],
    "phi_Zp5": ["phi", "--word", PHI_WORD, "--weight", "8", "--ring", "Zp:5"],
    "phi_Q_K24": ["phi", "--word", PHI_SHIFTS, "--weight", "24", "--ring", "Q"],
    "construct_K8": ["construct", "--q", "1,0,1,1,0,1", "-K", "8"],
    "construct_K10": ["construct", "--q", "1,0,1,1,0,1", "-K", "10"],
    "verify_K8": ["verify", "--in", str(GOLDEN / "construct_K8.json")],
    "verify_K10": ["verify", "--in", str(GOLDEN / "construct_K10.json")],
    "coinv_Q_K8": ["coinv", "--ring", "Q", "--weight", "8"],
    "coinv_Zp3_K8": ["coinv", "--ring", "Zp:3", "--weight", "8"],
    "coinv_Q_K16": ["coinv", "--ring", "Q", "--weight", "16"],
    "coinv_Zp3_K24": ["coinv", "--ring", "Zp:3", "--weight", "24"],
    "coinv_Q_K24": ["coinv", "--ring", "Q", "--weight", "24"],
    "coinv_Zp5_K20": ["coinv", "--ring", "Zp:5", "--weight", "20"],
    "coinv_Zp3_K8_in": [
        "coinv", "--ring", "Zp:3", "--weight", "8", "--in", str(GOLDEN / "series_K8.json")
    ],
    "coinv_Q_K12_in": [
        "coinv", "--ring", "Q", "--weight", "12", "--in", str(GOLDEN / "series_K12.json")
    ],
    "identities_n2": ["identities", "--max-n", "2"],
    "involution_t5": ["involution", "--trials", "5"],
    "report_w8": ["report", "--weight", "8", "--seed", "0"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(CASES[name])
    finally:
        sys.stdout = old
    assert code == cli.EXIT_OK
    assert buf.getvalue().encode() == (GOLDEN / f"{name}.json").read_bytes()
