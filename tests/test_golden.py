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
to their closed form. ``involution`` (``involution_t5`` before, with
``--trials 5``) lost its ``config`` entry, and the probe q of ``report_w8``
changed from 0,0,0 to 1,1,0, when the sampled checks of both commands became
finite certificates and the seed stopped feeding them. ``report_w8`` was
re-recorded, without ``--seed 0``, when ``report`` lost its seed: its
``witness`` section now holds the reports of all eight probes q in {0,1}^3
at K = 8, where it held one drawn probe at K = 7, and ``config`` no longer
names a seed. ``phi_powers_Z``, ``phi_powers_Q`` and ``phi_powers_Zp5``
(positive and negative powers of elements with a nonzero shift) were
recorded before such powers moved from square-and-multiply to their
binomial closed form. When a change is meant
to alter an output, re-run the command by hand, write its stdout over the
file and say so in the change.
"""

import hashlib
import io
import sys
from pathlib import Path

import pytest

from nilwitness import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
PHI_WORD = "[a,_3 b] [a,b,a]^-2 b"
PHI_SHIFTS = "[a,b^-3] [[a,b^1346],b^-52]^-2 [a,b^286092] b^-5"
PHI_POWERS = "(a b)^7 (a b a)^-5 (A b^3)^12 (b a^2)^-9 [a,b]^4 (a B)^-1"

CASES = {
    "phi_Z": ["phi", "--word", PHI_WORD, "--weight", "8", "--ring", "Z"],
    "phi_Q": ["phi", "--word", PHI_WORD, "--weight", "8", "--ring", "Q"],
    "phi_Zp5": ["phi", "--word", PHI_WORD, "--weight", "8", "--ring", "Zp:5"],
    "phi_Q_K24": ["phi", "--word", PHI_SHIFTS, "--weight", "24", "--ring", "Q"],
    "phi_powers_Z": ["phi", "--word", PHI_POWERS, "--weight", "12", "--ring", "Z"],
    "phi_powers_Q": ["phi", "--word", PHI_POWERS, "--weight", "12", "--ring", "Q"],
    "phi_powers_Zp5": ["phi", "--word", PHI_POWERS, "--weight", "12", "--ring", "Zp:5"],
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
    "involution": ["involution"],
    "report_w8": ["report", "--weight", "8"],
}



def _stdout(argv) -> bytes:
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    assert code == cli.EXIT_OK
    return buf.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert _stdout(CASES[name]) == (GOLDEN / f"{name}.json").read_bytes()


# sha256 of the stdout of ``construct --q 1,0,1,1,0,1 -K <K>`` and of
# ``verify`` on that output, recorded before word expressions were
# identified by their text alone
DIGESTS = {
    3: (
        "2e9bf50e842339297c90b0c85e7f14fbd27688f48ef61c6a40d0dc5eb8f984d3",
        "b0415f9afea4de541a04a4eae98528b17d0cc96e3688eac909644c0063669dec",
    ),
    4: (
        "ae4beff4a801e3928e43a1d921917296169591f918c429f1946b87bd3a169d6f",
        "5cfd89d57c235f9a2386a5d47ddab0ec9aaac5ff261ee32e52eddb54f7ad62e9",
    ),
    5: (
        "2df7603e14b48aea9a6b5855acdbc9a4f56726ac7700d2fd3178d4d4dbf5c26d",
        "9ae9991375b973965b49188f470df1a2bdf1d9a316dacfb4b3c3058a0699f40c",
    ),
    6: (
        "553a4b24eb4480996523a0add62bd3ccb88fd1f2501c3a5ebca5f92b6727e321",
        "f4a3f87da7a1f16fc0db52cdbe8d8d3e3c073e373118d6847ba3a80505d04996",
    ),
    7: (
        "15b8ee4aae6cb0dadb919bf353bd572b19602bafae7ba15c10e29a9b152084c6",
        "2996013499409109439d7e7f07fc7d63057ae6b0c7d83ca711db15ce5551b4aa",
    ),
    8: (
        "eb8be820b00787f29d918bfd03630c176db940ff642cc69d64e10599e7159e92",
        "5066212be09f2c1a7ca4f0416e2ced2b15561acdb1bfab4f709abe3284a3d32e",
    ),
    9: (
        "1472e6b70a39f857ab99f5a269c0995b5fff16843e806222f88def5029e73afa",
        "84922973013e659739ade96972169cbd8a835654fa23fd36f59e9c2c4bc398d3",
    ),
    10: (
        "808f987af40c569df2be15940256583603ef0cb0c78a719b96d92608039a645e",
        "062d53131afe228bbd47e2689b2865e7533eb9fd7f5be942cd8b8d20391dd09f",
    ),
    11: (
        "13fa34621d005256f053628770835e476af4243727c88cf964b43a6744f4d22b",
        "17ca91bc6a935374f6e4d2c8242f127a81d2756b5ce3ffd79497158ebf3d7091",
    ),
    12: (
        "0ca88b5bd6014098817d92d0cf16f8f4b4ece50982634a9b9044bb6690b224c8",
        "80805c76d4a7c8ba77127acb3029933518432e771076a26e58574f45e80a95f4",
    ),
}


@pytest.mark.parametrize("K", sorted(DIGESTS))
def test_construct_and_verify_match_their_digests(K, tmp_path):
    built = _stdout(["construct", "--q", "1,0,1,1,0,1", "-K", str(K)])
    path = tmp_path / "witness.json"
    path.write_bytes(built)
    checked = _stdout(["verify", "--in", str(path)])
    got = tuple(hashlib.sha256(out).hexdigest() for out in (built, checked))
    assert got == DIGESTS[K]
