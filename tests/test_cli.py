"""CLI contract: deterministic byte-identical reports, exit codes, file I/O."""

import contextlib
import importlib
import io
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from nilwitness import cli, coinv, freelie, lamplighter, magnus, series, witness

ROOT = Path(__file__).resolve().parents[1]


def run_cli(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_identities_pass():
    code, out = run_cli(["identities", "--max-n", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and len(report["results"]) == 2


def test_identities_usage_error():
    code, _ = run_cli(["identities", "--max-n", "0"])
    assert code == cli.EXIT_USAGE


def test_construct_writes_base_case(tmp_path):
    out = tmp_path / "w.json"
    code, _ = run_cli(["construct", "--q", "1", "--weight", "3", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["r_factors"] == ["[a,b,b]"]
    assert data["s_factors"] == ["[a,b,a]^-1"]
    assert data["report"]["p0"] and data["report"]["p1"]


def test_construct_trivial_sequence(tmp_path):
    out = tmp_path / "w.json"
    code, _ = run_cli(["construct", "--q", "0,0", "--weight", "5", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert all(not text for text in data["r_factors"])


def test_verify_roundtrip_and_forced_failure(tmp_path):
    out = tmp_path / "w.json"
    code, _ = run_cli(["construct", "--q", "1,0,1", "--weight", "7", "--out", str(out)])
    assert code == 0
    code, verify_out = run_cli(["verify", "--in", str(out)])
    assert code == 0 and json.loads(verify_out)["ok"]

    data = json.loads(out.read_text())
    tampered_exponent = dict(data, r_factors=["[a,b,b]^2"] + data["r_factors"][1:])
    negative_K = dict(data, K=-1)  # p0 fails on the factor counts
    bad = tmp_path / "bad.json"
    for tampered in (tampered_exponent, negative_K):
        bad.write_text(json.dumps(tampered))
        code, verify_out = run_cli(["verify", "--in", str(bad)])
        assert code == cli.EXIT_CHECK_FAILED
        assert json.loads(verify_out)["ok"] is False


def test_verify_missing_file_is_resource_error(tmp_path):
    code, _ = run_cli(["verify", "--in", str(tmp_path / "nope.json")])
    assert code == cli.EXIT_RESOURCE


def test_phi_engel_anchor():
    code, out = run_cli(["phi", "--word", "[a,_3 b]", "--ring", "Z", "--weight", "6"])
    assert code == 0
    report = json.loads(out)
    assert report["image"] == {"f": ["0", "0", "0", "1", "0", "0"], "e": "0"}
    assert report["weight"] == 4


def test_coinv_report_values():
    code, out = run_cli(["coinv", "--ring", "Q", "--weight", "4"])
    assert code == 0
    report = json.loads(out)
    assert report["lambda2_dim"] == 6
    assert report["rank"] == report["oracle_rank"]


def test_coinv_mod3_oracle_agreement():
    code, out = run_cli(["coinv", "--ring", "Zp:3", "--weight", "8"])
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == report["oracle_rank"]


def test_coinv_rejects_char_two():
    code, _ = run_cli(["coinv", "--ring", "Zp:2", "--weight", "4"])
    assert code == cli.EXIT_USAGE


def test_coinv_classifies_series(tmp_path):
    inp = tmp_path / "series.json"
    inp.write_text(json.dumps({"series": {"f1": ["0", "0", "1", "0"], "zero": ["0", "0", "0", "0"]}}))
    code, out = run_cli(["coinv", "--ring", "Q", "--weight", "4", "--in", str(inp)])
    assert code == 0
    classes = json.loads(out)["theta_classes"]
    assert all(c == "0" for c in classes["zero"])
    assert set(classes) == {"f1", "zero"}


def test_involution_suite():
    code, out = run_cli(["involution"])
    assert code == 0
    assert json.loads(out)["ok"]


def test_reports_byte_identical():
    argv = ["report", "--weight", "6"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_construct_byte_identical(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _ = run_cli(["construct", "--q", "1,1", "--weight", "6", "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_out_file_holds_the_stdout_bytes(tmp_path):
    # main writes every report: with --out, the file gets exactly what stdout
    # gets without it, and stdout gets nothing
    witness_file = tmp_path / "w.json"
    assert run_cli(["construct", "--q", "1", "--weight", "3", "--out", str(witness_file)])[0] == 0
    for argv in (
        ["identities", "--max-n", "1"],
        ["construct", "--q", "1", "--weight", "3"],
        ["verify", "--in", str(witness_file)],
        ["phi", "--word", "[a,b]", "--weight", "4"],
        ["coinv", "--ring", "Q", "--weight", "4"],
        ["involution"],
        ["report", "--weight", "2"],
    ):
        code, printed = run_cli(argv)
        assert code == cli.EXIT_OK and printed.startswith("{"), argv[0]
        out = tmp_path / f"{argv[0]}.json"
        assert run_cli(argv + ["--out", str(out)]) == (cli.EXIT_OK, ""), argv[0]
        assert out.read_bytes() == printed.encode(), argv[0]
        assert json.loads(printed)["command"] == argv[0]


@pytest.mark.parametrize(
    "argv, module, name, fake",
    [
        (["identities", "--max-n", "1"], "freelie", "check_identity", lambda n: False),
        (["coinv", "--ring", "Q", "--weight", "4"], "coinv", "coinvariant_rank_oracle",
         lambda ring, K: -1),
        (["involution"], "coinv", "involution_exactness_report", lambda field: {"ok": False}),
    ],
)
def test_failed_check_exits_one_with_its_report(monkeypatch, argv, module, name, fake):
    monkeypatch.setattr(importlib.import_module(f"nilwitness.{module}"), name, fake)
    code, out = run_cli(argv)
    assert code == cli.EXIT_CHECK_FAILED
    assert json.loads(out)["ok"] is False


def test_unknown_command_is_usage_error():
    code, _ = run_cli(["frobnicate"])
    assert code == cli.EXIT_USAGE


def test_construct_rejects_tiny_weight():
    code, _ = run_cli(["construct", "--q", "1", "--weight", "2"])
    assert code == cli.EXIT_USAGE


def _witness_data(tmp_path):
    out = tmp_path / "w.json"
    code, _ = run_cli(["construct", "--q", "1,0", "--weight", "5", "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def test_verify_missing_key_is_input_error(tmp_path, capsys):
    data = _witness_data(tmp_path)
    del data["n"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _ = run_cli(["verify", "--in", str(bad)])
    assert code == cli.EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "'n'" in err and err.count("\n") == 1


def test_verify_malformed_data_is_input_error(tmp_path):
    data = _witness_data(tmp_path)
    for word in ("[a,,b", "(" * 5000 + "a" + ")" * 5000, 7):
        data["r_factors"][0] = word
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _ = run_cli(["verify", "--in", str(bad)])
        assert code == cli.EXIT_RESOURCE, word
    bad.write_text("[" * 100000)
    code, _ = run_cli(["verify", "--in", str(bad)])
    assert code == cli.EXIT_RESOURCE


# a witness field whose JSON value is not the integer, or the list of
# integers or words, that the field holds: each is bad data, never read as
# something close to it
_WRONG_TYPES = {
    "K-past-float-range": ("K", "1e400"),
    "K-fraction": ("K", "5.7"),
    "K-true": ("K", "true"),
    "q-past-float-range": ("q", "[1e400, 0]"),
    "q-fraction": ("q", "[1.5, 0]"),
    "q-true": ("q", "[true, 0]"),
    "n-past-float-range": ("n", "[0, 1e400, 0]"),
    "r_factors-string": ("r_factors", '"ab"'),
}


@pytest.mark.parametrize("key, raw", _WRONG_TYPES.values(), ids=_WRONG_TYPES)
def test_verify_value_of_the_wrong_type_is_input_error(tmp_path, capsys, key, raw):
    data = _witness_data(tmp_path)
    data[key] = "@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data).replace('"@"', raw))
    code, _ = run_cli(["verify", "--in", str(bad)])
    assert code == cli.EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err.startswith("input error:") and key in err and err.count("\n") == 1


def test_coinv_coefficient_past_float_range_is_input_error(tmp_path, capsys):
    bad = tmp_path / "series.json"
    bad.write_text('{"series": {"f": [1, 1e400]}}')
    code, _ = run_cli(["coinv", "--ring", "Q", "--weight", "4", "--in", str(bad)])
    assert code == cli.EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


def test_coinv_bad_series_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "series.json"
    cases = {
        json.dumps({"series": {"f": ["abc"]}}): "input error:",
        json.dumps({"series": {"f": ["1/0"]}}): "input error:",
        '{"series": {"f": ["1", ': "i/o error:",
    }
    for text, prefix in cases.items():
        bad.write_text(text)
        code, _ = run_cli(["coinv", "--ring", "Q", "--weight", "4", "--in", str(bad)])
        assert code == cli.EXIT_RESOURCE, text
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, text


@pytest.mark.parametrize(
    "text",
    [
        '{"seris": {"f": ["0", "1"]}}',  # a misspelt key is not an empty file
        '{"series": ["0", "1"]}',
        '{"series": null}',
        '[{"f": ["0", "1"]}]',
    ],
)
def test_coinv_file_without_series_object_is_input_error(tmp_path, capsys, text):
    bad = tmp_path / "series.json"
    bad.write_text(text)
    code, out = run_cli(["coinv", "--ring", "Q", "--weight", "4", "--in", str(bad)])
    assert (code, out) == (cli.EXIT_RESOURCE, "")
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


def test_coinv_series_longer_than_weight_is_input_error(tmp_path, capsys):
    # at truncation 4 the x^5 coefficient 7 would be dropped without a word
    infile = tmp_path / "series.json"
    infile.write_text(json.dumps({"series": {"f": ["0", "1", "0", "0", "0", "7"]}}))
    code, out = run_cli(["coinv", "--ring", "Q", "--weight", "4", "--in", str(infile)])
    assert (code, out) == (cli.EXIT_RESOURCE, "")
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "'f'" in err and err.count("\n") == 1
    # K coefficients are read as they are, fewer are padded with zeros
    infile.write_text(json.dumps({"series": {"f": ["0", "1", "0", "0"], "g": ["0", "1"]}}))
    code, out = run_cli(["coinv", "--ring", "Q", "--weight", "4", "--in", str(infile)])
    classes = json.loads(out)["theta_classes"]
    assert code == cli.EXIT_OK and classes["f"] == classes["g"] == ["1", "1/2"]


@pytest.mark.parametrize(
    "series_json",
    [
        '{"f": [0, 0.1, 0, 0]}',  # the binary double, not 1/10
        '{"f": [0, 1.0]}',
        '{"f": [0, true]}',
        '{"f": "0101"}',  # four one-character coefficients
    ],
)
def test_coinv_inexact_coefficient_is_input_error(tmp_path, capsys, series_json):
    bad = tmp_path / "series.json"
    bad.write_text(f'{{"series": {series_json}}}')
    code, out = run_cli(["coinv", "--ring", "Q", "--weight", "4", "--in", str(bad)])
    assert code == cli.EXIT_RESOURCE and out == ""
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


def test_coinv_exponent_notation_is_input_error(tmp_path, capsys):
    # Fraction("1e10000000") builds a ten-million-digit integer from a
    # twenty-byte file, so exponent notation is refused before it is read
    bad = tmp_path / "series.json"
    for coeff in ("1e5", "2E-3", "1e10000000"):
        bad.write_text(json.dumps({"series": {"f": [coeff, "1"]}}))
        code, out = run_cli(["coinv", "--ring", "Zp:3", "--weight", "4", "--in", str(bad)])
        assert (code, out) == (cli.EXIT_RESOURCE, ""), coeff
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1, coeff
    # integers, p/q and plain decimals are still read exactly
    series = {"f": [7, "-3/2", "0.5", "1"], "g": ["7", "-3/2", "1/2", "1"]}
    bad.write_text(json.dumps({"series": series}))
    code, out = run_cli(["coinv", "--ring", "Q", "--weight", "4", "--in", str(bad)])
    classes = json.loads(out)["theta_classes"]
    assert code == cli.EXIT_OK and classes["f"] == classes["g"] == ["-3/2", "3/4"]


# 3840 brackets in one chain, a 400-byte line
WIDE_CHAIN = "[a," + ",".join(["_64 b"] * 60) + "]"
# 30 nested brackets, each iterated 50 times: past the recursion limit
DEEP_NESTING = "a"
for _i in range(30):
    DEEP_NESTING = f"[{DEEP_NESTING},_50 {'ba'[_i % 2]}]"


def test_verify_hostile_nesting_is_input_error(tmp_path, capsys):
    data = _witness_data(tmp_path)
    bad = tmp_path / "bad.json"
    for word in ("[a,_1500 b]", DEEP_NESTING, WIDE_CHAIN):
        data["r_factors"][0] = word
        bad.write_text(json.dumps(data))
        code, _ = run_cli(["verify", "--in", str(bad)])
        assert code == cli.EXIT_RESOURCE, word[:20]
        assert capsys.readouterr().err.startswith("input error:")


def test_verify_deeply_nested_brackets_is_input_error(tmp_path, capsys):
    # the parser recurses once per level of brackets, and each level is an
    # atom it looks up in its memo: past the recursion limit either way
    data = _witness_data(tmp_path)
    bad = tmp_path / "bad.json"
    for word in ("[" * 3000 + "a" + ",b]" * 3000, "[a,b] " * 50 + "[" * 3000 + "a,b" + "]" * 3000):
        data["s_factors"][0] = word
        bad.write_text(json.dumps(data))
        code, out = run_cli(["verify", "--in", str(bad)])
        assert (code, out) == (cli.EXIT_RESOURCE, ""), word[:20]
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err


def _refuse(*args, **kwargs):
    raise AssertionError("work began on an input above the limit")


def test_weight_limits_checked_before_any_work(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(witness, "_workspace", _refuse)
    monkeypatch.setattr(coinv, "_relation_rows", _refuse)
    monkeypatch.setattr(lamplighter, "LampEvaluator", _refuse)
    big = witness.MAX_K + 1

    data = {"q": [1], "K": big, "r_factors": [], "s_factors": [], "n": []}
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(data))
    code, _ = run_cli(["verify", "--in", str(bad)])
    assert code == cli.EXIT_RESOURCE

    code, _ = run_cli(["construct", "--q", "1", "--weight", str(big)])
    assert code == cli.EXIT_USAGE

    weight = str(cli.MAX_SERIES_WEIGHT + 1)
    code, _ = run_cli(["coinv", "--ring", "Zp:3", "--weight", weight])
    assert code == cli.EXIT_USAGE
    code, _ = run_cli(["phi", "--word", "b a", "--weight", weight])
    assert code == cli.EXIT_USAGE

    # the lower bounds, and the ring tags, are argv too
    for weight in ("0", "-1"):
        code, _ = run_cli(["phi", "--word", "b a", "--weight", weight])
        assert code == cli.EXIT_USAGE, weight
    code, _ = run_cli(["construct", "--q", "1", "--weight", "2"])
    assert code == cli.EXIT_USAGE
    capsys.readouterr()
    for argv in (["coinv", "--ring", "Zp:4"], ["phi", "--word", "b a", "--ring", "W"]):
        code, out = run_cli(argv)
        assert (code, out) == (cli.EXIT_USAGE, ""), argv
        assert capsys.readouterr().err.startswith("usage error:"), argv


def test_involution_takes_no_sampling_options(monkeypatch):
    # the certificates draw nothing, so there is nothing to count or seed
    monkeypatch.setattr(coinv, "involution_exactness_report", _refuse)
    for argv in (["involution", "--trials", "5"], ["involution", "--seed", "0"]):
        code, out = run_cli(argv)
        assert (code, out) == (cli.EXIT_USAGE, ""), argv


def test_coinv_weight_bounded_before_reading_the_file(monkeypatch):
    monkeypatch.setattr(cli, "_load_json", _refuse)
    monkeypatch.setattr(coinv, "_relation_rows", _refuse)
    infile = str(ROOT / "tests" / "golden" / "series_K8.json")
    for weight in (0, 1, cli.MAX_SERIES_WEIGHT + 1):
        code, _ = run_cli(["coinv", "--weight", str(weight), "--in", infile])
        assert code == cli.EXIT_USAGE, weight


def test_coinv_weight_has_its_own_bound(monkeypatch):
    # coinv shares phi's series bound: at K = 64 its two eliminations take
    # about 0.16 s over Q, the slowest ring
    code, out = run_cli(["coinv", "--ring", "Q", "--weight", "64"])
    report = json.loads(out)
    assert code == cli.EXIT_OK and report["rank"] == report["oracle_rank"] == 32
    code, _ = run_cli(["phi", "--word", "b a", "--weight", "64"])
    assert code == cli.EXIT_OK
    monkeypatch.setattr(coinv, "_relation_rows", _refuse)
    for ring in ("Q", "Zp:3", "Zp:2147483647"):
        code, _ = run_cli(["coinv", "--ring", ring, "--weight", "65"])
        assert code == cli.EXIT_USAGE, ring


def test_huge_shift_exponent_costs_few_series_products(monkeypatch):
    # square-and-multiply shifts made 30,772 series products here; binomial
    # shifts made 262, all but one of them shifting the zero series of b^k
    calls = []
    mul = series.TruncatedSeries.__mul__

    def counting(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(series.TruncatedSeries, "__mul__", counting)
    N = 10**60
    code, out = run_cli(["phi", "--word", f"[a,b^{N}]", "--ring", "Z", "--weight", "20"])
    assert code == cli.EXIT_OK
    assert len(calls) <= 100
    # [a, b^N] maps to ((1 + x)^N - 1, 0)
    image = json.loads(out)["image"]
    assert image["e"] == "0"
    assert image["f"] == ["0"] + [str(math.comb(N, k)) for k in range(1, 20)]


def test_result_too_long_to_write_is_resource_error(tmp_path, capsys):
    # C(10^1000, k) has about 1000 k digits, and coinv classes of 4300-digit
    # coefficients grow past 4300: beyond Python's limit on writing an int as
    # text, which is a resource limit, not bad usage.  So are the exponent of
    # a factor that construct writes, a product of 2500-digit entries of q,
    # and the image in the p2 detail of verify, with C(N, k) N-digit terms
    infile = tmp_path / "series.json"
    infile.write_text(json.dumps({"series": {"f": ["0"] + ["9" * 4300] * 19}}))
    N = "9" * 3000
    data = {"q": [1], "K": 3, "r_factors": ["[a,b,b]"], "s_factors": [f"[a^{N},b^{N}]"], "n": [1]}
    witness_file = tmp_path / "w.json"
    witness_file.write_text(json.dumps(data))
    limit = str(sys.get_int_max_str_digits())
    for argv in (
        ["phi", "--word", f"[a,b^{10**1000}]", "--weight", "20"],
        ["coinv", "--ring", "Q", "--weight", "20", "--in", str(infile)],
        ["construct", "--q", ",".join(["9" * 2500] * 6), "--weight", "6"],
        ["verify", "--in", str(witness_file)],
    ):
        code, out = run_cli(argv)
        assert (code, out) == (cli.EXIT_RESOURCE, ""), argv[0]
        err = capsys.readouterr().err
        assert err.startswith("resource limit exceeded:") and limit in err, argv[0]
        assert "Traceback" not in err
    # but an entry of q too long to read, or one that is no integer, and a K
    # above the limit are bad usage
    for q, K in (("9" * (int(limit) + 1), "5"), ("1,x", "5"), ("1", "16")):
        code, out = run_cli(["construct", "--q", q, "--weight", K])
        assert (code, out) == (cli.EXIT_USAGE, ""), (q[:8], K)
        assert capsys.readouterr().err.startswith("usage error:")


def test_report_weight_limit_checked_before_any_work(monkeypatch):
    monkeypatch.setattr(freelie, "hall_basis", _refuse)
    for weight in (cli.MAX_REPORT_WEIGHT + 1, 0):
        code, _ = run_cli(["report", "--weight", str(weight)])
        assert code == cli.EXIT_USAGE


def test_report_builds_its_basis_once(monkeypatch):
    # the basis_counts section reads every weight off one basis at the
    # report's weight; check_identity(1) and (2) build theirs at weights 4
    # and 6, and the witnesses reach hall_basis through witness's own binding
    calls = []
    real = freelie.hall_basis

    def counting(max_weight):
        calls.append(max_weight)
        return real(max_weight)

    monkeypatch.setattr(freelie, "hall_basis", counting)
    code, out = run_cli(["report", "--weight", "8"])
    assert code == cli.EXIT_OK and json.loads(out)["sections"]["basis_counts"]["ok"]
    assert calls.count(8) == 1, calls


def test_report_takes_no_seed(monkeypatch):
    # the report checks every probe sequence, so there is nothing to seed
    monkeypatch.setattr(freelie, "hall_basis", _refuse)
    monkeypatch.setattr(witness, "build_witness", _refuse)
    code, out = run_cli(["report", "--seed", "0"])
    assert (code, out) == (cli.EXIT_USAGE, "")


def test_report_checks_every_probe_witness(monkeypatch):
    code, out = run_cli(["report", "--weight", "2"])
    assert code == cli.EXIT_OK
    section = json.loads(out)["sections"]["witness"]
    assert section["K"] == 8 and section["ok"]
    assert [r["q"] for r in section["results"]] == [list(q) for q in itertools.product((0, 1), repeat=3)]
    assert all(all(r["report"].values()) for r in section["results"])

    # a witness whose report fails for the last probe alone fails the
    # section, and nothing else
    real = witness.build_witness

    def failing_last(q, K):
        pair = real(q, K)
        if tuple(q) != (1, 1, 1):
            return pair
        return pair._replace(report=pair.report._replace(p3=witness.PropertyResult(False, "broken")))

    monkeypatch.setattr(witness, "build_witness", failing_last)
    code, out = run_cli(["report", "--weight", "2"])
    assert code == cli.EXIT_CHECK_FAILED
    report = json.loads(out)
    section = report["sections"]["witness"]
    assert not (section["ok"] or report["ok"])
    assert [r["report"]["p3"] for r in section["results"]] == [True] * 7 + [False]
    assert all(s["ok"] for name, s in report["sections"].items() if name != "witness")


def test_report_witness_series_checked_for_every_probe(monkeypatch):
    # a witness series that gains x^1 for one probe alone is no longer
    # sigma-fixed, whichever probe it is
    real = witness.witness_series
    for bad in itertools.product((0, 1), repeat=3):

        def wrong_for_one(pair, bad=bad):
            f = real(pair)
            if pair.q != bad:
                return f
            return f + series.TruncatedSeries.monomial(f.ring, f.trunc, 1)

        monkeypatch.setattr(witness, "witness_series", wrong_for_one)
        code, out = run_cli(["report", "--weight", "2"])
        assert code == cli.EXIT_CHECK_FAILED, bad
        section = json.loads(out)["sections"]["witness_classes"]
        assert not (section["witnesses_fixed"] or section["ok"]), bad
        assert section["theta_zero_iff_fixed"] and section["pairing_kills_relations"], bad


def test_identities_limit_checked_before_any_work(monkeypatch):
    monkeypatch.setattr(freelie, "check_identity", _refuse)
    monkeypatch.setattr(magnus, "check_group_identity", _refuse)
    max_n = (cli.MAX_REPORT_WEIGHT - 2) // 2
    code, _ = run_cli(["identities", "--max-n", str(max_n + 1)])
    assert code == cli.EXIT_USAGE


def test_witness_K_has_its_own_bound(tmp_path, monkeypatch):
    # construct needs about 2.4 GB at K = 15 and 8 GB at K = 16, so the
    # witness K stops at 15 while report and identities keep weight 20
    monkeypatch.setattr(witness, "_workspace", _refuse)
    monkeypatch.setattr(witness, "parse_word_expr", _refuse)
    code, _ = run_cli(["construct", "--q", "1", "--weight", "16"])
    assert code == cli.EXIT_USAGE
    factors = ["[a,b,b]"] * 14
    data = {"q": [1], "K": 16, "r_factors": factors, "s_factors": factors, "n": [1] * 14}
    bad = tmp_path / "K16.json"
    bad.write_text(json.dumps(data))
    code, _ = run_cli(["verify", "--in", str(bad)])
    assert code == cli.EXIT_RESOURCE

    monkeypatch.setattr(freelie, "check_identity", lambda n: True)
    monkeypatch.setattr(magnus, "check_group_identity", lambda n: True)
    code, out = run_cli(["identities", "--max-n", "9"])
    assert code == cli.EXIT_OK and json.loads(out)["config"] == {"max_n": 9}


def test_shifted_power_with_a_huge_exponent_ends():
    # a power with a nonzero shift is one binomial sum of K terms, however
    # many digits N has: over Z its coefficients C(N, j) pass Python's limit
    # on writing an int as text, a resource error; over Z/5 they reduce
    N = "7" * 200
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}

    def phi(word, ring):
        argv = ["phi", "--ring", ring, "--weight", "64", "--word", word]
        return subprocess.run(
            [sys.executable, "-m", "nilwitness.cli", *argv],
            env=env, capture_output=True, text=True, timeout=10,
        )

    for word in (f"(a b)^{N}", f"(a b a)^{N}"):
        done = phi(word, "Z")
        assert (done.returncode, done.stdout) == (cli.EXIT_RESOURCE, ""), word
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("resource limit exceeded:"), word
    done = phi(f"(a b)^{N}", "Zp:5")
    assert done.returncode == cli.EXIT_OK
    assert json.loads(done.stdout)["image"]["e"] == N


def test_phi_wide_chain_is_usage_error():
    code, _ = run_cli(["phi", "--word", WIDE_CHAIN, "--weight", "5"])
    assert code == cli.EXIT_USAGE


def test_phi_deep_nesting_is_usage_error(capsys):
    code, _ = run_cli(["phi", "--word", DEEP_NESTING, "--weight", "8"])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")


def test_prime_above_limit_is_usage_error():
    # the least prime above 2^31; trial division up to sqrt(p) is not run
    for argv in (["coinv", "--weight", "4"], ["phi", "--word", "b a", "--weight", "4"]):
        code, _ = run_cli(argv + ["--ring", "Zp:2147483659"])
        assert code == cli.EXIT_USAGE, argv[0]


def test_runtime_error_is_internal_error(monkeypatch, capsys):
    def fail(q, K):
        raise RuntimeError("defect lost weight")

    monkeypatch.setattr(witness, "build_witness", fail)
    code, _ = run_cli(["construct", "--q", "1", "--weight", "5"])
    assert code == cli.EXIT_CHECK_FAILED
    assert capsys.readouterr().err == "internal error: RuntimeError: defect lost weight\n"


@pytest.mark.parametrize(
    "error", [TypeError, KeyError, IndexError, ZeroDivisionError, ValueError, RuntimeError]
)
@pytest.mark.parametrize(
    "command", ["construct", "verify", "phi", "coinv", "identities", "report", "involution"]
)
def test_unmapped_exception_is_internal_error(command, error, monkeypatch, capsys, tmp_path):
    # a bug past the argv checks ends with exit 1 and one stderr line naming
    # the exception, never with a traceback: a ValueError is no usage error
    path = tmp_path / "witness.json"
    assert run_cli(["construct", "--q", "1", "--weight", "5", "--out", str(path)])[0] == 0
    argv, owner, name = {
        "construct": (["construct", "--q", "1", "--weight", "5"], magnus.MagnusElement, "__mul__"),
        "verify": (["verify", "--in", str(path)], magnus.MagnusElement, "__mul__"),
        "phi": (["phi", "--word", "[a,b] b a", "--weight", "5"], lamplighter.LampElement, "product_of"),
        "coinv": (["coinv", "--ring", "Q", "--weight", "4"], coinv, "_relation_rows"),
        "identities": (["identities", "--max-n", "1"], freelie, "check_identity"),
        "report": (["report", "--weight", "2"], series, "check_augmentation_iso"),
        "involution": (["involution"], coinv, "involution_exactness_report"),
    }[command]

    def fail(*args, **kwargs):
        raise error("kernel bug")

    monkeypatch.setattr(owner, name, fail)
    witness._workspace.cache_clear()  # no product is served from an earlier run
    capsys.readouterr()
    code, out = run_cli(argv)
    assert (code, out) == (cli.EXIT_CHECK_FAILED, "")
    assert capsys.readouterr().err == f"internal error: {error.__name__}: {error('kernel bug')}\n"


# drawn inputs for verify and phi: 30-digit exponents, atoms that do not
# parse, values of the wrong type and missing keys
BIG = "9" * 30
ATOMS = ["a", "b", "A", "B", "[a,b]", "[a,b,b]", "[a,b,a]", "(a B)", "[a,", "x", "[a,_65 b]", "()"]
WORDS = st.lists(
    st.tuples(st.sampled_from(ATOMS), st.sampled_from(["", "^2", "^-1", f"^{BIG}", f"^-{BIG}"])),
    max_size=4,
).map(lambda parts: " ".join(atom + exp for atom, exp in parts))
INTS = st.one_of(st.integers(-3, 3), st.just(int(BIG)))
WRONG = st.sampled_from([None, True, 1.5, "5", [], {}])


@st.composite
def witness_data(draw):
    K = draw(st.integers(-2, 6))
    count = draw(st.one_of(st.just(max(K - 2, 0)), st.integers(0, 5)))
    data = {"q": draw(st.lists(INTS, max_size=3)), "K": K}
    for key, items in (("r_factors", WORDS), ("s_factors", WORDS), ("n", INTS)):
        data[key] = draw(st.lists(items, min_size=count, max_size=count))
    for key in sorted(draw(st.sets(st.sampled_from(sorted(data)), max_size=2))):
        data[key] = draw(st.one_of(WRONG, st.lists(WRONG, min_size=1, max_size=2)))
    if draw(st.booleans()):
        del data[draw(st.sampled_from(sorted(data)))]
    return data


PHI_TOKENS = ["a", "b", "A", "B", "[", "]", ",", "_", "^", "(", ")", " ", "2", "-1", "_3", "_65",
              "x", "9" * 5000]
PHI_RINGS = st.one_of(
    st.sampled_from(["Z", "Q", "Zp:3", "Z/7"]),
    st.sampled_from(["Zp:2", "Zp:4", "Zp:x", "W", "", "Zp:" + "9" * 5000]),
)


def run_cli_captured(argv):
    """(exit code, stdout, stderr) of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err, codes):
    assert code in codes, err
    assert "Traceback" not in err and "internal error" not in err, err
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED) or out == ""


@seed(23)
@settings(max_examples=150, deadline=None, database=None)
@given(data=witness_data())
def test_verify_fuzz_exits_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "w.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli_captured(["verify", "--in", str(path)])
    assert_clean_exit(code, out, err, (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_RESOURCE))


@seed(23)
@settings(max_examples=300, deadline=None, database=None)
@given(
    word=st.one_of(WORDS, st.lists(st.sampled_from(PHI_TOKENS), max_size=20).map("".join)),
    ring=PHI_RINGS,
    weight=st.one_of(st.integers(1, 12), st.sampled_from([-1, 0, 64, 65])),
)
def test_phi_fuzz_exits_cleanly(word, ring, weight):
    argv = ["phi", "--word", word, "--ring", ring, "--weight", str(weight)]
    code, out, err = run_cli_captured(argv)
    assert_clean_exit(code, out, err, (cli.EXIT_OK, cli.EXIT_USAGE))


def test_json_flag_removed():
    code, _ = run_cli(["identities", "--json"])
    assert code == cli.EXIT_USAGE


def test_report_witness_classes_checked(monkeypatch):
    code, out = run_cli(["report", "--weight", "6"])
    assert code == 0
    section = json.loads(out)["sections"]["witness_classes"]
    assert set(section) == {
        "rank", "witnesses_fixed", "theta_zero_iff_fixed", "pairing_kills_relations", "ok"
    }
    assert section["rank"] == 4
    assert all(section.values())

    # a theta that sends everything to a fixed nonzero vector, and one that
    # loses its last coordinate (it still kills every fixed series, but its
    # rank drops), each break the zero-iff-fixed check, and with it the
    # section
    real = coinv.theta
    for wrong in (lambda f: (1,) * (f.trunc // 2), lambda f: real(f)[:-1] + (0,)):
        monkeypatch.setattr(coinv, "theta", wrong)
        code, out = run_cli(["report", "--weight", "6"])
        assert code == cli.EXIT_CHECK_FAILED
        section = json.loads(out)["sections"]["witness_classes"]
        assert not (section["theta_zero_iff_fixed"] or section["ok"])
        assert section["witnesses_fixed"] and section["pairing_kills_relations"]


def test_report_rational_powers_checked(monkeypatch):
    # f^r with a coefficient r^2 x^7 too many: right at r = 0 only, so the
    # law f^(r1 + r2) = f^r1 f^r2 fails wherever r1 r2 != 0
    real = series.rat_pow

    def off_at_the_top(f, r):
        return real(f, r) + series.TruncatedSeries.monomial(f.ring, f.trunc, f.trunc - 1).scale(r * r)

    monkeypatch.setattr(series, "rat_pow", off_at_the_top)
    code, out = run_cli(["report", "--weight", "2"])
    assert code == cli.EXIT_CHECK_FAILED
    report = json.loads(out)
    assert not (report["sections"]["rational_powers"]["ok"] or report["ok"])
    assert all(s["ok"] for name, s in report["sections"].items() if name != "rational_powers")


def readme_cli_commands():
    """The argv of each command in the fenced block under "## CLI"."""
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("nilwitness ")]
    return [shlex.split(line)[1:] for line in lines]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples name files relative to the root
    commands = readme_cli_commands()
    assert commands
    for argv in commands:
        argv = [str(tmp_path / arg) if arg == "witness.json" else arg for arg in argv]
        code, _ = run_cli(argv)
        assert code == cli.EXIT_OK, argv


def _argv_case(argv, code, options=None):
    return pytest.param(argv, code, options, id=" ".join(argv) or "no-arguments")


COINV_DEFAULTS = {"command": "coinv", "ring": "Q", "weight": 6, "infile": None, "out": None}


@pytest.mark.parametrize(
    "argv, code, options",
    [
        _argv_case(["--help"], cli.EXIT_OK),
        *(_argv_case([name, "--help"], cli.EXIT_OK) for name in cli.COMMANDS),
        _argv_case(["coinv", "--ring", "Zp:3", "-K", "20"], cli.EXIT_OK,
                   {**COINV_DEFAULTS, "ring": "Zp:3", "weight": 20}),
        _argv_case(["coinv", "--weight=7", "--in=s.json"], cli.EXIT_OK,
                   {**COINV_DEFAULTS, "weight": 7, "infile": "s.json"}),
        # a repeated flag keeps its last value, as with argparse
        _argv_case(["coinv", "-K", "4", "--weight", "5", "--ring=Zp:5"], cli.EXIT_OK,
                   {**COINV_DEFAULTS, "ring": "Zp:5", "weight": 5}),
        # a flag's value is the next token, whatever it starts with
        _argv_case(["construct", "--q", "-1,0,1", "-K", "-3"], cli.EXIT_OK,
                   {"command": "construct", "q": "-1,0,1", "weight": -3, "out": None}),
        _argv_case(["verify", "--in", "--out"], cli.EXIT_OK,
                   {"command": "verify", "infile": "--out", "out": None}),
        _argv_case([], cli.EXIT_USAGE),
        _argv_case(["frobnicate"], cli.EXIT_USAGE),
        _argv_case(["coinv", "--weight", "x"], cli.EXIT_USAGE),
        _argv_case(["coinv", "--weight", "9", "extra"], cli.EXIT_USAGE),
        _argv_case(["construct", "--weight", "5"], cli.EXIT_USAGE),
        _argv_case(["-K", "5", "coinv"], cli.EXIT_USAGE),
        _argv_case(["coinv", "--ring"], cli.EXIT_USAGE),
        _argv_case(["involution", "--out"], cli.EXIT_USAGE),
        # argparse took a prefix of a flag and a short flag glued to its
        # value; the table's reader takes every flag as it is spelt
        _argv_case(["coinv", "--wei", "5"], cli.EXIT_USAGE),
        _argv_case(["coinv", "-K5"], cli.EXIT_USAGE),
    ],
)
def test_argv_grammar(monkeypatch, argv, code, options):
    # every handler records the options it is given and does no work
    seen = []

    def record(args):
        seen.append(vars(args))
        return {}, True

    for name, (help_text, _, arguments) in cli.COMMANDS.items():
        monkeypatch.setitem(cli.COMMANDS, name, (help_text, record, arguments))
    got, out, err = run_cli_captured(argv)
    assert got == code, err
    if options is not None:
        assert seen == [options]
        assert json.loads(out) == {"schema": cli.SCHEMA, "command": options["command"]}
    elif code == cli.EXIT_OK:
        # help: each command named on the command line, or all of them
        named = [name for name in cli.COMMANDS if f"nilwitness {name}:" in out]
        assert (seen, err) == ([], "") and out.startswith("usage: nilwitness")
        assert named == ([argv[0]] if argv[0] in cli.COMMANDS else list(cli.COMMANDS))
    else:
        assert (seen, out) == ([], "")
        assert err.startswith("usage error:") and err.count("\n") == 1, err


def test_construct_reads_a_negative_first_entry():
    # argparse took "-1,0,1" after --q for a flag
    spaced = run_cli_captured(["construct", "--q", "-1,0,1", "--weight", "5"])
    joined = run_cli_captured(["construct", "--q=-1,0,1", "--weight", "5"])
    assert spaced == joined and spaced[0] == cli.EXIT_OK
    assert json.loads(spaced[1])["q"] == [-1, 0, 1]
