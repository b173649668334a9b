"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every check is exact integer/rational arithmetic; the only tolerances are the
wall-clock budgets, which are asserted as stated.
"""

import io
import json
import random
import sys
import time
from fractions import Fraction

from nilwitness import cli, coinv, freelie, lamplighter, linalg, magnus, series, witness
from nilwitness import words as wd
from nilwitness.series import QQ, TruncatedSeries, ZZ


def _report(number: int, name: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.1f}s"


def test_criterion_1_bracket_identities():
    t0 = time.monotonic()
    ok = all(freelie.check_identity(n) for n in (1, 2, 3, 4))
    ok &= all(magnus.check_group_identity(n) for n in (1, 2, 3))
    _report(1, "bracket identities", ok, time.monotonic() - t0, 30)


def test_criterion_2_basis_dimensions():
    from test_freelie import spanning_rank, witt_oracle

    t0 = time.monotonic()
    expected = [2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335]
    basis = freelie.hall_basis(12)
    counts = [len(basis.words_of_weight(w)) for w in range(1, 13)]
    ok = counts == expected
    ok &= [witt_oracle(w) for w in range(1, 13)] == expected
    ok &= all(spanning_rank(w) == expected[w - 1] for w in range(1, 7))
    _report(2, "basis dimensions", ok, time.monotonic() - t0, 10)


def test_criterion_3_filtration_isomorphism():
    t0 = time.monotonic()
    ok = True
    for tag in ("Z", "Q", "Zp:5"):
        ring = series.ring_from_tag(tag)
        for n in range(1, 9):
            report = series.augmentation_iso_report(ring, n)
            ok &= report["ok"]
            # stability under spanning-set growth is part of the report
            ok &= len(report["certificates"]) == 2
    _report(3, "filtration isomorphism certificates", ok, time.monotonic() - t0, 10)


def test_criterion_4_involution_and_power_laws():
    t0 = time.monotonic()
    K = 32
    ok = all(
        series.sigma_tilde(series.sigma_tilde(TruncatedSeries.monomial(ZZ, K, k)))
        == TruncatedSeries.monomial(ZZ, K, k)
        for k in range(K)
    )
    rng = random.Random(1234)
    for _ in range(100):
        coeffs = [1] + [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(7)]
        f = TruncatedSeries.from_coeffs(QQ, 8, coeffs)
        r1 = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        r2 = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        ok &= series.rat_pow(f, r1 + r2) == series.rat_pow(f, r1) * series.rat_pow(f, r2)
        ok &= series.rat_pow(f, r1 * r2) == series.rat_pow(series.rat_pow(f, r1), r2)
    base = TruncatedSeries.from_coeffs(QQ, 10, (1, 1))
    for _ in range(50):
        r = Fraction(rng.randint(-14, 14), rng.randint(1, 9))
        ok &= series.one_plus_x_power(QQ, r, 10) == series.rat_pow(base, r)
    _report(4, "involution and power laws", ok, time.monotonic() - t0, 20)


def test_criterion_5_witness_construction():
    t0 = time.monotonic()
    rng = random.Random(99)
    K = 11
    ok = True
    built = None
    for _ in range(20):
        q = tuple(rng.randint(0, 1) for _ in range(4))
        pair = witness.build_witness(q, K)
        rep = pair.report
        ok &= rep.p0.ok and rep.p1.ok and rep.p2.ok and rep.p3.ok
        for s in pair.s_factors:
            ok &= lamplighter.phi_word(s, "Z", K).is_identity()
        img = lamplighter.phi_word(pair.r_word(), "Z", K)
        ok &= img.e == 0
        for i in range(1, 5):
            if 2 * i < K:
                ok &= img.f.coeffs[2 * i] == q[i - 1]
        built = pair
    # mutation: every single-exponent tamper in every nontrivial factor is caught
    for which in ("r_factors", "s_factors"):
        for index, expr in enumerate(getattr(built, which)):
            if not str(expr):
                continue
            factors = list(getattr(built, which))
            head = factors[index].parts[0] if isinstance(factors[index], wd.Prod) else factors[index]
            rest = factors[index].parts[1:] if isinstance(factors[index], wd.Prod) else ()
            if isinstance(head, wd.Pow):
                tampered = wd.power(head.base, head.exp + 1)
            else:
                tampered = wd.power(head, 2)
            factors[index] = wd.product(tampered, *rest)
            bad = built._replace(**{which: tuple(factors)}, report=None)
            ok &= not witness.verify_witness(bad).ok
    _report(5, "witness construction", ok, time.monotonic() - t0, 60)


def test_criterion_6_shift_anchor():
    t0 = time.monotonic()
    ok = True
    for k in range(1, 11):
        img = lamplighter.phi_word(wd.engel(k), "Z", 11)
        ok &= img.e == 0 and img.f == TruncatedSeries.monomial(ZZ, 11, k)
    _report(6, "lamplighter anchor", ok, time.monotonic() - t0, 10)


def test_criterion_7_involutive_exactness():
    from test_coinv import rand_vec

    t0 = time.monotonic()
    ok = True
    for d, dim in ((-1, 2), (2, 2), (5, 3)):
        report = coinv.involution_exactness_report(coinv.InvolutiveField(d, dim))
        ok &= report["ok"]
    # 50 sampled diagonal elements killed by psi, counted explicitly
    rng = random.Random(77)
    F = coinv.InvolutiveField(-1, 3)
    kills = 0
    for _ in range(50):
        total = None
        for _ in range(rng.randint(1, 3)):
            w = rand_vec(F, rng)
            c = Fraction(rng.randint(-3, 3))
            val = [c * x for x in coinv.psi_value(F, w, F.sigma_v(w))]
            total = val if total is None else [a + b for a, b in zip(total, val)]
        kills += all(x == 0 for x in total)
    ok &= kills == 50
    _report(7, "involutive-field exactness", ok, time.monotonic() - t0, 20)


def test_criterion_8_coinvariant_ranks():
    from test_coinv import dense_relation_rows

    t0 = time.monotonic()
    ok = True
    rng = random.Random(8)
    for ring in (QQ, series.PrimeField(3)):
        for K in range(2, 9):
            space = coinv.build_coinvariants(ring, K)
            ok &= coinv.coinvariant_rank_oracle(ring, K) == space.rank
        space = coinv.build_coinvariants(ring, 8)
        extra = (
            tuple(range(1, 10)) + (Fraction(1, 2),) if ring == QQ else (1, 2, 3)
        )
        rows = dense_relation_rows(ring, 8, extra)
        p = ring.p if ring != QQ else None
        ok &= space.dim - linalg.rref(rows, p)[0] == space.rank
        for _ in range(10):
            f = TruncatedSeries.from_coeffs(
                ring, 8, [ring.coerce(rng.randint(-4, 4)) for _ in range(8)]
            )
            g = TruncatedSeries.from_coeffs(
                ring, 8, [ring.coerce(rng.randint(-4, 4)) for _ in range(8)]
            )
            lhs = coinv.theta(f + g)
            rhs = tuple(
                ring.coerce(u + v) for u, v in zip(coinv.theta(f), coinv.theta(g))
            )
            ok &= lhs == rhs
    _report(8, "coinvariant ranks", ok, time.monotonic() - t0, 30)


def test_criterion_9_cli_contract(tmp_path):
    t0 = time.monotonic()

    def run(argv):
        buf = io.StringIO()
        old = sys.stdout
        sys.stdout = buf
        try:
            code = cli.main(argv)
        finally:
            sys.stdout = old
        return code, buf.getvalue()

    ok = True
    argv = ["report", "--weight", "6"]
    code1, out1 = run(argv)
    code2, out2 = run(argv)
    ok &= code1 == 0 and code2 == 0 and out1 == out2

    wfile = tmp_path / "w.json"
    code, _ = run(["construct", "--q", "1,0,1", "--weight", "7", "--out", str(wfile)])
    ok &= code == cli.EXIT_OK
    code, _ = run(["verify", "--in", str(wfile)])
    ok &= code == cli.EXIT_OK
    data = json.loads(wfile.read_text())
    data["s_factors"][0] = "[a,b,a]^-2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _ = run(["verify", "--in", str(bad)])
    ok &= code == cli.EXIT_CHECK_FAILED
    code, _ = run(["identities", "--max-n", "0"])
    ok &= code == cli.EXIT_USAGE
    code, _ = run(["verify", "--in", str(tmp_path / "missing.json")])
    ok &= code == cli.EXIT_RESOURCE
    _report(9, "CLI determinism and exit codes", ok, time.monotonic() - t0, 30)
