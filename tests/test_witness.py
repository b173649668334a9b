"""The witness constructor: base case, inductive properties, determinism,
tamper detection, and the two-path computation of the exponent series."""

import functools
import gc
import importlib
import itertools
import json
import math
import pkgutil
import random
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwitness import freelie as fl
from nilwitness import lamplighter as lp
from nilwitness import magnus as mg
from nilwitness import witness as wt
from nilwitness import words as wd
from nilwitness.series import TruncatedSeries, ZZ

from letterwords import to_group_word
from test_magnus import oracle_eval, poly_inverse, poly_mul


def test_alternating_product_base_cases():
    assert str(wt.alternating_engel_product(1)) == "[a,b,a]"
    z2 = wt.alternating_engel_product(2)
    assert str(z2) == "[a,b,b,b,a] [a,b,b,[a,b]]^-1"
    assert wd.parse_word_expr(str(z2)) == z2


@pytest.mark.parametrize("n,K", [(1, 5), (2, 7), (3, 9)])
def test_alternating_product_pairs_with_engel_commutator(n, K):
    # [[a,_2n b], a] * [z^-1, b] vanishes below weight 2n + 3
    lhs = wd.Comm(wd.engel(2 * n), wd.A)
    rhs = wd.Comm(wd.power(wt.alternating_engel_product(n), -1), wd.B)
    combo = mg.eval_word(wd.product(lhs, rhs), 2 * n + 2)
    assert combo.is_one()


def test_base_case_words():
    pair = wt.build_witness((1,), 3)
    assert [str(w) for w in pair.r_factors] == ["[a,b,b]"]
    assert [str(w) for w in pair.s_factors] == ["[a,b,a]^-1"]
    assert pair.report.ok
    # the defect after the base step already sits two levels deep: trivial
    # at truncation 4, read off R and S at 3
    defect = wt._defect(
        mg.eval_word(pair.r_word(), 3), mg.eval_word(pair.s_word(), 3)
    )
    assert defect.trunc == 4 and defect.is_one()


def test_zero_sequence_gives_trivial_factors():
    pair = wt.build_witness((0, 0, 0), 7)
    assert all(to_group_word(w).is_identity() for w in pair.r_factors)
    assert all(to_group_word(w).is_identity() for w in pair.s_factors)
    assert pair.report.ok
    assert wt.witness_series(pair).is_zero()


def test_empty_pair_vacuous():
    pair = wt.WitnessPair(q=(), K=2, r_factors=(), s_factors=(), n=())
    assert wt.verify_witness(pair).ok


def test_build_rejects_small_K():
    with pytest.raises(ValueError):
        wt.build_witness((1,), 2)


@pytest.mark.parametrize("q", [(1, 0, 1, 1), (0, 1, 0, 1), (1, 1, 1, 1)])
def test_witness_properties_K9(q):
    pair = wt.build_witness(q, 9)
    rep = pair.report
    assert rep.p0.ok and rep.p1.ok and rep.p2.ok and rep.p3.ok
    # controlled slots: coefficient of x^{2i} equals q_i
    f = wt.witness_series(pair)
    for i in range(1, 5):
        if 2 * i < 9:
            assert f.coeffs[2 * i] == q[i - 1]


def test_factor_membership_depths():
    pair = wt.build_witness((1, 1, 0), 8)
    for k, r, s in zip(pair.factor_indices(), pair.r_factors, pair.s_factors):
        assert mg.gamma_weight(mg.eval_word(r, 9)) >= k
        assert mg.gamma_weight(mg.eval_word(s, 9)) >= k


def test_each_s_factor_dies_in_lamplighter():
    pair = wt.build_witness((1, 0, 1), 9)
    for s in pair.s_factors:
        assert lp.phi_word(s, "Z", 9).is_identity()


def test_series_two_path_agreement():
    pair = wt.build_witness((1, 0, 1), 9)
    img = lp.phi_word(pair.r_word(), "Z", 9)
    assert img.e == 0
    assert TruncatedSeries.from_coeffs(ZZ, 9, img.f.coeffs) == wt.witness_series(pair)


def test_monotone_consistency_in_K():
    small = wt.build_witness((1, 0, 1, 1), 7)
    large = wt.build_witness((1, 0, 1, 1), 9)
    assert small.r_factors == large.r_factors[: len(small.r_factors)]
    assert small.s_factors == large.s_factors[: len(small.s_factors)]
    assert small.n == large.n[: len(small.n)]


def test_determinism():
    a = wt.build_witness((1, 1, 0, 1), 8)
    b = wt.build_witness((1, 1, 0, 1), 8)
    assert a == b


def test_distinct_prefixes_forced_apart():
    # distinct sequences differ in a controlled even-degree coefficient
    built = {}
    for q in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        built[q] = wt.witness_series(wt.build_witness(q, 7))
    for q1 in built:
        for q2 in built:
            if q1 != q2:
                diff = built[q1] - built[q2]
                assert any(
                    diff.coeffs[2 * i] != 0 for i in (1, 2) if 2 * i < 7
                )


def _closed_form_holds(n):
    # f_k = n_(k+1), the coefficient of x^k in the witness series; n starts at
    # n_3, so f_0 = f_1 = 0, and each odd coefficient is forced by the ones
    # below it: f_(2i+1) = -1/2 sum_(k=1..2i) C(2i, k-1) f_k
    f = [0, 0, *n]
    return all(
        2 * f[2 * i + 1] == -sum(math.comb(2 * i, k - 1) * f[k] for k in range(1, 2 * i + 1))
        for i in range(1, (len(f) - 2) // 2 + 1)
    )


def test_witness_series_closed_form():
    # every odd-step exponent n_(2i+2) is fixed by the controlled ones below it
    for q in itertools.product((-1, 0, 1), repeat=3):
        assert _closed_form_holds(wt.build_witness(q, 8).n), q
    for name in ("construct_K8.json", "construct_K10.json"):
        assert _closed_form_holds(json.loads((GOLDEN / name).read_text())["n"]), name
    # the check is not vacuous: a changed n_6 = f_5 breaks it
    n = wt.build_witness((1, 0, 1), 8).n
    assert not _closed_form_holds(n[:3] + (n[3] + 1,) + n[4:])


def test_json_roundtrip():
    pair = wt.build_witness((1, 0, 1), 7)
    data = json.loads(json.dumps(pair.to_json()))
    back = wt.WitnessPair.from_json(data)
    assert back.q == pair.q and back.K == pair.K and back.n == pair.n
    assert back.r_factors == pair.r_factors
    assert back.s_factors == pair.s_factors
    assert wt.verify_witness(back).ok


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_witness_file_shares_one_parse_memo_across_its_factors(monkeypatch):
    # the K = 10 file of construct --q 1,0,1,1,0,1 --weight 10: with one
    # memo for its 16 factors, a commutator atom that recurs in any of them
    # is parsed once and its Comm nodes built once; a memo per factor
    # builds them again in each factor
    built = []

    class Counting(wd.Comm):
        def __init__(self, left, right):
            built.append(None)
            super().__init__(left, right)

    monkeypatch.setattr(wd, "Comm", Counting)
    data = json.loads((GOLDEN / "construct_K10.json").read_text())
    pair = wt.WitnessPair.from_json(data)
    assert len(built) == 428
    assert [str(w) for w in pair.r_factors] == data["r_factors"]
    assert [str(w) for w in pair.s_factors] == data["s_factors"]
    built.clear()
    for text in data["r_factors"] + data["s_factors"]:
        wd.parse_word_expr(text)
    assert len(built) == 1585


def test_witness_file_errors_name_the_offset_in_their_factor():
    # a factor after others that share its atoms fails where it fails alone
    good = "[a,b,b] [a,[a,b,b]]"
    data = {"q": [1], "K": 4, "n": [1, 0], "r_factors": [good, good]}
    data["s_factors"] = [good, "[a,b,b] [a,b"]
    with pytest.raises(wd.WordSyntaxError) as alone:
        wd.parse_word_expr(data["s_factors"][1])
    with pytest.raises(wd.WordSyntaxError) as shared:
        wt.WitnessPair.from_json(data)
    assert str(shared.value) == str(alone.value) == "unclosed bracket at 12"


def _tamper_factor(
    pair: wt.WitnessPair, which: str, index: int, delta: int = 1
) -> wt.WitnessPair:
    """Change one exponent inside one factor word by delta."""
    factors = list(getattr(pair, which))
    expr = factors[index]
    if isinstance(expr, wd.Prod) and expr.parts:
        head, rest = expr.parts[0], expr.parts[1:]
    else:
        head, rest = expr, ()
    if isinstance(head, wd.Pow):
        tampered = wd.power(head.base, head.exp + delta)
    else:
        tampered = wd.power(head, 1 + delta)
    factors[index] = wd.product(tampered, *rest)
    return pair._replace(**{which: tuple(factors)}, report=None)


def test_single_exponent_tamper_detected():
    pair = wt.build_witness((1, 0, 1), 8)
    assert wt.verify_witness(pair).ok
    for which in ("r_factors", "s_factors"):
        for index in range(len(pair.r_factors)):
            if not str(getattr(pair, which)[index]):
                continue
            bad = _tamper_factor(pair, which, index)
            rep = wt.verify_witness(bad)
            assert not rep.ok, (which, index)


def test_tamper_reports_failing_weight():
    pair = wt.build_witness((1,), 5)
    bad = _tamper_factor(pair, "r_factors", 0)
    rep = wt.verify_witness(bad)
    assert not rep.p1.ok
    assert "weight" in rep.p1.detail


def test_q_entries_beyond_length_are_zero():
    explicit = wt.build_witness((1, 0, 0, 0, 0), 9)
    padded = wt.build_witness((1,), 9)
    assert explicit.r_factors == padded.r_factors
    assert explicit.n == padded.n


def test_general_integer_sequences_accepted():
    pair = wt.build_witness((2, -3), 6)
    assert pair.report.ok
    f = wt.witness_series(pair)
    assert f.coeffs[2] == 2 and f.coeffs[4] == -3


def test_empty_sequence_builds_trivially():
    pair = wt.build_witness((), 5)
    assert pair.report.ok
    assert wt.witness_series(pair).is_zero()


def _cut_s_only(pair):
    return pair._replace(s_factors=pair.s_factors[:-2])


MUTATIONS = {
    "truncate": lambda p: p._replace(
        r_factors=p.r_factors[:2], s_factors=p.s_factors[:2], n=p.n[:2]
    ),
    "cut_s_only": _cut_s_only,
    "reorder": lambda p: p._replace(
        r_factors=p.r_factors[::-1], s_factors=p.s_factors[::-1]
    ),
    "swap_r_s": lambda p: p._replace(
        r_factors=p.s_factors, s_factors=p.r_factors
    ),
    "raise_K": lambda p: p._replace(K=p.K + 1),
    "lower_K": lambda p: p._replace(K=p.K - 1),
    "negative_K": lambda p: p._replace(K=-1),
    "change_n": lambda p: p._replace(n=p.n[:-1] + (p.n[-1] + 1,)),
}


@pytest.fixture(scope="module")
def pair_K9():
    pair = wt.build_witness((1, 0, 1, 1), 9)
    assert pair.report.ok
    return pair._replace(report=None)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutated_witness_rejected(pair_K9, name):
    rep = wt.verify_witness(MUTATIONS[name](pair_K9))
    assert not rep.ok, (name, rep.to_json())


def test_cut_s_list_fails_p0_with_counts(pair_K9):
    rep = wt.verify_witness(_cut_s_only(pair_K9))
    assert not rep.p0.ok
    assert "got r 7, s 5, n 7" in rep.p0.detail


def _q_and_n_changed(pair):
    q = list(pair.q)
    q[2] = 0
    n = list(pair.n)
    n[7 - 3] = 0
    return pair._replace(q=tuple(q), n=tuple(n))


def test_controlled_exponents_read_from_image(pair_K9):
    # q and the stored n changed together: only the computed lamplighter
    # image still carries the true controlled exponent n_7 = q_3 = 1
    rep = wt.verify_witness(_q_and_n_changed(pair_K9))
    assert not rep.p3.ok
    assert "n_7 = 1, expected 0" in rep.p3.detail


def _no_factors(K):
    return lambda p: p._replace(K=K, r_factors=(), s_factors=(), n=())


TAMPERED = {
    **MUTATIONS,
    "untouched": lambda p: p,
    "q_and_n_changed": _q_and_n_changed,
    "last_r_times_b": lambda p: p._replace(
        r_factors=p.r_factors[:-1] + (wd.product(p.r_factors[-1], wd.B),)
    ),
    "empty_pair": lambda p: wt.WitnessPair(q=(), K=2, r_factors=(), s_factors=(), n=()),
    **{f"no_factors_K{K}": _no_factors(K) for K in (0, 1, 2)},
}

# the full report of every case in TAMPERED, recorded before verify_witness
# checked p0-p2 in one pass over the factors; a cut list must not shorten
# the r-product that p3 reads, so "cut_s_only" pins p3 as passing
TAMPERED_GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_tampered_K9.json"


def test_tampered_golden_covers_every_case():
    assert sorted(json.loads(TAMPERED_GOLDEN.read_text())) == sorted(TAMPERED)


@pytest.mark.parametrize("name", sorted(TAMPERED))
def test_tampered_report_matches_golden(pair_K9, name):
    golden = json.loads(TAMPERED_GOLDEN.read_text())[name]
    assert wt.verify_witness(TAMPERED[name](pair_K9)).to_json() == golden


# --- p1 certified by the last defect ------------------------------------------


def _per_step_report(pair: wt.WitnessPair) -> wt.Report:
    """verify_witness as it ran before p1 was read off the last defect: the
    defect checked after every step.  The reference for the one-defect
    check, which must give the same full report."""
    K = pair.K
    top = max(K, 0)
    ws = wt._workspace(max(K, 1))
    fails = {name: [] for name in ("p0", "p1", "p2", "p3")}
    n_r, n_s, n_n = len(pair.r_factors), len(pair.s_factors), len(pair.n)
    if not n_r == n_s == n_n == K - 2:
        fails["p0"].append(
            f"K = {K} needs {K - 2} factors and exponents, got r {n_r}, s {n_s}, n {n_n}"
        )
    R = S = mg.MagnusElement.one(ws.K)
    for k, r, s in zip(pair.factor_indices(), pair.r_factors, pair.s_factors):
        r_val, s_val = ws.magnus.eval(r), ws.magnus.eval(s)
        for name, val in (("r", r_val), ("s", s_val)):
            gw = mg.gamma_weight(val)
            if gw < k:
                fails["p0"].append(f"{name}^({k}) has weight {gw} < {k}")
        R, S = R * r_val, S * s_val
        Tk = min(k, top)
        defect = wt._defect(R.truncate(Tk), S.truncate(Tk))
        if not defect.is_one():
            fails["p1"].append(f"step {k}: defect has weight {mg.gamma_weight(defect)}")
        img = ws.lamp.eval(s)
        if not img.is_identity():
            fails["p2"].append(f"s^({k}) maps to {img}")
    lamp_r = ws.lamp.eval(pair.r_word())
    if lamp_r.e != 0:
        fails["p3"].append(f"r-product has shift exponent {lamp_r.e}")
    if lamp_r.f != wt.witness_series(pair):
        fails["p3"].append("series of the r-product disagrees with the exponent data")
    for i in range(1, (K - 1) // 2 + 1):
        slot = 2 * i + 1
        want = wt._q_at(pair.q, i)
        got = lamp_r.f.coeffs[slot - 1]
        if got != want:
            fails["p3"].append(f"controlled exponent n_{slot} = {got}, expected {want}")
    return wt.Report(
        **{name: wt.PropertyResult(not f, "; ".join(f)) for name, f in fails.items()}
    )


def _prefix(pair: wt.WitnessPair, K: int) -> wt.WitnessPair:
    """The witness at K that a build at K gives: growing K only appends."""
    cut = K - 2
    return pair._replace(
        K=K, r_factors=pair.r_factors[:cut], s_factors=pair.s_factors[:cut], n=pair.n[:cut]
    )


def test_honest_verify_reads_one_defect(monkeypatch):
    pair = wt.build_witness((1, 0, 1, 1, 0), 11)._replace(report=None)
    calls = []
    defect = wt._defect

    def counting_defect(R, S):
        calls.append(R.trunc)
        return defect(R, S)

    monkeypatch.setattr(wt, "_defect", counting_defect)
    for K in range(3, 12):
        calls.clear()
        assert wt.verify_witness(_prefix(pair, K)).ok
        # the defect after the last step, at K + 1, and no other
        assert calls == [K]


@pytest.mark.parametrize("name", sorted(TAMPERED))
def test_one_defect_report_matches_the_per_step_loop(pair_K9, name):
    bad = TAMPERED[name](pair_K9)
    assert wt.verify_witness(bad) == _per_step_report(bad)


_SIDES = st.sampled_from(["r_factors", "s_factors"])


@st.composite
def _mutations(draw, pair: wt.WitnessPair):
    """A mutated witness at K = 6-9: an exponent changed, two factors of one
    side swapped, one factor cut, or the last r-factor times a power of a
    commutator of weight K - 1, K or K + 1."""
    K = draw(st.integers(6, 9))
    pair = _prefix(pair, K)
    index = st.integers(0, K - 3)
    kind = draw(st.sampled_from(["exponent", "swap", "cut", "deep"]))
    if kind == "exponent":
        delta = draw(st.integers(-2, 2).filter(bool))
        return _tamper_factor(pair, draw(_SIDES), draw(index), delta)
    if kind == "deep":
        weight, m = K + draw(st.integers(-1, 1)), draw(st.integers(-2, 2).filter(bool))
        last = wd.product(pair.r_factors[-1], wd.power(wd.engel(weight - 1), m))
        return pair._replace(r_factors=pair.r_factors[:-1] + (last,))
    which = draw(_SIDES)
    factors = list(getattr(pair, which))
    i = draw(index)
    if kind == "swap":
        j = draw(index)
        factors[i], factors[j] = factors[j], factors[i]
    else:
        del factors[i]
    return pair._replace(**{which: tuple(factors)})


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_defect_report_matches_the_per_step_loop_on_mutations(pair_K9, data):
    bad = data.draw(_mutations(pair_K9))
    assert wt.verify_witness(bad) == _per_step_report(bad)


# --- p1 recomputed from letter words, with no Magnus code ----------------------


@functools.lru_cache(maxsize=None)
def _letter_oracle(expr: wd.WordExpr, trunc: int) -> dict:
    """The dict oracle of an expression's letter word; an expression hashes
    by its text, so a factor that recurs across witnesses expands once."""
    return oracle_eval(str(to_group_word(expr)), trunc)


def _oracle_commutator(x: dict, y: dict, trunc: int) -> dict:
    """x^-1 y^-1 x y of two oracle dicts."""
    inverses = poly_mul(poly_inverse(x, trunc), poly_inverse(y, trunc), trunc)
    return poly_mul(inverses, poly_mul(x, y, trunc), trunc)


def _oracle_p1(pair: wt.WitnessPair) -> wt.PropertyResult:
    """p1 as verify_witness states it, from the factor words alone: after
    step k = 3, 4, ... the defect [R_k, a][S_k, b] of the products R_k, S_k
    of the factors so far, at truncation min(k, K) + 1 (a K below 0 counts
    as 0), evaluated by the dict oracle of test_magnus."""
    steps = list(zip(itertools.count(3), pair.r_factors, pair.s_factors))
    if not steps:
        return wt.PropertyResult(True, "")
    top = max(pair.K, 0)
    T = min(steps[-1][0], top) + 1
    a, b = oracle_eval("a", T), oracle_eval("b", T)
    R = S = {"": 1}
    fails = []
    for k, r, s in steps:
        R = poly_mul(R, _letter_oracle(r, T), T)
        S = poly_mul(S, _letter_oracle(s, T), T)
        Tk = min(k, top) + 1
        Rk, Sk = ({w: c for w, c in x.items() if len(w) <= Tk} for x in (R, S))
        defect = poly_mul(_oracle_commutator(Rk, a, Tk), _oracle_commutator(Sk, b, Tk), Tk)
        weight = min((len(w) for w in defect if w), default=None)
        if weight is not None:
            fails.append(f"step {k}: defect has weight {weight}")
    return wt.PropertyResult(not fails, "; ".join(fails))


@pytest.mark.parametrize("q, K", [((1,), 4), ((1, 0, 1), 5), ((2, -3), 6), ((1, 0, 1), 6)])
def test_p1_matches_the_letter_oracle_on_honest_witnesses(q, K):
    pair = wt.build_witness(q, K)
    assert pair.report.p1 == _oracle_p1(pair) == wt.PropertyResult(True, "")


@pytest.fixture(scope="module")
def pair_K6():
    return wt.build_witness((1, 0, 1), 6)._replace(report=None)


# q_and_n_changed sets n_7, which a K = 6 witness does not hold
@pytest.mark.parametrize("name", sorted(set(TAMPERED) - {"q_and_n_changed"}))
def test_p1_matches_the_letter_oracle_on_tampered_witnesses(pair_K6, name):
    bad = TAMPERED[name](pair_K6)
    assert wt.verify_witness(bad).p1 == _oracle_p1(bad)


def _count_work(monkeypatch):
    """Counters of the row work from here on: the row slots that nonzero
    reads (all of a dense row, the stored entries of a packed one), apart
    from those that packing scans once for their entries, and the
    multiply-adds in mul_rows."""
    counts = {"slots": 0, "packing": 0, "madds": 0}
    nonzero, mul_rows, pack = mg.nonzero, mg.mul_rows, mg._pack
    packing = []

    def counting_nonzero(row):
        n = len(row[0]) if type(row) is tuple else len(row)
        counts["packing" if packing else "slots"] += n
        return nonzero(row)

    def counting_pack(row):
        packing.append(row)
        try:
            return pack(row)
        finally:
            packing.pop()

    def counting_mul_rows(acc, p, q, j, scale):
        counts["madds"] += len(p[0]) * len(q[0])
        mul_rows(acc, p, q, j, scale)

    for mod in (mg, fl):
        monkeypatch.setattr(mod, "nonzero", counting_nonzero)
        monkeypatch.setattr(mod, "mul_rows", counting_mul_rows)
    monkeypatch.setattr(mg, "_pack", counting_pack)
    return counts


def test_build_work_counts(monkeypatch):
    # for one build from empty caches; deterministic, so a bound that moves
    # up means work that is done twice again.  Before rows were shared and
    # deep powers took the closed form: 848,698 slots and 336,332
    # multiply-adds; then 531,070 and 273,131 while words were evaluated at
    # K + 1; then, at K, 375,690 and 171,078; then, with
    # present_with_generators checking its result on rows, 367,986 and
    # 162,000.  Then, with the leading Lie term presented in one worklist
    # pass, not one Jacobi recursion and two read-offs per basis word:
    # 224,814 and 128,562 (the build had come down to 165,136 and 48,624
    # under those bounds).  Then, with the sparse rows of the deep values
    # the evaluator stores packed: 162,685 and 48,624, and apart from them
    # the 63,296 slots that packing scans.  Now that the substitution check
    # reads the row the leading term was read off instead of expanding the
    # term again: 39,794 multiply-adds.  Now that each leading term is
    # certified by the Dynkin test and read on the Lyndon masks, so that no
    # word of weight K + 1 is expanded, and the build's own verify takes the
    # products R and S from the build: 76,973 slots and 29,244 multiply-adds.
    counts = _count_work(monkeypatch)
    # an empty workspace: its basis holds no expansions, its evaluator no rows
    wt._workspace.cache_clear()
    assert wt.build_witness((1, 0, 1, 1), 9).report.ok
    assert counts["slots"] <= 76_973
    assert counts["packing"] <= 63_296
    assert counts["madds"] <= 29_244
    # the build and its verify share one workspace and evaluate every word
    # at K, nothing at K + 1
    assert wt._workspace.cache_info().misses == 1
    assert {g.trunc for g in wt._workspace(9).magnus._cache.values()} == {9}


def test_build_expands_no_word_of_the_top_weight():
    # the leading terms of weight K + 1 are read on the Lyndon masks, and
    # only alpha, beta and the factors of the presented words are expanded
    wt._workspace.cache_clear()
    assert wt.build_witness((1, 0, 1, 1), 9).report.ok
    expanded = wt._workspace(9).basis._expansions
    assert expanded and max(map(len, expanded)) == 9


def test_verify_of_a_tampered_copy_matches_a_cold_verify():
    # a build hands its products R and S to its own verify, keyed by the
    # texts of the r- and s-products: a copy with other words recomputes
    # them, and one with the same words (n changed) may read them
    wt._workspace.cache_clear()
    pair = wt.build_witness((1, 0, 1, 1), 9)
    last = len(pair.r_factors) - 1
    copies = [_tamper_factor(pair, which, index) for which in ("r_factors", "s_factors") for index in (0, last)]
    copies.append(pair._replace(n=pair.n[:-1] + (pair.n[-1] + 1,), report=None))
    for bad in copies:
        assert wt.build_witness(pair.q, 9) == pair
        warm = wt.verify_witness(bad)
        wt._workspace.cache_clear()
        assert wt.verify_witness(bad) == warm and not warm.ok


def test_verify_work_counts(monkeypatch):
    # the same counters for a cold verify of a K = 9 file, from an empty
    # workspace: 32,837 slots, the 63,296 that packing scans, and 15,065
    # multiply-adds, as many as when each product was folded pairwise
    text = json.dumps(wt.build_witness((1, 0, 1, 1), 9).to_json())
    pair = wt.WitnessPair.from_json(json.loads(text))
    counts = _count_work(monkeypatch)
    wt._workspace.cache_clear()
    assert wt.verify_witness(pair).ok
    assert counts["slots"] <= 32_837
    assert counts["packing"] <= 63_296
    assert counts["madds"] <= 15_065


def test_build_row_memory():
    # bytes that the distinct rows in the evaluator cache hold after one
    # K = 10 build from an empty cache (the lists and arrays, not the int
    # objects of a list); deterministic, so a bound that moves up means rows
    # that are copied again or stored dense.  Counted in dense slots while
    # each power of a deep element held a scaled copy of its base's rows:
    # 892,176; as views: 382,224 slots, which hold 3,101,120 bytes.  With the
    # sparse rows of deep values packed: 1,599,120 bytes.  With each product
    # one fold, whose scaled and packed rows are added into a row it made
    # and which keeps its exact length: 1,597,776.
    wt._workspace.cache_clear()
    assert wt.build_witness((1, 0, 1, 1, 0, 1), 10).report.ok
    cached = wt._workspace(10).magnus._cache.values()
    held = {id(r): _row_bytes(r) for g in cached for r in g._deg if r is not None}
    assert sum(held.values()) <= 1_597_776


def _row_bytes(row):
    """Bytes of a dense row's list, or of a packed row's masks and
    coefficients."""
    if type(row) is list:
        return sys.getsizeof(row)
    return sys.getsizeof(row[0]) + sys.getsizeof(row[1])


# --- caches: one owner each ---------------------------------------------------


def test_no_unbounded_cache_in_the_package():
    # the Lyndon-word memos live on their HallBasis and the evaluators in the
    # one-slot workspace, so no functools cache may grow without bound
    # the package loads most of its modules on first use: import every one
    import nilwitness

    for info in pkgutil.iter_modules(nilwitness.__path__):
        importlib.import_module(f"nilwitness.{info.name}")

    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("nilwitness."):
            continue
        namespaces = [vars(module)] + [
            vars(v) for v in vars(module).values() if isinstance(v, type)
        ]
        for ns in namespaces:
            for key, value in ns.items():
                if hasattr(value, "cache_parameters"):
                    found[f"{name}.{key}"] = value.cache_parameters()["maxsize"]
    assert None not in found.values(), found
    assert found["nilwitness.witness._workspace"] == 1


def test_workspace_lives_until_a_build_at_another_K():
    wt._workspace.cache_clear()
    assert wt.build_witness((1, 0, 1), 9).report.ok
    # the build made the one workspace, and its own verify reused it
    info = wt._workspace.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    ws = wt._workspace(9)
    refs = [weakref.ref(getattr(ws, name)) for name in ("basis", "magnus", "lamp")]
    del ws
    assert wt.build_witness((1, 0, 1), 10).report.ok
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_verify_builds_no_basis(monkeypatch):
    # a verify reads no Lie term, so its workspace never builds the basis;
    # a build reads it at every step and builds it once
    pair = wt.build_witness((1, 0, 1), 6)
    calls = []

    def counting_hall_basis(max_weight):
        calls.append(max_weight)
        return fl.hall_basis(max_weight)

    monkeypatch.setattr(wt, "hall_basis", counting_hall_basis)
    wt._workspace.cache_clear()
    assert wt.verify_witness(pair).ok
    assert calls == []
    wt._workspace.cache_clear()
    assert wt.build_witness((1, 0, 1), 6) == pair
    assert calls == [7]


# --- the memo of each step's lifts --------------------------------------------


def _count_presentations(monkeypatch):
    calls = []

    def counting_present(t):
        calls.append(t)
        return fl.present_with_generators(t)

    monkeypatch.setattr(wt, "present_with_generators", counting_present)
    return calls


def test_builds_on_one_workspace_match_cold_builds():
    # in any order, a build that takes steps from the memo writes the bytes
    # of the same build from an empty workspace
    qs = list(itertools.product((0, 1), repeat=4))
    random.Random(5).shuffle(qs)
    wt._workspace.cache_clear()
    warm = [json.dumps(wt.build_witness(q, 9).to_json()) for q in qs]
    for q, text in zip(qs, warm):
        wt._workspace.cache_clear()
        assert json.dumps(wt.build_witness(q, 9).to_json()) == text, q


@pytest.mark.parametrize("K,length,presented", [(9, 4, 22), (8, 3, 15)])
def test_sweep_presents_each_prefix_once(monkeypatch, K, length, presented):
    # every 0/1 sequence of the length, from an empty workspace: without the
    # memo the builds made 68 and 27 presentations
    calls = _count_presentations(monkeypatch)
    wt._workspace.cache_clear()
    for q in itertools.product((0, 1), repeat=length):
        assert wt.build_witness(q, K).report.ok
    assert len(calls) == presented


def test_trailing_zeros_share_every_step(monkeypatch):
    calls = _count_presentations(monkeypatch)
    wt._workspace.cache_clear()
    short = wt.build_witness((1,), 9)
    made, steps = len(calls), len(wt._workspace(9).lifts)
    assert made > 0 and steps == 7
    long = wt.build_witness((1, 0, 0, 0), 9)
    assert (len(calls), len(wt._workspace(9).lifts)) == (made, steps)
    assert long._replace(q=short.q) == short


def test_memo_starts_empty_at_another_K(monkeypatch):
    # a build at K = 8 presents as many terms after a build at K = 9 as from
    # an empty workspace, and the memo at 8 holds only its own steps
    calls = _count_presentations(monkeypatch)
    wt._workspace.cache_clear()
    assert wt.build_witness((1, 0, 1), 8).report.ok
    cold = len(calls)
    assert wt.build_witness((1, 0, 1), 9).report.ok
    calls.clear()
    assert wt.build_witness((1, 0, 1), 8).report.ok
    assert len(calls) == cold > 0
    assert sorted(wt._workspace(8).lifts) == [
        (k, tuple(wt._q_at((1, 0, 1), i) for i in range(1, (k - 1) // 2 + 1)))
        for k in range(2, 8)
    ]
