"""The witness constructor: base case, inductive properties, determinism,
tamper detection, and the two-path computation of the exponent series."""

import dataclasses
import gc
import json
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


def test_json_roundtrip():
    pair = wt.build_witness((1, 0, 1), 7)
    data = json.loads(json.dumps(pair.to_json()))
    back = wt.WitnessPair.from_json(data)
    assert back.q == pair.q and back.K == pair.K and back.n == pair.n
    assert back.r_factors == pair.r_factors
    assert back.s_factors == pair.s_factors
    assert wt.verify_witness(back).ok


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
    return dataclasses.replace(pair, **{which: tuple(factors)}, report=None)


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
    return dataclasses.replace(pair, s_factors=pair.s_factors[:-2])


MUTATIONS = {
    "truncate": lambda p: dataclasses.replace(
        p, r_factors=p.r_factors[:2], s_factors=p.s_factors[:2], n=p.n[:2]
    ),
    "cut_s_only": _cut_s_only,
    "reorder": lambda p: dataclasses.replace(
        p, r_factors=p.r_factors[::-1], s_factors=p.s_factors[::-1]
    ),
    "swap_r_s": lambda p: dataclasses.replace(
        p, r_factors=p.s_factors, s_factors=p.r_factors
    ),
    "raise_K": lambda p: dataclasses.replace(p, K=p.K + 1),
    "lower_K": lambda p: dataclasses.replace(p, K=p.K - 1),
    "negative_K": lambda p: dataclasses.replace(p, K=-1),
    "change_n": lambda p: dataclasses.replace(p, n=p.n[:-1] + (p.n[-1] + 1,)),
}


@pytest.fixture(scope="module")
def pair_K9():
    pair = wt.build_witness((1, 0, 1, 1), 9)
    assert pair.report.ok
    return dataclasses.replace(pair, report=None)


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
    return dataclasses.replace(pair, q=tuple(q), n=tuple(n))


def test_controlled_exponents_read_from_image(pair_K9):
    # q and the stored n changed together: only the computed lamplighter
    # image still carries the true controlled exponent n_7 = q_3 = 1
    rep = wt.verify_witness(_q_and_n_changed(pair_K9))
    assert not rep.p3.ok
    assert "n_7 = 1, expected 0" in rep.p3.detail


def _no_factors(K):
    return lambda p: dataclasses.replace(p, K=K, r_factors=(), s_factors=(), n=())


TAMPERED = {
    **MUTATIONS,
    "untouched": lambda p: p,
    "q_and_n_changed": _q_and_n_changed,
    "last_r_times_b": lambda p: dataclasses.replace(
        p, r_factors=p.r_factors[:-1] + (wd.product(p.r_factors[-1], wd.B),)
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
    return dataclasses.replace(
        pair, K=K, r_factors=pair.r_factors[:cut], s_factors=pair.s_factors[:cut], n=pair.n[:cut]
    )


def test_honest_verify_reads_one_defect(monkeypatch):
    pair = dataclasses.replace(wt.build_witness((1, 0, 1, 1, 0), 11), report=None)
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
        return dataclasses.replace(pair, r_factors=pair.r_factors[:-1] + (last,))
    which = draw(_SIDES)
    factors = list(getattr(pair, which))
    i = draw(index)
    if kind == "swap":
        j = draw(index)
        factors[i], factors[j] = factors[j], factors[i]
    else:
        del factors[i]
    return dataclasses.replace(pair, **{which: tuple(factors)})


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_defect_report_matches_the_per_step_loop_on_mutations(pair_K9, data):
    bad = data.draw(_mutations(pair_K9))
    assert wt.verify_witness(bad) == _per_step_report(bad)


def test_build_work_counts(monkeypatch):
    # dense row slots that nonzero scans, and multiply-adds in mul_rows, for
    # one build from empty caches; deterministic, so a bound that moves up
    # means work that is done twice again.  Before rows were shared and deep
    # powers took the closed form: 848,698 slots and 336,332 multiply-adds;
    # then 531,070 and 273,131 while words were evaluated at K + 1; then, at
    # K, 375,690 and 171,078; then, with present_with_generators checking its
    # result on rows, 367,986 and 162,000.  Now that it presents the leading
    # Lie term in one worklist pass, not one Jacobi recursion and two
    # read-offs per basis word: 224,814 and 128,562.
    counts = {"slots": 0, "madds": 0}
    nonzero, mul_rows = mg.nonzero, mg.mul_rows

    def counting_nonzero(row):
        counts["slots"] += len(row)
        return nonzero(row)

    def counting_mul_rows(acc, p, q, j, scale):
        counts["madds"] += len(p[0]) * len(q[0])
        mul_rows(acc, p, q, j, scale)

    for mod in (mg, fl):
        monkeypatch.setattr(mod, "nonzero", counting_nonzero)
        monkeypatch.setattr(mod, "mul_rows", counting_mul_rows)
    # an empty workspace: its basis holds no expansions, its evaluator no rows
    wt._workspace.cache_clear()
    assert wt.build_witness((1, 0, 1, 1), 9).report.ok
    assert counts["slots"] <= 224_814
    assert counts["madds"] <= 128_562
    # the build and its verify share one workspace and evaluate every word
    # at K, nothing at K + 1
    assert wt._workspace.cache_info().misses == 1
    assert {g.trunc for g in wt._workspace(9).magnus._cache.values()} == {9}


def test_build_row_memory():
    # distinct row slots that the evaluator cache holds after one K = 10
    # build from an empty cache; deterministic, so a bound that moves up
    # means rows that are copied again.  While each power of a deep element
    # held a scaled copy of its base's rows: 892,176; as views: 382,224.
    wt._workspace.cache_clear()
    assert wt.build_witness((1, 0, 1, 1, 0, 1), 10).report.ok
    cached = wt._workspace(10).magnus._cache.values()
    slots = {id(r): len(r) for g in cached for r in g._deg if r is not None}
    assert sum(slots.values()) <= 382_224


# --- caches: one owner each ---------------------------------------------------


def test_no_unbounded_cache_in_the_package():
    # the Lyndon-word memos live on their HallBasis and the evaluators in the
    # one-slot workspace, so no functools cache may grow without bound
    import nilwitness.cli  # noqa: F401  (loads every module of the package)

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
