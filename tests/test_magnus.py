"""Tests of the truncated-series model of the free group: the embedding is a
homomorphism, the lower-central weight reads off degrees, leading terms are
Lie elements, and the group-level alternating identity holds."""

import copy
import functools
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nilwitness import freelie as fl
from nilwitness import lamplighter as lp
from nilwitness import magnus as mg
from nilwitness import witness as wt
from nilwitness import words as wd

from letterwords import GroupWord, to_group_word

GOLDEN = Path(__file__).parent / "golden"

# --- independent oracle: direct polynomial arithmetic over word dicts -------


def poly_mul(p, q, trunc):
    # q's words grouped by length, so that only pairs within trunc are visited
    by_len = {}
    for w2, c2 in q.items():
        by_len.setdefault(len(w2), []).append((w2, c2))
    out = {}
    for w1, c1 in p.items():
        for n in range(trunc - len(w1) + 1):
            for w2, c2 in by_len.get(n, ()):
                key = w1 + w2
                out[key] = out.get(key, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def poly_inverse(p, trunc):
    # geometric series in (p - 1)
    u = {w: c for w, c in p.items() if w}
    out = {"": 1}
    term = {"": 1}
    for _ in range(trunc):
        term = poly_mul({w: -c for w, c in u.items()}, term, trunc)
        for w, c in term.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def poly_pow(p, n, trunc):
    """p^n by repeated products, of p^-1 when n < 0."""
    base = p if n >= 0 else poly_inverse(p, trunc)
    out = {"": 1}
    for _ in range(abs(n)):
        out = poly_mul(out, base, trunc)
    return out


def oracle_eval(word: str, trunc: int):
    """Literal evaluation of a plain letter word, independent arithmetic."""
    gens = {
        "a": {"": 1, "A": 1},
        "b": {"": 1, "B": 1},
    }
    gens["A"] = poly_inverse(gens["a"], trunc)
    gens["B"] = poly_inverse(gens["b"], trunc)
    out = {"": 1}
    for ch in word:
        out = poly_mul(out, gens[ch], trunc)
    return out


def as_dict(g: mg.MagnusElement):
    out = {"": 1}
    for d in range(1, g.trunc + 1):
        for w, c in g.degree_terms(d).items():
            out[w.upper()] = c
    return out


# --- evaluation ------------------------------------------------------------


def test_eval_empty_and_cancelling_words():
    assert mg.eval_word(str(GroupWord.parse("aA")), 5).is_one()
    assert mg.eval_word(str(GroupWord.identity()), 5).is_one()


def test_eval_ab_expansion():
    g = mg.eval_word(str(GroupWord.parse("ab")), 4)
    assert as_dict(g) == {"": 1, "A": 1, "B": 1, "AB": 1}


def test_eval_commutator_against_oracle():
    g = mg.eval_word("[a,b]", 5)
    assert as_dict(g) == oracle_eval("ABab", 5)
    assert g.coefficient("AB") == 1 and g.coefficient("BA") == -1


def test_expr_eval_matches_letterwise_eval():
    rng = random.Random(3)
    exprs = [
        "[a,b]",
        "[a,b,b] a^2",
        "[a,[a,b]]^-2 [a,_3 b]",
        "[b,a] B [a,b]^3",
    ]
    for text in exprs:
        expr = wd.parse_word_expr(text)
        assert mg.eval_word(expr, 7) == mg.eval_word(str(to_group_word(expr)), 7)


def test_eval_is_homomorphism_on_random_words():
    rng = random.Random(4)
    for _ in range(40):
        u = GroupWord.from_letters(
            rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 12))
        )
        v = GroupWord.from_letters(
            rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 12))
        )
        assert mg.eval_word(str(u * v), 6) == mg.eval_word(str(u), 6) * mg.eval_word(str(v), 6)


# --- every kernel operation against the oracle on random plain words -------

_CHARS = {1: "a", -1: "A", 2: "b", -2: "B"}
_letters = st.lists(st.sampled_from(sorted(_CHARS)), max_size=10)


def _text(letters):
    return "".join(_CHARS[x] for x in letters)


def _inverse_text(letters):
    return _text([-x for x in reversed(letters)])


# commutators of weight 2 to 5: at truncation below twice its weight an
# element is deep, and its powers are views on its rows
_DEEP_BASES = ["[a,b]", "[a,b,a]", "[a,b,b]", "[a,b,a,b]", "[a,_3 b]", "[[a,b],[a,b,b]]"]
_operands = st.one_of(
    _letters, st.tuples(st.sampled_from(_DEEP_BASES), st.integers(-3, 3).filter(bool))
)


def _operand(drawn, trunc):
    """An element and its oracle dict: a plain word, or a power of a basis
    commutator (a view when the commutator is deep at trunc)."""
    if isinstance(drawn, list):
        g = mg.eval_word(str(GroupWord(tuple(drawn))), trunc)
        return g, oracle_eval(_text(drawn), trunc)
    text, n = drawn
    base = wd.parse_word_expr(text)
    g = mg.MagnusEvaluator(trunc).eval(base) ** n
    letters = to_group_word(base).letters
    return g, poly_pow(_oracle_cached(_text(letters), trunc), n, trunc)


@functools.lru_cache(maxsize=None)
def _oracle_cached(word, trunc):
    return oracle_eval(word, trunc)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), _operands, _operands)
def test_kernel_operations_match_oracle(trunc, u, v):
    (g, og), (h, oh) = _operand(u, trunc), _operand(v, trunc)
    ig, ih = poly_inverse(og, trunc), poly_inverse(oh, trunc)
    assert as_dict(g) == og
    assert as_dict(g * h) == poly_mul(og, oh, trunc)
    assert as_dict(g.inverse()) == ig
    for n in range(-3, 4):
        assert as_dict(g**n) == poly_pow(og, n, trunc)
    comm = poly_mul(poly_mul(ig, ih, trunc), poly_mul(og, oh, trunc), trunc)
    assert as_dict(mg.commutator(g, h)) == comm
    for letter, ch in _CHARS.items():
        x = oracle_eval(ch, trunc)
        assert as_dict(g.mul_letter(letter)) == poly_mul(og, x, trunc)
        inv_x = oracle_eval(_CHARS[-letter], trunc)
        assert as_dict(g.conjugate_letter(letter)) == poly_mul(poly_mul(inv_x, og, trunc), x, trunc)


# --- the n-ary product: one fold, against the pairwise one and the oracle ---


def _nonzero_degrees(g):
    return [d for d in range(1, g.trunc + 1) if g.degree_terms(d)]


# weight-6 commutators, whose rows the evaluator cache packs from degree 6
_packed_operands = st.tuples(st.sampled_from(["[a,_5 b]", "[a,_4 b,a]"]), st.integers(-3, 3).filter(bool))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.lists(_operands | _packed_operands, min_size=1, max_size=5), st.data())
def test_product_of_matches_the_pairwise_fold_and_oracle(trunc, drawn, data):
    # plain words are shallow, powers of basis commutators deep views, some
    # on packed rows; a part next to its inverse cancels down to zero rows
    parts = [_operand(u, trunc) for u in drawn]
    if data.draw(st.booleans()):
        g, og = parts[data.draw(st.integers(0, len(parts) - 1))]
        parts.insert(data.draw(st.integers(0, len(parts))), (g.inverse(), poly_inverse(og, trunc)))
    values = [g for g, _ in parts]
    got = mg.MagnusElement.product_of(values)
    want = functools.reduce(lambda p, q: poly_mul(p, q, trunc), [o for _, o in parts])
    assert as_dict(got) == want
    assert got == functools.reduce(lambda g, h: g * h, values)
    # a row that cancelled is stored as None, as every element stores it
    assert [d for d in range(1, trunc + 1) if got._deg[d] is not None] == _nonzero_degrees(got)


def test_product_of_one_part_and_of_parts_that_cancel():
    T = 9
    ev = mg.MagnusEvaluator(T)
    g, h = (ev.eval(wd.parse_word_expr(t)) for t in ("[a,_5 b]^7 [a,_6 b]^-2", "a b^-1 [a,b]"))
    assert 2 * g._weight() > T and any(type(r) is tuple for r in g._deg)
    # one part: its rows, shared, or scaled for a view
    one = mg.MagnusElement.product_of([g])
    assert one == g and all(r is s for r, s in zip(one._deg, g._deg))
    view = mg.MagnusElement.product_of([g**-3])
    assert view == g**-3 and view._scale == 1 and view.degree_terms(9) == (g**-3).degree_terms(9)
    assert mg.MagnusElement.product_of((h, g)) == h * g
    # every row cancels, deep or shallow, packed or scaled
    for parts in ([g, g.inverse()], [g**3, g, g**-4], [h, g, g**-1, h.inverse()]):
        assert mg.MagnusElement.product_of(parts)._deg == [None] * (T + 1)
    # degree 2 cancels and the rest does not
    left, right = ev.eval(wd.parse_word_expr("[a,b]")), ev.eval(wd.parse_word_expr("[a,b]^-1 [a,b,b]"))
    prod = mg.MagnusElement.product_of([left, right, g])
    assert prod._deg[2] is None and prod == left * right * g
    assert _nonzero_degrees(prod) == [d for d in range(1, T + 1) if prod._deg[d] is not None]


def test_product_of_rejects_mismatched_truncations():
    g, h = mg.eval_word("a", 4), mg.eval_word("b", 5)
    for parts in ([g, h], [g, g, h], [h, g.truncate(4), g]):
        with pytest.raises(ValueError, match="mismatched truncation"):
            mg.MagnusElement.product_of(parts)


# --- a power of a deep element is a view on its rows -------------------------


def _deep_element():
    """A deep element at truncation 7: weight 4, with rows in degrees 4-7."""
    g = mg.eval_word("[a,_3 b] [a,b,a,b]^-2 [[a,b],[a,b,a]]", 7)
    assert 2 * g._weight() > g.trunc and all(g._deg[4:])
    return g


def _scaled_copy(g, n):
    return mg.MagnusElement(g.trunc, [r and [n * c for c in r] for r in g._deg])


def test_deep_power_shares_its_base_rows():
    g = _deep_element()
    view = g**5
    for d in range(1, g.trunc + 1):
        assert view._deg[d] is g._deg[d]
    assert (view**-3)._deg[4] is g._deg[4]
    assert view.truncate(5)._deg[5] is g._deg[5]


@pytest.mark.parametrize("n", [5, -1, -4])
def test_deep_power_reads_as_its_scaled_copy(n):
    g = _deep_element()
    view, copy_ = g**n, _scaled_copy(g, n)
    assert view == copy_ and copy_ == view and hash(view) == hash(copy_)
    assert view != g and view != g ** (n + 1)
    for d in range(4, g.trunc + 1):
        assert view.degree_terms(d) == copy_.degree_terms(d)
        for m in range(1 << d):
            w = mg.mask_word(m, d).upper()
            assert view.coefficient(w) == copy_.coefficient(w) == n * g.coefficient(w)
    for t in range(1, g.trunc + 1):
        assert view.truncate(t) == copy_.truncate(t)
    basis = fl.hall_basis(g.trunc)
    lie = mg.leading_lie(view, basis)
    assert lie == mg.leading_lie(g, basis).scale(n)
    # the row it was read off, with the scale applied
    assert lie.row == basis._rows(lie.coeffs)[4]
    for letter in (1, -1, 2, -2):
        assert view.mul_letter(letter) == copy_.mul_letter(letter)
        assert view.conjugate_letter(letter) == copy_.conjugate_letter(letter)
    others = [mg.eval_word(w, g.trunc) for w in ("a", "b^-1 a", "[a,b,b]")] + [g**2]
    for h in others:
        assert view * h == copy_ * h and h * view == h * copy_
        assert mg.commutator(view, h) == mg.commutator(copy_, h)
        assert mg.commutator(h, view) == mg.commutator(h, copy_)


def test_powers_of_views_compose():
    g = _deep_element()
    one = mg.MagnusElement.one(g.trunc)
    assert (g**3) ** -2 == g**-6
    assert (g**-6)._deg is g._deg
    for n in (1, 2, 7, -3):
        assert g**n * g**-n == one
        assert (g**n).inverse() == g**-n
    assert (g**4) ** 0 == one


def test_scaled_rows_of_a_shallow_element_power_by_the_series():
    # no operation makes a view that is not deep, but the binomial series
    # reads the scale all the same: u^j is scale^j times the rows' j-th power
    g = mg.eval_word("[a,b] b a^-2", 6)
    view, copy_ = mg.MagnusElement._of(6, g._deg, 3), _scaled_copy(g, 3)
    for n in (-2, -1, 2, 3):
        assert view**n == copy_**n


# --- the row kernel against a dict oracle, in both loop orders -------------


def _oracle_mul(p, i, q, j, scale):
    """scale * P * Q by concatenating words, P of degree i and Q of degree j
    given as (masks, coefficients)."""
    out = {}
    for m1, c1 in zip(*p):
        for m2, c2 in zip(*q):
            w = _word(m1, i) + _word(m2, j)
            out[w] = out.get(w, 0) + scale * c1 * c2
    return out


def _word(mask, d):
    return mg.mask_word(mask, d) if d else ""


# (degree of P, entries of P, degree of Q, entries of Q): P longer, shorter
# and equal, each side alone with one entry, and the degree-0 unit
_SHAPES = [(4, 9, 3, 3), (3, 3, 4, 9), (3, 5, 3, 5), (5, 1, 4, 7), (4, 7, 1, 1),
           (1, 1, 1, 1), (0, 1, 5, 6), (5, 6, 0, 1)]


def _draw_rows(data, i, n_p, j, n_q):
    """P of degree i with n_p entries, Q of degree j with n_q, and a start
    row of degree i + j for the kernel to add into."""

    def entries(d, n):
        masks = sorted(data.draw(st.sets(st.integers(0, (1 << d) - 1), min_size=n, max_size=n)))
        coeffs = data.draw(st.lists(st.integers(-99, 99).filter(bool), min_size=n, max_size=n))
        return masks, coeffs

    p, q = entries(i, n_p), entries(j, n_q)
    start = data.draw(st.lists(st.integers(-5, 5), min_size=1 << (i + j), max_size=1 << (i + j)))
    return p, q, start


@pytest.mark.parametrize("i, n_p, j, n_q", _SHAPES)
@settings(max_examples=20, deadline=None)
@given(data=st.data(), scale=st.sampled_from([1, -1, 2, -3, 10**20]))
def test_mul_rows_matches_dict_oracle(i, n_p, j, n_q, data, scale):
    p, q, start = _draw_rows(data, i, n_p, j, n_q)
    acc = list(start)
    mg.mul_rows(acc, p, q, j, scale)
    added = {_word(m, i + j): c - c0 for m, (c, c0) in enumerate(zip(acc, start)) if c != c0}
    assert added == {w: c for w, c in _oracle_mul(p, i, q, j, scale).items() if c}


@pytest.mark.parametrize("i, n_p, j, n_q", _SHAPES)
@settings(max_examples=20, deadline=None)
@given(data=st.data(), scale=st.sampled_from([1, -1, 2, -3, 10**20, -(10**20)]))
def test_bracket_rows_is_PQ_then_minus_QP(i, n_p, j, n_q, data, scale):
    # one pass of the bracket kernel adds what the two products add
    p, q, start = _draw_rows(data, i, n_p, j, n_q)
    got, want = list(start), list(start)
    mg.bracket_rows(got, p, i, q, j, scale)
    mg.mul_rows(want, p, q, j, scale)
    mg.mul_rows(want, q, p, i, -scale)
    assert got == want


# --- rows are shared, never written -----------------------------------------


def test_shared_rows_are_never_written():
    # a K = 8 build fills an empty evaluator cache at truncation T = K = 8
    wt._workspace.cache_clear()
    wt.build_witness((1, 0, 1), 8)
    T = 8
    rng = random.Random(8)
    sample = rng.sample(list(wt._workspace(T).magnus._cache.values()), 12)
    assert {2 * g._weight() > T for g in sample} == {True, False}  # deep and shallow
    assert any(type(r) is tuple for g in sample for r in g._deg)  # packed rows
    for g in sample:
        for d, row in enumerate(g._deg[1:], 1):
            assert g.truncate(d)._deg[d] is row

    def exercise(operands):
        snapshot = [copy.deepcopy(g._deg) for g in operands]
        made = []
        for g in operands:
            peers = [h for h in operands if h.trunc == g.trunc]
            for h in rng.sample(peers, min(3, len(peers))):
                made += [g * h, mg.commutator(g, h), mg.MagnusElement.product_of([h, g, h, g])]
            made.append(mg.MagnusElement.product_of(rng.sample(peers, min(5, len(peers)))))
            made += [g**n for n in (2, 3, -1, -3)]
            made += [g.truncate(t) for t in range(1, g.trunc + 1)]
            for letter in (1, -1, 2, -2):
                made += [g.mul_letter(letter), g.conjugate_letter(letter)]
        assert [g._deg for g in operands] == snapshot
        return made

    # results share the rows of their operands, so they are operands in turn
    made = exercise(sample)
    exercise(sample + rng.sample(made, 40))


# --- packed rows: stored deep values keep their sparse rows as entries -------


def _dense_evaluator(trunc):
    """An evaluator whose cache packs nothing, so every row it makes stays
    dense: the same element in the other form."""
    ev = mg.MagnusEvaluator(trunc)
    ev._cache = dict(ev._cache)
    return ev


def _packed_degrees(g):
    return [d for d, r in enumerate(g._deg) if type(r) is tuple]


@pytest.mark.parametrize(
    "text",
    ["[a,_5 b]", "[a,_5 b]^-3", "[a,_4 b,a]^-3 [a,_5 b]^2", "[a,_5 b]^7 [a,_6 b]^-2"],
)
def test_packed_and_dense_forms_read_the_same(text):
    T = 9
    expr = wd.parse_word_expr(text)
    g, h = mg.MagnusEvaluator(T).eval(expr), _dense_evaluator(T).eval(expr)
    assert _packed_degrees(g) and not _packed_degrees(h)
    assert g == h and h == g and hash(g) == hash(h)
    assert g != h**2 and h**2 != g
    for d in range(1, T + 1):
        assert g.degree_terms(d) == h.degree_terms(d)
        for m in range(1 << d):
            w = mg.mask_word(m, d).upper()
            assert g.coefficient(w) == h.coefficient(w)
    basis = fl.hall_basis(T)
    assert mg.leading_lie(g, basis) == mg.leading_lie(h, basis)
    for x in [mg.eval_word(w, T) for w in ("a", "b", "[a,b]", "b^-1 a")] + [g**2]:
        assert g * x == h * x and x * g == x * h
        assert mg.commutator(g, x) == mg.commutator(h, x)
        assert mg.commutator(x, g) == mg.commutator(x, h)


def test_pack_threshold():
    # 64 slots with 15 nonzero (under a quarter) pack; with 16 they stay a list
    row = [0] * 64
    for m in range(15):
        row[4 * m + 1] = m - 7 or 100
    masks, coeffs, size = mg._pack(list(row))
    assert list(masks) == [4 * m + 1 for m in range(15)] and size == 64
    assert list(coeffs) == [m - 7 or 100 for m in range(15)]
    row[63] = 1
    assert mg._pack(row) is row
    # rows under 64 slots stay lists, sparse as they may be: at T = 5,
    # [a,_4 b] is deep and its one row has 5 of 32 slots nonzero
    g = mg.MagnusEvaluator(5).eval(wd.parse_word_expr("[a,_4 b]"))
    assert 2 * g._weight() > 5 and type(g._deg[5]) is list
    assert 4 * (32 - g._deg[5].count(0)) < 32
    # in a build's cache, a row of a deep value packs exactly when it has at
    # least 64 slots and under a quarter of them are nonzero
    wt._workspace.cache_clear()
    wt.build_witness((1, 0, 1), 8)
    kinds = set()
    for g in wt._workspace(8).magnus._cache.values():
        for d, r in enumerate(g._deg):
            if r is None:
                continue
            nnz = len(r[0]) if type(r) is tuple else len(r) - r.count(0)
            sparse = 1 << d >= 64 and 4 * nnz < 1 << d
            if 2 * g._weight() > g.trunc:
                assert (type(r) is tuple) == sparse
                kinds.add((type(r) is tuple, 1 << d >= 64))
            elif type(r) is tuple:
                # a shallow value holds a packed row only as its factor's
                assert sparse
    assert kinds == {(True, True), (False, True), (False, False)}


def test_mask_list_covers_every_witness_row():
    # a witness at the largest K reads rows up to degree K + 1: their scans
    # all select from the shared mask list
    assert mg._MASKS_CAP >= 1 << (wt.MAX_K + 1)


def test_mask_list_stays_within_its_cap(monkeypatch):
    # a row longer than the cap is scanned through the list in chunks of
    # cap slots: it finds the same masks, and the list never grows past the
    # cap
    monkeypatch.setattr(mg, "_MASKS", [])
    cap = mg._MASKS_CAP
    row = [0] * (2 * cap + 5)
    row[3] = row[cap] = row[2 * cap - 1] = row[-1] = -2
    masks = [3, cap, 2 * cap - 1, 2 * cap + 4]
    assert mg.nonzero(row) == (masks, [-2] * 4)
    assert mg._MASKS == list(range(cap))
    monkeypatch.setattr(mg, "_MASKS", [])
    assert list(mg._nonzero_masks(row[:cap])) == [3]
    assert mg._MASKS == list(range(cap))
    assert list(mg._nonzero_masks(row)) == masks
    assert len(mg._MASKS) == cap


def test_packed_rows_keep_coefficients_beyond_64_bits():
    # a product of deep powers with exponents near 2^70 has coefficients
    # that array('q') cannot hold: its packed rows keep them in a list
    T, N, M = 9, 2**70 + 3, -(2**69) - 5
    expr = wd.parse_word_expr(f"[a,_5 b]^{N} [a,_6 b]^{M}")
    g = mg.MagnusEvaluator(T).eval(expr)
    wide = [r for r in g._deg if type(r) is tuple and type(r[1]) is list]
    assert wide and max(abs(c) for r in wide for c in r[1]) >= 2**63
    assert g == _dense_evaluator(T).eval(expr)

    def deep_power(text, n):
        # 1 + u with u^2 = 0 at T, so (1 + u)^n = 1 + n u
        base = oracle_eval(_text(to_group_word(wd.parse_word_expr(text)).letters), T)
        u = {w: c for w, c in base.items() if w}
        assert u and poly_mul(u, u, T) == {}
        return {"": 1, **{w: n * c for w, c in u.items()}}

    assert as_dict(g) == poly_mul(deep_power("[a,_5 b]", N), deep_power("[a,_6 b]", M), T)


# --- group laws ------------------------------------------------------------


def _random_elements(trunc, rng, count):
    ev = mg.MagnusEvaluator(trunc)
    pool = ["[a,b]", "a", "b^-1 a", "[a,b,b]", "a b a", "[a,[a,b]] b"]
    out = []
    for _ in range(count):
        text = " ".join(rng.sample(pool, rng.randint(1, 3)))
        out.append(ev.eval(wd.parse_word_expr(text)))
    return out


@pytest.mark.parametrize("trunc", range(1, 13))
def test_group_axioms_at_each_truncation(trunc):
    rng = random.Random(trunc)
    one = mg.MagnusElement.one(trunc)
    for g, h, k in zip(*[_random_elements(trunc, rng, 4)] * 3):
        assert (g * h) * k == g * (h * k)
        assert g * g.inverse() == one and g.inverse() * g == one
        assert g * one == g and one * g == g


def test_mismatched_truncations_rejected():
    g = mg.eval_word("a", 4)
    h = mg.eval_word("b", 5)
    with pytest.raises(ValueError):
        g * h


def test_generator_rejects_unknown_names():
    for name in ("A", "B", "c", "", "ab"):
        with pytest.raises(ValueError, match="unknown generator"):
            mg.MagnusElement.generator(name, 3)


def test_commutator_of_element_with_itself():
    g = mg.eval_word("[a,b] a", 6)
    assert mg.commutator(g, g).is_one()


def test_commutator_word_vs_elements():
    ga = mg.eval_word(str(GroupWord.parse("a")), 6)
    gb = mg.eval_word(str(GroupWord.parse("b")), 6)
    assert mg.commutator(ga, gb) == mg.eval_word("[a,b]", 6)


# --- gamma weight ----------------------------------------------------------


def test_gamma_weight_of_identity_is_sentinel():
    assert mg.gamma_weight(mg.MagnusElement.one(6)) == mg.INFINITE_WEIGHT


def test_gamma_weight_examples():
    assert mg.gamma_weight(mg.eval_word("[a,b]", 6)) == 2
    assert mg.gamma_weight(mg.eval_word(wd.engel(5), 7)) == 6


def test_gamma_weight_superadditive_on_commutators():
    rng = random.Random(9)
    ev = mg.MagnusEvaluator(10)
    pool = ["a", "b", "[a,b]", "[a,b,b]", "[a,[a,b]]", "[a,_3 b]"]
    for _ in range(100):
        g = ev.eval(wd.parse_word_expr(rng.choice(pool)))
        h = ev.eval(wd.parse_word_expr(rng.choice(pool)))
        c = mg.commutator(g, h)
        assert mg.gamma_weight(c) >= min(
            mg.gamma_weight(g) + mg.gamma_weight(h), mg.INFINITE_WEIGHT
        )


# --- leading Lie terms -----------------------------------------------------


def test_leading_lie_of_basic_words():
    basis = fl.hall_basis(6)
    assert mg.leading_lie(mg.eval_word("[a,b]", 6), basis) == basis.from_words(
        {"ab": 1}
    )
    assert mg.leading_lie(mg.eval_word("[a,b,b]", 6), basis) == basis.from_words(
        {"abb": 1}
    )


def test_leading_lie_additive_in_lowest_degree():
    basis = fl.hall_basis(6)
    u = mg.eval_word("[a,b,b]", 6)
    v = mg.eval_word("[a,[a,b]]^2", 6)
    got = mg.leading_lie(u * v, basis)
    assert got == mg.leading_lie(u, basis) + mg.leading_lie(v, basis).scale(1)


def test_leading_lie_of_commutator_is_bracket_of_leading_terms():
    basis = fl.hall_basis(9)
    rng = random.Random(13)
    ev = mg.MagnusEvaluator(9)
    pool = ["a", "b", "[a,b]", "[a,b,b]", "[a,[a,b]]"]
    for _ in range(50):
        g = ev.eval(wd.parse_word_expr(rng.choice(pool)))
        h = ev.eval(wd.parse_word_expr(rng.choice(pool)))
        wg, wh = mg.gamma_weight(g), mg.gamma_weight(h)
        if wg is mg.INFINITE_WEIGHT or wh is mg.INFINITE_WEIGHT or wg + wh > 9:
            continue
        expected = fl.bracket(mg.leading_lie(g, basis), mg.leading_lie(h, basis))
        if expected.is_zero():
            continue
        assert mg.leading_lie(mg.commutator(g, h), basis) == expected


def test_leading_lie_needs_a_leading_weight_within_the_basis():
    with pytest.raises(ValueError, match="identity"):
        mg.leading_lie(mg.MagnusElement.one(6), fl.hall_basis(6))
    with pytest.raises(ValueError, match="exceeds basis truncation"):
        mg.leading_lie(mg.eval_word("[a,b,b,b]", 6), fl.hall_basis(3))


def test_truncate_cannot_extend():
    g = mg.eval_word("[a,b]", 5)
    with pytest.raises(ValueError, match="cannot extend truncation"):
        g.truncate(6)
    assert g.truncate(5) == g


def test_leading_lie_rejects_non_lie_data():
    basis = fl.hall_basis(4)
    g = mg.eval_word("a", 4)
    h = mg.eval_word("b", 4)
    bad = g * h  # degree-1 part a + b is fine, but degree-2 part AB is not
    deeper = mg.MagnusElement(4, [None, None, bad._deg[2], None, None])
    with pytest.raises(ValueError):
        mg.leading_lie(deeper, basis)


def test_leading_lie_rejects_lone_AB():
    basis = fl.hall_basis(4)
    lone = mg.MagnusElement(4, [None, None, [0, 1, 0, 0], None, None])
    assert lone.degree_terms(2) == {"ab": 1}
    with pytest.raises(ValueError):
        mg.leading_lie(lone, basis)
    lie = mg.MagnusElement(4, [None, None, [0, 1, -1, 0], None, None])
    assert mg.leading_lie(lie, basis) == basis.from_words({"ab": 1})


def test_leading_lie_rejects_a_row_off_at_a_non_lyndon_mask():
    # the Lyndon masks alone cannot tell these rows from a Lie row: only the
    # Dynkin test can, at a mask that is a rotation of a Lyndon word
    rng = random.Random(7)
    basis = fl.hall_basis(11)
    for d in range(3, 12):
        words = basis.words_of_weight(d)
        coeffs = {w: rng.randint(-3, 3) or 1 for w in rng.sample(words, min(3, len(words)))}
        row = basis._rows(coeffs)[d]
        g = mg.MagnusElement(d, [None] * d + [row])
        assert mg.leading_lie(g, basis) == basis.from_words(coeffs)
        w = next(iter(coeffs))
        off = mg.word_mask(w[1:] + w[0])
        assert off not in basis._masks[d].values()
        bad = list(row)
        bad[off] += 1
        with pytest.raises(ValueError, match="not a Lie element"):
            mg.leading_lie(mg.MagnusElement(d, [None] * d + [bad]), basis)


# --- the group-level alternating identity -----------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_identity(n):
    assert mg.check_group_identity(n)


# --- parser and word canonical form ----------------------------------------


def test_parser_roundtrip():
    for text in ("[a,b,b]", "[a,_4 b]", "a^-3 [b,a]^2 B", "[a,[a,b]]"):
        expr = wd.parse_word_expr(text)
        assert wd.parse_word_expr(str(expr)) == expr


def _nonempty(exprs):
    return exprs.filter(lambda e: not (isinstance(e, wd.Prod) and not e.parts))


def _exprs(depth):
    """Expression trees over a, b of depth <= `depth`."""
    leaf = st.sampled_from([wd.A, wd.B])
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.builds(wd.power, sub, st.integers(-3, 3)),
        st.builds(lambda parts: wd.product(*parts), st.lists(sub, max_size=3)),
        st.builds(wd.Comm, _nonempty(sub), _nonempty(sub)),
    )


@settings(max_examples=60, deadline=None)
@given(_exprs(3), st.integers(1, 6))
def test_expression_walk_matches_letter_loops(expr, trunc):
    assert wd.parse_word_expr(str(expr)) == expr
    word = str(to_group_word(expr))
    assert mg.MagnusEvaluator(trunc).eval(expr) == mg.eval_word(word, trunc)
    for tag in ("Z", "Q", "Zp:5"):
        assert lp.phi_word(expr, tag, trunc) == lp.phi_word(word, tag, trunc)


# --- commutators at unequal truncations --------------------------------------

_sides = st.one_of(
    _nonempty(_exprs(2)), st.builds(wd.Comm, _nonempty(_exprs(1)), _nonempty(_exprs(1)))
)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), _sides, _sides, st.sampled_from(["g", "h", "both"]))
def test_commutator_reads_each_side_below_the_other_weight(T, u, v, short):
    # [g, h] at T reads g only up to T - weight(h) and h up to T - weight(g)
    lu, lv = (to_group_word(x).letters for x in (u, v))
    g, h = (mg.MagnusEvaluator(T).eval(x) for x in (u, v))
    assume(not g.is_one() and not h.is_one())
    tg = T - h._weight() if short in ("g", "both") else T
    th = T - g._weight() if short in ("h", "both") else T
    got = mg.commutator(g.truncate(tg), h.truncate(th))
    top = max(tg, th)
    assert got.trunc == top
    assert got == mg.commutator(g, h).truncate(top)
    word = _inverse_text(lu) + _inverse_text(lv) + _text(lu) + _text(lv)
    assert as_dict(got) == oracle_eval(word, top)
    # one degree shorter than that, against the other side at T, raises
    if T - h._weight() >= 1:
        with pytest.raises(ValueError):
            mg.commutator(g.truncate(T - h._weight() - 1), h)
    if T - g._weight() >= 1:
        with pytest.raises(ValueError):
            mg.commutator(g, h.truncate(T - g._weight() - 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), _sides, _sides, st.sampled_from(["g", "h"]))
def test_commutator_method_is_the_module_function(T, u, v, short):
    g, h = (mg.MagnusEvaluator(T).eval(x) for x in (u, v))
    if short == "g":
        g = g.truncate(max(T - h._weight(), 1))
    else:
        h = h.truncate(max(T - g._weight(), 1))
    assert g.commutator(h) == mg.commutator(g, h)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), _sides, _sides)
def test_defect_reads_its_inputs_one_degree_short(K, r, s):
    # _defect of R, S at K is [R, a][S, b] at K + 1, as it was computed with
    # R, S, a and b all at K + 1
    ev = mg.MagnusEvaluator(K + 1)
    R, S = ev.eval(r), ev.eval(s)
    a, b = (mg.MagnusElement.generator(name, K + 1) for name in "ab")
    got = wt._defect(R.truncate(K), S.truncate(K))
    assert got == mg.commutator(R, a) * mg.commutator(S, b)
    word = to_group_word(wd.product(wd.Comm(r, wd.A), wd.Comm(s, wd.B)))
    assert as_dict(got) == oracle_eval(_text(word.letters), K + 1)


# --- commutators with a generator, in closed form ----------------------------


def _generator_partners(T):
    """(name, g, oracle of g, oracle of g^-1) at T: a plain word, a power of
    a basis word (a view at T < 6), and a deep view with scale 3, the cube
    of a unit 1 + U with random rows from degree T // 2 + 1 up."""
    word = "aBBabAb"
    yield "word", mg.eval_word(word, T), oracle_eval(word, T), oracle_eval(word[::-1].swapcase(), T)
    base = wd.parse_word_expr("[a,b,a]")
    ob = _oracle_cached(_text(to_group_word(base).letters), T)
    g = mg.MagnusEvaluator(T).eval(base) ** -2
    yield "basis power", g, poly_pow(ob, -2, T), poly_pow(ob, 2, T)
    rng, w = random.Random(T), T // 2 + 1
    rows = [None] * w + [[rng.randint(-3, 3) for _ in range(1 << d)] for d in range(w, T + 1)]
    rows[w][0] = 1
    unit = {mg.mask_word(m, d).upper(): c for d in range(w, T + 1) for m, c in enumerate(rows[d])}
    view = mg.MagnusElement(T, rows) ** 3
    assert view._scale == 3
    og = {"": 1, **{k: 3 * c for k, c in unit.items() if c}}
    yield "deep view", view, og, poly_inverse(og, T)


@pytest.mark.parametrize("T", range(1, 13))
def test_commutator_with_a_generator_matches_oracle(T, monkeypatch):
    partners = list(_generator_partners(T))

    def no_bracket(*args):
        raise AssertionError("a commutator with a generator formed a bracket of rows")

    monkeypatch.setattr(mg, "bracket_rows", no_bracket)
    for name, g, og, ig in partners:
        for letter in "ab":
            x = mg.MagnusElement.generator(letter, T)
            ox, ix = oracle_eval(letter, T), oracle_eval(letter.upper(), T)
            g_x = poly_mul(ig, poly_mul(ix, poly_mul(og, ox, T), T), T)
            x_g = poly_mul(ix, poly_mul(ig, poly_mul(ox, og, T), T), T)
            # [g, x] at T reads g only below T
            for tg in {T, max(T - 1, 1)}:
                case = (name, letter, tg)
                assert as_dict(mg.commutator(g.truncate(tg), x)) == g_x, case
                assert as_dict(mg.commutator(x, g.truncate(tg))) == x_g, case
            if T >= 3:
                short = g.truncate(T - 2)
                wg = short._weight()
                message = "truncations {} and {} need to reach {} and {} for a commutator at {}"
                with pytest.raises(ValueError, match=re.escape(
                    message.format(T - 2, T, T - 1, T - wg, T)
                )):
                    mg.commutator(short, x)
                with pytest.raises(ValueError, match=re.escape(
                    message.format(T, T - 2, T - wg, T - 1, T)
                )):
                    mg.commutator(x, short)


def test_defect_at_K12_forms_one_product_and_no_bracket(monkeypatch):
    # [R, a] and [S, b] take the closed form, so the defect's one product is
    # the product of the two commutators; R and S have weight 1, so both
    # commutators also run their correction by R^-1 and S^-1
    ev = mg.MagnusEvaluator(12)
    R, S = ev.eval(wd.parse_word_expr("a b^-1 [a,b]^3")), ev.eval(wd.parse_word_expr("B a [a,b,b]"))
    counts = {"brackets": 0, "products": 0}
    bracket_rows, mul = mg.bracket_rows, mg.MagnusElement.__mul__

    def counting_bracket_rows(*args):
        counts["brackets"] += 1
        return bracket_rows(*args)

    def counting_mul(self, other):
        counts["products"] += 1
        return mul(self, other)

    monkeypatch.setattr(mg, "bracket_rows", counting_bracket_rows)
    monkeypatch.setattr(mg.MagnusElement, "__mul__", counting_mul)
    D = wt._defect(R, S)
    assert counts == {"brackets": 0, "products": 1}
    assert D.trunc == 13 and mg.gamma_weight(D) == 2


def test_parser_rejects_unbounded_iterate_count(monkeypatch):
    class Limited(wd.Comm):
        built = 0

        def __init__(self, left, right):
            Limited.built += 1
            if Limited.built > 100:
                raise RuntimeError("the parser built nodes for the iterate count")
            super().__init__(left, right)

    monkeypatch.setattr(wd, "Comm", Limited)
    with pytest.raises(wd.WordSyntaxError):
        wd.parse_word_expr("[a,_1000000000 b]")
    assert Limited.built == 0
    text = f"[a,_{wd.MAX_ITERATE} b]"
    assert str(wd.parse_word_expr(text)) == text


def test_parser_bounds_brackets_in_one_chain():
    for text in (
        "[a," + ",".join([f"_{wd.MAX_ITERATE} b"] * 60) + "]",
        "[a" + ",b" * (wd.MAX_ITERATE + 1) + "]",
        f"[a,_{wd.MAX_ITERATE} b,a]",
    ):
        with pytest.raises(wd.WordSyntaxError):
            wd.parse_word_expr(text)
    at_limit = "[a" + ",b,a" * (wd.MAX_ITERATE // 2) + "]"
    assert str(wd.parse_word_expr(at_limit)) == at_limit


def test_power_of_a_power_round_trips():
    for text, folded in (("(A)^-1", "a"), ("(a^-1)^-1", "a"), ("((a b)^-1)^-1", "a b")):
        expr = wd.parse_word_expr(text)
        assert str(expr) == folded
        assert wd.parse_word_expr(str(expr)) == expr


def test_parser_engel_equivalence():
    assert wd.parse_word_expr("[a,_2 b]") == wd.parse_word_expr("[a,b,b]")
    assert wd.parse_word_expr("[a,_1 b]") == wd.parse_word_expr("[a,b]")


def test_words_reduce():
    w = GroupWord.parse("aAbBba")
    assert str(w) == "ba"
    assert (w * w.inverse()).is_identity()


def test_product_starts_from_its_first_part():
    # a nonempty product is folded from its parts alone: a cache with no
    # identity in it shows that it never reads one
    letters = {"a": GroupWord.parse("a"), "b": GroupWord.parse("b")}
    assert str(wd.evaluate(wd.parse_word_expr("a b"), letters)) == "ab"
    one = mg.MagnusElement.one(3)
    cache = wd.seeded(*(mg.MagnusElement.generator(name, 3) for name in "ab"), one)
    assert wd.evaluate(wd.Prod(()), cache) is one


def test_evaluate_needs_the_generators_in_its_cache():
    assert set(wd.seeded(1, 2, 0)) == {str(wd.A), str(wd.B), str(wd.IDENTITY)}
    with pytest.raises(TypeError):
        wd.evaluate(wd.A, {})
    with pytest.raises(TypeError):
        wd.evaluate(wd.parse_word_expr("[a,b]"), {"a": GroupWord.parse("a")})


def test_parser_rejects_garbage():
    for text in ("[a,b", "a^", "[,]", "c"):
        with pytest.raises(ValueError):
            wd.parse_word_expr(text)


def test_parser_builds_a_repeated_atom_once(monkeypatch):
    built = []

    class Counting(wd.Comm):
        def __init__(self, left, right):
            built.append(None)
            super().__init__(left, right)

    monkeypatch.setattr(wd, "Comm", Counting)
    expr = wd.parse_word_expr(" ".join(["[a,[a,b,b]]"] * 1000))
    assert len(built) <= 3
    assert len(expr.parts) == 1000 and {str(p) for p in expr.parts} == {"[a,[a,b,b]]"}
    # the memo lives for one call: a second parse builds its atoms again
    built.clear()
    assert str(wd.parse_word_expr("[a,[a,b,b]]^2 [a,[a,b,b]]")) == "[a,[a,b,b]]^2 [a,[a,b,b]]"
    assert len(built) == 3


def test_parser_memo_is_keyed_by_the_source_text():
    # equal text is one atom; a chain cut short or spelled differently is not
    expr = wd.parse_word_expr("[a,b,b] [a,b,b]^-1 [a, b,b] [[a,b],b] [a,b,b,a] [a,_2 b]")
    assert [str(p) for p in expr.parts] == [
        "[a,b,b]", "[a,b,b]^-1", "[a,b,b]", "[a,b,b]", "[a,b,b,a]", "[a,b,b]"
    ]
    assert expr.parts[0] is expr.parts[1].base
    with pytest.raises(wd.WordSyntaxError, match="unclosed bracket at 22"):
        wd.parse_word_expr("[a,b,b] [a,b,b [a,b,b]")


def test_golden_witness_factors_round_trip():
    data = json.loads((GOLDEN / "construct_K10.json").read_text())
    for text in data["r_factors"] + data["s_factors"]:
        assert str(wd.parse_word_expr(text)) == text


# every malformed word that a test rejects, with the offset its error names
_MALFORMED = [
    ("[a,b", "unclosed bracket at 4"),
    ("a^", "expected integer at 2"),
    ("[,]", "empty commutator argument at 1"),
    ("c", "unexpected character 'c' at 0"),
    ("[a,,b", "empty commutator argument at 3"),
    ("(a b", "unclosed parenthesis at 4"),
    ("a^ - 3", "expected integer at 3"),
    ("a -3", "unexpected character '-' at 2"),
    ("[a,_1000000000 b]", "iterate count 1000000000 outside 0..64 at 14"),
    ("[a,_1500 b]", "iterate count 1500 outside 0..64 at 8"),
    ("[a" + ",b" * 65 + "]", "more than 64 brackets in one chain at 131"),
    ("[a,_64 b, a]", "more than 64 brackets in one chain at 10"),
    ("[a," + ",".join(["_64 b"] * 60) + "]", "more than 64 brackets in one chain at 12"),
]


@pytest.mark.parametrize("text, message", _MALFORMED)
def test_parser_rejects_malformed_words_with_their_offset(text, message):
    with pytest.raises(wd.WordSyntaxError) as err:
        wd.parse_word_expr(text)
    assert str(err.value) == message


def test_truncation_must_be_positive():
    with pytest.raises(ValueError):
        mg.MagnusElement.one(0)
