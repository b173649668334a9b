"""Tests for the free Lie ring: basis counts against an independent Witt
oracle, a brute-force rank oracle over spanning sets, bracket axioms on
random elements, and the generator presentation."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwitness import freelie as fl

GOLDEN = Path(__file__).resolve().parent / "golden"


# --- independent oracles ---------------------------------------------------


def witt_oracle(w: int) -> int:
    """Necklace count over a 2-letter alphabet, written independently of the
    library: sum over divisors with an inline Mobius function."""

    def mobius(n):
        out, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if n > 1 else out

    return sum(mobius(d) * 2 ** (w // d) for d in range(1, w + 1) if w % d == 0) // w


def leftnorm_expansion(letters: str) -> dict[str, int]:
    """Noncommutative expansion of the left-normalized bracket
    [x1, x2, ..., xw], computed directly from the commutator recursion."""
    poly = {letters[0]: 1}
    for x in letters[1:]:
        nxt: dict[str, int] = {}
        for word, c in poly.items():
            for key, sign in ((word + x, c), (x + word, -c)):
                val = nxt.get(key, 0) + sign
                if val:
                    nxt[key] = val
                elif key in nxt:
                    del nxt[key]
        poly = nxt
    return poly


def poly_mul(p: dict[str, int], q: dict[str, int]) -> dict[str, int]:
    out: dict[str, int] = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def poly_add(p: dict[str, int], q: dict[str, int], scale: int = 1) -> dict[str, int]:
    out = dict(p)
    for w, c in q.items():
        out[w] = out.get(w, 0) + scale * c
    return {w: c for w, c in out.items() if c}


def lyndon_bracket_expansion(word: str) -> dict[str, int]:
    """Noncommutative expansion of the bracketing of a Lyndon word: split
    off its least proper suffix and take the commutator of the halves."""
    if len(word) == 1:
        return {word: 1}
    right = min(word[i:] for i in range(1, len(word)))
    p = lyndon_bracket_expansion(word[: len(word) - len(right)])
    q = lyndon_bracket_expansion(right)
    return poly_add(poly_mul(p, q), poly_mul(q, p), -1)


def expand_oracle(coeffs: dict[str, int]) -> dict[str, int]:
    out: dict[str, int] = {}
    for w, c in coeffs.items():
        out = poly_add(out, lyndon_bracket_expansion(w), c)
    return out


def poly_rows(poly: dict[str, int]) -> dict[int, list[int]]:
    """A polynomial as one dense row per degree: the coefficient of a word
    sits at the binary number its letters spell (a = 0, b = 1)."""
    rows: dict[int, list[int]] = {}
    for word, c in poly.items():
        row = rows.setdefault(len(word), [0] * 2 ** len(word))
        row[int(word.replace("a", "0").replace("b", "1"), 2)] += c
    return rows


def coordinates_by_weight(basis, poly: dict[str, int]) -> dict[str, int]:
    """`lie_coordinates` of each homogeneous part of a polynomial, merged."""
    out: dict[str, int] = {}
    for _, row in sorted(poly_rows(poly).items()):
        out.update(basis.lie_coordinates(row))
    return out


def spanning_rank(weight: int) -> int:
    """Rank of the integer span of all left-normalized brackets of the given
    weight inside the degree-`weight` part of Z<a,b>, by exact elimination
    over the rationals."""
    import itertools

    monomials = ["".join(p) for p in itertools.product("ab", repeat=weight)]
    col = {m: i for i, m in enumerate(monomials)}
    rows = []
    for p in itertools.product("ab", repeat=weight):
        vec = [Fraction(0)] * len(monomials)
        for word, c in leftnorm_expansion("".join(p)).items():
            vec[col[word]] = Fraction(c)
        rows.append(vec)
    rank = 0
    pivot_rows: list[list[Fraction]] = []
    for vec in rows:
        for pr in pivot_rows:
            lead = next(i for i, v in enumerate(pr) if v)
            if vec[lead]:
                factor = vec[lead] / pr[lead]
                vec = [a - factor * b for a, b in zip(vec, pr)]
        if any(vec):
            pivot_rows.append(vec)
            rank += 1
    return rank


# --- basis -----------------------------------------------------------------


def test_generators_only_at_weight_one():
    basis = fl.hall_basis(1)
    assert basis.words == ("a", "b")


def test_weight_two_is_single_class():
    basis = fl.hall_basis(2)
    assert basis.words_of_weight(2) == ("ab",)
    # weights are counted from 1: a table indexed by weight must not wrap
    for w in (0, -1):
        with pytest.raises(ValueError):
            basis.words_of_weight(w)
    assert witt_oracle(2) == 1


def test_counts_match_witt_numbers_up_to_12():
    basis = fl.hall_basis(12)
    for w in range(1, 13):
        assert len(basis.words_of_weight(w)) == witt_oracle(w)
        assert fl.witt_number(w) == witt_oracle(w)


def test_weight_six_count_is_nine():
    assert len(fl.hall_basis(6).words_of_weight(6)) == 9


def test_brute_force_rank_cross_check():
    for w in range(1, 7):
        assert spanning_rank(w) == len(fl.hall_basis(w).words_of_weight(w))


def test_subterm_weights_sum():
    basis = fl.hall_basis(8)
    for w in basis.words:
        if len(w) == 1:
            with pytest.raises(ValueError):
                fl.standard_factorization(w)
        else:
            left, right = fl.standard_factorization(w)
            assert left + right == w
            assert left in basis.words and right in basis.words
            assert len(left) < len(w)


def test_from_words_rejects_non_basis_words():
    basis = fl.hall_basis(4)
    for bad in ("ba", "", "ac", "abbbb"):
        with pytest.raises(ValueError):
            basis.from_words({bad: 1})


def test_order_consistent_with_weight():
    basis = fl.hall_basis(7)
    weights = [len(w) for w in basis.words]
    assert weights == sorted(weights)


def test_serialization_golden():
    basis = fl.hall_basis(4)
    assert [fl.bracket_string(w) for w in basis.words] == [
        "a",
        "b",
        "[a,b]",
        "[a,[a,b]]",
        "[[a,b],b]",
        "[a,[a,[a,b]]]",
        "[a,[[a,b],b]]",
        "[[[a,b],b],b]",
    ]
    elt = basis.from_words({"ab": -1, "abb": 3})
    assert str(elt) == "-1*[a,b] + 3*[[a,b],b]"


# --- bracket ---------------------------------------------------------------


def _random_element(basis, rng, max_weight=3, support=2):
    words = [w for w in basis.words if len(w) <= max_weight]
    picks = rng.sample(words, min(support, len(words)))
    return basis.from_words({w: rng.randint(-4, 4) for w in picks})


def test_bracket_alternating():
    basis = fl.hall_basis(4)
    a = basis.gen("a")
    assert fl.bracket(a, a).is_zero()


def test_bracket_of_generators_is_weight_two_word():
    basis = fl.hall_basis(3)
    got = fl.bracket(basis.gen("a"), basis.gen("b"))
    assert got == basis.from_words({"ab": 1})


def test_weight_four_rearrangement_identity():
    # [a,b,b,a] equals [a,b,a,b] as left-normalized brackets
    basis = fl.hall_basis(4)
    a, b = basis.gen("a"), basis.gen("b")
    ab = fl.bracket(a, b)
    lhs = fl.bracket(fl.bracket(fl.bracket(a, b), b), a)
    rhs = fl.bracket(fl.bracket(ab, a), b)
    assert lhs == rhs


def test_bracket_bilinear_antisymmetric_jacobi():
    basis = fl.hall_basis(9)
    rng = random.Random(7)
    for _ in range(200):
        u = _random_element(basis, rng)
        v = _random_element(basis, rng)
        w = _random_element(basis, rng)
        assert fl.bracket(u, v) == fl.bracket(v, u).scale(-1)
        jac = (
            fl.bracket(fl.bracket(u, v), w)
            + fl.bracket(fl.bracket(v, w), u)
            + fl.bracket(fl.bracket(w, u), v)
        )
        assert jac.is_zero()
        assert fl.bracket(u + v, w) == fl.bracket(u, w) + fl.bracket(v, w)


def test_bracket_overflow_flagged():
    basis = fl.hall_basis(3)
    abb = basis.from_words({"abb": 1})
    with pytest.raises(fl.WeightOverflowError):
        fl.bracket(abb, basis.gen("a"))
    # raised before any coordinate is read: the basis has no weight-5 table
    with pytest.raises(fl.WeightOverflowError):
        fl.bracket(abb, basis.from_words({"ab": 1}))


def _word_keyed(max_weight):
    words = fl.hall_basis(max_weight).words
    return st.dictionaries(st.sampled_from(words), st.integers(-4, 4), max_size=4)


@settings(max_examples=80, deadline=None)
@given(_word_keyed(5), _word_keyed(5))
def test_bracket_expands_to_commutator(u_coeffs, v_coeffs):
    basis = fl.hall_basis(10)
    u, v = basis.from_words(u_coeffs), basis.from_words(v_coeffs)
    p, q = expand_oracle(dict(u.coeffs)), expand_oracle(dict(v.coeffs))
    want = poly_add(poly_mul(p, q), poly_mul(q, p), -1)
    assert expand_oracle(dict(fl.bracket(u, v).coeffs)) == want


def test_lie_coordinates_reads_back_expansions():
    rng = random.Random(5)
    basis = fl.hall_basis(7)
    for _ in range(50):
        coeffs = _random_element(basis, rng, max_weight=7, support=4).coeffs
        assert coordinates_by_weight(basis, expand_oracle(dict(coeffs))) == dict(coeffs)


def test_lie_coordinates_rejects_non_lie_polynomials():
    basis = fl.hall_basis(3)
    with pytest.raises(ValueError):
        coordinates_by_weight(basis, {"ab": 1})
    with pytest.raises(ValueError):
        coordinates_by_weight(basis, {"ab": 1, "ba": -1, "abb": 1})
    assert coordinates_by_weight(basis, {"ab": 2, "ba": -2}) == {"ab": 2}


def _verdicts(basis, row):
    """What the Dynkin reader from_row and the residual of lie_coordinates
    find on a row: its coordinates, or None where one raises."""
    out = []
    for read in (lambda r: basis.from_row(r).coeffs, basis.lie_coordinates):
        try:
            out.append(dict(read(row)))
        except ValueError:
            out.append(None)
    return out


def test_dynkin_operator_matches_the_right_normed_oracle():
    # theta(x1...xd) = [x1, [x2, ..., xd]], expanded word by word
    def theta(word):
        if len(word) == 1:
            return {word: 1}
        x, inner = word[0], theta(word[1:])
        return poly_add({x + v: c for v, c in inner.items()}, {v + x: c for v, c in inner.items()}, -1)

    rng = random.Random(3)
    for d in range(1, 8):
        poly = {"".join(w): rng.randint(-3, 3) for w in itertools.product("ab", repeat=d)}
        want = {}
        for w, c in poly.items():
            want = poly_add(want, theta(w), c)
        assert fl._dynkin(poly_rows(poly)[d]) == poly_rows(want).get(d, [0] * (1 << d))


def test_dynkin_verdict_matches_the_residual_on_every_expansion():
    basis = fl.hall_basis(10)
    for w in basis.words:
        (row,) = poly_rows(lyndon_bracket_expansion(w)).values()
        assert _verdicts(basis, row) == [{w: 1}, {w: 1}]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 8),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(-4, 4)), max_size=4),
    st.integers(0, 10**6),
    st.integers(-2, 2),
)
def test_dynkin_verdict_matches_the_residual_on_perturbations(d, terms, slot, delta):
    # a Lie row, then one slot moved by delta: a Lie row again only if delta = 0
    basis = _VERDICT_BASIS
    words = basis.words_of_weight(d)
    coeffs = {}
    for i, c in terms:
        coeffs[words[i % len(words)]] = coeffs.get(words[i % len(words)], 0) + c
    row = basis._rows(coeffs)[d] if coeffs else [0] * (1 << d)
    row[slot % len(row)] += delta
    dynkin, residual = _verdicts(basis, row)
    assert dynkin == residual
    assert (dynkin is None) == (delta != 0)


_VERDICT_BASIS = fl.hall_basis(8)


def test_word_expansion_rows_match_the_oracle():
    basis = fl.hall_basis(10)
    for w in basis.words:
        (row,) = poly_rows(lyndon_bracket_expansion(w)).values()
        masks, coeffs = basis.expansion(w)
        assert list(masks) == [m for m, c in enumerate(row) if c]
        assert list(coeffs) == [c for c in row if c]


# --- engel brackets and the alternating identity ---------------------------


def test_engel_base_cases():
    basis = fl.hall_basis(4)
    assert fl.engel_lie(basis, 0) == basis.gen("a")
    assert fl.engel_lie(basis, 1) == basis.from_words({"ab": 1})
    expected = fl.bracket(fl.bracket(basis.gen("a"), basis.gen("b")), basis.gen("b"))
    assert fl.engel_lie(basis, 2) == expected


def test_engel_overflow():
    basis = fl.hall_basis(3)
    with pytest.raises(fl.WeightOverflowError):
        fl.engel_lie(basis, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_alternating_identity(n):
    assert fl.check_identity(n)


# --- presentation as [alpha, a] + [beta, b] ---------------------------------


def test_present_literal_cases():
    basis = fl.hall_basis(4)
    a, b = basis.gen("a"), basis.gen("b")
    for t in (
        fl.bracket(fl.bracket(fl.bracket(a, b), a), b),  # ends in b
        fl.bracket(fl.bracket(fl.bracket(a, b), b), a),  # ends in a
    ):
        alpha, beta = fl.present_with_generators(t)
        assert fl.bracket(alpha, a) + fl.bracket(beta, b) == t
        assert alpha.is_zero() or alpha.weight() == 3
        assert beta.is_zero() or beta.weight() == 3


def test_present_random_homogeneous():
    basis = fl.hall_basis(8)
    a, b = basis.gen("a"), basis.gen("b")
    rng = random.Random(11)
    for _ in range(100):
        w = rng.randint(2, 8)
        words = basis.words_of_weight(w)
        support = rng.sample(words, min(rng.randint(1, 4), len(words)))
        t = basis.from_words({word: rng.randint(-9, 9) for word in support})
        alpha, beta = fl.present_with_generators(t)
        assert fl.bracket(alpha, a) + fl.bracket(beta, b) == t


def test_present_check_catches_a_wrong_presentation(monkeypatch):
    # the substitution check compares rows of Z<a,b>: a worklist that splits
    # one word the wrong way round, the seed word or a right factor met
    # inside the pass, presents -t or some other element, and raises
    # t is checked against its expansion, or against the row it was read
    # off, which from_row certified Lie by the Dynkin test and read on the
    # Lyndon masks; the worklist takes its splits from the basis's memo
    basis = fl.hall_basis(6)
    t = basis.from_words({"aabab": 3})
    read = basis.from_row(basis._rows(t.coeffs)[5])
    assert read == t and t.row is None and read.row == basis._rows(t.coeffs)[5]
    alpha, beta = fl.present_with_generators(t)
    assert alpha == basis.from_words({"aabb": -3})
    assert beta == basis.from_words({"aaab": -3})
    assert fl.present_with_generators(read) == (alpha, beta)
    for word in ("aabab", "ab"):
        with monkeypatch.context() as patch:
            patch.setitem(basis._factors, word, basis.factors(word)[::-1])
            for form in (t, read):
                with pytest.raises(RuntimeError, match="substitution check"):
                    fl.present_with_generators(form)
    # and no cached expansion kept a wrong split
    assert fl.present_with_generators(t) == fl.present_with_generators(read) == (alpha, beta)


def test_present_is_linear():
    # the worklist merges the words of t into one pair of rows; that must
    # read off to the sum of the words' own presentations
    basis = fl.hall_basis(9)
    rng = random.Random(5)
    for _ in range(60):
        words = basis.words_of_weight(rng.randint(2, 9))
        support = rng.sample(words, min(rng.randint(2, 6), len(words)))
        t = basis.from_words({w: rng.randint(-9, 9) for w in support})
        alpha, beta = basis.zero(), basis.zero()
        for w, c in t.terms():
            a_w, b_w = fl.present_with_generators(basis.from_words({w: 1}))
            alpha, beta = alpha + a_w.scale(c), beta + b_w.scale(c)
        assert fl.present_with_generators(t) == (alpha, beta)


def test_present_matches_golden():
    """The presentation of every Lyndon word of weight 2-11, against
    tests/golden/present_w11.json.

    The file maps each word w, in basis order and one word a line, to
    {"alpha": ..., "beta": ...}: the coordinates, in basis order, of the
    pair that present_with_generators(hall_basis(11).from_words({w: 1}))
    returns.  It was recorded while each word was presented on its own by a
    recursive Jacobi rewrite with a cache of its results, before the one
    worklist pass over right factors replaced that, and pins the whole map
    where the CLI goldens reach only the words of one construction.
    """
    golden = json.loads((GOLDEN / "present_w11.json").read_text())
    basis = fl.hall_basis(11)
    assert list(golden) == [w for w in basis.words if len(w) >= 2]
    for w, want in golden.items():
        alpha, beta = fl.present_with_generators(basis.from_words({w: 1}))
        assert (dict(alpha.terms()), dict(beta.terms())) == (want["alpha"], want["beta"]), w


def test_present_rejects_inhomogeneous():
    basis = fl.hall_basis(4)
    t = basis.from_words({"ab": 1, "abb": 1})
    with pytest.raises(ValueError):
        fl.present_with_generators(t)


def test_present_zero_and_weight_one():
    basis = fl.hall_basis(4)
    assert fl.present_with_generators(basis.zero()) == (basis.zero(), basis.zero())
    with pytest.raises(ValueError, match="weight >= 2"):
        fl.present_with_generators(basis.gen("a"))


def test_negation_and_difference_agree_with_scale_and_sum():
    basis = fl.hall_basis(5)
    u = basis.from_words({"ab": 2, "aab": -1, "abb": 3})
    v = basis.from_words({"aab": 4, "aabb": -2})
    assert -u == u.scale(-1)
    assert u - v == u + v.scale(-1)
    assert (u - u).is_zero() and u - basis.zero() == u


def test_basis_requires_positive_weight():
    with pytest.raises(ValueError):
        fl.hall_basis(0)
