"""Completed lamplighter groups: the semidirect law, the projection from the
free group, the iterated-commutator anchor that pins the action convention,
and the weight filtration."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwitness import freelie as fl
from nilwitness import lamplighter as lp
from nilwitness import magnus as mg
from nilwitness import words as wd
from nilwitness.series import INFINITE_WEIGHT, QQ, TruncatedSeries, one_plus_x_power, ring_from_tag

from letterwords import GroupWord, to_group_word

Z = ring_from_tag("Z")
Q = ring_from_tag("Q")
Z5 = ring_from_tag("Zp:5")


def rand_lamp(ring, trunc, rng):
    if ring == QQ:
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(trunc)]
        e = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    else:
        coeffs = [rng.randint(-4, 4) for _ in range(trunc)]
        e = rng.randint(-3, 3)
    return lp.LampElement(TruncatedSeries.from_coeffs(ring, trunc, coeffs), e)


# --- group structure ---------------------------------------------------------


def test_generators():
    a = lp.phi_word("a", Z, 6)
    assert list(a.f.coeffs) == [1, 0, 0, 0, 0, 0] and a.e == 0
    b = lp.phi_word("b", Z, 6)
    assert b.f.is_zero() and b.e == 1


def test_kernel_subgroup_is_abelian():
    rng = random.Random(0)
    for ring in (Z, Q, Z5):
        for _ in range(10):
            u = rand_lamp(ring, 6, rng)
            v = rand_lamp(ring, 6, rng)
            u0 = lp.LampElement(u.f, 0)
            v0 = lp.LampElement(v.f, 0)
            assert (u0 * v0).f == u.f + v.f
            assert u0.commutator(v0).is_identity()


@pytest.mark.parametrize("ring", [Z, Q, Z5])
def test_powers_match_products(ring):
    # a power is one binomial sum, or (n f, n e) in the kernel and for a pure
    # shift; each must agree with the n-fold product, of x and of its
    # inverse (-(1 + x)^e f, -e).  Over Z/5 the shift by 5 is 1 + x^5, so
    # its binomial sum ends early
    rng = random.Random(2)
    for trunc in range(1, 10):
        for _ in range(4):
            u = rand_lamp(ring, trunc, rng)
            kernel, shift = lp.LampElement(u.f, u.e * 0), lp.LampElement(u.f.scale(0), u.e)
            for x in (u, kernel, shift, lp.LampElement(u.f, 5)):
                inv = lp.LampElement(-(one_plus_x_power(ring, x.e, trunc) * x.f), -x.e)
                assert (x**0).is_identity()
                assert x**-1 == inv and (x**-1).to_json() == inv.to_json()
                for n in range(1, 10):
                    for got, factor in ((x**n, x), (x**-n, x**-1)):
                        want = lp.LampElement.product_of([factor] * n)
                        assert got == want and got.to_json() == want.to_json()


@pytest.mark.parametrize("variant", [Z, Q, Z5])
def test_group_axioms(variant):
    rng = random.Random(1)
    for _ in range(25):
        u, v, w = (rand_lamp(variant, 6, rng) for _ in range(3))
        assert ((u * v) * w).f == (u * (v * w)).f
        assert ((u * v) * w).e == (u * (v * w)).e
        assert (u * u**-1).is_identity()
        assert (u**-1 * u).is_identity()


def test_variant_mismatch_rejected():
    rng = random.Random(2)
    with pytest.raises(ValueError):
        rand_lamp(Z, 6, rng) * rand_lamp(Q, 6, rng)
    # a factor with the zero series adds nothing to a product, and is still
    # checked against the others, here all in the kernel's one sum
    u = lp.LampElement(rand_lamp(Z, 6, rng).f, 0)
    for zero in (lp.lamp_identity(Q, 6), lp.lamp_identity(Z, 5), lp.lamp_b(Z5, 6)):
        for values in ([u, zero], [u, u, zero, u]):
            with pytest.raises(ValueError):
                lp.LampElement.product_of(values)


def _lamps(ring, trunc):
    """Elements over ring at trunc; over Q with rational shift exponents.
    The exponent 0 is drawn often, as an int and over Q as a Fraction."""
    if ring == QQ:
        coeff = st.fractions(-4, 4, max_denominator=3)
        exp = st.sampled_from([0, Fraction(0)]) | st.fractions(-4, 4, max_denominator=3)
    else:
        coeff = st.integers(-6, 6)
        exp = st.just(0) | st.integers(-4, 4)
    return st.builds(
        lambda cs, e: lp.LampElement(TruncatedSeries.from_coeffs(ring, trunc, cs), e),
        st.lists(coeff, min_size=trunc, max_size=trunc),
        exp,
    )


def _pairwise(u, v):
    """(f, e) * (g, e') = (f + (1 + x)^-e g, e + e'), formed directly."""
    return lp.LampElement(u.f + one_plus_x_power(u.f.ring, -u.e, u.f.trunc) * v.f, u.e + v.e)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ring=st.sampled_from([Z, Q, Z5]), trunc=st.integers(1, 6))
def test_product_of_is_the_pairwise_fold(data, ring, trunc):
    # exponents 0 are drawn often, so cumulative exponents repeat
    values = data.draw(st.lists(_lamps(ring, trunc), min_size=1, max_size=6))
    got, want = lp.LampElement.product_of(values), functools.reduce(_pairwise, values)
    assert got == want and got.to_json() == want.to_json()


@pytest.mark.parametrize(
    "ring, exps",
    [(Z, [1, 0, -1, 2, -2, 1]), (Z5, [0, 0, 0, 0]), (Q, [Fraction(1, 2), 0, Fraction(-1, 2), Fraction(1, 2)])],
)
def test_product_of_shifts_once_per_cumulative_exponent(ring, exps, monkeypatch):
    # over Z the factors come after the exponent sums 0, 1, 1, 0, 2, 0: two
    # shifts, by 1 and by 2, each one series product
    rng = random.Random(4)
    values = [lp.LampElement(rand_lamp(ring, 6, rng).f, e) for e in exps]
    cumulative = set(itertools.accumulate(exps[:-1], initial=0))
    products = []
    mul = TruncatedSeries.__mul__

    def counting(f, g):
        products.append(1)
        return mul(f, g)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    got = lp.LampElement.product_of(values)
    assert len(products) == len(cumulative - {0})
    monkeypatch.setattr(TruncatedSeries, "__mul__", mul)
    assert got == functools.reduce(_pairwise, values)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ring=st.sampled_from([Z, Q, Z5]), trunc=st.integers(1, 7))
def test_closed_form_commutator_is_the_group_commutator(data, ring, trunc):
    u, v = data.draw(_lamps(ring, trunc)), data.draw(_lamps(ring, trunc))
    want = u**-1 * v**-1 * u * v
    got = u.commutator(v)
    assert got == want and got.to_json() == want.to_json()


@pytest.mark.parametrize("ring", [Z, Q, Z5])
def test_closed_form_commutator_with_a_side_in_the_kernel(ring):
    rng = random.Random(3)
    for _ in range(10):
        u, v = rand_lamp(ring, 6, rng), rand_lamp(ring, 6, rng)
        u0, v0 = lp.LampElement(u.f, u.e * 0), lp.LampElement(v.f, v.e * 0)
        for x, y in ((u0, v), (u, v0), (u0, v0)):
            want = x**-1 * y**-1 * x * y
            assert x.commutator(y) == want
        assert u0.commutator(v0).is_identity()
    # a ring mismatch raises, even where the closed form forms no product
    other = Z if ring != Z else Q
    w = lp.LampElement(TruncatedSeries.zero(other, 6), 0)
    with pytest.raises(ValueError):
        lp.LampElement(u.f, 0).commutator(w)


def test_rational_exponent_conjugation_uses_rational_powers():
    # conjugating a lamp series by a half-integer shift scales by (1+x)^(1/2)
    f = TruncatedSeries.monomial(QQ, 6, 1)
    u = lp.LampElement(f, Fraction(0))
    s = lp.LampElement(TruncatedSeries.zero(QQ, 6), Fraction(1, 2))
    conj = s**-1 * u * s
    from nilwitness.series import rat_pow

    expected = rat_pow(TruncatedSeries.from_coeffs(QQ, 6, (1, 1)), Fraction(1, 2)) * f
    assert conj.e == 0 and conj.f == expected


# --- the projection from the free group -------------------------------------


def test_phi_word_examples():
    assert lp.phi_word("a", Z, 5).to_json() == {"f": ["1", "0", "0", "0", "0"], "e": "0"}
    assert not lp.phi_word("[a,b]", Z, 5).is_identity()
    # commutators of two lamp-kernel elements collapse
    assert lp.phi_word("[a,[b,a,b,a]]", Z, 5).is_identity()


def test_phi_kills_defining_relators():
    for i in range(-3, 4):
        conj = wd.product(wd.power(wd.B, -i), wd.A, wd.power(wd.B, i))
        rel = wd.Comm(wd.A, conj)
        assert lp.phi_word(rel, Z, 8).is_identity()


def test_phi_engel_anchor():
    for K in (6, 11):
        for k in range(1, K):
            img = lp.phi_word(wd.engel(k), Z, K)
            assert img.e == 0
            assert img.f == TruncatedSeries.monomial(Z, K, k)


def test_phi_of_basis_brackets_in_closed_form():
    # the lemma build_witness rests on: [a,_j b] -> (x^j, 0), b -> (0, 1),
    # and a Lyndon word with two or more a's -> 1
    K = 11
    basis = fl.hall_basis(10)
    for w in basis.words:
        img = lp.phi_word(basis.word_expr(w), Z, K)
        if w == "b":
            assert img == lp.lamp_b(Z, K)
        elif w.count("a") == 1:
            assert w == "a" + "b" * (len(w) - 1)
            assert img == lp.LampElement(TruncatedSeries.monomial(Z, K, len(w) - 1), 0)
        else:
            assert img.is_identity(), w


def test_phi_is_homomorphism():
    rng = random.Random(3)
    for _ in range(40):
        u = GroupWord.from_letters(
            rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 10))
        )
        v = GroupWord.from_letters(
            rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 10))
        )
        lhs = lp.phi_word(str(u * v), Z, 7)
        rhs = lp.phi_word(str(u), Z, 7) * lp.phi_word(str(v), Z, 7)
        assert lhs.f == rhs.f and lhs.e == rhs.e


def test_phi_expr_matches_letterwise():
    for text in ("[a,b]", "[a,_3 b]", "[a,b,a]^-2 b", "a [b,a] B"):
        expr = wd.parse_word_expr(text)
        lhs = lp.phi_word(expr, Z, 7)
        rhs = lp.phi_word(str(to_group_word(expr)), Z, 7)
        assert lhs.f == rhs.f and lhs.e == rhs.e


def test_q_variant_is_coefficientwise_coercion():
    rng = random.Random(4)
    for _ in range(20):
        w = GroupWord.from_letters(
            rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 10))
        )
        zimg = lp.phi_word(str(w), Z, 6)
        qimg = lp.phi_word(str(w), Q, 6)
        assert TruncatedSeries.from_coeffs(Q, 6, zimg.f.coeffs) == qimg.f
        assert Fraction(zimg.e) == qimg.e


def test_phi_compatible_with_free_group_filtration():
    rng = random.Random(5)
    pool = ["a", "b", "[a,b]", "[a,b,b]", "[a,[a,b]]", "[a,_3 b] a", "[b,a]^2"]
    for _ in range(50):
        expr = wd.parse_word_expr(" ".join(rng.sample(pool, rng.randint(1, 3))))
        wf = mg.gamma_weight(mg.eval_word(expr, 8))
        wl = lp.gamma_weight_lamp(lp.phi_word(expr, Z, 8))
        if wf is mg.INFINITE_WEIGHT:
            continue
        assert wl >= wf or wl == INFINITE_WEIGHT


# --- the weight filtration ----------------------------------------------------


def test_gamma_weight_lamp_examples():
    x3 = lp.LampElement(TruncatedSeries.monomial(Z, 6, 3), 0)
    assert lp.gamma_weight_lamp(x3) == 4
    assert lp.gamma_weight_lamp(lp.phi_word("b", Z, 6)) == 1
    ident = lp.phi_word("", Z, 6)
    assert ident.is_identity()
    assert lp.gamma_weight_lamp(ident) == INFINITE_WEIGHT


def test_json_shape():
    u = lp.phi_word("[a,_2 b]", Q, 4)
    assert u.to_json() == {"f": ["0", "0", "1", "0"], "e": "0"}
