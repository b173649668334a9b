"""Truncated series, the group-ring substitution, involutions, and rational
powers, with the filtration-isomorphism certificates over all three rings."""

import random
from fractions import Fraction

import pytest

from nilwitness import series as sr


def rand_series(ring, trunc, rng, unit=False):
    if ring == sr.QQ:
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(trunc)]
    else:
        coeffs = [rng.randint(-5, 5) for _ in range(trunc)]
    if unit:
        coeffs[0] = 1
    return sr.TruncatedSeries.from_coeffs(ring, trunc, coeffs)


def rand_laurent(ring, rng, spread=4):
    return sr.LaurentPoly.from_terms(
        ring, {rng.randint(-spread, spread): rng.randint(-5, 5) for _ in range(4)}
    )


# --- tau -------------------------------------------------------------------


def test_tau_of_t_is_one_plus_x():
    got = sr.tau(sr.LaurentPoly.t_power(sr.ZZ, 1), 6)
    assert got == sr.TruncatedSeries.from_coeffs(sr.ZZ, 6, (1, 1))


def test_tau_of_unit():
    assert sr.tau(sr.LaurentPoly.one(sr.ZZ), 5) == sr.TruncatedSeries.one(sr.ZZ, 5)


def test_tau_of_t_inverse_is_geometric_series():
    got = sr.tau(sr.LaurentPoly.t_power(sr.ZZ, -1), 6)
    assert got == sr.TruncatedSeries.from_coeffs(sr.ZZ, 6, (1, -1, 1, -1, 1, -1))
    prod = got * sr.tau(sr.LaurentPoly.t_power(sr.ZZ, 1), 6)
    assert prod == sr.TruncatedSeries.one(sr.ZZ, 6)


def test_tau_is_ring_homomorphism():
    rng = random.Random(0)
    for ring in (sr.ZZ, sr.QQ, sr.PrimeField(5)):
        for _ in range(67):
            p, q = rand_laurent(ring, rng), rand_laurent(ring, rng)
            assert sr.tau(p * q, 7) == sr.tau(p, 7) * sr.tau(q, 7)
            assert sr.tau(p + q, 7) == sr.tau(p, 7) + sr.tau(q, 7)


def test_tau_sends_ideal_powers_deep():
    # elements of I^n map to series with valuation >= n
    rng = random.Random(1)
    t = sr.LaurentPoly.t_power(sr.ZZ, 1)
    one = sr.LaurentPoly.one(sr.ZZ)
    for n in range(1, 9):
        gen = one
        for _ in range(n):
            gen = gen * (t - one)
        for _ in range(5):
            elt = gen * rand_laurent(sr.ZZ, rng)
            assert sr.tau(elt, 10).valuation() >= n


# --- antipode and the induced involution ------------------------------------


def test_antipode_swaps_powers():
    p = sr.LaurentPoly.from_terms(sr.ZZ, {0: 1, 1: 1})
    assert sr.antipode(p) == sr.LaurentPoly.from_terms(sr.ZZ, {0: 1, -1: 1})
    assert sr.antipode(sr.LaurentPoly.t_power(sr.ZZ, 1)) == sr.LaurentPoly.t_power(
        sr.ZZ, -1
    )


def test_antipode_is_ring_involution():
    rng = random.Random(2)
    for _ in range(50):
        p, q = rand_laurent(sr.ZZ, rng), rand_laurent(sr.ZZ, rng)
        assert sr.antipode(sr.antipode(p)) == p
        assert sr.antipode(p * q) == sr.antipode(p) * sr.antipode(q)
        assert sr.antipode(p + q) == sr.antipode(p) + sr.antipode(q)


def test_sigma_tilde_on_x():
    got = sr.sigma_tilde(sr.TruncatedSeries.x(sr.ZZ, 6))
    assert got == sr.TruncatedSeries.from_coeffs(sr.ZZ, 6, (0, -1, 1, -1, 1, -1))


def test_sigma_tilde_fixes_one():
    one = sr.TruncatedSeries.one(sr.QQ, 5)
    assert sr.sigma_tilde(one) == one


def test_sigma_tilde_squares_to_identity_on_monomials_k32():
    K = 32
    for k in range(K):
        f = sr.TruncatedSeries.monomial(sr.ZZ, K, k)
        assert sr.sigma_tilde(sr.sigma_tilde(f)) == f


def sigma_by_substitution(f):
    """The involution as the substitution x -> (1 + x)^-1 - 1, by Horner's
    rule in series products: the reference for the Pascal-matrix form."""
    ring, K = f.ring, f.trunc
    s = sr.TruncatedSeries.from_coeffs(ring, K, [0] + [(-1) ** k for k in range(1, K)])
    acc = sr.TruncatedSeries.zero(ring, K)
    for c in reversed(f.coeffs):
        acc = acc * s + sr.TruncatedSeries.from_coeffs(ring, K, (c,))
    return acc


def test_sigma_tilde_matches_the_substitution():
    rng = random.Random(8)
    for ring in (sr.ZZ, sr.QQ, sr.PrimeField(3), sr.PrimeField(5)):
        for K in range(1, 13):
            for _ in range(5):
                f = rand_series(ring, K, rng)
                assert sr.sigma_tilde(f) == sigma_by_substitution(f), (ring, K)


def test_sigma_tilde_compatible_with_antipode():
    rng = random.Random(3)
    for _ in range(30):
        p = rand_laurent(sr.ZZ, rng)
        assert sr.sigma_tilde(sr.tau(p, 9)) == sr.tau(sr.antipode(p), 9)


# --- rational powers ---------------------------------------------------------


def test_square_of_one_plus_x():
    f = sr.TruncatedSeries.from_coeffs(sr.QQ, 5, (1, 1))
    assert sr.rat_pow(f, 2) == sr.TruncatedSeries.from_coeffs(sr.QQ, 5, (1, 2, 1))


def test_rat_pow_identity_and_sqrt():
    rng = random.Random(4)
    for _ in range(20):
        f = rand_series(sr.QQ, 7, rng, unit=True)
        assert sr.rat_pow(f, 1) == f
        half = sr.rat_pow(f, Fraction(1, 2))
        assert half * half == f


def test_rat_pow_addition_and_tower_laws():
    rng = random.Random(5)
    for _ in range(100):
        f = rand_series(sr.QQ, 7, rng, unit=True)
        r1 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        r2 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        assert sr.rat_pow(f, r1 + r2) == sr.rat_pow(f, r1) * sr.rat_pow(f, r2)
        assert sr.rat_pow(f, r1 * r2) == sr.rat_pow(sr.rat_pow(f, r1), r2)


def test_rat_pow_requires_rationals_and_unit_constant():
    with pytest.raises(ValueError):
        sr.rat_pow(sr.TruncatedSeries.from_coeffs(sr.ZZ, 4, (1, 1)), Fraction(1, 2))
    with pytest.raises(ValueError):
        sr.rat_pow(sr.TruncatedSeries.from_coeffs(sr.QQ, 4, (2, 1)), Fraction(1, 2))


def test_tau_q_agrees_with_rat_pow():
    rng = random.Random(6)
    base = sr.TruncatedSeries.from_coeffs(sr.QQ, 9, (1, 1))
    for _ in range(50):
        r = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
        assert sr.tau_q(r, 9) == sr.rat_pow(base, r)


def test_tau_q_multiplicative_on_group_elements():
    rng = random.Random(7)
    for _ in range(25):
        r1 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        r2 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert sr.tau_q(r1 + r2, 8) == sr.tau_q(r1, 8) * sr.tau_q(r2, 8)


def test_integer_powers_of_one_plus_x_add():
    K = 10
    for ring in (sr.ZZ, sr.PrimeField(5)):
        power = {r: sr.one_plus_x_power(ring, r, K) for r in range(-18, 19)}
        assert power[0] == sr.TruncatedSeries.one(ring, K)
        assert power[1] == sr.TruncatedSeries.from_coeffs(ring, K, (1, 1))
        for r in range(-9, 10):
            for s in range(-9, 10):
                assert power[r] * power[s] == power[r + s], (ring, r, s)
        for r in (Fraction(1, 2), Fraction(-3, 5)):
            with pytest.raises(ValueError):
                sr.one_plus_x_power(ring, r, K)


# --- the filtration isomorphism certificates ---------------------------------


@pytest.mark.parametrize("tag", ["Z", "Q", "Zp:5"])
def test_filtration_iso_certificates(tag):
    ring = sr.ring_from_tag(tag)
    for n in range(1, 9):
        report = sr.augmentation_iso_report(ring, n)
        assert report["ok"], report


def test_filtration_iso_n1_is_augmentation():
    assert sr.check_augmentation_iso(sr.ZZ, 1)


def test_filtration_iso_mod5_n6():
    assert sr.check_augmentation_iso(sr.PrimeField(5), 6)


# --- rings ------------------------------------------------------------------


def test_mod2_rejected():
    with pytest.raises(ValueError):
        sr.PrimeField(2)
    with pytest.raises(ValueError):
        sr.ring_from_tag("Zp:2")


def test_prime_bounded_before_trial_division():
    assert sr.PrimeField(2**31 - 1).p == sr.MAX_PRIME
    with pytest.raises(ValueError, match="at most"):
        sr.PrimeField(2**61 - 1)


def test_ring_tags_roundtrip():
    assert sr.ring_from_tag("Z") == sr.ZZ
    assert sr.ring_from_tag("Q") == sr.QQ
    assert sr.ring_from_tag("Zp:7") == sr.PrimeField(7)
    assert sr.ring_from_tag("Z/7") == sr.PrimeField(7)


def test_series_json_roundtrip():
    # the JSON form is exact: each coefficient's text reads back as itself
    rng = random.Random(8)
    f = rand_series(sr.QQ, 6, rng)
    assert [Fraction(c) for c in f.to_json()] == list(f.coeffs)


def test_series_ops_reject_mismatched_rings():
    f = sr.TruncatedSeries.one(sr.ZZ, 4)
    g = sr.TruncatedSeries.one(sr.QQ, 4)
    with pytest.raises(ValueError):
        f + g
