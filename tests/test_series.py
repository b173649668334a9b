"""Truncated series, the group-ring substitution, involutions, and rational
powers, with the filtration-isomorphism certificates over all three rings."""

import math
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


def rand_laurent(rng, spread=4):
    """A random element sum c_e t^e of the group ring, as {e: c_e}."""
    return {rng.randint(-spread, spread): rng.randint(-5, 5) for _ in range(4)}


def image(ring, terms, trunc):
    """The series sum c_e (1 + x)^e of the group-ring element {e: c_e}."""
    out = sr.TruncatedSeries.zero(ring, trunc)
    for e, c in terms.items():
        out = out + sr.one_plus_x_power(ring, e, trunc).scale(c)
    return out


# --- t -> 1 + x ---------------------------------------------------------------


def test_tau_of_t_is_one_plus_x():
    got = sr.one_plus_x_power(sr.ZZ, 1, 6)
    assert got == sr.TruncatedSeries.from_coeffs(sr.ZZ, 6, (1, 1))


def test_tau_of_unit():
    assert sr.one_plus_x_power(sr.ZZ, 0, 5) == sr.TruncatedSeries.one(sr.ZZ, 5)


def test_tau_of_t_inverse_is_geometric_series():
    got = sr.one_plus_x_power(sr.ZZ, -1, 6)
    assert got == sr.TruncatedSeries.from_coeffs(sr.ZZ, 6, (1, -1, 1, -1, 1, -1))
    prod = got * sr.one_plus_x_power(sr.ZZ, 1, 6)
    assert prod == sr.TruncatedSeries.one(sr.ZZ, 6)


def test_tau_sends_ideal_powers_deep():
    # elements of I^n, (t - 1)^n times a random element, map to series with
    # valuation >= n
    rng = random.Random(1)
    for n in range(1, 9):
        for _ in range(5):
            elt = {}
            for e, c in rand_laurent(rng).items():
                for k in range(n + 1):
                    term = (-1) ** (n - k) * math.comb(n, k) * c
                    elt[e + k] = elt.get(e + k, 0) + term
            assert image(sr.ZZ, elt, 10).valuation() >= n


# --- the involution induced by the antipode ------------------------------------


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
    # sigma_tilde(sum c_e (1 + x)^e) = sum c_e (1 + x)^-e
    rng = random.Random(3)
    for _ in range(30):
        p = rand_laurent(rng)
        swapped = {-e: c for e, c in p.items()}
        assert sr.sigma_tilde(image(sr.ZZ, p, 9)) == image(sr.ZZ, swapped, 9)


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
        assert sr.one_plus_x_power(sr.QQ, r, 9) == sr.rat_pow(base, r)


def test_tau_q_multiplicative_on_group_elements():
    rng = random.Random(7)
    for _ in range(25):
        r1 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        r2 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        power = {r: sr.one_plus_x_power(sr.QQ, r, 8) for r in (r1, r2, r1 + r2)}
        assert power[r1 + r2] == power[r1] * power[r2]


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


@pytest.mark.parametrize("tag", ["Z", "Q", "Zp:5"])
def test_corrupted_row_breaks_containment(tag, monkeypatch):
    # (1 + x)^2 written as 1 + 3x + x^2: the ideal rows that weight it no
    # longer sum to 0 mod x^n.  Over a field, exactness compares dimensions
    # only, so containment is the certificate that catches it.
    ring = sr.ring_from_tag(tag)
    power = sr.one_plus_x_power

    def corrupted(ring, r, trunc):
        f = power(ring, r, trunc)
        return f + sr.TruncatedSeries.x(ring, trunc) if r == 2 else f

    monkeypatch.setattr(sr, "one_plus_x_power", corrupted)
    for n in range(2, 7):
        report = sr.augmentation_iso_report(ring, n)
        assert not report["ok"]
        for cert in report["certificates"].values():
            assert not cert["kernel_contained"], (n, cert)
            assert cert["kernel_exact"] or tag == "Z", (n, cert)


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
