"""Completed lamplighter groups at truncation: R[[x]] extended by a cyclic
shift, with the shift acting through the substitution t -> 1 + x.

Three variants, matching the coefficient rings of the series module:

* 'Z'  - integer series, integer shift exponents;
* 'Q'  - rational series, rational shift exponents (the divisible variant);
* 'Zp' - mod-p series, integer shift exponents.

Elements are pairs (f, e): a series f truncated at x^K and a shift exponent
e.  The multiplication twists the right-hand series by the inverse shift,

    (f, e) * (g, e') = (f + (1 + x)^-e * g, e + e'),

the sign of the action chosen so that the iterated commutators
[a,_k b] of the generators a = (1, 0), b = (0, 1) land on (x^k, 0); that
anchor is pinned by tests rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .series import (
    QQ,
    Ring,
    TruncatedSeries,
    ZZ,
    one_plus_x_power,
    rat_pow,
    ring_from_tag,
)
from .words import Comm, Gen, GroupWord, Pow, Prod, WordExpr, parse_word_expr

INFINITE_WEIGHT = float("inf")


@dataclass(frozen=True)
class LampVariant:
    """Which completed group we are in: coefficient ring plus exponent kind."""

    ring: Ring

    @property
    def rational_exponents(self) -> bool:
        return self.ring == QQ

    @property
    def tag(self) -> str:
        return self.ring.tag

    def coerce_exponent(self, e):
        if self.rational_exponents:
            return Fraction(e)
        e = Fraction(e)
        if e.denominator != 1:
            raise ValueError("this variant has integer shift exponents only")
        return int(e)


def variant_from_tag(tag: str) -> LampVariant:
    return LampVariant(ring_from_tag(tag))


@dataclass(frozen=True)
class LampElement:
    variant: LampVariant
    f: TruncatedSeries
    e: object  # int, or Fraction for the rational variant

    def __post_init__(self):
        if self.f.ring != self.variant.ring:
            raise ValueError("series ring does not match the group variant")

    @property
    def trunc(self) -> int:
        return self.f.trunc

    def _check(self, other: "LampElement") -> None:
        if self.variant != other.variant or self.trunc != other.trunc:
            raise ValueError("mismatched lamplighter variants or truncations")

    def __mul__(self, other: "LampElement") -> "LampElement":
        self._check(other)
        return LampElement(
            self.variant, self.f + _shift(other.f, -self.e), self.e + other.e
        )

    def inverse(self) -> "LampElement":
        return LampElement(self.variant, -_shift(self.f, self.e), -self.e)

    def commutator(self, other: "LampElement") -> "LampElement":
        return self.inverse() * other.inverse() * self * other

    def __pow__(self, n: int) -> "LampElement":
        if n < 0:
            return self.inverse() ** (-n)
        out = lamp_identity(self.variant, self.trunc)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def is_identity(self) -> bool:
        return self.f.is_zero() and self.e == 0

    def to_json(self) -> dict:
        return {"f": self.f.to_json(), "e": str(self.e)}

    def __str__(self) -> str:
        return f"({self.f}, t^{self.e})"


def _shift(f: TruncatedSeries, e) -> TruncatedSeries:
    """Action of t^e on a series: multiplication by (1 + x)^e."""
    if e == 0:
        return f
    if isinstance(e, Fraction) and e.denominator != 1:
        return rat_pow(TruncatedSeries.from_coeffs(QQ, f.trunc, (1, 1)), e) * f
    return one_plus_x_power(f.ring, int(e), f.trunc) * f


def lamp_identity(variant: LampVariant, trunc: int) -> LampElement:
    return LampElement(
        variant, TruncatedSeries.zero(variant.ring, trunc), variant.coerce_exponent(0)
    )


def lamp_a(variant: LampVariant, trunc: int) -> LampElement:
    """The lamp generator: the constant series 1, no shift."""
    return LampElement(
        variant, TruncatedSeries.one(variant.ring, trunc), variant.coerce_exponent(0)
    )


def lamp_b(variant: LampVariant, trunc: int) -> LampElement:
    """The shift generator."""
    return LampElement(
        variant, TruncatedSeries.zero(variant.ring, trunc), variant.coerce_exponent(1)
    )


class LampEvaluator:
    """Evaluates group words / word expressions in a completed lamplighter."""

    def __init__(self, variant: LampVariant, trunc: int):
        self.variant = variant
        self.trunc = trunc
        self._cache: dict[str, LampElement] = {}

    def eval(self, expr: WordExpr) -> LampElement:
        key = expr.key()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if isinstance(expr, Gen):
            out = (lamp_a if expr.name == "a" else lamp_b)(self.variant, self.trunc)
        elif isinstance(expr, Pow):
            out = self.eval(expr.base) ** expr.exp
        elif isinstance(expr, Comm):
            out = self.eval(expr.left).commutator(self.eval(expr.right))
        elif isinstance(expr, Prod):
            out = lamp_identity(self.variant, self.trunc)
            for p in expr.parts:
                out = out * self.eval(p)
        else:
            raise TypeError(f"cannot evaluate {expr!r}")
        self._cache[key] = out
        return out


def phi_word(
    w: GroupWord | WordExpr | str, variant: LampVariant | str = "Z", trunc: int = 8
) -> LampElement:
    """Image of a free-group word under a -> (1, 0), b -> (0, 1)."""
    if isinstance(variant, str):
        variant = variant_from_tag(variant)
    if isinstance(w, str):
        w = parse_word_expr(w)
    if isinstance(w, WordExpr):
        return LampEvaluator(variant, trunc).eval(w)
    gens = {
        1: lamp_a(variant, trunc),
        2: lamp_b(variant, trunc),
    }
    gens[-1] = gens[1].inverse()
    gens[-2] = gens[2].inverse()
    out = lamp_identity(variant, trunc)
    for letter in w.letters:
        out = out * gens[letter]
    return out


def to_rational(u: LampElement) -> LampElement:
    """Coefficient-wise coercion of a Z-variant element into the Q-variant."""
    if u.variant.ring != ZZ:
        raise ValueError("expected an integer-variant element")
    qvar = LampVariant(QQ)
    return LampElement(
        qvar,
        TruncatedSeries.from_coeffs(QQ, u.trunc, u.f.coeffs),
        Fraction(u.e),
    )


def gamma_weight_lamp(u: LampElement) -> int | float:
    """Lower-central weight at truncation.

    The filtration of the completed group puts (f, 0) in layer k when the
    valuation of f is at least k - 1 (k >= 2); anything with a nontrivial
    shift exponent sits in layer 1 only.
    """
    if u.e != 0:
        return 1
    v = u.f.valuation()
    if v == float("inf"):
        return INFINITE_WEIGHT
    if v == 0:
        return 1
    return v + 1
