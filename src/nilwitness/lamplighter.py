"""Completed lamplighter groups at truncation: R[[x]] extended by a cyclic
shift, with the shift acting through the substitution t -> 1 + x.

The coefficient ring R is any ring of the series module: the integers, the
rationals or Z/p.  An element carries no ring of its own; it reads R and the
truncation off its series.  Over Q the shift exponent may be rational (the
divisible group); over Z and Z/p it is an integer.

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
    INFINITE_WEIGHT,
    QQ,
    Ring,
    TruncatedSeries,
    ZZ,
    one_plus_x_power,
    ring_from_tag,
)
from .words import GroupWord, WordExpr, evaluate, parse_word_expr


@dataclass(frozen=True)
class LampElement:
    f: TruncatedSeries
    e: object  # int, or Fraction over Q

    @property
    def trunc(self) -> int:
        return self.f.trunc

    def __mul__(self, other: "LampElement") -> "LampElement":
        # a ring or truncation mismatch raises in the series arithmetic
        return LampElement(self.f + _shift(other.f, -self.e), self.e + other.e)

    def inverse(self) -> "LampElement":
        return LampElement(-_shift(self.f, self.e), -self.e)

    def commutator(self, other: "LampElement") -> "LampElement":
        return self.inverse() * other.inverse() * self * other

    def __pow__(self, n: int) -> "LampElement":
        if self.e == 0:
            # the kernel of the shift is abelian: (f, 0)(g, 0) = (f + g, 0)
            return LampElement(self.f.scale(n), self.e)
        return square_and_multiply(self, n, lamp_identity(self.f.ring, self.trunc))

    def is_identity(self) -> bool:
        return self.f.is_zero() and self.e == 0

    def to_json(self) -> dict:
        return {"f": self.f.to_json(), "e": str(self.e)}

    def __str__(self) -> str:
        return f"({self.f}, t^{self.e})"


def square_and_multiply(x, n: int, one):
    """x^n for an integer n by repeated squaring from the identity `one`;
    a negative n powers the inverse of x."""
    if n < 0:
        x, n = x.inverse(), -n
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


def _shift(f: TruncatedSeries, e) -> TruncatedSeries:
    """Action of t^e on a series: multiplication by (1 + x)^e.  A zero series
    is returned as it is, so powers of a pure shift build no (1 + x)^e."""
    if e == 0 or f.is_zero():
        return f
    return one_plus_x_power(f.ring, e, f.trunc) * f


def lamp_identity(ring: Ring, trunc: int) -> LampElement:
    return LampElement(TruncatedSeries.zero(ring, trunc), 0)


def lamp_a(ring: Ring, trunc: int) -> LampElement:
    """The lamp generator: the constant series 1, no shift."""
    return LampElement(TruncatedSeries.one(ring, trunc), 0)


def lamp_b(ring: Ring, trunc: int) -> LampElement:
    """The shift generator."""
    return LampElement(TruncatedSeries.zero(ring, trunc), 1)


class LampEvaluator:
    """Evaluates word expressions in a completed lamplighter group."""

    def __init__(self, ring: Ring, trunc: int):
        self.ring = ring
        self.trunc = trunc
        self._cache: dict[str, LampElement] = {}

    def eval(self, expr: WordExpr) -> LampElement:
        return evaluate(expr, self._cache, self)

    def one(self) -> LampElement:
        return lamp_identity(self.ring, self.trunc)

    def generator(self, name: str) -> LampElement:
        return (lamp_a if name == "a" else lamp_b)(self.ring, self.trunc)

    def comm(self, u: LampElement, v: LampElement) -> LampElement:
        return u.commutator(v)


def phi_word(
    w: GroupWord | WordExpr | str, ring: Ring | str = "Z", trunc: int = 8
) -> LampElement:
    """Image of a free-group word under a -> (1, 0), b -> (0, 1) over
    `ring` (a Ring or its tag).  Text and a GroupWord (whose text is its
    letters) are parsed first and evaluated as an expression."""
    if isinstance(ring, str):
        ring = ring_from_tag(ring)
    if not isinstance(w, WordExpr):
        w = parse_word_expr(str(w))
    return LampEvaluator(ring, trunc).eval(w)


def to_rational(u: LampElement) -> LampElement:
    """Coefficient-wise coercion of an element over Z into the group over Q."""
    if u.f.ring != ZZ:
        raise ValueError("expected an element over the integers")
    return LampElement(
        TruncatedSeries.from_coeffs(QQ, u.trunc, u.f.coeffs), Fraction(u.e)
    )


def gamma_weight_lamp(u: LampElement) -> int | float:
    """Lower-central weight at truncation.

    The filtration of the completed group puts (f, 0) in layer k when the
    valuation of f is at least k - 1 (k >= 2); anything with a nontrivial
    shift exponent sits in layer 1 only.  A zero series has infinite
    valuation, so the identity gets INFINITE_WEIGHT.
    """
    return 1 if u.e != 0 else u.f.valuation() + 1
