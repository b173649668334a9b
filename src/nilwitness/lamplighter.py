"""Completed lamplighter groups at truncation: R[[x]] extended by a cyclic
shift t, which acts as multiplication by 1 + x; its powers (1 + x)^e come
in closed form from series.one_plus_x_power.

The coefficient ring R is any ring of the series module: the integers, the
rationals or Z/p.  An element carries no ring of its own; it reads R and the
truncation off its series.  Over Q the shift exponent may be rational (the
divisible group); over Z and Z/p it is an integer.

Elements are pairs (f, e): a series f truncated at x^K and a shift exponent
e.  The multiplication twists the right-hand series by the inverse shift,

    (f, e) * (g, e') = (f + (1 + x)^-e * g, e + e'),

the sign of the action chosen so that the iterated commutators
[a,_k b] of the generators a = (1, 0), b = (0, 1) land on (x^k, 0); that
anchor is pinned by tests rather than assumed.  phi_word takes a word as
a WordExpr or as its text, the one form of a word in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import (
    Ring,
    TruncatedSeries,
    one_plus_x_power,
    ring_from_tag,
)
from .words import WordExpr, evaluate, parse_word_expr, seeded


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
        """u^-1 v^-1 u v in closed form.  For u = (f, e), v = (g, e') and
        t^e the multiplication by (1 + x)^e,

            [u, v] = (t^e (t^e' - 1) f - t^e' (t^e - 1) g, 0),

        which is the identity when e = e' = 0: the kernel of the shift is
        abelian.  A term whose factor t^e - 1 or t^e' - 1 is zero is not
        formed, so a commutator with one side in the kernel costs one series
        product."""
        (f, e), (g, e2) = (self.f, self.e), (other.f, other.e)
        f._check(g)
        if not e2:
            series = g - _shift(g, e) if e else TruncatedSeries.zero(f.ring, f.trunc)
        elif not e:
            series = _shift(f, e2) - f
        else:
            series = _shift(_shift(f, e2) - f, e) - _shift(_shift(g, e) - g, e2)
        return LampElement(series, 0)

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
        self._cache = seeded(
            lamp_a(ring, trunc), lamp_b(ring, trunc), lamp_identity(ring, trunc)
        )

    def eval(self, expr: WordExpr) -> LampElement:
        return evaluate(expr, self._cache)


def phi_word(
    w: WordExpr | str, ring: Ring | str = "Z", trunc: int = 8
) -> LampElement:
    """Image of a free-group word under a -> (1, 0), b -> (0, 1) over
    `ring` (a Ring or its tag).  Text is parsed first and evaluated as an
    expression."""
    if isinstance(ring, str):
        ring = ring_from_tag(ring)
    if not isinstance(w, WordExpr):
        w = parse_word_expr(str(w))
    return LampEvaluator(ring, trunc).eval(w)


def gamma_weight_lamp(u: LampElement) -> int | float:
    """Lower-central weight at truncation.

    The filtration of the completed group puts (f, 0) in layer k when the
    valuation of f is at least k - 1 (k >= 2); anything with a nontrivial
    shift exponent sits in layer 1 only.  A zero series has infinite
    valuation, so the identity gets INFINITE_WEIGHT.
    """
    return 1 if u.e != 0 else u.f.valuation() + 1
