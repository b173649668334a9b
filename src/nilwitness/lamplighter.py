"""Completed lamplighter groups at truncation: R[[x]] extended by a cyclic
shift t, which acts as multiplication by 1 + x; its powers (1 + x)^e come
in closed form from series.one_plus_x_power.

The coefficient ring R is any ring of the series module: the integers, the
rationals or Z/p.  An element carries no ring of its own; it reads R and the
truncation off its series.  Over Q the shift exponent may be rational (the
divisible group); over Z and Z/p it is an integer.

Elements are pairs (f, e): a series f truncated at x^K and a shift exponent
e.  A product twists each series by the inverse shift of the exponents
before it: with E_i = e_1 + ... + e_(i-1),

    (f_1, e_1) ... (f_n, e_n) = (sum_i (1 + x)^-E_i f_i, E_(n+1)),

the sign of the action chosen so that the iterated commutators [a,_k b] of
the generators a = (1, 0), b = (0, 1) land on (x^k, 0); that anchor is
pinned by tests rather than assumed.  product_of, of which * is the
two-factor case, sums the nonzero series with equal E first and shifts each
sum once: one series product per distinct E, none when every e = 0; a ring
or truncation mismatch raises.

A power sums the same twists: (f, e)^n = (f g, n e), where
g = 1 + y + ... + y^(n-1) for the shift y = (1 + x)^-e = 1 + z, so

    g = ((1 + z)^n - 1) / z = sum_(j=1..K) C(n, j) z^(j-1)

for every integer n, negative n included.  The sum is finite because z has
no constant term, and series.power_sum takes it in at most K - 1 series
products however large n is.  When e = 0 or f = 0, g is not formed: the power is
(n f, n e).  phi_word takes a word as a WordExpr or as its text, the one
form of a word in the package.
"""

from __future__ import annotations

from typing import Sequence

from .series import Ring, TruncatedSeries, Value, binomials, one_plus_x_power, power_sum
from .series import ring_from_tag
from .words import WordExpr, evaluate, parse_word_expr, seeded


class LampElement(Value):
    """The pair (f, e): a series f and a shift exponent e, an int, or a
    Fraction over Q.  Immutable by convention."""

    __slots__ = ("f", "e")

    def __init__(self, f: TruncatedSeries, e):
        self.f = f
        self.e = e

    def __mul__(self, other: "LampElement") -> "LampElement":
        if not isinstance(other, LampElement):
            return NotImplemented
        return LampElement.product_of((self, other))

    @staticmethod
    def product_of(values: Sequence["LampElement"]) -> "LampElement":
        """The product of a nonempty sequence, in order (module docstring)."""
        sums: dict = {}
        e = 0
        for v in values:
            f = sums.get(e)
            if f is None:
                sums[e] = v.f
            elif any(v.f.coeffs):
                sums[e] = f + v.f
            else:  # a zero series adds nothing, but its ring must match
                f._check(v.f)
            e += v.e
        shifted = [_shift(f, -E) for E, f in sums.items()]
        return LampElement(sum(shifted[1:], shifted[0]), e)

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
        """(f, e)^n = (f g, n e) for every integer n (module docstring)."""
        f, e = self.f, self.e
        if e == 0 or f.is_zero():
            # the kernel is abelian, and the powers of a pure shift add up
            return LampElement(f.scale(n), n * e)
        z = one_plus_x_power(f.ring, -e, f.trunc) - TruncatedSeries.one(f.ring, f.trunc)
        return LampElement(f * power_sum(z, binomials(n, f.trunc + 1)[1:]), n * e)

    def is_identity(self) -> bool:
        return self.f.is_zero() and self.e == 0

    def to_json(self) -> dict:
        return {"f": self.f.to_json(), "e": str(self.e)}

    def __str__(self) -> str:
        return f"({self.f}, t^{self.e})"


def _shift(f: TruncatedSeries, e) -> TruncatedSeries:
    """Action of t^e on a series: multiplication by (1 + x)^e.  A zero series
    is returned as it is, so products of pure shifts build no (1 + x)^e."""
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


def phi_word(w: WordExpr | str, ring: Ring | str, trunc: int) -> LampElement:
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
