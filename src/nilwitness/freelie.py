"""Free Lie ring over the integers on two generators a < b.

Basis elements are indexed by Lyndon words over the alphabet {a, b}; the
bracketing of a Lyndon word w of length >= 2 is [left, right] where right is
the lexicographically smallest proper suffix of w (the standard
factorization).  That family of bracketed words is an integral basis of the
free Lie ring, graded by word length ("weight").  An element's coordinates
are a map from Lyndon word to integer; there is no other coordinate system.

Normalization works through the faithful embedding into the free associative
ring Z<a,b>, whose homogeneous polynomials are Magnus rows (see magnus.py),
bracketed by magnus.bracket_rows: every basis bracket expands to a row, and the
expansion of the word w is w plus lexicographically larger words, i.e. larger
masks, of the same length (Reutenauer, Free Lie Algebras, 1993), so a Lie
row has integer coordinates, read on the Lyndon masks.  Two readers go back
from rows to coordinates, each exact and raising on a row that is not Lie.
lie_coordinates subtracts each word's expansion and certifies by a zero
residual; brackets, alpha and beta go through it.  from_row, the reader of
leading terms, certifies by the Dynkin-Specht-Wever test theta(t) = d t,
theta the right-normed bracketing, exact over Q and so over Z, and then
solves on the Lyndon masks: it expands no word of the row's degree.

A HallBasis owns everything keyed by a Lyndon word: the mask table of each
weight, built with it, and three memos filled on first use (the expansion
row, bracket expression and factors of each basis word), freed with it.

`present_with_generators` writes t as [alpha, a] + [beta, b] in one
worklist pass: pending right factors are rewritten by Jacobi longest first,
so each is complete when taken, and words [a, v] keep the one-term form
-[v, a] that the witness words are built from.  No presentation is cached.

Elements and bases are plain classes with __slots__, immutable by convention,
and operations are pure; they take their equality, hash and repr from
series.Value.  A HallBasis only gains memo entries, each a function of its
word alone, so threads may share one: two that fill the same entry store
equal values.
"""

from __future__ import annotations

from itertools import compress, cycle
from operator import sub
from typing import Iterator, Mapping

from .magnus import UNIT, Entries, _convolve, bracket_rows, entry, mask_word, mul_rows, nonzero
from .magnus import word_mask
from .series import Value
from .words import Comm, Gen, WordExpr

GENERATORS = ("a", "b")


class WeightOverflowError(Exception):
    """A bracket produced terms beyond the basis truncation weight."""


def lyndon_words(max_weight: int) -> list[str]:
    """All Lyndon words over a < b of length <= max_weight, in lex order.

    Duval's algorithm; the count of length-w words equals the Witt number
    (1/w) * sum_{d | w} mu(d) 2^(w/d).
    """
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    out = []
    w = [0]
    while w:
        out.append("".join(GENERATORS[c] for c in w))
        w = (w * (max_weight // len(w) + 1))[:max_weight]
        while w and w[-1] == 1:
            w.pop()
        if w:
            w[-1] += 1
    return out


def witt_number(weight: int) -> int:
    """Rank of the degree-`weight` component: (1/w) sum_{d|w} mu(d) 2^(w/d)."""
    total = 0
    for d in range(1, weight + 1):
        if weight % d == 0:
            total += _mobius(d) * 2 ** (weight // d)
    return total // weight


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def standard_factorization(word: str) -> tuple[str, str]:
    """Split a Lyndon word of length >= 2 as (left, right), right the
    lexicographically smallest proper suffix.  Both halves are Lyndon."""
    if len(word) < 2:
        raise ValueError(f"no factorization of single letter {word!r}")
    right = min(word[i:] for i in range(1, len(word)))
    return word[: len(word) - len(right)], right


def bracket_string(word: str) -> str:
    """Nested-bracket form of a basis word, e.g. 'abb' -> '[[a,b],b]'."""
    if len(word) == 1:
        return word
    left, right = standard_factorization(word)
    return f"[{bracket_string(left)},{bracket_string(right)}]"


# --- the basis and its elements


class HallBasis(Value):
    """Ordered Lyndon-word basis of the free Lie ring, graded by weight.

    `words` lists the basis words up to `max_weight`, ordered by (weight, lex).
    `_masks[w]` maps the words of weight w to their row indices in lex order,
    which is increasing order of mask; `_masks[0]` is empty.  Two bases are
    equal by (max_weight, words): the mask tables follow from the words, and
    the memos are not compared.  A basis may be weakly referenced, so a test
    can see its memos freed with it.
    """

    __slots__ = ("max_weight", "words", "_masks", "_expansions", "_exprs", "_factors", "__weakref__")
    _fields = ("max_weight", "words")

    def __init__(self, max_weight: int, words: tuple[str, ...], masks: tuple[dict[str, int], ...]):
        self.max_weight = max_weight
        self.words = words
        self._masks = masks
        self._expansions: dict[str, Entries] = {}
        self._exprs: dict[str, WordExpr] = {}
        self._factors: dict[str, tuple[str, str]] = {}

    def words_of_weight(self, w: int) -> tuple[str, ...]:
        if w < 1:
            raise ValueError("weight must be >= 1")
        return tuple(self._masks[w]) if w <= self.max_weight else ()

    def from_words(self, coeffs: Mapping[str, int]) -> "FreeLieElement":
        return FreeLieElement(self, {w: c for w, c in coeffs.items() if c})

    def from_row(self, row: list[int]) -> "FreeLieElement":
        """The element whose expansion is the homogeneous row, which it
        keeps and no one may write after (module docstring): c_w is t[w] less
        c' P'[w] for each w' read before w with as many b's."""
        d = len(row).bit_length() - 1
        if _dynkin(row) != [d * c for c in row]:
            raise ValueError(f"not a Lie element (Dynkin test fails in degree {d})")
        coords: dict[str, int] = {}
        read: dict[int, list] = {}  # count of b's -> the words w' read with c' != 0
        for w, m in self._masks[d].items():
            c, same = row[m], read.setdefault(m.bit_count(), [])
            for pu, pv, i, j, bu, bv, c1 in same:  # P' = P_u P_v - P_v P_u
                if (m >> j).bit_count() == bu:  # P_u is zero off its count of b's
                    c -= c1 * entry(pu, m >> j) * entry(pv, m & ~(-1 << j))
                if (m >> i).bit_count() == bv:
                    c += c1 * entry(pv, m >> i) * entry(pu, m & ~(-1 << i))
            if c:
                coords[w] = c
                if d > 1:
                    u, v = self.factors(w)
                    pu, pv = self.expansion(u), self.expansion(v)
                    same.append((pu, pv, len(u), len(v), u.count("b"), v.count("b"), c))
        return FreeLieElement(self, coords, row)

    def gen(self, name: str) -> "FreeLieElement":
        if name not in GENERATORS:
            raise ValueError(f"unknown generator {name!r}")
        return self.from_words({name: 1})

    def zero(self) -> "FreeLieElement":
        return FreeLieElement(self, {})

    def expansion(self, word: str) -> Entries:
        """Expansion of the basis bracket of a Lyndon word in Z<a,b>, as the
        nonzero entries of its row: masks in increasing order, and
        coefficients.

        Triangular: the coefficient of `word` itself is 1 and every other word
        in the support is lexicographically larger (same length), so its mask
        is larger.
        """
        hit = self._expansions.get(word)
        if hit is None:
            if len(word) == 1:
                hit = (word_mask(word),), (1,)
            else:
                left, right = self.factors(word)
                row = [0] * (1 << len(word))
                bracket_rows(row, self.expansion(left), len(left), self.expansion(right), len(right), 1)
                hit = tuple(map(tuple, nonzero(row)))
            self._expansions[word] = hit
        return hit

    def factors(self, word: str) -> tuple[str, str]:
        """The standard factorization of a basis word, memoized."""
        hit = self._factors.get(word)
        return hit or self._factors.setdefault(word, standard_factorization(word))

    def word_expr(self, word: str) -> WordExpr:
        """Bracket expression of a basis word via its standard factorization,
        e.g. 'aab' -> [a,[a,b]]; expressions are immutable, so each is built
        once and shared."""
        hit = self._exprs.get(word)
        if hit is None:
            if len(word) == 1:
                hit = Gen(word)
            else:
                left, right = self.factors(word)
                hit = Comm(self.word_expr(left), self.word_expr(right))
            self._exprs[word] = hit
        return hit

    def lie_coordinates(self, row: list[int]) -> dict[str, int]:
        """Coordinates of a homogeneous Lie polynomial of Z<a,b>, given as its
        row (degree d <= max_weight, 2^d entries).

        The Lyndon masks are walked in increasing order: the least one w left
        in the residual carries its coordinate c (triangularity), and
        c * expansion(w) is subtracted.  A residual that does not end at zero
        means the row is not a Lie element and raises ValueError.
        """
        d = len(row).bit_length() - 1
        residual = list(row)
        coords: dict[str, int] = {}
        for w, m in self._masks[d].items():
            c = residual[m]
            if c:
                coords[w] = c
                mul_rows(residual, UNIT, self.expansion(w), d, -c)
        if any(residual):
            support = [mask_word(m, d) for m in nonzero(residual)[0][:4]]
            raise ValueError(f"not a Lie element (residual support {support}...)")
        return coords

    def _rows(self, coords: Mapping[str, int]) -> list[list[int]]:
        """Expansion in Z<a,b> of a combination of basis words: its row in
        each weight up to the largest."""
        rows = [[0] * (1 << d) for d in range(max(map(len, coords), default=0) + 1)]
        for w, c in coords.items():
            mul_rows(rows[len(w)], UNIT, self.expansion(w), len(w), c)
        return rows


def _dynkin(row: list[int]) -> list[int]:
    """theta(x1...xd) = [x1, [x2, ..., xd]] on a row, by theta(P) = sum_x
    (x theta(P^x) - theta(P^x) x), P^x the half of P after the letter x, on
    each block of 2h slots at once: x theta(P^x) is the level below in place,
    and theta(P^x) x moves the half x of each block to every other slot."""
    t, n, h = row, len(row), 2
    while h < n:
        s = [0] * n
        for x in (0, 1):
            s[x::2] = compress(t, cycle([1 - x] * h + [x] * h))
        t, h = list(map(sub, t, s)), 2 * h
    return t


def hall_basis(max_weight: int) -> HallBasis:
    """Build the Lyndon basis up to the given weight (deterministic), with
    its mask tables, in one pass over the Lyndon words in lex order."""
    masks: list[dict[str, int]] = [{} for _ in range(max_weight + 1)]
    for w in lyndon_words(max_weight):
        masks[len(w)][w] = word_mask(w)
    return HallBasis(max_weight, tuple(w for table in masks for w in table), tuple(masks))


class FreeLieElement(Value):
    """Integer combination of basis brackets, keyed by Lyndon word; no zero
    coefficients stored.  Immutable by convention.  row, no part of the
    value, is its expansion if it was read off one (HallBasis.from_row)."""

    __slots__ = ("basis", "coeffs", "row")
    _fields = ("basis", "coeffs")

    def __init__(self, basis: HallBasis, coeffs: Mapping[str, int], row: list[int] | None = None):
        for w, c in coeffs.items():
            if c == 0 or len(w) > basis.max_weight or w not in basis._masks[len(w)]:
                raise ValueError("invalid coefficient map")
        self.basis = basis
        self.coeffs = coeffs
        self.row = row

    def is_zero(self) -> bool:
        return not self.coeffs

    def weight(self) -> int:
        """Weight of a homogeneous element (0 for the zero element)."""
        ws = {len(w) for w in self.coeffs}
        if len(ws) > 1:
            raise ValueError("element is not homogeneous")
        return ws.pop() if ws else 0

    def terms(self) -> Iterator[tuple[str, int]]:
        """(word, coefficient) pairs in basis order."""
        for w in sorted(self.coeffs, key=lambda w: (len(w), w)):
            yield w, self.coeffs[w]

    def __add__(self, other: "FreeLieElement") -> "FreeLieElement":
        if not isinstance(other, FreeLieElement):
            return NotImplemented
        self._check(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return self.basis.from_words(out)

    def __neg__(self) -> "FreeLieElement":
        return self.scale(-1)

    def __sub__(self, other: "FreeLieElement") -> "FreeLieElement":
        if not isinstance(other, FreeLieElement):
            return NotImplemented
        return self + (-other)

    def scale(self, n: int) -> "FreeLieElement":
        return self.basis.from_words({w: n * c for w, c in self.coeffs.items()})

    def _key(self) -> tuple:
        return self.basis, tuple(sorted(self.coeffs.items()))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for w, c in self.terms():
            term = f"{abs(c)}*{bracket_string(w)}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {term}")
        return " ".join(parts)

    def _check(self, other: "FreeLieElement") -> None:
        if self.basis.words != other.basis.words:
            raise ValueError("elements live over different bases")


# --- operations


def bracket(u: FreeLieElement, v: FreeLieElement) -> FreeLieElement:
    """Lie bracket [u, v], normalized into the basis.

    Nonzero components whose weight exceeds the basis truncation raise
    WeightOverflowError.
    """
    u._check(v)
    basis = u.basis
    p, q = ([nonzero(r) if any(r) else None for r in basis._rows(x.coeffs)] for x in (u, v))
    rows = _convolve([None] * (len(p) + len(q) - 1), p, q, 1, bracket=True)
    # checked on the rows: the basis reads no coordinates past max_weight
    top = max((d for d, r in enumerate(rows) if r and any(r)), default=0)
    if top > basis.max_weight:
        raise WeightOverflowError(
            f"bracket has weight-{top} terms beyond max_weight={basis.max_weight}"
        )
    rows = [r for r in rows[: top + 1] if r is not None]
    return FreeLieElement(basis, {w: c for r in rows for w, c in basis.lie_coordinates(r).items()})


def engel_lie(basis: HallBasis, n: int) -> FreeLieElement:
    """Iterated bracket of a by n copies of b; weight n + 1.

    n = 0 gives the generator a; each further step brackets with b on the
    right.  In the Lyndon basis this is the single word 'a' + 'b'*n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n + 1 > basis.max_weight:
        raise WeightOverflowError(
            f"weight {n + 1} exceeds basis max_weight={basis.max_weight}"
        )
    return basis.from_words({"a" + "b" * n: 1})


def check_identity(n: int) -> bool:
    """Alternating-sum bracket identity in weight 2n + 2.

    Checks [[a,_2n b], a] == [sum_{i<n} (-1)^i [[a,_{2n-1-i} b], [a,_i b]], b]
    by normalizing both sides; n = 1 is the classical [a,b,b,a] = [a,b,a,b].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    basis = hall_basis(2 * n + 2)
    a, b = basis.gen("a"), basis.gen("b")
    lhs = bracket(engel_lie(basis, 2 * n), a)
    acc = basis.zero()
    for i in range(n):
        term = bracket(engel_lie(basis, 2 * n - 1 - i), engel_lie(basis, i))
        acc = acc + term.scale((-1) ** i)
    return lhs == bracket(acc, b)


# --- presenting a homogeneous element as [alpha, a] + [beta, b]


def present_with_generators(
    t: FreeLieElement,
) -> tuple[FreeLieElement, FreeLieElement]:
    """Solve [alpha, a] + [beta, b] = t over Z, t homogeneous of weight d >= 2.

    `pending` maps a Lyndon word v to a row E of degree d - |v|: [E, basis(v)]
    is still to be presented.  A word (u, v) of t with coefficient c seeds
    c * expansion(u) under v, except that [a, v] seeds -c * expansion(v)
    under a: its one-term form -[v, a], since a Jacobi rewrite would give
    another valid presentation and change the witness words.  Then every
    pending v of length d - 1 down to 2 is taken once and rewritten by
    [E, [V1, V2]] = [[E, V1], V2] - [[E, V2], V1] under its shorter factors
    v2 and v1, so each entry is complete when taken; the rows left under a
    and b are those of alpha and beta.  Integral throughout.

    The solution is deterministic and linear in t.  It is checked by
    substitution before it is read off (a failure means an internal
    normalization bug, reported as RuntimeError), on rows of Z<a,b>: the
    embedding of the free Lie ring is faithful, so [alpha, a] + [beta, b]
    and t are equal exactly when their expansions are (t's is the row it
    keeps, if any)."""
    basis = t.basis
    if t.is_zero():
        return basis.zero(), basis.zero()
    d = t.weight()
    if d < 2:
        raise ValueError("input must have weight >= 2")
    pending: dict[str, list[int]] = {}

    def row(v: str) -> list[int]:
        if v not in pending:
            pending[v] = [0] * (1 << (d - len(v)))
        return pending[v]

    for w, c in t.coeffs.items():
        u, v = basis.factors(w)
        if u == "a":
            mul_rows(row("a"), UNIT, basis.expansion(v), d - 1, -c)
        else:
            mul_rows(row(v), UNIT, basis.expansion(u), len(u), c)
    for n in range(d - 1, 1, -1):
        for v in [v for v in pending if len(v) == n]:
            E, e = nonzero(pending.pop(v)), d - n
            v1, v2 = basis.factors(v)
            for x, y, s in ((v1, v2, 1), (v2, v1, -1)):
                bracket_rows(row(y), E, e, basis.expansion(x), len(x), s)
    alpha, beta = row("a"), row("b")
    # t - [alpha, a] - [beta, b]
    residual = list(t.row) if t.row is not None else basis._rows(t.coeffs)[d]
    for x, r in (("a", alpha), ("b", beta)):
        bracket_rows(residual, nonzero(r), d - 1, basis.expansion(x), 1, -1)
    if any(residual):
        raise RuntimeError("presentation substitution check failed")
    return tuple(basis.from_words(basis.lie_coordinates(r)) for r in (alpha, beta))
