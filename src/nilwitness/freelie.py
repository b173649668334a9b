"""Free Lie ring over the integers on two generators a < b.

Basis elements are indexed by Lyndon words over the alphabet {a, b}; the
bracketing of a Lyndon word w of length >= 2 is [left, right] where right is
the lexicographically smallest proper suffix of w (the standard
factorization).  That family of bracketed words is an integral basis of the
free Lie ring, graded by word length ("weight").  An element's coordinates
are a map from Lyndon word to integer; there is no other coordinate system.

Normalization works through the faithful embedding into the free associative
ring Z<a,b>, whose homogeneous polynomials are Magnus rows (see magnus.py),
multiplied by its one kernel: every basis bracket expands to a row, and the
expansion of the word w is w plus lexicographically larger words, i.e. larger
masks, of the same length (Reutenauer, Free Lie Algebras, 1993).  That
unitriangularity makes `lie_coordinates` one exact elimination pass over Z;
it is the only way back from rows to coordinates, and it raises when the
residual does not vanish, so every normalization is certified.

All values are immutable after construction and all operations are pure, so
sharing a HallBasis between threads is safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

from .magnus import UNIT, Entries, _convolve, mask_word, mul_rows, nonzero, word_mask

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


@functools.lru_cache(maxsize=None)
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


# --- homogeneous polynomials of Z<a,b> as Magnus rows, the normalization engine


def _bracket(p: Entries, i: int, q: Entries, j: int) -> list[int]:
    """[P, Q] = PQ - QP as a row of degree i + j, for P and Q of degrees i
    and j given by their nonzero entries."""
    acc = [0] * (1 << (i + j))
    mul_rows(acc, p, q, j, 1)
    mul_rows(acc, q, p, i, -1)
    return acc


@functools.lru_cache(maxsize=None)
def word_expansion(word: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Expansion of the basis bracket of a Lyndon word in Z<a,b>, as the
    nonzero entries of its row: masks in increasing order, and coefficients.

    Triangular: the coefficient of `word` itself is 1 and every other word in
    the support is lexicographically larger (same length), so its mask is
    larger.
    """
    if len(word) == 1:
        return (word_mask(word),), (1,)
    left, right = standard_factorization(word)
    row = _bracket(word_expansion(left), len(left), word_expansion(right), len(right))
    masks, coeffs = nonzero(row)
    return tuple(masks), tuple(coeffs)


def _row(coords: Mapping[str, int], d: int) -> list[int]:
    """The row in Z<a,b> of a combination of basis words of weight d."""
    row = [0] * (1 << d)
    for w, c in coords.items():
        mul_rows(row, UNIT, word_expansion(w), d, c)
    return row


def _expand(coords: Mapping[str, int]) -> list[Entries | None]:
    """Expansion in Z<a,b> of a combination of basis words: the nonzero
    entries of its row in each weight, None where it has none."""
    rows = [[0] * (1 << d) for d in range(max(map(len, coords), default=0) + 1)]
    for w, c in coords.items():
        mul_rows(rows[len(w)], UNIT, word_expansion(w), len(w), c)
    return [nonzero(r) if any(r) else None for r in rows]


def lie_coordinates(row: list[int]) -> dict[str, int]:
    """Coordinates in the Lyndon basis of a homogeneous Lie polynomial of
    Z<a,b>, given as its row (degree d, 2^d entries).

    The Lyndon masks are walked in increasing order: the least one w left in
    the residual carries its coordinate c (triangularity), and
    c * expansion(w) is subtracted.  A residual that does not end at zero
    means the row is not a Lie element and raises ValueError.
    """
    d = len(row).bit_length() - 1
    residual = list(row)
    coords: dict[str, int] = {}
    for w, m in _lyndon_table(d).items():
        c = residual[m]
        if c:
            coords[w] = c
            mul_rows(residual, UNIT, word_expansion(w), d, -c)
    if any(residual):
        support = [mask_word(m, d) for m in nonzero(residual)[0][:4]]
        raise ValueError(f"not a Lie element (residual support {support}...)")
    return coords


@functools.lru_cache(maxsize=None)
def _lyndon_table(weight: int) -> Mapping[str, int]:
    """The Lyndon words of one weight, each mapped to its row index, in lex
    order, which is increasing order of mask; read-only, since it is shared."""
    return MappingProxyType(
        {w: word_mask(w) for w in lyndon_words(weight) if len(w) == weight}
    )


# --- the basis and its elements


@dataclass(frozen=True)
class HallBasis:
    """Ordered Lyndon-word basis of the free Lie ring, graded by weight.

    `words` lists the basis words up to `max_weight`, ordered by (weight, lex).
    """

    max_weight: int
    words: tuple[str, ...]

    def words_of_weight(self, w: int) -> tuple[str, ...]:
        return tuple(_lyndon_table(w)) if w <= self.max_weight else ()

    def from_words(self, coeffs: Mapping[str, int]) -> "FreeLieElement":
        return FreeLieElement(self, {w: c for w, c in coeffs.items() if c})

    def gen(self, name: str) -> "FreeLieElement":
        if name not in GENERATORS:
            raise ValueError(f"unknown generator {name!r}")
        return self.from_words({name: 1})

    def zero(self) -> "FreeLieElement":
        return FreeLieElement(self, {})


def hall_basis(max_weight: int) -> HallBasis:
    """Build the Lyndon basis up to the given weight (deterministic)."""
    return HallBasis(max_weight, tuple(sorted(lyndon_words(max_weight), key=_order)))


def _order(word: str) -> tuple[int, str]:
    return len(word), word


@dataclass(frozen=True)
class FreeLieElement:
    """Integer combination of basis brackets, keyed by Lyndon word; no zero
    coefficients stored."""

    basis: HallBasis
    coeffs: Mapping[str, int]

    def __post_init__(self):
        for w, c in self.coeffs.items():
            if (
                c == 0
                or not 1 <= len(w) <= self.basis.max_weight
                or w not in _lyndon_table(len(w))
            ):
                raise ValueError("invalid coefficient map")

    def is_zero(self) -> bool:
        return not self.coeffs

    def weights(self) -> set[int]:
        return {len(w) for w in self.coeffs}

    def is_homogeneous(self) -> bool:
        return len(self.weights()) <= 1

    def weight(self) -> int:
        """Weight of a homogeneous element (0 for the zero element)."""
        ws = self.weights()
        if len(ws) > 1:
            raise ValueError("element is not homogeneous")
        return ws.pop() if ws else 0

    def terms(self) -> Iterator[tuple[str, int]]:
        """(word, coefficient) pairs in basis order."""
        for w in sorted(self.coeffs, key=_order):
            yield w, self.coeffs[w]

    def __add__(self, other: "FreeLieElement") -> "FreeLieElement":
        self._check(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return self.basis.from_words(out)

    def __neg__(self) -> "FreeLieElement":
        return self.scale(-1)

    def __sub__(self, other: "FreeLieElement") -> "FreeLieElement":
        return self + (-other)

    def scale(self, n: int) -> "FreeLieElement":
        return self.basis.from_words({w: n * c for w, c in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreeLieElement):
            return NotImplemented
        return self.basis.words == other.basis.words and dict(self.coeffs) == dict(
            other.coeffs
        )

    def __hash__(self):
        return hash((self.basis.words, tuple(sorted(self.coeffs.items()))))

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
    p, q = _expand(u.coeffs), _expand(v.coeffs)
    rows = _convolve([None] * (len(p) + len(q) - 1), p, q, 1)
    _convolve(rows, q, p, -1)
    coords = {w: c for r in rows if r is not None for w, c in lie_coordinates(r).items()}
    top = max(map(len, coords), default=0)
    if top > u.basis.max_weight:
        raise WeightOverflowError(
            f"bracket has weight-{top} terms beyond max_weight={u.basis.max_weight}"
        )
    return FreeLieElement(u.basis, coords)


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


def _present_pair(
    alpha: list[int], beta: list[int], E: Entries, e: int, v: str, sign: int
) -> None:
    """Add sign * [E, basis(v)], presented as [alpha, a] + [beta, b], into
    the rows alpha and beta; E is a Lie polynomial of degree e given by its
    nonzero entries.

    Recurses on the standard factorization of v through the Jacobi rewrite
    [E, [U1, U2]] = [[E, U1], U2] - [[E, U2], U1] until the right factor is a
    single generator.  Integral throughout.
    """
    if len(v) == 1:
        mul_rows(alpha if v == "a" else beta, UNIT, E, e, sign)
        return
    u1, u2 = standard_factorization(v)
    for x, y, s in ((u1, u2, sign), (u2, u1, -sign)):
        Ex = nonzero(_bracket(E, e, word_expansion(x), len(x)))
        _present_pair(alpha, beta, Ex, e + len(x), y, s)


@functools.lru_cache(maxsize=None)
def _present_word(w: str) -> tuple[tuple[tuple[str, int], ...], tuple[tuple[str, int], ...]]:
    """Presentation of a single basis word; cached, basis independent.

    Words of the form a+v with Lyndon tail v, and the words a b^m, have
    one-term presentations; the rest go through the Jacobi recursion on rows
    and are read back by `lie_coordinates`.
    """
    left, right = standard_factorization(w)
    if left == "a":
        alpha, beta = {right: -1}, {}
    elif right == "b":
        alpha, beta = {}, {left: 1}
    else:
        rows = [0] * (1 << (len(w) - 1)), [0] * (1 << (len(w) - 1))
        _present_pair(*rows, word_expansion(left), len(left), right, 1)
        alpha, beta = map(lie_coordinates, rows)
    return tuple(sorted(alpha.items())), tuple(sorted(beta.items()))


def present_with_generators(
    t: FreeLieElement,
) -> tuple[FreeLieElement, FreeLieElement]:
    """Solve [alpha, a] + [beta, b] = t over Z, t homogeneous of weight >= 2.

    The solution is not unique; this returns a deterministic one and verifies
    it by substitution before returning (a failed check means an internal
    normalization bug, reported as RuntimeError).  The check compares rows of
    Z<a,b>: the embedding of the free Lie ring is faithful, so [alpha, a] +
    [beta, b] and t are equal exactly when their expansions are.
    """
    basis = t.basis
    if t.is_zero():
        return basis.zero(), basis.zero()
    if not t.is_homogeneous():
        raise ValueError("input must be homogeneous")
    if t.weight() < 2:
        raise ValueError("input must have weight >= 2")
    alpha: dict[str, int] = {}
    beta: dict[str, int] = {}
    for w, c in t.coeffs.items():
        for acc, part in zip((alpha, beta), _present_word(w)):
            for x, e in part:
                acc[x] = acc.get(x, 0) + c * e
    alpha_elt = basis.from_words(alpha)
    beta_elt = basis.from_words(beta)
    d = t.weight()
    if (alpha_elt.weights() | beta_elt.weights()) - {d - 1}:
        raise RuntimeError("presentation has a term of the wrong weight")
    # t - [alpha, a] - [beta, b], with [X, x] = X x - x X
    residual = _row(t.coeffs, d)
    for x, elt in (("a", alpha_elt), ("b", beta_elt)):
        p, g = nonzero(_row(elt.coeffs, d - 1)), word_expansion(x)
        mul_rows(residual, p, g, 1, -1)
        mul_rows(residual, g, p, d - 1, 1)
    if any(residual):
        raise RuntimeError("presentation substitution check failed")
    return alpha_elt, beta_elt
