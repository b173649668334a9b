"""Free Lie ring over the integers on two generators a < b.

Basis elements are indexed by Lyndon words over the alphabet {a, b}; the
bracketing of a Lyndon word w of length >= 2 is [left, right] where right is
the lexicographically smallest proper suffix of w (the standard
factorization).  That family of bracketed words is an integral basis of the
free Lie ring, graded by word length ("weight").

Normalization works through the faithful embedding into the free associative
ring Z<a,b>: every basis bracket expands to an integer polynomial in
noncommuting words, and the expansion of the word w is w plus lexicographically
larger words of the same length.  That triangularity lets us read coordinates
off a homogeneous Lie polynomial one Lyndon word at a time, exactly over Z.

All values are immutable after construction and all operations are pure, so
sharing a HallBasis between threads is safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

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


def is_lyndon(word: str) -> bool:
    return len(word) >= 1 and all(word < word[i:] for i in range(1, len(word)))


def bracket_string(word: str) -> str:
    """Nested-bracket form of a basis word, e.g. 'abb' -> '[[a,b],b]'."""
    if len(word) == 1:
        return word
    left, right = standard_factorization(word)
    return f"[{bracket_string(left)},{bracket_string(right)}]"


# --- noncommutative polynomials (dict word -> int), the normalization engine


def _conv(p: Mapping[str, int], q: Mapping[str, int]) -> dict[str, int]:
    out: dict[str, int] = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            key = w1 + w2
            val = out.get(key, 0) + c1 * c2
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


def _merge(dst: dict, src: Mapping, scale: int) -> None:
    """dst += scale * src for sparse maps; a key whose value reaches zero is
    dropped."""
    for w, c in src.items():
        val = dst.get(w, 0) + scale * c
        if val:
            dst[w] = val
        elif w in dst:
            del dst[w]


def _poly_bracket(p: Mapping[str, int], q: Mapping[str, int]) -> dict[str, int]:
    out = _conv(p, q)
    _merge(out, _conv(q, p), -1)
    return out


@functools.lru_cache(maxsize=None)
def word_expansion(word: str) -> Mapping[str, int]:
    """Expansion of the basis bracket of a Lyndon word in Z<a,b>.

    Triangular: the coefficient of `word` itself is 1 and every other word in
    the support is lexicographically larger (same length).
    """
    if len(word) == 1:
        return {word: 1}
    left, right = standard_factorization(word)
    return _poly_bracket(word_expansion(left), word_expansion(right))


def _expand(coords: Mapping[str, int]) -> dict[str, int]:
    """Expansion in Z<a,b> of a combination of basis words."""
    out: dict[str, int] = {}
    for w, c in coords.items():
        _merge(out, word_expansion(w), c)
    return out


def _decompose_homogeneous(
    poly: Mapping[str, int], weight: int, verify: bool
) -> dict[str, int]:
    """Coordinates of a homogeneous Lie polynomial in the Lyndon basis.

    Reads coefficients off in increasing lex order using triangularity of the
    basis expansions.  With verify=True the residual is recomputed and must
    vanish; a nonzero residual means the input was not a Lie element.
    """
    coords: dict[str, int] = {}
    support: list[tuple[str, int]] = []
    for w in _lyndon_by_weight(weight):
        c = poly.get(w, 0)
        for w_prev, c_prev in support:
            c -= c_prev * word_expansion(w_prev).get(w, 0)
        if c:
            coords[w] = c
            support.append((w, c))
    if verify:
        residual = dict(poly)
        _merge(residual, _expand(coords), -1)
        if residual:
            raise ValueError(
                f"degree-{weight} component is not a Lie element "
                f"(residual support {sorted(residual)[:4]}...)"
            )
    return coords


@functools.lru_cache(maxsize=None)
def _lyndon_by_weight(weight: int) -> tuple[str, ...]:
    return tuple(w for w in lyndon_words(weight) if len(w) == weight)


# --- the basis and its elements


@dataclass(frozen=True)
class HallBasis:
    """Ordered Lyndon-word basis of the free Lie ring, graded by weight.

    `words[i]` is the i-th basis word; the order is by (weight, lex).  For
    words of weight >= 2, `subterms[i]` holds the indices of the standard
    left and right factors; generators have subterms (-1, -1).
    """

    max_weight: int
    words: tuple[str, ...]
    index: Mapping[str, int] = field(repr=False)
    subterms: tuple[tuple[int, int], ...] = field(repr=False)

    def words_of_weight(self, w: int) -> tuple[str, ...]:
        return _lyndon_by_weight(w) if w <= self.max_weight else ()

    def element(self, coeffs: Mapping[int, int]) -> "FreeLieElement":
        return FreeLieElement(self, {i: c for i, c in coeffs.items() if c})

    def from_words(self, coeffs: Mapping[str, int]) -> "FreeLieElement":
        return self.element({self.index[w]: c for w, c in coeffs.items()})

    def gen(self, name: str) -> "FreeLieElement":
        if name not in GENERATORS:
            raise ValueError(f"unknown generator {name!r}")
        return self.element({self.index[name]: 1})

    def zero(self) -> "FreeLieElement":
        return FreeLieElement(self, {})


def hall_basis(max_weight: int) -> HallBasis:
    """Build the Lyndon basis up to the given weight (deterministic)."""
    words = sorted(lyndon_words(max_weight), key=lambda w: (len(w), w))
    index = {w: i for i, w in enumerate(words)}
    subterms = []
    for w in words:
        if len(w) == 1:
            subterms.append((-1, -1))
        else:
            left, right = standard_factorization(w)
            subterms.append((index[left], index[right]))
    return HallBasis(max_weight, tuple(words), index, tuple(subterms))


@dataclass(frozen=True)
class FreeLieElement:
    """Integer combination of basis brackets; no zero coefficients stored."""

    basis: HallBasis
    coeffs: Mapping[int, int]

    def __post_init__(self):
        for i, c in self.coeffs.items():
            if c == 0 or not 0 <= i < len(self.basis.words):
                raise ValueError("invalid coefficient map")

    def is_zero(self) -> bool:
        return not self.coeffs

    def weights(self) -> set[int]:
        return {len(self.basis.words[i]) for i in self.coeffs}

    def is_homogeneous(self) -> bool:
        return len(self.weights()) <= 1

    def weight(self) -> int:
        """Weight of a homogeneous element (0 for the zero element)."""
        ws = self.weights()
        if len(ws) > 1:
            raise ValueError("element is not homogeneous")
        return ws.pop() if ws else 0

    def word_coeffs(self) -> dict[str, int]:
        return {self.basis.words[i]: c for i, c in self.coeffs.items()}

    def terms(self) -> Iterator[tuple[str, int]]:
        for i in sorted(self.coeffs):
            yield self.basis.words[i], self.coeffs[i]

    def nc_expansion(self) -> dict[str, int]:
        """Expansion in Z<a,b> (sum of the basis expansions)."""
        return _expand(self.word_coeffs())

    def __add__(self, other: "FreeLieElement") -> "FreeLieElement":
        self._check(other)
        out = dict(self.coeffs)
        _merge(out, other.coeffs, 1)
        return FreeLieElement(self.basis, out)

    def __neg__(self) -> "FreeLieElement":
        return FreeLieElement(self.basis, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "FreeLieElement") -> "FreeLieElement":
        return self + (-other)

    def scale(self, n: int) -> "FreeLieElement":
        if n == 0:
            return FreeLieElement(self.basis, {})
        return FreeLieElement(self.basis, {i: n * c for i, c in self.coeffs.items()})

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


def parse_element(text: str, basis: HallBasis) -> FreeLieElement:
    """Inverse of str(): parse 'c*[..] + c*[..]' sums over nested brackets."""
    text = text.strip()
    if text == "0":
        return basis.zero()
    coeffs: dict[str, int] = {}
    for chunk in text.replace("- ", "+ -").split("+ "):
        chunk = chunk.strip()
        sign = -1 if chunk.startswith("-") else 1
        chunk = chunk.lstrip("-")
        num, _, expr = chunk.partition("*")
        word = _word_of_bracket_string(expr.strip())
        coeffs[word] = coeffs.get(word, 0) + sign * int(num)
    return basis.from_words({w: c for w, c in coeffs.items() if c})


def _word_of_bracket_string(expr: str) -> str:
    word = expr.replace("[", "").replace("]", "").replace(",", "")
    if not is_lyndon(word):
        raise ValueError(f"{expr!r} is not a basis bracket")
    return word


# --- operations


def bracket(
    u: FreeLieElement, v: FreeLieElement, *, truncate: bool = False
) -> FreeLieElement:
    """Lie bracket [u, v], normalized into the basis.

    Components whose weight exceeds the basis truncation raise
    WeightOverflowError unless truncate=True, in which case they are dropped
    (for callers that explicitly work modulo the deeper filtration terms).
    """
    u._check(v)
    basis = u.basis
    poly = _poly_bracket(u.nc_expansion(), v.nc_expansion())
    by_weight: dict[int, dict[str, int]] = {}
    for w, c in poly.items():
        by_weight.setdefault(len(w), {})[w] = c
    coords: dict[str, int] = {}
    for weight, part in sorted(by_weight.items()):
        if weight > basis.max_weight:
            if truncate:
                continue
            raise WeightOverflowError(
                f"bracket has weight-{weight} terms beyond max_weight="
                f"{basis.max_weight}"
            )
        coords.update(_decompose_homogeneous(part, weight, verify=False))
    return basis.from_words(coords)


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


def check_identity(n: int, basis: HallBasis | None = None) -> bool:
    """Alternating-sum bracket identity in weight 2n + 2.

    Checks [[a,_2n b], a] == [sum_{i<n} (-1)^i [[a,_{2n-1-i} b], [a,_i b]], b]
    by normalizing both sides; n = 1 is the classical [a,b,b,a] = [a,b,a,b].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if basis is None:
        basis = hall_basis(2 * n + 2)
    if 2 * n + 2 > basis.max_weight:
        raise WeightOverflowError("basis too small for weight 2n + 2")
    a, b = basis.gen("a"), basis.gen("b")
    lhs = bracket(engel_lie(basis, 2 * n), a)
    acc = basis.zero()
    for i in range(n):
        term = bracket(engel_lie(basis, 2 * n - 1 - i), engel_lie(basis, i))
        acc = acc + term.scale((-1) ** i)
    return lhs == bracket(acc, b)


# --- presenting a homogeneous element as [alpha, a] + [beta, b]


def _coords_bracket(U: Mapping[str, int], V: Mapping[str, int]) -> dict[str, int]:
    """Bracket of two basis-coordinate maps, result again in coordinates."""
    poly = _poly_bracket(_expand(U), _expand(V))
    if not poly:
        return {}
    weight = len(next(iter(poly)))
    return _decompose_homogeneous(poly, weight, verify=False)


def _present_pair(
    E: Mapping[str, int], v: str
) -> tuple[dict[str, int], dict[str, int]]:
    """Present [E, basis(v)] as ([alpha, a] + [beta, b]) contributions.

    Recurses on the standard factorization of v through the Jacobi rewrite
    [E, [U1, U2]] = [[E, U1], U2] - [[E, U2], U1] until the right factor is a
    single generator.  Integral throughout.
    """
    if v == "a":
        return dict(E), {}
    if v == "b":
        return {}, dict(E)
    u1, u2 = standard_factorization(v)
    a1, b1 = _present_pair(_coords_bracket(E, {u1: 1}), u2)
    a2, b2 = _present_pair(_coords_bracket(E, {u2: 1}), u1)
    _merge(a1, a2, -1)
    _merge(b1, b2, -1)
    return a1, b1


@functools.lru_cache(maxsize=None)
def _present_word(w: str) -> tuple[tuple[tuple[str, int], ...], tuple[tuple[str, int], ...]]:
    """Presentation of a single basis word; cached, basis independent.

    Words of the form a+v with Lyndon tail v, and the words a b^m, have
    one-term presentations; the rest go through the Jacobi recursion.
    """
    left, right = standard_factorization(w)
    if left == "a":
        alpha, beta = {right: -1}, {}
    elif right == "b":
        alpha, beta = {}, {left: 1}
    else:
        alpha, beta = _present_pair({left: 1}, right)
    return tuple(sorted(alpha.items())), tuple(sorted(beta.items()))


def present_with_generators(
    t: FreeLieElement,
) -> tuple[FreeLieElement, FreeLieElement]:
    """Solve [alpha, a] + [beta, b] = t over Z, t homogeneous of weight >= 2.

    The solution is not unique; this returns a deterministic one and verifies
    it by substitution before returning (a failed check means an internal
    normalization bug, reported as RuntimeError).
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
    for w, c in t.word_coeffs().items():
        aw, bw = _present_word(w)
        _merge(alpha, dict(aw), c)
        _merge(beta, dict(bw), c)
    alpha_elt = basis.from_words(alpha)
    beta_elt = basis.from_words(beta)
    check = bracket(alpha_elt, basis.gen("a")) + bracket(beta_elt, basis.gen("b"))
    if check != t:
        raise RuntimeError("presentation substitution check failed")
    return alpha_elt, beta_elt
