"""The free group on a, b in truncated noncommutative power series.

a and b map to 1 + A and 1 + B in Z<<A, B>> truncated beyond a fixed total
degree K; the images are units with constant term 1 and the map is injective
on F/gamma_{K+1}(F).  Lower-central weight becomes visible as the lowest
degree of g - 1, which is what gamma_weight reads off.

Degree-d coefficients are stored densely: a list of 2^d integers indexed by
the monomial's bitmask (bit = 1 for B, most significant bit = leftmost
letter).  A degree with no nonzero coefficients is stored as None, which is
what keeps products of deep-weight elements cheap.

Every product of series goes through one convolution, _convolve: the
monomial m1 of degree i followed by m2 of degree j has index m1 << j | m2 in
degree i + j, so the block that row i times row j adds is their flattened
outer product.  Multiplying or dividing by a single letter (1 + X)^+-1 goes
through one letter step, _letter_rows.
"""

from __future__ import annotations

import math
import operator

from .series import INFINITE_WEIGHT
from .words import Gen, GroupWord, WordExpr, evaluate, parse_word_expr

# degree rows: index d holds the 2^d coefficients of degree d, None when zero
Rows = list[list[int] | None]


class MagnusElement:
    """Unit of the truncated series ring with constant term 1; immutable."""

    __slots__ = ("trunc", "_deg")

    def __init__(self, trunc: int, deg: Rows):
        self.trunc = trunc
        for d in range(1, trunc + 1):
            row = deg[d]
            if row is not None and not any(row):
                deg[d] = None
        self._deg = deg

    @staticmethod
    def one(trunc: int) -> "MagnusElement":
        if trunc < 1:
            raise ValueError("truncation weight must be >= 1")
        return MagnusElement(trunc, [None] * (trunc + 1))

    @staticmethod
    def generator(name: str, trunc: int) -> "MagnusElement":
        out = MagnusElement.one(trunc)
        row = [0, 0]
        row[0 if name == "a" else 1] = 1
        out._deg[1] = row
        return out

    def coefficient(self, monomial: str) -> int:
        """Coefficient of a monomial given as a string over {A, B}."""
        d = len(monomial)
        if d == 0:
            return 1
        if d > self.trunc:
            raise ValueError("monomial degree beyond truncation")
        row = self._deg[d]
        if row is None:
            return 0
        mask = 0
        for ch in monomial:
            mask = (mask << 1) | (1 if ch in "bB" else 0)
        return row[mask]

    def degree_terms(self, d: int) -> dict[str, int]:
        """Degree-d homogeneous part as a dict over words in a, b."""
        row = self._deg[d]
        if row is None:
            return {}
        out = {}
        for mask, c in enumerate(row):
            if c:
                word = "".join(
                    "b" if (mask >> (d - 1 - i)) & 1 else "a" for i in range(d)
                )
                out[word] = c
        return out

    def _check(self, other: "MagnusElement") -> None:
        if self.trunc != other.trunc:
            raise ValueError(
                f"mismatched truncation weights {self.trunc} != {other.trunc}"
            )

    def __mul__(self, other: "MagnusElement") -> "MagnusElement":
        """(1 + P)(1 + Q) = 1 + (P + Q) + PQ."""
        self._check(other)
        p, q = self._deg, other._deg
        out = _convolve([_add_rows(a, b, 1) for a, b in zip(p, q)], p, q)
        return MagnusElement(self.trunc, out)

    def _weight(self) -> int:
        """Lowest degree with a nonzero row; trunc + 1 when trivial."""
        for d in range(1, self.trunc + 1):
            if self._deg[d] is not None:
                return d
        return self.trunc + 1

    def inverse(self) -> "MagnusElement":
        """(1 + u)^-1 = sum (-u)^j; only trunc // weight(u) terms survive."""
        return self.__pow__(-1)

    def __pow__(self, n: int) -> "MagnusElement":
        """Integer powers via the binomial series in u = self - 1.

        Works for negative n as well (the generalized binomial coefficients
        of an integer argument are integers); u^j vanishes beyond
        j * weight(u) > trunc, so deep elements have very short series.
        """
        T = self.trunc
        w = self._weight()
        if w > T or n == 0:
            return MagnusElement.one(T)
        acc: Rows = [None] * (T + 1)
        u_rows = self._deg
        power_rows: Rows = list(u_rows)
        j = 1
        while j * w <= T:
            coeff = _binomial_int(n, j)
            if coeff:
                for d in range(j * w, T + 1):
                    row = power_rows[d]
                    if row is None:
                        continue
                    if acc[d] is None:
                        acc[d] = [coeff * c for c in row]
                    else:
                        accd = acc[d]
                        for m, c in enumerate(row):
                            if c:
                                accd[m] += coeff * c
            j += 1
            if j * w <= T:
                power_rows = _convolve([None] * (T + 1), power_rows, u_rows)
        return MagnusElement(T, acc)

    def mul_letter(self, letter: int) -> "MagnusElement":
        """Right multiplication by a generator or inverse generator
        (letter in +-1 for a, +-2 for b); linear-time in the table size."""
        return MagnusElement(self.trunc, _letter_rows(self._deg, letter, left=False))

    def conjugate_letter(self, letter: int) -> "MagnusElement":
        """x^-1 * self * x for a generator x (or inverse generator)."""
        mid = _letter_rows(self._deg, -letter, left=True)
        return MagnusElement(self.trunc, _letter_rows(mid, letter, left=False))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MagnusElement):
            return NotImplemented
        if self.trunc != other.trunc:
            return False
        for d in range(1, self.trunc + 1):
            a, b = self._deg[d], other._deg[d]
            if a is None and b is None:
                continue
            if (a or [0] * (1 << d)) != (b or [0] * (1 << d)):
                return False
        return True

    def __hash__(self):
        return hash(
            (self.trunc, tuple(tuple(r) if r else None for r in self._deg[1:]))
        )

    def is_one(self) -> bool:
        return all(r is None for r in self._deg[1:])

    def truncate(self, trunc: int) -> "MagnusElement":
        if trunc > self.trunc:
            raise ValueError("cannot extend truncation")
        return MagnusElement(trunc, [r if r is None else list(r) for r in self._deg[: trunc + 1]])

    def __repr__(self) -> str:
        nz = [d for d in range(1, self.trunc + 1) if self._deg[d] is not None]
        return f"MagnusElement(trunc={self.trunc}, degrees={nz})"


def _add_rows(a: list[int] | None, b: list[int] | None, sign: int) -> list[int] | None:
    """a + sign * b as a fresh row; None stands for a zero row."""
    if b is None:
        return None if a is None else list(a)
    if a is None:
        return list(b) if sign > 0 else list(map(operator.neg, b))
    return list(map(operator.add if sign > 0 else operator.sub, a, b))


def _convolve(out: Rows, p: Rows, q: Rows) -> Rows:
    """Add the degree-row product of p and q (no constant terms) into out,
    truncated at degree len(out) - 1, and return out.

    Row i of p times row j of q adds c1 * c2 at index m1 << j | m2 of row
    i + j; zero coefficients are skipped, since rows are sparse in practice.
    Rows of p beyond its length count as zero.
    """
    T = len(out) - 1
    for i, pi in enumerate(p[1:T], 1):
        if pi is None:
            continue
        for j in range(1, T + 1 - i):
            qj = q[j]
            if qj is None:
                continue
            d = i + j
            acc = out[d]
            if acc is None:
                acc = out[d] = [0] * (1 << d)
            for m1, c1 in enumerate(pi):
                if c1:
                    base = m1 << j
                    for m2, c2 in enumerate(qj):
                        if c2:
                            acc[base | m2] += c1 * c2
    return out


def _letter_rows(p: Rows, letter: int, left: bool) -> Rows:
    """Rows of x * P (left) or P * x (right) for the letter x = (1 + X)^+-1.

    Multiplying adds X times the previous degree of the input.  Dividing
    solves (1 + X) Q = P or Q (1 + X) = P degree by degree, so it subtracts
    X times the previous degree of the output.
    """
    T = len(p) - 1
    bit = 0 if abs(letter) == 1 else 1
    sign = 1 if letter > 0 else -1
    out: Rows = [None] * (T + 1)
    prev_rows = p if letter > 0 else out
    for d in range(1, T + 1):
        acc = None if p[d] is None else list(p[d])
        prev = prev_rows[d - 1] if d > 1 else [1]
        if prev is not None:
            if acc is None:
                acc = [0] * (1 << d)
            # X on the left is the top bit of degree d; on the right the lowest
            shift, hi = (0, bit << (d - 1)) if left else (1, bit)
            for m, c in enumerate(prev):
                if c:
                    acc[m << shift | hi] += sign * c
        out[d] = acc
    return out


def _binomial_int(n: int, j: int) -> int:
    """Generalized binomial coefficient of an integer argument (exact)."""
    num = 1
    for t in range(j):
        num *= n - t
    return num // math.factorial(j)


def commutator(g: MagnusElement, h: MagnusElement) -> MagnusElement:
    """g^-1 h^-1 g h, computed as 1 + (hg)^-1 (gh - hg).

    With g = 1 + P and h = 1 + Q the difference gh - hg is PQ - QP, which
    starts at weight(g) + weight(h); so (hg)^-1 is needed only below
    T - weight(gh - hg), and the correction product only touches deep
    degrees.
    """
    g._check(h)
    T = g.trunc
    p, q = g._deg, h._deg
    pq = _convolve([None] * (T + 1), p, q)
    qp = _convolve([None] * (T + 1), q, p)
    # 1 + (PQ - QP), so that zero rows are dropped and weight() applies
    diff = MagnusElement(T, [_add_rows(a, b, -1) for a, b in zip(pq, qp)])
    lowest = diff._weight()
    if lowest > T:
        return MagnusElement.one(T)
    out = [None if r is None else list(r) for r in diff._deg]
    if lowest < T:
        low = T - lowest
        hg_inv = (h.truncate(low) * g.truncate(low)).inverse()
        _convolve(out, hg_inv._deg, diff._deg)
    return MagnusElement(T, out)


def letter_commutator(g: MagnusElement, letter: int) -> MagnusElement:
    """[g, x] = g^-1 x^-1 g x for a generator or inverse generator x."""
    return g.inverse() * g.conjugate_letter(letter)


def eval_word(w: GroupWord | WordExpr | str, trunc: int) -> MagnusElement:
    """Image of a word under a -> 1 + A, b -> 1 + B at the given truncation.

    Plain words evaluate letter by letter; expressions evaluate bottom-up so
    commutators cost group operations instead of expanded word length.
    """
    if isinstance(w, str):
        w = parse_word_expr(w)
    if isinstance(w, WordExpr):
        return MagnusEvaluator(trunc).eval(w)
    out = MagnusElement.one(trunc)
    for letter in w.letters:
        out = out.mul_letter(letter)
    return out


class MagnusEvaluator:
    """Evaluates word expressions with a per-instance subexpression cache."""

    def __init__(self, trunc: int):
        self.trunc = trunc
        self._cache: dict[str, MagnusElement] = {}

    def eval(self, expr: WordExpr) -> MagnusElement:
        return evaluate(expr, self._cache, self)

    def one(self) -> MagnusElement:
        return MagnusElement.one(self.trunc)

    def generator(self, name: str) -> MagnusElement:
        return MagnusElement.generator(name, self.trunc)

    def comm(self, g: MagnusElement, right: WordExpr) -> MagnusElement:
        if isinstance(right, Gen):
            return letter_commutator(g, 1 if right.name == "a" else 2)
        return commutator(g, self.eval(right))


def gamma_weight(g: MagnusElement) -> int | float:
    """Lower-central weight at truncation: the lowest degree with a nonzero
    coefficient in g - 1; INFINITE_WEIGHT when g is trivial at truncation."""
    w = g._weight()
    return INFINITE_WEIGHT if w > g.trunc else w


def leading_lie(g: MagnusElement, basis):
    """Leading homogeneous part of g - 1 as a free Lie element.

    The lowest-degree part of the expansion of a group element is always a
    Lie element; a non-Lie leading term means corrupted data and raises.
    """
    from . import freelie

    k = gamma_weight(g)
    if k == INFINITE_WEIGHT:
        raise ValueError("identity element has no leading term")
    if k > basis.max_weight:
        raise ValueError("leading weight exceeds basis truncation")
    return basis.from_words(freelie.lie_coordinates(g.degree_terms(k)))


def check_group_identity(n: int, trunc: int | None = None) -> bool:
    """Group-word form of the weight-(2n + 2) alternating Engel identity.

    Checks that [[a,_2n b], a] and the alternating product of
    [[a,_{2n-1-i} b], [a,_i b]] bracketed with b agree modulo
    gamma_{2n+3}(F), by comparing images truncated at degree 2n + 2.
    """
    from .words import alternating_engel_product, commutator as wcomm, engel, A, B

    if n < 1:
        raise ValueError("n must be >= 1")
    T = trunc if trunc is not None else 2 * n + 2
    if T < 2 * n + 2:
        raise ValueError("truncation weight must be >= 2n + 2")
    ev = MagnusEvaluator(T)
    lhs = ev.eval(wcomm(engel(2 * n), A))
    rhs = ev.eval(wcomm(alternating_engel_product(n), B))
    return lhs == rhs
