"""The free group on a, b in truncated noncommutative power series.

a and b map to 1 + A and 1 + B in Z<<A, B>> truncated beyond a fixed total
degree K; the images are units with constant term 1 and the map is injective
on F/gamma_{K+1}(F).  Lower-central weight becomes visible as the lowest
degree of g - 1, which is what gamma_weight reads off.

Degree-d coefficients are stored densely: a row of 2^d integers indexed by
the monomial's bitmask (word_mask: bit 1 = B, most significant bit =
leftmost letter), so within one degree lex order of words is numeric order
of masks.  A degree with no nonzero coefficients is stored as None, which is
what keeps products of deep-weight elements cheap.  This module owns the row
format: the free Lie layer holds its homogeneous polynomials as rows too.

Rows are immutable once an element holds them, so elements share them: a
truncation holds the rows of its source, and a product holds each row of a
factor that no partial product reaches.  Only rows being built are written.
An element is 1 + scale * rows for an integer scale, 1 unless the element is
a power of a deep element (below); every reader of the rows applies it.

Products need equal truncations; a commutator does not.  [g, h] at T reads
g only up to T - weight(h) and h up to T - weight(g), so commutator returns
its result at the larger of the two truncations and asks no more of the
shorter side: [R, a] at T takes R at T - 1.

Two rows are multiplied by one of two kernels.  mul_rows forms a plain
product: the monomial m1 of degree i followed by m2 of degree j has index
m1 << j | m2 in degree i + j, so the block that row i times row j adds is
their flattened outer product, taken over the nonzero entries only, with
the side that has more entries in the inner loop.  bracket_rows forms
PQ - QP the same way, taking each coefficient product once and adding it
to the PQ block and subtracting it from the QP block; when P has no fewer
entries than Q it forms -(QP - PQ) instead, so that one loop keeps the
shorter side outermost.  _convolve runs either over the degrees of two
series; commutator runs the bracket kernel for PQ - QP into one table when
neither side is a generator; the free Lie layer runs it for every bracket,
every Jacobi rewrite and its substitution check.  A deep element,
2 weight(u) > trunc for u = g - 1, has u^2 = 0, so its powers take the
closed form (1 + u)^n = 1 + n u: a view that holds the rows of u and the
scale n, with no row copied.

A commutator with a generator x = 1 + X, the shape of [R, a] and [S, b] in
every witness defect and of each step of an iterated commutator [u,_k b],
takes a closed form of its own: [g, x] = 1 + g^-1 (YX - XY), where
Y = x^-1 (g - 1) comes from the recurrence Y_d = G_d - X Y_(d-1).  A letter
in front of a row fills the low half (a) or the high half (b) of the next degree's row,
and a letter behind it every other slot, so Y and YX - XY are slice
assignments, and x^-1 is never formed.  g^-1 has the weight of g, so its
series has about T / weight(g) terms and is skipped when
2 weight(g) + 1 > T; [x, g] is [g, x]^-1, a view when [g, x] is deep.  The
general form inverts hg, of weight 1 when one side is a letter, by a series
of about T terms; writing that inverse as g^-1 h^-1 saved nothing, because
the letter's inverse is itself a series of T terms.

A word is evaluated as an expression, text being parsed first, by
words.evaluate on a cache seeded with 1 + A, 1 + B and 1; the walk takes
[g, h] as g.commutator(h), which calls the module function commutator by
its global name.  mul_letter and conjugate_letter are plain products with
a generator; they stay because the benchmark's tracer times them as a
layer of its own.
"""

from __future__ import annotations

import operator
from itertools import compress
from typing import Sequence

from .series import INFINITE_WEIGHT, binomials
from .words import (
    A,
    B,
    Comm,
    WordExpr,
    alternating_engel_product,
    engel,
    evaluate,
    parse_word_expr,
    seeded,
)

# degree rows: index d holds the 2^d coefficients of degree d, None when zero
Rows = list[list[int] | None]
# the nonzero entries of one row: their masks in increasing order, and their
# coefficients in the same order
Entries = tuple[Sequence[int], Sequence[int]]
# the constant 1 as the entries of a degree-0 row: mul_rows(acc, UNIT, q, d, c)
# adds c * Q into acc
UNIT: Entries = ((0,), (1,))

_BITS = str.maketrans("aAbB", "0011")
_LETTERS = str.maketrans("01", "ab")


def word_mask(word: str) -> int:
    """Row index of a nonempty word over {a, b}, either case: bit 1 = b,
    most significant bit = leftmost letter."""
    return int(word.translate(_BITS), 2)


def mask_word(mask: int, d: int) -> str:
    """The word of length d over {a, b} at row index mask."""
    return format(mask, f"0{d}b").translate(_LETTERS)


def nonzero(row: list[int]) -> Entries:
    """The nonzero entries of a row, as masks and coefficients."""
    return list(compress(range(len(row)), row)), list(filter(None, row))


def mul_rows(acc: list[int], p: Entries, q: Entries, j: int, scale: int) -> None:
    """acc += scale * P * Q for homogeneous P and Q given by their nonzero
    entries, Q of degree j: m1 followed by m2 has index m1 << j | m2.

    The one place where a plain product of two coefficient rows is formed;
    a bracket PQ - QP goes through bracket_rows.  The side with more
    entries runs innermost, so a row times a single letter is one loop.
    """
    (pm, pc), (qm, qc) = p, q
    if len(pm) < len(qm):
        for m1, c1 in zip(pm, pc):
            base, c1 = m1 << j, scale * c1
            for m2, c2 in zip(qm, qc):
                acc[base | m2] += c1 * c2
    else:
        for m2, c2 in zip(qm, qc):
            c2 *= scale
            for m1, c1 in zip(pm, pc):
                acc[m1 << j | m2] += c1 * c2


def bracket_rows(acc: list[int], p: Entries, i: int, q: Entries, j: int, scale: int) -> None:
    """acc += scale * (PQ - QP) for homogeneous P of degree i and Q of degree
    j given by their nonzero entries: m1 followed by m2 has index m1 << j | m2
    in PQ, and m2 followed by m1 has index m2 << i | m1 in QP.

    The one place where a bracket of two rows is formed: each coefficient
    product is taken once, added to PQ and subtracted from QP.  The side
    with more entries runs innermost, as in mul_rows: since PQ - QP =
    -(QP - PQ), a P with no fewer entries than Q trades places with it and
    the scale changes sign, so one loop serves both orders.
    """
    if len(p[0]) >= len(q[0]):
        p, i, q, j, scale = q, j, p, i, -scale
    (pm, pc), (qm, qc) = p, q
    for m1, c1 in zip(pm, pc):
        hi, c1 = m1 << j, scale * c1
        for m2, c2 in zip(qm, qc):
            c = c1 * c2
            acc[hi | m2] += c
            acc[m2 << i | m1] -= c


class MagnusElement:
    """Unit of the truncated series ring with constant term 1; immutable.

    No row is written after construction, so elements share rows freely.
    The element is 1 + _scale * (the rows in _deg); _scale is never 0.
    """

    __slots__ = ("trunc", "_deg", "_scale")

    def __init__(self, trunc: int, deg: Rows):
        self.trunc = trunc
        for d in range(1, trunc + 1):
            row = deg[d]
            if row is not None and not any(row):
                deg[d] = None
        self._deg = deg
        self._scale = 1

    @staticmethod
    def _of(trunc: int, deg: Rows, scale: int = 1) -> "MagnusElement":
        """1 + scale * deg on rows that are already normalized: none all zero."""
        out = object.__new__(MagnusElement)
        out.trunc, out._deg, out._scale = trunc, deg, scale
        return out

    def _rows(self) -> Rows:
        """The rows of self - 1, scaled: copies unless the scale is 1."""
        s = self._scale
        return self._deg if s == 1 else [r and [s * c for c in r] for r in self._deg]

    @staticmethod
    def one(trunc: int) -> "MagnusElement":
        if trunc < 1:
            raise ValueError("truncation weight must be >= 1")
        return MagnusElement(trunc, [None] * (trunc + 1))

    @staticmethod
    def generator(name: str, trunc: int) -> "MagnusElement":
        if name not in ("a", "b"):
            raise ValueError(f"unknown generator {name!r}")
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
        return 0 if row is None else self._scale * row[word_mask(monomial)]

    def degree_terms(self, d: int) -> dict[str, int]:
        """Degree-d homogeneous part as a dict over words in a, b.  No
        computation here reads it (they all read the rows); the benchmark's
        coefficient-size metric and the tests' dict oracle do."""
        row, s = self._deg[d], self._scale
        return {} if row is None else {mask_word(m, d): s * c for m, c in zip(*nonzero(row))}

    def _check(self, other: "MagnusElement") -> None:
        if self.trunc != other.trunc:
            raise ValueError(
                f"mismatched truncation weights {self.trunc} != {other.trunc}"
            )

    def __mul__(self, other: "MagnusElement") -> "MagnusElement":
        """(1 + P)(1 + Q) = 1 + (P + Q) + PQ.

        PQ starts at degree weight(self) + weight(other): below it a row that
        only one factor holds is shared, unless that factor is a view with a
        scale, and only the rows _convolve writes are fresh.
        """
        self._check(other)
        T, p, q, sp, sq = self.trunc, self._deg, other._deg, self._scale, other._scale
        wp, wq = self._weight(), other._weight()
        low = min(wp + wq, T + 1)
        out = [_add_rows(a, sp, b, sq) for a, b in zip(p[:low], q[:low])]
        out += [_add_rows(a, sp, b, sq, fresh=True) for a, b in zip(p[low:], q[low:])]
        _convolve(out, _nonzero_rows(p, T - wq), _nonzero_rows(q, T - wp), sp * sq)
        return MagnusElement(T, out)

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
        j * weight(u) > trunc, so the series is short, and for a deep element
        (u^2 = 0) it is 1 + n u, a view on the rows of u.
        """
        T = self.trunc
        w = self._weight()
        if w > T or n == 0:
            return MagnusElement.one(T)
        if 2 * w > T:
            return MagnusElement._of(T, self._deg, n * self._scale)
        # u is the scale times the stored rows U, so u^j = scale^j U^j
        acc: Rows = [None] * (T + 1)
        u = power = _nonzero_rows(self._deg, T)
        for j, coeff in enumerate(binomials(n, T // w + 1)[1:], 1):
            if j > 1:
                power = _nonzero_rows(_convolve([None] * (T + 1), power, u, 1), T)
            for d, entries in enumerate(power):
                if entries and coeff:
                    if acc[d] is None:
                        acc[d] = [0] * (1 << d)
                    mul_rows(acc[d], UNIT, entries, d, coeff * self._scale**j)
        return MagnusElement(T, acc)

    def commutator(self, other: "MagnusElement") -> "MagnusElement":
        """[self, other]: the module function commutator, which it calls by
        its global name."""
        return commutator(self, other)

    def mul_letter(self, letter: int) -> "MagnusElement":
        """self * x for the generator or inverse generator x of a signed
        letter (+-1 for a, +-2 for b)."""
        return self * self._letter(letter)

    def conjugate_letter(self, letter: int) -> "MagnusElement":
        """x^-1 * self * x for the generator or inverse generator x of a
        signed letter."""
        x = self._letter(letter)
        return x.inverse() * self * x

    def _letter(self, letter: int) -> "MagnusElement":
        x = MagnusElement.generator("a" if abs(letter) == 1 else "b", self.trunc)
        return x if letter > 0 else x.inverse()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MagnusElement):
            return NotImplemented
        # zero rows are always stored as None and a scale is never 0, so equal
        # elements hold equal lists at equal scales
        if self.trunc != other.trunc:
            return False
        if self._scale == other._scale:
            return self._deg == other._deg
        return self._rows() == other._rows()

    def __hash__(self):
        return hash(
            (self.trunc, tuple(tuple(r) if r else None for r in self._rows()[1:]))
        )

    def is_one(self) -> bool:
        return all(r is None for r in self._deg[1:])

    def truncate(self, trunc: int) -> "MagnusElement":
        if trunc > self.trunc:
            raise ValueError("cannot extend truncation")
        return MagnusElement._of(trunc, self._deg[: trunc + 1], self._scale)

    def __repr__(self) -> str:
        nz = [d for d in range(1, self.trunc + 1) if self._deg[d] is not None]
        return f"MagnusElement(trunc={self.trunc}, degrees={nz})"


def _add_rows(
    a: list[int] | None, sa: int, b: list[int] | None, sb: int, fresh: bool = False
) -> list[int] | None:
    """sa * a + sb * b, None standing for a zero row.  A lone row at scale 1
    is returned as it is, or as a copy if fresh; any other result is fresh.
    A scaled row is added by its nonzero entries: for a 1024-slot row at 18%
    density that costs about what a dense add of two rows costs, and a dense
    scaled add 1.6 times as much."""
    if a is None or (sa != 1 and b is not None and sb == 1):
        a, sa, b, sb = b, sb, a, sa
    if a is None:
        return None
    if b is None and sa == 1:
        return list(a) if fresh else a
    if sa == sb == 1:
        return list(map(operator.add, a, b))
    acc = list(a) if sa == 1 else [sa * c for c in a]
    if b is not None:
        for m in compress(range(len(b)), b):
            acc[m] += sb * b[m]
    return acc


def _nonzero_rows(rows: Rows, top: int) -> list[Entries | None]:
    """Nonzero entries of each row up to degree top; a view's scale is passed
    to _convolve, not applied here.  A product truncated at T reads row d of
    one factor only when d <= T - weight(other factor)."""
    return [r and nonzero(r) for r in rows[: top + 1]]


def _convolve(
    out: Rows,
    p: list[Entries | None],
    q: list[Entries | None],
    scale: int,
    bracket: bool = False,
) -> Rows:
    """Add scale times the degree-row product PQ of p and q (no constant
    terms, rows given by their nonzero entries) into out, or scale times
    PQ - QP if bracket, truncated at degree len(out) - 1, and return out.
    Rows past the end of p or q count as zero.
    """
    T = len(out) - 1
    for i, pi in enumerate(p[1:T], 1):
        if pi is None:
            continue
        for j, qj in enumerate(q[1 : T + 1 - i], 1):
            if qj is None:
                continue
            d = i + j
            acc = out[d]
            if acc is None:
                acc = out[d] = [0] * (1 << d)
            if bracket:
                bracket_rows(acc, pi, i, qj, j, scale)
            else:
                mul_rows(acc, pi, qj, j, scale)
    return out


def commutator(g: MagnusElement, h: MagnusElement) -> MagnusElement:
    """g^-1 h^-1 g h at the larger of the two truncations T: in closed form
    when one side is a generator (module docstring), else computed as
    1 + (hg)^-1 (gh - hg).

    With g = 1 + P and h = 1 + Q the difference gh - hg is PQ - QP, which
    starts at weight(g) + weight(h); so (hg)^-1 is needed only below
    T - weight(gh - hg), and the correction product only touches deep
    degrees.  Degree T reads g only up to T - weight(h) and h only up to
    T - weight(g); a side that stops short of that raises ValueError.
    """
    T = max(g.trunc, h.trunc)
    wg, wh = g._weight(), h._weight()
    if g.trunc < T - wh or h.trunc < T - wg:
        raise ValueError(
            f"truncations {g.trunc} and {h.trunc} need to reach {T - wh} and "
            f"{T - wg} for a commutator at {T}"
        )
    bit = _generator_bit(h)
    if bit is not None:
        return _commutator_with_generator(g, wg, bit, T)
    bit = _generator_bit(g)
    if bit is not None:
        return _commutator_with_generator(h, wh, bit, T).inverse()
    ps = _nonzero_rows(g._deg, T - wh)
    qs = _nonzero_rows(h._deg, T - wg)
    out = _convolve([None] * (T + 1), ps, qs, g._scale * h._scale, bracket=True)
    # as 1 + (PQ - QP), so that rows that cancelled are dropped
    lowest = MagnusElement(T, out)._weight()
    if lowest < T:
        low = T - lowest
        hg_inv = (h.truncate(low) * g.truncate(low)).inverse()
        inv = _nonzero_rows(hg_inv._deg, low)
        _convolve(out, inv, _nonzero_rows(out, T - 1), hg_inv._scale)
    return MagnusElement(T, out)


# the degree-1 rows of the generators a and b
_GENERATOR_ROWS = ([1, 0], [0, 1])


def _generator_bit(g: MagnusElement) -> int | None:
    """0 if g is the generator a, 1 if it is b, None for any other element."""
    deg = g._deg
    if g._scale == 1 and g.trunc >= 1 and deg[1] in _GENERATOR_ROWS:
        if deg[2:].count(None) == g.trunc - 1:
            return deg[1][1]
    return None


def _commutator_with_generator(g: MagnusElement, w: int, bit: int, T: int) -> MagnusElement:
    """[g, x] at T for g of weight w and the generator x = 1 + X of the
    letter bit (0 for a, 1 for b): 1 + g^-1 (YX - XY) with Y = x^-1 (g - 1).

    x Y = g - 1 gives Y_d = G_d - X Y_(d-1), and YX - XY starts at w + 1,
    so g is read only below T.  A letter in front of a degree-d row is the
    low (a) or high (b) half of a degree d + 1 row, and a letter behind it
    every other slot, so no product is formed.  g^-1 = 1 + V has the weight
    of g, so V (YX - XY) starts at 2w + 1: g^-1 is needed only up to
    T - w - 1, as a series of about T / w terms, and not at all when
    2w + 1 > T.  With g = 1 + s G the whole of [g, x] - 1 is s times the
    same expression in G, so the rows are built from g's stored rows and
    the result has g's scale.
    """
    out: Rows = [None] * (T + 1)
    y = None
    for d in range(w, T):
        row = g._deg[d]
        if y is not None:
            row = list(row) if row else [0] * (1 << d)
            lo, hi = bit * len(y), (bit + 1) * len(y)
            row[lo:hi] = map(operator.sub, row[lo:hi], y)
        if row is None:
            continue
        c = [0] * (2 << d)
        c[bit::2] = row
        lo, hi = bit << d, (bit + 1) << d
        c[lo:hi] = map(operator.sub, c[lo:hi], row)
        out[d + 1] = c
        y = row
    if 2 * w + 1 <= T:
        low = T - w - 1
        inv = g.truncate(low).inverse()
        _convolve(out, _nonzero_rows(inv._deg, low), _nonzero_rows(out, T - w), inv._scale)
    result = MagnusElement(T, out)
    result._scale = g._scale
    return result


def eval_word(w: WordExpr | str, trunc: int) -> MagnusElement:
    """Image of a word under a -> 1 + A, b -> 1 + B at the given truncation.

    Text is parsed first, so every word is evaluated bottom-up as an
    expression: commutators cost group operations instead of expanded word
    length.
    """
    if not isinstance(w, WordExpr):
        w = parse_word_expr(str(w))
    return MagnusEvaluator(trunc).eval(w)


class MagnusEvaluator:
    """Evaluates word expressions with a per-instance subexpression cache."""

    def __init__(self, trunc: int):
        gen = MagnusElement.generator
        self._cache = seeded(gen("a", trunc), gen("b", trunc), MagnusElement.one(trunc))

    def eval(self, expr: WordExpr) -> MagnusElement:
        return evaluate(expr, self._cache)


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
    k = gamma_weight(g)
    if k == INFINITE_WEIGHT:
        raise ValueError("identity element has no leading term")
    if k > basis.max_weight:
        raise ValueError("leading weight exceeds basis truncation")
    return basis.from_words(basis.lie_coordinates(g._deg[k])).scale(g._scale)


def check_group_identity(n: int) -> bool:
    """Group-word form of the weight-(2n + 2) alternating Engel identity.

    Checks that [[a,_2n b], a] and the alternating product of
    [[a,_{2n-1-i} b], [a,_i b]] bracketed with b agree modulo
    gamma_{2n+3}(F), by comparing images truncated at degree 2n + 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ev = MagnusEvaluator(2 * n + 2)
    lhs = ev.eval(Comm(engel(2 * n), A))
    rhs = ev.eval(Comm(alternating_engel_product(n), B))
    return lhs == rhs
