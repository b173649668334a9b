"""The free group on a, b in truncated noncommutative power series.

a and b map to 1 + A and 1 + B in Z<<A, B>> truncated beyond a fixed total
degree K; the images are units with constant term 1 and the map is injective
on F/gamma_{K+1}(F).  Lower-central weight becomes visible as the lowest
degree of g - 1, which is what gamma_weight reads off.

Degree-d coefficients are stored as a row: a dense list of 2^d integers
indexed by the monomial's bitmask (word_mask: bit 1 = B, most significant
bit = leftmost letter), so within one degree lex order of words is numeric
order of masks.  A degree with no nonzero coefficients is stored as None,
which is what keeps products of deep-weight elements cheap.  This module
owns the row format: the free Lie layer holds its homogeneous polynomials as
dense rows too.

A row that the evaluator stores for a deep element (below) is packed when it
has at least 64 slots and fewer than a quarter of them are nonzero: the tuple
(masks, coefficients, 2^d) of its nonzero entries in increasing mask order,
as array('l') and array('q'), the coefficients a list when one needs more
than 64 bits, so packing is exact.  Deep elements hold most of a witness's
row slots, and few of those are nonzero.  nonzero returns a packed row's
entries without a scan and _add_rows adds them by index; the readers that
need a dense row (the generator commutator, leading_lie, == and hash) build
one, and coefficient looks the mask up by bisection.  Only stored values are
packed: products, commutators and powers build dense rows.

Rows are immutable once an element holds them, so elements share them: a
truncation holds the rows of its source.  Only rows being built are written.
An element is 1 + scale * rows for an integer scale, 1 unless the element is
a power of a deep element (below); every reader of the rows applies it.

A product of any number of factors is one fold, product_of, of which * is
the two-factor case and through which words.evaluate takes each product
expression: acc <- acc + G + acc G for each factor 1 + G, on one set of
rows, with no element built between factors.  acc G starts at weight(acc) +
weight(G), so below it a row that one factor holds at scale 1 stays shared
until a later factor adds to it, and every row that is written is one the
fold made.  Products need equal truncations; a commutator does not.  [g, h]
at T reads g only up to T - weight(h) and h up to T - weight(g), so
commutator returns its result at the larger of the two truncations and asks
no more of the shorter side: [R, a] at T takes R at T - 1.

Two rows are multiplied by one of two kernels, over their nonzero entries
with the side that has more of them in the inner loop: mul_rows forms a
plain product, and bracket_rows forms PQ - QP with each coefficient product
taken once.  _convolve runs either over the degrees of two series;
commutator runs the bracket kernel when neither side is a generator, and
the free Lie layer for every bracket, Jacobi rewrite and substitution
check.  A deep element, 2 weight(u) > trunc for u = g - 1, has u^2 = 0, so
its powers take the closed form (1 + u)^n = 1 + n u: a view that holds the
rows of u and the scale n, with no row copied.

A commutator with a generator x, the shape of [R, a] and [S, b] in every
witness defect and of each step of an iterated commutator [u,_k b], takes
the closed form [g, x] = 1 + g^-1 (YX - XY) of _commutator_with_generator,
built by slice assignments, and [x, g] is [g, x]^-1, a view when [g, x] is
deep.  The general form inverts hg, of weight 1 when one side is a letter,
by a series of about T terms; writing that inverse as g^-1 h^-1 saved
nothing, because the letter's inverse is itself a series of T terms.

A word is evaluated as an expression, text being parsed first, by
words.evaluate on a cache seeded with 1 + A, 1 + B and 1, which packs the
rows of the deep values it stores (above); the walk takes
[g, h] as g.commutator(h), which calls the module function commutator by
its global name.  mul_letter and conjugate_letter are plain products with
a generator; they stay because the benchmark's tracer times them as a
layer of its own, as it times *, which evaluate does not call.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect
from itertools import chain, compress
from typing import Iterator, Sequence

from .series import INFINITE_WEIGHT, binomials
from .words import A, B, Comm, WordExpr, alternating_engel_product, engel, evaluate
from .words import parse_word_expr, seeded

# a packed row: the masks of its nonzero entries in increasing order, their
# coefficients in the same order (a list when one needs more than 64 bits),
# and the number of slots 2^d of the dense row it stands for
Packed = tuple[array, array | list[int], int]
# one degree: a dense row of 2^d coefficients, or a packed one
Row = list[int] | Packed
# degree rows: index d holds the row of degree d, None when zero
Rows = list[Row | None]
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


def nonzero(row: Row) -> Entries:
    """The nonzero entries of a row, as masks and coefficients: a packed
    row's stored entries, a dense row's by a scan."""
    if type(row) is tuple:
        return row[0], row[1]
    masks = list(_nonzero_masks(row))
    return masks, list(map(row.__getitem__, masks))


# 0, 1, 2, ... up to the longest dense row scanned, but never past
# _MASKS_CAP: a scan selects its masks from here rather than making an int
# object for every slot, which halves its cost.  Index i always holds i.  The
# cap, 2^16 slots, is the longest row of a witness at witness.MAX_K + 1; a
# longer row (the identity suites reach 2^20) is scanned in chunks of 2^16
# slots, so the list holds at most 2^16 ints, about 2.4 MB.
_MASKS_CAP = 1 << 16
_MASKS: list[int] = []


def _nonzero_masks(row: list[int]) -> Iterator[int]:
    """The masks of the nonzero slots of a dense row, in increasing order."""
    n = len(row)
    if n > len(_MASKS) < _MASKS_CAP:
        _MASKS.extend(range(len(_MASKS), min(n, _MASKS_CAP)))
    if n <= _MASKS_CAP:
        return compress(_MASKS, row)
    chunks = range(0, n, _MASKS_CAP)
    return chain.from_iterable(map(c.__add__, compress(_MASKS, row[c : c + _MASKS_CAP])) for c in chunks)


def entry(entries: Entries | Packed, mask: int) -> int:
    """The coefficient at mask of a row given by its nonzero entries, or
    packed, found by bisection."""
    masks, coeffs = entries[0], entries[1]
    k = bisect(masks, mask)
    return coeffs[k - 1] if k and masks[k - 1] == mask else 0


def _dense(row: Row, scale: int = 1) -> list[int]:
    """scale * row as a new dense row."""
    if type(row) is list and scale == 1:
        return list(row)
    return _add_rows([0] * (len(row) if type(row) is list else row[2]), True, row, scale)


def _pack(row: Row | None) -> Row | None:
    """A dense row with fewer than a quarter of its slots nonzero in packed
    form; any other row as it is.  Counting the zeros first costs about a
    seventh of a scan, so a dense row is not scanned.  Coefficients that do
    not fit 64 bits stay a list, so packing is exact."""
    if type(row) is not list or 4 * (len(row) - row.count(0)) >= len(row):
        return row
    masks, coeffs = nonzero(row)
    try:
        coeffs = array("q", coeffs)
    except OverflowError:
        pass
    return array("l", masks), coeffs, len(row)


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
    The element is 1 + _scale * (the rows in _deg); _scale is never 0.  The
    evaluator's cache may give a deep element a new _deg that holds the same
    rows, some of them packed (module docstring).
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

    def _rows(self) -> list[list[int] | None]:
        """The rows of self - 1, scaled and dense: a dense row at scale 1 is
        shared, any other is a copy."""
        s = self._scale
        return [r if type(r) is list and s == 1 else r and _dense(r, s) for r in self._deg]

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
        out._deg[1] = [1, 0] if name == "a" else [0, 1]
        return out

    def coefficient(self, monomial: str) -> int:
        """Coefficient of a monomial given as a string over {A, B}."""
        d = len(monomial)
        if d == 0:
            return 1
        if d > self.trunc:
            raise ValueError("monomial degree beyond truncation")
        row, m = self._deg[d], word_mask(monomial)
        if row is None:
            return 0
        return self._scale * (row[m] if type(row) is list else entry(row, m))

    def degree_terms(self, d: int) -> dict[str, int]:
        """Degree-d homogeneous part as a dict over words in a, b.  No
        computation here reads it (they all read the rows); the benchmark's
        coefficient-size metric and the tests' dict oracle do."""
        row, s = self._deg[d], self._scale
        return {} if row is None else {mask_word(m, d): s * c for m, c in zip(*nonzero(row))}

    def __mul__(self, other: "MagnusElement") -> "MagnusElement":
        """(1 + P)(1 + Q) = 1 + (P + Q) + PQ: product_of with two factors."""
        if not isinstance(other, MagnusElement):
            return NotImplemented
        return MagnusElement.product_of((self, other))

    @staticmethod
    def product_of(values: Sequence["MagnusElement"]) -> "MagnusElement":
        """The product of a nonempty sequence, in order, as one fold (module
        docstring).  mine[d]: acc[d] is a dense row the fold made and writes."""
        T = values[0].trunc
        acc: Rows = [None] * (T + 1)
        mine = [False] * (T + 1)
        w = T + 1  # at most the weight of acc
        for g in values:
            if g.trunc != T:
                raise ValueError(f"mismatched truncation weights {T} != {g.trunc}")
            q, s, wg = g._deg, g._scale, g._weight()
            low = min(w + wg, T + 1)
            if low <= T:
                ps, qs = _nonzero_rows(acc, T - wg), _nonzero_rows(q, T - w)
            for d in range(wg, T + 1):
                a, b = acc[d], q[d]
                if b is not None or (d >= low and a is not None and not mine[d]):
                    share = a is None and s == 1 and d < low
                    acc[d], mine[d] = (b, False) if share else (_add_rows(a, mine[d], b, s), True)
            if low <= T:
                _convolve(acc, ps, qs, s)
                mine[low:] = [True] * (T + 1 - low)
            w = min(w, wg)
        return MagnusElement(T, acc)

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
        return MagnusElement.product_of((x.inverse(), self, x))

    def _letter(self, letter: int) -> "MagnusElement":
        x = MagnusElement.generator("a" if abs(letter) == 1 else "b", self.trunc)
        return x if letter > 0 else x.inverse()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MagnusElement):
            return NotImplemented
        # zero rows are always stored as None and a scale is never 0, so equal
        # elements have equal dense rows once scaled
        return self.trunc == other.trunc and self._rows() == other._rows()

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


def _add_rows(a: Row | None, mine: bool, b: Row | None, sb: int) -> list[int]:
    """a + sb * b, None standing for a zero row (not both), as a dense row
    the caller may write: a itself if mine.  Else two dense rows at scale 1
    are added slot by slot, or one side is copied, b if it is dense at scale
    1.  Then b is added by its nonzero entries, stored in a packed row and
    found by a scan in a dense one: for a 1024-slot row at 18% density that
    costs about what a dense add of two rows costs."""
    if a is None:
        return _dense(b, sb)
    if not mine:
        if sb == 1 and type(b) is list:
            if type(a) is list:
                return list(map(operator.add, a, b))
            a, b = b, a
        a = _dense(a)
    if type(b) is list:
        for m in _nonzero_masks(b):
            a[m] += sb * b[m]
    elif b is not None:
        for m, c in zip(b[0], b[1]):
            a[m] += sb * c
    return a


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
            row = _dense(row) if row else [0] * (1 << d)
            lo, hi = bit * len(y), (bit + 1) * len(y)
            row[lo:hi] = map(operator.sub, row[lo:hi], y)
        elif type(row) is tuple:
            row = _dense(row)
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
        self._cache = _PackingCache(seeded(gen("a", trunc), gen("b", trunc), MagnusElement.one(trunc)))

    def eval(self, expr: WordExpr) -> MagnusElement:
        return evaluate(expr, self._cache)


# the lowest degree whose rows are packed: rows of 64 slots and more
_PACK_DEGREE = 6


class _PackingCache(dict):
    """The evaluator's cache: a deep element it stores keeps its sparse rows
    packed (module docstring).  Only stored values are packed; the products
    that make them stay dense."""

    __slots__ = ()

    def __setitem__(self, key: str, g: MagnusElement) -> None:
        deg = g._deg
        if len(deg) > _PACK_DEGREE and 2 * g._weight() > g.trunc:
            g._deg = deg[:_PACK_DEGREE] + [_pack(r) for r in deg[_PACK_DEGREE:]]
        dict.__setitem__(self, key, g)


def gamma_weight(g: MagnusElement) -> int | float:
    """Lower-central weight at truncation: the lowest degree with a nonzero
    coefficient in g - 1; INFINITE_WEIGHT when g is trivial at truncation."""
    w = g._weight()
    return INFINITE_WEIGHT if w > g.trunc else w


def leading_lie(g: MagnusElement, basis):
    """Leading homogeneous part of g - 1 as a free Lie element.

    The lowest-degree part of the expansion of a group element is always a
    Lie element.  HallBasis.from_row certifies it by the Dynkin test, reads
    it on the Lyndon masks and keeps the row, scaled; a non-Lie leading term
    means corrupted data and raises ValueError."""
    k = gamma_weight(g)
    if k == INFINITE_WEIGHT:
        raise ValueError("identity element has no leading term")
    if k > basis.max_weight:
        raise ValueError("leading weight exceeds basis truncation")
    row = g._deg[k]
    if type(row) is tuple or g._scale != 1:
        row = _dense(row, g._scale)
    return basis.from_row(row)


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
