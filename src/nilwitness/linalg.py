"""Exact linear algebra helpers: integer Hermite forms and field elimination.

Everything here is exact; ranks and lattice comparisons are certificates,
never floating-point estimates.  Lattices go through the Hermite normal form
with its unimodular transform.  Field elimination runs over the rationals
or over Z/p when a prime is supplied, as one forward row echelon pass: a
rank is its number of pivots, and `rref` clears above the pivots by
back-substitution.  The echelon holds each row by its nonzeros, in integers
over Q, so its work follows the nonzero entries and their fill-in.  Only
`field_rank` takes a row as a dict of its nonzeros; `rref` takes and returns
dense lists, whose width it reads off the first row.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress


def hnf_with_transform(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]], int]:
    """Row Hermite normal form H = U * mat with U unimodular; returns
    (H, U, rank).  Pivot entries positive, entries above pivots reduced."""
    m = len(mat)
    H = [list(map(int, row)) for row in mat]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    ncols = len(H[0]) if m else 0
    r = 0
    for c in range(ncols):
        if r == m:
            break
        pivot_found = False
        while True:
            nz = [i for i in range(r, m) if H[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(H[i][c]))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
            p = H[r][c]
            clean = True
            for i in range(r + 1, m):
                if H[i][c]:
                    q = H[i][c] // p
                    if q:
                        H[i] = _sub_multiple(H[i], q, H[r], None)
                        U[i] = _sub_multiple(U[i], q, U[r], None)
                    if H[i][c]:
                        clean = False
            if clean:
                pivot_found = True
                break
        if pivot_found:
            if H[r][c] < 0:
                H[r] = [-x for x in H[r]]
                U[r] = [-x for x in U[r]]
            p = H[r][c]
            for i in range(r):
                q = H[i][c] // p
                if q:
                    H[i] = _sub_multiple(H[i], q, H[r], None)
                    U[i] = _sub_multiple(U[i], q, U[r], None)
            r += 1
    return H, U, r


def hermite_rows(mat: list[list[int]]) -> list[list[int]]:
    """Canonical basis (HNF nonzero rows) of the row lattice."""
    H, _, rank = hnf_with_transform(mat)
    return H[:rank]


# --- field elimination
#
# Entries are ints in [0, p) over Z/p; over Q (p=None) the echelon holds
# integer rows, and only `rref` makes Fractions.  _sub_multiple subtracts
# dense rows (the Hermite form above uses it with p=None); the echelon and
# back-substitution hold rows by their nonzeros and clear with _subtract.


def coerce_entry(v, p: int | None):
    """v as an entry over Q or Z/p.  Over Z/p a fraction is its numerator
    times the inverse of its denominator; series.PrimeField.coerce is this."""
    if p is None:
        return Fraction(v)
    if type(v) is int:
        return v % p
    if isinstance(v, Fraction):
        den = v.denominator % p
        if den == 0:
            raise ZeroDivisionError("denominator divisible by p")
        return v.numerator * pow(den, p - 2, p) % p
    return int(v) % p


def _sub_multiple(row: list, c, src: list, p: int | None) -> list:
    """row - c * src; entries where src is zero are kept as they are."""
    if p is None:
        return [a - c * b if b else a for a, b in zip(row, src)]
    return [(a - c * b) % p if b else a for a, b in zip(row, src)]


def _subtract(row: dict, k: int, src: dict, p: int | None) -> None:
    """Clear column k of row in place by src, the pivot row of column k:
    row -= row[k] * src over Z/p, where src[k] = 1, and over Q, in integers,
    row <- (s/g) row - (h/g) src for s = src[k], h = row[k], g = gcd(s, h)."""
    f = row[k]
    if p is None:
        g = math.gcd(src[k], f)
        if (s := src[k] // g) != 1:
            for c in row:
                row[c] *= s
        f //= g
    get = row.get
    for c, v in src.items():
        x = get(c, 0) - f * v
        if p is not None:
            x %= p
        if x:
            row[c] = x
        else:
            del row[c]


def _held(row, p: int | None) -> dict:
    """A dense row, or a dict {column: nonzero entry}, as a new dict of its
    nonzeros: residues over Z/p; over Q integers, scaled by the lcm of the
    denominators.  It is new because the echelon writes it in place, and
    may keep it as a pivot row that `_subtract` and `rref` write in turn."""
    if type(row) is not dict:
        row = {c: row[c] for c in compress(range(len(row)), row)}
    if p is not None:
        return {c: x for c, v in row.items() if (x := coerce_entry(v, p))}
    den = math.lcm(*[v.denominator for v in row.values()])
    return {c: v.numerator * (den // v.denominator) for c, v in row.items()}


def _echelon(rows: list[list] | list[dict], p: int | None) -> dict[int, dict]:
    """Forward row echelon form of `rows` over Q or Z/p, on their nonzeros.

    Each row is taken in turn and held by its nonzeros (`_held`).  While it
    leads with a column that has a pivot, that pivot row clears its lead; a
    row that vanishes adds nothing, and any other row becomes the pivot of
    the column it leads with, scaled to 1 over Z/p and primitive over Q.  A
    row that is already so, such as a row of ones, is kept as it is, with
    no copy.  Returns the pivot rows by pivot column, none cleared above its
    pivot.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        held = _held(row, p)
        while held:
            lead = min(held)
            src = pivots.get(lead)
            if src is None:
                if p is None:
                    if (g := math.gcd(*held.values())) != 1:
                        held = {k: v // g for k, v in held.items()}
                elif held[lead] != 1:
                    inv = pow(held[lead], p - 2, p)
                    held = {k: v * inv % p for k, v in held.items()}
                pivots[lead] = held
                break
            _subtract(held, lead, src, p)
    return pivots


def rref(rows: list[list], p: int | None = None) -> tuple[int, list[int], list[list]]:
    """Reduced row echelon form over Q or Z/p.

    Returns (rank, pivot_columns, reduced_nonzero_rows); rows are normalized
    to leading 1 with zeros above and below each pivot, so the output is a
    canonical form of the row space.  The echelon's rows are cleared above
    their pivots by back-substitution, from the last pivot to the first;
    over Q each stays an integer row, divided by its pivot at the end.
    A row that is not a list raises TypeError: the width is len(rows[0]).
    """
    if not all(isinstance(row, list) for row in rows):
        raise TypeError("rref takes dense rows as lists")
    pivots = _echelon(rows, p)
    order = sorted(pivots)
    for c in reversed(order):
        row = pivots[c]
        for k in [k for k in row if k > c and k in pivots]:
            _subtract(row, k, pivots[k], p)
    if p is None:
        pivots = {c: {k: Fraction(v, row[c]) for k, v in row.items()} for c, row in pivots.items()}
    ncols = len(rows[0]) if rows else 0
    zero = Fraction(0) if p is None else 0
    return len(order), order, [[pivots[c].get(k, zero) for k in range(ncols)] for c in order]


def field_rank(rows: list[list] | list[dict], p: int | None = None) -> int:
    return len(_echelon(rows, p))


def reduce_mod_rowspace(vec: list, rref_rows: list[list], pivots: list[int], p: int | None = None) -> list:
    """Canonical representative of vec modulo the row space given in rref."""
    out = [coerce_entry(v, p) for v in vec]
    for row, c in zip(rref_rows, pivots):
        if out[c]:
            out = _sub_multiple(out, out[c], row, p)
    return out
