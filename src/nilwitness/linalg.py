"""Exact linear algebra helpers: integer Hermite forms and field elimination.

Everything here is exact; ranks and lattice comparisons are certificates,
never floating-point estimates.  Field elimination runs over the rationals
(fractions) or over Z/p when a prime is supplied.  It takes and returns dense
rows, but holds each row by its nonzeros while it eliminates, so its work
follows the nonzero entries and their fill-in, not the full matrix.
"""

from __future__ import annotations

from fractions import Fraction


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


def row_lattice_is_full(mat: list[list[int]], n: int) -> bool:
    """True iff the rows span all of Z^n (rank n, all pivots 1)."""
    H, _, rank = hnf_with_transform(mat)
    if rank != n or (mat and len(mat[0]) != n):
        return False
    return all(H[i][i] == 1 for i in range(n))


def integer_row_nullspace(mat: list[list[int]]) -> list[list[int]]:
    """Basis of the lattice of integer relations c with c * mat = 0."""
    H, U, rank = hnf_with_transform(mat)
    return U[rank:]


def lattices_equal(a: list[list[int]], b: list[list[int]]) -> bool:
    """Whether two integer row sets span the same lattice (HNF comparison)."""
    return hermite_rows(a) == hermite_rows(b)


# --- field elimination
#
# Entries are Fractions over Q (p=None) or ints in [0, p) over Z/p.
# Elimination holds each row by its nonzeros; the helpers below act on whole
# dense rows, reducing mod p only when a prime is set, and the Hermite form
# above subtracts integer rows with _sub_multiple and p=None.


def coerce_entry(v, p: int | None):
    """v as an entry over Q or Z/p.  Over Z/p a fraction is its numerator
    times the inverse of its denominator; series.PrimeField.coerce is this."""
    if p is None:
        return Fraction(v)
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


def _eliminate(rows: list[list], p: int | None) -> tuple[list[int], list[dict]]:
    """Gauss-Jordan elimination on the nonzeros of `rows` over Q or Z/p.

    Each row is held as a dict {column: nonzero entry}.  The pivot of column c
    is the first row at or below r that holds c; it is scaled to 1 and
    subtracted from every other row that holds c, over the pivot row's
    support only, and entries that cancel are deleted.  Returns the pivot
    columns and the reduced nonzero rows.
    """
    work = [
        {c: x for c, x in ((c, coerce_entry(v, p)) for c, v in enumerate(row) if v) if x}
        for row in rows
    ]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if c in work[i]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        lead = work[r][c]
        if p is None:
            src = work[r] = {k: v / lead for k, v in work[r].items()}
        else:
            inv = pow(lead, p - 2, p)
            src = work[r] = {k: v * inv % p for k, v in work[r].items()}
        for i, row in enumerate(work):
            f = row.get(c)
            if f is None or i == r:
                continue
            for k, v in src.items():
                x = row.get(k, 0) - f * v
                if p is not None:
                    x %= p
                if x:
                    row[k] = x
                else:
                    del row[k]
        pivots.append(c)
        r += 1
    return pivots, work[:r]


def rref(rows: list[list], p: int | None = None) -> tuple[int, list[int], list[list]]:
    """Reduced row echelon form over Q or Z/p.

    Returns (rank, pivot_columns, reduced_nonzero_rows); rows are normalized
    to leading 1 with zeros above and below each pivot, so the output is a
    canonical form of the row space.
    """
    pivots, reduced = _eliminate(rows, p)
    ncols = len(rows[0]) if rows else 0
    zero = Fraction(0) if p is None else 0
    return len(pivots), pivots, [[row.get(c, zero) for c in range(ncols)] for row in reduced]


def field_rank(rows: list[list], p: int | None = None) -> int:
    return len(_eliminate(rows, p)[0])


def reduce_mod_rowspace(vec: list, rref_rows: list[list], pivots: list[int], p: int | None = None) -> list:
    """Canonical representative of vec modulo the row space given in rref."""
    out = [coerce_entry(v, p) for v in vec]
    for row, c in zip(rref_rows, pivots):
        if out[c]:
            out = _sub_multiple(out, out[c], row, p)
    return out
