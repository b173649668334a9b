"""Exact linear algebra helpers: integer Hermite forms and field elimination.

Everything here is exact; ranks and lattice comparisons are certificates,
never floating-point estimates.  Field elimination runs over the rationals
(fractions) or over Z/p when a prime is supplied.
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
# Entries are Fractions over Q (p=None) or ints in [0, p) over Z/p.  The
# helpers act on whole rows, reducing mod p only when a prime is set; the
# Hermite form above subtracts integer rows with _sub_multiple and p=None.


def _coerce_row(row, p: int | None) -> list:
    if p is None:
        return [Fraction(v) for v in row]
    return [int(v) % p for v in row]


def _scale_row(row: list, c, p: int | None) -> list:
    if p is None:
        return [c * v for v in row]
    return [c * v % p for v in row]


def _sub_multiple(row: list, c, src: list, p: int | None) -> list:
    """row - c * src; entries where src is zero are kept as they are."""
    if p is None:
        return [a - c * b if b else a for a, b in zip(row, src)]
    return [(a - c * b) % p if b else a for a, b in zip(row, src)]


def rref(rows: list[list], p: int | None = None) -> tuple[int, list[int], list[list]]:
    """Reduced row echelon form over Q or Z/p.

    Returns (rank, pivot_columns, reduced_nonzero_rows); rows are normalized
    to leading 1 with zeros above and below each pivot, so the output is a
    canonical form of the row space.
    """
    work = [_coerce_row(row, p) for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        lead = work[r][c]
        inv = 1 / lead if p is None else pow(lead, p - 2, p)
        src = work[r] = _scale_row(work[r], inv, p)
        for i, row in enumerate(work):
            if i != r and row[c]:
                work[i] = _sub_multiple(row, row[c], src, p)
        pivots.append(c)
        r += 1
    return r, pivots, work[:r]


def field_rank(rows: list[list], p: int | None = None) -> int:
    return rref(rows, p)[0]


def reduce_mod_rowspace(vec: list, rref_rows: list[list], pivots: list[int], p: int | None = None) -> list:
    """Canonical representative of vec modulo the row space given in rref."""
    out = _coerce_row(vec, p)
    for row, c in zip(rref_rows, pivots):
        if out[c]:
            out = _sub_multiple(out, out[c], row, p)
    return out


def field_nullspace(rows: list[list], p: int | None = None) -> list[list]:
    """Basis of {v : rows_matrix * v = 0} over Q or Z/p (column kernel)."""
    ncols = len(rows[0]) if rows else 0
    rank, pivots, red = rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(_coerce_row(v, p))
    return basis
