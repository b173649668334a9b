"""Direct checks of the exact elimination helpers."""

import math
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from nilwitness import coinv, linalg, series
from test_coinv import dense_rows


def _matmul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
    ]


def _det(mat):
    work = [[Fraction(v) for v in row] for row in mat]
    n = len(work)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            det = -det
        det *= work[c][c]
        inv = Fraction(1) / work[c][c]
        for i in range(c + 1, n):
            factor = work[i][c] * inv
            if factor:
                work[i] = [u - factor * v for u, v in zip(work[i], work[c])]
    return det


def test_hnf_transform_is_unimodular_and_consistent():
    rng = random.Random(0)
    for _ in range(25):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        H, U, rank = linalg.hnf_with_transform(mat)
        assert _matmul(U, mat) == H
        assert abs(_det(U)) == 1
        assert all(not any(row) for row in H[rank:])
        # pivots positive, staircase shape
        last = -1
        for row in H[:rank]:
            lead = next(i for i, v in enumerate(row) if v)
            assert row[lead] > 0 and lead > last
            last = lead


def _spans_full_lattice(mat, n):
    """Whether the rows span Z^n, read off the Hermite form as
    `series.augmentation_iso_report` reads it: rank n and every pivot 1."""
    H, _, rank = linalg.hnf_with_transform(mat)
    return rank == n and all(H[i][i] == 1 for i in range(n))


def test_row_lattice_full_detects_index():
    assert _spans_full_lattice([[1, 0], [0, 1]], 2)
    assert _spans_full_lattice([[2, 1], [1, 1]], 2)
    assert not _spans_full_lattice([[2, 0], [0, 1]], 2)  # index 2
    assert not _spans_full_lattice([[1, 0]], 2)  # rank deficient


def test_integer_nullspace_annihilates():
    # the rows of U below the rank are relations of the rows, one for each
    # dimension of the relation space; U is unimodular, so they span every
    # integer relation
    rng = random.Random(1)
    for _ in range(20):
        mat = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(5)]
        _, U, rank = linalg.hnf_with_transform(mat)
        assert rank == linalg.field_rank(mat)
        for cvec in U[rank:]:
            combo = [
                sum(c * mat[i][j] for i, c in enumerate(cvec)) for j in range(3)
            ]
            assert combo == [0, 0, 0]


def test_lattices_equal_up_to_row_operations():
    a = [[2, 0], [0, 3]]
    b = [[2, 3], [2, -3], [2, 0]]
    assert linalg.hermite_rows(a) == linalg.hermite_rows(b) == [[2, 0], [0, 3]]
    assert linalg.hermite_rows(a) != linalg.hermite_rows([[1, 0], [0, 3]])


def test_rref_and_reduction_canonical():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    rank, pivots, red = linalg.rref(rows)
    assert rank == 2 and pivots == [0, 1]
    vec = linalg.reduce_mod_rowspace([3, 7, 8], red, pivots)
    assert vec[0] == 0 and vec[1] == 0
    # reduced representative is unchanged by adding row-space elements
    again = linalg.reduce_mod_rowspace(
        [3 + 1, 7 + 2, 8 + 3], red, pivots
    )
    assert vec == again


def test_rref_rejects_a_dict_row():
    # a dict row would give rref the width of its nonzeros and drop column 3
    for rows in ([{0: 1, 3: 2}, {1: 1}], [[1, 0, 0, 2], {1: 1}], [(1, 0)]):
        with pytest.raises(TypeError):
            linalg.rref(rows)
    assert linalg.field_rank([{0: 1, 3: 2}, {1: 1}]) == 2


def test_rref_mod_p():
    rows = [[1, 2], [2, 4]]
    rank, pivots, _ = linalg.rref(rows, p=5)
    assert rank == 1 and pivots == [0]
    rank, _, _ = linalg.rref([[2, 1], [1, 1]], p=3)
    assert rank == 2


def test_fractions_mod_p_read_as_num_times_den_inverse():
    # 1/2 is 2 mod 3, not its integer part 0
    half = Fraction(1, 2)
    assert linalg.field_rank([[half]], 3) == 1
    assert linalg.rref([[half, 1]], 3) == (1, [0], [[1, 2]])
    assert linalg.reduce_mod_rowspace([half, 0], [[0, 1]], [1], 3) == [2, 0]
    for rows in ([[Fraction(1, 3)]], [[1, Fraction(2, 9)]]):
        with pytest.raises(ZeroDivisionError):
            linalg.field_rank(rows, 3)


def _reference_rref(rows, p):
    """Dense per-entry Gauss-Jordan elimination, kept as the reference for
    the sparse kernel behind ``linalg.rref`` and ``linalg.field_rank``."""
    coerce = Fraction if p is None else (lambda v: int(v) % p)
    work = [[coerce(v) for v in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = Fraction(1) / work[r][c] if p is None else pow(work[r][c], p - 2, p)
        for k in range(ncols):
            work[r][k] = inv * work[r][k] if p is None else inv * work[r][k] % p
        for i in range(len(work)):
            factor = work[i][c]
            if i == r or factor == 0:
                continue
            for k in range(ncols):
                value = work[i][k] - factor * work[r][k]
                work[i][k] = value if p is None else value % p
        pivots.append(c)
        r += 1
    return r, pivots, work[:r]


@st.composite
def _cases(draw):
    """Dense matrices up to 8 x 8, often mostly zero, and the field they are
    eliminated over: Q (p None), Z/3 or Z/5.  The integer entries include
    multiples of 3 and 5, nonzero integers that reduce to 0 mod p, and over
    Q some entries are fractions."""
    p = draw(st.sampled_from([None, 3, 5]))
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 8))
    zeros = [st.just(0)] * draw(st.integers(1, 4))
    entries = [*zeros, st.integers(-5, 5), st.sampled_from([3, -6, 9, 30, 5, -10])]
    if p is None:
        entries.append(st.fractions(-5, 5, max_denominator=6))
    row = st.lists(st.one_of(*entries), min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), p


# a pivot row whose other nonzero entries are multiples of 3, and a row that
# is zero mod 3 although no entry of it is zero over Z
VANISHING_MOD_3 = [[0, 3, 0, 0, 6], [0, 1, 0, 9, 0], [3, 0, 0, 0, 0], [0, 0, 0, 0, 0]]


@settings(max_examples=150, deadline=None)
@given(_cases(), st.randoms(use_true_random=False))
@example((VANISHING_MOD_3, 3), random.Random(0))
@example((VANISHING_MOD_3, None), random.Random(0))
def test_rref_matches_reference_and_ignores_row_order(case, rng):
    rows, p = case
    expected = _reference_rref(rows, p)
    reduced = linalg.rref(rows, p)
    assert reduced == expected
    assert linalg.field_rank(rows, p) == expected[0]
    # the zeros filled back in have the ring's type, as the entries do
    entry_type = Fraction if p is None else int
    assert all(type(v) is entry_type for row in reduced[2] for v in row)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert linalg.rref(shuffled, p) == expected


def _oracle_order(rows, n):
    """The dict rows of width n as `coinv.coinvariant_rank_oracle`
    eliminates them: in reverse order, each with its coordinates reversed."""
    return [{n - 1 - c: v for c, v in row.items()} for row in reversed(rows)]


@pytest.mark.parametrize("tag", ["Q", "Zp:3", "Zp:101"])
def test_relation_ranks_agree_in_both_orders(tag):
    ring = series.ring_from_tag(tag)
    p = getattr(ring, "p", None)
    for K in range(2, 25):
        rows = coinv._relation_rows(K)[1]
        n = K * (K - 1) // 2
        expected = n - K // 2
        assert linalg.field_rank(rows, p) == expected
        assert linalg.field_rank(dense_rows(K), p) == expected
        assert linalg.field_rank(_oracle_order(rows, n), p) == expected
        assert linalg.rref(dense_rows(K), p)[0] == expected


def test_rank_work_is_a_forward_echelon(monkeypatch):
    # row subtractions and entry updates of field_rank on the Z/3, K = 20
    # relation rows; a Gauss-Jordan pass that clears each pivot's column
    # above and below makes 2,004 / 4,317 in the primary order and
    # 3,360 / 12,986 in the oracle's
    subtract = linalg._subtract
    work = [0, 0]

    def counted(row, f, src, p):
        work[0] += 1
        work[1] += len(src)
        subtract(row, f, src, p)

    monkeypatch.setattr(linalg, "_subtract", counted)
    rows = coinv._relation_rows(20)[1]
    counts = []
    for order in (rows, _oracle_order(rows, 190)):
        work[:] = [0, 0]
        assert linalg.field_rank(order, 3) == 180
        counts.append(tuple(work))
    assert counts == [(246, 366), (568, 2053)]


def _sparse(rows):
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def test_field_rank_reads_dict_rows_as_the_dense_rows():
    # random mostly-zero matrices, over Q with int and with Fraction entries
    # and over Z/3 and Z/101, where some nonzero entries vanish mod p; no
    # denominator is divisible by 3
    rng = random.Random(34)
    entries = {
        "int": lambda: rng.choice([0, 0, 0, rng.randint(-9, 9), 101, -3]),
        "fraction": lambda: rng.choice([0, 0, Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4, 5, 10]))]),
    }
    for p, kind in ((None, "int"), (None, "fraction"), (3, "int"), (3, "fraction"), (101, "int")):
        for _ in range(60):
            ncols = rng.randint(1, 9)
            rows = [[entries[kind]() for _ in range(ncols)] for _ in range(rng.randint(1, 9))]
            assert linalg.field_rank(_sparse(rows), p) == linalg.field_rank(rows, p)
            residues = [[linalg.coerce_entry(v, p) for v in row] for row in rows]
            assert linalg.field_rank(rows, p) == _reference_rref(residues, p)[0]


def test_rational_echelon_keeps_primitive_integer_rows():
    # Hilbert-like rows 1/(i + j + 1), and one row that depends on two
    # others: over Q the echelon holds integer rows and `rref` divides them
    # out at the end; each pivot row is kept primitive, so that it does not
    # carry the scalings of the reductions that made it
    rows = [[Fraction(1, i + j + 1) for j in range(7)] for i in range(6)]
    rows.append([a - 3 * b for a, b in zip(rows[1], rows[4])])
    assert linalg.rref(rows) == _reference_rref(rows, None)
    assert linalg.rref(rows)[0] == 6
    for row in linalg._echelon(rows, None).values():
        assert {type(v) for v in row.values()} == {int}
        assert math.gcd(*row.values()) == 1
