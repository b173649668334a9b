"""Coinvariant quotients of the truncated exterior square and the
involutive-field exactness battery."""

import itertools
import random
from fractions import Fraction

import pytest

from nilwitness import cli
from nilwitness import coinv as cv
from nilwitness import linalg
from nilwitness import series as sr
from nilwitness import witness as wt


def rand_series(ring, trunc, rng):
    if isinstance(ring, sr.RationalRing):
        return sr.TruncatedSeries.from_coeffs(
            ring, trunc, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(trunc)]
        )
    return sr.TruncatedSeries.from_coeffs(
        ring, trunc, [rng.randint(-4, 4) for _ in range(trunc)]
    )


def rand_scalar(rng):
    """A scalar u + v sqrt(d) as its rational pair (u, v)."""
    return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))


def rand_vec(F, rng):
    """A vector of V as its 2 dim rational coordinates."""
    return tuple(c for _ in range(F.dim) for c in rand_scalar(rng))


def reduced(ring, K, rows):
    """(rank, pivots, rows) of the quotient of the K(K - 1)/2-dimensional
    exterior square by `rows`, eliminated by `linalg.rref`."""
    p = ring.p if isinstance(ring, sr.PrimeField) else None
    rel_rank, pivots, rref_rows = linalg.rref(rows, p)
    return K * (K - 1) // 2 - rel_rank, tuple(pivots), tuple(tuple(r) for r in rref_rows)


def eliminate(ring, K, exponents):
    """The quotient by the relations of the shift powers t^r, r in
    `exponents`, on rows from the dense oracle rather than `_relation_rows`."""
    return reduced(ring, K, dense_relation_rows(ring, K, exponents))


def dense_rows(K):
    """The rows that `build_coinvariants` eliminates for its rank, as dense
    lists of K(K - 1)/2 entries: `linalg.rref` reads its row width off
    them."""
    n = K * (K - 1) // 2
    return [[row.get(c, 0) for c in range(n)] for row in cv._relation_rows(K)[1]]


def eliminated(ring, K):
    """The single-shift quotient on the rows that `build_coinvariants`
    eliminates for its rank."""
    return reduced(ring, K, dense_rows(K))


def elimination_class_map(ring, K):
    """The class map by elimination, kept here as an oracle for the closed
    form: wedge coordinates of f ^ 1 reduced modulo the rref of the relation
    rows."""
    p = ring.p if isinstance(ring, sr.PrimeField) else None
    _, pivots, red = linalg.rref(dense_rows(K), p)
    one = sr.TruncatedSeries.one(ring, K)

    def reduce(vec):
        return tuple(linalg.reduce_mod_rowspace(list(vec), red, pivots, p))

    return reduce, lambda f: reduce(dense_wedge(f, one))


# --- exterior square and quotient --------------------------------------------


def test_lambda2_dimension():
    for K in (2, 4, 6, 8):
        S = cv.build_coinvariants(sr.QQ, K)
        assert S.dim == K * (K - 1) // 2


def test_action_classes_collapse():
    rng = random.Random(0)
    reduce, _ = elimination_class_map(sr.QQ, 6)
    for _ in range(20):
        v = rand_series(sr.QQ, 6, rng)
        w = rand_series(sr.QQ, 6, rng)
        r = Fraction(rng.randint(1, 6))
        t_r = sr.one_plus_x_power(sr.QQ, r, 6)
        tv, tw = t_r * v, t_r * w
        assert reduce(dense_wedge(v, w)) == reduce(dense_wedge(tv, tw))
        assert cv.pairing(v, w) == cv.pairing(tv, tw)


def test_rank_matches_independent_oracle():
    # every weight that coinv accepts over Z/3; over Q and Z/101 every
    # weight up to 24 and three past it
    weights = [*range(2, 25), 32, 48, 64]
    for ring, Ks in (
        (sr.PrimeField(3), range(2, cli.MAX_SERIES_WEIGHT + 1)),
        (sr.QQ, weights),
        (sr.PrimeField(101), weights),
    ):
        for K in Ks:
            rank = cv.build_coinvariants(ring, K).rank
            assert rank == cv.coinvariant_rank_oracle(ring, K) == K // 2, (ring, K)


def test_oracle_builds_only_its_own_rows(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("the oracle must not run the primary build")

    expected = {
        (ring, K): cv.build_coinvariants(ring, K).rank
        for ring in (sr.QQ, sr.PrimeField(3))
        for K in (3, 6)
    }
    monkeypatch.setattr(cv, "build_coinvariants", no_build)
    for (ring, K), rank in expected.items():
        assert cv.coinvariant_rank_oracle(ring, K) == rank


def renumbered(K, key):
    """The relation rows of truncation K, taken in the order of their wedge
    pairs sorted by `key`, descending, with the columns renumbered in that
    order; and the wedge pair of each new column."""
    pairs, rows = cv._relation_rows(K)
    order = sorted(range(len(pairs)), key=lambda c: key(pairs[c]), reverse=True)
    column = {c: k for k, c in enumerate(order)}
    return [{column[c]: v for c, v in rows[r].items()} for r in order], [pairs[c] for c in order]


def lex_reversed(K):
    """The order that the oracle used before the reversed colex one."""
    return renumbered(K, lambda pair: pair)


def colex_reversed(K):
    """The order of `coinvariant_rank_oracle`: pairs (i, j) by (j, i),
    descending."""
    return renumbered(K, lambda pair: pair[::-1])


def captured_echelon(compute, ring, K):
    """The rows that compute(ring, K) passes to `linalg.field_rank`, and
    the pivot columns of their echelon; their number is the rank that
    `field_rank` returns."""
    seen = []

    def capture(rows, p=None):
        pivots = linalg._echelon(rows, p)
        seen.append((rows, pivots.keys()))
        return len(pivots)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "field_rank", capture)
        compute(ring, K)
    [(rows, pivots)] = seen
    return rows, pivots


def test_oracle_pivots_on_other_columns_than_the_build():
    # the oracle is independent of the build: from K = 4 on its echelon
    # leads with other wedge pairs; and it picks the pivots that the
    # lex-reversed order picks, whose fill-in grows fast past K = 24
    Z3 = sr.PrimeField(3)
    for ring, Ks in ((Z3, range(4, 65)), (sr.QQ, range(4, 25))):
        p = getattr(ring, "p", None)
        for K in Ks:
            rows, pivots = captured_echelon(cv.coinvariant_rank_oracle, ring, K)
            order, pairs = colex_reversed(K)
            assert rows == order
            chosen = {pairs[c] for c in pivots}
            if ring is Z3:
                lex = list(itertools.combinations(range(K), 2))
                assert chosen != {lex[c] for c in captured_echelon(cv.build_coinvariants, Z3, K)[1]}, K
            if K <= 24:
                lex_rows, lex_pairs = lex_reversed(K)
                assert chosen == {lex_pairs[c] for c in linalg._echelon(lex_rows, p)}, K


def test_oracle_meets_no_fill_in(monkeypatch):
    # at K = 64 over Q the oracle's echelon reads no more pivot entries than
    # the build's, and each is 0 or +-1; the lex-reversed order read
    # 511,965 entries of up to 184 bits
    subtract = linalg._subtract
    reads = []

    def counted(row, k, src, p):
        reads.append((len(src), max(abs(v).bit_length() for v in src.values())))
        subtract(row, k, src, p)

    monkeypatch.setattr(linalg, "_subtract", counted)
    read = []
    for compute in (cv.build_coinvariants, cv.coinvariant_rank_oracle):
        reads.clear()
        compute(sr.QQ, 64)
        read.append(sum(n for n, _ in reads))
        assert max(bits for _, bits in reads) == 1
    built, oracle = read
    assert oracle <= built


@pytest.mark.parametrize("ring", [sr.QQ, sr.PrimeField(3)], ids=["Q", "Z3"])
def test_single_shift_gives_the_rref_of_all_shifts(ring):
    for K in range(2, 11):
        assert eliminated(ring, K) == eliminate(ring, K, range(1, K + 1))
        assert cv.build_coinvariants(ring, K).rank == eliminated(ring, K)[0]


def test_relation_saturation():
    for K in (4, 6, 8):
        more = tuple(range(1, K + 2)) + (Fraction(1, 2),)
        assert eliminated(sr.QQ, K) == eliminate(sr.QQ, K, more)
    # mod-p variant: a single shift generates, extra powers change nothing
    Z3 = sr.PrimeField(3)
    for K in (4, 8):
        assert eliminated(Z3, K) == eliminate(Z3, K, (1, 2, 3))


def test_redundant_relation_keeps_rank():
    assert eliminated(sr.QQ, 5) == eliminate(sr.QQ, 5, (1, 2))


def test_theta_linear_and_kills_constants():
    rng = random.Random(1)
    for ring in (sr.QQ, sr.PrimeField(3)):
        zero = sr.TruncatedSeries.zero(ring, 6)
        one = sr.TruncatedSeries.one(ring, 6)
        assert all(c == 0 for c in cv.theta(zero))
        assert all(c == 0 for c in cv.theta(one))
        for _ in range(25):
            f = rand_series(ring, 6, rng)
            g = rand_series(ring, 6, rng)
            lhs = cv.theta(f + g)
            rhs = tuple(ring.coerce(u + v) for u, v in zip(cv.theta(f), cv.theta(g)))
            assert lhs == rhs
            c = ring.coerce(3)
            assert cv.theta(f.scale(c)) == tuple(ring.coerce(c * u) for u in cv.theta(f))


def test_theta_classes_of_built_witnesses_reported():
    # every witness series is fixed by the involution, so its class is zero,
    # by the closed form and by the elimination oracle alike
    S = cv.build_coinvariants(sr.QQ, 8)
    _, by_elimination = elimination_class_map(sr.QQ, 8)
    for q in [(0, 0, 0), (1, 0, 1), (1, 1, 0)]:
        pair = wt.build_witness(q, 8)
        f = wt.witness_series(pair)
        fq = sr.TruncatedSeries.from_coeffs(sr.QQ, 8, f.coeffs)
        vec = cv.theta(fq)
        assert len(vec) == S.rank == 4
        assert not any(vec) and not any(by_elimination(fq))


def test_theta_makes_no_series_product(monkeypatch):
    def no_product(self, other):
        raise AssertionError("theta must make no series product")

    rng = random.Random(9)
    for ring in (sr.QQ, sr.PrimeField(5)):
        f = rand_series(ring, 9, rng)
        want = cv.pairing(f, sr.TruncatedSeries.one(ring, 9)).coeffs[1::2]
        with monkeypatch.context() as patch:
            patch.setattr(sr.TruncatedSeries, "__mul__", no_product)
            assert cv.theta(f) == want


def test_theta_rejects_series_over_Z():
    f = sr.TruncatedSeries.x(sr.ZZ, 6)
    with pytest.raises(ValueError):
        cv.theta(f)


# --- involutive fields --------------------------------------------------------


@pytest.mark.parametrize("d,dim", [(-1, 2), (2, 2), (5, 3)])
def test_exactness_instances(d, dim):
    report = cv.involution_exactness_report(cv.InvolutiveField(d, dim))
    assert report["ok"], report


def test_psi_certificate_polarizes_on_the_rational_basis(monkeypatch):
    # psi is evaluated at b_k + b_l for k <= l over the 2 dim rational basis
    # vectors: (2 dim)(2 dim + 1) / 2 points, 21 at dim 3, and no others
    seen = []

    def recording(F, v, u):
        seen.append(v)
        return real_psi(F, v, u)

    real_psi = cv.psi_value
    monkeypatch.setattr(cv, "psi_value", recording)
    F = cv.InvolutiveField(5, 3)
    assert cv.involution_exactness_report(F)["psi_kills_D"]
    basis = F.rational_basis()
    assert basis == [tuple(int(i == j) for j in range(6)) for i in range(6)]
    assert seen == [F.add_vec(b, c) for b, c in itertools.combinations_with_replacement(basis, 2)]
    assert len(seen) == 21


# wrong versions of the one map that each certified key reads
REAL_SCALE = cv.InvolutiveField.scale_vec
REAL_SPAN_ROWS = cv._diagonal_span_rows


def skewed_scale(F, alpha, vec):
    """The rational part of alpha acts as it should, but its sqrt(d) part
    lands one coordinate over: right at alpha = 1, wrong at sqrt(d)."""
    rational = REAL_SCALE(F, (alpha[0], 0), vec)
    irrational = REAL_SCALE(F, (0, alpha[1]), vec[2:] + vec[:2])
    return F.add_vec(rational, irrational)


def span_rows_with_e2_v0(F):
    """The spanning rows of D and e_2 (x) v0, which puts e_2 in the kernel."""
    return REAL_SPAN_ROWS(F) + [cv._tensor_coords(F, F.basis_vec(1), F.v0)]


MUTATIONS = {
    "scalar_line_in_D": (cv.InvolutiveField, "scale_vec", skewed_scale),
    "kernel_is_K_v0": (cv, "_diagonal_span_rows", span_rows_with_e2_v0),
    # v ^ u with no plus/minus split: it vanishes on w (x) sigma(w) at each
    # basis vector w, so only the polarizing sums catch it
    "psi_kills_D": (cv, "psi_value", cv._wedge),
    # keeps the sqrt(d) part: right on e_i, wrong on sqrt(d) e_i
    "plus_minus_split": (cv.InvolutiveField, "plus_part", lambda F, vec: vec),
}


@pytest.mark.parametrize("key", sorted(MUTATIONS))
@pytest.mark.parametrize("d,dim", [(-1, 2), (2, 2), (5, 3)])
def test_wrong_map_fails_its_certified_key(key, d, dim, monkeypatch):
    owner, name, wrong = MUTATIONS[key]
    monkeypatch.setattr(owner, name, wrong)
    report = cv.involution_exactness_report(cv.InvolutiveField(d, dim))
    assert report[key] is False and report["ok"] is False


def test_scalar_multiples_of_fixed_vector_in_diagonal():
    F = cv.InvolutiveField(-1, 2)
    rng = random.Random(2)
    rows = cv._diagonal_span_rows(F)
    from nilwitness import linalg

    _, pivots, red = linalg.rref(rows)
    for _ in range(20):
        alpha = rand_scalar(rng)
        vec = cv._tensor_coords(F, F.scale_vec(alpha, F.v0), F.v0)
        assert all(c == 0 for c in linalg.reduce_mod_rowspace(vec, red, pivots))


def test_psi_kills_diagonal_samples():
    rng = random.Random(3)
    for d, dim in ((-1, 2), (2, 2), (5, 3)):
        F = cv.InvolutiveField(d, dim)
        for _ in range(17):
            total = None
            for _ in range(rng.randint(1, 4)):
                w = rand_vec(F, rng)
                c = Fraction(rng.randint(-3, 3))
                val = [c * x for x in cv.psi_value(F, w, F.sigma_v(w))]
                total = val if total is None else [a + b for a, b in zip(total, val)]
            assert all(x == 0 for x in total)


def test_psi_nonzero_off_diagonal():
    F = cv.InvolutiveField(-1, 2)
    v = F.basis_vec(0)
    u = F.basis_vec(1)
    assert any(x != 0 for x in cv.psi_value(F, v, u))


def test_plus_minus_decomposition():
    rng = random.Random(4)
    F = cv.InvolutiveField(2, 3)
    for _ in range(20):
        v = rand_vec(F, rng)
        vp, vm = F.plus_part(v), F.minus_part(v)
        assert F.add_vec(vp, vm) == v
        assert F.sigma_v(vp) == vp
        assert F.sigma_v(vm) == tuple(-c for c in vm)


def test_involution_semilinear_on_random_vectors():
    rng = random.Random(5)
    for d, dim in ((-1, 2), (5, 3)):
        F = cv.InvolutiveField(d, dim)
        for _ in range(20):
            alpha = rand_scalar(rng)
            v = rand_vec(F, rng)
            lhs = F.sigma_v(F.scale_vec(alpha, v))
            rhs = F.scale_vec((alpha[0], -alpha[1]), F.sigma_v(v))
            assert lhs == rhs
        v = rand_vec(F, rng)
        assert F.sigma_v(F.sigma_v(v)) == v
        assert F.sigma_v(F.v0) == F.v0


def test_degenerate_instances_rejected():
    with pytest.raises(ValueError):
        cv.InvolutiveField(4, 2)  # square: involution collapses
    with pytest.raises(ValueError):
        cv.InvolutiveField(0, 2)
    with pytest.raises(ValueError):
        cv.InvolutiveField(-1, 0)  # zero space


def test_theta_kills_involution_symmetrized_series():
    # the class of f ^ 1 vanishes whenever f = g + involution(g): the
    # symmetrized diagonal dies in the quotient at every truncation
    from nilwitness.series import sigma_tilde

    rng = random.Random(6)
    for K in (5, 8):
        for _ in range(15):
            g = rand_series(sr.QQ, K, rng)
            f = g + sigma_tilde(g)
            assert all(c == 0 for c in cv.theta(f))


def test_witness_series_are_involution_fixed():
    # observed invariant of the construction, frozen here: every realized
    # exponent series is fixed by the series involution (the all-ones input
    # realizes exactly x + involution(x), the alternating geometric tail),
    # so at truncation all witness classes are canonical zero even though
    # the quotient itself is nontrivial on monomials.  No claim is made
    # beyond the truncated computation.
    from nilwitness.series import sigma_tilde

    K = 8
    x = sr.TruncatedSeries.x(sr.QQ, K)
    for q in [(1, 1, 1), (1, 0, 1), (0, 1, 0)]:
        pair = wt.build_witness(q, K)
        fq = sr.TruncatedSeries.from_coeffs(sr.QQ, K, wt.witness_series(pair).coeffs)
        assert sigma_tilde(fq) == fq
        assert all(c == 0 for c in cv.theta(fq))
    assert sr.TruncatedSeries.from_coeffs(
        sr.QQ, K, wt.witness_series(wt.build_witness((1, 1, 1), K)).coeffs
    ) == x + sigma_tilde(x)
    # the quotient is far from degenerate: monomial classes are nonzero
    assert any(c != 0 for c in cv.theta(x))
    assert any(c != 0 for c in cv.theta(x * x))


# --- closed-form classes through the involution -------------------------------

RINGS = [sr.QQ, sr.PrimeField(3), sr.PrimeField(5)]
RING_IDS = ["Q", "Z3", "Z5"]


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_rank_is_half_the_truncation(ring):
    for K in range(2, 21):
        assert cv.build_coinvariants(ring, K).rank == K // 2


@pytest.mark.parametrize("ring", RINGS + [sr.PrimeField(7)], ids=RING_IDS + ["Z7"])
def test_theta_matches_the_elimination_class_map(ring):
    # theta(f) = theta(g) exactly when f ^ 1 and g ^ 1 reduce to the same
    # representative, on random pairs and on pairs that differ by a
    # symmetrized series h + sigma(h)
    rng = random.Random(7)
    for K in range(2, 11):
        _, by_elimination = elimination_class_map(ring, K)
        for _ in range(6):
            f = rand_series(ring, K, rng)
            h = rand_series(ring, K, rng)
            sym = h + sr.sigma_tilde(h)
            assert len(cv.theta(f)) == K // 2
            for g in (rand_series(ring, K, rng), f + sym, sym):
                same = by_elimination(f) == by_elimination(g)
                assert (cv.theta(f) == cv.theta(g)) == same
                assert (not any(cv.theta(g))) == (not any(by_elimination(g)))


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_pairing_kills_relation_rows(ring):
    for K in (2, 5, 8):
        x = [sr.TruncatedSeries.monomial(ring, K, k) for k in range(K)]
        t = sr.one_plus_x_power(ring, 1, K)
        for i in range(K):
            for j in range(K):
                assert cv.pairing(t * x[i], t * x[j]) == cv.pairing(x[i], x[j])
                assert cv.pairing(x[i], x[j]) == -cv.pairing(x[j], x[i])


def test_theta_zero_exactly_on_fixed_series():
    rng = random.Random(8)
    for ring in RINGS:
        for K in (3, 6, 9):
            for _ in range(10):
                f = rand_series(ring, K, rng)
                for g in (f, f + sr.sigma_tilde(f)):
                    assert (not any(cv.theta(g))) == (sr.sigma_tilde(g) == g)


# --- the closed-form rows against the dense formula ---------------------------


def dense_wedge(v, w):
    """Oracle: v_i w_j - v_j w_i for every pair i < j in lex order, coerced
    into the ring."""
    K, ring = v.trunc, v.ring
    return [
        ring.coerce(v.coeffs[i] * w.coeffs[j] - v.coeffs[j] * w.coeffs[i])
        for i in range(K)
        for j in range(i + 1, K)
    ]


def dense_relation_rows(ring, K, exponents):
    """Oracle: the rows t^r x^i ^ t^r x^j - x^i ^ x^j from the dense wedge."""
    basis = [sr.TruncatedSeries.monomial(ring, K, k) for k in range(K)]
    pairs = [(i, j) for i in range(K) for j in range(i + 1, K)]
    rows = []
    for r in exponents:
        t_r = sr.one_plus_x_power(ring, r, K)
        for idx, (i, j) in enumerate(pairs):
            row = dense_wedge(t_r * basis[i], t_r * basis[j])
            row[idx] = ring.coerce(row[idx] - 1)
            rows.append(row)
    return rows


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_relation_rows_match_the_dense_wedge(ring):
    # each row is a dict of at most 3 nonzeros, plain ints 1 whatever the
    # ring: the elimination reads each entry into the ring, and equal values
    # compare equal
    for K in range(2, 13):
        pairs, rows = cv._relation_rows(K)
        assert pairs == tuple((i, j) for i in range(K) for j in range(i + 1, K))
        assert all(type(row) is dict for row in rows)
        assert dense_rows(K) == dense_relation_rows(ring, K, (1,))
        assert {type(v) for row in rows for v in row.values()} <= {int}
        assert max(len(row) for row in rows) <= 3


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_coinvariant_ranks_make_no_series_product(ring, monkeypatch):
    def no_product(self, other):
        raise AssertionError("the coinvariant ranks must make no series product")

    monkeypatch.setattr(sr.TruncatedSeries, "__mul__", no_product)
    for K in range(2, 13):
        assert cv.build_coinvariants(ring, K).rank == K // 2
        assert cv.coinvariant_rank_oracle(ring, K) == K // 2
