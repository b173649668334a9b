"""Truncated exterior-square coinvariants and an involutive-field exactness
tester.

The coinvariant model: the exterior square of R[x]/x^K has basis
x^i ^ x^j for i < j (dimension K(K-1)/2); the cyclic shift acts diagonally
through multiplication by (1 + x), and the coinvariant space is the
quotient by the span of g.v ^ g.w - v ^ w.  Ranks come from exact elimination over Q or Z/p,
cross-checked by re-eliminating in a different order; classes come in closed form.

The second half models a field K with a nontrivial involution acting
semilinearly on a vector space V, the subspace D spanned by the tensors
v (x) conj(v), and checks exactness of

    0 -> K --(. v0)--> V --(- (x) v0)--> (V (x)_K V) / D

over the rationals: the kernel by one rank, and every other part, which is
Q-linear or quadratic, on a rational basis.  A scalar u + v sqrt(d) is the
rational pair (u, v) and a vector its 2 dim rational coordinates, so a
vector, a tensor and a value of psi are all rows that `linalg` reads.  The
tensor product is the conjugate-balanced one (scalars move across the tensor
sign through the involution), which is the reading under which D is an
honest K-subspace; in coordinates v (x) u is the matrix (v_j * conj(u)_k)
and D becomes the symmetric matrices.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .series import Ring, TruncatedSeries, Value, sigma_tilde


# --- exterior-square coinvariants


class CoinvariantSpace(NamedTuple):
    """Ranks of the quotient of the truncated exterior square by the
    diagonal action of the shift t = 1 + x."""

    ring: Ring
    trunc: int
    pairs: tuple[tuple[int, int], ...]
    rank: int
    rel_rank: int

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def to_json(self) -> dict:
        return {
            "ring": self.ring.tag,
            "K": self.trunc,
            "lambda2_dim": self.dim,
            "relation_rank": self.rel_rank,
            "rank": self.rank,
        }


def _relation_rows(trunc: int) -> tuple[tuple, list[dict]]:
    """Wedge pairs and the rows t x^i ^ t x^j - x^i ^ x^j of the shift
    t = 1 + x, one per pair i < j, in the lex-ordered x^i ^ x^j basis.

    Since t x^i = x^i + x^(i+1), the row of (i, j) is
    x^i ^ x^(j+1) + x^(i+1) ^ x^j + x^(i+1) ^ x^(j+1): every entry is 0 or
    1, a term past x^(K-1) drops out, and x^(i+1) ^ x^j vanishes when
    i + 1 = j.  Each row is a dict {column: 1} of its at most 3 nonzeros,
    plain ints in every ring: the elimination reads each one into its ring.
    """
    if trunc < 2:
        raise ValueError("need truncation >= 2 for a nonzero exterior square")
    pairs = tuple((i, j) for i in range(trunc) for j in range(i + 1, trunc))
    column = {pair: idx for idx, pair in enumerate(pairs)}
    rows = [
        {column[pair]: 1 for pair in ((i, j + 1), (i + 1, j), (i + 1, j + 1)) if pair in column}
        for i, j in pairs
    ]
    return pairs, rows


def build_coinvariants(ring: Ring, trunc: int) -> CoinvariantSpace:
    """Quotient of the truncated exterior square by the diagonal action of
    the shift powers t^r.

    The single shift t = 1 + x spans every relation.  For an integer r > 0
    and w in the exterior square the relation telescopes,
    t^r w - w = sum_{k<r} (t - 1)(t^k w), so it lies in the image of t - 1;
    t is invertible and commutes with t - 1, so negative powers add nothing
    either.  Over Q the coordinates of t^r w are polynomial in r, so rational
    powers span no more than the integer ones.  So the rows are those of t
    alone, in closed form (`_relation_rows`), and the build makes no series
    product.  The saturation tests re-check the claim: they add rows of
    further integer and fractional exponents, built by an independent dense
    oracle, and compare ranks, pivots and rows.

    The quotient has rank floor(K/2), and `theta` reads classes off in
    closed form.  Write A = R[x]/x^K, sigma for `sigma_tilde` (the ring
    involution with sigma(t) = t^-1), and A+, A- for its +1 and -1
    eigenspaces; A = A+ (+) A- because 2 is invertible in R.

    1. The powers t^0 .. t^(K-1) span A, and applying t^-r to both factors
       gives v ^ t^r = t^-r v ^ 1 in the quotient.  So theta, f -> class of
       f ^ 1, maps A onto the quotient.
    2. Likewise t^r ^ 1 = 1 ^ t^-r = -(t^-r ^ 1), so the elements
       t^r + t^-r, which span A+, lie in the kernel of theta.
    3. The pairing Phi(v ^ w) = (v sigma(w) - sigma(v) w) / 2 is
       antisymmetric, and it is t-invariant because t sigma(t) = 1, so it
       is defined on the quotient.  Phi(f ^ 1) = (f - sigma(f)) / 2 is the
       A- part of f, so the kernel of theta is exactly A+, and Phi
       identifies the quotient with A-.
    4. On the monomials sigma is the signed Pascal matrix of `sigma_tilde`,
       triangular with diagonal (-1)^n: sigma(x^k) = (-1)^k x^k + (higher
       terms).  So A- has rank floor(K/2), and a nonzero element of A- has
       odd lowest degree.  The odd-degree coefficients are therefore
       coordinates on A-.
    """
    pairs, rows = _relation_rows(trunc)
    rel_rank = linalg.field_rank(rows, ring.p)
    return CoinvariantSpace(
        ring=ring,
        trunc=trunc,
        pairs=pairs,
        rank=len(pairs) - rel_rank,
        rel_rank=rel_rank,
    )


def pairing(v: TruncatedSeries, w: TruncatedSeries) -> TruncatedSeries:
    """Phi(v ^ w) = (v sigma(w) - sigma(v) w) / 2, the t-invariant pairing
    that identifies the coinvariant quotient with the -1 eigenspace of
    sigma.  Over Z it raises ValueError: 1/2 is not an integer."""
    return (v * sigma_tilde(w) - sigma_tilde(v) * w).scale(Fraction(1, 2))


def theta(f: TruncatedSeries) -> tuple:
    """Coordinates of the class of f ^ 1 in the coinvariant quotient: the
    floor(K/2) odd-degree coefficients of (f - sigma(f)) / 2, which vanish
    exactly when sigma(f) = f."""
    return (f - sigma_tilde(f)).scale(Fraction(1, 2)).coeffs[1::2]


def coinvariant_rank_oracle(ring: Ring, trunc: int) -> int:
    """Independent re-elimination: same relation set, different pivoting.

    The relations are generated again and eliminated in reversed colex
    order: the wedge coordinates x^i ^ x^j are ordered by (j, i),
    descending, and the row of each pair is taken in the same order.  The
    echelon then takes the rows in another order and leads each with
    another column, so from K = 4 on it picks other pivot columns than the
    primary computation in `build_coinvariants`; the resulting rank must
    match it.  In this order a row meets little fill-in: at K = 64 the
    echelon reads fewer pivot entries than the primary one does, and over
    Q every entry stays 0 or +-1.
    """
    pairs, rows = _relation_rows(trunc)
    n = len(pairs)
    # the position of x^i ^ x^j in the reversed colex order
    pos = [n - 1 - j * (j - 1) // 2 - i for i, j in pairs]
    order = sorted(range(n), key=pos.__getitem__)
    return n - linalg.field_rank([{pos[c]: v for c, v in rows[r].items()} for r in order], ring.p)


# --- a quadratic field with conjugation, in rational coordinates


def _mul(d: int, x, y) -> tuple:
    """The rational pair of (x0 + x1 sqrt(d)) (y0 + y1 sqrt(d)) for the
    pairs x = (x0, x1) and y = (y0, y1)."""
    (x0, x1), (y0, y1) = x, y
    return x0 * y0 + d * x1 * y1, x0 * y1 + x1 * y0


def _entries(vec) -> list:
    """The dim entries of a vector of V as rational pairs."""
    return list(zip(vec[::2], vec[1::2]))


class InvolutiveField(Value):
    """Q(sqrt(d)) with conjugation, acting coordinatewise on V = K^dim, with
    the fixed vector v0 = e_1.  Immutable by convention.

    A scalar u + v sqrt(d) is the pair (u, v).  A vector is the tuple of its
    2 dim rational coordinates over e_1, sqrt(d) e_1, e_2, sqrt(d) e_2, ...,
    so conjugation negates the odd coordinates.
    """

    __slots__ = ("d", "dim")

    def __init__(self, d: int, dim: int):
        if dim < 1:
            raise ValueError("V must be nonzero")
        r = math.isqrt(abs(d))
        if d == 0 or (d > 0 and r * r == d):
            raise ValueError(f"d = {d} gives a trivial involution (not a field extension)")
        self.d = d
        self.dim = dim

    def rational_basis(self) -> list[tuple]:
        """The Q-basis e_1, sqrt(d) e_1, e_2, sqrt(d) e_2, ... of V: the
        unit coordinate vectors."""
        n = 2 * self.dim
        return [tuple(int(k == i) for k in range(n)) for i in range(n)]

    def basis_vec(self, i: int) -> tuple:
        return self.rational_basis()[2 * i]

    @property
    def v0(self) -> tuple:
        return self.basis_vec(0)

    def sigma_v(self, vec) -> tuple:
        return tuple(-c if k % 2 else c for k, c in enumerate(vec))

    def scale_vec(self, alpha, vec) -> tuple:
        return tuple(c for x in _entries(vec) for c in _mul(self.d, alpha, x))

    def add_vec(self, a, b) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def plus_part(self, vec) -> tuple:
        return tuple(0 if k % 2 else c for k, c in enumerate(vec))

    def minus_part(self, vec) -> tuple:
        return tuple(c if k % 2 else 0 for k, c in enumerate(vec))


def _tensor_coords(F: InvolutiveField, v, u) -> list:
    """Rational coordinates of v (x) u in the conjugate-balanced tensor:
    the dim x dim matrix of entries v_j * conj(u_k), each entry a rational
    pair."""
    conj = _entries(F.sigma_v(u))
    return [c for x in _entries(v) for y in conj for c in _mul(F.d, x, y)]


def _diagonal_span_rows(F: InvolutiveField) -> list[list]:
    """Rational spanning set of D = span_K { w (x) sigma(w) }.

    Pure tensors at enough vectors w rationally span the whole K-line of each
    generator (scaling by sqrt(d) is recovered through polarization with
    (1 + sqrt(d)) w), so no explicit scalar closure is needed.
    """
    one_plus_sd = (1, 1)
    vecs = []
    for i in range(F.dim):
        e = F.basis_vec(i)
        vecs += [e, F.scale_vec(one_plus_sd, e)]
    for i, j in itertools.combinations(range(F.dim), 2):
        ei, ej = F.basis_vec(i), F.basis_vec(j)
        for coef in ((1, 0), (-1, 0), (0, 1), one_plus_sd):
            vecs.append(F.add_vec(ei, F.scale_vec(coef, ej)))
            vecs.append(F.add_vec(F.scale_vec(one_plus_sd, ei), F.scale_vec(coef, ej)))
    return [_tensor_coords(F, w, F.sigma_v(w)) for w in vecs]


def _wedge(F: InvolutiveField, v, u) -> list:
    """v ^ u in the K-exterior square of V: the rational pairs of
    v_i u_j - v_j u_i over the wedge basis e_i ^ e_j, i < j."""
    v, u = _entries(v), _entries(u)
    out = []
    for i, j in itertools.combinations(range(F.dim), 2):
        (a, b), (c, e) = _mul(F.d, v[i], u[j]), _mul(F.d, v[j], u[i])
        out += [a - c, b - e]
    return out


def psi_value(F: InvolutiveField, v, u) -> list:
    """The half-exterior pairing psi(v (x) u) = v+ ^ u+ + v- ^ u-.

    psi kills additive combinations of the tensors w (x) sigma(w), which is
    its well-definedness certificate.
    """
    plus = _wedge(F, F.plus_part(v), F.plus_part(u))
    minus = _wedge(F, F.minus_part(v), F.minus_part(u))
    return [x + y for x, y in zip(plus, minus)]


def involution_exactness_report(F: InvolutiveField) -> dict:
    """The exactness statement for (F, V, v0), each part proved by finitely
    many exact checks.  With b_1 .. b_n the rational basis of V (n = 2 dim):

    * scalar line: alpha v0 (x) v0 lies in D for alpha = 1 and sqrt(d), a
      Q-basis of K; alpha -> alpha v0 (x) v0 is Q-linear and D is a
      Q-subspace, so every alpha follows;
    * kernel: v -> v (x) v0 mod D kills b_1 = v0 and b_2 = sqrt(d) v0 and has
      rank n - 2, so its kernel is exactly the K-line through v0;
    * psi kills D: w -> psi(w (x) sigma(w)) is a quadratic form in the
      rational coordinates of w, so by polarization it vanishes on V when it
      vanishes at each b_k + b_l, k <= l (2 b_k at k = l); psi is Q-linear,
      so it then kills every rational combination of pure tensors, and these
      span D;
    * the plus/minus identities v+ + v- = v, sigma(v+) = v+ and
      sigma(v-) = -v- are Q-linear in v, so they hold when they hold at each
      b_k.
    """
    basis = F.rational_basis()
    _, pivots, rref_rows = linalg.rref(_diagonal_span_rows(F))

    def mod_d(vec) -> list:
        return linalg.reduce_mod_rowspace(vec, rref_rows, pivots)

    scalar_ok = not any(
        c
        for alpha in ((1, 0), (0, 1))
        for c in mod_d(_tensor_coords(F, F.scale_vec(alpha, F.v0), F.v0))
    )

    # the kernel is the Q-span of v0 and sqrt(d) v0 exactly when both map to
    # 0 and the images of the other 2 dim - 2 basis vectors are independent
    images = [mod_d(_tensor_coords(F, b, F.v0)) for b in basis]
    kernel_ok = (
        not any(images[0]) and not any(images[1]) and linalg.field_rank(images) == len(basis) - 2
    )

    psi_ok = True
    for b, c in itertools.combinations_with_replacement(basis, 2):
        w = F.add_vec(b, c)
        psi_ok &= not any(psi_value(F, w, F.sigma_v(w)))

    decomp_ok = True
    for v in basis:
        vp, vm = F.plus_part(v), F.minus_part(v)
        decomp_ok &= F.add_vec(vp, vm) == v
        decomp_ok &= F.sigma_v(vp) == vp
        decomp_ok &= F.sigma_v(vm) == tuple(-c for c in vm)

    return {
        "field": f"Q(sqrt({F.d}))",
        "dim": F.dim,
        "scalar_line_in_D": bool(scalar_ok),
        "kernel_is_K_v0": bool(kernel_ok),
        "psi_kills_D": bool(psi_ok),
        "plus_minus_split": bool(decomp_ok),
        "ok": bool(scalar_ok and kernel_ok and psi_ok and decomp_ok),
    }
