"""Inductive construction of relation witnesses in the free nilpotent tower.

Given a finite integer sequence q (entries usually 0/1) and a truncation
weight K, build_witness produces group words r^(3), ..., r^(K) and
s^(3), ..., s^(K) over a, b such that, writing R and S for the ordered
products of the factors:

(0) the k-indexed factors lie in gamma_k of the free group;
(1) after appending the k-indexed factors the relation defect
    [R, a][S, b] lies in gamma_{k+2}, so at full depth the relation
    [R, a][S, b] = 1 holds modulo gamma_{K+2};
(2) every s-factor maps to the identity in the completed lamplighter group;
(3) the lamplighter image of R is (f, 0) with f = sum n_i x^{i-1}, where the
    odd-slot exponents are forced to the input sequence: n_{2i+1} = q_i.

Each inductive step reads the leading term of the current defect through the
Magnus embedding, splits it as [alpha, a] + [beta, b] in the free Lie ring,
and appends the inverse lifts; on even steps an iterated-commutator power
[a,_k b]^m fixes the controlled lamplighter coefficient and the matching
alternating product on the s-side repairs the relation. Exponents of the
sequence beyond its stored length are taken to be zero.

Every word is evaluated at truncation K, the depth the certificate reaches:
the last check of (1) is at K + 1, but [R, a][S, b] there reads R and S only
up to K (see _defect), and nothing else reads degree K + 1.

The construction evaluates nothing in the lamplighter group: the image of
each basis bracket is known in closed form.  For a Lyndon word w,

    phi(w) = (x^j, 0) for w = a b^j,  (0, 1) for w = b,  1 otherwise.

By induction on length: b and a = a b^0 are the generators.  For j >= 1 the
standard factorization of a b^j is (a b^(j-1), b), and commuting (f, 0) with
(0, 1) gives (x f, 0).  A Lyndon word with two or more a's has both factors
starting with a, so both brackets map into the kernel {(f, 0)} of the shift,
which is abelian, and their commutator maps to 1.  So the image of every
lift of weight k + 1 is (-alpha_{a b^k} x^k, 0), and build_witness reads the
controlled exponent and n_{k+1} off alpha.  Only verify_witness evaluates
the words in the lamplighter group, so the certificate does not rest on
this lemma.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from .freelie import FreeLieElement, HallBasis, hall_basis, present_with_generators
from .lamplighter import LampEvaluator
from .magnus import (
    INFINITE_WEIGHT,
    MagnusElement,
    MagnusEvaluator,
    commutator as magnus_commutator,
    gamma_weight,
    leading_lie,
)
from .series import TruncatedSeries, ZZ
from .words import (
    IDENTITY,
    WordExpr,
    alternating_engel_product,
    basis_word_expr,
    commutator,
    engel,
    parse_word_expr,
    power,
    product,
    A,
    B,
)

__all__ = [
    "WitnessPair",
    "Report",
    "PropertyResult",
    "build_witness",
    "verify_witness",
    "witness_series",
    "alternating_engel_product",
]

# largest truncation weight accepted: degree-K tables hold 2^K coefficients,
# and a construct peaks at about 220 MB of RSS at K = 13 and 720 MB at K = 14
MAX_K = 20


@dataclass(frozen=True)
class PropertyResult:
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    p0: PropertyResult
    p1: PropertyResult
    p2: PropertyResult
    p3: PropertyResult

    @property
    def ok(self) -> bool:
        return self.p0.ok and self.p1.ok and self.p2.ok and self.p3.ok

    def to_json(self) -> dict:
        out: dict = {}
        details = {}
        for name in ("p0", "p1", "p2", "p3"):
            res: PropertyResult = getattr(self, name)
            out[name] = res.ok
            if res.detail:
                details[name] = res.detail
        if details:
            out["details"] = details
        return out


@dataclass(frozen=True)
class WitnessPair:
    """The sequence q, the factor words indexed 3..K, and the realized
    exponent sequence n_3..n_K of the lamplighter image."""

    q: tuple[int, ...]
    K: int
    r_factors: tuple[WordExpr, ...]
    s_factors: tuple[WordExpr, ...]
    n: tuple[int, ...]
    report: Report | None = None

    def factor_indices(self) -> range:
        return range(3, 3 + len(self.r_factors))

    def r_word(self) -> WordExpr:
        return product(*self.r_factors)

    def s_word(self) -> WordExpr:
        return product(*self.s_factors)

    def to_json(self) -> dict:
        out = {
            "q": list(self.q),
            "K": self.K,
            "r_factors": [str(w) for w in self.r_factors],
            "s_factors": [str(w) for w in self.s_factors],
            "n": list(self.n),
        }
        if self.report is not None:
            out["report"] = self.report.to_json()
        return out

    @staticmethod
    def from_json(data: dict) -> "WitnessPair":
        """The pair a witness file holds.  K, q and n must be JSON integers
        and the factors lists of strings: a float or a bool raises TypeError
        rather than being read as an integer close to it."""
        K = _typed(data["K"], int, "K")
        if K > MAX_K:
            raise ValueError(f"K = {K} is above the limit {MAX_K}")
        q, n, r_texts, s_texts = (
            tuple(_typed(v, kind, key) for v in _typed(data[key], list, key))
            for key, kind in (("q", int), ("n", int), ("r_factors", str), ("s_factors", str))
        )
        return WitnessPair(
            q=q,
            K=K,
            r_factors=tuple(map(parse_word_expr, r_texts)),
            s_factors=tuple(map(parse_word_expr, s_texts)),
            n=n,
        )


def _typed(value, kind: type, key: str):
    """value, a JSON value that must have exactly the type kind (a bool is
    not an int)."""
    if type(value) is not kind:
        raise TypeError(f"{key} holds a JSON {type(value).__name__}, not {kind.__name__}")
    return value


@functools.lru_cache(maxsize=None)
def _magnus_evaluator(trunc: int) -> MagnusEvaluator:
    return MagnusEvaluator(trunc)


@functools.lru_cache(maxsize=None)
def _lamp_evaluator(trunc: int) -> LampEvaluator:
    return LampEvaluator(ZZ, trunc)


@functools.lru_cache(maxsize=None)
def _basis(max_weight: int) -> HallBasis:
    return hall_basis(max_weight)


def _defect(R: MagnusElement, S: MagnusElement) -> MagnusElement:
    """[R, a] [S, b] one degree past the truncation of the inputs: a and b
    have weight 1, so each commutator at T reads R and S only below T."""
    a, b = (MagnusElement.generator(name, R.trunc + 1) for name in "ab")
    return magnus_commutator(R, a) * magnus_commutator(S, b)


def _lift_inverse(elt: FreeLieElement) -> WordExpr:
    """Word whose leading Lie term is -elt: reversed product of basis bracket
    words with negated exponents.  Deterministic: factors in basis order."""
    parts = [power(basis_word_expr(w), -c) for w, c in elt.terms()]
    return product(*reversed(parts))


def build_witness(q, K: int) -> WitnessPair:
    """Run the inductive construction; the returned pair carries a report
    from the independent verifier.

    Deterministic: the same (q, K) always yields the same factor words, and
    growing K extends the factor list without changing earlier factors.

    The factor made at step k lies in gamma_{k+1} and, by the closed form of
    the module docstring, maps to (c x^k, 0), so the r-product maps to
    (sum n_i x^(i-1), 0) and the x^k term comes from step k alone.  The lift
    of alpha maps to (-alpha_{a b^k} x^k, 0) and [a,_k b]^m to (m x^k, 0):
    on an even step m = q_{k/2} + alpha_{a b^k} makes n_{k+1} = q_{k/2}, and
    on an odd step n_{k+1} = -alpha_{a b^k}.  r^(3) = [a,_2 b]^q_1 gives
    n_3 = q_1.
    """
    if not 3 <= K <= MAX_K:
        raise ValueError(f"K must be in 3..{MAX_K}")
    q = tuple(int(v) for v in q)
    basis = _basis(K + 1)
    ev = _magnus_evaluator(K)

    def q_at(i: int) -> int:
        return q[i - 1] if i - 1 < len(q) else 0

    r3 = power(engel(2), q_at(1))
    s3 = power(commutator(commutator(A, B), A), -q_at(1))
    r_factors: list[WordExpr] = [r3]
    s_factors: list[WordExpr] = [s3]
    n = [q_at(1)]
    R = ev.eval(r3)
    S = ev.eval(s3)

    for k in range(3, K):
        D = _defect(R.truncate(k + 1), S.truncate(k + 1))
        gw = gamma_weight(D)
        if gw < k + 2:
            raise RuntimeError(
                f"internal error: defect after step {k} has weight {gw} < {k + 2}"
            )
        if gw == INFINITE_WEIGHT:
            a_inv = b_inv = IDENTITY
            lead = 0
        else:
            t = leading_lie(D, basis)
            alpha, beta = present_with_generators(t)
            a_inv = _lift_inverse(alpha)
            b_inv = _lift_inverse(beta)
            lead = alpha.coeffs.get("a" + "b" * k, 0)
        if k % 2 == 1:
            r_new, s_new = a_inv, b_inv
            n.append(-lead)
        else:
            half = k // 2
            m = q_at(half) + lead
            r_new = product(a_inv, power(engel(k), m))
            s_new = product(b_inv, power(alternating_engel_product(half), -m))
            n.append(q_at(half))
        r_factors.append(r_new)
        s_factors.append(s_new)
        R = R * ev.eval(r_new)
        S = S * ev.eval(s_new)

    pair = WitnessPair(
        q=q,
        K=K,
        r_factors=tuple(r_factors),
        s_factors=tuple(s_factors),
        n=tuple(n),
    )
    return replace(pair, report=verify_witness(pair))


def verify_witness(pair: WitnessPair) -> Report:
    """Re-check properties (0)-(3) from the stored factor words alone.

    Property (0) also requires exactly K - 2 factors on each side and K - 2
    stored exponents, and (3) reads the controlled exponents off the computed
    lamplighter image of the r-product, so a cut or padded witness cannot
    pass on the strength of what the file claims.

    Failures are recorded with the first failing weight or factor index;
    they are data, not exceptions.
    """
    # R and S are held at K: the defect after step k, checked at k + 1,
    # reads them only up to k.  A K below 0 is checked as K = 0, where p0
    # fails on the factor counts and the defect is checked at 1.
    K = pair.K
    top = max(K, 0)
    ev = _magnus_evaluator(max(top, 1))
    lamp = _lamp_evaluator(max(K, 1))
    indexed = list(zip(pair.factor_indices(), pair.r_factors, pair.s_factors))

    fails: list[str] = []
    n_r, n_s, n_n = len(pair.r_factors), len(pair.s_factors), len(pair.n)
    if not n_r == n_s == n_n == K - 2:
        fails.append(
            f"K = {K} needs {K - 2} factors and exponents, got r {n_r}, s {n_s}, n {n_n}"
        )
    for k, r, s in indexed:
        for name, expr in (("r", r), ("s", s)):
            gw = gamma_weight(ev.eval(expr))
            if gw < k:
                fails.append(f"{name}^({k}) has weight {gw} < {k}")
    p0 = PropertyResult(not fails, "; ".join(fails))

    fails = []
    R = S = ev.one()
    for k, r, s in indexed:
        R = R * ev.eval(r)
        S = S * ev.eval(s)
        Tk = min(k, top)
        defect = _defect(R.truncate(Tk), S.truncate(Tk))
        if not defect.is_one():
            fails.append(f"step {k}: defect has weight {gamma_weight(defect)}")
    p1 = PropertyResult(not fails, "; ".join(fails))

    fails = []
    for k, _, s in indexed:
        img = lamp.eval(s)
        if not img.is_identity():
            fails.append(f"s^({k}) maps to {img}")
    p2 = PropertyResult(not fails, "; ".join(fails))

    fails = []
    lamp_r = lamp.eval(pair.r_word())
    if lamp_r.e != 0:
        fails.append(f"r-product has shift exponent {lamp_r.e}")
    expected = witness_series(pair)
    actual = TruncatedSeries.from_coeffs(ZZ, max(K, 1), lamp_r.f.coeffs)
    if actual != expected:
        fails.append("series of the r-product disagrees with the exponent data")
    for i in range(1, (K - 1) // 2 + 1):
        slot = 2 * i + 1
        want = pair.q[i - 1] if i - 1 < len(pair.q) else 0
        got = lamp_r.f.coeffs[slot - 1]
        if got != want:
            fails.append(f"controlled exponent n_{slot} = {got}, expected {want}")
    p3 = PropertyResult(not fails, "; ".join(fails))

    return Report(p0=p0, p1=p1, p2=p2, p3=p3)


def witness_series(pair: WitnessPair) -> TruncatedSeries:
    """The series sum n_i x^{i-1} over the integers, truncated at x^K."""
    K = max(pair.K, 1)
    coeffs = [0] * K
    for i, value in zip(pair.factor_indices(), pair.n):
        if i - 1 < K:
            coeffs[i - 1] = value
    return TruncatedSeries.from_coeffs(ZZ, K, coeffs)
