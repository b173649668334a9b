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
alternating product on the s-side repairs the relation. The induction
starts at k = 2 with R = S = 1, whose defect is trivial, so the even-step
rule alone makes r^(3) = [a,_2 b]^q_1 and s^(3) = [[a,b],a]^-q_1.
Exponents of the sequence beyond its stored length are taken to be zero.

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
this lemma.  It checks (0)-(2) in one pass over the factors in index order
and (3) on the image of the whole r-product.

When (0) holds, (1) is read off the last defect alone.  The defect after
step k is checked at k + 1, where [R, a][S, b] reads R and S only below
degree k + 1; the factors of later steps have weight above k, so there R
and S already equal the full products.  The last defect, at K + 1, truncated
at k + 1 is therefore the defect after step k, and a trivial last defect
makes every earlier one trivial.  When (0) fails or the last defect is not
trivial, the defect after every step is checked, so the report names each
failing step.

Builds and verifies at one K share a workspace: the Magnus and ZZ lamplighter
evaluators at K, with the value of every subexpression they evaluated, the
Hall basis to K + 1, with the expansions and expressions of its words, the
memo `lifts` of each step's Lie half, and the last build's R and S.  The
basis is built on first use, so a verify, which reads no Lie term, never
builds it.  The workspace is kept in one slot, so a build's own verify and
builds in a row at one K run warm, and a call at another K releases it.

The Lie half of step k (the defect, its leading Lie term, the presentation
[alpha, a] + [beta, b], the inverse lifts and alpha_{a b^k}) reads only the
factors of steps 2..k - 1, and those read q only through the exponent
q_{j/2} of each even step j.  So it is fixed by k and q_1..q_{(k-1)//2},
read with _q_at so that a sequence and its extension by zeros agree, and
`lifts` keeps it under that key: builds at one K whose sequences share a
prefix make the shared steps once.  The even-step power reads q_{k/2} and is
made per build.  Every returned pair is still certified by its own verify,
which reads no Lie memo, and takes R and S from the build only for the same
texts of the r- and s-products, which fix their values.

A WitnessPair, its Report and each PropertyResult are NamedTuples: equal by
their fields, refusing assignment, and copied with a change by _replace.
WitnessPair.from_json parses all the factors of a file with one memo, so a
commutator atom that recurs across them is parsed once.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .freelie import FreeLieElement, HallBasis, hall_basis, present_with_generators
from .lamplighter import LampEvaluator
from .magnus import (
    INFINITE_WEIGHT,
    MagnusElement,
    MagnusEvaluator,
    gamma_weight,
    leading_lie,
)
from .series import TruncatedSeries, ZZ
from .words import (
    IDENTITY,
    WordExpr,
    alternating_engel_product,
    engel,
    parse_word_expr,
    power,
    product,
)

# largest truncation weight accepted by build_witness and in a witness file:
# degree-K tables hold 2^K coefficients, and memory grows about 2.9 times per
# step of K; a construct peaks at about 229 MB of RSS at K = 14 and 654 MB at
# K = 15.  K = 16 took 83-94 s and 2095 MB to construct and 67-68 s and
# 1897 MB to verify cold (2-core host, Python 3.11.7), both within an
# address-space cap of 2304 MiB; the limit stays 15 until K = 16 is recorded
# in the benchmark
MAX_K = 15


class PropertyResult(NamedTuple):
    ok: bool
    detail: str = ""


class Report(NamedTuple):
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


class WitnessPair(NamedTuple):
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
        memo: dict = {}
        return WitnessPair(
            q=q,
            K=K,
            r_factors=tuple(parse_word_expr(text, memo) for text in r_texts),
            s_factors=tuple(parse_word_expr(text, memo) for text in s_texts),
            n=n,
        )


def _typed(value, kind: type, key: str):
    """value, a JSON value that must have exactly the type kind (a bool is
    not an int)."""
    if type(value) is not kind:
        raise TypeError(f"{key} holds a JSON {type(value).__name__}, not {kind.__name__}")
    return value


class _Workspace:
    """The evaluators at K, the basis to K + 1, the lifts of each step and
    the last build's products (module docstring)."""

    def __init__(self, K: int):
        self.K = K
        self.magnus = MagnusEvaluator(K)
        self.lamp = LampEvaluator(ZZ, K)
        # (k, (q_1, ..., q_{(k-1)//2})) -> the lifts and alpha_{a b^k} of step k
        self.lifts: dict[tuple, tuple[WordExpr, WordExpr, int]] = {}
        # (r-product text, s-product text) -> R and S, of the last build only
        self.products: dict[tuple[str, str], tuple[MagnusElement, MagnusElement]] = {}

    @functools.cached_property
    def basis(self) -> HallBasis:
        return hall_basis(self.K + 1)


@functools.lru_cache(maxsize=1)
def _workspace(K: int) -> _Workspace:
    """The workspace at K, in one slot: a call at another K releases it."""
    return _Workspace(K)


def _q_at(q: tuple[int, ...], i: int) -> int:
    """q_i, indexed from 1: an exponent past the stored sequence is 0."""
    return q[i - 1] if i - 1 < len(q) else 0


def _defect(R: MagnusElement, S: MagnusElement) -> MagnusElement:
    """[R, a] [S, b] one degree past the truncation of the inputs: a and b
    have weight 1, so each commutator at T reads R and S only below T."""
    a, b = (MagnusElement.generator(name, R.trunc + 1) for name in "ab")
    return R.commutator(a) * S.commutator(b)


def _lift_inverse(elt: FreeLieElement) -> WordExpr:
    """Word whose leading Lie term is -elt: reversed product of basis bracket
    words with negated exponents.  Deterministic: factors in basis order."""
    parts = [power(elt.basis.word_expr(w), -c) for w, c in elt.terms()]
    return product(*reversed(parts))


def _lie_step(
    ws: _Workspace, k: int, R: MagnusElement, S: MagnusElement
) -> tuple[WordExpr, WordExpr, int]:
    """The Lie half of step k: the inverse lifts of alpha and beta, read off
    the defect of the products R and S of the earlier factors, and the
    coefficient alpha_{a b^k}."""
    D = _defect(R.truncate(k + 1), S.truncate(k + 1))
    gw = gamma_weight(D)
    if gw < k + 2:
        raise RuntimeError(f"defect after step {k} has weight {gw} < {k + 2}")
    if gw == INFINITE_WEIGHT:
        return IDENTITY, IDENTITY, 0
    alpha, beta = present_with_generators(leading_lie(D, ws.basis))
    return _lift_inverse(alpha), _lift_inverse(beta), alpha.coeffs.get("a" + "b" * k, 0)


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
    on an odd step n_{k+1} = -alpha_{a b^k}.  The loop starts at k = 2,
    where R = S = 1 and the defect is trivial, so alpha = 0 and the even
    step gives r^(3) = [a,_2 b]^q_1, s^(3) = [[a,b],a]^-q_1 and n_3 = q_1.
    The Lie half of a step is taken from the workspace's memo when a build
    at this K with the same q-prefix made it (module docstring).
    """
    if not 3 <= K <= MAX_K:
        raise ValueError(f"K must be in 3..{MAX_K}")
    q = tuple(int(v) for v in q)
    ws = _workspace(K)
    r_factors: list[WordExpr] = []
    s_factors: list[WordExpr] = []
    n: list[int] = []
    R = S = MagnusElement.one(K)

    for k in range(2, K):
        key = (k, tuple(_q_at(q, i) for i in range(1, (k - 1) // 2 + 1)))
        lifts = ws.lifts.get(key)
        if lifts is None:
            lifts = ws.lifts[key] = _lie_step(ws, k, R, S)
        a_inv, b_inv, lead = lifts
        if k % 2 == 1:
            r_new, s_new = a_inv, b_inv
            n.append(-lead)
        else:
            half = k // 2
            m = _q_at(q, half) + lead
            r_new = product(a_inv, power(engel(k), m))
            s_new = product(b_inv, power(alternating_engel_product(half), -m))
            n.append(_q_at(q, half))
        r_factors.append(r_new)
        s_factors.append(s_new)
        R = R * ws.magnus.eval(r_new)
        S = S * ws.magnus.eval(s_new)

    pair = WitnessPair(
        q=q,
        K=K,
        r_factors=tuple(r_factors),
        s_factors=tuple(s_factors),
        n=tuple(n),
    )
    ws.products = {(str(pair.r_word()), str(pair.s_word())): (R, S)}
    return pair._replace(report=verify_witness(pair))


def verify_witness(pair: WitnessPair) -> Report:
    """Re-check properties (0)-(3) from the stored factor words alone.

    Property (0) also requires exactly K - 2 factors on each side and K - 2
    stored exponents, and (3) reads the controlled exponents off the computed
    lamplighter image of the r-product, so a cut or padded witness cannot
    pass on the strength of what the file claims.

    (0)-(2) are checked in one pass over the indexed pairs of factors, which
    evaluates each factor in the Magnus ring once; that pass stops at the
    shorter factor list, so (3) evaluates the whole r-product on its own.
    When (0) passes, a trivial defect after the last step certifies (1)
    for every step (module docstring), with the full products taken from
    the build that made the same words; otherwise the defect after each
    step is computed, so the report lists every failing step.

    Failures are recorded with the first failing weight or factor index;
    they are data, not exceptions.
    """
    # R and S are held at K: the defect after step k, checked at k + 1,
    # reads them only up to k.  A K below 0 is checked as K = 0, where p0
    # fails on the factor counts and the defect is checked at 1.
    K = pair.K
    top = max(K, 0)
    ws = _workspace(max(K, 1))

    fails: dict[str, list[str]] = {name: [] for name in ("p0", "p1", "p2", "p3")}
    n_r, n_s, n_n = len(pair.r_factors), len(pair.s_factors), len(pair.n)
    if not n_r == n_s == n_n == K - 2:
        fails["p0"].append(
            f"K = {K} needs {K - 2} factors and exponents, got r {n_r}, s {n_s}, n {n_n}"
        )
    steps = []
    for k, r, s in zip(pair.factor_indices(), pair.r_factors, pair.s_factors):
        r_val, s_val = ws.magnus.eval(r), ws.magnus.eval(s)
        for name, val in (("r", r_val), ("s", s_val)):
            gw = gamma_weight(val)
            if gw < k:
                fails["p0"].append(f"{name}^({k}) has weight {gw} < {k}")
        steps.append((k, r_val, s_val))
        img = ws.lamp.eval(s)
        if not img.is_identity():
            fails["p2"].append(f"s^({k}) maps to {img}")

    # with (0) passed, a trivial last defect makes every earlier one trivial;
    # the full products are the build's own if it made the same words
    if steps and not fails["p0"]:
        _, rs, ss = zip(*steps)
        held = ws.products.get((str(pair.r_word()), str(pair.s_word())))
        if _defect(*held or map(MagnusElement.product_of, (rs, ss))).is_one():
            steps = []
    R = S = MagnusElement.one(ws.K)
    for k, r_val, s_val in steps:
        R, S = R * r_val, S * s_val
        Tk = min(k, top)
        defect = _defect(R.truncate(Tk), S.truncate(Tk))
        if not defect.is_one():
            fails["p1"].append(f"step {k}: defect has weight {gamma_weight(defect)}")

    # p3 reads every r-factor, not only the ones zip paired with an s-factor
    lamp_r = ws.lamp.eval(pair.r_word())
    if lamp_r.e != 0:
        fails["p3"].append(f"r-product has shift exponent {lamp_r.e}")
    if lamp_r.f != witness_series(pair):
        fails["p3"].append("series of the r-product disagrees with the exponent data")
    for i in range(1, (K - 1) // 2 + 1):
        slot = 2 * i + 1
        want = _q_at(pair.q, i)
        got = lamp_r.f.coeffs[slot - 1]
        if got != want:
            fails["p3"].append(f"controlled exponent n_{slot} = {got}, expected {want}")

    return Report(**{name: PropertyResult(not f, "; ".join(f)) for name, f in fails.items()})


def witness_series(pair: WitnessPair) -> TruncatedSeries:
    """The series sum n_i x^{i-1} over the integers, truncated at x^K."""
    K = max(pair.K, 1)
    coeffs = [0] * K
    for i, value in zip(pair.factor_indices(), pair.n):
        if i - 1 < K:
            coeffs[i - 1] = value
    return TruncatedSeries.from_coeffs(ZZ, K, coeffs)
