"""Truncated commutative power series R[x]/x^K and Laurent polynomials R[C].

Three coefficient rings: the integers, the rationals (exact fractions), and
the integers modulo an odd prime.  On top of the arithmetic this module
provides the substitution t -> 1 + x from the group ring of the infinite
cyclic group C = <t>, the antipode t -> t^-1 and the involution it induces on
series, rational powers of one-units, and a certified check that the
substitution identifies R[C] modulo powers of the augmentation ideal with
truncated series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Mapping, Sequence

from . import linalg

# the weight (and valuation) of an element that is trivial at truncation
INFINITE_WEIGHT = math.inf
# the largest p of Z/p: primality is checked by trial division up to sqrt(p)
MAX_PRIME = 2**31 - 1


@dataclass(frozen=True)
class IntegerRing:
    tag: ClassVar[str] = "Z"

    def coerce(self, v):
        # the common case first: isinstance(v, Fraction) goes through ABCMeta
        if type(v) is int:
            return v
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise ValueError(f"{v} is not an integer")
            return int(v)
        return int(v)


@dataclass(frozen=True)
class RationalRing:
    tag: ClassVar[str] = "Q"

    def coerce(self, v):
        return Fraction(v)


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if self.p == 2:
            raise ValueError("characteristic 2 is not supported (odd primes only)")
        if self.p > MAX_PRIME:
            raise ValueError(f"p must be at most {MAX_PRIME}")
        if self.p < 3 or any(
            self.p % q == 0 for q in range(2, math.isqrt(self.p) + 1)
        ):
            raise ValueError(f"{self.p} is not an odd prime")

    @property
    def tag(self) -> str:
        return f"Z/{self.p}"

    def coerce(self, v):
        return linalg.coerce_entry(v, self.p)


ZZ = IntegerRing()
QQ = RationalRing()

Ring = IntegerRing | RationalRing | PrimeField


def ring_from_tag(tag: str) -> Ring:
    """'Z', 'Q', or 'Zp:<p>' (also accepts 'Z/<p>')."""
    if tag == "Z":
        return ZZ
    if tag == "Q":
        return QQ
    for prefix in ("Zp:", "Z/"):
        if tag.startswith(prefix):
            return PrimeField(int(tag[len(prefix):]))
    raise ValueError(f"unknown ring tag {tag!r}")


@dataclass(frozen=True)
class TruncatedSeries:
    """Element of R[x]/x^K; exactly K stored coefficients."""

    ring: Ring
    trunc: int
    coeffs: tuple

    @staticmethod
    def from_coeffs(ring: Ring, trunc: int, coeffs: Sequence) -> "TruncatedSeries":
        if trunc < 1:
            raise ValueError("truncation must be >= 1")
        vals = [ring.coerce(c) for c in coeffs[:trunc]]
        vals += [ring.coerce(0)] * (trunc - len(vals))
        return TruncatedSeries(ring, trunc, tuple(vals))

    @staticmethod
    def zero(ring: Ring, trunc: int) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs(ring, trunc, ())

    @staticmethod
    def one(ring: Ring, trunc: int) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs(ring, trunc, (1,))

    @staticmethod
    def x(ring: Ring, trunc: int) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs(ring, trunc, (0, 1))

    @staticmethod
    def monomial(ring: Ring, trunc: int, k: int) -> "TruncatedSeries":
        if not 0 <= k < trunc:
            raise ValueError("exponent out of range")
        return TruncatedSeries.from_coeffs(ring, trunc, (0,) * k + (1,))

    def _check(self, other: "TruncatedSeries") -> None:
        if self.ring != other.ring or self.trunc != other.trunc:
            raise ValueError("mismatched series rings or truncations")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        ring = self.ring
        return TruncatedSeries(
            ring,
            self.trunc,
            tuple(ring.coerce(u + v) for u, v in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "TruncatedSeries":
        ring = self.ring
        return TruncatedSeries(ring, self.trunc, tuple(ring.coerce(-u) for u in self.coeffs))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        K = self.trunc
        out = [0] * K
        for i, u in enumerate(self.coeffs):
            if u == 0:
                continue
            for j in range(K - i):
                v = other.coeffs[j]
                if v != 0:
                    out[i + j] += u * v
        ring = self.ring
        return TruncatedSeries(ring, K, tuple(ring.coerce(c) for c in out))

    def scale(self, c) -> "TruncatedSeries":
        ring = self.ring
        c = ring.coerce(c)
        return TruncatedSeries(ring, self.trunc, tuple(ring.coerce(c * u) for u in self.coeffs))

    def valuation(self) -> int | float:
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return INFINITE_WEIGHT

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class LaurentPoly:
    """Element of the group ring R[C], C = <t>; exponent -> coefficient."""

    ring: Ring
    terms: Mapping[int, object]

    @staticmethod
    def from_terms(ring: Ring, terms: Mapping[int, object]) -> "LaurentPoly":
        clean = {}
        for e, c in terms.items():
            c = ring.coerce(c)
            if c != 0:
                clean[int(e)] = c
        return LaurentPoly(ring, clean)

    @staticmethod
    def t_power(ring: Ring, e: int) -> "LaurentPoly":
        return LaurentPoly.from_terms(ring, {e: 1})

    @staticmethod
    def one(ring: Ring) -> "LaurentPoly":
        return LaurentPoly.t_power(ring, 0)

    def _check(self, other: "LaurentPoly") -> None:
        if self.ring != other.ring:
            raise ValueError("mismatched rings")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly.from_terms(self.ring, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly.from_terms(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out: dict[int, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly.from_terms(self.ring, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ring == other.ring and dict(self.terms) == dict(other.terms)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))


def antipode(p: LaurentPoly) -> LaurentPoly:
    """The group-ring involution t^i -> t^-i."""
    return LaurentPoly.from_terms(p.ring, {-e: c for e, c in p.terms.items()})


def binomials(r, n: int) -> list:
    """C(r, 0), ..., C(r, n - 1) for rational r, by the recurrence
    C(r, k + 1) = C(r, k) (r - k) / (k + 1): exact ints when r is an integer
    (each division is exact), Fractions otherwise."""
    r = Fraction(r)
    if r.denominator == 1:
        r = r.numerator
    out, c = [], 1
    for k in range(n):
        out.append(c)
        c = c * (r - k) // (k + 1) if isinstance(r, int) else c * (r - k) / (k + 1)
    return out


def one_plus_x_power(ring: Ring, r, trunc: int) -> TruncatedSeries:
    """(1 + x)^r for rational r: the coefficients are the binomials C(r, k).
    A non-integer r needs the rational ring."""
    if Fraction(r).denominator != 1 and not isinstance(ring, RationalRing):
        raise ValueError("rational powers need the rational coefficient ring")
    return TruncatedSeries.from_coeffs(ring, trunc, binomials(r, trunc))


def tau(p: LaurentPoly, trunc: int) -> TruncatedSeries:
    """Ring homomorphism R[C] -> R[x]/x^K extending t -> 1 + x."""
    out = TruncatedSeries.zero(p.ring, trunc)
    for e, c in p.terms.items():
        out = out + one_plus_x_power(p.ring, e, trunc).scale(c)
    return out


def sigma_tilde(f: TruncatedSeries) -> TruncatedSeries:
    """Involution of R[x]/x^K induced by the antipode through tau.

    It substitutes x -> (1 + x)^-1 - 1 = -x / (1 + x), so x^k maps to
    (-x)^k (1 + x)^-k, and coefficient n >= 1 of the image is
    (-1)^n sum_{k=1..n} C(n - 1, k - 1) f_k: a signed Pascal matrix,
    triangular with diagonal (-1)^n.  Applying it twice is the identity at
    truncation.
    """
    c = f.coeffs
    out = [c[0]]
    for n in range(1, f.trunc):
        s = sum(math.comb(n - 1, k - 1) * c[k] for k in range(1, n + 1))
        out.append(-s if n % 2 else s)
    return TruncatedSeries.from_coeffs(f.ring, f.trunc, out)


def rat_pow(f: TruncatedSeries, r) -> TruncatedSeries:
    """f^r for rational r via the binomial series sum_n C(r, n) (f - 1)^n.

    Requires rational coefficients and constant term 1; the sum is finite at
    truncation because (f - 1)^n has valuation >= n.
    """
    if not isinstance(f.ring, RationalRing):
        raise ValueError("rational powers need the rational coefficient ring")
    if f.coeffs[0] != 1:
        raise ValueError("rational powers need constant term 1")
    u = f - TruncatedSeries.one(f.ring, f.trunc)
    acc = TruncatedSeries.one(f.ring, f.trunc)
    term = TruncatedSeries.one(f.ring, f.trunc)
    for binom in binomials(r, f.trunc)[1:]:
        term = term * u
        if term.is_zero():
            break
        acc = acc + term.scale(binom)
    return acc


def tau_q(r, trunc: int) -> TruncatedSeries:
    """Image of the group element t^r, rational r: (1 + x)^r over Q."""
    return one_plus_x_power(QQ, r, trunc)


# --- the augmentation-filtration isomorphism certificate


def augmentation_iso_report(ring: Ring, n: int) -> dict:
    """Certificates that tau identifies R[C]/I^n with R[x]/x^n.

    I is the augmentation ideal (kernel of t -> 1).  Working over the
    spanning set {t^-N, ..., t^N}, N = n + 2, the report certifies:

    * surjectivity - the rows tau(t^j) mod x^n span R^n (over Z: with all
      elementary divisors 1, so the row lattice is the full lattice);
    * kernel containment - tau((t-1)^n t^j) has valuation >= n;
    * kernel exactness - the relation lattice of the rows equals the lattice
      spanned by the coefficient vectors of (t-1)^n t^j (over a field, equal
      dimensions plus containment);
    * stability - the same certificates hold after growing N by one.

    R[C] has infinite rank, so a finite check is only honest together with
    the stability certificate; that is what the re-run at N = n + 3 is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    results = {}
    for N in (n + 2, n + 3):
        exps = list(range(-N, N + 1))
        rows = [list(one_plus_x_power(ring, e, n).coeffs) for e in exps]
        # coefficient vectors of (t-1)^n t^j over the t-power basis
        binom = [_binomial_signed(n, k) for k in range(n + 1)]
        ideal_rows = []
        for j in range(-N, N - n + 1):
            vec = [0] * len(exps)
            for k in range(n + 1):
                vec[j + k + N] = ring.coerce(binom[k])
            ideal_rows.append(vec)
        if isinstance(ring, IntegerRing):
            surj = linalg.row_lattice_is_full(rows, n)
            kernel_rows = linalg.integer_row_nullspace(rows)
            exact = linalg.lattices_equal(kernel_rows, ideal_rows)
        else:
            p = ring.p if isinstance(ring, PrimeField) else None
            rank = linalg.field_rank(rows, p)
            surj = rank == n
            null_rank = len(rows) - rank
            ideal_rank = linalg.field_rank(ideal_rows, p)
            # containment: each ideal row maps to valuation >= n
            exact = ideal_rank == null_rank
        contain = all(
            tau(
                LaurentPoly.from_terms(ring, {j + k: binom[k] for k in range(n + 1)}),
                n,
            ).is_zero()
            for j in range(-N, N - n + 1)
        )
        results[f"N={N}"] = {
            "surjective": bool(surj),
            "kernel_contained": bool(contain),
            "kernel_exact": bool(exact),
        }
    flat = [v for r in results.values() for v in r.values()]
    return {"ring": ring.tag, "n": n, "ok": all(flat), "certificates": results}


def _binomial_signed(n: int, k: int) -> int:
    return (-1) ** (n - k) * math.comb(n, k)


def check_augmentation_iso(ring: Ring, n: int) -> bool:
    """True iff all certificates of augmentation_iso_report pass."""
    return augmentation_iso_report(ring, n)["ok"]
