"""Truncated commutative power series R[x]/x^K.

Three coefficient rings: the integers, the rationals (exact fractions), and
the integers modulo an odd prime.  The group ring R[C] of the infinite
cyclic group C = <t> appears here only through its image under t -> 1 + x:
an element sum c_e t^e is the series sum c_e (1 + x)^e, each power given in
closed form by one_plus_x_power.  On top of the arithmetic this module
provides the involution sigma_tilde that t -> t^-1 induces on series, the
power sum sum_j c_j u^j, rational powers of one-units (a power sum, as are
the powers of lamplighter elements), and a certified check that the
substitution identifies R[C] modulo powers of the augmentation ideal with
truncated series.

The rings and series are plain classes with __slots__, immutable by
convention: no method writes a field after construction.  A series is equal
to, and hashes as, another with the same ring, truncation and coefficients;
a prime field is equal by p, and the integers and the rationals are each
one ring however often they are built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import linalg

# the weight (and valuation) of an element that is trivial at truncation
INFINITE_WEIGHT = math.inf
# the largest p of Z/p: primality is checked by trial division up to sqrt(p)
MAX_PRIME = 2**31 - 1


class IntegerRing:
    """The integers; every instance is the same ring."""

    __slots__ = ()
    tag = "Z"

    def coerce(self, v):
        # the common case first: isinstance(v, Fraction) goes through ABCMeta
        if type(v) is int:
            return v
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise ValueError(f"{v} is not an integer")
            return int(v)
        return int(v)

    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(())

    def __repr__(self) -> str:
        return "IntegerRing()"


class RationalRing:
    """The rationals as exact fractions; every instance is the same ring."""

    __slots__ = ()
    tag = "Q"

    def coerce(self, v):
        return Fraction(v)

    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(())

    def __repr__(self) -> str:
        return "RationalRing()"


class PrimeField:
    """The integers modulo an odd prime p; equal by p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p == 2:
            raise ValueError("characteristic 2 is not supported (odd primes only)")
        if p > MAX_PRIME:
            raise ValueError(f"p must be at most {MAX_PRIME}")
        if p < 3 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise ValueError(f"{p} is not an odd prime")
        self.p = p

    @property
    def tag(self) -> str:
        return f"Z/{self.p}"

    def coerce(self, v):
        return linalg.coerce_entry(v, self.p)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p

    def __hash__(self):
        return hash((self.p,))

    def __repr__(self) -> str:
        return f"PrimeField(p={self.p!r})"


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


class TruncatedSeries:
    """Element of R[x]/x^K; exactly K stored coefficients, each already in
    the ring.  Immutable by convention; equal by (ring, trunc, coeffs)."""

    __slots__ = ("ring", "trunc", "coeffs")

    def __init__(self, ring: Ring, trunc: int, coeffs: tuple):
        self.ring = ring
        self.trunc = trunc
        self.coeffs = coeffs

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
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
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
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ring, self.trunc, self.coeffs) == (other.ring, other.trunc, other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.trunc, self.coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries(ring={self.ring!r}, trunc={self.trunc!r}, coeffs={self.coeffs!r})"


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
    """(1 + x)^r for rational r, the image of t^r: the coefficients are the
    binomials C(r, k).  A non-integer r needs the rational ring."""
    if Fraction(r).denominator != 1 and not isinstance(ring, RationalRing):
        raise ValueError("rational powers need the rational coefficient ring")
    return TruncatedSeries.from_coeffs(ring, trunc, binomials(r, trunc))


def sigma_tilde(f: TruncatedSeries) -> TruncatedSeries:
    """Involution of R[x]/x^K induced through t -> 1 + x by the group-ring
    involution t -> t^-1.

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


def power_sum(u: TruncatedSeries, coeffs: Sequence) -> TruncatedSeries:
    """sum_j coeffs[j] u^j for a nonempty list of scalars, in at most
    len(coeffs) - 1 series products, stopping at the first u^j that is zero.
    Each u^j is u^(j-1) u, not a Horner step: when u has no constant term
    u^j has valuation at least j, so its product skips j leading zeros, and
    a large coefficient meets one scaling, not every later product."""
    term = TruncatedSeries.one(u.ring, u.trunc)
    acc = term.scale(coeffs[0])
    for c in coeffs[1:]:
        term = term * u
        if term.is_zero():
            break
        acc = acc + term.scale(c)
    return acc


def rat_pow(f: TruncatedSeries, r) -> TruncatedSeries:
    """f^r for rational r via the binomial series sum_n C(r, n) (f - 1)^n.

    Requires rational coefficients and constant term 1; the sum is finite at
    truncation because (f - 1)^n has valuation >= n.
    """
    if not isinstance(f.ring, RationalRing):
        raise ValueError("rational powers need the rational coefficient ring")
    if f.coeffs[0] != 1:
        raise ValueError("rational powers need constant term 1")
    return power_sum(f - TruncatedSeries.one(f.ring, f.trunc), binomials(r, f.trunc))


# --- the augmentation-filtration isomorphism certificate


def augmentation_iso_report(ring: Ring, n: int) -> dict:
    """Certificates that t -> 1 + x identifies R[C]/I^n with R[x]/x^n.

    I is the augmentation ideal (kernel of t -> 1).  Working over the
    spanning set {t^-N, ..., t^N}, N = n + 2, the report certifies:

    * surjectivity - the rows (1 + x)^j mod x^n span R^n (over Z: with all
      elementary divisors 1, so the row lattice is the full lattice);
    * kernel containment - the image of each (t-1)^n t^j, the sum of the
      rows weighted by its coefficient vector, is 0 mod x^n;
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
            # one Hermite form H = U rows: the rows span Z^n when H has n
            # pivots, all 1, and the relation lattice is spanned by the rows
            # of U below the rank
            H, U, rank = linalg.hnf_with_transform(rows)
            surj = rank == n and all(H[i][i] == 1 for i in range(n))
            exact = linalg.hermite_rows(U[rank:]) == linalg.hermite_rows(ideal_rows)
        else:
            p = ring.p if isinstance(ring, PrimeField) else None
            rank = linalg.field_rank(rows, p)
            surj = rank == n
            null_rank = len(rows) - rank
            ideal_rank = linalg.field_rank(ideal_rows, p)
            exact = ideal_rank == null_rank
        # containment: each ideal row weights the rows of (1 + x)^e into
        # sum c_e (1 + x)^e, which must vanish mod x^n
        contain = all(
            ring.coerce(sum(c * row[d] for c, row in zip(vec, rows) if c)) == 0
            for vec in ideal_rows
            for d in range(n)
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
