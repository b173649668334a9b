"""Word expressions in the free group on a, b.

A WordExpr is a structured expression (letters, powers, commutators,
products) that evaluates to a group element.  Expressions are what the text
syntax parses to, and the one form of a word in this package; keeping the
commutator structure around lets evaluators work at the element level
instead of expanding commutators into very long letter strings.

evaluate is the one walk over an expression: the Magnus and lamplighter
evaluators both run it, each with its own cache.  A cache starts as
seeded(a, b, one), the values of the leaves, and the walk asks each value
for its products, powers and commutators, so no group object stands beside
the values.  This module imports no other of the package; the expressions
of Lyndon basis words are built by freelie.HallBasis.word_expr.

Text syntax: letters a, A (= a^-1), b, B (= b^-1); commutators "[u,v]",
left-normalized chains "[u,v,w,...]", iterated form "[u,_n v]" with
0 <= n <= MAX_ITERATE; powers "w^n" with integer n.  One chain holds at most
MAX_ITERATE brackets, an entry "_n v" counting n.  Whitespace is ignored.
parse_word_expr splits a text into tokens with one regular expression and
builds a commutator atom that recurs in the text once (see _Parser).
"""

from __future__ import annotations

import functools
import itertools
import operator
import re

# largest n accepted in "[u,_n v]", and most brackets in one chain
# "[u,v,_n w,...]"; the chains of a witness of depth K hold about K brackets
MAX_ITERATE = 64


# --- structured expressions


class WordExpr:
    """Immutable expression tree; leaves are generators."""

    __slots__ = ("_text",)

    def key(self) -> str:
        return self._text  # canonical text, used as cache key

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._text!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, WordExpr) and self._text == other._text

    def __hash__(self):
        return hash(self._text)


def seeded(a, b, one) -> dict:
    """A cache for evaluate that holds the values of the leaves: the
    generators a and b and the empty product one, under the texts of A, B
    and IDENTITY."""
    return {"a": a, "b": b, "": one}


def evaluate(expr: WordExpr, cache: dict):
    """Value of expr, memoized in `cache` on expr.key().

    The cache must hold the generators (see seeded); a generator missing
    from it raises TypeError.  Values need only *, ** with an integer
    exponent and u.commutator(v), the commutator [u, v].
    """
    key = expr.key()
    hit = cache.get(key)
    if hit is not None:
        return hit
    if isinstance(expr, Pow):
        out = evaluate(expr.base, cache) ** expr.exp
    elif isinstance(expr, Comm):
        out = evaluate(expr.left, cache).commutator(evaluate(expr.right, cache))
    elif isinstance(expr, Prod) and expr.parts:
        # start from the first part: one * x can cost a copy of x
        out = functools.reduce(operator.mul, [evaluate(p, cache) for p in expr.parts])
    else:
        raise TypeError(f"cannot evaluate {expr!r}")
    cache[key] = out
    return out


class Gen(WordExpr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in ("a", "b"):
            raise ValueError(f"unknown generator {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_text", name)



class Pow(WordExpr):
    __slots__ = ("base", "exp")

    def __init__(self, base: WordExpr, exp: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)
        if isinstance(base, Gen) and exp == -1:
            text = base.name.upper()
        elif isinstance(base, Prod):
            text = f"({base})^{exp}"
        else:
            text = f"{base}^{exp}"
        object.__setattr__(self, "_text", text)



class Comm(WordExpr):
    """Commutator [left, right] = left^-1 right^-1 left right."""

    __slots__ = ("left", "right")

    def __init__(self, left: WordExpr, right: WordExpr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_text", self._format(left, right))

    @staticmethod
    def _format(left: WordExpr, right: WordExpr) -> str:
        # compress iterated right-brackets: [x,v,v,v,v] prints as [x,_4 v]
        base, count = left, 1
        while isinstance(base, Comm) and base.right == right:
            base, count = base.left, count + 1
        if count >= 4:
            return f"[{base},_{count} {right}]"
        # left-normalized chains print as [u,v,w]
        if isinstance(left, Comm):
            return f"{left._text[:-1]},{right}]"
        return f"[{left},{right}]"



class Prod(WordExpr):
    __slots__ = ("parts",)

    def __init__(self, parts):
        flat: list[WordExpr] = []
        for p in parts:
            if isinstance(p, Prod):
                flat.extend(p.parts)
            else:
                flat.append(p)
        object.__setattr__(self, "parts", tuple(flat))
        object.__setattr__(self, "_text", " ".join(str(p) for p in flat))



A = Gen("a")
B = Gen("b")
IDENTITY = Prod(())


def power(expr: WordExpr, n: int) -> WordExpr:
    if isinstance(expr, Pow):
        expr, n = expr.base, expr.exp * n
    if n == 1:
        return expr
    if n == 0:
        return IDENTITY
    if isinstance(expr, Prod) and not expr.parts:
        return expr
    return Pow(expr, n)


def product(*parts: WordExpr) -> WordExpr:
    flat = [p for p in parts if not (isinstance(p, Prod) and not p.parts)]
    if len(flat) == 1:
        return flat[0]
    return Prod(flat)


def engel(n: int) -> WordExpr:
    """The iterated commutator [a,_n b]; n = 0 gives a itself."""
    expr = A
    for _ in range(n):
        expr = Comm(expr, B)
    return expr


def alternating_engel_product(n: int) -> WordExpr:
    """Product over i < n of [[a,_{2n-1-i} b], [a,_i b]] with alternating
    exponents (-1)^i; the correction word pairing with [[a,_2n b], a]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    parts = [
        power(Comm(engel(2 * n - 1 - i), engel(i)), (-1) ** i) for i in range(n)
    ]
    return product(*parts)


# --- parser


class WordSyntaxError(ValueError):
    pass


def parse_word_expr(text: str) -> WordExpr:
    return _Parser(text).parse_product(_END)


# one token: an integer, any other non-space character, or the end of input
# (the empty token); whitespace before a token is skipped
_TOKEN = re.compile(r"\s*(-?\d+|\S|\Z)")
_BRACKET = re.compile(r"[][]")
_BRACKETS = frozenset("[]")
_END = ("",)
_ARG_END = ("", ",", "]")
_LETTER_ATOMS = {"a": A, "b": B, "A": Pow(A, -1), "B": Pow(B, -1)}


class _Parser:
    """Recursive descent over the tokens of one text.

    Each commutator atom "[...]" that parses is kept under its source span,
    the text from its "[" to the matching "]", so an atom that recurs in the
    text is parsed and built once and the copies share one expression.  The
    memo holds the offsets of the first copy under the hash of its text, and
    a hit is confirmed on the text itself: no span is held as a key, so a
    deeply nested atom costs no copies of the text.  A span that did not
    parse is never kept, so errors are reported where they occur.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[str] = _TOKEN.findall(text)
        self.i = 0
        # for each "[" token that is closed: the character offsets of its
        # span and the token index of its "]".  Brackets are tokens of one
        # character, so the n-th bracket token is the n-th bracket in text.
        self.spans: dict[int, tuple[int, int, int]] = {}
        opened = []
        indices = [i for i, tok in enumerate(self.tokens) if tok in _BRACKETS]
        for i, m in zip(indices, _BRACKET.finditer(text)):
            if m[0] == "[":
                opened.append((i, m.start()))
            elif opened:
                j, start = opened.pop()
                self.spans[j] = (start, m.end(), i)
        self.atoms: dict[int, tuple[int, int, WordExpr]] = {}

    def offset(self, i: int) -> int:
        """Character offset of token i, found again for an error message."""
        return next(itertools.islice(_TOKEN.finditer(self.text), i, None)).start(1)

    def error(self, message: str, i: int | None = None, after: bool = False) -> WordSyntaxError:
        """message, at the offset of token i (default the current one), or
        just past it if after."""
        i = self.i if i is None else i
        at = self.offset(i) + (len(self.tokens[i]) if after else 0)
        return WordSyntaxError(f"{message} at {at}")

    def parse_product(self, stops: tuple[str, ...]) -> WordExpr:
        parts = []
        while self.tokens[self.i] not in stops:
            parts.append(self.parse_term())
        return product(*parts)

    def parse_term(self) -> WordExpr:
        atom = self.parse_atom()
        if self.tokens[self.i] == "^":
            self.i += 1
            return power(atom, self.parse_int())
        return atom

    def parse_atom(self) -> WordExpr:
        tok = self.tokens[self.i]
        if tok in _LETTER_ATOMS:
            self.i += 1
            return _LETTER_ATOMS[tok]
        if tok == "(":
            self.i += 1
            expr = self.parse_product((")", ""))
            if self.tokens[self.i] != ")":
                raise self.error("unclosed parenthesis")
            self.i += 1
            return expr
        if tok == "[":
            span = self.spans.get(self.i)
            if span is None:
                return self.parse_commutator()
            start, end, close = span
            key = hash(self.text[start:end])
            seen = self.atoms.get(key)
            if seen and self.text[seen[0] : seen[1]] == self.text[start:end]:
                self.i = close + 1
                return seen[2]
            expr = self.parse_commutator()
            self.atoms.setdefault(key, (start, end, expr))
            return expr
        raise self.error(f"unexpected character {tok[:1]!r}")

    def parse_commutator(self) -> WordExpr:
        """The chain "[u,v,_n w,...]" that starts at the current token."""
        self.i += 1
        expr = self.parse_product(_ARG_END)
        if isinstance(expr, Prod) and not expr.parts:
            raise self.error("empty commutator argument")
        brackets = 0
        while self.tokens[self.i] == ",":
            self.i += 1
            # an error in the count is placed just past it, as is one in the
            # chain length when the entry has a count
            count, at, after = 1, self.i, False
            if self.tokens[self.i] == "_":
                self.i += 1
                count, at, after = self.parse_int(), self.i - 1, True
                if not 0 <= count <= MAX_ITERATE:
                    raise self.error(
                        f"iterate count {count} outside 0..{MAX_ITERATE}", at, after
                    )
            # the text of each new bracket walks back over its chain
            brackets += count
            if brackets > MAX_ITERATE:
                raise self.error(f"more than {MAX_ITERATE} brackets in one chain", at, after)
            arg = self.parse_product(_ARG_END)
            if isinstance(arg, Prod) and not arg.parts:
                raise self.error("empty commutator argument")
            for _ in range(count):
                expr = Comm(expr, arg)
        if self.tokens[self.i] != "]":
            raise self.error("unclosed bracket")
        self.i += 1
        return expr

    def parse_int(self) -> int:
        tok = self.tokens[self.i]
        if not tok[-1:].isdecimal():
            raise self.error("expected integer")
        self.i += 1
        return int(tok)
