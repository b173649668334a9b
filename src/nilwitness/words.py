"""Words and word expressions in the free group on a, b.

Two layers:

* GroupWord - a freely reduced word, stored as a tuple of signed letters
  (+1 = a, -1 = a^-1, +2 = b, -2 = b^-1).  The canonical form of a word.

* WordExpr - a structured expression (letters, powers, commutators,
  products) that evaluates to a group element.  Expressions are what the
  text syntax parses to; keeping the commutator structure around lets
  evaluators work at the element level instead of expanding commutators
  into very long letter strings.

evaluate is the one walk over an expression: the Magnus and lamplighter
evaluators and the expansion into a GroupWord all run it, each with its own
group and cache.

Text syntax: letters a, A (= a^-1), b, B (= b^-1); commutators "[u,v]",
left-normalized chains "[u,v,w,...]", iterated form "[u,_n v]" with
0 <= n <= MAX_ITERATE; powers "w^n" with integer n.  One chain holds at most
MAX_ITERATE brackets, an entry "_n v" counting n.  Whitespace is ignored.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

_LETTER = {1: "a", -1: "A", 2: "b", -2: "B"}
_SIGNED = {"a": 1, "A": -1, "b": 2, "B": -2}

# largest n accepted in "[u,_n v]", and most brackets in one chain
# "[u,v,_n w,...]"; the chains of a witness of depth K hold about K brackets
MAX_ITERATE = 64


@dataclass(frozen=True)
class GroupWord:
    """Freely reduced word over {a, a^-1, b, b^-1}."""

    letters: tuple[int, ...]

    @staticmethod
    def identity() -> "GroupWord":
        return GroupWord(())

    @staticmethod
    def from_letters(seq) -> "GroupWord":
        out: list[int] = []
        for s in seq:
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
        return GroupWord(tuple(out))

    @staticmethod
    def parse(text: str) -> "GroupWord":
        return GroupWord.from_letters(_SIGNED[ch] for ch in text if not ch.isspace())

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord.from_letters(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple(-s for s in reversed(self.letters)))

    def __pow__(self, n: int) -> "GroupWord":
        if n < 0:
            return self.inverse() ** (-n)
        return GroupWord.from_letters(self.letters * n)

    def commutator(self, other: "GroupWord") -> "GroupWord":
        return self.inverse() * other.inverse() * self * other

    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        return "".join(_LETTER[s] for s in self.letters)

    def __len__(self) -> int:
        return len(self.letters)


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

    def to_group_word(self) -> GroupWord:
        """Expand to a reduced letter word.

        Subexpression words are cached for the duration of the call, so
        each distinct subexpression is expanded once.
        """
        return _LetterWords().eval(self)

    def inverse(self) -> "WordExpr":
        return power(self, -1)


def evaluate(expr: WordExpr, cache: dict, group):
    """Value of expr in `group`, memoized in `cache` on expr.key().

    `group` supplies one(), generator(name) and comm(u, v), the commutator
    [u, v] of two values; one() is called only for the empty product.
    Values need only * and ** with an integer exponent.
    """
    key = expr.key()
    hit = cache.get(key)
    if hit is not None:
        return hit
    if isinstance(expr, Gen):
        out = group.generator(expr.name)
    elif isinstance(expr, Pow):
        out = evaluate(expr.base, cache, group) ** expr.exp
    elif isinstance(expr, Comm):
        left = evaluate(expr.left, cache, group)
        out = group.comm(left, evaluate(expr.right, cache, group))
    elif isinstance(expr, Prod):
        # start from the first part: one() * x can cost a copy of x
        values = [evaluate(p, cache, group) for p in expr.parts]
        out = functools.reduce(operator.mul, values) if values else group.one()
    else:
        raise TypeError(f"cannot evaluate {expr!r}")
    cache[key] = out
    return out


class _LetterWords:
    """The free group on reduced letter words, for evaluate."""

    def __init__(self):
        self._cache: dict[str, GroupWord] = {}

    def eval(self, expr: WordExpr) -> GroupWord:
        return evaluate(expr, self._cache, self)

    def one(self) -> GroupWord:
        return GroupWord.identity()

    def generator(self, name: str) -> GroupWord:
        return GroupWord((_SIGNED[name],))

    def comm(self, u: GroupWord, v: GroupWord) -> GroupWord:
        return u.commutator(v)


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


def commutator(left: WordExpr, right: WordExpr) -> WordExpr:
    return Comm(left, right)


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
    parser = _Parser(text)
    expr = parser.parse_product(stop_chars="")
    parser.skip_ws()
    if parser.pos != len(parser.text):
        raise WordSyntaxError(f"trailing input at {parser.pos}: {text!r}")
    return expr


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_product(self, stop_chars: str) -> WordExpr:
        parts = []
        while True:
            ch = self.peek()
            if not ch or ch in stop_chars:
                break
            parts.append(self.parse_term())
        return product(*parts)

    def parse_term(self) -> WordExpr:
        atom = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            return power(atom, self.parse_int())
        return atom

    def parse_atom(self) -> WordExpr:
        ch = self.peek()
        if ch in "aAbB":
            self.pos += 1
            gen = Gen(ch.lower())
            return gen if ch.islower() else Pow(gen, -1)
        if ch == "(":
            self.pos += 1
            expr = self.parse_product(stop_chars=")")
            if self.peek() != ")":
                raise WordSyntaxError(f"unclosed parenthesis at {self.pos}")
            self.pos += 1
            return expr
        if ch == "[":
            self.pos += 1
            expr = self.parse_product(stop_chars=",]")
            if isinstance(expr, Prod) and not expr.parts:
                raise WordSyntaxError(f"empty commutator argument at {self.pos}")
            brackets = 0
            while self.peek() == ",":
                self.pos += 1
                count = 1
                if self.peek() == "_":
                    self.pos += 1
                    count = self.parse_int()
                    if not 0 <= count <= MAX_ITERATE:
                        raise WordSyntaxError(
                            f"iterate count {count} outside 0..{MAX_ITERATE} at {self.pos}"
                        )
                # the text of each new bracket walks back over its chain
                brackets += count
                if brackets > MAX_ITERATE:
                    raise WordSyntaxError(
                        f"more than {MAX_ITERATE} brackets in one chain at {self.pos}"
                    )
                arg = self.parse_product(stop_chars=",]")
                if isinstance(arg, Prod) and not arg.parts:
                    raise WordSyntaxError(f"empty commutator argument at {self.pos}")
                for _ in range(count):
                    expr = Comm(expr, arg)
            if self.peek() != "]":
                raise WordSyntaxError(f"unclosed bracket at {self.pos}")
            self.pos += 1
            return expr
        raise WordSyntaxError(f"unexpected character {ch!r} at {self.pos}")

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise WordSyntaxError(f"expected integer at {start}")
        return int(self.text[start : self.pos])


@functools.lru_cache(maxsize=None)
def basis_word_expr(word: str) -> WordExpr:
    """Bracket expression of a Lyndon basis word via its standard
    factorization, e.g. 'aab' -> [a,[a,b]]; cached, since expressions are
    immutable."""
    from .freelie import standard_factorization

    if len(word) == 1:
        return Gen(word)
    left, right = standard_factorization(word)
    return Comm(basis_word_expr(left), basis_word_expr(right))
