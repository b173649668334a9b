"""The letter-level oracle of the tests: freely reduced words over
{a, a^-1, b, b^-1}, and the expansion of a word expression into one.

GroupWord stores a word as a tuple of signed letters (+1 = a, -1 = a^-1,
+2 = b, -2 = b^-1).  to_group_word expands an expression by the package's
own walk, words.evaluate, on a cache seeded with letter words, so each
distinct subexpression is expanded once.
"""

from dataclasses import dataclass

from nilwitness import words

_LETTER = {1: "a", -1: "A", 2: "b", -2: "B"}
_SIGNED = {"a": 1, "A": -1, "b": 2, "B": -2}


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


def to_group_word(expr: words.WordExpr) -> GroupWord:
    """Expand an expression to a reduced letter word."""
    letters = words.seeded(GroupWord.parse("a"), GroupWord.parse("b"), GroupWord.identity())
    return words.evaluate(expr, letters)
