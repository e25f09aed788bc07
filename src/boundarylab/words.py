"""Exact combinatorics of the free group F_n and its boundary.

Reduced words over n generators, the Cayley-tree word metric, balls in
shortlex order, eventually periodic boundary points with decidable
equality, the left translation action on the boundary, and windows of
the unique bi-infinite geodesic joining two boundary points.

A ball is built once per rank, one sphere at a time: ball(n, R) is
ball(n, R - 1) followed by the children, in letter order, of its last
sphere, which is already shortlex order, so no sphere is ever sorted and
every word of a rank is made once.  A sphere is a slice of its ball.

A letter is the int that gives its place in letter order, a = 0, A = 1,
b = 2, B = 3, ...: generator i is 2i, its inverse is 2i + 1, so l ^ 1
inverts a letter and a word's tuple of letters orders words of one
length.  Only this module reads that encoding; other modules ask
`next_letters(n, last)` for the letters that may follow `last` in a
reduced word.

A word is the tuple of its letters: it hashes, compares equal and slices
(to a plain tuple) as that tuple, but `*` is group multiplication and
order is shortlex.  Only public construction checks reducedness;
products, inverses, prefixes (of words and of boundary points), parents,
extensions and balls skip the check.

Text syntax: generators are lowercase letters "a", "b", ...; their
inverses are the corresponding uppercase letters; the identity is "1".
A boundary point is written "head(period)", e.g. "ab(ba)".
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable

from .config import DomainError, check_radius

_ALPHABET = "".join(ch + ch.upper() for ch in string.ascii_lowercase)  # letter l is _ALPHABET[l]


def next_letters(n: int, last: int | None) -> tuple[int, ...]:
    """The letters of F_n that may follow `last` in a reduced word, in
    letter order; every letter when `last` is None."""
    return tuple(l for l in range(2 * n) if last is None or l != last ^ 1)


class ReducedWord(tuple):
    """An element of F_n as its unique freely reduced spelling: the tuple
    of its letters, ordered shortlex."""

    __slots__ = ()

    def __init__(self, letters: Iterable[int] = ()):
        for x, y in zip(self, self[1:]):
            if x ^ 1 == y:
                raise DomainError(f"word {tuple(self)} is not reduced")

    @staticmethod
    def parse(text: str) -> "ReducedWord":
        if text in ("", "1"):
            return IDENTITY
        letters = [_ALPHABET.find(ch) for ch in text]
        if -1 in letters:
            raise DomainError(f"bad letter {text[letters.index(-1)]!r} in word {text!r}")
        return reduce(letters)

    @property
    def letters(self) -> "ReducedWord":
        return self  # a word is the tuple of its letters

    def sort_key(self):
        """Shortlex ordering key."""
        return (len(self), self)

    def __lt__(self, other: "ReducedWord") -> bool:
        return len(self) < len(other) if len(self) != len(other) else tuple.__lt__(self, other)

    def __le__(self, other: "ReducedWord") -> bool:
        return len(self) < len(other) if len(self) != len(other) else tuple.__le__(self, other)

    def __gt__(self, other: "ReducedWord") -> bool:
        return len(self) > len(other) if len(self) != len(other) else tuple.__gt__(self, other)

    def __ge__(self, other: "ReducedWord") -> bool:
        return len(self) > len(other) if len(self) != len(other) else tuple.__ge__(self, other)

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return multiply(self, other)

    def inverse(self) -> "ReducedWord":
        return _word(l ^ 1 for l in reversed(self))

    def prefix(self, d: int) -> "ReducedWord":
        return _word(self[:d])

    def parent(self) -> "ReducedWord":
        """The neighbor one unit closer to the identity."""
        if not self:
            raise DomainError("origin has no parent")
        return _word(self[:-1])

    def __str__(self) -> str:
        return "".join(_ALPHABET[l] for l in self) or "1"

    def __repr__(self) -> str:
        return f"ReducedWord({str(self)!r})"


# A word from letters already known to be reduced, built without the check.
_word = partial(tuple.__new__, ReducedWord)

IDENTITY = ReducedWord()


def reduce(seq: Iterable[int]) -> ReducedWord:
    """Freely reduce a letter sequence; idempotent on reduced input."""
    stack: list[int] = []
    for l in seq:
        if stack and stack[-1] == l ^ 1:
            stack.pop()
        else:
            stack.append(l)
    return ReducedWord(stack)


@lru_cache(maxsize=None)
def multiply(x: ReducedWord, y: ReducedWord) -> ReducedWord:
    k = 0
    limit = min(len(x), len(y))
    while k < limit and x[-1 - k] == y[k] ^ 1:
        k += 1
    return _word(x[: len(x) - k] + y[k:])


def word_extensions(w: tuple[int, ...], k: int, n: int) -> list[ReducedWord]:
    """The reduced words that extend the reduced w by k letters, in
    shortlex order, built without the check."""
    spellings = [w]
    for _ in range(k):
        spellings = [t + (l,) for t in spellings for l in next_letters(n, t[-1] if t else None)]
    return [_word(t) for t in spellings]


def parse_word(text: str, n: int) -> ReducedWord:
    """A word of F_n: a letter past the first n generators is a domain error."""
    word = ReducedWord.parse(text)
    if any(l >= 2 * n for l in word):
        raise DomainError(f"word {text!r} has a letter outside the {n} generators")
    return word


def is_initial(x: ReducedWord, y: ReducedWord) -> bool:
    """True iff x lies on the tree geodesic [e, y], i.e. y begins with x."""
    return y[: len(x)] == x


def generators(n: int) -> list[ReducedWord]:
    """All 2n length-one words, in letter order."""
    return [ReducedWord((l,)) for l in range(2 * n)]


@lru_cache(maxsize=None)
def _ball(n: int, R: int) -> tuple[ReducedWord, ...]:
    """ball(n, R - 1) and its children: a shortlex-sorted sphere's
    children, taken word by word in letter order, are in shortlex order."""
    if R == 0:
        return (IDENTITY,)
    inner = _ball(n, R - 1)
    grown = list(inner)
    for w in inner[_sphere_start(n, R - 1):]:
        grown.extend(_word(w + (l,)) for l in next_letters(n, w[-1] if w else None))
    return tuple(grown)


def _sphere_start(n: int, R: int) -> int:
    """Position of the first word of length R in the shortlex ball."""
    return len(_ball(n, R - 1)) if R else 0


def _checked_ball(n: int, R: int) -> tuple[ReducedWord, ...]:
    check_radius(R)
    if n < 2:
        raise DomainError(f"rank must be >= 2, got {n}")
    return _ball(n, R)


def ball(n: int, R: int) -> list[ReducedWord]:
    """All reduced words of length <= R in shortlex order."""
    return list(_checked_ball(n, R))


def sphere(n: int, R: int) -> list[ReducedWord]:
    """All reduced words of length exactly R, in shortlex order."""
    return list(_checked_ball(n, R)[_sphere_start(n, R):])


def _primitive_root(w: tuple[int, ...]) -> tuple[int, ...]:
    for p in range(1, len(w) + 1):
        if len(w) % p == 0 and w == w[:p] * (len(w) // p):
            return w[:p]
    return w  # unreachable


@dataclass(frozen=True)
class BoundaryPoint:
    """An eventually periodic point of the Gromov boundary of F_n.

    The letter stream is head . period . period . ...  Construction
    canonicalizes: the period is primitive, and the head is shortened as
    far as possible by rotating the period, so equality of streams is
    exactly equality of fields.
    """

    head: ReducedWord
    period: ReducedWord

    def __post_init__(self):
        head, period = self.head, self.period
        if len(period) == 0:
            raise DomainError("boundary point needs a nonempty period")
        # the infinite stream must be reduced at both junction types
        if period[-1] == period[0] ^ 1:
            raise DomainError(f"period {period} cancels against itself")
        if head and head[-1] == period[0] ^ 1:
            raise DomainError(f"head {head} cancels against period {period}")
        p = _primitive_root(period)
        h = head
        while h and h[-1] == p[-1]:
            h = h[:-1]
            p = (p[-1],) + p[:-1]
        object.__setattr__(self, "head", ReducedWord(h))
        object.__setattr__(self, "period", ReducedWord(p))

    @staticmethod
    def parse(text: str) -> "BoundaryPoint":
        if "(" not in text or not text.endswith(")"):
            raise DomainError(f"boundary point syntax is 'head(period)': {text!r}")
        head_txt, period_txt = text[:-1].split("(", 1)
        return BoundaryPoint(ReducedWord.parse(head_txt), ReducedWord.parse(period_txt))

    def prefix(self, d: int) -> ReducedWord:
        """The first d letters of the stream, built without the check: a
        prefix of a reduced stream is reduced."""
        copies = -(-max(d - len(self.head), 0) // len(self.period))
        return _word((self.head + tuple(self.period) * copies)[:d])  # word * int is multiplication

    def __str__(self) -> str:
        return f"{'' if not self.head else self.head}({self.period})"


def act(gamma: ReducedWord, a: BoundaryPoint) -> BoundaryPoint:
    """Left translation of the boundary point a by gamma."""
    if not gamma:
        return a
    # prepend enough whole periods that cancellation stays inside the head
    copies = len(gamma) // len(a.period) + 1
    extended = ReducedWord(a.head + tuple(a.period) * copies)  # word * int is multiplication
    return BoundaryPoint(multiply(gamma, extended), a.period)


def meet(a: BoundaryPoint, b: BoundaryPoint) -> ReducedWord:
    """Longest common prefix vertex of two distinct boundary points."""
    if a == b:
        raise DomainError("diagonal pair has no meet vertex")
    d = 0
    while a.prefix(d + 1) == b.prefix(d + 1):
        d += 1
    return a.prefix(d)


@dataclass(frozen=True)
class GeodesicWindow:
    """A finite window of the bi-infinite geodesic from a (at -inf) to b."""

    a: BoundaryPoint
    b: BoundaryPoint
    lo: int
    hi: int
    vertices: tuple[ReducedWord, ...]  # r(lo), ..., r(hi)

    def vertex(self, k: int) -> ReducedWord:
        if not self.lo <= k <= self.hi:
            raise DomainError(f"{k} outside window [{self.lo}, {self.hi}]")
        return self.vertices[k - self.lo]


def bigeodesic(a: BoundaryPoint, b: BoundaryPoint, lo: int, hi: int) -> GeodesicWindow:
    """The unique geodesic from a to b, anchored so r(0) is nearest e.

    r(0) is the meet vertex (the unique point of the geodesic closest to
    the identity); negative parameters run toward a, positive toward b.
    """
    if a == b:
        raise DomainError("diagonal pair has no connecting geodesic")
    if lo > hi:
        raise DomainError(f"empty window [{lo}, {hi}]")
    check_radius(max(abs(lo), abs(hi)))
    m = meet(a, b)
    L = len(m)

    def vertex(k: int) -> ReducedWord:
        return b.prefix(L + k) if k >= 0 else a.prefix(L - k)

    return GeodesicWindow(a, b, lo, hi, tuple(vertex(k) for k in range(lo, hi + 1)))
