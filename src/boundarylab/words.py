"""Exact combinatorics of the free group F_n and its boundary.

Reduced words over n generators, the Cayley-tree word metric, balls in
shortlex order, eventually periodic boundary points with decidable
equality, the left translation action on the boundary, and windows of
the unique bi-infinite geodesic joining two boundary points.

Text syntax: generators are lowercase letters "a", "b", ...; their
inverses are the corresponding uppercase letters; the identity is "1".
A boundary point is written "head(period)", e.g. "ab(ba)".
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from .config import DomainError, check_radius


class Letter(NamedTuple):
    index: int
    sign: int  # +1 or -1

    def inverse(self) -> "Letter":
        return _letter_inverse(self)

    def sort_key(self) -> tuple[int, int]:
        # a < A < b < B < ...
        return (self.index, 0 if self.sign > 0 else 1)

    def __str__(self) -> str:
        ch = string.ascii_lowercase[self.index]
        return ch if self.sign > 0 else ch.upper()


@lru_cache(maxsize=None)
def _letter_inverse(letter: Letter) -> Letter:
    return Letter(letter.index, -letter.sign)


def _parse_letters(text: str) -> tuple[Letter, ...]:
    out = []
    for ch in text:
        if ch in string.ascii_lowercase:
            out.append(Letter(string.ascii_lowercase.index(ch), 1))
        elif ch in string.ascii_uppercase:
            out.append(Letter(string.ascii_uppercase.index(ch), -1))
        else:
            raise DomainError(f"bad letter {ch!r} in word {text!r}")
    return tuple(out)


class ReducedWord:
    """An element of F_n as its unique freely reduced spelling."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters: Iterable[Letter] = ()):
        letters = tuple(letters)
        for x, y in zip(letters, letters[1:]):
            if x == y.inverse():
                raise DomainError(f"word {letters} is not reduced")
        self.letters = letters
        self._hash = hash(letters)

    @staticmethod
    def parse(text: str) -> "ReducedWord":
        if text in ("", "1", "e"):
            return IDENTITY
        return reduce(_parse_letters(text))

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, ReducedWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        """Shortlex ordering key."""
        return (len(self.letters), tuple(l.sort_key() for l in self.letters))

    def __lt__(self, other: "ReducedWord") -> bool:
        return self.sort_key() < other.sort_key()

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return multiply(self, other)

    def inverse(self) -> "ReducedWord":
        return ReducedWord(l.inverse() for l in reversed(self.letters))

    def prefix(self, d: int) -> "ReducedWord":
        return ReducedWord(self.letters[:d])

    def last(self) -> Letter:
        if not self.letters:
            raise DomainError("identity has no last letter")
        return self.letters[-1]

    def parent(self) -> "ReducedWord":
        """The neighbor one unit closer to the identity."""
        if not self.letters:
            raise DomainError("origin has no parent")
        return _parent(self)

    def __str__(self) -> str:
        return "".join(str(l) for l in self.letters) or "1"

    def __repr__(self) -> str:
        return f"ReducedWord({str(self)!r})"


@lru_cache(maxsize=None)
def _parent(word: "ReducedWord") -> "ReducedWord":
    return ReducedWord(word.letters[:-1])


IDENTITY = ReducedWord()


def reduce(seq: Iterable[Letter]) -> ReducedWord:
    """Freely reduce a letter sequence; idempotent on reduced input."""
    stack: list[Letter] = []
    for l in seq:
        if stack and stack[-1] == l.inverse():
            stack.pop()
        else:
            stack.append(l)
    return ReducedWord(stack)


@lru_cache(maxsize=None)
def multiply(x: ReducedWord, y: ReducedWord) -> ReducedWord:
    xl, yl = x.letters, y.letters
    k = 0
    limit = min(len(xl), len(yl))
    while k < limit and xl[-1 - k] == yl[k].inverse():
        k += 1
    return ReducedWord(xl[: len(xl) - k] + yl[k:])


def dist(x: ReducedWord, y: ReducedWord) -> int:
    """Word metric d(x, y) = |x^-1 y|."""
    return len(multiply(x.inverse(), y))


def is_initial(x: ReducedWord, y: ReducedWord) -> bool:
    """True iff x lies on the tree geodesic [e, y], i.e. y begins with x."""
    return y.letters[: len(x)] == x.letters


def generators(n: int) -> list[ReducedWord]:
    """All 2n length-one words, in letter order."""
    letters = [Letter(i, s) for i in range(n) for s in (1, -1)]
    letters.sort(key=Letter.sort_key)
    return [ReducedWord([l]) for l in letters]


@lru_cache(maxsize=None)
def _ball(n: int, R: int) -> tuple[ReducedWord, ...]:
    out = [IDENTITY]
    frontier = [IDENTITY]
    letters = [l.letters[0] for l in generators(n)]
    for _ in range(R):
        nxt = []
        for w in frontier:
            for l in letters:
                if w.letters and w.letters[-1] == l.inverse():
                    continue
                nxt.append(ReducedWord(w.letters + (l,)))
        nxt.sort(key=ReducedWord.sort_key)
        out.extend(nxt)
        frontier = nxt
    return tuple(out)


def ball(n: int, R: int) -> list[ReducedWord]:
    """All reduced words of length <= R in shortlex order."""
    check_radius(R)
    if n < 2:
        raise DomainError(f"rank must be >= 2, got {n}")
    return list(_ball(n, R))


def sphere(n: int, R: int) -> list[ReducedWord]:
    """All reduced words of length exactly R, in shortlex order."""
    return [w for w in ball(n, R) if len(w) == R]


def _primitive_root(w: tuple[Letter, ...]) -> tuple[Letter, ...]:
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
        if period.letters[-1] == period.letters[0].inverse():
            raise DomainError(f"period {period} cancels against itself")
        if head.letters and head.letters[-1] == period.letters[0].inverse():
            raise DomainError(f"head {head} cancels against period {period}")
        p = _primitive_root(period.letters)
        h = head.letters
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
        """The first d letters of the stream."""
        letters = list(self.head.letters)
        while len(letters) < d:
            letters.extend(self.period.letters)
        return ReducedWord(letters[:d])

    def first_letter(self) -> Letter:
        return self.prefix(1).letters[0]

    def __str__(self) -> str:
        return f"{'' if not self.head.letters else self.head}({self.period})"


def lies_on_ray(x: ReducedWord, a: BoundaryPoint) -> bool:
    """True iff x is a vertex of the ray [e, a)."""
    return a.prefix(len(x)) == x


def act(gamma: ReducedWord, a: BoundaryPoint) -> BoundaryPoint:
    """Left translation of the boundary point a by gamma."""
    if not gamma.letters:
        return a
    # prepend enough whole periods that cancellation stays inside the head
    copies = len(gamma) // len(a.period) + 1
    extended = ReducedWord(a.head.letters + a.period.letters * copies)
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
