"""Locally constant function calculus on the boundary and its square.

A depth-d cylinder function is stored as a sparse table over the reduced
words of length d (absent entries are zero); construction canonicalizes
to minimal depth, so equality of objects is equality of functions.  The
two-variable version keeps an independent depth per slot.

The canonical extension of a cylinder function to group elements is zero
on the ball below its depth; for two-variable functions the second-slot
extension additionally accepts explicit values inside that ball, which
is how the dual element's preferred extension enters the untwisting
computation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .config import DomainError, check_depth
from .scalars import ONE, ZERO, Scalar
from .words import (
    IDENTITY,
    BoundaryPoint,
    Letter,
    ReducedWord,
    generators,
    is_initial,
    multiply,
    sphere,
)


@lru_cache(maxsize=None)
def _continuations(n: int, last: Letter | None, k: int) -> tuple[tuple[Letter, ...], ...]:
    """All reduced length-k continuations after a word ending in `last`."""
    if k == 0:
        return ((),)
    letters = [g.letters[0] for g in generators(n)]
    out = []
    for l in letters:
        if last is not None and l == last.inverse():
            continue
        for rest in _continuations(n, l, k - 1):
            out.append((l,) + rest)
    return tuple(out)


def word_extensions(w: ReducedWord, k: int, n: int) -> list[ReducedWord]:
    last = w.letters[-1] if w.letters else None
    return [ReducedWord(w.letters + t) for t in _continuations(n, last, k)]


class CylinderFunction:
    """An exact locally constant function on the boundary of F_n."""

    __slots__ = ("rank", "depth", "table", "_hash")

    def __init__(self, rank: int, depth: int, table: Mapping[ReducedWord, Scalar]):
        check_depth(depth)
        tbl = {w: v for w, v in table.items() if v}
        # canonical form: merge sibling groups that are constant
        while depth > 0:
            by_parent: dict[ReducedWord, list[Scalar]] = {}
            for w, v in tbl.items():
                by_parent.setdefault(w.parent(), []).append(v)
            ok = True
            for p, vals in by_parent.items():
                nchildren = 2 * rank if p == IDENTITY else 2 * rank - 1
                if len(vals) != nchildren or any(v != vals[0] for v in vals):
                    ok = False
                    break
            if not ok:
                break
            tbl = {p: vals[0] for p, vals in by_parent.items()}
            depth -= 1
        self.rank = rank
        self.depth = depth
        self.table = tbl
        self._hash = hash((rank, depth, frozenset(tbl.items())))

    # -- constructors ------------------------------------------------

    @staticmethod
    def constant(rank: int, value: Scalar) -> "CylinderFunction":
        return CylinderFunction(rank, 0, {IDENTITY: value})

    @staticmethod
    def zero(rank: int) -> "CylinderFunction":
        return CylinderFunction(rank, 0, {})

    @staticmethod
    def indicator(rank: int, u: ReducedWord) -> "CylinderFunction":
        return CylinderFunction(rank, len(u), {u: ONE})

    # -- structure ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CylinderFunction)
            and self.rank == other.rank
            and self.depth == other.depth
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return self._hash

    def is_zero(self) -> bool:
        return not self.table

    def refine(self, depth: int) -> "CylinderFunction":
        """The same function represented at a larger depth (non-canonical table)."""
        if depth < self.depth:
            raise DomainError(f"cannot refine depth {self.depth} down to {depth}")
        check_depth(depth)
        return self._refined_table(depth)

    def _refined_table(self, depth: int) -> "CylinderFunction":
        if depth == self.depth:
            return self
        tbl = {}
        for w, v in self.table.items():
            for ext in word_extensions(w, depth - self.depth, self.rank):
                tbl[ext] = v
        out = CylinderFunction.__new__(CylinderFunction)
        out.rank, out.depth, out.table = self.rank, depth, tbl
        out._hash = None  # non-canonical scratch value; never compared
        return out

    # -- evaluation --------------------------------------------------

    def at_boundary(self, a: BoundaryPoint) -> Scalar:
        return self.table.get(a.prefix(self.depth), ZERO)

    def extend(self, x: ReducedWord) -> Scalar:
        """Canonical extension to the group: zero inside the ball B_{d-1}."""
        if len(x) < self.depth:
            return ZERO
        return self.table.get(x.prefix(self.depth), ZERO)

    # -- pointwise algebra -------------------------------------------

    def _common(self, other: "CylinderFunction") -> tuple["CylinderFunction", "CylinderFunction"]:
        if self.rank != other.rank:
            raise DomainError("rank mismatch")
        d = max(self.depth, other.depth)
        return self._refined_table(d), other._refined_table(d)

    def __add__(self, other: "CylinderFunction") -> "CylinderFunction":
        if self._hash is not None and other._hash is not None:
            a, b = (self, other) if self._hash <= other._hash else (other, self)
            return _cached_sum(a, b)
        return self._plain_add(other)

    def _plain_add(self, other: "CylinderFunction") -> "CylinderFunction":
        f, g = self._common(other)
        tbl = dict(f.table)
        for w, v in g.table.items():
            tbl[w] = tbl.get(w, ZERO) + v
        return CylinderFunction(self.rank, f.depth, tbl)

    def __sub__(self, other: "CylinderFunction") -> "CylinderFunction":
        return self + (-other)

    def __neg__(self) -> "CylinderFunction":
        return CylinderFunction(self.rank, self.depth, {w: -v for w, v in self.table.items()})

    def __mul__(self, other: "CylinderFunction") -> "CylinderFunction":
        if self.rank != other.rank:
            raise DomainError("rank mismatch")
        if self._hash is not None and other._hash is not None:
            a, b = (self, other) if self._hash <= other._hash else (other, self)
            return _cached_product(a, b)
        return self._plain_mul(other)

    def _plain_mul(self, other: "CylinderFunction") -> "CylinderFunction":
        lo, hi = (self, other) if self.depth <= other.depth else (other, self)
        tbl = {}
        for w, v in hi.table.items():
            u = lo.table.get(w.prefix(lo.depth))
            if u is not None:
                tbl[w] = v * u
        return CylinderFunction(self.rank, hi.depth, tbl)

    def scale(self, c: Scalar) -> "CylinderFunction":
        return CylinderFunction(self.rank, self.depth, {w: c * v for w, v in self.table.items()})

    def star(self) -> "CylinderFunction":
        return CylinderFunction(self.rank, self.depth, {w: v.conj() for w, v in self.table.items()})

    def __repr__(self) -> str:
        body = ", ".join(f"{w}:{v}" for w, v in sorted(self.table.items(), key=lambda t: t[0].sort_key()))
        return f"Cyl(n={self.rank}, d={self.depth}, {{{body}}})"

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "values": {
                str(w): [str(v.re), str(v.im)]
                for w, v in sorted(self.table.items(), key=lambda t: t[0].sort_key())
            },
        }


@lru_cache(maxsize=None)
def _cached_sum(f: CylinderFunction, g: CylinderFunction) -> CylinderFunction:
    return f._plain_add(g)


@lru_cache(maxsize=None)
def _cached_product(f: CylinderFunction, g: CylinderFunction) -> CylinderFunction:
    return f._plain_mul(g)


def chi(rank: int, gamma: ReducedWord) -> CylinderFunction:
    """Indicator of the cylinder of boundary points beginning with gamma."""
    if gamma == IDENTITY:
        raise DomainError("chi is only defined for nontrivial words")
    return CylinderFunction.indicator(rank, gamma)


def chi_tilde(gamma: ReducedWord, x: ReducedWord) -> Scalar:
    """Indicator, on the group, of the words beginning with gamma."""
    return ONE if is_initial(gamma, x) else ZERO


@lru_cache(maxsize=None)
def _translate_indicator(gamma: ReducedWord, w: ReducedWord, n: int) -> CylinderFunction:
    """Image of the cylinder at w under the shift by gamma, as a function.

    Unless gamma swallows all of w, the image is the single cylinder at
    their product.  Otherwise the image is a union of sibling cylinders
    one level up, handled by recursing on the shortened gamma.
    """
    if not len(w):
        return CylinderFunction.constant(n, ONE)
    prod = multiply(gamma, w)
    cancelled = (len(gamma) + len(w) - len(prod)) // 2
    if cancelled < len(w):
        return CylinderFunction.indicator(n, prod)
    g1 = gamma.prefix(len(gamma) - len(w))
    blocked = w.letters[-1].inverse()
    total = CylinderFunction.zero(n)
    for step in sphere(n, 1):
        if step.letters[0] == blocked:
            continue
        total = total + _translate_indicator(g1, step, n)
    return total


@lru_cache(maxsize=None)
def translate(gamma: ReducedWord, f: CylinderFunction) -> CylinderFunction:
    """The function a -> f(gamma^-1 a); the covariant boundary action."""
    if gamma == IDENTITY:
        return f
    total = CylinderFunction.zero(f.rank)
    for w, c in f.table.items():
        total = total + _translate_indicator(gamma, w, f.rank).scale(c)
    return total


class BiCylinderFunction:
    """An exact locally constant function on boundary x boundary."""

    __slots__ = ("rank", "depth1", "depth2", "table", "_hash")

    def __init__(
        self,
        rank: int,
        depth1: int,
        depth2: int,
        table: Mapping[tuple[ReducedWord, ReducedWord], Scalar],
    ):
        check_depth(depth1)
        check_depth(depth2)
        tbl = {k: v for k, v in table.items() if v}
        changed = True
        while changed:
            changed = False
            if depth1 > 0:
                merged = _merge_slot(rank, tbl, slot=0)
                if merged is not None:
                    tbl, depth1 = merged, depth1 - 1
                    changed = True
            if depth2 > 0:
                merged = _merge_slot(rank, tbl, slot=1)
                if merged is not None:
                    tbl, depth2 = merged, depth2 - 1
                    changed = True
        self.rank = rank
        self.depth1 = depth1
        self.depth2 = depth2
        self.table = tbl
        self._hash = hash((rank, depth1, depth2, frozenset(tbl.items())))

    @staticmethod
    def zero(rank: int) -> "BiCylinderFunction":
        return BiCylinderFunction(rank, 0, 0, {})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiCylinderFunction)
            and (self.rank, self.depth1, self.depth2) == (other.rank, other.depth1, other.depth2)
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return self._hash

    def is_zero(self) -> bool:
        return not self.table

    def _refined(self, d1: int, d2: int) -> "BiCylinderFunction":
        if (d1, d2) == (self.depth1, self.depth2):
            return self
        tbl = {}
        for (u, v), c in self.table.items():
            for ue in word_extensions(u, d1 - self.depth1, self.rank):
                for ve in word_extensions(v, d2 - self.depth2, self.rank):
                    tbl[(ue, ve)] = c
        out = BiCylinderFunction.__new__(BiCylinderFunction)
        out.rank, out.depth1, out.depth2, out.table = self.rank, d1, d2, tbl
        out._hash = None
        return out

    def _common(self, other: "BiCylinderFunction"):
        if self.rank != other.rank:
            raise DomainError("rank mismatch")
        d1 = max(self.depth1, other.depth1)
        d2 = max(self.depth2, other.depth2)
        return self._refined(d1, d2), other._refined(d1, d2)

    def __add__(self, other: "BiCylinderFunction") -> "BiCylinderFunction":
        f, g = self._common(other)
        tbl = dict(f.table)
        for k, v in g.table.items():
            tbl[k] = tbl.get(k, ZERO) + v
        return BiCylinderFunction(self.rank, f.depth1, f.depth2, tbl)

    def __sub__(self, other: "BiCylinderFunction") -> "BiCylinderFunction":
        return self + (-other)

    def __neg__(self) -> "BiCylinderFunction":
        return BiCylinderFunction(
            self.rank, self.depth1, self.depth2, {k: -v for k, v in self.table.items()}
        )

    def __mul__(self, other: "BiCylinderFunction") -> "BiCylinderFunction":
        f, g = self._common(other)
        small, big = (f, g) if len(f.table) <= len(g.table) else (g, f)
        tbl = {}
        for k, v in small.table.items():
            u = big.table.get(k)
            if u is not None:
                tbl[k] = v * u
        return BiCylinderFunction(self.rank, f.depth1, f.depth2, tbl)

    def star(self) -> "BiCylinderFunction":
        return BiCylinderFunction(
            self.rank, self.depth1, self.depth2, {k: v.conj() for k, v in self.table.items()}
        )

    def scale(self, c: Scalar) -> "BiCylinderFunction":
        return BiCylinderFunction(
            self.rank, self.depth1, self.depth2, {k: c * v for k, v in self.table.items()}
        )

    def flip(self) -> "BiCylinderFunction":
        """(a, b) -> value at (b, a)."""
        return BiCylinderFunction(
            self.rank, self.depth2, self.depth1, {(v, u): c for (u, v), c in self.table.items()}
        )

    def at_boundary(self, a: BoundaryPoint, b: BoundaryPoint) -> Scalar:
        return self.table.get((a.prefix(self.depth1), b.prefix(self.depth2)), ZERO)

    def second_slice(self, v0: ReducedWord) -> CylinderFunction:
        """The first-slot cylinder function a -> F(a, C_v0), |v0| = depth2."""
        tbl = {u: c for (u, v), c in self.table.items() if v == v0}
        return CylinderFunction(self.rank, self.depth1, tbl)

    def vanishes_on_diagonal(self) -> bool:
        """True iff the function is supported away from the diagonal.

        A nonzero block (u, v) meets the diagonal neighborhood exactly
        when one of u, v is an initial subword of the other.
        """
        for (u, v), c in self.table.items():
            if is_initial(u, v) or is_initial(v, u):
                return False
        return True

    def __repr__(self) -> str:
        body = ", ".join(
            f"({u},{v}):{c}"
            for (u, v), c in sorted(self.table.items(), key=lambda t: (t[0][0].sort_key(), t[0][1].sort_key()))
        )
        return f"BiCyl(n={self.rank}, d=({self.depth1},{self.depth2}), {{{body}}})"


def tensor(f: CylinderFunction, g: CylinderFunction) -> BiCylinderFunction:
    if f.rank != g.rank:
        raise DomainError("rank mismatch")
    tbl = {}
    for u, c in f.table.items():
        for v, d in g.table.items():
            tbl[(u, v)] = c * d
    return BiCylinderFunction(f.rank, f.depth, g.depth, tbl)


def _merge_slot(rank, tbl, slot):
    """One canonicalization step in the given slot, or None if not constant."""
    groups: dict[tuple, list[Scalar]] = {}
    for (u, v), c in tbl.items():
        w = (u, v)[slot]
        if len(w) == 0:
            return None
        key = (w.parent(), (u, v)[1 - slot])
        groups.setdefault(key, []).append(c)
    for (p, _), vals in groups.items():
        nchildren = 2 * rank if p == IDENTITY else 2 * rank - 1
        if len(vals) != nchildren or any(v != vals[0] for v in vals):
            return None
    if slot == 0:
        return {(p, o): vals[0] for (p, o), vals in groups.items()}
    return {(o, p): vals[0] for (p, o), vals in groups.items()}


@lru_cache(maxsize=None)
def translate_legs(
    F: BiCylinderFunction, gamma: ReducedWord, delta: ReducedWord
) -> BiCylinderFunction:
    """Translate the first slot by gamma and the second by delta."""
    if gamma == IDENTITY and delta == IDENTITY:
        return F
    n = F.rank
    d1 = F.depth1 + len(gamma)
    d2 = F.depth2 + len(delta)
    tbl: dict[tuple[ReducedWord, ReducedWord], Scalar] = {}
    for (u, v), c in F.table.items():
        fu = translate(gamma, CylinderFunction.indicator(n, u)) if len(u) else CylinderFunction.constant(n, ONE)
        fv = translate(delta, CylinderFunction.indicator(n, v)) if len(v) else CylinderFunction.constant(n, ONE)
        fu = fu._refined_table(d1)
        fv = fv._refined_table(d2)
        for ue, cu in fu.table.items():
            for ve, cv in fv.table.items():
                k = (ue, ve)
                val = tbl.get(k, ZERO) + c * cu * cv
                if val:
                    tbl[k] = val
                elif k in tbl:
                    del tbl[k]
    return BiCylinderFunction(n, d1, d2, tbl)


def translate_diag(gamma: ReducedWord, F: BiCylinderFunction) -> BiCylinderFunction:
    """The diagonal boundary action (a, b) -> value at (g^-1 a, g^-1 b)."""
    return translate_legs(F, gamma, gamma)


def f_prime_value(
    F: BiCylinderFunction,
    x: ReducedWord,
    inner: Mapping[ReducedWord, CylinderFunction] | None = None,
) -> CylinderFunction:
    """The first-slot cylinder function F~'( . , x) = F~(x^-1 . , x^-1).

    The second slot is extended to group elements by the canonical
    policy (value of the depth-d2 block when |x^-1| >= d2, zero inside
    the ball); `inner` optionally overrides the inside-ball values with
    explicit first-slot functions, keyed by the short word.
    """
    z = x.inverse()
    if len(z) >= F.depth2:
        g0 = F.second_slice(z.prefix(F.depth2))
    elif inner is not None:
        g0 = inner.get(z, CylinderFunction.zero(F.rank))
    else:
        g0 = CylinderFunction.zero(F.rank)
    return translate(x, g0)


def extend_second(
    F: BiCylinderFunction,
    inner: Mapping[ReducedWord, CylinderFunction] | None = None,
):
    """Second-slot extension of F, returned as the map x -> F~'( . , x)."""
    if not F.vanishes_on_diagonal():
        raise DomainError("not compactly supported off the diagonal")

    def value(x: ReducedWord) -> CylinderFunction:
        return f_prime_value(F, x, inner)

    return value


# -- tiny literal parser for the CLI / tests -------------------------

def parse_cylinder(text: str, rank: int) -> CylinderFunction:
    """Parse literals like "chi(a)", "1 - chi(ab)", "chi(a)*chi(ab)"."""
    tokens = _tokenize(text)
    expr, rest = _parse_sum(tokens, rank)
    if rest:
        raise DomainError(f"trailing input in cylinder literal: {rest}")
    return expr


def _tokenize(text: str) -> list[str]:
    out, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*":
            out.append(ch)
            i += 1
        elif text.startswith("chi(", i):
            j = text.index(")", i)
            out.append(text[i : j + 1])
            i = j + 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise DomainError(f"bad character {ch!r} in cylinder literal")
    return out


def _parse_sum(tokens, rank):
    sign = 1
    if tokens and tokens[0] in "+-":
        sign = -1 if tokens[0] == "-" else 1
        tokens = tokens[1:]
    acc, tokens = _parse_product(tokens, rank)
    if sign < 0:
        acc = -acc
    while tokens and tokens[0] in "+-":
        op, tokens = tokens[0], tokens[1:]
        term, tokens = _parse_product(tokens, rank)
        acc = acc + term if op == "+" else acc - term
    return acc, tokens


def _parse_product(tokens, rank):
    acc, tokens = _parse_atom(tokens, rank)
    while tokens and tokens[0] == "*":
        term, tokens = _parse_atom(tokens[1:], rank)
        acc = acc * term
    return acc, tokens


def _parse_atom(tokens, rank):
    if not tokens:
        raise DomainError("truncated cylinder literal")
    tok, rest = tokens[0], tokens[1:]
    if tok.startswith("chi("):
        return chi(rank, ReducedWord.parse(tok[4:-1])), rest
    if tok.isdigit():
        return CylinderFunction.constant(rank, Scalar.of(int(tok))), rest
    raise DomainError(f"unexpected token {tok!r} in cylinder literal")
