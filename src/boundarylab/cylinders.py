"""Locally constant function calculus on the boundary and its square.

A cylinder function is stored as the coarsest partition of its support
into cylinders of mixed length: a table from each cell word to its
nonzero value.  Construction merges every full sibling group with one
value into its parent, deepest cells first, so the partition is unique
and equality of objects is equality of functions.  The depth is read
from the cells: it is the length of the deepest cell, the least d for
which the function is constant on every cylinder of length d, and it
must lie within the depth cap.  A product or a sum pairs the cells of
its operands that are nested and splits a cell only where a cell of the
other operand lies strictly below it, so its cost follows the cells that
change rather than the sphere of the depth.  `refine(d)` returns the
uniform table at a depth d, and reports render it at the depth.

A two-variable function F = sum_u chi_u (x) g_u is the same partition of
the first slot, with the nonzero one-variable function g_u of the second
slot as the value of cell u, so one cell engine serves both types: the
slices of nested cells are added and multiplied by the memoized
one-variable operations.  Its depths are the longest cell and the
deepest slice.

Translation by a group element maps each cell onto a disjoint union of
image cells, and for both types every image cell takes the value of the
cell it came from.

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
    ReducedWord,
    is_initial,
    multiply,
    next_letters,
    parse_word,
    word_extensions,
)


class CylinderFunction:
    """An exact locally constant function on the boundary of F_n, stored
    as the coarsest partition of its support into cylinders."""

    __slots__ = ("rank", "depth", "table", "_hash")

    def __init__(self, rank: int, table: Mapping[ReducedWord, Scalar]):
        """`table` maps disjoint cylinders to values."""
        self.rank = rank
        self.table, self.depth = _canonical_cells(rank, table)
        self._hash = hash((rank, frozenset(self.table.items())))

    # -- constructors ------------------------------------------------

    @staticmethod
    def constant(rank: int, value: Scalar) -> "CylinderFunction":
        return CylinderFunction(rank, {IDENTITY: value})

    @staticmethod
    def zero(rank: int) -> "CylinderFunction":
        return CylinderFunction(rank, {})

    # -- structure ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CylinderFunction)
            and self.rank == other.rank
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return self._hash

    def is_zero(self) -> bool:
        return not self.table

    def __bool__(self) -> bool:
        return bool(self.table)

    def refine(self, depth: int) -> Mapping[ReducedWord, Scalar]:
        """The nonzero values on the cylinders of length `depth`, at least
        the depth; the table itself when every cell has that length."""
        if depth < self.depth:
            raise DomainError(f"cannot refine depth {self.depth} down to {depth}")
        check_depth(depth)
        if all(len(w) == depth for w in self.table):
            return self.table
        return {
            ext: v
            for w, v in self.table.items()
            for ext in word_extensions(w, depth - len(w), self.rank)
        }

    # -- evaluation --------------------------------------------------

    def at_boundary(self, a: BoundaryPoint) -> Scalar:
        return self.extend(a.prefix(self.depth))

    def extend(self, x: ReducedWord) -> Scalar:
        """Canonical extension to the group: zero inside the ball B_{d-1}."""
        if len(x) < self.depth:
            return ZERO
        v = _cell_at(self.table, x)
        return ZERO if v is None else v

    # -- pointwise algebra -------------------------------------------

    def __add__(self, other: "CylinderFunction") -> "CylinderFunction":
        _common_rank(self, other)
        a, b = (self, other) if self._hash <= other._hash else (other, self)
        return _cached_sum(a, b)

    def __sub__(self, other: "CylinderFunction") -> "CylinderFunction":
        return self + (-other)

    def __neg__(self) -> "CylinderFunction":
        return CylinderFunction(self.rank, {w: -v for w, v in self.table.items()})

    def __mul__(self, other: "CylinderFunction") -> "CylinderFunction":
        _common_rank(self, other)
        if other.table == _ONE_TABLE:
            return self
        if self.table == _ONE_TABLE:
            return other
        a, b = (self, other) if self._hash <= other._hash else (other, self)
        return _cached_product(a, b)

    def scale(self, c: Scalar) -> "CylinderFunction":
        return CylinderFunction(self.rank, {w: c * v for w, v in self.table.items()})

    def star(self) -> "CylinderFunction":
        return CylinderFunction(self.rank, {w: v.conj() for w, v in self.table.items()})

    def __repr__(self) -> str:
        body = ", ".join(f"{w}:{v}" for w, v in _shortlex(self.refine(self.depth)))
        return f"Cyl(n={self.rank}, d={self.depth}, {{{body}}})"


# The table of the constant 1, by which a product returns the other operand.
_ONE_TABLE = {IDENTITY: ONE}


def _common_rank(f, g) -> int:
    if f.rank != g.rank:
        raise DomainError("rank mismatch")
    return f.rank


def _shortlex(table: Mapping[ReducedWord, Scalar]) -> list[tuple[ReducedWord, Scalar]]:
    return sorted(table.items(), key=lambda t: t[0].sort_key())


# -- the cell engine ---------------------------------------------------
#
# A table maps disjoint cylinders to nonzero values.  The values are
# scalars for one-variable functions and second-slot functions for
# two-variable ones; the engine only adds, multiplies and compares them.

Cell = Scalar | CylinderFunction


def _canonical_cells(
    rank: int, table: Mapping[ReducedWord, Cell]
) -> tuple[dict[ReducedWord, Cell], int]:
    """The coarsest partition of the support of a disjoint table, and the
    length of its deepest cell, which must lie within the depth cap."""
    cells = {w: v for w, v in table.items() if v}
    _merge_siblings(rank, cells)
    depth = max([len(w) for w in cells], default=0)
    check_depth(depth)
    return cells, depth


def _merge_siblings(rank: int, cells: dict[ReducedWord, Cell]) -> None:
    """Replace every full sibling group with one value by its parent,
    deepest cells first, so that merged parents can merge again."""
    if len(cells) < 2 * rank - 1:
        return
    levels: dict[int, list[ReducedWord]] = {}
    for w in cells:
        levels.setdefault(len(w), []).append(w)
    for k in range(max(levels), 0, -1):
        groups: dict[tuple[int, ...], list[ReducedWord]] = {}
        for w in levels.get(k, ()):
            groups.setdefault(w[:-1], []).append(w)
        for parent, ws in groups.items():
            if len(ws) != (2 * rank - 1 if parent else 2 * rank):
                continue
            value = cells[ws[0]]
            if any(cells[w] != value for w in ws):
                continue
            for w in ws:
                del cells[w]
            p = ws[0].parent()
            cells[p] = value
            levels.setdefault(k - 1, []).append(p)


def _fill_around(
    rank: int,
    cell: ReducedWord,
    inside: list[ReducedWord],
    value: Cell,
    out: dict[ReducedWord, Cell],
) -> None:
    """Give `value` to the cells that partition the cylinder at `cell`
    outside the disjoint cylinders `inside`, all strictly below it."""
    k = len(cell)
    path = {v[:j] for v in inside for j in range(k, len(v))}
    taken = path.union(inside)
    for p in path:
        for child in word_extensions(p, 1, rank):
            if child not in taken:
                out[child] = value


def _plain_add(
    rank: int, a: Mapping[ReducedWord, Cell], b: Mapping[ReducedWord, Cell]
) -> dict[ReducedWord, Cell]:
    """Cells of both tables, with a cell split only where a cell of the
    other table lies strictly below it."""
    out = dict(b)
    split: dict[ReducedWord, tuple[Cell, list[ReducedWord]]] = {}
    for u, x in a.items():
        k = len(u)
        inside = []
        for v, y in b.items():
            if len(v) > k:
                if v[:k] == u:
                    inside.append(v)
            elif u[: len(v)] == v:
                out[u] = y + x
                if len(v) < k:
                    split.setdefault(v, (y, []))[1].append(u)
                break
        else:
            if inside:
                for v in inside:
                    out[v] = out[v] + x
                split[u] = (x, inside)
            else:
                out[u] = x
    for cell, (value, inside) in split.items():
        out.pop(cell, None)
        _fill_around(rank, cell, inside, value, out)
    return out


def _plain_mul(
    a: Mapping[ReducedWord, Cell], b: Mapping[ReducedWord, Cell]
) -> dict[ReducedWord, Cell]:
    """The deeper cell of every nested pair of cells, one from each table."""
    out = {}
    for u, x in a.items():
        k = len(u)
        for v, y in b.items():
            if len(v) >= k:
                if v[:k] == u:
                    out[v] = x * y
            elif u[: len(v)] == v:
                out[u] = x * y
                break
    return out


def _cell_at(table: Mapping[ReducedWord, Cell], x: ReducedWord) -> Cell | None:
    """The value of the cell containing the words that begin with x."""
    for w, v in table.items():
        if x[: len(w)] == w:
            return v
    return None


@lru_cache(maxsize=None)
def _cached_sum(f: CylinderFunction, g: CylinderFunction) -> CylinderFunction:
    return CylinderFunction(f.rank, _plain_add(f.rank, f.table, g.table))


@lru_cache(maxsize=None)
def _cached_product(f: CylinderFunction, g: CylinderFunction) -> CylinderFunction:
    return CylinderFunction(f.rank, _plain_mul(f.table, g.table))


def chi(rank: int, gamma: ReducedWord) -> CylinderFunction:
    """Indicator of the cylinder of boundary points beginning with gamma."""
    if gamma == IDENTITY:
        raise DomainError("chi is only defined for nontrivial words")
    return CylinderFunction(rank, {gamma: ONE})


@lru_cache(maxsize=None)
def _translate_indicator(gamma: ReducedWord, w: ReducedWord, n: int) -> tuple[ReducedWord, ...]:
    """The disjoint cells whose union is the image of the cylinder at w
    under the shift by gamma.

    Unless gamma swallows all of w, the image is the single cylinder at
    their product.  Otherwise the image is a union of sibling cylinders
    one level up, handled by recursing on the shortened gamma.
    """
    if not len(w):
        return (IDENTITY,)
    prod = multiply(gamma, w)
    cancelled = (len(gamma) + len(w) - len(prod)) // 2
    if cancelled < len(w):
        return (prod,)
    g1 = gamma.prefix(len(gamma) - len(w))
    return tuple(
        cell
        for l in next_letters(n, w[-1])
        for cell in _translate_indicator(g1, ReducedWord((l,)), n)
    )


def _translate_cells(
    gamma: ReducedWord, table: Mapping[ReducedWord, Cell], n: int
) -> dict[ReducedWord, Cell]:
    """Images of disjoint cells are disjoint, so each image cell takes the
    value of the cell it came from."""
    return {w: v for u, v in table.items() for w in _translate_indicator(gamma, u, n)}


@lru_cache(maxsize=None)
def translate(gamma: ReducedWord, f: CylinderFunction) -> CylinderFunction:
    """The function a -> f(gamma^-1 a); the covariant boundary action."""
    if gamma == IDENTITY:
        return f
    return CylinderFunction(f.rank, _translate_cells(gamma, f.table, f.rank))


class BiCylinderFunction:
    """An exact locally constant function on boundary x boundary, stored
    as the coarsest partition of the first slot into cylinders, each cell
    u with its nonzero second-slot function g_u: F = sum_u chi_u (x) g_u."""

    __slots__ = ("rank", "depth1", "depth2", "table", "_hash")

    def __init__(self, rank: int, table: Mapping[ReducedWord, CylinderFunction]):
        """`table` maps disjoint first-slot cylinders to second-slot functions."""
        self.rank = rank
        self.table, self.depth1 = _canonical_cells(rank, table)
        self.depth2 = max([g.depth for g in self.table.values()], default=0)
        self._hash = hash((rank, frozenset(self.table.items())))

    @staticmethod
    def zero(rank: int) -> "BiCylinderFunction":
        return BiCylinderFunction(rank, {})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiCylinderFunction)
            and self.rank == other.rank
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return self._hash

    def is_zero(self) -> bool:
        return not self.table

    def _map(self, op) -> "BiCylinderFunction":
        return BiCylinderFunction(self.rank, {u: op(g) for u, g in self.table.items()})

    def __add__(self, other: "BiCylinderFunction") -> "BiCylinderFunction":
        n = _common_rank(self, other)
        return BiCylinderFunction(n, _plain_add(n, self.table, other.table))

    def __sub__(self, other: "BiCylinderFunction") -> "BiCylinderFunction":
        return self + (-other)

    def __neg__(self) -> "BiCylinderFunction":
        return self._map(lambda g: -g)

    def __mul__(self, other: "BiCylinderFunction") -> "BiCylinderFunction":
        return BiCylinderFunction(_common_rank(self, other), _plain_mul(self.table, other.table))

    def star(self) -> "BiCylinderFunction":
        return self._map(lambda g: g.star())

    def scale(self, c: Scalar) -> "BiCylinderFunction":
        return self._map(lambda g: g.scale(c))

    def flip(self) -> "BiCylinderFunction":
        """(a, b) -> value at (b, a): the sum over cells u and the cells v
        of g_u of the value at v times chi_v (x) chi_u."""
        n = self.rank
        total = BiCylinderFunction.zero(n)
        for u, g in self.table.items():
            cells = {v: CylinderFunction(n, {u: c}) for v, c in g.table.items()}
            total = total + BiCylinderFunction(n, cells)
        return total

    def at_boundary(self, a: BoundaryPoint, b: BoundaryPoint) -> Scalar:
        g = _cell_at(self.table, a.prefix(self.depth1))
        return ZERO if g is None else g.at_boundary(b)

    def second_slice(self, v0: ReducedWord) -> CylinderFunction:
        """The first-slot cylinder function a -> F(a, C_v0), |v0| = depth2."""
        return CylinderFunction(self.rank, {u: g.extend(v0) for u, g in self.table.items()})

    def vanishes_on_diagonal(self) -> bool:
        """True iff the function is supported away from the diagonal.

        The cell u (x) v of a slice meets the diagonal exactly when one of
        u, v is an initial subword of the other.
        """
        for u, g in self.table.items():
            for v in g.table:
                if is_initial(u, v) or is_initial(v, u):
                    return False
        return True

    def uniform_blocks(self) -> dict[tuple[ReducedWord, ReducedWord], Scalar]:
        """The nonzero values on the blocks of lengths (depth1, depth2)."""
        out = {}
        for u, g in self.table.items():
            column = g.refine(self.depth2)
            for ue in word_extensions(u, self.depth1 - len(u), self.rank):
                for v, c in column.items():
                    out[(ue, v)] = c
        return out

    def __repr__(self) -> str:
        blocks = sorted(self.uniform_blocks().items(), key=lambda t: (t[0][0].sort_key(), t[0][1].sort_key()))
        body = ", ".join(f"({u},{v}):{c}" for (u, v), c in blocks)
        return f"BiCyl(n={self.rank}, d=({self.depth1},{self.depth2}), {{{body}}})"


def tensor(f: CylinderFunction, g: CylinderFunction) -> BiCylinderFunction:
    return BiCylinderFunction(_common_rank(f, g), {u: g.scale(c) for u, c in f.table.items()})


@lru_cache(maxsize=None)
def translate_legs(
    F: BiCylinderFunction, gamma: ReducedWord, delta: ReducedWord
) -> BiCylinderFunction:
    """Translate the first slot by gamma and the second by delta: each
    image cell carries the translated slice of the cell it came from."""
    if gamma == IDENTITY and delta == IDENTITY:
        return F
    slices = {u: translate(delta, g) for u, g in F.table.items()}
    return BiCylinderFunction(F.rank, _translate_cells(gamma, slices, F.rank))


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
            j = text.find(")", i)
            if j < 0:
                raise DomainError(f"unclosed chi( in cylinder literal {text!r}")
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
        return chi(rank, parse_word(tok[4:-1], rank)), rest
    if tok.isdigit():
        return CylinderFunction.constant(rank, Scalar.of(int(tok))), rest
    raise DomainError(f"unexpected token {tok!r} in cylinder literal")
