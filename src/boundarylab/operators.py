"""Exact truncated operators on the span of a ball in the Cayley tree.

Operators are sparse matrices with exact scalar entries over declared
ordered bases of reduced words: vertices, or edges, each of which the
tree module labels by its endpoint farther from the origin.  Truncation
edge effects are handled by certifying statements only on an interior
sub-ball that no propagation path can leave; on that interior,
small-radius assertions are exact theorems about the full
infinite-dimensional operators, not approximations.

A concrete operator is a column rule (basis label to a short list of
(row, value) pairs) applied by `on_columns`, or, for `jv.op_b`, its
entries handed to `TruncatedOperator` directly; the only other way to
make an operator is arithmetic on operators (`+`, `scale`, `@`, `adjoint`).
`on_columns`, `jv.op_b`, `scale` and `adjoint` hand their entries over as
a stream of ((row, col), value) pairs, which `TruncatedOperator` stores
as it reads them, so no entry is held twice.

A declared basis is a `Basis`: the ordered labels and their label set,
built once.  Operators share their declared bases: one made by
arithmetic takes the bases of its operands, and a column rule whose rows
are declared on its own columns uses one basis for both.  Every
operator still checks each entry against its declared bases.

Ranks are exact Gaussian elimination over Q(i), reading one sparse row
at a time.  Most rows of the tree operators have one entry, and a pivot
row with one entry is kept as its lead column alone, so the rank holds
no input row; a row is grouped from the entries only when it has
several.  The index reads the interior rows of T, not the rows of its
adjoint: those are the conjugated interior rows of T, and conjugation is
a field automorphism of Q(i), so it leaves every rank unchanged.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import lru_cache
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .config import DomainError, ResourceLimitError
from .cylinders import CylinderFunction
from .scalars import MINUS_ONE, ONE, ZERO, Scalar
from .words import ReducedWord, ball, multiply

Label = ReducedWord
Column = Callable[[Label], Iterable[tuple[Label, Scalar]]]
Entry = tuple[tuple[Label, Label], Scalar]

# Distance of a basis label from the basepoint: a vertex's word length,
# or an edge's, which is the length of its far endpoint.
label_norm = len


class Basis(tuple):
    """Ordered basis labels and their label set, shared by every operator
    declared on them; a Basis passed where labels are expected is reused."""

    def __new__(cls, labels: Iterable[Label] = ()):
        if type(labels) is cls:
            return labels
        basis = super().__new__(cls, labels)
        basis.labels = frozenset(basis)
        return basis


class TruncatedOperator:
    """A sparse exact matrix between spans of declared basis labels.

    The entries are a mapping or a stream of ((row, col), value) pairs,
    as `dict()` takes them, and each is checked against the declared
    bases as it is read.  A key named twice ends with its last value, and
    a last value of zero means no entry.
    """

    __slots__ = ("domain", "codomain", "entries", "radius", "propagation")

    def __init__(
        self,
        domain: Iterable[Label],
        codomain: Iterable[Label],
        entries: Mapping[tuple[Label, Label], Scalar] | Iterable[Entry],
        radius: int,
        propagation: int | None = None,
    ):
        self.domain = Basis(domain)
        self.codomain = Basis(codomain)
        dom, cod = self.domain.labels, self.codomain.labels
        self.entries = stored = {}
        for key, v in entries.items() if isinstance(entries, Mapping) else entries:
            if not v:
                stored.pop(key, None)
                continue
            row, col = key
            if row not in cod or col not in dom:
                raise DomainError(f"entry at ({row}, {col}) outside declared bases")
            stored[key] = v
        self.radius = radius
        self.propagation = propagation

    # -- structure ---------------------------------------------------

    def entry(self, row: Label, col: Label) -> Scalar:
        return self.entries.get((row, col), ZERO)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedOperator)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.entries == other.entries
        )

    def __add__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        self._check_same_shape(other)
        entries = dict(self.entries)
        for k, v in other.entries.items():
            entries[k] = entries.get(k, ZERO) + v
        return TruncatedOperator(
            self.domain, self.codomain, entries, self.radius,
            _max_or_none(self.propagation, other.propagation),
        )

    def __sub__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return self + other.scale(MINUS_ONE)

    def scale(self, c: Scalar) -> "TruncatedOperator":
        return TruncatedOperator(
            self.domain, self.codomain,
            ((k, c * v) for k, v in self.entries.items()),
            self.radius, self.propagation,
        )

    def __matmul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        if other.codomain != self.domain:
            raise DomainError("basis mismatch in operator composition")
        by_col: dict[Label, list[tuple[Label, Scalar]]] = {}
        for (mid, col), v in other.entries.items():
            by_col.setdefault(col, []).append((mid, v))
        by_mid: dict[Label, list[tuple[Label, Scalar]]] = {}
        for (row, mid), v in self.entries.items():
            by_mid.setdefault(mid, []).append((row, v))
        entries: dict[tuple[Label, Label], Scalar] = {}
        for col, mids in by_col.items():
            for mid, v in mids:
                for row, u in by_mid.get(mid, ()):
                    k = (row, col)
                    acc = entries.get(k, ZERO) + u * v
                    if acc:
                        entries[k] = acc
                    elif k in entries:
                        del entries[k]
        prop = None
        if self.propagation is not None and other.propagation is not None:
            prop = self.propagation + other.propagation
        return TruncatedOperator(other.domain, self.codomain, entries, self.radius, prop)

    def adjoint(self) -> "TruncatedOperator":
        return TruncatedOperator(
            self.codomain, self.domain,
            (((col, row), v.conj()) for (row, col), v in self.entries.items()),
            self.radius, self.propagation,
        )

    def _check_same_shape(self, other: "TruncatedOperator") -> None:
        if self.domain != other.domain or self.codomain != other.codomain:
            raise DomainError("basis mismatch")

    def __repr__(self) -> str:
        return (
            f"TruncatedOperator({len(self.codomain)}x{len(self.domain)}, "
            f"{len(self.entries)} entries, R={self.radius})"
        )

    @staticmethod
    def identity(basis: Iterable[Label], radius: int) -> "TruncatedOperator":
        basis = Basis(basis)
        return on_columns(basis, lambda x: ((x, ONE),), radius, 0, basis)


def _max_or_none(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return max(a, b)


def on_columns(
    columns: Sequence[Label],
    column: Column,
    R: int,
    propagation: int | None,
    codomain: Iterable[Label] | None = None,
) -> TruncatedOperator:
    """The operator whose column at each label is given by the rule,
    truncated to rows of norm at most R.  With a codomain the entries
    stream into the operator as the rule yields them.  Without one it is
    declared on exactly the rows its columns reach, in first-reached
    order, so the entries are collected first to find those rows.
    """
    columns = Basis(columns)
    entries = (
        ((row, c), v) for c in columns for row, v in column(c) if label_norm(row) <= R
    )
    if codomain is None:
        entries = dict(entries)
        codomain = dict.fromkeys(row for row, _ in entries)
    return TruncatedOperator(columns, codomain, entries, R, propagation)


# -- concrete operators ----------------------------------------------

def left_column(gamma: ReducedWord) -> Column:
    """Left translation by gamma: e_x -> e_{gamma x}."""
    return lambda x: ((multiply(gamma, x), ONE),)


@lru_cache(maxsize=None)
def op_mult(f: CylinderFunction, R: int) -> TruncatedOperator:
    """Multiplication by the canonical group extension of f, on the ball."""
    basis = Basis(ball(f.rank, R))
    return on_columns(basis, lambda x: ((x, f.extend(x)),), R, 0, basis)


@lru_cache(maxsize=None)
def op_mult_inverted(f: CylinderFunction, R: int) -> TruncatedOperator:
    """Multiplication by the extension of f composed with group inversion."""
    basis = Basis(ball(f.rank, R))
    return on_columns(basis, lambda x: ((x, f.extend(x.inverse())),), R, 0, basis)


@lru_cache(maxsize=None)
def op_left(n: int, gamma: ReducedWord, R: int) -> TruncatedOperator:
    """Left translation e_x -> e_{gamma x}, truncated to the ball."""
    basis = Basis(ball(n, R))
    return on_columns(basis, left_column(gamma), R, len(gamma), basis)


@lru_cache(maxsize=None)
def op_right(n: int, gamma: ReducedWord, R: int) -> TruncatedOperator:
    """Right translation e_x -> e_{x gamma^-1}, truncated to the ball."""
    basis = Basis(ball(n, R))
    ginv = gamma.inverse()
    return on_columns(basis, lambda x: ((multiply(x, ginv), ONE),), R, len(gamma), basis)


@lru_cache(maxsize=None)
def op_inversion(n: int, R: int) -> TruncatedOperator:
    """The self-adjoint involution e_x -> e_{x^-1} (a ball permutation)."""
    basis = Basis(ball(n, R))
    return on_columns(basis, lambda x: ((x.inverse(), ONE),), R, None, basis)


def commutator(T: TruncatedOperator, S: TruncatedOperator) -> TruncatedOperator:
    if T.domain != S.domain or T.codomain != S.codomain or T.domain != T.codomain:
        raise DomainError("commutator needs matching square bases")
    return T @ S - S @ T


# -- exact rank / kernel machinery -----------------------------------

def exact_rank(rows: Iterable[Mapping[Label, Scalar]]) -> int:
    """Rank of a sparse exact matrix given as an iterable of sparse rows.

    Each row is read once and reduced against the pivots found so far.
    A pivot row with one entry is kept as its lead column alone, in a set
    of unit leads: eliminating a later row against it deletes that row's
    entry in the column, which is what subtracting the pivot does.  A
    wider pivot is a reduced copy led by its earliest column in
    first-seen order.  So no input row is held after it is read.
    """
    units: set[Label] = set()
    pivots: dict[Label, dict[Label, Scalar]] = {}
    order: dict[Label, int] = {}

    def colkey(c):
        return order.setdefault(c, len(order))

    rank = 0
    for raw in rows:
        if len(raw) == 1:
            (lead, v), = raw.items()
            if lead not in pivots:
                if v and lead not in units:
                    units.add(lead)
                    rank += 1
                continue
        row = {c: v for c, v in raw.items() if v and c not in units}
        while row:
            lead = next(iter(row)) if len(row) == 1 else min(row, key=colkey)
            if lead in units:
                del row[lead]
            elif lead in pivots:
                piv = pivots[lead]
                factor = row[lead] / piv[lead]
                for c, v in piv.items():
                    acc = row.get(c, ZERO) - factor * v
                    if acc:
                        row[c] = acc
                    elif c in row:
                        del row[c]
            else:
                if len(row) == 1:
                    units.add(lead)
                else:
                    pivots[lead] = row
                rank += 1
                break
    return rank


def _rows(
    T: TruncatedOperator, keys: Iterable[tuple[Label, Label]]
) -> Iterator[dict[Label, Scalar]]:
    """The sparse rows of T over the given entry keys, which it reads twice.

    It counts each row's entries first, then yields a one-entry row as
    it reaches it and a wider row once its last entry is read; only the
    wider rows are ever grouped.
    """
    size = Counter(map(itemgetter(0), keys))
    wide: dict[Label, dict[Label, Scalar]] = {}
    for key in keys:
        row, col = key
        if size[row] == 1:
            yield {col: T.entries[key]}
        else:
            group = wide.setdefault(row, {})
            group[col] = T.entries[key]
            if len(group) == size[row]:
                yield wide.pop(row)


def operator_rank(T: TruncatedOperator) -> int:
    return exact_rank(_rows(T, T.entries))


def kernel_dimension(T: TruncatedOperator, cols: set[Label]) -> int:
    """Dimension of the null space of T restricted to the given columns."""
    return len(cols) - exact_rank(_rows(T, [k for k in T.entries if k[1] in cols]))


def exact_index(T: TruncatedOperator, interior_radius: int) -> int:
    """dim ker T - dim ker T* over vectors supported in the interior ball.

    Needs a declared propagation bound so that interior columns of the
    truncation agree with columns of the untruncated operator.  The
    interior columns of T* are the conjugated interior rows of T, and
    conjugation is a field automorphism of Q(i), so their rank is the
    rank of T's interior rows: T* is never built and nothing conjugated.
    The two sides are ranked one at a time, the interior labels counted.
    """
    if T.propagation is None:
        raise DomainError("operator has no declared propagation bound")
    if interior_radius + T.propagation > T.radius:
        raise DomainError(
            f"interior radius {interior_radius} + propagation {T.propagation} "
            f"exceeds truncation radius {T.radius}; a basis vector may escape"
        )
    r = interior_radius
    row_rank = exact_rank(_rows(T, [k for k in T.entries if label_norm(k[0]) <= r]))
    col_rank = exact_rank(_rows(T, [k for k in T.entries if label_norm(k[1]) <= r]))
    kernel = sum(1 for x in T.domain if label_norm(x) <= r) - col_rank
    adjoint_kernel = sum(1 for x in T.codomain if label_norm(x) <= r) - row_rank
    return kernel - adjoint_kernel


# -- certificates ----------------------------------------------------

@dataclass(frozen=True)
class SupportCertificate:
    description: str
    support_radius: int
    rank: int
    interior_radius: int
    exact: bool = True
    bound: int | None = None  # stated support bound, if any; not reported

    @property
    def within_bound(self) -> bool:
        return self.bound is None or self.support_radius <= self.bound

    def to_json_dict(self) -> dict:
        return {
            "description": self.description,
            "support_radius": self.support_radius,
            "rank": self.rank,
            "interior_radius": self.interior_radius,
            "exact": self.exact,
        }


def support_certificate(
    T: TruncatedOperator,
    interior_radius: int,
    description: str = "",
    bound: int | None = None,
) -> SupportCertificate:
    """Exact support radius and rank of T over the certified interior."""
    r = interior_radius
    certified = [k for k in T.entries if label_norm(k[0]) <= r and label_norm(k[1]) <= r]
    radius = max((max(label_norm(row), label_norm(col)) for row, col in certified), default=0)
    return SupportCertificate(
        description or repr(T), radius, exact_rank(_rows(T, certified)), interior_radius,
        bound=bound,
    )


@lru_cache(maxsize=None)
def lambda_monomial(f: CylinderFunction, gamma: ReducedWord, R: int) -> TruncatedOperator:
    """The left covariant-pair image of the monomial f u_gamma."""
    return op_mult(f, R) @ op_left(f.rank, gamma, R)


@lru_cache(maxsize=None)
def rho_monomial(g: CylinderFunction, delta: ReducedWord, R: int) -> TruncatedOperator:
    """The right covariant-pair image: inversion-twisted multiplication
    composed with right translation."""
    return op_mult_inverted(g, R) @ op_right(g.rank, delta, R)


def lambda_rho_commute_check(
    f: CylinderFunction,
    gamma: ReducedWord,
    g: CylinderFunction,
    delta: ReducedWord,
    R: int,
) -> SupportCertificate:
    """Certify that the left and right monomials commute up to finite
    support; the certificate carries the support bound it must meet."""
    if f.depth + len(gamma) > R - 2 or g.depth + len(delta) > R - 2:
        raise ResourceLimitError(
            f"radius {R} too small for monomials of depth+length "
            f"{f.depth + len(gamma)} and {g.depth + len(delta)}"
        )
    lam = lambda_monomial(f, gamma, R)
    rho = rho_monomial(g, delta, R)
    com = commutator(lam, rho)
    interior = R - (len(gamma) + len(delta))
    return support_certificate(
        com, interior,
        f"[lambda({gamma}-monomial), rho({delta}-monomial)] at R={R}",
        bound=f.depth + g.depth + len(gamma) + len(delta),
    )


def conjugation_symmetry_check(
    f: CylinderFunction,
    gamma: ReducedWord,
    g: CylinderFunction,
    delta: ReducedWord,
    R: int,
) -> bool:
    """I (lambda(x) rho(y)) I equals rho(x) lambda(y), exactly on the ball."""
    n = f.rank
    I = op_inversion(n, R)
    lhs = I @ (lambda_monomial(f, gamma, R) @ rho_monomial(g, delta, R)) @ I
    rhs = rho_monomial(f, gamma, R) @ lambda_monomial(g, delta, R)
    return lhs == rhs
