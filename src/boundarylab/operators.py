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

A declared basis is a `Basis`: the ordered labels and their label set,
built once.  Operators share their declared bases: one made by
arithmetic takes the bases of its operands, and a column rule whose rows
are declared on its own columns uses one basis for both.  Every
operator still checks each entry against its declared bases.
"""

from __future__ import annotations

from functools import lru_cache
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .config import DomainError, ResourceLimitError
from .cylinders import CylinderFunction
from .scalars import MINUS_ONE, ONE, ZERO, Scalar
from .words import ReducedWord, ball, multiply

Label = ReducedWord
Column = Callable[[Label], Iterable[tuple[Label, Scalar]]]

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
    """A sparse exact matrix between spans of declared basis labels."""

    __slots__ = ("domain", "codomain", "entries", "radius", "propagation")

    def __init__(
        self,
        domain: Iterable[Label],
        codomain: Iterable[Label],
        entries: Mapping[tuple[Label, Label], Scalar],
        radius: int,
        propagation: int | None = None,
    ):
        self.domain = Basis(domain)
        self.codomain = Basis(codomain)
        dom, cod = self.domain.labels, self.codomain.labels
        self.entries = {}
        for (row, col), v in entries.items():
            if not v:
                continue
            if row not in cod or col not in dom:
                raise DomainError(f"entry at ({row}, {col}) outside declared bases")
            self.entries[(row, col)] = v
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
            {k: c * v for k, v in self.entries.items()},
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
            {(col, row): v.conj() for (row, col), v in self.entries.items()},
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
    truncated to rows of norm at most R.  Without a codomain it is
    declared on exactly the rows its columns reach, in first-reached order.
    """
    columns = Basis(columns)
    entries = {}
    for c in columns:
        for row, v in column(c):
            if label_norm(row) <= R:
                entries[(row, c)] = v
    if codomain is None:
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
    """Rank of a sparse exact matrix given as an iterable of sparse rows."""
    pivots: dict[Label, dict[Label, Scalar]] = {}
    order: dict[Label, int] = {}

    def colkey(c):
        return order.setdefault(c, len(order))

    rank = 0
    for raw in rows:
        if len(raw) == 1 and next(iter(raw)) not in pivots and all(raw.values()):
            pivots[next(iter(raw))] = raw  # its own pivot, uncopied: pivots are only read
            rank += 1
            continue
        row = {c: v for c, v in raw.items() if v}
        while row:
            lead = next(iter(row)) if len(row) == 1 else min(row, key=colkey)
            if lead in pivots:
                piv = pivots[lead]
                factor = row[lead] / piv[lead]
                for c, v in piv.items():
                    acc = row.get(c, ZERO) - factor * v
                    if acc:
                        row[c] = acc
                    elif c in row:
                        del row[c]
            else:
                pivots[lead] = row
                rank += 1
                break
    return rank


def _rows(triples: Iterable[tuple[Label, Label, Scalar]]) -> list[dict[Label, Scalar]]:
    """Sparse rows from (row, column, value) triples, in first-seen row order."""
    rows: dict[Label, dict[Label, Scalar]] = {}
    for row, col, v in triples:
        rows.setdefault(row, {})[col] = v
    return list(rows.values())


def operator_rank(T: TruncatedOperator) -> int:
    return exact_rank(_rows((row, col, v) for (row, col), v in T.entries.items()))


def kernel_dimension(T: TruncatedOperator, cols: set[Label]) -> int:
    """Dimension of the null space of T restricted to the given columns."""
    return len(cols) - exact_rank(
        _rows((row, col, v) for (row, col), v in T.entries.items() if col in cols)
    )


def exact_index(T: TruncatedOperator, interior_radius: int) -> int:
    """dim ker T - dim ker T* over vectors supported in the interior ball.

    Needs a declared propagation bound so that interior columns of the
    truncation agree with columns of the untruncated operator.  It reads
    the interior columns of T and of T*; a row of T* is a column of T, so
    the interior rows of T* are read straight from T's entries and T* is
    never built.
    """
    if T.propagation is None:
        raise DomainError("operator has no declared propagation bound")
    if interior_radius + T.propagation > T.radius:
        raise DomainError(
            f"interior radius {interior_radius} + propagation {T.propagation} "
            f"exceeds truncation radius {T.radius}; a basis vector may escape"
        )
    dom_interior = {x for x in T.domain if label_norm(x) <= interior_radius}
    cod_interior = {x for x in T.codomain if label_norm(x) <= interior_radius}
    adjoint_rows = _rows(
        (col, row, v.conj()) for (row, col), v in T.entries.items() if row in cod_interior
    )
    adjoint_kernel = len(cod_interior) - exact_rank(adjoint_rows)
    return kernel_dimension(T, dom_interior) - adjoint_kernel


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
    certified = {
        (row, col): v
        for (row, col), v in T.entries.items()
        if label_norm(row) <= interior_radius and label_norm(col) <= interior_radius
    }
    radius = max(
        (max(label_norm(r), label_norm(c)) for (r, c) in certified), default=0
    )
    rows = _rows((row, col, v) for (row, col), v in certified.items())
    return SupportCertificate(
        description or repr(T), radius, exact_rank(rows), interior_radius,
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
