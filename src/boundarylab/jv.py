"""The tree Fredholm cycle: edges, the parent-edge operator, and the
boundary-directed shift field.

Vertices of the Cayley tree are reduced words.  Edges are geometric
(unordered) pairs of adjacent vertices, keyed by the endpoint farther
from the origin, which makes the parent-edge map a bijection from
nonidentity vertices to edges and gives the operator b its index.  For
each direction to infinity the edge space folds back onto the vertex
space, turning b into a shift W that moves one step toward the origin
along the chosen ray and fixes everything off it.

Each operator is a column rule (basis label to a short list of
(row, value) pairs) applied to a declared set of columns.  The full
truncations to a ball (`op_b`, `op_left_edges`, `op_U`) apply the rule to
every label of the ball.  A certificate builds only the columns it reads:
the index of b reads the interior ball, and b moves no label outward, so
the truncation at the interior radius already has the columns of the
untruncated operator; the conjugation defect reads the columns of the
interior ball(n, R - 2|gamma|) and builds each factor only on the image of
the previous one, which never leaves ball(n, R).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .config import DomainError, ResourceLimitError, check_radius
from .cylinders import CylinderFunction, chi
from .operators import (
    Label,
    SupportCertificate,
    TruncatedOperator,
    exact_index,
    label_norm,
    support_certificate,
)
from .scalars import ONE, Scalar
from .words import BoundaryPoint, Letter, ReducedWord, ball, multiply


@dataclass(frozen=True)
class Edge:
    """An unordered tree edge, stored by its endpoint farther from the origin."""

    far: ReducedWord

    def __post_init__(self):
        if not len(self.far):
            raise DomainError("origin has no parent edge")

    @property
    def endpoints(self) -> tuple[ReducedWord, ReducedWord]:
        return (self.far.parent(), self.far)

    @property
    def norm(self) -> int:
        return len(self.far)

    def __str__(self) -> str:
        near, far = self.endpoints
        return f"{{{near}, {far}}}"


@lru_cache(maxsize=None)
def edge_basis(n: int, R: int) -> tuple[Edge, ...]:
    return tuple(Edge(x) for x in ball(n, R) if len(x))


def translate_edge(gamma: ReducedWord, edge: Edge) -> Edge:
    u = multiply(gamma, edge.far.parent())
    v = multiply(gamma, edge.far)
    return Edge(v if len(v) > len(u) else u)


class RayContext:
    """A direction to infinity, given as a boundary point or a finite prefix.

    A finite prefix of length L answers ray-membership questions up to
    depth L only; requesting more raises a domain error.  Prefixes are
    kept once computed: a ball asks for each length thousands of times.
    """

    __slots__ = ("_point", "_prefix", "_prefixes")

    def __init__(self, direction: BoundaryPoint | ReducedWord):
        self._prefixes: dict[int, ReducedWord] = {}
        if isinstance(direction, BoundaryPoint):
            self._point = direction
            self._prefix = None
        elif isinstance(direction, ReducedWord):
            self._point = None
            self._prefix = direction
        else:
            raise DomainError(f"not a ray direction: {direction!r}")

    @property
    def depth(self) -> int | None:
        return None if self._point is not None else len(self._prefix)

    def require_depth(self, k: int) -> None:
        if self.depth is not None and self.depth < k:
            raise DomainError(
                f"ray prefix of length {self.depth} too short for depth {k}"
            )

    def prefix(self, k: int) -> ReducedWord:
        if k not in self._prefixes:
            self.require_depth(k)
            source = self._point if self._point is not None else self._prefix
            self._prefixes[k] = source.prefix(k)
        return self._prefixes[k]

    def on_ray(self, x: ReducedWord) -> bool:
        return self.prefix(len(x)) == x

    def __str__(self) -> str:
        return str(self._point if self._point is not None else self._prefix)


_Column = Callable[[Label], Iterable[tuple[Label, Scalar]]]


def _on_columns(
    columns: Sequence[Label],
    column: _Column,
    R: int,
    propagation: int,
    codomain: Iterable[Label] | None = None,
) -> TruncatedOperator:
    """The operator whose column at each label is given by the rule,
    truncated to rows of norm at most R.  Without a codomain it is
    declared on exactly the rows its columns reach, in first-reached order.
    """
    entries = {}
    reached: dict[Label, None] = {}
    for c in columns:
        for row, v in column(c):
            if label_norm(row) <= R:
                entries[(row, c)] = v
                reached[row] = None
    return TruncatedOperator(
        columns, reached if codomain is None else codomain, entries, R, propagation
    )


def _b_column(x: ReducedWord) -> tuple[tuple[Edge, Scalar], ...]:
    """b sends a vertex to its parent edge and kills the origin."""
    return ((Edge(x), ONE),) if len(x) else ()


def _left_vertex_column(gamma: ReducedWord) -> _Column:
    return lambda x: ((multiply(gamma, x), ONE),)


def _left_edge_column(gamma: ReducedWord) -> _Column:
    return lambda e: ((translate_edge(gamma, e), ONE),)


def _u_column(ray: RayContext) -> _Column:
    """U sends an edge to its endpoint farther from the ray's direction."""

    def column(e: Edge):
        near, far = e.endpoints
        return ((near if ray.on_ray(far) else far, ONE),)

    return column


@lru_cache(maxsize=None)
def op_b(n: int, R: int) -> TruncatedOperator:
    """Vertex-to-parent-edge operator; kills the origin vector."""
    check_radius(R)
    return _on_columns(ball(n, R), _b_column, R, 0, edge_basis(n, R))


def op_left_vertices(n: int, gamma: ReducedWord, R: int) -> TruncatedOperator:
    from .operators import op_left

    return op_left(n, gamma, R)


@lru_cache(maxsize=None)
def op_left_edges(n: int, gamma: ReducedWord, R: int) -> TruncatedOperator:
    basis = edge_basis(n, R)
    return _on_columns(basis, _left_edge_column(gamma), R, len(gamma), basis)


def equivariance_defect(n: int, gamma: ReducedWord, R: int) -> SupportCertificate:
    """Exact rank and support of the conjugation defect of b by gamma.

    The certificate reads only the columns of norm at most
    R - 2|gamma|, so only those are built: L_{gamma^-1} on them, b on
    its image (norm at most R - |gamma|), then L_gamma on those edges
    (norm at most R).  No factor leaves ball(n, R), so these columns are
    the columns of the untruncated conjugate and the certificate is exact
    there; the defect itself lives near the segment from the origin to
    gamma, which requires R >= 3|gamma|.
    """
    check_radius(R)
    if 3 * len(gamma) > R:
        raise ResourceLimitError(
            f"radius {R} too small to certify the defect for |gamma|={len(gamma)}"
        )
    interior = R - 2 * len(gamma)
    columns = ball(n, interior)
    inner = _on_columns(columns, _left_vertex_column(gamma.inverse()), R, len(gamma))
    b = _on_columns(inner.codomain, _b_column, R, 0)
    outer = _on_columns(b.codomain, _left_edge_column(gamma), R, len(gamma))
    conj = outer @ b @ inner
    defect = conj - _on_columns(columns, _b_column, R, 0, conj.codomain)
    return support_certificate(
        defect, interior, f"conjugation defect of b by {gamma} at R={R}"
    )


def op_U(a: RayContext | BoundaryPoint, n: int, R: int) -> TruncatedOperator:
    """Edge-to-vertex map sending each edge to its endpoint farther from a."""
    ray = a if isinstance(a, RayContext) else RayContext(a)
    ray.require_depth(R + 1)
    return _on_columns(edge_basis(n, R), _u_column(ray), R, 1, ball(n, R))


def op_W_closed_form(a: RayContext | BoundaryPoint, n: int, R: int) -> TruncatedOperator:
    """The directed shift: one step toward the origin on the ray to a,
    identity off the ray, zero at the origin."""
    ray = a if isinstance(a, RayContext) else RayContext(a)
    ray.require_depth(R + 1)
    vertices = ball(n, R)
    entries = {}
    for x in vertices:
        if not len(x):
            continue
        target = x.parent() if ray.on_ray(x) else x
        entries[(target, x)] = ONE
    return TruncatedOperator(vertices, vertices, entries, R, 1)


def op_W(a: RayContext | BoundaryPoint, n: int, R: int) -> TruncatedOperator:
    """The directed shift built as the fold U b, cross-checked against the
    closed form on every column of the ball; any mismatch is a hard error.

    The fold is composed column by column from the rules that build op_b
    and op_U, without materializing either operator.  The last checked
    shift toward a boundary point is kept, since every caller that
    certifies a ray asks for its index next (`index_W`).
    """
    if isinstance(a, BoundaryPoint):
        return _last_shift(a, n, R)
    return _checked_shift(a, n, R)


@lru_cache(maxsize=1)
def _last_shift(a: BoundaryPoint, n: int, R: int) -> TruncatedOperator:
    return _checked_shift(RayContext(a), n, R)


def _checked_shift(ray: RayContext, n: int, R: int) -> TruncatedOperator:
    closed = op_W_closed_form(ray, n, R)
    u = _u_column(ray)
    folded = {}
    for x in ball(n, R):
        for e, v in _b_column(x):
            for y, w in u(e):
                k = (y, x)
                folded[k] = folded[k] + w * v if k in folded else w * v
    if {k: v for k, v in folded.items() if v} != closed.entries:
        raise AssertionError("fold of b disagrees with the closed-form shift")
    return closed


def w_column(prefix: ReducedWord, x: ReducedWord) -> ReducedWord | None:
    """Target vertex of the directed-shift column at x, given only the
    ray prefix to depth |x|; None means the column is zero."""
    if not len(x):
        return None
    if len(prefix) < len(x):
        raise DomainError("prefix shorter than the column label")
    return x.parent() if prefix.prefix(len(x)) == x else x


@dataclass(frozen=True)
class LocalConstancyCertificate:
    label: str
    depth: int
    cases: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "depth": self.depth,
            "cases": self.cases,
            "passed": self.passed,
        }


def w_local_constancy(n: int, x: ReducedWord, R: int) -> LocalConstancyCertificate:
    """Check that the shift column at x is determined by the depth-|x|
    cylinder of the direction, by comparing deep extensions of every
    depth-max(|x|, 1) prefix against the shallow formula.

    Only the column at x of the shift on ball(n, R) is built for each
    ray, from the closed form and from the fold of b, and as in op_W a
    mismatch between the two is a hard error.
    """
    from .words import sphere

    check_radius(R)
    depth = max(len(x), 1)
    cases = 0
    ok = True
    for u in sphere(n, depth):
        expected = w_column(u, x)
        for ray in _deep_extensions(u, R + 1):
            cases += 1
            col = _checked_shift_column(ray, x) if len(x) <= R else {}
            if expected is None:
                ok = ok and not col
            else:
                ok = ok and col == {expected: ONE}
    return LocalConstancyCertificate(str(x), depth, cases, ok)


def _checked_shift_column(ray: RayContext, x: ReducedWord) -> dict[ReducedWord, Scalar]:
    """The closed-form shift's column at x, checked against the column of
    the fold U b built from the rules of op_U and op_b."""
    closed = {(x.parent() if ray.on_ray(x) else x): ONE} if len(x) else {}
    u = _u_column(ray)
    folded = {}
    for e, v in _b_column(x):
        for y, w in u(e):
            folded[y] = folded[y] + w * v if y in folded else w * v
    if {y: c for y, c in folded.items() if c} != closed:
        raise AssertionError("fold of b disagrees with the closed-form shift")
    return closed


def _deep_extensions(u: ReducedWord, depth: int) -> list[RayContext]:
    """Two rays through the cylinder of u, long enough for radius checks."""
    out = []
    for letter in (Letter(0, 1), Letter(0, -1)):
        if u.letters and u.letters[-1] == letter.inverse():
            continue
        period = ReducedWord((letter,))
        word = u
        while len(word) < depth + 1:
            word = multiply(word, period)
        out.append(RayContext(word))
    return out


def wbar_apply(
    family: dict[ReducedWord, CylinderFunction], n: int, R: int
) -> dict[ReducedWord, CylinderFunction]:
    """Fiberwise directed shift on a finite family of coefficient
    functions indexed by tree vertices.

    Output at label h collects each child g of h weighted by the
    indicator of the cylinder at g, plus the label's own coefficient
    weighted by the complement of its cylinder (absent at the origin,
    whose cylinder is everything).
    """
    out: dict[ReducedWord, CylinderFunction] = {}

    def add(label: ReducedWord, f: CylinderFunction) -> None:
        if f.is_zero():
            return
        if label in out:
            out[label] = out[label] + f
            if out[label].is_zero():
                del out[label]
        else:
            out[label] = f

    one = CylinderFunction.constant(n, ONE)
    for g, xi in family.items():
        if len(g) > R:
            raise DomainError(f"label {g} outside radius {R}")
        if xi.is_zero():
            continue
        if len(g):
            add(g.parent(), chi(n, g) * xi)
            add(g, (one - chi(n, g)) * xi)
    return out


def index_b(n: int, R: int, interior_radius: int | None = None) -> int:
    """Index of b over the interior ball (radius R - 1 by default) of the
    truncation at R.

    b moves no label outward (propagation 0), so the truncation at the
    interior radius itself has every interior column and row of the
    untruncated b; it is the only one built.
    """
    check_radius(R)
    r = interior_radius if interior_radius is not None else R - 1
    return exact_index(op_b(n, min(max(r, 0), R)), r)


def index_W(a: RayContext | BoundaryPoint, n: int, R: int) -> int:
    return exact_index(op_W(a, n, R), R - 1)
