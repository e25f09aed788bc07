"""The tree Fredholm cycle: edges, the parent-edge operator, and the
boundary-directed shift field.

Vertices of the Cayley tree are reduced words.  Edges are geometric
(unordered) pairs of adjacent vertices, keyed by the endpoint farther
from the origin, which makes the parent-edge map a bijection from
nonidentity vertices to edges and gives the operator b its index.  For
each direction to infinity the edge space folds back onto the vertex
space, turning b into a shift W that moves one step toward the origin
along the chosen ray and fixes everything off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .config import DomainError, ResourceLimitError, check_radius
from .cylinders import CylinderFunction, chi
from .operators import SupportCertificate, TruncatedOperator, support_certificate
from .scalars import ONE
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
    depth L only; requesting more raises a domain error.
    """

    __slots__ = ("_point", "_prefix")

    def __init__(self, direction: BoundaryPoint | ReducedWord):
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
        self.require_depth(k)
        if self._point is not None:
            return self._point.prefix(k)
        return self._prefix.prefix(k)

    def on_ray(self, x: ReducedWord) -> bool:
        return self.prefix(len(x)) == x

    def __str__(self) -> str:
        return str(self._point if self._point is not None else self._prefix)


@lru_cache(maxsize=None)
def op_b(n: int, R: int) -> TruncatedOperator:
    """Vertex-to-parent-edge operator; kills the origin vector."""
    check_radius(R)
    vertices = ball(n, R)
    entries = {(Edge(x), x): ONE for x in vertices if len(x)}
    return TruncatedOperator(vertices, edge_basis(n, R), entries, R, 0)


def op_left_vertices(n: int, gamma: ReducedWord, R: int) -> TruncatedOperator:
    from .operators import op_left

    return op_left(n, gamma, R)


@lru_cache(maxsize=None)
def op_left_edges(n: int, gamma: ReducedWord, R: int) -> TruncatedOperator:
    basis = edge_basis(n, R)
    entries = {}
    for e in basis:
        image = translate_edge(gamma, e)
        if image.norm <= R:
            entries[(image, e)] = ONE
    return TruncatedOperator(basis, basis, entries, R, len(gamma))


def equivariance_defect(n: int, gamma: ReducedWord, R: int) -> SupportCertificate:
    """Exact rank and support of the conjugation defect of b by gamma.

    The conjugated operator agrees with its untruncated counterpart on
    columns of norm at most R - 2|gamma|, so the certificate is exact
    there; the defect itself lives near the segment from the origin to
    gamma, which requires R >= 3|gamma|.
    """
    if 3 * len(gamma) > R:
        raise ResourceLimitError(
            f"radius {R} too small to certify the defect for |gamma|={len(gamma)}"
        )
    b = op_b(n, R)
    conj = op_left_edges(n, gamma, R) @ b @ op_left_vertices(n, gamma.inverse(), R)
    defect = conj - b
    interior = R - 2 * len(gamma)
    return support_certificate(
        defect, interior, f"conjugation defect of b by {gamma} at R={R}"
    )


def op_U(a: RayContext | BoundaryPoint, n: int, R: int) -> TruncatedOperator:
    """Edge-to-vertex map sending each edge to its endpoint farther from a."""
    ray = a if isinstance(a, RayContext) else RayContext(a)
    ray.require_depth(R + 1)
    basis = edge_basis(n, R)
    entries = {}
    for e in basis:
        near, far = e.endpoints
        target = near if ray.on_ray(far) else far
        entries[(target, e)] = ONE
    return TruncatedOperator(basis, ball(n, R), entries, R, 1)


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
    """The directed shift built as the fold of b, cross-checked against
    the closed form; any mismatch is a hard error."""
    ray = a if isinstance(a, RayContext) else RayContext(a)
    composed = op_U(ray, n, R) @ op_b(n, R)
    closed = op_W_closed_form(ray, n, R)
    if composed.entries != closed.entries:
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
    depth-max(|x|, 1) prefix against the shallow formula."""
    from .words import sphere

    depth = max(len(x), 1)
    cases = 0
    ok = True
    for u in sphere(n, depth):
        expected = w_column(u, x)
        for ray in _deep_extensions(u, R + 1):
            cases += 1
            W = op_W(ray, n, R)
            col = {row: v for (row, col_), v in W.entries.items() if col_ == x}
            if expected is None:
                ok = ok and not col
            else:
                ok = ok and col == {expected: ONE}
    return LocalConstancyCertificate(str(x), depth, cases, ok)


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
    from .operators import exact_index

    r = interior_radius if interior_radius is not None else R - 1
    return exact_index(op_b(n, R), r)


def index_W(a: RayContext | BoundaryPoint, n: int, R: int) -> int:
    from .operators import exact_index

    return exact_index(op_W(a, n, R), R - 1)
