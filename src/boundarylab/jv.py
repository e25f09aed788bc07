"""The tree Fredholm cycle: edges, the parent-edge operator, and the
boundary-directed shift field.

Vertices of the Cayley tree are reduced words.  An edge is a geometric
(unordered) pair of adjacent vertices, and it is its endpoint farther
from the origin: a nonidentity word.  So the parent-edge map is a
bijection from nonidentity vertices to edges, which gives the operator
b its index, and b's entries are (e, e).  No edge basis holds the
origin and the vertex basis of a ball does, so the two never compare
equal and operator arithmetic across them is rejected.  For each
direction to infinity the edge space folds back onto the vertex space,
turning b into a shift W that moves one step toward the origin along
the chosen ray and fixes everything off it.

Each operator but b is a column rule (basis label to a short list of
(row, value) pairs) applied to a declared set of columns by
`operators.on_columns`; `op_b` reads its entries (e, e) off the edge
basis.  A full truncation to a ball holds every label of the ball,
but a certificate builds only the columns it reads: the index of b
reads the interior ball, and b moves no label outward, so the
truncation at the interior radius already has the columns of the
untruncated operator; the conjugation defect reads the columns of the
interior ball(n, R - 2|gamma|) and builds each factor only on the image
of the previous one, which never leaves ball(n, R).

The shift W has one checked column rule, `_checked_shift`: its column
at x is the closed form, checked against the fold U b at x, which is one
product since b and U have one entry per column.  `op_W` applies the
rule to the ball and `w_local_constancy` to one column per ray.

A direction to infinity is the word of its first R + 1 letters, read
once from a boundary point or from a given finite prefix (a shorter
prefix is a domain error); a vertex of ball(n, R) lies on the ray
exactly when that word begins with it (`words.is_initial`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .config import DomainError, ResourceLimitError, check_radius
from .cylinders import CylinderFunction, chi
from .operators import (
    Basis,
    Column,
    SupportCertificate,
    TruncatedOperator,
    exact_index,
    left_column,
    on_columns,
    op_left,
    support_certificate,
)
from .scalars import ONE, Scalar
from .words import BoundaryPoint, ReducedWord, ball, is_initial, multiply, sphere


def edge_basis(n: int, R: int) -> Basis:
    """Parent edges of ball(n, R) in order, each as its far endpoint: the
    ball without the origin."""
    return Basis(ball(n, R)[1:])


def translate_edge(gamma: ReducedWord, e: ReducedWord) -> ReducedWord:
    u, v = multiply(gamma, e.parent()), multiply(gamma, e)
    return v if len(v) > len(u) else u


def _ray_prefix(a: BoundaryPoint | ReducedWord, R: int) -> ReducedWord:
    """The first R + 1 letters of a direction to infinity, enough to tell
    which vertices of ball(n, R) lie on its ray."""
    if isinstance(a, BoundaryPoint):
        return a.prefix(R + 1)
    if not isinstance(a, ReducedWord):
        raise DomainError(f"not a ray direction: {a!r}")
    if len(a) < R + 1:
        raise DomainError(f"ray prefix of length {len(a)} too short for depth {R + 1}")
    return a.prefix(R + 1)


def _b_column(x: ReducedWord) -> tuple[tuple[ReducedWord, Scalar], ...]:
    """b sends a vertex to its parent edge and kills the origin."""
    return ((x, ONE),) if x else ()


def _left_edge_column(gamma: ReducedWord) -> Column:
    return lambda e: ((translate_edge(gamma, e), ONE),)


def _u_column(prefix: ReducedWord) -> Column:
    """U sends an edge to its endpoint farther from the ray's direction."""
    return lambda e: ((e.parent() if is_initial(e, prefix) else e, ONE),)


def _w_column(prefix: ReducedWord) -> Column:
    """W moves a vertex on the ray one step toward the origin, fixes the
    others and kills the origin."""
    return lambda x: ((w_column(prefix, x), ONE),) if len(x) else ()


def op_b(n: int, R: int) -> TruncatedOperator:
    """Vertex-to-parent-edge operator, read off the edge basis; kills the origin vector."""
    check_radius(R)
    edges = edge_basis(n, R)
    return TruncatedOperator(ball(n, R), edges, (((e, e), ONE) for e in edges), R, 0)


def op_left_vertices(n: int, gamma: ReducedWord, R: int) -> TruncatedOperator:
    return op_left(n, gamma, R)


def op_left_edges(n: int, gamma: ReducedWord, R: int) -> TruncatedOperator:
    basis = edge_basis(n, R)
    return on_columns(basis, _left_edge_column(gamma), R, len(gamma), basis)


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
    inner = on_columns(columns, left_column(gamma.inverse()), R, len(gamma))
    b = on_columns(inner.codomain, _b_column, R, 0)
    outer = on_columns(b.codomain, _left_edge_column(gamma), R, len(gamma))
    conj = outer @ b @ inner
    defect = conj - on_columns(columns, _b_column, R, 0, conj.codomain)
    return support_certificate(
        defect, interior, f"conjugation defect of b by {gamma} at R={R}"
    )


def op_U(a: BoundaryPoint | ReducedWord, n: int, R: int) -> TruncatedOperator:
    """Edge-to-vertex map sending each edge to its endpoint farther from a."""
    prefix = _ray_prefix(a, R)
    return on_columns(edge_basis(n, R), _u_column(prefix), R, 1, ball(n, R))


def op_W_closed_form(a: BoundaryPoint | ReducedWord, n: int, R: int) -> TruncatedOperator:
    """The directed shift: one step toward the origin on the ray to a,
    identity off the ray, zero at the origin."""
    vertices = Basis(ball(n, R))
    return on_columns(vertices, _w_column(_ray_prefix(a, R)), R, 1, vertices)


def op_W(a: BoundaryPoint | ReducedWord, n: int, R: int) -> TruncatedOperator:
    """The directed shift from `_checked_shift`: each column of the ball
    is the closed form, checked against the fold U b there; any mismatch
    is a hard error.

    The last checked shift is kept, keyed by the ray's (R + 1)-letter
    prefix, since every caller that certifies a ray asks for its index
    next (`index_W`).
    """
    return _last_shift(_ray_prefix(a, R), n, R)


@lru_cache(maxsize=1)
def _last_shift(prefix: ReducedWord, n: int, R: int) -> TruncatedOperator:
    vertices = Basis(ball(n, R))
    return on_columns(vertices, _checked_shift(prefix), R, 1, vertices)


def _checked_shift(prefix: ReducedWord) -> Column:
    """The closed-form shift's column rule, each column checked against
    the column of the fold U b: b and U have one entry per column, so
    the fold at x is one product."""
    w, u = _w_column(prefix), _u_column(prefix)

    def column(x: ReducedWord) -> tuple[tuple[ReducedWord, Scalar], ...]:
        closed = w(x)
        if closed != tuple((y, s * t) for e, t in _b_column(x) for y, s in u(e)):
            raise AssertionError(f"fold of b disagrees with the closed-form shift at {x}")
        return closed

    return column


def w_column(prefix: ReducedWord, x: ReducedWord) -> ReducedWord | None:
    """Target vertex of the directed-shift column at x, given only the
    ray prefix to depth |x|; None means the column is zero."""
    if not x:
        return None
    if len(prefix) < len(x):
        raise DomainError("prefix shorter than the column label")
    return x.parent() if is_initial(x, prefix) else x


@dataclass(frozen=True)
class LocalConstancyCertificate:
    label: str
    depth: int
    cases: int
    passed: bool


def w_local_constancy(n: int, x: ReducedWord, R: int) -> LocalConstancyCertificate:
    """Check that the shift column at x is determined by the depth-|x|
    cylinder of the direction, by comparing deep extensions of every
    depth-max(|x|, 1) prefix against the shallow formula.

    Each ray reads the one column at x of `_checked_shift`, so as in
    op_W the closed form is checked against the fold of b there.
    """
    check_radius(R)
    depth = max(len(x), 1)
    cases = 0
    ok = True
    for u in sphere(n, depth):
        expected = w_column(u, x)
        want = () if expected is None else ((expected, ONE),)
        for ray in _deep_extensions(u, R + 1):
            cases += 1
            col = _checked_shift(ray)(x) if len(x) <= R else ()
            ok = ok and col == want
    return LocalConstancyCertificate(str(x), depth, cases, ok)


def _deep_extensions(u: ReducedWord, depth: int) -> list[ReducedWord]:
    """Prefixes of two rays through the cylinder of u, long enough for
    radius checks."""
    out = []
    for period in (ReducedWord.parse("a"), ReducedWord.parse("A")):
        if len(multiply(u, period)) < len(u):
            continue
        word = u
        while len(word) < depth + 1:
            word = multiply(word, period)
        out.append(word)
    return out


def wbar_apply(
    family: dict[ReducedWord, CylinderFunction], n: int, R: int
) -> dict[ReducedWord, CylinderFunction]:
    """Fiberwise directed shift on a finite family of coefficient
    functions indexed by tree vertices.

    Output at label h collects each child g of h weighted by the
    indicator of the cylinder at g, plus the label's own coefficient
    weighted by the complement of its cylinder (absent at the origin,
    whose cylinder is everything).  The children's terms lie inside h's
    cylinder and its own term outside, so a sum vanishes only when each
    of its terms does; zero sums are dropped once, at the end.
    """
    out: dict[ReducedWord, CylinderFunction] = {}
    one = CylinderFunction.constant(n, ONE)
    for g, xi in family.items():
        if len(g) > R:
            raise DomainError(f"label {g} outside radius {R}")
        if len(g):
            for h, y in ((g.parent(), chi(n, g) * xi), (g, (one - chi(n, g)) * xi)):
                out[h] = out[h] + y if h in out else y
    return {h: y for h, y in out.items() if y}


def index_b(n: int, R: int) -> int:
    """Index of b over the interior ball of radius R - 1 of the
    truncation at R.

    b moves no label outward (propagation 0), so the truncation at the
    interior radius itself has every interior column and row of the
    untruncated b; it is the only one built.
    """
    check_radius(R)
    return exact_index(op_b(n, max(R - 1, 0)), R - 1)


def index_W(a: BoundaryPoint | ReducedWord, n: int, R: int) -> int:
    return exact_index(op_W(a, n, R), R - 1)
