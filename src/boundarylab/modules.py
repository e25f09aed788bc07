"""Finitely supported module vectors over the symbolic crossed product
and the operator calculus that reduces the boundary cycle to the tree
shift.

A module vector is a finitely supported map from group elements to
algebra elements.  Every module map is right linear, so its column at a
label g, the image of the constant function placed at g, determines it:
one crossed element per output label h, the left multiplier that a
coefficient at g takes on its way to h.  Composing two maps multiplies
their entries in the crossed product, and applying a map is composing
it with the vector's own map, which sends the unit at the origin to the
vector.  A pair element b = sum_delta F_delta . u_delta
acts by one lift, `op_tau(b)`, whose column at g holds each F_delta's
specialization at g delta^-1.  The lifted shift is the lift of w + 1:
Vbar = tau(v), Pbar = tau(chi) and Fbar = tau(v - chi) + 1, and a fault
is an edit of v.

Two maps agree on a ball exactly when their columns there agree.  A map
keeps no table; `maps_agree` and `iota_check` share one stream of the
differing entries (g, h, gamma), which reads each column once per label
and compares it whole; `maps_agree` stops reading at the 16th entry it
names.  A certificate's `checked` counts the spanning
vectors its verdict covers, the bounded-depth indicators at each label,
each decided by its label's column.  Right linearity extends such a
certificate to general coefficients with parameters in range, which is
the only sense in which the word "equal" is used below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping

from .config import DomainError, check_depth, check_radius
from .crossed import CrossedElement, PairElement, element_chi, element_v
from .cylinders import BiCylinderFunction, CylinderFunction, chi, f_prime_value
from .jv import wbar_apply
from .scalars import MINUS_ONE, ONE, Scalar
from .words import IDENTITY, ReducedWord, ball, multiply, sphere

# One kernel entry: the crossed element x that multiplies a coefficient
# from the left on its way to output label h.
Entry = tuple[ReducedWord, CrossedElement]


def _unit(n: int, gamma: ReducedWord) -> CrossedElement:
    """The group unitary u_gamma, the constant 1 times u_gamma."""
    return CrossedElement.monomial(CylinderFunction.constant(n, ONE), gamma)


@lru_cache(maxsize=None)
def _weight(F: BiCylinderFunction, inner_items: frozenset | None, g: ReducedWord):
    inner = dict(inner_items) if inner_items is not None else None
    return f_prime_value(F, g, inner)


class ModuleVector:
    """A finitely supported function from group elements to the algebra."""

    __slots__ = ("rank", "entries")

    def __init__(self, rank: int, entries: Mapping[ReducedWord, CrossedElement]):
        self.rank = rank
        self.entries = {g: x for g, x in entries.items() if not x.is_zero()}

    @staticmethod
    def basis(rank: int, f: CylinderFunction, g: ReducedWord) -> "ModuleVector":
        return ModuleVector(rank, {g: CrossedElement.monomial(f, IDENTITY)})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModuleVector)
            and self.rank == other.rank
            and self.entries == other.entries
        )

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        out = dict(self.entries)
        for g, x in other.entries.items():
            out[g] = out[g] + x if g in out else x
        return ModuleVector(self.rank, out)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return self + other.scale(Scalar.of(-1))

    def scale(self, c: Scalar) -> "ModuleVector":
        return ModuleVector(self.rank, {g: x.scale(c) for g, x in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self) -> str:
        return f"ModuleVector({len(self.entries)} labels)"


def inner_product(xi: ModuleVector, eta: ModuleVector) -> CrossedElement:
    total = CrossedElement.zero(xi.rank)
    for g, x in xi.entries.items():
        if g in eta.entries:
            total = total + x.star() * eta.entries[g]
    return total


class ModuleMap:
    """A right-linear operator on module vectors, carried as a name and
    its kernel rule: rule(g) yields the entries (h, x) that send a
    coefficient y at label g to x . y at label h, with x a crossed
    element.  It keeps no table: column(g) sums them to {h: x}, the shape
    of `ModuleVector.entries`, on each read, and a loop reads a label's
    column once."""

    __slots__ = ("name", "rule")

    def __init__(self, name: str, rule: Callable[[ReducedWord], Iterable[Entry]]):
        self.name = name
        self.rule = rule

    def column(self, g: ReducedWord) -> dict[ReducedWord, CrossedElement]:
        out: dict[ReducedWord, CrossedElement] = {}
        for h, x in self.rule(g):
            out[h] = out[h] + x if h in out else x
        return {h: x for h, x in out.items() if x.terms}

    def __call__(self, xi: ModuleVector) -> ModuleVector:
        """T(xi) is the column at the origin of T @ X, where X sends the
        unit at the origin to xi."""
        X = ModuleMap("xi", lambda g: xi.entries.items())
        return ModuleVector(xi.rank, (self @ X).column(IDENTITY))

    def __matmul__(self, other: "ModuleMap") -> "ModuleMap":
        """The kernel product: an entry x1 of `other` at h1 followed by an
        entry x2 of `self` at h2 is the crossed-product entry x2 . x1 at h2."""

        def rule(g: ReducedWord) -> Iterable[Entry]:
            for h1, x1 in other.column(g).items():
                for h2, x2 in self.column(h1).items():
                    yield h2, x2 * x1

        return ModuleMap(f"({self.name} . {other.name})", rule)


def op_phi_function(f: CylinderFunction) -> ModuleMap:
    """Pointwise left multiplication by a boundary function."""
    x = CrossedElement.monomial(f, IDENTITY)
    return ModuleMap("phi(f)", lambda g: [(g, x)])


def op_phi_unitary(n: int, gamma: ReducedWord) -> ModuleMap:
    """Left multiplication by a group unitary with the matching label shift."""
    u = _unit(n, gamma)
    return ModuleMap(f"phi(u_{gamma})", lambda g: [(multiply(gamma, g), u)])


def op_phi(x: CrossedElement) -> ModuleMap:
    """Left multiplication by a general algebra element, term by term."""
    terms = [(gamma, CrossedElement.monomial(f, gamma)) for gamma, f in x.terms.items()]
    return ModuleMap("phi(x)", lambda g: [(multiply(gamma, g), y) for gamma, y in terms])


def op_tau_gamma(n: int, gamma: ReducedWord) -> ModuleMap:
    """Label shift with no coefficient twisting."""
    inverse, one = gamma.inverse(), _unit(n, IDENTITY)
    return ModuleMap(f"tau(u_{gamma})", lambda g: [(multiply(g, inverse), one)])


def op_tau(
    b: PairElement,
    inner: Mapping[ReducedWord, Mapping[ReducedWord, CylinderFunction] | None] | None = None,
    name: str = "tau(b)",
) -> ModuleMap:
    """Diagonal action of a pair element b = sum_delta F_delta . u_delta:
    its column at g has one term per delta, the specialization of F_delta
    at h = g delta^-1 placed at h, and a zero weight adds no term.
    `inner[delta]` gives the small-ball values of that specialization; a
    missing delta takes the canonical extension."""
    frozen = {delta: frozenset(x.items()) for delta, x in (inner or {}).items() if x}
    terms = [(delta.inverse(), F, frozen.get(delta)) for delta, F in b.terms.items()]

    def rule(g: ReducedWord) -> Iterable[Entry]:
        for delta_inverse, F, values in terms:
            h = multiply(g, delta_inverse) if len(delta_inverse) else g
            weight = _weight(F, values, h)
            if not weight.is_zero():
                yield h, CrossedElement.monomial(weight, IDENTITY)

    return ModuleMap(name, rule)


def op_tau_monomial(
    F: BiCylinderFunction,
    delta: ReducedWord,
    inner: Mapping[ReducedWord, CylinderFunction] | None = None,
) -> ModuleMap:
    """The one-term lift of F . u_delta: the label shift by delta, then
    the diagonal action of F."""
    if not F.vanishes_on_diagonal():
        raise DomainError("two-variable coefficient must vanish on the diagonal")
    return op_tau(PairElement(F.rank, {delta: F}), {delta: inner}, f"tau(F u_{delta})")


def op_tau_F(
    F: BiCylinderFunction,
    inner: Mapping[ReducedWord, CylinderFunction] | None = None,
) -> ModuleMap:
    """Diagonal action of a two-variable function, the lift of F . u_1:
    at each label, left multiplication by its specialization there."""
    return op_tau_monomial(F, IDENTITY, inner)


def op_mult_label(f: CylinderFunction) -> ModuleMap:
    """Scalar multiplication of each coefficient by the extension value
    of f at its own label (the second-leg multiplier), a constant
    function built once per value."""
    constants: dict[Scalar, CrossedElement] = {}

    def rule(g: ReducedWord) -> Iterable[Entry]:
        c = f.extend(g)
        if c not in constants:
            constants[c] = CrossedElement.monomial(CylinderFunction.constant(f.rank, c), IDENTITY)
        return [(g, constants[c])]

    return ModuleMap("1 (x) M_f", rule)


def untwist_U(n: int) -> ModuleMap:
    return ModuleMap("U", lambda g: [(g, _unit(n, g))])


def untwist_U_star(n: int) -> ModuleMap:
    return ModuleMap("U*", lambda g: [(g, _unit(n, g.inverse()))])


def conjugate_by_U(n: int, T: ModuleMap) -> ModuleMap:
    return untwist_U(n) @ T @ untwist_U_star(n)


# -- spanning sets and equality certificates -------------------------

def spanning_indicators(n: int, d: int) -> list[CylinderFunction]:
    out = [CylinderFunction.constant(n, ONE)]
    for k in range(1, d + 1):
        out.extend(chi(n, u) for u in sphere(n, k))
    return out


def spanning_vectors(n: int, R: int, d: int) -> Iterable[tuple[tuple, ModuleVector]]:
    """Every bounded-depth indicator at every label in the ball, in
    shortlex order, as a basis-style vector with its (indicator, label)."""
    fs = spanning_indicators(n, d)
    for g in ball(n, R):
        for f in fs:
            yield (f, g), ModuleVector.basis(n, f, g)


def _describe(entries: list[tuple[ReducedWord, ReducedWord, ReducedWord]]) -> tuple[str, ...]:
    return tuple(f"column {g}: ({h}, {gamma})" for g, h, gamma in entries)


@dataclass(frozen=True)
class EqualityCertificate:
    """A verdict on the `checked` spanning vectors, each decided by its
    label's column; a failure names its first 16 differing entries."""

    description: str
    rank: int
    radius: int
    depth: int
    checked: int
    equal: bool
    first_discrepancy: str | None = None
    discrepancy_labels: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "description": self.description,
            "scope": {"rank": self.rank, "R": self.radius, "d": self.depth},
            "checked": self.checked,
            "pass": self.equal,
            "discrepancy": self.first_discrepancy,
            "discrepancy_labels": list(self.discrepancy_labels),
        }


def _compare(T: ModuleMap, S: ModuleMap, n: int, R: int) -> Iterator[tuple]:
    """The entries (g, h, gamma) where the columns of T and S differ, in
    ball order of g and shortlex order of (h, gamma), reading the columns
    of one label at a time.  A right-linear map's column at g decides its
    len(ball(n, d)) indicators of depth at most d there, and a differing
    column differs already on the constant."""
    for g in ball(n, R):
        t, s = T.column(g), S.column(g)
        for h in sorted(h for h in t.keys() | s.keys() if t.get(h) != s.get(h)):
            x, y = (c[h].terms if h in c else {} for c in (t, s))
            for gamma in sorted(k for k in x.keys() | y.keys() if x.get(k) != y.get(k)):
                yield g, h, gamma


def maps_agree(
    T: ModuleMap, S: ModuleMap, n: int, R: int, d: int, description: str = ""
) -> EqualityCertificate:
    """T = S on the spanning vectors of the ball; a differing column entry
    fails it, and the comparison stops at the 16th."""
    check_radius(R)
    check_depth(d)
    bad = list(islice(_compare(T, S, n, R), 16))
    labels = _describe(bad)
    return EqualityCertificate(
        description or f"{T.name} = {S.name}",
        n, R, d, len(ball(n, R)) * len(ball(n, d)), not bad, labels[0] if bad else None, labels,
    )


# -- decay and untwisting certificates -------------------------------

@dataclass(frozen=True)
class DecayCertificate:
    description: str
    radius: int
    threshold: int
    nonvanishing_labels: int
    passed: bool


def decay_check(
    F: BiCylinderFunction,
    f: CylinderFunction,
    R: int,
    inner: Mapping[ReducedWord, CylinderFunction] | None = None,
) -> DecayCertificate:
    """At each label x, compare multiplying by the constant value of f
    near x against multiplying by f itself, weighted by the label's
    specialization of F; certify the difference dies beyond a threshold."""
    check_radius(R)
    frozen = None if inner is None else frozenset(inner.items())
    threshold, count = 0, 0
    for x in ball(f.rank, R):
        weight = _weight(F, frozen, x)
        if weight.scale(f.extend(x)) != weight * f:
            count += 1
            threshold = max(threshold, len(x) + 1)
    return DecayCertificate(
        "decay of the near-constancy gap", R, threshold, count, threshold <= R
    )


def iota_check(
    b: PairElement,
    f: CylinderFunction,
    R: int,
    inner: Mapping[ReducedWord, CylinderFunction] | None = None,
) -> EqualityCertificate:
    """Compare the two untwisted pictures of multiplication by f under a
    two-variable coefficient: second-leg scalar extension against honest
    pointwise multiplication.  They must agree outside a finite label
    set no larger than the decay threshold allows.  Both pictures are
    right linear and are compared once, on the columns of the lift of all
    of b: each delta places its terms at its own output label g delta^-1,
    so these agree exactly when every delta's columns do, with the same
    longest difference.  `checked` counts one column per term and label.
    The decays are computed only if some column differs, once per
    coefficient."""
    check_radius(R)
    if b.is_zero():
        raise DomainError("the pair element has no terms, so there is nothing to compare")
    n = f.rank
    max_shift = max(len(delta) for delta in b.terms)
    tau = op_tau(b, dict.fromkeys(b.terms, inner))
    T, S = tau @ op_mult_label(f), tau @ op_phi_function(f)
    bad = list(_compare(T, S, n, R - max_shift))
    equal = not bad or max(len(h) for _, h, _ in bad) <= max_shift + max(
        decay_check(F, f, R, inner).threshold for F in dict.fromkeys(b.terms.values())
    )
    labels = _describe(bad[:16])
    return EqualityCertificate(
        "second-leg extension matches pointwise multiplication up to finite defect",
        n, R, 0, len(ball(n, R - max_shift)) * len(b.terms), equal,
        labels[0] if bad else None, labels,
    )


# -- the lifted shift ------------------------------------------------

def dual_inner(n: int, gamma: ReducedWord) -> dict[ReducedWord, CylinderFunction]:
    """The small-ball value of the weight of gamma's dual coefficient: at
    the origin, the indicator of gamma's own cylinder."""
    return {IDENTITY: chi(n, gamma)}


def _lift(b: PairElement, origin: Scalar, name: str) -> ModuleMap:
    """tau(b) with the small-ball values of the lifted weights: a
    generator's dual coefficient takes `dual_inner`, and the coefficient
    at the identity the constant `origin`."""
    n = b.rank
    inner = {g: dual_inner(n, g) for g in sphere(n, 1)}
    inner[IDENTITY] = {IDENTITY: CylinderFunction.constant(n, origin)}
    return op_tau(b, inner, name)


def _dual_with_fault(n: int, drop: ReducedWord | None, perturb: ReducedWord | None) -> PairElement:
    """The dual element v, edited by the fault-injection hooks of the
    sensitivity tests: `drop` removes a generator's term, `perturb` doubles it."""
    terms = dict(element_v(n).terms)
    terms.pop(drop, None)
    if perturb in terms:
        terms[perturb] = terms[perturb].scale(Scalar.of(2))
    return PairElement(n, terms)


def build_Vbar(n: int, drop: ReducedWord | None = None, perturb: ReducedWord | None = None) -> ModuleMap:
    """The lift tau(v) of the dual element: one weighted forward label
    shift per generator."""
    return _lift(_dual_with_fault(n, drop, perturb), ONE, "Vbar")


def build_Vbar_closed_form(n: int) -> ModuleMap:
    """Independent construction: each nonorigin label hands its
    coefficient, cut to its own cylinder, to its parent."""
    return ModuleMap(
        "Vbar-closed",
        lambda g: [(g.parent(), CrossedElement.monomial(chi(n, g), IDENTITY))] if len(g) else [],
    )


def build_Pbar(n: int) -> ModuleMap:
    """The lift tau(chi) of the projection: a diagonal weight, at each
    label the indicator of the label's own cylinder."""
    return _lift(element_chi(n), ONE, "Pbar")


def build_Fbar(n: int, drop: ReducedWord | None = None, perturb: ReducedWord | None = None) -> ModuleMap:
    """The lift tau(v - chi) + 1 of w + 1; a fault is an edit of v."""
    tau = _lift(_dual_with_fault(n, drop, perturb) - element_chi(n), MINUS_ONE, "tau(w)")
    one = _unit(n, IDENTITY)
    return ModuleMap("Fbar", lambda g: [*tau.rule(g), (g, one)])


def build_Wbar(n: int, R: int) -> ModuleMap:
    """Reference lifted shift: the tree shift applied fiberwise.  Its
    column at g is `wbar_apply` of the constant family at g, which
    rejects labels beyond radius R."""
    one = CylinderFunction.constant(n, ONE)
    return ModuleMap("Wbar", lambda g: [
        (h, CrossedElement.monomial(f, IDENTITY)) for h, f in wbar_apply({g: one}, n, R).items()
    ])


def final_identity_check(
    n: int,
    R: int,
    d: int,
    drop: ReducedWord | None = None,
    perturb: ReducedWord | None = None,
) -> EqualityCertificate:
    """The flagship comparison: the lift assembled from the dual element
    must coincide with the fiberwise tree shift on the full spanning set.
    Both sides translate cylinder functions by labels of length R + 1, so
    that depth is checked against the cap before any map is built."""
    check_depth(R + 1)
    Fb, Wb = build_Fbar(n, drop=drop, perturb=perturb), build_Wbar(n, R + 1)
    return maps_agree(Fb, Wb, n, R, d, "assembled lift equals fiberwise shift")
