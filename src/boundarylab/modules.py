"""Finitely supported module vectors over the symbolic crossed product
and the operator calculus that reduces the boundary cycle to the tree
shift.

A module vector is a finitely supported map from group elements to
algebra elements.  Every module map is right linear, so its column at a
label g, the image of the constant function placed at g, determines it:
one multiplier f . u_gamma per output label h and group element gamma.
Composing two maps multiplies their kernels, and applying a map is
composing it with the vector's own map, which sends the unit at the
origin to the vector.  A pair element b = sum_delta F_delta . u_delta
acts by one lift, `op_tau(b)`, whose column at g holds each F_delta's
specialization at g delta^-1.  The lifted shift is the lift of w + 1:
Vbar = tau(v), Pbar = tau(chi) and Fbar = tau(v - chi) + 1, and a fault
is an edit of v.

Two maps agree on a ball exactly when their columns there agree.  A map
keeps no table; `maps_agree` and `iota_check` share one loop that reads
each column once per label, compares it whole and names a differing
entry (g, h, gamma).  A certificate's `checked` counts the spanning
vectors its verdict covers, the bounded-depth indicators at each label,
each decided by its label's column.  Right linearity extends such a
certificate to general coefficients with parameters in range, which is
the only sense in which the word "equal" is used below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping

from .config import DomainError, check_depth, check_radius
from .crossed import CrossedElement, PairElement, element_chi, element_v
from .cylinders import (
    BiCylinderFunction,
    CylinderFunction,
    chi,
    f_prime_value,
    translate,
)
from .jv import wbar_apply
from .scalars import MINUS_ONE, ONE, Scalar
from .words import IDENTITY, ReducedWord, ball, multiply, sphere

# One kernel term (h, c, f, gamma): the multiplier c . f . u_gamma placed
# at output label h, where f is None for the constant function 1.
Term = tuple[ReducedWord, Scalar, CylinderFunction | None, ReducedWord]


def _merged(terms: Iterable[Term]) -> tuple[Term, ...]:
    """One term per (h, gamma), the sum of its c . f: the scalars fold
    into the function, and a sum with no function stays a scalar."""
    sums: dict[tuple[ReducedWord, ReducedWord], Scalar | CylinderFunction] = {}
    for h, c, f, gamma in terms:
        y = c if f is None else f if c == ONE else f.scale(c)
        x = sums.get((h, gamma))
        if x is not None and isinstance(x, Scalar) != isinstance(y, Scalar):
            n = (y if isinstance(x, Scalar) else x).rank
            x, y = (CylinderFunction.constant(n, z) if isinstance(z, Scalar) else z for z in (x, y))
        sums[h, gamma] = y if x is None else x + y
    return tuple(
        (h, y, None, gamma) if isinstance(y, Scalar) else (h, ONE, y, gamma)
        for (h, gamma), y in sums.items() if y
    )


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
    its kernel rule: rule(g) lists the terms (h, c, f, gamma) that send a
    coefficient x at label g to c . f . u_gamma . x at label h, with c a
    scalar, f a cylinder function or None for 1, and gamma a word.  It
    keeps no table: column(g) merges them to one per (h, gamma), with
    c = 1 or f None, on each read, and a loop reads a label's column once."""

    __slots__ = ("name", "rule")

    def __init__(self, name: str, rule: Callable[[ReducedWord], Iterable[Term]]):
        self.name = name
        self.rule = rule

    def column(self, g: ReducedWord) -> tuple[Term, ...]:
        return _merged(self.rule(g))

    def __call__(self, xi: ModuleVector) -> ModuleVector:
        """T(xi) is the merged column at the origin of T @ X, where X sends
        the unit at the origin to xi's monomials (h, 1, F, k)."""
        terms = [(h, ONE, F, k) for h, x in xi.entries.items() for k, F in x.terms.items()]
        out: dict[ReducedWord, dict] = {}
        for h, _, f, gamma in (self @ ModuleMap("xi", lambda g: terms)).column(IDENTITY):
            out.setdefault(h, {})[gamma] = f  # every coefficient of xi is a function
        return ModuleVector(xi.rank, {h: CrossedElement(xi.rank, t) for h, t in out.items()})

    def __matmul__(self, other: "ModuleMap") -> "ModuleMap":
        """The kernel product, term by term, and the one place where a
        kernel term multiplies a coefficient:
        c2 f2 u_g2 . c1 f1 u_g1 = c2 c1 . f2 translate(g2, f1) . u_{g2 g1}."""

        def rule(g: ReducedWord) -> Iterable[Term]:
            for h1, c1, f1, g1 in other.column(g):
                for h2, c2, f2, g2 in self.column(h1):
                    t = translate(g2, f1) if f1 is not None and len(g2) else f1
                    f = t if f2 is None else f2 if t is None else f2 * t
                    if f is None or not f.is_zero():
                        yield h2, c2 * c1, f, multiply(g2, g1)

        return ModuleMap(f"({self.name} . {other.name})", rule)


def op_phi_function(f: CylinderFunction) -> ModuleMap:
    """Pointwise left multiplication by a boundary function."""
    return ModuleMap("phi(f)", lambda g: [(g, ONE, f, IDENTITY)])


def op_phi_unitary(gamma: ReducedWord) -> ModuleMap:
    """Left multiplication by a group unitary with the matching label shift."""
    return ModuleMap(
        f"phi(u_{gamma})", lambda g: [(multiply(gamma, g), ONE, None, gamma)]
    )


def op_phi(x: CrossedElement) -> ModuleMap:
    """Left multiplication by a general algebra element, term by term."""
    return ModuleMap(
        "phi(x)",
        lambda g: [(multiply(gamma, g), ONE, f, gamma) for gamma, f in x.terms.items()],
    )


def op_tau_gamma(gamma: ReducedWord) -> ModuleMap:
    """Label shift with no coefficient twisting."""
    inverse = gamma.inverse()
    return ModuleMap(
        f"tau(u_{gamma})", lambda g: [(multiply(g, inverse), ONE, None, IDENTITY)]
    )


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

    def rule(g: ReducedWord) -> Iterable[Term]:
        for delta_inverse, F, values in terms:
            h = multiply(g, delta_inverse) if len(delta_inverse) else g
            weight = _weight(F, values, h)
            if not weight.is_zero():
                yield h, ONE, weight, IDENTITY

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
    of f at its own label (the second-leg multiplier)."""
    return ModuleMap("1 (x) M_f", lambda g: [(g, f.extend(g), None, IDENTITY)])


def untwist_U() -> ModuleMap:
    return ModuleMap("U", lambda g: [(g, ONE, None, g)])


def untwist_U_star() -> ModuleMap:
    return ModuleMap("U*", lambda g: [(g, ONE, None, g.inverse())])


def conjugate_by_U(T: ModuleMap) -> ModuleMap:
    return untwist_U() @ T @ untwist_U_star()


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


def _tables(column: tuple[Term, ...]) -> dict:
    """A merged column as one canonical table per (h, gamma), a scalar as a constant."""
    return {(h, gamma): {IDENTITY: c} if f is None else f.table for h, c, f, gamma in column}


def _compare(T: ModuleMap, S: ModuleMap, n: int, R: int, d: int) -> tuple[int, list, int]:
    """T and S on their columns at each label g of the ball: the count of
    spanning vectors covered, the first 16 differing entries (g, h, gamma)
    in ball order of g and shortlex order of (h, gamma), and the longest
    differing output label h.  A right-linear map's column at g decides
    its len(ball(n, d)) indicators of depth at most d there, and a
    differing column differs already on the constant."""
    bad, worst = [], 0
    for g in ball(n, R):
        t, s = _tables(T.column(g)), _tables(S.column(g))
        keys = sorted(k for k in t.keys() | s.keys() if t.get(k) != s.get(k))
        if keys:
            worst = max(worst, *(len(h) for h, _ in keys))
            bad += [(g, h, gamma) for h, gamma in keys[: 16 - len(bad)]]
    return len(ball(n, R)) * len(ball(n, d)), bad, worst


def maps_agree(
    T: ModuleMap, S: ModuleMap, n: int, R: int, d: int, description: str = ""
) -> EqualityCertificate:
    """T = S on the spanning vectors of the ball; a differing column entry fails it."""
    check_radius(R)
    check_depth(d)
    checked, bad, _ = _compare(T, S, n, R, d)
    labels = _describe(bad)
    return EqualityCertificate(
        description or f"{T.name} = {S.name}",
        n, R, d, checked, not bad, labels[0] if bad else None, labels,
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
    checked, bad, worst = _compare(T, S, n, R - max_shift, 0)
    equal = not bad or worst <= max_shift + max(
        decay_check(F, f, R, inner).threshold for F in dict.fromkeys(b.terms.values())
    )
    labels = _describe(bad)
    return EqualityCertificate(
        "second-leg extension matches pointwise multiplication up to finite defect",
        n, R, 0, checked * len(b.terms), equal, labels[0] if bad else None, labels,
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
        lambda g: [(g.parent(), ONE, chi(n, g), IDENTITY)] if len(g) else [],
    )


def build_Pbar(n: int) -> ModuleMap:
    """The lift tau(chi) of the projection: a diagonal weight, at each
    label the indicator of the label's own cylinder."""
    return _lift(element_chi(n), ONE, "Pbar")


def build_Fbar(n: int, drop: ReducedWord | None = None, perturb: ReducedWord | None = None) -> ModuleMap:
    """The lift tau(v - chi) + 1 of w + 1; a fault is an edit of v."""
    tau = _lift(_dual_with_fault(n, drop, perturb) - element_chi(n), MINUS_ONE, "tau(w)")
    return ModuleMap("Fbar", lambda g: [*tau.rule(g), (g, ONE, None, IDENTITY)])


def build_Wbar(n: int, R: int) -> ModuleMap:
    """Reference lifted shift: the tree shift applied fiberwise.  Its
    column at g is `wbar_apply` of the constant family at g, which
    rejects labels beyond radius R."""
    one = CylinderFunction.constant(n, ONE)
    return ModuleMap(
        "Wbar",
        lambda g: [(h, ONE, f, IDENTITY) for h, f in wbar_apply({g: one}, n, R).items()],
    )


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
