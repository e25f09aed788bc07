"""Finitely supported module vectors over the symbolic crossed product
and the operator calculus that reduces the boundary cycle to the tree
shift.

A module vector is a finitely supported map from group elements to
algebra elements.  Every module map here is right linear, so its kernel
determines it: for each input label g, the column lists the output
labels h and the left multiplier c . f . u_gamma placed at each.
Applying a map is one loop over those columns, and composing two maps
multiplies their kernels.

All operator identities here are certified on explicit spanning sets:
every indicator of bounded depth placed at every label in a ball.  Right
linearity extends such a certificate to general coefficients with
parameters in range, which is the only sense in which the word "equal"
is used below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping

from .config import DomainError, check_depth, check_radius
from .crossed import CrossedElement, PairElement, dual_coefficient
from .cylinders import (
    BiCylinderFunction,
    CylinderFunction,
    chi,
    f_prime_value,
    translate,
)
from .jv import wbar_apply
from .scalars import ONE, Scalar
from .words import IDENTITY, ReducedWord, ball, multiply, sphere

# One kernel term (h, c, f, gamma): the multiplier c . f . u_gamma placed
# at output label h, where f is None for the constant function 1.
Term = tuple[ReducedWord, Scalar, CylinderFunction | None, ReducedWord]


def _freeze_inner(
    inner: Mapping[ReducedWord, CylinderFunction] | None,
) -> tuple | None:
    if inner is None:
        return None
    return tuple(sorted(inner.items(), key=lambda kv: kv[0].sort_key()))


@lru_cache(maxsize=None)
def _weight(F: BiCylinderFunction, inner_items: tuple | None, g: ReducedWord):
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

    def act(self, a: CrossedElement) -> "ModuleVector":
        """Right action, applied coefficientwise."""
        return ModuleVector(self.rank, {g: x * a for g, x in self.entries.items()})

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
    its kernel: column(g) lists the terms (h, c, f, gamma) that send a
    coefficient x at label g to c . f . u_gamma . x at label h, with c a
    scalar, f a cylinder function or None for 1, and gamma a word."""

    __slots__ = ("name", "column")

    def __init__(self, name: str, column: Callable[[ReducedWord], Iterable[Term]]):
        self.name = name
        self.column = lru_cache(maxsize=None)(lambda g: tuple(column(g)))

    def __call__(self, xi: ModuleVector) -> ModuleVector:
        out: dict[ReducedWord, CrossedElement] = {}
        for g, x in xi.entries.items():
            for h, c, f, gamma in self.column(g):
                y = x.left_mul_unitary(gamma) if len(gamma) else x
                if f is not None:
                    y = y.left_mul_function(f)
                if c != ONE:
                    y = y.scale(c)
                out[h] = out[h] + y if h in out else y
        return ModuleVector(xi.rank, out)

    def __matmul__(self, other: "ModuleMap") -> "ModuleMap":
        """The kernel product, term by term:
        c2 f2 u_g2 . c1 f1 u_g1 = c2 c1 . f2 translate(g2, f1) . u_{g2 g1}."""

        def column(g: ReducedWord) -> Iterable[Term]:
            for h1, c1, f1, g1 in other.column(g):
                for h2, c2, f2, g2 in self.column(h1):
                    t = translate(g2, f1) if f1 is not None and len(g2) else f1
                    f = t if f2 is None else f2 if t is None else f2 * t
                    if f is None or not f.is_zero():
                        yield h2, c2 * c1, f, multiply(g2, g1)

        return ModuleMap(f"({self.name} . {other.name})", column)

    @staticmethod
    def identity() -> "ModuleMap":
        return ModuleMap("1", lambda g: [(g, ONE, None, IDENTITY)])


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
    return ModuleMap(
        f"tau(u_{gamma})",
        lambda g: [(multiply(g, gamma.inverse()), ONE, None, IDENTITY)],
    )


def op_tau_F(
    F: BiCylinderFunction,
    inner: Mapping[ReducedWord, CylinderFunction] | None = None,
) -> ModuleMap:
    """Diagonal action of a two-variable function: at each label, left
    multiplication by its one-variable specialization there."""
    if not F.vanishes_on_diagonal():
        raise DomainError("two-variable coefficient must vanish on the diagonal")
    frozen = _freeze_inner(inner)
    return ModuleMap("tau(F)", lambda g: [(g, ONE, _weight(F, frozen, g), IDENTITY)])


def op_tau_monomial(
    F: BiCylinderFunction,
    delta: ReducedWord,
    inner: Mapping[ReducedWord, CylinderFunction] | None = None,
) -> ModuleMap:
    return op_tau_F(F, inner) @ op_tau_gamma(delta)


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


def spanning_vectors(n: int, R: int, d: int) -> Iterable[tuple[str, ModuleVector]]:
    """Basis-style vectors: every bounded-depth indicator at every label
    in the ball, in deterministic shortlex order."""
    for g in ball(n, R):
        for f in spanning_indicators(n, d):
            desc = f"{f!r} at {g}"
            yield desc, ModuleVector.basis(n, f, g)


@dataclass(frozen=True)
class EqualityCertificate:
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


def maps_agree(
    T: ModuleMap, S: ModuleMap, n: int, R: int, d: int, description: str = ""
) -> EqualityCertificate:
    check_radius(R)
    check_depth(d)
    checked = 0
    first = None
    labels: list[str] = []
    for desc, xi in spanning_vectors(n, R, d):
        checked += 1
        if T(xi) == S(xi):
            continue
        if first is None:
            first = desc
        labels.append(desc)
    return EqualityCertificate(
        description or f"{T.name} = {S.name}",
        n, R, d, checked, first is None, first, tuple(labels[:16]),
    )


# -- decay and untwisting certificates -------------------------------

@dataclass(frozen=True)
class DecayCertificate:
    description: str
    radius: int
    threshold: int
    nonvanishing_labels: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "description": self.description,
            "radius": self.radius,
            "threshold": self.threshold,
            "nonvanishing_labels": self.nonvanishing_labels,
            "pass": self.passed,
        }


def decay_check(
    F: BiCylinderFunction,
    f: CylinderFunction,
    R: int,
    inner: Mapping[ReducedWord, CylinderFunction] | None = None,
    description: str = "",
) -> DecayCertificate:
    """At each label x, compare multiplying by the constant value of f
    near x against multiplying by f itself, weighted by the label's
    specialization of F; certify the difference dies beyond a threshold.
    """
    check_radius(R)
    n = f.rank
    frozen = _freeze_inner(inner)
    threshold = 0
    count = 0
    for x in ball(n, R):
        weight = _weight(F, frozen, x)
        diff = weight.scale(f.extend(x)) - weight * f
        if not diff.is_zero():
            count += 1
            threshold = max(threshold, len(x) + 1)
    return DecayCertificate(
        description or "decay of the near-constancy gap",
        R, threshold, count, threshold <= R,
    )


def iota_check(
    b: PairElement,
    f: CylinderFunction,
    R: int,
    d: int,
    inner_for: Callable[[ReducedWord], Mapping[ReducedWord, CylinderFunction]] | None = None,
) -> EqualityCertificate:
    """Compare the two untwisted pictures of multiplication by f under a
    two-variable coefficient: second-leg scalar extension against honest
    pointwise multiplication.  They must agree outside a finite label
    set no larger than the decay threshold allows."""
    n = f.rank
    checked = 0
    first = None
    bad: list[str] = []
    worst = 0
    max_shift = max((len(delta) for delta in b.terms), default=0)
    limit = 0
    for delta, F in sorted(b.terms.items(), key=lambda kv: kv[0].sort_key()):
        inner = inner_for(delta) if inner_for is not None else None
        T = op_tau_monomial(F, delta, inner) @ op_mult_label(f)
        S = op_tau_monomial(F, delta, inner) @ op_phi_function(f)
        cert = decay_check(F, f, R, inner)
        limit = max(limit, cert.threshold + max_shift)
        for desc, xi in spanning_vectors(n, R - max_shift, d):
            checked += 1
            delta_out = T(xi) - S(xi)
            if delta_out.is_zero():
                continue
            if first is None:
                first = desc
            bad.append(desc)
            worst = max(worst, max(len(g) for g in delta_out.entries))
    ok = worst <= limit
    return EqualityCertificate(
        "second-leg extension matches pointwise multiplication up to finite defect",
        n, R, d, checked, first is None or ok, first, tuple(bad[:16]),
    )


# -- the lifted shift ------------------------------------------------

def _shift_terms(n: int) -> list[tuple[ReducedWord, BiCylinderFunction, dict]]:
    """Each generator with its dual coefficient and the preferred
    small-ball values of that coefficient's specialization: at the
    origin it is the cylinder indicator itself."""
    return [(g, dual_coefficient(n, g), {IDENTITY: chi(n, g)}) for g in sphere(n, 1)]


def build_Vbar(n: int, drop: ReducedWord | None = None, perturb: ReducedWord | None = None) -> ModuleMap:
    """Sum over generators of the weighted forward label shift.

    The optional drop and perturb arguments are fault-injection hooks
    for sensitivity tests; production callers leave them unset.
    """
    terms = []
    for gamma, F, inner in _shift_terms(n):
        if drop is not None and gamma == drop:
            continue
        if perturb is not None and gamma == perturb:
            F = F.scale(Scalar.of(2))
        terms.append((gamma, F, _freeze_inner(inner)))

    def column(g: ReducedWord) -> Iterable[Term]:
        for gamma, F, frozen in terms:
            h = multiply(g, gamma.inverse())
            weight = _weight(F, frozen, h)
            if not weight.is_zero():
                yield h, ONE, weight, IDENTITY

    return ModuleMap("Vbar", column)


def build_Vbar_closed_form(n: int) -> ModuleMap:
    """Independent construction: each nonorigin label hands its
    coefficient, cut to its own cylinder, to its parent."""
    return ModuleMap(
        "Vbar-closed",
        lambda g: [(g.parent(), ONE, chi(n, g), IDENTITY)] if len(g) else [],
    )


def build_Pbar(n: int) -> ModuleMap:
    """Diagonal weight: at each label, the sum of all specialized dual
    coefficients, which is the indicator of the label's own cylinder."""
    terms = [(F, _freeze_inner(inner)) for _, F, inner in _shift_terms(n)]

    def column(g: ReducedWord) -> Iterable[Term]:
        total = CylinderFunction.zero(n)
        for F, frozen in terms:
            total = total + _weight(F, frozen, g)
        return [(g, ONE, total, IDENTITY)]

    return ModuleMap("Pbar", column)


def build_Fbar(n: int, drop: ReducedWord | None = None, perturb: ReducedWord | None = None) -> ModuleMap:
    """The lift Vbar - Pbar + 1, column by column."""
    V = build_Vbar(n, drop=drop, perturb=perturb)
    P = build_Pbar(n)

    def column(g: ReducedWord) -> Iterable[Term]:
        yield from V.column(g)
        # negate the scalar, not f: (-f) . x would be a new memoized product
        for h, c, f, gamma in P.column(g):
            yield h, -c, f, gamma
        yield g, ONE, None, IDENTITY

    return ModuleMap("Fbar", column)


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
    """
    Fb = build_Fbar(n, drop=drop, perturb=perturb)
    Wb = build_Wbar(n, R + 1)
    return maps_agree(Fb, Wb, n, R, d, "assembled lift equals fiberwise shift")
