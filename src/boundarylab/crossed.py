"""Symbolic *-algebra of the dense subalgebras attached to the boundary action.

Three element types, all finite sums with cylinder-function coefficients:
group-algebra elements over the boundary (one boundary variable), over
the product of two boundaries with two group legs, and over the
off-diagonal part of the product with a single diagonal group leg.  The
third is where the dual element v, the projection chi, and w = v - chi
live; the inclusion into the two-leg algebra doubles the group leg.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .config import DomainError
from .cylinders import (
    BiCylinderFunction,
    CylinderFunction,
    chi,
    tensor,
    translate,
    translate_diag,
    translate_legs,
)
from .scalars import ONE, Scalar
from .words import (
    IDENTITY,
    BoundaryPoint,
    ReducedWord,
    generators,
    meet,
    multiply,
)


class ClosureError(RuntimeError):
    """An algebra operation produced a coefficient outside the subalgebra."""


class CrossedElement:
    """A finite sum of monomials (cylinder function) . u_gamma."""

    __slots__ = ("rank", "terms", "_hash")

    def __init__(self, rank: int, terms: Mapping[ReducedWord, CylinderFunction]):
        self.rank = rank
        self.terms = {g: f for g, f in terms.items() if not f.is_zero()}
        self._hash = hash((rank, frozenset(self.terms.items())))

    @staticmethod
    def zero(rank: int) -> "CrossedElement":
        return CrossedElement(rank, {})

    @staticmethod
    def one(rank: int) -> "CrossedElement":
        return CrossedElement(rank, {IDENTITY: CylinderFunction.constant(rank, ONE)})

    @staticmethod
    def monomial(f: CylinderFunction, gamma: ReducedWord) -> "CrossedElement":
        return CrossedElement(f.rank, {gamma: f})

    @staticmethod
    def unitary(rank: int, gamma: ReducedWord) -> "CrossedElement":
        return CrossedElement.monomial(CylinderFunction.constant(rank, ONE), gamma)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CrossedElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        terms = dict(self.terms)
        for g, f in other.terms.items():
            terms[g] = terms[g] + f if g in terms else f
        return CrossedElement(self.rank, terms)

    def __sub__(self, other: "CrossedElement") -> "CrossedElement":
        return self + (-other)

    def __neg__(self) -> "CrossedElement":
        return CrossedElement(self.rank, {g: -f for g, f in self.terms.items()})

    def __mul__(self, other: "CrossedElement") -> "CrossedElement":
        terms: dict[ReducedWord, CylinderFunction] = {}
        for g, f in self.terms.items():
            for h, k in other.terms.items():
                prod = f * translate(g, k)
                if prod.is_zero():
                    continue
                gh = multiply(g, h)
                terms[gh] = terms[gh] + prod if gh in terms else prod
        return CrossedElement(self.rank, terms)

    def scale(self, c: Scalar) -> "CrossedElement":
        return CrossedElement(self.rank, {g: f.scale(c) for g, f in self.terms.items()})

    def left_mul_function(self, f: CylinderFunction) -> "CrossedElement":
        return CrossedElement(self.rank, {g: f * k for g, k in self.terms.items()})

    def left_mul_unitary(self, gamma: ReducedWord) -> "CrossedElement":
        return CrossedElement(
            self.rank,
            {multiply(gamma, g): translate(gamma, f) for g, f in self.terms.items()},
        )

    def star(self) -> "CrossedElement":
        terms = {}
        for g, f in self.terms.items():
            terms[g.inverse()] = translate(g.inverse(), f.star())
        return CrossedElement(self.rank, terms)

    def __repr__(self) -> str:
        parts = [
            f"[{f!r}]u({g})"
            for g, f in sorted(self.terms.items(), key=lambda t: t[0].sort_key())
        ]
        return " + ".join(parts) or "0"


class TensorElement:
    """A finite sum of monomials (bi-cylinder function) . (u_gamma (x) u_delta)."""

    __slots__ = ("rank", "terms", "_hash")

    def __init__(
        self,
        rank: int,
        terms: Mapping[tuple[ReducedWord, ReducedWord], BiCylinderFunction],
    ):
        self.rank = rank
        self.terms = {k: F for k, F in terms.items() if not F.is_zero()}
        self._hash = hash((rank, frozenset(self.terms.items())))

    @staticmethod
    def zero(rank: int) -> "TensorElement":
        return TensorElement(rank, {})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TensorElement") -> "TensorElement":
        terms = dict(self.terms)
        for k, F in other.terms.items():
            terms[k] = terms[k] + F if k in terms else F
        return TensorElement(self.rank, terms)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def __neg__(self) -> "TensorElement":
        return TensorElement(self.rank, {k: -F for k, F in self.terms.items()})

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        terms: dict[tuple[ReducedWord, ReducedWord], BiCylinderFunction] = {}
        for (g1, g2), F in self.terms.items():
            for (h1, h2), G in other.terms.items():
                prod = F * translate_legs(G, g1, g2)
                if prod.is_zero():
                    continue
                k = (multiply(g1, h1), multiply(g2, h2))
                terms[k] = terms[k] + prod if k in terms else prod
        return TensorElement(self.rank, terms)

    def star(self) -> "TensorElement":
        terms = {}
        for (g1, g2), F in self.terms.items():
            k = (g1.inverse(), g2.inverse())
            terms[k] = translate_legs(F.star(), g1.inverse(), g2.inverse())
        return TensorElement(self.rank, terms)

    def __repr__(self) -> str:
        parts = [
            f"[{F!r}]u({g1})(x)u({g2})"
            for (g1, g2), F in sorted(
                self.terms.items(), key=lambda t: (t[0][0].sort_key(), t[0][1].sort_key())
            )
        ]
        return " + ".join(parts) or "0"


class PairElement:
    """A finite sum of monomials F . u_gamma with F supported off the diagonal."""

    __slots__ = ("rank", "terms", "_hash")

    def __init__(self, rank: int, terms: Mapping[ReducedWord, BiCylinderFunction]):
        checked = {}
        for g, F in terms.items():
            if F.is_zero():
                continue
            if not F.vanishes_on_diagonal():
                raise ClosureError(
                    f"coefficient at u({g}) does not vanish near the diagonal"
                )
            checked[g] = F
        self.rank = rank
        self.terms = checked
        self._hash = hash((rank, frozenset(checked.items())))

    @staticmethod
    def zero(rank: int) -> "PairElement":
        return PairElement(rank, {})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PairElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PairElement") -> "PairElement":
        terms = dict(self.terms)
        for g, F in other.terms.items():
            terms[g] = terms[g] + F if g in terms else F
        return PairElement(self.rank, terms)

    def __sub__(self, other: "PairElement") -> "PairElement":
        return self + (-other)

    def __neg__(self) -> "PairElement":
        return PairElement(self.rank, {g: -F for g, F in self.terms.items()})

    def __mul__(self, other: "PairElement") -> "PairElement":
        terms: dict[ReducedWord, BiCylinderFunction] = {}
        for g, F in self.terms.items():
            for h, G in other.terms.items():
                prod = F * translate_diag(g, G)
                if prod.is_zero():
                    continue
                gh = multiply(g, h)
                terms[gh] = terms[gh] + prod if gh in terms else prod
        return PairElement(self.rank, terms)

    def star(self) -> "PairElement":
        terms = {}
        for g, F in self.terms.items():
            terms[g.inverse()] = translate_diag(g.inverse(), F.star())
        return PairElement(self.rank, terms)

    def __repr__(self) -> str:
        parts = [
            f"[{F!r}]u({g})"
            for g, F in sorted(self.terms.items(), key=lambda t: t[0].sort_key())
        ]
        return " + ".join(parts) or "0"


@dataclass(frozen=True)
class Unitized:
    """A formal scalar multiple of the unit plus a pair element."""

    scalar: Scalar
    element: PairElement

    def __mul__(self, other: "Unitized") -> "Unitized":
        return Unitized(self.scalar * other.scalar, _unitized_cross(self, other))

    def star(self) -> "Unitized":
        return Unitized(self.scalar.conj(), self.element.star())

    def is_unit(self) -> bool:
        return self.scalar == ONE and self.element.is_zero()


def _unitized_cross(x: Unitized, y: Unitized) -> PairElement:
    scaled_y = PairElement(
        y.element.rank, {g: F.scale(x.scalar) for g, F in y.element.terms.items()}
    )
    scaled_x = PairElement(
        x.element.rank, {g: F.scale(y.scalar) for g, F in x.element.terms.items()}
    )
    return scaled_y + scaled_x + x.element * y.element


def adjoin_unit(x: PairElement) -> Unitized:
    return Unitized(ONE, x)


# -- the dual element and its identities ------------------------------

def dual_coefficient(rank: int, gamma: ReducedWord) -> BiCylinderFunction:
    """The off-diagonal coefficient chi_gamma (x) (1 - chi_gamma)."""
    one = CylinderFunction.constant(rank, ONE)
    return tensor(chi(rank, gamma), one - chi(rank, gamma))


def element_v(rank: int) -> PairElement:
    """The partial isometry encoding geodesics through the origin."""
    return PairElement(
        rank, {g: dual_coefficient(rank, g) for g in generators(rank)}
    )


def element_chi(rank: int) -> PairElement:
    """The projection: indicator of pairs whose geodesic passes through e."""
    total = BiCylinderFunction.zero(rank)
    for g in generators(rank):
        total = total + dual_coefficient(rank, g)
    return PairElement(rank, {IDENTITY: total})


def element_w(rank: int) -> PairElement:
    return element_v(rank) - element_chi(rank)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"check": self.check_id, "pass": self.passed, "detail": self.detail}


def _first_discrepancy_pair(x: PairElement, y: PairElement) -> str:
    diff = x - y
    if diff.is_zero():
        return ""
    g = min(diff.terms, key=ReducedWord.sort_key)
    F = diff.terms[g]
    key = min(F.table, key=lambda k: (k[0].sort_key(), k[1].sort_key()))
    return f"first discrepancy at u({g}), block ({key[0]}, {key[1]}): {F.table[key]}"


def verify_v_identities(rank: int) -> list[CheckResult]:
    """Exact checks: v*v = vv* = chi, chi a projection, w+1 unitary."""
    v = element_v(rank)
    c = element_chi(rank)
    w = v - c
    out = []

    vsv, vvs = v.star() * v, v * v.star()
    out.append(
        CheckResult(
            "v*v == chi", vsv == c, _first_discrepancy_pair(vsv, c)
        )
    )
    out.append(
        CheckResult(
            "vv* == chi", vvs == c, _first_discrepancy_pair(vvs, c)
        )
    )
    out.append(
        CheckResult("chi* == chi", c.star() == c, _first_discrepancy_pair(c.star(), c))
    )
    out.append(
        CheckResult("chi^2 == chi", c * c == c, _first_discrepancy_pair(c * c, c))
    )
    u = adjoin_unit(w)
    left = u.star() * u
    right = u * u.star()
    out.append(
        CheckResult(
            "(w+1)*(w+1) == 1",
            left.is_unit(),
            "" if left.is_unit() else f"scalar {left.scalar}, "
            + _first_discrepancy_pair(left.element, PairElement.zero(rank)),
        )
    )
    out.append(
        CheckResult(
            "(w+1)(w+1)* == 1",
            right.is_unit(),
            "" if right.is_unit() else f"scalar {right.scalar}, "
            + _first_discrepancy_pair(right.element, PairElement.zero(rank)),
        )
    )
    return out


def include_i(xi: PairElement) -> TensorElement:
    """The inclusion doubling the group leg: F u_g -> F (u_g (x) u_g)."""
    return TensorElement(xi.rank, {(g, g): F for g, F in xi.terms.items()})


def flip_sigma(xi: TensorElement) -> TensorElement:
    """Swap the two tensor legs, flipping each coefficient."""
    return TensorElement(
        xi.rank, {(g2, g1): F.flip() for (g1, g2), F in xi.terms.items()}
    )


def bar_sigma(xi: PairElement) -> PairElement:
    """The involution induced by swapping the two boundary variables."""
    return PairElement(xi.rank, {g: F.flip() for g, F in xi.terms.items()})


def verify_conjugate_flip(rank: int) -> CheckResult:
    """bar_sigma(v - chi) equals v* - chi, exactly."""
    v = element_v(rank)
    c = element_chi(rank)
    lhs = bar_sigma(v - c)
    rhs = v.star() - c
    return CheckResult(
        "sigma-flip of (v - chi) == v* - chi",
        lhs == rhs,
        _first_discrepancy_pair(lhs, rhs),
    )


def geodesic_v_check(
    rank: int, a: BoundaryPoint, b: BoundaryPoint, gamma: ReducedWord
) -> CheckResult:
    """Compare the tensor coefficient of v with the geodesic description.

    The coefficient at gamma evaluated at (a, b) should be 1 exactly
    when the geodesic from a to b passes through e with its (-1) vertex
    equal to gamma.
    """
    if len(gamma) != 1:
        raise DomainError("the dual element is supported on length-one words")
    if a == b:
        raise DomainError("diagonal pair has no connecting geodesic")
    algebraic = dual_coefficient(rank, gamma).at_boundary(a, b)
    passes_origin = meet(a, b) == IDENTITY
    geometric = ONE if (passes_origin and a.prefix(1) == gamma) else Scalar()
    return CheckResult(
        f"v({a}, {b}, {gamma}) geodesic test",
        algebraic == geometric,
        f"algebraic {algebraic}, geometric {geometric}",
    )
