"""Symbolic *-algebra of the dense subalgebras attached to the boundary action.

One group-sum type, a finite sum of monomials F . u_k with nonzero
coefficients keyed by group element, with three choices of key and
action: one word acting on functions of one boundary variable
(``CrossedElement``), a pair of words acting leg by leg on functions of
two (``TensorElement``), and one word acting diagonally on functions of
two that vanish near the diagonal (``PairElement``).  The last is where
the dual element v, the projection chi, and w = v - chi live; the
inclusion into the two-leg algebra doubles the group leg.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


class _GroupSum:
    """A finite sum of monomials F . u_k: nonzero coefficients keyed by group element.

    A type states how a key translates a coefficient (``_act``) and, when
    its keys are not single words, how keys multiply and invert.
    """

    __slots__ = ("rank", "terms", "_hash")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # benchmarks/tracing.py wraps each type's arithmetic through vars(cls).
        for name in ("__add__", "__sub__", "__neg__", "__mul__", "star", "scale"):
            setattr(cls, name, vars(_GroupSum)[name])

    def __init__(self, rank: int, terms: Mapping):
        self.rank = rank
        self.terms = {k: F for k, F in terms.items() if not F.is_zero()}
        self._validate()
        self._hash = None

    @classmethod
    def zero(cls, rank: int):
        return cls(rank, {})

    @staticmethod
    def _key_mul(g: ReducedWord, h: ReducedWord) -> ReducedWord:
        return multiply(g, h)

    @staticmethod
    def _key_inv(g: ReducedWord) -> ReducedWord:
        return g.inverse()

    def _validate(self) -> None:
        pass

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and (self.rank, self.terms) == (other.rank, other.terms)

    def __hash__(self) -> int:
        # computed on first use: most sums are built, compared and dropped
        if self._hash is None:
            self._hash = hash((self.rank, frozenset(self.terms.items())))
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for k, F in other.terms.items():
            terms[k] = terms[k] + F if k in terms else F
        return type(self)(self.rank, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.rank, {k: -F for k, F in self.terms.items()})

    def __mul__(self, other):
        terms = {}
        for g, F in self.terms.items():
            for h, G in other.terms.items():
                prod = F * self._act(g, G)
                if prod.is_zero():
                    continue
                k = self._key_mul(g, h)
                terms[k] = terms[k] + prod if k in terms else prod
        return type(self)(self.rank, terms)

    def scale(self, c: Scalar):
        return type(self)(self.rank, {k: F.scale(c) for k, F in self.terms.items()})

    def star(self):
        terms = {}
        for g, F in self.terms.items():
            g_inv = self._key_inv(g)
            terms[g_inv] = self._act(g_inv, F.star())
        return type(self)(self.rank, terms)

    def __repr__(self) -> str:
        def legs(k):
            return (k,) if isinstance(k, ReducedWord) else k

        parts = [
            f"[{F!r}]" + "(x)".join(f"u({g})" for g in legs(k))
            for k, F in sorted(
                self.terms.items(), key=lambda t: [g.sort_key() for g in legs(t[0])]
            )
        ]
        return " + ".join(parts) or "0"


class CrossedElement(_GroupSum):
    """A finite sum of monomials (cylinder function) . u_gamma."""

    __slots__ = ()

    @staticmethod
    def _act(g: ReducedWord, f: CylinderFunction) -> CylinderFunction:
        return translate(g, f)

    @staticmethod
    def monomial(f: CylinderFunction, gamma: ReducedWord) -> "CrossedElement":
        return CrossedElement(f.rank, {gamma: f})

    def left_mul_function(self, f: CylinderFunction) -> "CrossedElement":
        return CrossedElement(self.rank, {g: f * k for g, k in self.terms.items()})

    def left_mul_unitary(self, gamma: ReducedWord) -> "CrossedElement":
        return CrossedElement(
            self.rank,
            {multiply(gamma, g): translate(gamma, f) for g, f in self.terms.items()},
        )


class TensorElement(_GroupSum):
    """A finite sum of monomials (bi-cylinder function) . (u_gamma (x) u_delta)."""

    __slots__ = ()

    @staticmethod
    def _key_mul(g: tuple, h: tuple) -> tuple[ReducedWord, ReducedWord]:
        return (multiply(g[0], h[0]), multiply(g[1], h[1]))

    @staticmethod
    def _key_inv(g: tuple) -> tuple[ReducedWord, ReducedWord]:
        return (g[0].inverse(), g[1].inverse())

    @staticmethod
    def _act(g: tuple, F: BiCylinderFunction) -> BiCylinderFunction:
        return translate_legs(F, g[0], g[1])


class PairElement(_GroupSum):
    """A finite sum of monomials F . u_gamma with F supported off the diagonal."""

    __slots__ = ()

    @staticmethod
    def _act(g: ReducedWord, F: BiCylinderFunction) -> BiCylinderFunction:
        return translate_diag(g, F)

    def _validate(self) -> None:
        for g, F in self.terms.items():
            if not F.vanishes_on_diagonal():
                raise ClosureError(
                    f"coefficient at u({g}) does not vanish near the diagonal"
                )


@dataclass(frozen=True)
class Unitized:
    """A formal scalar multiple of the unit plus a pair element."""

    scalar: Scalar
    element: PairElement

    def __mul__(self, other: "Unitized") -> "Unitized":
        x, y = self.element, other.element
        return Unitized(
            self.scalar * other.scalar,
            y.scale(self.scalar) + x.scale(other.scalar) + x * y,
        )

    def star(self) -> "Unitized":
        return Unitized(self.scalar.conj(), self.element.star())

    def is_unit(self) -> bool:
        return self.scalar == ONE and self.element.is_zero()


def adjoin_unit(x: PairElement) -> Unitized:
    return Unitized(ONE, x)


# -- the dual element and its identities ------------------------------

@lru_cache(maxsize=None)
def dual_coefficient(rank: int, gamma: ReducedWord) -> BiCylinderFunction:
    """The off-diagonal coefficient chi_gamma (x) (1 - chi_gamma), built
    once per (rank, gamma)."""
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
    blocks = diff.terms[g].uniform_blocks()
    key = min(blocks, key=lambda k: (k[0].sort_key(), k[1].sort_key()))
    return f"first discrepancy at u({g}), block ({key[0]}, {key[1]}): {blocks[key]}"


def verify_v_identities(rank: int) -> list[CheckResult]:
    """Exact checks: v*v = vv* = chi, chi a projection, w+1 unitary."""
    v = element_v(rank)
    c = element_chi(rank)
    w = v - c
    vs = v.star()
    out = []
    for name, lhs in (
        ("v*v == chi", vs * v),
        ("vv* == chi", v * vs),
        ("chi* == chi", c.star()),
        ("chi^2 == chi", c * c),
    ):
        ok = lhs == c
        out.append(CheckResult(name, ok, "" if ok else _first_discrepancy_pair(lhs, c)))
    u = adjoin_unit(w)
    for name, prod in (("(w+1)*(w+1) == 1", u.star() * u), ("(w+1)(w+1)* == 1", u * u.star())):
        ok = prod.is_unit()
        detail = "" if ok else (
            f"scalar {prod.scalar}, "
            + _first_discrepancy_pair(prod.element, PairElement.zero(rank))
        )
        out.append(CheckResult(name, ok, detail))
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
    if algebraic == geometric:
        return CheckResult("v geodesic test", True)
    return CheckResult(
        "v geodesic test",
        False,
        f"v({a}, {b}, {gamma}): algebraic {algebraic}, geometric {geometric}",
    )
