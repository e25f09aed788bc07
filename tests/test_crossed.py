from __future__ import annotations

import itertools
import random
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from boundarylab.crossed import (
    ClosureError,
    CrossedElement,
    PairElement,
    TensorElement,
    adjoin_unit,
    bar_sigma,
    dual_coefficient,
    element_chi,
    element_v,
    element_w,
    flip_sigma,
    geodesic_v_check,
    include_i,
    verify_conjugate_flip,
    verify_v_identities,
)
from boundarylab.cylinders import (
    BiCylinderFunction,
    CylinderFunction,
    chi,
    tensor,
    translate,
    translate_diag,
    translate_legs,
)
from boundarylab.scalars import MINUS_ONE, ONE, Scalar
from boundarylab.words import (
    IDENTITY,
    BoundaryPoint,
    ReducedWord,
    ball,
    generators,
    multiply,
    sphere,
)

W = ReducedWord.parse
B = BoundaryPoint.parse


def unitary(rank: int, gamma: ReducedWord) -> CrossedElement:
    return CrossedElement.monomial(CylinderFunction.constant(rank, ONE), gamma)


def monomials(n=2):
    """All f u_g with f a depth-<=1 indicator (or 1) and |g| <= 1."""
    fns = [CylinderFunction.constant(n, ONE)] + [chi(n, u) for u in sphere(n, 1)]
    words = [IDENTITY] + sphere(n, 1)
    return [CrossedElement.monomial(f, g) for f in fns for g in words]


class TestCrossedAlgebra:
    def test_unitaries_multiply(self):
        u = unitary(2, W("ab"))
        assert u * unitary(2, W("BA")) == unitary(2, IDENTITY)

    def test_star_of_monomial(self):
        x = CrossedElement.monomial(chi(2, W("a")), W("a"))
        expected = CrossedElement.monomial(translate(W("A"), chi(2, W("a"))), W("A"))
        assert x.star() == expected

    def test_star_involution_and_pointwise(self):
        pts = [B("(ab)"), B("(Ba)"), B("b(a)"), B("(A)")] + [
            B(f"({p})") for p in ("a", "b", "B", "aB", "bA", "ba", "ab", "AB",
                                  "Ab", "BA", "aab", "abb", "bba", "BBa", "AAb",
                                  "BaB", "aBB", "bAA", "baa", "bab")
        ]
        from boundarylab.words import act

        x = CrossedElement.monomial(chi(2, W("a")), W("a"))
        assert x.star().star() == x
        # (chi_a u_a)* has coefficient translate(a^-1, chi_a); evaluate both
        coeff = x.star().terms[W("A")]
        for a in pts[:20]:
            assert coeff.at_boundary(a) == chi(2, W("a")).at_boundary(act(W("a"), a))

    def test_associativity_monomials(self):
        ms = monomials()
        for x, y, z in itertools.islice(itertools.product(ms, repeat=3), 0, None, 7):
            assert (x * y) * z == x * (y * z)

    def test_star_antimultiplicative(self):
        ms = monomials()
        for x, y in itertools.islice(itertools.product(ms, repeat=2), 0, None, 3):
            assert (x * y).star() == y.star() * x.star()

    def test_distributive(self):
        ms = monomials()[:8]
        for x, y, z in itertools.islice(itertools.product(ms, repeat=3), 0, None, 11):
            assert x * (y + z) == x * y + x * z


class TestPairTensorAlgebra:
    def test_pair_closure_enforced(self):
        diag = tensor(chi(2, W("a")), chi(2, W("a")))
        with pytest.raises(ClosureError):
            PairElement(2, {IDENTITY: diag})

    def test_pair_products_stay_offdiagonal(self):
        v = element_v(2)
        for x in (v, v * v, v.star() * v, v * v.star()):
            for F in x.terms.values():
                assert F.vanishes_on_diagonal()

    def test_tensor_star_involution(self):
        x = include_i(element_v(2))
        assert x.star().star() == x

    def test_include_i_homomorphism_on_monomials(self):
        coeffs = [dual_coefficient(2, g) for g in generators(2)]
        words = [IDENTITY] + sphere(2, 1)
        mons = [
            PairElement(2, {g: F}) for F in coeffs for g in words
        ]
        for x, y in itertools.islice(itertools.product(mons, repeat=2), 0, None, 5):
            assert include_i(x * y) == include_i(x) * include_i(y)
            assert include_i(x).star() == include_i(x.star())

    def test_include_i_chi_support(self):
        assert set(include_i(element_chi(2)).terms) == {(IDENTITY, IDENTITY)}

    def test_flip_sigma_involution(self):
        x = include_i(element_w(2))
        assert flip_sigma(flip_sigma(x)) == x

    def test_flip_sigma_intertwines_bar_sigma(self):
        for xi in (element_v(2), element_chi(2), element_w(2)):
            assert flip_sigma(include_i(xi)) == include_i(bar_sigma(xi))

    def test_bar_sigma_star_compatible(self):
        for xi in (element_v(2), element_chi(2), element_w(2)):
            assert bar_sigma(xi.star()) == bar_sigma(xi).star()

    def test_bar_sigma_fixes_chi(self):
        assert bar_sigma(element_chi(2)) == element_chi(2)


class TestDualElement:
    def test_v_coefficient_at_a(self):
        v = element_v(2)
        one = CylinderFunction.constant(2, ONE)
        assert v.terms[W("a")] == tensor(chi(2, W("a")), one - chi(2, W("a")))

    def test_chi_support_and_offdiagonal(self):
        c = element_chi(2)
        assert set(c.terms) == {IDENTITY}
        assert c.terms[IDENTITY].vanishes_on_diagonal()

    def test_w_plus_chi_is_v(self):
        assert element_w(2) + element_chi(2) == element_v(2)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_v_identities(self, rank):
        for res in verify_v_identities(rank):
            assert res.passed, f"{res.check_id}: {res.detail}"

    def test_v_identities_multiply_each_pair_once(self, monkeypatch):
        # v*v, vv*, c*c and the two products of w + 1 with its adjoint
        calls = []
        mul = PairElement.__mul__

        def counted(x, y):
            calls.append((x, y))
            return mul(x, y)

        monkeypatch.setattr(PairElement, "__mul__", counted)
        results = verify_v_identities(2)
        assert len(calls) == 5
        assert all(r.passed and r.detail == "" for r in results)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_conjugate_flip(self, rank):
        res = verify_conjugate_flip(rank)
        assert res.passed, res.detail

    def test_unitized_sanity(self):
        u = adjoin_unit(PairElement.zero(2))
        assert (u * u).is_unit()


class TestGeodesicCharacterization:
    def rays(self):
        return {
            "a": B("(a)"), "b": B("(b)"), "A": B("(A)"), "B": B("(B)"),
        }

    def test_opposite_first_letters(self):
        r = self.rays()
        res = geodesic_v_check(2, r["a"], r["b"], W("a"))
        assert res.passed
        # and both sides are 1 here
        assert dual_coefficient(2, W("a")).at_boundary(r["a"], r["b"]) == ONE

    def test_shared_first_letter_misses_origin(self):
        res = geodesic_v_check(2, B("(ab)"), B("a(b)"), W("a"))
        assert res.passed
        assert dual_coefficient(2, W("a")).at_boundary(B("(ab)"), B("a(b)")) == Scalar()

    def test_exhaustive_first_letter_classes(self):
        r = self.rays()
        for a_key, b_key in itertools.product(r, repeat=2):
            a, b = r[a_key], r[b_key]
            if a == b:
                continue
            for g in generators(2):
                assert geodesic_v_check(2, a, b, g).passed

    def test_passing_result_has_fixed_id_and_no_detail(self):
        r = self.rays()
        res = geodesic_v_check(2, r["a"], r["b"], W("a"))
        other = geodesic_v_check(2, r["B"], r["A"], W("b"))
        assert res.passed and other.passed
        assert res.check_id == other.check_id and res.detail == other.detail == ""

    def test_failing_detail_names_the_points(self, monkeypatch):
        import boundarylab.crossed as crossed

        monkeypatch.setattr(crossed, "dual_coefficient", lambda n, g: BiCylinderFunction.zero(n))
        res = geodesic_v_check(2, B("(ab)"), B("(B)"), W("a"))
        assert not res.passed
        assert res.detail == "v((ab), (B), a): algebraic 0, geometric 1"


# -- the per-class loops as reference for the shared group-sum type ----

class RefCrossed:
    """CrossedElement as three separate classes wrote it: the reference."""

    __slots__ = ("rank", "terms", "_hash")

    def __init__(self, rank: int, terms: Mapping[ReducedWord, CylinderFunction]):
        self.rank = rank
        self.terms = {g: f for g, f in terms.items() if not f.is_zero()}
        self._hash = hash((rank, frozenset(self.terms.items())))

    @staticmethod
    def zero(rank: int) -> "RefCrossed":
        return RefCrossed(rank, {})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RefCrossed)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "RefCrossed") -> "RefCrossed":
        terms = dict(self.terms)
        for g, f in other.terms.items():
            terms[g] = terms[g] + f if g in terms else f
        return RefCrossed(self.rank, terms)

    def __sub__(self, other: "RefCrossed") -> "RefCrossed":
        return self + (-other)

    def __neg__(self) -> "RefCrossed":
        return RefCrossed(self.rank, {g: -f for g, f in self.terms.items()})

    def __mul__(self, other: "RefCrossed") -> "RefCrossed":
        terms: dict[ReducedWord, CylinderFunction] = {}
        for g, f in self.terms.items():
            for h, k in other.terms.items():
                prod = f * translate(g, k)
                if prod.is_zero():
                    continue
                gh = multiply(g, h)
                terms[gh] = terms[gh] + prod if gh in terms else prod
        return RefCrossed(self.rank, terms)

    def scale(self, c: Scalar) -> "RefCrossed":
        return RefCrossed(self.rank, {g: f.scale(c) for g, f in self.terms.items()})

    def star(self) -> "RefCrossed":
        terms = {}
        for g, f in self.terms.items():
            terms[g.inverse()] = translate(g.inverse(), f.star())
        return RefCrossed(self.rank, terms)

    def __repr__(self) -> str:
        parts = [
            f"[{f!r}]u({g})"
            for g, f in sorted(self.terms.items(), key=lambda t: t[0].sort_key())
        ]
        return " + ".join(parts) or "0"


class RefTensor:
    """TensorElement as three separate classes wrote it: the reference."""

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
    def zero(rank: int) -> "RefTensor":
        return RefTensor(rank, {})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RefTensor)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "RefTensor") -> "RefTensor":
        terms = dict(self.terms)
        for k, F in other.terms.items():
            terms[k] = terms[k] + F if k in terms else F
        return RefTensor(self.rank, terms)

    def __sub__(self, other: "RefTensor") -> "RefTensor":
        return self + (-other)

    def __neg__(self) -> "RefTensor":
        return RefTensor(self.rank, {k: -F for k, F in self.terms.items()})

    def __mul__(self, other: "RefTensor") -> "RefTensor":
        terms: dict[tuple[ReducedWord, ReducedWord], BiCylinderFunction] = {}
        for (g1, g2), F in self.terms.items():
            for (h1, h2), G in other.terms.items():
                prod = F * translate_legs(G, g1, g2)
                if prod.is_zero():
                    continue
                k = (multiply(g1, h1), multiply(g2, h2))
                terms[k] = terms[k] + prod if k in terms else prod
        return RefTensor(self.rank, terms)

    def scale(self, c: Scalar) -> "RefTensor":
        return RefTensor(self.rank, {k: F.scale(c) for k, F in self.terms.items()})

    def star(self) -> "RefTensor":
        terms = {}
        for (g1, g2), F in self.terms.items():
            k = (g1.inverse(), g2.inverse())
            terms[k] = translate_legs(F.star(), g1.inverse(), g2.inverse())
        return RefTensor(self.rank, terms)

    def __repr__(self) -> str:
        parts = [
            f"[{F!r}]u({g1})(x)u({g2})"
            for (g1, g2), F in sorted(
                self.terms.items(), key=lambda t: (t[0][0].sort_key(), t[0][1].sort_key())
            )
        ]
        return " + ".join(parts) or "0"


class RefPair:
    """PairElement as three separate classes wrote it: the reference."""

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
    def zero(rank: int) -> "RefPair":
        return RefPair(rank, {})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RefPair)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "RefPair") -> "RefPair":
        terms = dict(self.terms)
        for g, F in other.terms.items():
            terms[g] = terms[g] + F if g in terms else F
        return RefPair(self.rank, terms)

    def __sub__(self, other: "RefPair") -> "RefPair":
        return self + (-other)

    def __neg__(self) -> "RefPair":
        return RefPair(self.rank, {g: -F for g, F in self.terms.items()})

    def __mul__(self, other: "RefPair") -> "RefPair":
        terms: dict[ReducedWord, BiCylinderFunction] = {}
        for g, F in self.terms.items():
            for h, G in other.terms.items():
                prod = F * translate_diag(g, G)
                if prod.is_zero():
                    continue
                gh = multiply(g, h)
                terms[gh] = terms[gh] + prod if gh in terms else prod
        return RefPair(self.rank, terms)

    def scale(self, c: Scalar) -> "RefPair":
        return RefPair(self.rank, {g: F.scale(c) for g, F in self.terms.items()})

    def star(self) -> "RefPair":
        terms = {}
        for g, F in self.terms.items():
            terms[g.inverse()] = translate_diag(g.inverse(), F.star())
        return RefPair(self.rank, terms)

    def __repr__(self) -> str:
        parts = [
            f"[{F!r}]u({g})"
            for g, F in sorted(self.terms.items(), key=lambda t: t[0].sort_key())
        ]
        return " + ".join(parts) or "0"


SCALARS = [ONE, MINUS_ONE, Scalar.of(0, 1), Scalar.of(2, -1)]
TYPES = {
    "crossed": (CrossedElement, RefCrossed),
    "tensor": (TensorElement, RefTensor),
    "pair": (PairElement, RefPair),
}


def random_function(rng, n):
    """A scaled indicator of a cylinder of length <= 2, or a constant."""
    words = ball(n, 2)
    u = rng.choice(words)
    f = CylinderFunction.constant(n, ONE) if u == IDENTITY else chi(n, u)
    return f.scale(rng.choice(SCALARS))


def random_coefficient(rng, n, kind):
    """chi for the crossed product; tensor or dual coefficients for two
    variables, only off-diagonal ones for the pair algebra."""
    if kind == "crossed":
        return random_function(rng, n)
    choice = rng.randrange(3)
    if choice == 0:
        F = dual_coefficient(n, rng.choice(generators(n)))
        F = F.flip() if rng.randrange(2) else F
    elif choice == 1 or kind == "pair":
        u, v = rng.sample(sphere(n, rng.choice([1, 2])), 2)
        F = tensor(chi(n, u), chi(n, v))
    else:
        F = tensor(random_function(rng, n), random_function(rng, n))
    return F.scale(rng.choice(SCALARS))


def random_terms(rng, n, kind):
    words = ball(n, 2)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.choice(words)
        if kind == "tensor":
            k = (k, rng.choice(words))
        terms[k] = random_coefficient(rng, n, kind)
    return terms


def same(new, ref):
    assert new.rank == ref.rank
    assert new.terms == ref.terms
    assert repr(new) == repr(ref)
    assert hash(new) == hash(ref)


@settings(max_examples=90, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from(sorted(TYPES)), st.integers(0, 2**32))
def test_group_sum_matches_per_class_reference(n, kind, seed):
    rng = random.Random(seed)
    new, ref = TYPES[kind]
    tx, ty = random_terms(rng, n, kind), random_terms(rng, n, kind)
    x, y, X, Y = new(n, tx), new(n, ty), ref(n, tx), ref(n, ty)
    c = rng.choice(SCALARS)
    same(x, X)
    same(x + y, X + Y)
    same(x - y, X - Y)
    same(-x, -X)
    same(x * y, X * Y)
    same(y * x, Y * X)
    same(x.star(), X.star())
    same(x.scale(c), X.scale(c))
    assert (x == y) == (X == Y)
    assert (x * y == y * x) == (X * Y == Y * X)
    reordered = new(n, dict(reversed(list(tx.items()))))
    assert reordered == x and hash(reordered) == hash(x)
    assert x - x == new.zero(n) and x != X


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32))
def test_pair_validator_matches_reference(n, seed):
    rng = random.Random(seed)
    F = tensor(random_function(rng, n), random_function(rng, n))
    g = rng.choice(ball(n, 2))

    def closes(cls):
        try:
            cls(n, {g: F})
        except ClosureError:
            return False
        return True

    assert closes(PairElement) == closes(RefPair)


def test_zeros_are_type_strict():
    zeros = [cls.zero(2) for cls in (CrossedElement, PairElement, TensorElement)]
    for a, b in itertools.combinations(zeros, 2):
        assert a != b and b != a
    assert CrossedElement.zero(2) == CrossedElement(2, {W("a"): chi(2, W("a")).scale(Scalar())})


def test_lazy_hash_agrees_across_constructors():
    # the hash is computed on first use, so equal values built by
    # different routes hash equal and key one dict entry
    n = 2
    a, b = W("a"), W("b")
    x = CrossedElement(n, {a: chi(n, b), IDENTITY: chi(n, a)})
    v, c = element_v(n), element_chi(n)
    groups = [
        [
            x,
            CrossedElement.monomial(chi(n, a), IDENTITY) + CrossedElement.monomial(chi(n, b), a),
            x.scale(Scalar.of(2)) - x,
            x.star().star(),
        ],
        [v, PairElement(n, dict(reversed(list(v.terms.items())))), (v - c) + c, bar_sigma(bar_sigma(v))],
        [
            include_i(v),
            flip_sigma(flip_sigma(include_i(v))),
            TensorElement(n, {(g, g): dual_coefficient(n, g) for g in generators(n)}),
        ],
    ]
    table = {}
    for group in groups:
        for y in group:
            assert y == group[0] and hash(y) == hash(group[0])
            assert hash(y) == hash(y)
            table.setdefault(y, []).append(y)
        assert table[group[-1]] == group
    assert len(table) == len(groups)


def test_repr_tells_word_keys_from_tensor_keys():
    # a word is itself a tuple of letters, so a key is a tensor key only
    # when it is not a word
    f = chi(2, W("a"))
    F = tensor(f, f)
    assert repr(CrossedElement.monomial(f, W("ab"))) == f"[{f!r}]u(ab)"
    assert repr(TensorElement(2, {(W("a"), W("B")): F})) == f"[{F!r}]u(a)(x)u(B)"
    G = dual_coefficient(2, W("b"))
    assert repr(PairElement(2, {W("b"): G})) == f"[{G!r}]u(b)"
