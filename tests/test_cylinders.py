import itertools

import pytest
from hypothesis import given, strategies as st

from boundarylab.config import DomainError
from boundarylab.cylinders import (
    CylinderFunction,
    chi,
    chi_tilde,
    extend_second,
    f_prime_value,
    parse_cylinder,
    tensor,
    translate,
    translate_diag,
)
from boundarylab.scalars import ONE, ZERO, Scalar
from boundarylab.words import (
    IDENTITY,
    BoundaryPoint,
    ReducedWord,
    act,
    ball,
    sphere,
)

W = ReducedWord.parse
B = BoundaryPoint.parse


def const1(n=2):
    return CylinderFunction.constant(n, ONE)


def indicators_depth_le(n, d):
    out = [const1(n)]
    for k in range(1, d + 1):
        out.extend(chi(n, u) for u in sphere(n, k))
    return out


class TestRefineCanonical:
    def test_refine_constant(self):
        f = const1().refine(2)
        assert f.table == {w: ONE for w in sphere(2, 2)}

    def test_refine_chi_a(self):
        f = chi(2, W("a")).refine(2)
        assert set(f.table) == {W("aa"), W("ab"), W("aB")}
        # prefix-test oracle over all depth-2 words
        for w in sphere(2, 2):
            expected = ONE if w.letters[0] == W("a").letters[0] else ZERO
            assert f.table.get(w, ZERO) == expected

    def test_refine_roundtrip_canonical(self):
        for f in indicators_depth_le(2, 2):
            refined = CylinderFunction(2, 3, f.refine(3).table)
            assert refined == f

    def test_canonical_uniqueness_random(self):
        # random tables, round-tripped through refinement, compare as functions
        import random

        rng = random.Random(7)
        points = [B("(ab)"), B("(Ba)"), B("b(A)"), B("(aab)"), B("A(b)")]
        for _ in range(30):
            tbl = {w: Scalar.of(rng.randint(-1, 1)) for w in sphere(2, 2)}
            f = CylinderFunction(2, 2, tbl)
            g = CylinderFunction(2, 3, f.refine(3).table)
            assert f == g
            for a in points:
                assert f.at_boundary(a) == g.at_boundary(a)


class TestPointwise:
    def test_disjoint_cylinders(self):
        assert (chi(2, W("a")) * chi(2, W("b"))).is_zero()

    def test_depth1_partition(self):
        total = CylinderFunction.zero(2)
        for u in sphere(2, 1):
            total = total + chi(2, u)
        assert total == const1()

    def test_partition_of_unity_depths(self):
        for d in (1, 2, 3):
            total = CylinderFunction.zero(2)
            for u in sphere(2, d):
                total = total + chi(2, u)
            assert total == const1()

    def test_mul_commutative_associative(self):
        fns = indicators_depth_le(2, 2)[:8]
        for f, g in itertools.product(fns, repeat=2):
            assert f * g == g * f
        for f, g, h in itertools.combinations(fns, 3):
            assert (f * g) * h == f * (g * h)

    def test_star_is_conjugation(self):
        f = chi(2, W("a")).scale(Scalar.of(0, 1))
        assert f.star() == chi(2, W("a")).scale(Scalar.of(0, -1))


class TestTranslate:
    def test_identity(self):
        f = chi(2, W("ab"))
        assert translate(IDENTITY, f) == f

    def test_against_boundary_action(self):
        points = [
            B("(ab)"), B("(ba)"), B("(aB)"), B("(Ab)"), B("b(a)"),
            B("(a)"), B("(b)"), B("(A)"), B("(B)"), B("aa(B)"),
            B("(abAB)"), B("Ba(ab)"), B("(bbA)"), B("ab(aab)"), B("(BA)"),
        ]
        for g in ball(2, 2):
            for f in [chi(2, W("a")), chi(2, W("ba")), const1()]:
                tf = translate(g, f)
                for a in points:
                    assert tf.at_boundary(a) == f.at_boundary(act(g.inverse(), a))

    def test_group_action_inverse(self):
        for g in ball(2, 3):
            for u in sphere(2, 1):
                f = chi(2, u)
                assert translate(g.inverse(), translate(g, f)) == f

    def test_automorphism_on_products(self):
        fns = indicators_depth_le(2, 2)
        for g in ball(2, 2):
            for f1, f2 in itertools.islice(itertools.product(fns, repeat=2), 60):
                assert translate(g, f1 * f2) == translate(g, f1) * translate(g, f2)


class TestChiExtend:
    def test_chi_at_boundary(self):
        assert chi(2, W("a")).at_boundary(B("(ab)")) == ONE

    def test_chi_identity_rejected(self):
        with pytest.raises(DomainError):
            chi(2, IDENTITY)

    def test_chi_tilde_cases(self):
        assert chi_tilde(W("a"), IDENTITY) == ZERO
        assert chi_tilde(W("a"), W("ab")) == ONE

    def test_extend_constant(self):
        assert const1().extend(IDENTITY) == ONE

    def test_extend_matches_chi_tilde_on_ball(self):
        for gamma in [W("a"), W("b"), W("Ab"), W("ba")]:
            f = chi(2, gamma)
            for x in ball(2, 4):
                assert f.extend(x) == chi_tilde(gamma, x)

    def test_oscillation_bound(self):
        # for depth-d f: extend agrees on x, y with |x| >= d + |g|, d(x,y) <= |g|
        from boundarylab.words import dist, multiply

        fns = [chi(2, W("a")), chi(2, W("ab")), chi(2, W("BA"))]
        for f in fns:
            d = f.depth
            for g in ball(2, 2):
                for x in ball(2, 6):
                    if len(x) < d + len(g):
                        continue
                    y = multiply(x, g.inverse())
                    assert dist(x, y) <= len(g)
                    assert f.extend(x) == f.extend(y)


class TestBiCylinder:
    def test_tensor_vanishes_on_diagonal(self):
        F = tensor(chi(2, W("a")), const1() - chi(2, W("a")))
        assert F.vanishes_on_diagonal()

    def test_constant_does_not_vanish(self):
        assert not tensor(const1(), const1()).vanishes_on_diagonal()

    def test_flip_involution(self):
        F = tensor(chi(2, W("a")), chi(2, W("ba")))
        assert F.flip().flip() == F

    def test_diagonal_blocks_checked_at_refinement(self):
        # chi_a (x) chi_ab meets the diagonal only via nested blocks
        F = tensor(chi(2, W("a")), chi(2, W("ab")))
        assert not F.vanishes_on_diagonal()
        G = tensor(chi(2, W("a")), chi(2, W("ba")))
        assert G.vanishes_on_diagonal()

    def test_algebra_matches_pointwise(self):
        pts = [(B("(ab)"), B("(ba)")), (B("(a)"), B("b(a)")), (B("(aB)"), B("(Ab)"))]
        F = tensor(chi(2, W("a")), const1() - chi(2, W("a")))
        G = tensor(chi(2, W("ab")), chi(2, W("b")))
        for a, b in pts:
            assert (F + G).at_boundary(a, b) == F.at_boundary(a, b) + G.at_boundary(a, b)
            assert (F * G).at_boundary(a, b) == F.at_boundary(a, b) * G.at_boundary(a, b)
            assert F.flip().at_boundary(a, b) == F.at_boundary(b, a)

    def test_translate_diag_matches_action(self):
        F = tensor(chi(2, W("a")), const1() - chi(2, W("a")))
        pts = [(B("(ab)"), B("(ba)")), (B("(b)"), B("A(b)")), (B("(aB)"), B("(Ab)"))]
        for g in ball(2, 2):
            tF = translate_diag(g, F)
            for a, b in pts:
                assert tF.at_boundary(a, b) == F.at_boundary(act(g.inverse(), a), act(g.inverse(), b))


class TestFPrime:
    def f_a(self, n=2):
        return tensor(chi(n, W("a")), CylinderFunction.constant(n, ONE) - chi(n, W("a")))

    def dual_inner(self, n, gamma):
        # the preferred extension of the dual coefficient: value chi_gamma at e
        return {IDENTITY: chi(n, gamma)}

    def test_closed_form_formula(self):
        # F~'(c, g) = 1 iff ga in [e, c) and g does not end in a^-1
        F = self.f_a()
        inner = self.dual_inner(2, W("a"))
        a_letter = W("a").letters[0]
        for g in ball(2, 3):
            fp = f_prime_value(F, g, inner)
            ga = g * W("a")
            claims_one = (
                not (g.letters and g.letters[-1] == a_letter.inverse())
                and len(ga) == len(g) + 1
            )
            if claims_one:
                assert fp == chi(2, ga)
            else:
                assert fp.is_zero()

    def test_at_identity(self):
        fp = f_prime_value(self.f_a(), IDENTITY, self.dual_inner(2, W("a")))
        assert fp == chi(2, W("a"))

    def test_at_inverse_generator(self):
        fp = f_prime_value(self.f_a(), W("A"), self.dual_inner(2, W("a")))
        assert fp.is_zero()

    def test_default_policy_zero_inside_ball(self):
        assert f_prime_value(self.f_a(), IDENTITY).is_zero()

    def test_extend_second_requires_offdiagonal(self):
        with pytest.raises(DomainError):
            extend_second(tensor(const1(), const1()))

    def test_extend_second_value(self):
        fn = extend_second(self.f_a(), self.dual_inner(2, W("a")))
        assert fn(W("b")) == chi(2, W("ba"))


class TestParser:
    def test_literals(self):
        assert parse_cylinder("chi(a)", 2) == chi(2, W("a"))
        assert parse_cylinder("1 - chi(a)", 2) == const1() - chi(2, W("a"))
        assert parse_cylinder("chi(a)*chi(ab)", 2) == chi(2, W("ab"))
        assert parse_cylinder("1", 2) == const1()

    def test_bad_literal(self):
        with pytest.raises(DomainError):
            parse_cylinder("chi(a) +", 2)


@given(st.lists(st.sampled_from(["a", "b", "A", "B"]), min_size=0, max_size=3))
def test_translate_depth_bound(path):
    g = ReducedWord.parse("".join(path)) if path else IDENTITY
    f = chi(2, W("ab"))
    assert translate(g, f).depth <= f.depth + len(g)
