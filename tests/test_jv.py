import pytest

from boundarylab.config import DomainError, ResourceLimitError
from boundarylab.cylinders import CylinderFunction, chi
from boundarylab.jv import (
    Edge,
    RayContext,
    edge_basis,
    equivariance_defect,
    index_W,
    index_b,
    op_U,
    op_W,
    op_W_closed_form,
    op_b,
    op_left_edges,
    op_left_vertices,
    translate_edge,
    w_column,
    w_local_constancy,
    wbar_apply,
)
from boundarylab.operators import (
    TruncatedOperator,
    exact_index,
    kernel_dimension,
    operator_rank,
    support_certificate,
)
from boundarylab.scalars import ONE
from boundarylab.words import IDENTITY, BoundaryPoint, ReducedWord, ball, sphere

W_ = ReducedWord.parse
B = BoundaryPoint.parse


class TestEdges:
    def test_edge_of_generator(self):
        e = Edge(W_("a"))
        assert e.endpoints == (IDENTITY, W_("a"))

    def test_edge_of_longer_word(self):
        e = Edge(W_("ab"))
        assert e.endpoints == (W_("a"), W_("ab"))

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            Edge(IDENTITY)

    def test_bijection_count(self):
        for R in (1, 2, 3):
            assert len(edge_basis(2, R)) == len(ball(2, R)) - 1

    def test_translate_edge(self):
        e = translate_edge(W_("b"), Edge(W_("a")))
        assert e.endpoints == (W_("b"), W_("ba"))
        back = translate_edge(W_("B"), e)
        assert back == Edge(W_("a"))


class TestOpB:
    def test_kills_origin(self):
        b = op_b(2, 3)
        assert all(col != IDENTITY for (_, col) in b.entries)

    def test_bstar_b_is_one_minus_origin_projection(self):
        for R in (2, 3, 4, 5):
            b = op_b(2, R)
            vertices = ball(2, R)
            proj = TruncatedOperator(
                vertices, vertices, {(IDENTITY, IDENTITY): ONE}, R, 0
            )
            assert b.adjoint() @ b + proj == TruncatedOperator.identity(vertices, R)

    def test_b_bstar_is_identity_on_edges(self):
        for R in (2, 3, 4, 5):
            b = op_b(2, R)
            assert b @ b.adjoint() == TruncatedOperator.identity(edge_basis(2, R), R)

    @pytest.mark.parametrize("R", [3, 4, 5])
    def test_index_one(self, R):
        assert index_b(2, R) == 1

    def test_index_one_rank3(self):
        assert index_b(3, 3) == 1


class TestEquivarianceDefect:
    def test_identity_gives_zero(self):
        cert = equivariance_defect(2, IDENTITY, 3)
        assert cert.rank == 0 and cert.support_radius == 0

    def test_generator_defect_rank_one(self):
        cert = equivariance_defect(2, W_("a"), 4)
        assert cert.rank == 1

    def test_generator_defect_entries(self):
        b = op_b(2, 4)
        conj = op_left_edges(2, W_("a"), 4) @ b @ op_left_vertices(2, W_("A"), 4)
        defect = conj - b
        interior = {
            k: v
            for k, v in defect.entries.items()
            if k[0].norm <= 2 and len(k[1]) <= 2
        }
        ea = Edge(W_("a"))
        assert interior == {(ea, IDENTITY): ONE, (ea, W_("a")): -ONE}

    @pytest.mark.parametrize("gamma", ["a", "ab", "aba"])
    def test_rank_at_most_length(self, gamma):
        g = W_(gamma)
        cert = equivariance_defect(2, g, 3 * len(g))
        assert cert.rank <= len(g)

    def test_radius_guard(self):
        with pytest.raises(ResourceLimitError):
            equivariance_defect(2, W_("ab"), 5)

    def test_radius_cap(self):
        with pytest.raises(ResourceLimitError):
            equivariance_defect(2, W_("a"), 13)

    def test_rank_and_support_equal_length(self):
        # observed: the defect of every word up to length 4 has rank and
        # support radius exactly |gamma| at R = 3|gamma|
        for k in (1, 2, 3, 4):
            for g in sphere(2, k):
                cert = equivariance_defect(2, g, 3 * k)
                assert (cert.rank, cert.support_radius) == (k, k), g


def full_ball_defect(n, g, R):
    """The defect certificate from the three factors truncated to the whole
    ball(n, R), as `equivariance_defect` built it before it was restricted
    to the certified columns."""
    b = op_b(n, R)
    conj = op_left_edges(n, g, R) @ b @ op_left_vertices(n, g.inverse(), R)
    return support_certificate(
        conj - b, R - 2 * len(g), f"conjugation defect of b by {g} at R={R}"
    )


class TestColumnRestrictedCertificates:
    """The certificates built on the columns they read agree with the
    ones built on the whole ball."""

    @pytest.mark.parametrize(
        "n, g, R",
        [(2, g, R) for k in (1, 2) for g in sphere(2, k) for R in (3 * k, 3 * k + 1)]
        + [(3, g, 3) for g in sphere(3, 1)]
        + [(2, W_("abA"), 9)],
        ids=str,
    )
    def test_defect_matches_full_ball(self, n, g, R):
        assert equivariance_defect(n, g, R) == full_ball_defect(n, g, R)

    @pytest.mark.parametrize("R", [3, 4, 5, 6])
    def test_index_matches_full_ball(self, R):
        assert index_b(2, R) == exact_index(op_b(2, R), R - 1) == 1

    def test_exact_index_matches_adjoint(self):
        T = op_U(B("(ab)"), 2, 4) @ op_b(2, 4)
        adj = T.adjoint()
        for r in (1, 2, 3):
            dom = {x for x in T.domain if len(x) <= r}
            cod = {x for x in T.codomain if len(x) <= r}
            assert exact_index(T, r) == kernel_dimension(T, dom) - kernel_dimension(adj, cod)

    def test_fold_matches_full_ball(self):
        for a in (B("(ab)"), B("(A)"), B("b(a)"), B("(abAB)")):
            composed = op_U(a, 2, 5) @ op_b(2, 5)
            assert op_W(a, 2, 5).entries == composed.entries


class TestWField:
    def rays(self):
        return [
            B("(ab)"), B("(a)"), B("(b)"), B("(A)"), B("(B)"),
            B("(ba)"), B("(aB)"), B("b(a)"), B("(abAB)"), B("aa(b)"),
        ]

    def test_display_values(self):
        W4 = op_W(B("(ab)"), 2, 4)
        assert W4.entry(IDENTITY, W_("a")) == ONE
        assert W4.entry(W_("b"), W_("b")) == ONE
        assert all(col != IDENTITY for (_, col) in W4.entries)
        assert W4.entry(W_("a"), W_("ab")) == ONE

    def test_two_constructions_agree(self):
        for a in self.rays():
            U = op_U(a, 2, 4)
            assert (U @ op_b(2, 4)).entries == op_W_closed_form(a, 2, 4).entries

    def test_U_is_bijective_on_edges(self):
        for a in self.rays()[:4]:
            U = op_U(a, 2, 3)
            assert operator_rank(U) == len(edge_basis(2, 3))

    @pytest.mark.parametrize("R", [3, 4, 5])
    def test_index_one(self, R):
        assert index_W(B("(ab)"), 2, R) == 1

    def test_index_matches_b(self):
        for a in self.rays()[:5]:
            assert index_W(a, 2, 4) == index_b(2, 4) == 1

    def test_wstar_w_on_interior(self):
        a = B("(ab)")
        Wt = op_W(a, 2, 4)
        P = Wt.adjoint() @ Wt
        for x in ball(2, 3):
            expected = ONE if len(x) else ONE - ONE
            assert P.entry(x, x) == expected

    def test_finite_prefix_context(self):
        ray = RayContext(W_("ababab"))
        assert op_W(ray, 2, 4).entries == op_W(B("(ab)"), 2, 4).entries

    def test_short_prefix_rejected(self):
        with pytest.raises(DomainError):
            op_W(RayContext(W_("ab")), 2, 4)

    def test_w_equivariance_defect_finite(self):
        # conjugating the shift toward a by gamma gives the shift toward
        # gamma.a up to a finite-rank defect near the segment to gamma
        from boundarylab.operators import op_left, support_certificate
        from boundarylab.words import act

        for gamma in [W_("a"), W_("b"), W_("ab")]:
            a = B("(ba)") if gamma.letters[0].index == 0 else B("(aB)")
            R = 4 + 2 * len(gamma)
            Wa = op_W(act(gamma, a), 2, R)
            Winner = op_W(a, 2, R)
            conj = op_left(2, gamma, R) @ Winner @ op_left(2, gamma.inverse(), R)
            cert = support_certificate(conj - Wa, R - 2 * len(gamma))
            assert cert.rank <= 2 * len(gamma) + 1
            assert cert.support_radius <= 2 * len(gamma)


class TestLocalConstancy:
    def test_origin_column_constant(self):
        cert = w_local_constancy(2, IDENTITY, 3)
        assert cert.passed

    def test_generator_column_four_cases(self):
        cert = w_local_constancy(2, W_("a"), 3)
        assert cert.passed and cert.depth == 1

    def test_all_labels_in_small_ball(self):
        for x in ball(2, 3):
            assert w_local_constancy(2, x, 3).passed

    def test_w_column_values(self):
        assert w_column(W_("ab"), W_("a")) == IDENTITY
        assert w_column(W_("ab"), W_("b")) == W_("b")
        assert w_column(W_("ab"), IDENTITY) is None


class TestWbarApply:
    def one(self, n=2):
        return CylinderFunction.constant(n, ONE)

    def test_unit_at_generator(self):
        out = wbar_apply({W_("a"): self.one()}, 2, 4)
        assert out == {
            IDENTITY: chi(2, W_("a")),
            W_("a"): self.one() - chi(2, W_("a")),
        }

    def test_unit_at_origin_vanishes(self):
        assert wbar_apply({IDENTITY: self.one()}, 2, 4) == {}

    def test_unit_at_other_generator(self):
        out = wbar_apply({W_("b"): self.one()}, 2, 4)
        assert out == {
            IDENTITY: chi(2, W_("b")),
            W_("b"): self.one() - chi(2, W_("b")),
        }

    def test_matches_shift_on_cylinder_slices(self):
        # evaluating the family at a boundary point must reproduce the
        # scalar shift toward that point
        pts = [B("(ab)"), B("(Ba)"), B("b(a)"), B("(A)")]
        family = {g: chi(2, W_("a")) if len(g) % 2 else self.one() for g in ball(2, 2)}
        out = wbar_apply(family, 2, 3)
        for a in pts:
            shifted = {}
            for g, f in family.items():
                val = f.at_boundary(a)
                if not val:
                    continue
                target = w_column(a.prefix(max(len(g), 1)), g)
                if target is None:
                    continue
                shifted[target] = shifted.get(target, ONE - ONE) + val
            produced = {
                h: f.at_boundary(a) for h, f in out.items() if f.at_boundary(a)
            }
            shifted = {h: v for h, v in shifted.items() if v}
            assert produced == shifted

    def test_label_outside_radius_rejected(self):
        with pytest.raises(DomainError):
            wbar_apply({W_("aaaa"): self.one()}, 2, 3)
