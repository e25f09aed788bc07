import cProfile
import pstats
import tracemalloc

import pytest

from boundarylab.cli import _random_boundary_points
from boundarylab.config import DomainError, ResourceLimitError
from boundarylab.cylinders import CylinderFunction, chi
from boundarylab.jv import (
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
    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            translate_edge(W_("a"), IDENTITY)

    def test_bijection_count(self):
        for R in (1, 2, 3):
            assert len(edge_basis(2, R)) == len(ball(2, R)) - 1

    def test_translate_edge(self):
        e = translate_edge(W_("b"), W_("a"))
        assert e == W_("ba") and e.parent() == W_("b")
        assert translate_edge(W_("B"), e) == W_("a")

    @pytest.mark.parametrize("n", [2, 3])
    def test_edge_basis_is_the_ball_without_origin(self, n):
        for R in range(5):
            edges = edge_basis(n, R)
            assert edges == tuple(ball(n, R)[1:])
            assert all(type(e) is ReducedWord for e in edges)
            assert edge_basis(n, R) == edges

    def test_bases_keep_vertices_and_edges_apart(self):
        # an edge is a word, but no edge basis holds the origin and a ball's
        # vertex basis does, so mixing the two spaces is still rejected
        b, U = op_b(2, 3), op_U(B("(ab)"), 2, 3)
        for mixed in (lambda: b @ b, lambda: U @ U, lambda: b + b.adjoint()):
            with pytest.raises(DomainError):
                mixed()

    def test_tree_layer_call_budget(self, memo_tables):
        # function calls of the tree layer from empty memo tables; it reads
        # 78,896 under every hash seed
        for table in memo_tables.values():
            table.cache_clear()
        a = B("a(b)")
        profiler = cProfile.Profile()
        profiler.enable()
        index_b(2, 7)
        equivariance_defect(2, W_("ab"), 6)
        op_W(a, 2, 6)
        index_W(a, 2, 6)
        profiler.disable()
        assert pstats.Stats(profiler).total_calls <= 100_000


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

    def test_index_allocates_less_than_its_operator_holds(self):
        # b has one entry per row, so ranking either side holds no row of
        # it; the ball's words are built first, as they are not b's own
        ball(2, 8)
        tracemalloc.start()
        try:
            b = op_b(2, 8)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert exact_index(b, 8) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < held


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
            if len(k[0]) <= 2 and len(k[1]) <= 2
        }
        assert interior == {(W_("a"), IDENTITY): ONE, (W_("a"), W_("a")): -ONE}

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
        assert op_W(W_("ababab"), 2, 4).entries == op_W(B("(ab)"), 2, 4).entries

    def test_index_reuses_the_checked_fold(self, monkeypatch):
        # op_W then index_W on one boundary point folds b over the ball once;
        # a point not seen last is folded again, and a bad fold still raises
        from boundarylab import jv

        folds = []
        b_column = jv._b_column

        def counted(x):
            folds.append(x)
            return b_column(x)

        jv._last_shift.cache_clear()
        monkeypatch.setattr(jv, "_b_column", counted)
        a = B("(ab)")
        op_W(a, 2, 4)
        assert index_W(a, 2, 4) == 1
        assert len(folds) == len(ball(2, 4))
        op_W(B("(ba)"), 2, 4)
        assert len(folds) == 2 * len(ball(2, 4))
        monkeypatch.setattr(jv, "_b_column", lambda x: ())
        with pytest.raises(AssertionError):
            op_W(a, 2, 4)

    @pytest.mark.parametrize("length", [1, 4])
    def test_fold_fault_in_one_column_is_a_hard_error(self, monkeypatch, length):
        # b loses the parent edge of one vertex, next to the origin or on
        # the outer sphere; every column is checked, so both readers raise
        from boundarylab import jv

        x, b_column = sphere(2, length)[-1], jv._b_column
        jv._last_shift.cache_clear()
        monkeypatch.setattr(jv, "_b_column", lambda y: () if y == x else b_column(y))
        with pytest.raises(AssertionError):
            op_W(B("(ab)"), 2, 4)
        with pytest.raises(AssertionError):
            w_local_constancy(2, x, 4)

    def test_short_prefix_rejected(self):
        with pytest.raises(DomainError):
            op_W(W_("ab"), 2, 4)

    def test_w_equivariance_defect_finite(self):
        # conjugating the shift toward a by gamma gives the shift toward
        # gamma.a up to a finite-rank defect near the segment to gamma
        from boundarylab.operators import op_left, support_certificate
        from boundarylab.words import act

        for gamma in [W_("a"), W_("b"), W_("ab")]:
            a = B("(ba)") if str(gamma)[0] in "aA" else B("(aB)")
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

    def test_matches_column_of_full_shift(self):
        # the column at x read off op_W on the whole ball, for every ray
        from boundarylab.jv import LocalConstancyCertificate, _deep_extensions

        def from_full_shift(n, x, R):
            depth, cases, ok = max(len(x), 1), 0, True
            for u in sphere(n, depth):
                expected = w_column(u, x)
                for ray in _deep_extensions(u, R + 1):
                    cases += 1
                    col = {r: v for (r, c), v in op_W(ray, n, R).entries.items() if c == x}
                    ok = ok and (not col if expected is None else col == {expected: ONE})
            return LocalConstancyCertificate(str(x), depth, cases, ok)

        for n, R, labels in [(2, 3, ball(2, 3) + [W_("abab")]), (3, 2, ball(3, 1))]:
            for x in labels:
                assert w_local_constancy(n, x, R) == from_full_shift(n, x, R)

    def test_fold_mismatch_is_a_hard_error(self, monkeypatch):
        from boundarylab import jv

        monkeypatch.setattr(jv, "_b_column", lambda x: ())
        with pytest.raises(AssertionError):
            w_local_constancy(2, W_("a"), 3)

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

    def test_vanishing_terms_leave_no_entry(self):
        # chi_b at a lies off a's cylinder and the coefficient at B is
        # zero: neither leaves an entry at their parent, the origin
        chi_b = chi(2, W_("b"))
        out = wbar_apply({W_("a"): chi_b, W_("B"): CylinderFunction.zero(2)}, 2, 3)
        assert out == {W_("a"): chi_b}

    def test_label_outside_radius_rejected(self):
        with pytest.raises(DomainError):
            wbar_apply({W_("aaaa"): self.one()}, 2, 3)


def ref_closed_form_shift(a, n, R):
    """The closed-form shift as its entry loop built it."""
    vertices = ball(n, R)
    entries = {}
    for x in vertices:
        if not len(x):
            continue
        target = x.parent() if a.prefix(len(x)) == x else x
        entries[(target, x)] = ONE
    return TruncatedOperator(vertices, vertices, entries, R, 1)


SEEDED_RAYS = {n: _random_boundary_points(n, 4) for n in (2, 3)}


@pytest.mark.parametrize("n, R", [(2, 4), (3, 3)])
def test_closed_form_rule_matches_entry_loop(n, R):
    for a in SEEDED_RAYS[n] + [B("(ab)"), B("b(a)")]:
        W, ref = op_W_closed_form(a, n, R), ref_closed_form_shift(a, n, R)
        assert (W.domain, W.codomain) == (ref.domain, ref.codomain)
        assert list(W.entries.items()) == list(ref.entries.items())
        assert (W.radius, W.propagation) == (ref.radius, ref.propagation)


class TestRaysAsPrefixes:
    """A direction is read the same from a boundary point, from its
    (R + 1)-letter prefix and from any longer prefix."""

    @pytest.mark.parametrize("R", [3, 4, 5])
    @pytest.mark.parametrize("n", [2, 3])
    def test_point_and_prefixes_agree(self, n, R):
        for a in SEEDED_RAYS[n]:
            for direction in (a.prefix(R + 1), a.prefix(R + 4)):
                assert op_U(direction, n, R) == op_U(a, n, R)
                assert op_W_closed_form(direction, n, R) == op_W_closed_form(a, n, R)
                assert op_W(direction, n, R) == op_W(a, n, R)
                assert index_W(direction, n, R) == index_W(a, n, R) == 1

    @pytest.mark.parametrize("build", [op_U, op_W_closed_form, op_W, index_W])
    def test_short_prefix_rejected_before_any_column(self, build, monkeypatch):
        from boundarylab import jv

        columns = []
        on_columns = jv.on_columns

        def counted(cols, *args, **kwargs):
            columns.append(cols)
            return on_columns(cols, *args, **kwargs)

        monkeypatch.setattr(jv, "on_columns", counted)
        monkeypatch.setattr(jv, "_b_column", lambda x: columns.append(x) or ())
        a = SEEDED_RAYS[2][0]
        for R in (3, 4, 5):
            with pytest.raises(DomainError):
                build(a.prefix(R), 2, R)
        assert columns == []

    def test_not_a_direction(self):
        with pytest.raises(DomainError):
            op_W("(ab)", 2, 3)
