import dataclasses
import itertools

import pytest

from boundarylab import operators
from boundarylab.config import DomainError, ResourceLimitError
from boundarylab.cylinders import CylinderFunction, chi
from boundarylab.operators import (
    TruncatedOperator,
    commutator,
    conjugation_symmetry_check,
    exact_index,
    exact_rank,
    lambda_monomial,
    lambda_rho_commute_check,
    op_inversion,
    op_left,
    op_mult,
    op_mult_inverted,
    op_right,
    operator_rank,
    rho_monomial,
    support_certificate,
)
from boundarylab.scalars import MINUS_ONE, ONE, ZERO, Scalar
from boundarylab.words import IDENTITY, ReducedWord, ball

W = ReducedWord.parse
R0 = 4


def one(n=2):
    return CylinderFunction.constant(n, ONE)


class TestBasicStructure:
    def test_identity_composes(self):
        I = TruncatedOperator.identity(ball(2, 2), 2)
        L = op_left(2, W("a"), 2)
        assert I @ L == L
        assert L @ I == L

    def test_adjoint_involution(self):
        L = op_left(2, W("ab"), 3)
        assert L.adjoint().adjoint() == L

    def test_adjoint_reverses_products(self):
        L = op_left(2, W("a"), 3)
        M = op_mult(chi(2, W("b")), 3)
        assert (M @ L).adjoint() == L.adjoint() @ M.adjoint()

    def test_left_translations_compose_on_interior(self):
        La = op_left(2, W("a"), R0)
        Lb = op_left(2, W("b"), R0)
        Lab = op_left(2, W("ab"), R0)
        diff = La @ Lb - Lab
        cert = support_certificate(diff, R0 - 2)
        assert cert.rank == 0

    def test_inversion_is_selfadjoint_involution(self):
        I = op_inversion(2, 3)
        assert I == I.adjoint()
        assert I @ I == TruncatedOperator.identity(ball(2, 3), 3)

    def test_entries_outside_basis_rejected(self):
        basis = ball(2, 1)
        with pytest.raises(DomainError):
            TruncatedOperator(basis, basis, {(W("aa"), IDENTITY): ONE}, 1)

    def test_mult_is_diagonal_with_extension_values(self):
        f = chi(2, W("a"))
        M = op_mult(f, 3)
        for x in ball(2, 3):
            assert M.entry(x, x) == f.extend(x)

    def test_inverted_mult(self):
        f = chi(2, W("a"))
        M = op_mult_inverted(f, 3)
        assert M.entry(W("A"), W("A")) == ONE
        assert M.entry(W("a"), W("a")) == ZERO


class TestExactRank:
    def test_known_small_matrices(self):
        one_ = ONE
        two = Scalar.of(2)
        i = Scalar.of(0, 1)
        assert exact_rank([{0: one_, 1: one_}, {0: one_, 1: MINUS_ONE}]) == 2
        assert exact_rank([{0: one_, 1: two}, {0: two, 1: Scalar.of(4)}]) == 1
        assert exact_rank([{0: i, 1: one_}, {0: one_, 1: Scalar.of(0, -1)}]) == 1
        assert exact_rank([]) == 0
        assert exact_rank([{}]) == 0

    def test_permutation_full_rank(self):
        L = op_inversion(2, 2)
        assert operator_rank(L) == len(ball(2, 2))

    def test_rank_one_projection(self):
        basis = ball(2, 1)
        entries = {(r, c): ONE for r in basis for c in basis}
        T = TruncatedOperator(basis, basis, entries, 1, 0)
        assert operator_rank(T) == 1


class TestCommutators:
    def test_mult_right_translation_support_bound(self):
        # multiplication by a depth-d extension and right translation by g
        # commute outside the ball of radius d + |g| - 1
        cases = [
            (chi(2, W("a")), W("b")),
            (chi(2, W("ab")), W("a")),
            (chi(2, W("a")), W("ab")),
            (chi(2, W("Ba")), W("bA")),
        ]
        for f, g in cases:
            M = op_mult(f, R0 + 1)
            Rg = op_right(2, g, R0 + 1)
            cert = support_certificate(
                commutator(M, Rg), R0 + 1 - len(g)
            )
            assert cert.support_radius <= f.depth + len(g) - 1

    def test_mult_left_translation_does_not_commute(self):
        M = op_mult(chi(2, W("a")), R0)
        La = op_left(2, W("b"), R0)
        assert not commutator(M, La).is_zero()

    def test_lambda_rho_certificates(self):
        fs = [one(), chi(2, W("a"))]
        gs = [one(), chi(2, W("b"))]
        words = [IDENTITY, W("a"), W("B")]
        for f, gamma, g, delta in itertools.product(fs, words, gs, words):
            cert = lambda_rho_commute_check(f, gamma, g, delta, R0 + 1)
            assert cert.exact
            assert cert.support_radius <= f.depth + g.depth + len(gamma) + len(delta)

    def test_lambda_rho_certificate_carries_bound(self):
        cert = lambda_rho_commute_check(chi(2, W("a")), W("a"), chi(2, W("b")), W("B"), R0 + 1)
        assert cert.bound == 4 and cert.within_bound
        assert "bound" not in cert.to_json_dict()

    def test_lambda_rho_violation_is_a_failed_certificate(self, monkeypatch):
        real = operators.support_certificate
        monkeypatch.setattr(
            operators, "support_certificate",
            lambda *a, **k: dataclasses.replace(real(*a, **k), support_radius=99),
        )
        cert = lambda_rho_commute_check(chi(2, W("a")), W("a"), one(), IDENTITY, R0 + 1)
        assert cert.support_radius == 99 and cert.bound == 2
        assert not cert.within_bound

    def test_lambda_rho_radius_guard(self):
        with pytest.raises(ResourceLimitError):
            lambda_rho_commute_check(chi(2, W("ab")), W("ab"), one(), IDENTITY, 4)

    def test_conjugation_swaps_sides(self):
        fs = [one(), chi(2, W("a"))]
        words = [IDENTITY, W("a"), W("b")]
        for f, gamma in itertools.product(fs, words):
            for g, delta in itertools.product(fs, words):
                assert conjugation_symmetry_check(f, gamma, g, delta, R0)

    def test_conjugation_single_monomial(self):
        I = op_inversion(2, R0)
        lam = lambda_monomial(chi(2, W("a")), W("b"), R0)
        assert I @ lam @ I == rho_monomial(chi(2, W("a")), W("b"), R0)


class TestIndex:
    def basepoint_annihilator(self, R):
        # kills the basepoint vector and matches every other vertex with
        # itself in a codomain that has no basepoint slot; index 1
        domain = ball(2, R)
        codomain = tuple(x for x in domain if len(x))
        entries = {(x, x): ONE for x in codomain}
        return TruncatedOperator(domain, codomain, entries, R, 0)

    def test_translation_index_zero(self):
        for r in (1, 2):
            assert exact_index(op_left(2, W("a"), R0), r) == 0
            assert exact_index(op_right(2, W("ab"), R0), r) == 0

    def test_propagation_guard(self):
        with pytest.raises(DomainError):
            exact_index(op_left(2, W("a"), 3), 3)
        with pytest.raises(DomainError):
            exact_index(op_inversion(2, 3), 1)

    def test_basepoint_annihilator_index(self):
        assert exact_index(self.basepoint_annihilator(R0), 2) == 1

    def test_index_stable_in_radius(self):
        vals = {exact_index(self.basepoint_annihilator(R), 1) for R in (2, 3, 4)}
        assert vals == {1}


class TestDiagnostics:
    def test_certificate_json(self):
        cert = support_certificate(op_mult(chi(2, W("a")), 2), 2, "mult")
        d = cert.to_json_dict()
        assert d["exact"] is True and d["description"] == "mult"
