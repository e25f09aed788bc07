import itertools

import pytest

from boundarylab.config import DomainError
from boundarylab.crossed import CrossedElement, PairElement, dual_coefficient
from boundarylab.cylinders import CylinderFunction, chi, tensor
from boundarylab.modules import (
    ModuleMap,
    ModuleVector,
    build_Fbar,
    build_Pbar,
    build_Vbar,
    build_Vbar_closed_form,
    build_Wbar,
    conjugate_by_U,
    final_identity_check,
    inner_product,
    iota_check,
    decay_check,
    maps_agree,
    op_mult_label,
    op_phi,
    op_phi_function,
    op_phi_unitary,
    op_tau_F,
    op_tau_gamma,
    spanning_vectors,
    untwist_U,
    untwist_U_star,
)
from boundarylab.scalars import ONE, Scalar
from boundarylab.words import IDENTITY, ReducedWord, ball, generators, sphere

W = ReducedWord.parse


def one(n=2):
    return CylinderFunction.constant(n, ONE)


def unit_at(g, n=2):
    return ModuleVector.basis(n, one(n), g)


def F_a(n=2):
    return dual_coefficient(n, W("a"))


def inner_a(n=2):
    return {IDENTITY: chi(n, W("a"))}


class TestModuleVector:
    def test_inner_product_orthonormal(self):
        e_g = unit_at(W("ab"))
        e_h = unit_at(W("b"))
        assert inner_product(e_g, e_g) == CrossedElement.one(2)
        assert inner_product(e_g, e_h).is_zero()

    def test_inner_product_right_compatible(self):
        a = CrossedElement.monomial(chi(2, W("a")), W("b"))
        xi = unit_at(W("a")) + unit_at(W("b"))
        eta = unit_at(W("a"))
        assert inner_product(xi, eta.act(a)) == inner_product(xi, eta) * a

    def test_adjoint_side_of_action(self):
        a = CrossedElement.monomial(chi(2, W("a")), W("b"))
        xi = unit_at(W("a"))
        eta = unit_at(W("a")) + unit_at(W("ab"))
        assert inner_product(xi.act(a), eta) == a.star() * inner_product(xi, eta)

    def test_zero_entries_dropped(self):
        v = ModuleVector(2, {IDENTITY: CrossedElement.zero(2)})
        assert v.is_zero()


class TestPhi:
    def test_identity_map(self):
        xi = unit_at(W("ab"))
        assert op_phi(CrossedElement.one(2))(xi) == xi

    def test_generator_on_basis(self):
        out = op_phi_unitary(W("a"))(unit_at(IDENTITY))
        assert out == ModuleVector(
            2, {W("a"): CrossedElement.unitary(2, W("a"))}
        )

    def test_multiplicative_on_unitaries(self):
        for g, h in itertools.product([W("a"), W("b"), W("A")], repeat=2):
            T = op_phi_unitary(g) @ op_phi_unitary(h)
            S = op_phi_unitary(g * h)
            cert = maps_agree(T, S, 2, 3, 1)
            assert cert.equal, cert.first_discrepancy

    def test_covariance(self):
        f = chi(2, W("b"))
        for g in generators(2):
            from boundarylab.cylinders import translate

            T = op_phi_unitary(g) @ op_phi_function(f) @ op_phi_unitary(g.inverse())
            S = op_phi_function(translate(g, f))
            assert maps_agree(T, S, 2, 3, 1).equal

    def test_right_linearity(self):
        a = CrossedElement.monomial(chi(2, W("a")), W("b"))
        x = CrossedElement.monomial(chi(2, W("b")), W("a"))
        for _, xi in itertools.islice(spanning_vectors(2, 2, 1), 0, None, 5):
            assert op_phi(x)(xi.act(a)) == op_phi(x)(xi).act(a)


class TestTau:
    def test_tau_gamma_shifts_labels(self):
        out = op_tau_gamma(W("a"))(unit_at(W("a")))
        assert out == unit_at(IDENTITY)

    def test_tau_gamma_inverse(self):
        T = op_tau_gamma(W("ab")) @ op_tau_gamma(W("BA"))
        assert maps_agree(T, ModuleMap.identity(), 2, 2, 1).equal

    def test_tau_F_at_origin(self):
        out = op_tau_F(F_a(), inner_a())(unit_at(IDENTITY))
        assert out == ModuleVector.basis(2, chi(2, W("a")), IDENTITY)

    def test_tau_F_requires_offdiagonal(self):
        with pytest.raises(DomainError):
            op_tau_F(tensor(one(), one()))

    def test_tau_ranges_commute_with_phi_function_weights(self):
        # diagonal multiplications commute with each other
        T = op_tau_F(F_a(), inner_a()) @ op_phi_function(chi(2, W("b")))
        S = op_phi_function(chi(2, W("b"))) @ op_tau_F(F_a(), inner_a())
        assert maps_agree(T, S, 2, 3, 1).equal

    def test_right_linearity(self):
        a = CrossedElement.monomial(chi(2, W("a")), W("b"))
        T = op_tau_F(F_a(), inner_a()) @ op_tau_gamma(W("a"))
        for _, xi in itertools.islice(spanning_vectors(2, 2, 1), 0, None, 3):
            assert T(xi.act(a)) == T(xi).act(a)


class TestUntwist:
    def test_on_basis(self):
        out = untwist_U()(unit_at(W("ab")))
        assert out == ModuleVector(2, {W("ab"): CrossedElement.unitary(2, W("ab"))})

    def test_unitary_inner_products(self):
        U = untwist_U()
        vecs = [
            unit_at(W("a")),
            unit_at(W("ab")) + unit_at(W("b")).scale(Scalar.of(0, 1)),
            ModuleVector.basis(2, chi(2, W("a")), W("B")),
        ]
        for xi, eta in itertools.product(vecs, repeat=2):
            assert inner_product(U(xi), U(eta)) == inner_product(xi, eta)

    def test_u_star_inverts(self):
        T = untwist_U() @ untwist_U_star()
        assert maps_agree(T, ModuleMap.identity(), 2, 2, 1).equal

    def test_conjugated_label_shift_twists_coefficients(self):
        # pushing the plain label shift through the untwisting picks up
        # the comparison unitary between neighboring labels
        g = W("a")
        T = conjugate_by_U(op_tau_gamma(g))
        xi = unit_at(W("b"))
        out = T(xi)
        expected = CrossedElement.unitary(2, W("bA")) * CrossedElement.unitary(
            2, W("b")
        ).star()
        assert out == ModuleVector(2, {W("bA"): expected})


class TestDecay:
    def test_constant_f_no_gap(self):
        cert = decay_check(F_a(), one(), 6, inner_a())
        assert cert.passed and cert.threshold == 0

    def test_indicator_gap_threshold(self):
        cert = decay_check(F_a(), chi(2, W("a")), 6, inner_a())
        assert cert.passed
        assert 0 < cert.threshold <= 4

    def test_all_depth_two_thresholds_bounded(self):
        fs = [chi(2, u) for u in list(sphere(2, 1)) + list(sphere(2, 2))]
        for gamma in generators(2):
            F = dual_coefficient(2, gamma)
            inner = {IDENTITY: chi(2, gamma)}
            for f in fs:
                cert = decay_check(F, f, 6, inner)
                assert cert.passed and cert.threshold <= 4


class TestIota:
    def test_monomial_pass(self):
        b = PairElement(2, {IDENTITY: F_a()})
        cert = iota_check(b, chi(2, W("b")), 6, 1, lambda d: inner_a())
        assert cert.equal

    def test_constant_exact(self):
        b = PairElement(2, {IDENTITY: F_a()})
        cert = iota_check(b, one(), 5, 1, lambda d: inner_a())
        assert cert.equal and cert.first_discrepancy is None

    def test_shifted_monomial_pass(self):
        b = PairElement(2, {W("a"): F_a()})
        cert = iota_check(b, chi(2, W("a")), 6, 1, lambda d: inner_a())
        assert cert.equal


class TestLiftedShift:
    def test_vbar_on_generator_basis(self):
        out = build_Vbar(2)(unit_at(W("a")))
        assert out == ModuleVector.basis(2, chi(2, W("a")), IDENTITY)

    def test_vbar_matches_closed_form(self):
        cert = maps_agree(build_Vbar(2), build_Vbar_closed_form(2), 2, 3, 2)
        assert cert.equal, cert.first_discrepancy

    def test_pbar_on_generator_basis(self):
        out = build_Pbar(2)(unit_at(W("a")))
        assert out == ModuleVector.basis(2, chi(2, W("a")), W("a"))

    def test_fbar_on_generator_basis(self):
        out = build_Fbar(2)(unit_at(W("a")))
        assert out == ModuleVector(
            2,
            {
                IDENTITY: CrossedElement.monomial(chi(2, W("a")), IDENTITY),
                W("a"): CrossedElement.monomial(one() - chi(2, W("a")), IDENTITY),
            },
        )

    def test_fbar_kills_origin_basis(self):
        assert build_Fbar(2)(unit_at(IDENTITY)).is_zero()

    def test_vbar_isometry_onto_pbar_range(self):
        # inner products against the diagonal weight: lifted echo of the
        # partial-isometry identities, valid away from the origin label,
        # whose fiber the shift kills
        V = build_Vbar(2)
        P = build_Pbar(2)
        vecs = [
            xi for _, xi in spanning_vectors(2, 2, 1) if IDENTITY not in xi.entries
        ]
        for xi, eta in itertools.islice(itertools.product(vecs, repeat=2), 0, None, 7):
            assert inner_product(V(xi), V(eta)) == inner_product(xi, P(eta))

    def test_vbar_origin_defect(self):
        # at the origin the isometry identity has the same exception as
        # the tree shift: the shifted vector vanishes while the diagonal
        # weight is the constant one
        xi = unit_at(IDENTITY)
        assert build_Vbar(2)(xi).is_zero()
        assert inner_product(xi, build_Pbar(2)(xi)) == CrossedElement.one(2)

    def test_wbar_reference_on_basis(self):
        out = build_Wbar(2, 4)(unit_at(W("b")))
        assert out == ModuleVector(
            2,
            {
                IDENTITY: CrossedElement.monomial(chi(2, W("b")), IDENTITY),
                W("b"): CrossedElement.monomial(one() - chi(2, W("b")), IDENTITY),
            },
        )

    def test_wbar_respects_unitary_parts(self):
        xi = ModuleVector(2, {W("a"): CrossedElement.monomial(one(), W("b"))})
        out = build_Wbar(2, 3)(xi)
        assert set(out.entries) == {IDENTITY, W("a")}
        assert out.entries[IDENTITY] == CrossedElement.monomial(chi(2, W("a")), W("b"))


class TestKernelProduct:
    @staticmethod
    def maps():
        x = CrossedElement.monomial(chi(2, W("a")), W("b")) + CrossedElement.monomial(
            chi(2, W("B")), IDENTITY
        )
        return [
            op_tau_F(F_a(), inner_a()),
            untwist_U(),
            untwist_U_star(),
            op_mult_label(chi(2, W("ab"))),
            build_Vbar(2),
            build_Pbar(2),
            op_phi(x),
            op_tau_gamma(W("a")),
        ]

    def test_product_is_composition(self):
        vecs = [xi for _, xi in spanning_vectors(2, 2, 1)]
        for T, S in itertools.product(self.maps(), repeat=2):
            TS = T @ S
            for xi in vecs:
                assert TS(xi) == T(S(xi)), (T.name, S.name, xi)

    def test_product_is_associative(self):
        T, S, Q = build_Vbar(2), op_phi(CrossedElement.unitary(2, W("b"))), untwist_U()
        vecs = [xi for _, xi in spanning_vectors(2, 2, 1)]
        for xi in vecs:
            assert ((T @ S) @ Q)(xi) == (T @ (S @ Q))(xi) == T(S(Q(xi)))

    def test_columns_are_images_of_units(self):
        # the image of the unit at g is the column's multipliers, each at its label
        U = conjugate_by_U(build_Fbar(2))
        for g in ball(2, 2):
            image = U(unit_at(g))
            expected = ModuleVector(2, {})
            for h, c, f, gamma in U.column(g):
                f = one() if f is None else f
                term = CrossedElement.monomial(f.scale(c), gamma)
                expected = expected + ModuleVector(2, {h: term})
            assert image == expected

    def test_wbar_rejects_labels_beyond_radius(self):
        with pytest.raises(DomainError):
            build_Wbar(2, 3)(unit_at(W("abab")))


class TestFinalIdentity:
    def test_small_scope(self):
        cert = final_identity_check(2, 3, 1)
        assert cert.equal and cert.checked == len(ball(2, 3)) * 5

    def test_default_scope(self):
        cert = final_identity_check(2, 4, 2)
        assert cert.equal, cert.first_discrepancy

    def test_rank_three(self):
        cert = final_identity_check(3, 3, 1)
        assert cert.equal, cert.first_discrepancy

    def test_drop_mutation_detected(self):
        for g in generators(2):
            cert = final_identity_check(2, 3, 1, drop=g)
            assert not cert.equal
            assert f"at {g}" in cert.first_discrepancy

    def test_perturb_mutation_detected(self):
        for g in generators(2):
            cert = final_identity_check(2, 3, 1, perturb=g)
            assert not cert.equal

    def test_certificate_json(self):
        d = final_identity_check(2, 2, 1).to_json_dict()
        assert d["pass"] is True and d["scope"] == {"rank": 2, "R": 2, "d": 1}
