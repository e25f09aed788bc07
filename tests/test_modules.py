import cProfile
import dataclasses
import itertools
import json
import pstats
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from boundarylab import cylinders, modules
from boundarylab.config import DomainError, ResourceLimitError
from boundarylab.crossed import CrossedElement, PairElement, dual_coefficient
from boundarylab.cylinders import CylinderFunction, chi, f_prime_value, tensor, translate
from boundarylab.modules import (
    ModuleMap,
    ModuleVector,
    _compare,
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
    op_tau,
    op_tau_F,
    op_tau_gamma,
    op_tau_monomial,
    spanning_indicators,
    spanning_vectors,
    untwist_U,
    untwist_U_star,
)
from boundarylab.scalars import MINUS_ONE, ONE, ZERO, Scalar
from boundarylab.words import (
    IDENTITY,
    ReducedWord,
    ball,
    generators,
    is_initial,
    multiply,
    sphere,
    word_extensions,
)

W = ReducedWord.parse
GOLDEN = Path(__file__).resolve().parent / "golden"


def act(xi: ModuleVector, a: CrossedElement) -> ModuleVector:
    """The right action of the algebra, applied coefficientwise."""
    return ModuleVector(xi.rank, {g: x * a for g, x in xi.entries.items()})


def one(n=2):
    return CylinderFunction.constant(n, ONE)


def unitary(n, gamma):
    """The group unitary u_gamma as an algebra element."""
    return CrossedElement.monomial(one(n), gamma)


def unit_at(g, n=2):
    return ModuleVector.basis(n, one(n), g)


IDENTITY_MAP = ModuleMap("1", lambda g: [(g, unitary(2, IDENTITY))])


def F_a(n=2):
    return dual_coefficient(n, W("a"))


def inner_a(n=2):
    return {IDENTITY: chi(n, W("a"))}


def kernel_maps():
    x = CrossedElement.monomial(chi(2, W("a")), W("b")) + CrossedElement.monomial(
        chi(2, W("B")), IDENTITY
    )
    return [
        op_tau_F(F_a(), inner_a()),
        untwist_U(2),
        untwist_U_star(2),
        op_mult_label(chi(2, W("ab"))),
        build_Vbar(2),
        build_Pbar(2),
        op_phi(x),
        op_tau_gamma(2, W("a")),
    ]


def iota_pictures():
    """The two maps `iota_check` compares, for one coefficient term:
    second-leg extension T and pointwise multiplication S."""
    tau = op_tau_monomial(F_a(), W("a"), inner_a())
    f = chi(2, W("ab"))
    return [tau @ op_mult_label(f), tau @ op_phi_function(f)]


def reference_tau_monomial(F, delta, inner=None):
    """tau(F . u_delta) as a composition: the diagonal action of F, one
    weight per label, after the label shift by delta."""
    tau_F = ModuleMap(
        "tau(F)", lambda g: [(g, CrossedElement.monomial(f_prime_value(F, g, inner), IDENTITY))]
    )
    return tau_F @ op_tau_gamma(F.rank, delta)


def reference_vbar(n, drop=None, perturb=None):
    """The per-generator Vbar rule: each generator's dual coefficient,
    left out when dropped and doubled when perturbed, weighted at the
    shifted label, with its own cylinder indicator at the origin."""
    terms = [
        (gamma, dual_coefficient(n, gamma).scale(Scalar.of(2 if gamma == perturb else 1)))
        for gamma in sphere(n, 1) if gamma != drop
    ]

    def rule(g):
        for gamma, F in terms:
            h = multiply(g, gamma.inverse())
            weight = f_prime_value(F, h, {IDENTITY: chi(n, gamma)})
            yield h, CrossedElement.monomial(weight, IDENTITY)

    return ModuleMap("Vbar", rule)


def reference_pbar(n):
    """The per-generator Pbar weight: at each label, the sum of every
    generator's specialized dual coefficient."""
    def rule(g):
        total = CylinderFunction.zero(n)
        for gamma in sphere(n, 1):
            total = total + f_prime_value(dual_coefficient(n, gamma), g, {IDENTITY: chi(n, gamma)})
        return [(g, CrossedElement.monomial(total, IDENTITY))]

    return ModuleMap("Pbar", rule)


def reference_fbar(n, drop=None, perturb=None):
    """Vbar - Pbar + 1 from the per-generator rules, column by column."""
    V, P = reference_vbar(n, drop, perturb), reference_pbar(n)
    return ModuleMap("Fbar", lambda g: [
        *V.rule(g),
        *((h, -x) for h, x in P.rule(g)),
        (g, unitary(n, IDENTITY)),
    ])


def spanning_iota_check(b, f, R, d, inner_for=None):
    """The spanning-vector form of `iota_check`, the reference for its
    column form: both pictures applied to every indicator of depth <= d
    at every label, one shift at a time, with the small-ball values
    chosen per shift.  It returns the verdict and every failing
    (indicator, label) key."""
    n = f.rank
    bad = []
    worst = 0
    max_shift = max((len(delta) for delta in b.terms), default=0)
    limit = 0
    for delta, F in sorted(b.terms.items(), key=lambda kv: kv[0].sort_key()):
        inner = inner_for(delta) if inner_for is not None else None
        T = reference_tau_monomial(F, delta, inner) @ op_mult_label(f)
        S = reference_tau_monomial(F, delta, inner) @ op_phi_function(f)
        cert = decay_check(F, f, R, inner)
        limit = max(limit, cert.threshold + max_shift)
        for key, xi in spanning_vectors(n, R - max_shift, d):
            delta_out = T(xi) - S(xi)
            if delta_out.is_zero():
                continue
            bad.append(key)
            worst = max(worst, max(len(g) for g in delta_out.entries))
    return not bad or worst <= limit, bad


def witness(cert):
    """A certificate's named entries "column g: (h, gamma)" as words."""
    return [
        tuple(map(W, re.fullmatch(r"column (\w+): \((\w+), (\w+)\)", label).groups()))
        for label in cert.discrepancy_labels
    ]


def assert_names_failing_labels(named, failing):
    """The labels g of a witness against a reference's failing (indicator,
    label) keys: each named label has a failing spanning vector, and the
    first is the reference's first failing label in ball order."""
    labels = {g for _, g in failing}
    assert set(named) <= labels
    assert named[:1] == ([min(labels)] if labels else [])


class TestModuleVector:
    def test_inner_product_orthonormal(self):
        e_g = unit_at(W("ab"))
        e_h = unit_at(W("b"))
        assert inner_product(e_g, e_g) == unitary(2, IDENTITY)
        assert inner_product(e_g, e_h).is_zero()

    def test_inner_product_right_compatible(self):
        a = CrossedElement.monomial(chi(2, W("a")), W("b"))
        xi = unit_at(W("a")) + unit_at(W("b"))
        eta = unit_at(W("a"))
        assert inner_product(xi, act(eta, a)) == inner_product(xi, eta) * a

    def test_adjoint_side_of_action(self):
        a = CrossedElement.monomial(chi(2, W("a")), W("b"))
        xi = unit_at(W("a"))
        eta = unit_at(W("a")) + unit_at(W("ab"))
        assert inner_product(act(xi, a), eta) == a.star() * inner_product(xi, eta)

    def test_zero_entries_dropped(self):
        v = ModuleVector(2, {IDENTITY: CrossedElement.zero(2)})
        assert v.is_zero()


class TestPhi:
    def test_identity_map(self):
        xi = unit_at(W("ab"))
        assert op_phi(unitary(2, IDENTITY))(xi) == xi

    def test_generator_on_basis(self):
        out = op_phi_unitary(2, W("a"))(unit_at(IDENTITY))
        assert out == ModuleVector(
            2, {W("a"): unitary(2, W("a"))}
        )

    def test_multiplicative_on_unitaries(self):
        for g, h in itertools.product([W("a"), W("b"), W("A")], repeat=2):
            T = op_phi_unitary(2, g) @ op_phi_unitary(2, h)
            S = op_phi_unitary(2, g * h)
            cert = maps_agree(T, S, 2, 3, 1)
            assert cert.equal, cert.first_discrepancy

    @pytest.mark.parametrize("n", [2, 3])
    def test_multiplicative_with_function_coefficients(self, n):
        # phi(x) @ phi(y) = phi(x y) for elements with gamma != 1 terms and
        # coefficients that are not constant
        rng = random.Random(n)
        for _ in range(6):
            x, y = (
                CrossedElement(n, {
                    gamma: random_cells(rng, n, rng.choice(ball(n, 2)[1:]), 3)
                    for gamma in rng.sample(ball(n, 1)[1:], 2) + [rng.choice(ball(n, 1))]
                })
                for _ in range(2)
            )
            assert any(len(gamma) for gamma in y.terms)
            assert any(f.depth for f in x.terms.values())
            T, S = op_phi(x) @ op_phi(y), op_phi(x * y)
            for g in ball(n, 2):
                assert T.column(g) == S.column(g), (x, y, g)

    def test_covariance(self):
        f = chi(2, W("b"))
        for g in generators(2):
            from boundarylab.cylinders import translate

            T = op_phi_unitary(2, g) @ op_phi_function(f) @ op_phi_unitary(2, g.inverse())
            S = op_phi_function(translate(g, f))
            assert maps_agree(T, S, 2, 3, 1).equal

    @pytest.mark.parametrize(
        "T",
        [op_phi(CrossedElement.monomial(chi(2, W("b")), W("a")))]
        + kernel_maps()
        + [build_Fbar(2), build_Wbar(2, 3)],
        ids=["phi", "tau-F", "U", "U-star", "M-label", "Vbar", "Pbar", "phi-sum",
             "tau-gamma", "Fbar", "Wbar"],
    )
    def test_right_linearity(self, T):
        # T(xi . a) = T(xi) . a: the fact that lets one column stand for
        # every spanning vector at its label
        a = CrossedElement.monomial(chi(2, W("a")), W("b"))
        for _, xi in itertools.islice(spanning_vectors(2, 2, 1), 0, None, 5):
            assert T(act(xi, a)) == act(T(xi), a)


class TestTau:
    def test_tau_gamma_shifts_labels(self):
        out = op_tau_gamma(2, W("a"))(unit_at(W("a")))
        assert out == unit_at(IDENTITY)

    def test_tau_gamma_inverse(self):
        T = op_tau_gamma(2, W("ab")) @ op_tau_gamma(2, W("BA"))
        assert maps_agree(T, IDENTITY_MAP, 2, 2, 1).equal

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

    @pytest.mark.parametrize(
        "T",
        [op_tau_F(F_a(), inner_a()) @ op_tau_gamma(2, W("a"))] + iota_pictures(),
        ids=["tau-monomial", "iota-T", "iota-S"],
    )
    def test_right_linearity(self, T):
        a = CrossedElement.monomial(chi(2, W("a")), W("b"))
        for _, xi in itertools.islice(spanning_vectors(2, 2, 1), 0, None, 3):
            assert T(act(xi, a)) == act(T(xi), a)


class TestUntwist:
    def test_on_basis(self):
        out = untwist_U(2)(unit_at(W("ab")))
        assert out == ModuleVector(2, {W("ab"): unitary(2, W("ab"))})

    def test_unitary_inner_products(self):
        U = untwist_U(2)
        vecs = [
            unit_at(W("a")),
            unit_at(W("ab")) + unit_at(W("b")).scale(Scalar.of(0, 1)),
            ModuleVector.basis(2, chi(2, W("a")), W("B")),
        ]
        for xi, eta in itertools.product(vecs, repeat=2):
            assert inner_product(U(xi), U(eta)) == inner_product(xi, eta)

    def test_u_star_inverts(self):
        T = untwist_U(2) @ untwist_U_star(2)
        assert maps_agree(T, IDENTITY_MAP, 2, 2, 1).equal

    def test_conjugated_label_shift_twists_coefficients(self):
        # pushing the plain label shift through the untwisting picks up
        # the comparison unitary between neighboring labels
        g = W("a")
        T = conjugate_by_U(2, op_tau_gamma(2, g))
        xi = unit_at(W("b"))
        out = T(xi)
        expected = unitary(2, W("bA")) * unitary(2, W("b")).star()
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
        cert = iota_check(b, chi(2, W("b")), 6, inner_a())
        assert cert.equal

    def test_constant_exact(self):
        b = PairElement(2, {IDENTITY: F_a()})
        cert = iota_check(b, one(), 5, inner_a())
        assert cert.equal and cert.first_discrepancy is None

    def test_no_terms_rejected(self):
        # a pair element with no terms has no columns to compare
        with pytest.raises(DomainError):
            iota_check(PairElement.zero(2), chi(2, W("a")), 3)

    def test_shifted_monomial_pass(self):
        b = PairElement(2, {W("a"): F_a()})
        cert = iota_check(b, chi(2, W("a")), 6, inner_a())
        assert cert.equal

    def test_columns_match_spanning_reference(self):
        # by right linearity a label's column differs exactly when some
        # spanning vector there fails, the constant among them, so the
        # witness names only failing labels, the first one first
        n, R = 2, 5
        coefficients = [
            (dual_coefficient(n, g), {IDENTITY: chi(n, g)}) for g in generators(n)
        ] + [(tensor(chi(n, W("ab")), one() - chi(n, W("a"))), None)]
        fs = [chi(n, u) for u in ball(n, 3) if len(u)]
        cases = itertools.islice(
            itertools.product(ball(n, 2), coefficients, fs), 0, None, 37
        )
        failing = 0
        for delta, (F, inner), f in cases:
            b = PairElement(n, {delta: F})
            cert = iota_check(b, f, R, inner)
            equal, bad = spanning_iota_check(b, f, R, 1, lambda _d: inner)
            assert cert.equal == equal, (delta, F, f)
            assert_names_failing_labels([g for g, _, _ in witness(cert)], bad)
            failing += not cert.equal
        assert failing >= 10

    def test_summed_lift_matches_per_term_reference(self):
        # each term puts its column entries at its own output label, so one
        # comparison of the summed lift decides every term's pair at once
        n, R = 2, 4
        F, inner = dual_coefficient(n, W("a")), inner_a()
        named = 0
        for deltas in ([IDENTITY, W("a")], [W("a"), W("b"), W("B")], [IDENTITY, W("ab")]):
            b = PairElement(n, dict.fromkeys(deltas, F))
            for f in (chi(n, W("a")), chi(n, W("ba")), chi(n, W("B"))):
                cert = iota_check(b, f, R, inner)
                equal, bad = spanning_iota_check(b, f, R, 1, lambda _d: inner)
                assert cert.equal == equal, (deltas, f)
                assert_names_failing_labels([g for g, _, _ in witness(cert)], bad)
                named += bool(bad)
        assert named >= 3

    def test_one_comparison_for_all_terms(self, monkeypatch):
        calls = []
        compare = modules._compare
        monkeypatch.setattr(modules, "_compare", lambda *a: calls.append(a) or compare(*a))
        b = PairElement(2, {IDENTITY: F_a(), W("a"): F_a(), W("b"): F_a()})
        cert = iota_check(b, chi(2, W("a")), 4, inner_a())
        assert len(calls) == 1
        assert cert.checked == 3 * len(ball(2, 3))


class TestLazyDecay:
    """`iota_check` computes a decay only when a column differs, since
    the threshold decides nothing otherwise, and then once per distinct
    coefficient whatever the number of shifts."""

    @pytest.fixture
    def decays(self, monkeypatch):
        calls = []
        decay_check = modules.decay_check
        monkeypatch.setattr(modules, "decay_check", lambda *a: calls.append(a) or decay_check(*a))
        return calls

    def test_no_decay_without_discrepancy(self, decays):
        cert = iota_check(PairElement(2, {IDENTITY: F_a()}), chi(2, W("A")), 4, inner_a())
        assert cert.equal and cert.first_discrepancy is None
        assert decays == []

    def test_one_decay_per_coefficient(self, decays):
        cert = iota_check(PairElement(2, {IDENTITY: F_a()}), chi(2, W("a")), 4, inner_a())
        assert cert.equal and cert.first_discrepancy is not None
        assert len(decays) == 1
        b = PairElement(2, {IDENTITY: F_a(), W("a"): F_a(), W("b"): F_a()})
        iota_check(b, chi(2, W("a")), 4, inner_a())
        assert len(decays) == 2

    @pytest.mark.parametrize("R, error", [(13, ResourceLimitError), (-1, DomainError)])
    def test_radius_checked_first(self, R, error, monkeypatch):
        monkeypatch.delenv("BDL_MAX_RADIUS", raising=False)
        with pytest.raises(error):
            iota_check(PairElement(2, {IDENTITY: F_a()}), chi(2, W("a")), R, inner_a())


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
        assert inner_product(xi, build_Pbar(2)(xi)) == unitary(2, IDENTITY)

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
    maps = staticmethod(kernel_maps)

    def test_product_is_composition(self):
        vecs = [xi for _, xi in spanning_vectors(2, 2, 1)]
        for T, S in itertools.product(self.maps(), repeat=2):
            TS = T @ S
            for xi in vecs:
                assert TS(xi) == T(S(xi)), (T.name, S.name, xi)

    def test_product_is_associative(self):
        T, S, Q = build_Vbar(2), op_phi(unitary(2, W("b"))), untwist_U(2)
        vecs = [xi for _, xi in spanning_vectors(2, 2, 1)]
        for xi in vecs:
            assert ((T @ S) @ Q)(xi) == (T @ (S @ Q))(xi) == T(S(Q(xi)))

    def test_columns_are_images_of_units(self):
        # the image of the unit at g is the column's multipliers, each at its label
        U = conjugate_by_U(2, build_Fbar(2))
        for g in ball(2, 2):
            assert U(unit_at(g)) == ModuleVector(2, U.column(g))

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
            assert cert.first_discrepancy.startswith(f"column {g}: ")

    def test_perturb_mutation_detected(self):
        for g in generators(2):
            cert = final_identity_check(2, 3, 1, perturb=g)
            assert not cert.equal

    def test_certificate_json(self):
        d = final_identity_check(2, 2, 1).to_json_dict()
        assert d["pass"] is True and d["scope"] == {"rank": 2, "R": 2, "d": 1}


# -- images of monomials against the per-term application -------------

def termwise_apply(rule, xi):
    """A kernel rule applied one monomial f . u_gamma of each entry at a
    time, by a label shift and a pointwise product: the reference for
    `ModuleMap.__call__`, which composes the map with the vector's map,
    multiplies entries in the crossed product and reads the product's
    column at the origin."""
    out = {}
    for g, y in xi.entries.items():
        for h, x in rule(g):
            for gamma, f in x.terms.items():
                z = (y.left_mul_unitary(gamma) if len(gamma) else y).left_mul_function(f)
                out[h] = out[h] + z if h in out else z
    return ModuleVector(xi.rank, out)


def termwise_fbar(n, drop=None, perturb=None):
    """Fbar = Vbar - Pbar + 1 from the per-generator rules, applied one
    kernel entry at a time, so its summed column at g (one entry 1 - P_g)
    is checked against the three separate entries."""
    rule = reference_fbar(n, drop, perturb).rule
    return lambda xi: termwise_apply(rule, xi)


SCALARS = [ONE, MINUS_ONE, Scalar.of(2, 1)]


def random_function(rng, n):
    u = rng.choice(ball(n, 2))
    f = one(n) if u == IDENTITY else chi(n, u)
    return f.scale(rng.choice(SCALARS))


def random_element(rng, n):
    terms = {rng.choice(ball(n, 1)): random_function(rng, n) for _ in range(rng.randint(1, 2))}
    return CrossedElement(n, terms)


def random_vector(rng, n):
    labels = rng.sample(ball(n, 2), rng.randint(1, 3))
    return ModuleVector(n, {g: random_element(rng, n) for g in labels})


def random_rule(rng, n):
    """A kernel rule with several entries at some label h, constants and
    other functions mixed, some with the same gamma, which the column
    must sum."""
    entries = [
        (rng.choice([IDENTITY, W("a")]), CrossedElement.monomial(
            rng.choice([one(n), random_function(rng, n)]).scale(rng.choice(SCALARS)),
            rng.choice([IDENTITY, W("b")]),
        ))
        for _ in range(rng.randint(2, 5))
    ]
    return lambda g: [(multiply(g, s), x) for s, x in entries]


def random_map(rng, n, depth):
    """A map and its termwise reference, composed up to `depth` times."""
    kind = rng.choice(["phi", "tau", "label", "U", "Fbar", "rule"] + ["compose"] * depth)
    if kind == "rule":
        rule = random_rule(rng, n)
        return ModuleMap("rule", rule), lambda xi: termwise_apply(rule, xi)
    if kind == "compose":
        (T, t), (S, s) = random_map(rng, n, depth - 1), random_map(rng, n, depth - 1)
        return T @ S, lambda xi: t(s(xi))
    if kind == "Fbar":
        fault = rng.choice([{}, {"drop": rng.choice(generators(n))},
                            {"perturb": rng.choice(generators(n))}])
        return build_Fbar(n, **fault), termwise_fbar(n, **fault)
    T = {
        "phi": lambda: op_phi(random_element(rng, n)),
        "tau": lambda: op_tau_gamma(n, rng.choice(ball(n, 1))),
        "label": lambda: op_mult_label(random_function(rng, n)),
        "U": lambda: untwist_U(n),
    }[kind]()
    return T, lambda xi: termwise_apply(T.rule, xi)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32))
def test_call_matches_termwise_application(n, seed):
    rng = random.Random(seed)
    T, reference = random_map(rng, n, 2)
    xi = random_vector(rng, n)
    assert T(xi) == reference(xi), T.name


def vector_maps_agree(T, S, n, R, d):
    """`maps_agree` as a loop over spanning vectors, each side applied
    term by term: the count checked and every failing (indicator, label)
    key."""
    checked = 0
    bad = []
    for key, xi in spanning_vectors(n, R, d):
        checked += 1
        if T(xi) != S(xi):
            bad.append(key)
    return checked, bad


FAULTS = [{}] + [{kind: g} for kind in ("drop", "perturb") for g in generators(2)]


@pytest.mark.parametrize(
    "fault", FAULTS, ids=["none"] + [f"{k}-{g}" for f in FAULTS[1:] for k, g in f.items()]
)
def test_maps_agree_matches_vector_loop(fault):
    # the passing check at (2, 3, 2) and each mutant at (2, 3, 1)
    R, d = (3, 1) if fault else (3, 2)
    cert = final_identity_check(2, R, d, **fault)
    W_ref = build_Wbar(2, R + 1)
    checked, bad = vector_maps_agree(
        termwise_fbar(2, **fault), lambda xi: termwise_apply(W_ref.rule, xi), 2, R, d,
    )
    assert (cert.equal, cert.checked) == (not bad, checked)
    assert_names_failing_labels([g for g, _, _ in witness(cert)], bad)
    assert cert.equal == (not fault)


def counted(T, reads):
    """T with every read of its rule counted under its name."""
    def rule(g):
        reads[T.name] += 1
        return T.rule(g)
    return ModuleMap(T.name, rule)


def golden_flagship(fault):
    """The flagship certificate of a mutant's golden `verify --suite all` report."""
    (kind, g), = fault.items()
    letter = str(g)
    name = f"verify-all-{kind}-{letter.lower() + '-inv' if letter.isupper() else letter}.json"
    report = json.loads((GOLDEN / name).read_text())
    (record,) = (c for c in report["checks"] if c["check_id"] == "final.lift-equals-shift")
    return record["certificate"]


def test_maps_agree_reads_each_rule_once_per_label():
    # every indicator at a label is compared from the one column read there
    reads = Counter()
    T, S = counted(build_Fbar(2), reads), counted(build_Wbar(2, 4), reads)
    cert = maps_agree(T, S, 2, 3, 2)
    assert cert.equal and cert.checked == len(ball(2, 3)) * len(spanning_indicators(2, 2))
    assert reads == {"Fbar": len(ball(2, 3)), "Wbar": len(ball(2, 3))}
    # a failing check stops at the label of its 16th named entry, with the
    # certificate of the default-scope golden report
    place = {g: i for i, g in enumerate(ball(2, 4))}
    for fault in MUTANTS:
        reads = Counter()
        T, S = counted(build_Fbar(2, **fault), reads), counted(build_Wbar(2, 5), reads)
        cert = maps_agree(T, S, 2, 4, 2, "assembled lift equals fiberwise shift")
        assert cert.to_json_dict() == golden_flagship(fault), fault
        last = place[witness(cert)[-1][0]] + 1
        assert len(cert.discrepancy_labels) == 16 and last < len(ball(2, 4))
        assert reads == {"Fbar": last, "Wbar": last}, fault


# -- one lift for every pair element -----------------------------------

@pytest.mark.parametrize("n, R", [(2, 4), (3, 3)])
def test_lifts_match_per_generator_rules(n, R):
    # tau(chi), then tau(v) and tau(v - chi) + 1 with no fault and with
    # each of the 4n drop/perturb faults, against the per-generator rules
    pairs = [(build_Pbar(n), reference_pbar(n))]
    for fault in [{}] + [{kind: g} for kind in ("drop", "perturb") for g in generators(n)]:
        pairs.append((build_Vbar(n, **fault), reference_vbar(n, **fault)))
        pairs.append((build_Fbar(n, **fault), reference_fbar(n, **fault)))
    for T, S in pairs:
        for g in ball(n, R):
            assert T.column(g) == S.column(g), (T.name, g)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32))
def test_op_tau_is_sum_of_composed_monomials(n, seed):
    rng = random.Random(seed)
    terms, inner = {}, {}
    for delta in rng.sample(ball(n, 1), rng.randint(1, 3)):
        terms[delta] = dual_coefficient(n, rng.choice(generators(n))).scale(rng.choice(SCALARS))
        if rng.random() < 0.5:
            inner[delta] = {IDENTITY: random_function(rng, n)}
    b = PairElement(n, terms)
    monomials = {
        delta: reference_tau_monomial(F, delta, inner.get(delta)) for delta, F in b.terms.items()
    }
    total = ModuleMap("sum", lambda g: [e for T in monomials.values() for e in T.column(g).items()])
    tau = op_tau(b, inner)
    for g in ball(n, 2):
        assert tau.column(g) == total.column(g), g
        for delta, F in b.terms.items():
            lift = op_tau_monomial(F, delta, inner.get(delta))
            assert lift.column(g) == monomials[delta].column(g), (delta, g)


def test_flagship_sums_once_per_label(memo_tables):
    # the only cylinder sum is the weight at a label plus the identity term there
    for table in memo_tables.values():
        table.cache_clear()
    assert final_identity_check(2, 4, 0).equal
    assert cylinders._cached_sum.cache_info().misses <= len(ball(2, 4))


# -- the column comparison against indicator products -----------------

def random_cells(rng, n, u, depth=4):
    """A random function of depth at most `depth` whose cells are split
    mostly along u, so that they lie above, at and below u."""
    table, todo = {}, [IDENTITY]
    while todo:
        w = todo.pop()
        split = 0.8 if is_initial(w, u) or is_initial(u, w) else 0.3
        if len(w) < depth and rng.random() < split:
            todo.extend(word_extensions(w, 1, n))
        else:
            table[w] = rng.choice(SCALARS + [ZERO])
    return CylinderFunction(n, table)


def keyed_tables(xi):
    """A vector's coefficient tables, keyed by (label, group element)."""
    return {(h, gamma): y.table for h, x in xi.entries.items() for gamma, y in x.terms.items()}


def reference_compare(T, S, n, R, d):
    """`_compare` from products: each indicator's image under a map is
    `termwise_apply` of its column to the indicator's basis vector, one
    cylinder product per term.  It names every failing (indicator,
    label) key."""
    fs = spanning_indicators(n, d)
    checked, bad, worst = 0, [], 0
    for g in ball(n, R):
        for f in fs:
            checked += 1
            xi = ModuleVector.basis(n, f, g)
            t, s = (keyed_tables(termwise_apply(M.rule, xi)) for M in (T, S))
            if t == s:
                continue
            bad.append((f, g))
            worst = max(worst, *(len(k[0]) for k in t.keys() | s.keys() if t.get(k) != s.get(k)))
    return checked, bad, worst


def compare(T, S, n, R, d):
    """The stream of `_compare` read to the end, as (the count `maps_agree`
    states, its first 16 entries, the longest differing h); `maps_agree`
    names those 16 entries."""
    entries = list(_compare(T, S, n, R))
    cert = maps_agree(T, S, n, R, d)
    assert witness(cert) == entries[:16]
    return cert.checked, entries[:16], max((len(h) for _, h, _ in entries), default=0)


def assert_matches_reference(result, reference, context=None):
    """`compare` against `reference_compare`: the same count and longest
    difference, and at most 16 distinct entries in ball order, then
    shortlex order, naming only failing labels, the first one first."""
    (checked, named, worst), (ref_checked, bad, ref_worst) = result, reference
    assert (checked, worst) == (ref_checked, ref_worst), context
    assert named == sorted(set(named)) and len(named) <= 16, context
    assert_names_failing_labels([g for g, _, _ in named], bad)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32))
def test_compare_matches_products_on_random_columns(n, seed):
    # one-label maps whose terms split along u, constant and gamma != 1
    # terms among them; S edits one term of T on the cell of a word w, so
    # at the one label the constant and some indicators fail, and the
    # witness is the edited entry alone
    rng = random.Random(seed)
    u = rng.choice(ball(n, 3)[1:])
    terms = [
        (rng.choice(ball(n, 1)), rng.choice(SCALARS),
         rng.choice([None, random_cells(rng, n, u)]), rng.choice(ball(n, 2)))
        for _ in range(rng.randint(1, 4))
    ]
    i = rng.randrange(len(terms))
    h, c, f, gamma = terms[i]
    w = rng.choice(word_extensions(u, 3 - len(u), n))
    edit = (f or one(n)) + chi(n, w).scale(rng.choice(SCALARS))
    edited = terms[:i] + [(h, c, edit, gamma)] + terms[i + 1:]
    T, S = (
        ModuleMap(name, lambda g, t=t: [
            (h, CrossedElement.monomial((f or one(n)).scale(c), gamma)) for h, c, f, gamma in t
        ])
        for name, t in (("T", terms), ("S", edited))
    )
    result, reference = compare(T, S, n, 0, 2), reference_compare(T, S, n, 0, 2)
    assert_matches_reference(result, reference)
    assert result[1] == [(IDENTITY, h, gamma)]


@pytest.mark.parametrize(
    "fault", FAULTS[1:], ids=[f"{k}-{g}" for f in FAULTS[1:] for k, g in f.items()]
)
def test_compare_matches_products_on_faults(fault):
    T, S = build_Fbar(2, **fault), build_Wbar(2, 4)
    result = compare(T, S, 2, 3, 2)
    assert_matches_reference(result, reference_compare(T, S, 2, 3, 2))
    assert result[1]


def test_compare_matches_products_with_shifted_terms():
    # untwisting, phi(x) and label shifts carry gamma != 1 terms; the
    # last pair agrees with gamma = a on both sides
    f = chi(2, W("ab"))
    maps = kernel_maps() + [
        op_phi_unitary(2, W("a")) @ op_phi_function(f),
        op_phi(CrossedElement.monomial(translate(W("a"), f), W("a"))),
    ]
    results = []
    for T, S in itertools.combinations(maps, 2):
        results.append(compare(T, S, 2, 2, 2))
        assert_matches_reference(results[-1], reference_compare(T, S, 2, 2, 2), (T.name, S.name))
    assert not results[-1][1] and all(r[1] for r in results[:-1])


@pytest.mark.parametrize("d", [0, 2])
def test_compare_matches_products_on_iota_pictures(d):
    T, S = iota_pictures()
    result = compare(T, S, 2, 4, d)
    assert_matches_reference(result, reference_compare(T, S, 2, 4, d))
    assert result[1]


@pytest.mark.parametrize(
    "fault", FAULTS, ids=["none"] + [f"{k}-{g}" for f in FAULTS[1:] for k, g in f.items()]
)
def test_flagship_builds_no_indicator_products(memo_tables, fault):
    # the fiberwise shift's columns multiply indicators by the constant 1,
    # which returns the indicator, so no product is computed or stored,
    # whatever the spanning depth or a failing column
    for table in memo_tables.values():
        table.cache_clear()
    assert final_identity_check(2, 4, 2, **fault).equal == (not fault)
    assert cylinders._cached_product.cache_info().misses == 0


def profiled_calls(memo_tables, *args):
    """The cProfile call total of one flagship check from cleared memo tables."""
    for table in memo_tables.values():
        table.cache_clear()
    profile = cProfile.Profile()
    assert profile.runcall(final_identity_check, *args).equal
    return pstats.Stats(profile).total_calls


def test_depth_is_free_on_a_passing_check(memo_tables):
    # equal columns decide every indicator, so depth 2 reads no more than depth 0
    assert profiled_calls(memo_tables, 2, 4, 2) <= 1.05 * profiled_calls(memo_tables, 2, 4, 0)


# -- the witness a failing column names --------------------------------

MUTANTS = FAULTS[1:]
MUTANT_IDS = [f"{k}-{g}" for f in MUTANTS for k, g in f.items()]


@pytest.mark.parametrize("fault", MUTANTS, ids=MUTANT_IDS)
def test_mutant_witness_is_independent_of_depth(fault):
    # the columns name the failure, so depth widens only what is covered
    shallow, deep = (final_identity_check(2, 4, d, **fault) for d in (0, 2))
    assert not deep.equal
    assert dataclasses.replace(shallow, depth=2, checked=deep.checked) == deep


@pytest.mark.parametrize("fault", MUTANTS, ids=MUTANT_IDS)
def test_mutant_witness_entries_differ(fault):
    # both maps applied to the unit at g differ at label h, in the u_gamma term
    entries = witness(final_identity_check(2, 4, 2, **fault))
    Fb, Wb = build_Fbar(2, **fault), build_Wbar(2, 5)
    for g, h, gamma in entries:
        t, s = (M(unit_at(g)).entries.get(h) for M in (Fb, Wb))
        assert t != s, (g, h)
        assert (t and t.terms.get(gamma)) != (s and s.terms.get(gamma)), (g, h, gamma)


@pytest.mark.parametrize("fault", MUTANTS, ids=MUTANT_IDS)
def test_mutant_witness_order(fault):
    entries = witness(final_identity_check(2, 4, 2, **fault))
    place = {g: i for i, g in enumerate(ball(2, 4))}
    assert 0 < len(entries) == len(set(entries)) <= 16
    assert entries == sorted(
        entries, key=lambda e: (place[e[0]], e[1].sort_key(), e[2].sort_key())
    )
