import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from boundarylab import operators
from boundarylab.config import DomainError, ResourceLimitError
from boundarylab.cylinders import CylinderFunction, chi
from boundarylab.operators import (
    TruncatedOperator,
    commutator,
    conjugation_symmetry_check,
    exact_index,
    exact_rank,
    kernel_dimension,
    lambda_monomial,
    lambda_rho_commute_check,
    on_columns,
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

    def test_column_rows_outside_codomain_rejected(self):
        basis = ball(2, 1)
        with pytest.raises(DomainError):
            operators.on_columns(basis, lambda x: ((W("a"), ONE),), 1, 0, [W("b")])

    def test_derived_operators_match_scratch_builds(self):
        L = op_left(2, W("a"), 3)
        M = op_mult(chi(2, W("b")), 3)
        basis = tuple(ball(2, 3))
        product = {}
        for (row, mid), u in M.entries.items():
            for (mid2, col), v in L.entries.items():
                if mid == mid2:
                    product[(row, col)] = product.get((row, col), ZERO) + u * v
        sums = {k: L.entry(*k) + M.entry(*k) for k in set(L.entries) | set(M.entries)}
        adjoint = {(col, row): v.conj() for (row, col), v in L.entries.items()}
        for derived, entries in ((M @ L, product), (L + M, sums), (L.adjoint(), adjoint)):
            scratch = TruncatedOperator(basis, basis, entries, 3)
            assert derived == scratch
            assert derived.domain == scratch.domain == basis
            assert derived.codomain == scratch.codomain == basis
            assert isinstance(derived.domain, tuple) and isinstance(derived.codomain, tuple)

    def test_derived_operators_share_operand_bases(self):
        L = op_left(2, W("a"), 3)
        M = op_mult(chi(2, W("b")), 3)
        assert L.domain is L.codomain
        P = M @ L
        assert P.domain is L.domain and P.codomain is M.codomain
        assert (L + M).domain is L.domain and L.scale(ONE).codomain is L.codomain
        assert L.adjoint().domain is L.codomain

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


SMALL = [ZERO, ONE, MINUS_ONE, Scalar.of(2), Scalar.of(0, 1), Scalar.of(1, -1), Scalar.of(3, 2)]


def dense_rank(rows, columns) -> int:
    """Reference: Gaussian elimination on dense copies of the rows."""
    matrix = [[r.get(c, ZERO) for c in columns] for r in rows]
    rank = 0
    for j in range(len(columns)):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][j]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for i in range(rank + 1, len(matrix)):
            f = matrix[i][j] / matrix[rank][j]
            matrix[i] = [x - f * y for x, y in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank


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

    def test_non_integral_elimination(self):
        # eliminating with pivot 2 against 3 scales by 3/2, and a pivot
        # 1+i divides by its norm 2, so the rows pass through fractions
        S = Scalar.of
        assert exact_rank([{0: S(2), 1: ONE}, {0: S(3), 1: ONE}]) == 2
        assert exact_rank([{0: S(2), 1: ONE}, {0: S(3), 1: ONE}, {0: S(5), 1: S(2)}]) == 2
        one_i = S(1, 1)
        assert exact_rank([{0: one_i, 1: ONE}, {0: ONE, 1: S(2)}]) == 2
        assert exact_rank([{0: one_i, 1: ONE}, {0: ONE, 1: S(Fraction(1, 2), Fraction(-1, 2))}]) == 1
        assert exact_rank([
            {0: one_i, 1: ONE, 2: S(0, 1)},
            {0: ONE, 1: S(2)},
            {0: S(2, 1), 1: S(3), 2: S(0, 1)},
        ]) == 2

    def test_permutation_full_rank(self):
        L = op_inversion(2, 2)
        assert operator_rank(L) == len(ball(2, 2))

    def test_rank_one_projection(self):
        basis = ball(2, 1)
        entries = {(r, c): ONE for r in basis for c in basis}
        T = TruncatedOperator(basis, basis, entries, 1, 0)
        assert operator_rank(T) == 1

    def test_single_entry_rows_need_no_ordering(self):
        # rows with one entry take it as their lead; a later row with
        # several entries still reduces against them
        S = Scalar.of
        assert exact_rank([{"x": S(2)}, {"y": ONE}, {"x": ONE, "y": S(3)}]) == 2
        assert exact_rank([{"x": S(2)}, {"y": ONE}, {"x": ONE, "z": S(3)}]) == 3
        assert exact_rank([{"x": ONE, "y": ONE}, {"y": ONE}, {"x": S(0, 1)}]) == 2


    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.dictionaries(st.sampled_from("wxyz"), st.sampled_from(SMALL), max_size=3), max_size=7
    ))
    def test_rows_stay_unchanged_and_rank_matches_dense_reference(self, rows):
        # elimination works on copies, so the rows it read stay as given
        snapshot = [dict(r) for r in rows]
        assert exact_rank(rows) == dense_rank(rows, "wxyz")
        assert rows == snapshot

    def test_one_entry_rows_are_not_held(self):
        # a one-entry pivot is kept as its lead column alone, so a row is
        # let go once the next one is read
        live = most = 0

        class Row(dict):
            def __init__(self, *args):
                nonlocal live, most
                super().__init__(*args)
                live += 1
                most = max(most, live)

            def __del__(self):
                nonlocal live
                live -= 1

        assert exact_rank(Row({i: ONE}) for i in range(1000)) == 1000
        assert most <= 2


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


# -- the hand-written entry loops the column rules replaced -------------

def ref_diagonal(basis, R, value):
    entries = {}
    for x in basis:
        v = value(x)
        if v:
            entries[(x, x)] = v
    return TruncatedOperator(basis, basis, entries, R, 0)


def ref_translation(basis, R, move, propagation):
    inball = set(basis)
    entries = {}
    for x in basis:
        y = move(x)
        if y in inball:
            entries[(y, x)] = ONE
    return TruncatedOperator(basis, basis, entries, R, propagation)


def ref_operators(n, R, f, gamma):
    """The operators as their entry loops built them, by name."""
    from boundarylab.words import multiply

    basis = ball(n, R)
    ginv = gamma.inverse()
    return {
        "mult": ref_diagonal(basis, R, f.extend),
        "mult_inverted": ref_diagonal(basis, R, lambda x: f.extend(x.inverse())),
        "left": ref_translation(basis, R, lambda x: multiply(gamma, x), len(gamma)),
        "right": ref_translation(basis, R, lambda x: multiply(x, ginv), len(gamma)),
        "inversion": TruncatedOperator(
            basis, basis, {(x.inverse(), x): ONE for x in basis}, R, None
        ),
        "identity": TruncatedOperator(
            tuple(basis), tuple(basis), {(x, x): ONE for x in basis}, R, 0
        ),
    }


def same_operator(T, ref):
    """Equal bases in order, entries in order, radius and propagation."""
    return (
        T.domain == ref.domain
        and T.codomain == ref.codomain
        and list(T.entries.items()) == list(ref.entries.items())
        and (T.radius, T.propagation) == (ref.radius, ref.propagation)
    )


@pytest.mark.parametrize("n, R", [(2, 4), (3, 3)])
def test_column_rules_match_entry_loops(n, R):
    fs = [one(n), chi(n, W("a")), chi(n, W("ab")) - chi(n, W("b"))]
    for f, gamma in itertools.product(fs, ball(n, 2)):
        built = {
            "mult": op_mult(f, R),
            "mult_inverted": op_mult_inverted(f, R),
            "left": op_left(n, gamma, R),
            "right": op_right(n, gamma, R),
            "inversion": op_inversion(n, R),
            "identity": TruncatedOperator.identity(ball(n, R), R),
        }
        for name, ref in ref_operators(n, R, f, gamma).items():
            assert same_operator(built[name], ref), (name, f, gamma)


# -- cross-check against rows grouped up front ----------------------------
#
# Before ranks read one-entry rows as they came, every row was grouped
# into a dict first, and the index ranked the conjugated rows of T* over
# sets of interior labels.  That code lives on here as the reference.


def ref_rows(triples):
    """Sparse rows from (row, column, value) triples, in first-seen row order."""
    rows = {}
    for row, col, v in triples:
        rows.setdefault(row, {})[col] = v
    return list(rows.values())


def ref_exact_index(T, interior_radius, rank):
    dom_interior = {x for x in T.domain if len(x) <= interior_radius}
    cod_interior = {x for x in T.codomain if len(x) <= interior_radius}
    adjoint_rows = ref_rows(
        (col, row, v.conj()) for (row, col), v in T.entries.items() if row in cod_interior
    )
    adjoint_kernel = len(cod_interior) - rank(adjoint_rows, T.codomain)
    kernel_rows = ref_rows(
        (row, col, v) for (row, col), v in T.entries.items() if col in dom_interior
    )
    return len(dom_interior) - rank(kernel_rows, T.domain) - adjoint_kernel


BALL = ball(2, 2)
GAUSSIAN = st.sampled_from(SMALL + [Scalar.of(Fraction(1, 2), Fraction(-2, 3))])
ROW = st.one_of(
    st.tuples(st.sampled_from(BALL), GAUSSIAN).map(lambda e: [e]),
    st.lists(st.tuples(st.sampled_from(BALL), GAUSSIAN), min_size=2, max_size=6),
)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.sampled_from(BALL), ROW, max_size=len(BALL)), st.integers(0, 2))
def test_ranks_match_rows_grouped_up_front(rows, r):
    T = TruncatedOperator(
        BALL, BALL, {(row, col): v for row, cols in rows.items() for col, v in cols}, 2, 0
    )
    triples = [(row, col, v) for (row, col), v in T.entries.items()]
    interior = {x for x in BALL if len(x) <= r}
    ranks = (lambda rows, columns: exact_rank(rows), dense_rank)

    def both(rows):
        return {rank(rows, BALL) for rank in ranks}

    assert {exact_index(T, r)} == {ref_exact_index(T, r, rank) for rank in ranks}
    assert {operator_rank(T)} == both(ref_rows(triples))
    kernel_rows = ref_rows(t for t in triples if t[1] in interior)
    assert {kernel_dimension(T, interior)} == {len(interior) - k for k in both(kernel_rows)}
    certified = ref_rows(t for t in triples if len(t[0]) <= r and len(t[1]) <= r)
    assert {support_certificate(T, r).rank} == both(certified)


def test_entry_stream_ends_with_each_last_value():
    # a column rule naming a row twice keeps the last value; zero is no entry
    x, y, z = ball(2, 1)[:3]
    rules = {x: [(y, ONE), (y, Scalar.of(2))], y: [(z, ONE), (z, ZERO)], z: [(x, ZERO), (x, ONE)]}
    T = on_columns(ball(2, 1), lambda c: rules.get(c, ()), 1, 0, ball(2, 1))
    assert T.entries == {(y, x): Scalar.of(2), (x, z): ONE}
    stream = [((y, x), ONE), ((y, x), ZERO), ((z, y), MINUS_ONE)]
    assert TruncatedOperator(ball(2, 1), ball(2, 1), iter(stream), 1, 0).entries == {
        (z, y): MINUS_ONE
    }
    with pytest.raises(DomainError):
        TruncatedOperator(ball(2, 1), ball(2, 1), iter([((W("ab"), x), ONE)]), 1, 0)
