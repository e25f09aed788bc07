import itertools

import pytest
from hypothesis import given, strategies as st

from boundarylab.config import DomainError
from boundarylab.words import (
    IDENTITY,
    BoundaryPoint,
    Letter,
    ReducedWord,
    act,
    ball,
    bigeodesic,
    dist,
    generators,
    is_initial,
    lies_on_ray,
    meet,
    multiply,
    reduce,
    sphere,
)

W = ReducedWord.parse
B = BoundaryPoint.parse

letters2 = st.tuples(st.integers(0, 1), st.sampled_from([1, -1])).map(lambda t: Letter(*t))
letter_seqs = st.lists(letters2, max_size=10)


class TestReduce:
    def test_total_cancellation(self):
        assert reduce(ReducedWord.parse("a").letters + ReducedWord.parse("A").letters) == IDENTITY

    def test_inner_cancellation(self):
        seq = [Letter(0, 1), Letter(1, 1), Letter(1, -1), Letter(0, 1)]
        assert reduce(seq) == W("aa")

    def test_idempotent_exhaustive(self):
        # exhaustive sweep of all letter sequences of length <= 6 is too large
        # to be fast; length <= 4 over n=2 already covers every cancellation
        # pattern, and the hypothesis sweep below extends to length 10
        letters = [Letter(i, s) for i in range(2) for s in (1, -1)]
        for k in range(5):
            for seq in itertools.product(letters, repeat=k):
                r = reduce(seq)
                assert reduce(r.letters) == r

    @given(letter_seqs)
    def test_idempotent_random(self, seq):
        r = reduce(seq)
        assert reduce(r.letters) == r

    def test_parse_roundtrip(self):
        for text in ("1", "a", "Ab", "abAB"):
            assert str(W(text)) == text


class TestGroupLaw:
    def test_inverse_pair(self):
        assert multiply(W("ab"), W("BA")) == IDENTITY

    def test_inverse_reversal(self):
        assert W("aB").inverse() == W("bA")

    @given(letter_seqs, letter_seqs, letter_seqs)
    def test_associative(self, s, t, u):
        x, y, z = reduce(s), reduce(t), reduce(u)
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))

    def test_metric_left_invariance(self):
        b3 = ball(2, 3)
        words = [w for w in b3 if len(w) <= 2]
        for g in words:
            for x in words:
                for y in words:
                    assert dist(multiply(g, x), multiply(g, y)) == dist(x, y)

    def test_right_translation_displacement_bound(self):
        # d(x, x gamma^-1) <= |gamma|
        for x in ball(2, 3):
            for g in ball(2, 3):
                assert dist(x, multiply(x, g.inverse())) <= len(g)

    def test_triangle_inequality_small(self):
        b2 = ball(2, 2)
        for x, y, z in itertools.product(b2, repeat=3):
            assert dist(x, z) <= dist(x, y) + dist(y, z)


class TestBall:
    def test_ball0(self):
        assert ball(2, 0) == [IDENTITY]

    def test_counts_n2(self):
        assert len(ball(2, 1)) == 5
        assert len(ball(2, 2)) == 17

    @pytest.mark.parametrize("n,R", [(2, 4), (3, 3)])
    def test_count_formula(self, n, R):
        expected = 1 + 2 * n * ((2 * n - 1) ** R - 1) // (2 * n - 2)
        assert len(ball(n, R)) == expected

    def test_shortlex_sorted(self):
        b = ball(2, 3)
        keys = [w.sort_key() for w in b]
        assert keys == sorted(keys)

    def test_radius_limit(self):
        from boundarylab.config import ResourceLimitError

        with pytest.raises(ResourceLimitError):
            ball(2, 40)

    def test_tree_property_unique_parent(self):
        for x in ball(2, 4):
            if x == IDENTITY:
                continue
            closer = [
                g for g in generators(2) if len(multiply(x, g)) == len(x) - 1
            ]
            assert len(closer) == 1


class TestInitial:
    def test_basic(self):
        assert is_initial(W("a"), W("ab"))
        assert not is_initial(W("b"), W("ab"))

    def test_metric_characterization(self):
        for x in ball(2, 4):
            for y in ball(2, 4):
                geom = len(y) == len(x) + dist(x, y)
                assert is_initial(x, y) == geom


class TestBoundaryPoints:
    def test_prefix_readout(self):
        assert B("(ab)").prefix(3) == W("aba")

    def test_lies_on_ray(self):
        assert lies_on_ray(W("a"), B("(ab)"))
        assert not lies_on_ray(W("b"), B("(ab)"))

    def test_canonical_equality(self):
        # same stream, different presentations
        assert B("(ab)") == B("ab(ab)")
        assert B("a(ba)") == B("(ab)")
        assert B("(ab)") == BoundaryPoint(IDENTITY, W("abab"))

    def test_invalid_streams_rejected(self):
        with pytest.raises(DomainError):
            BoundaryPoint(W("a"), W("Ab"))
        with pytest.raises(DomainError):
            BoundaryPoint(IDENTITY, W("aA"))

    def test_act_identity(self):
        a = B("ab(ba)")
        assert act(IDENTITY, a) == a

    def test_act_single_cancellation(self):
        assert act(W("A"), B("(ab)")) == B("(ba)")

    def test_act_composition_law(self):
        points = [
            B("(ab)"), B("(ba)"), B("(aB)"), B("b(a)"), B("AA(bA)"),
            B("(a)"), B("(B)"), B("ab(bbA)"),
        ]
        small = ball(2, 2)
        for g in small:
            for d in small:
                for a in points:
                    lhs = act(multiply(g, d), a)
                    rhs = act(g, act(d, a))
                    assert lhs == rhs
                    # stream-prefix comparison at depth 30, independent of
                    # the canonical-form equality above
                    assert lhs.prefix(30) == rhs.prefix(30)


class TestBigeodesic:
    def test_axis_through_origin(self):
        a, b = B("(A)"), B("(a)")
        win = bigeodesic(a, b, -3, 3)
        for k in range(-3, 4):
            expected = W("a" * k) if k >= 0 else W("A" * (-k))
            assert win.vertex(k) == expected

    def test_meets_common_prefix(self):
        a, b = B("(ab)"), B("ab(b)")
        assert meet(a, b) == W("ab")
        win = bigeodesic(a, b, -2, 2)
        assert win.vertex(0) == W("ab")

    def test_distinct_first_letters_pass_through_origin(self):
        win = bigeodesic(B("(a)"), B("(b)"), -1, 1)
        assert win.vertex(0) == IDENTITY

    def test_consecutive_vertices_adjacent(self):
        for a, b in [(B("(ab)"), B("(ba)")), (B("aa(b)"), B("(aB)"))]:
            win = bigeodesic(a, b, -4, 4)
            for k in range(-4, 4):
                assert dist(win.vertex(k), win.vertex(k + 1)) == 1

    def test_brute_force_shortest_path(self):
        # window vertices realize distance along the path inside B_6
        a, b = B("A(Ba)"), B("ab(a)")
        win = bigeodesic(a, b, -3, 3)
        for j in range(-3, 3):
            for k in range(j, 4):
                assert dist(win.vertex(j), win.vertex(k)) == k - j

    def test_diagonal_rejected(self):
        with pytest.raises(DomainError):
            bigeodesic(B("(ab)"), B("ab(ab)"), -1, 1)


class TestGeodesicMeetsBall:
    def test_offdiagonal_geodesic_meets_ball(self):
        # if a's depth-d prefix differs from y's, the geodesic [y, a)
        # meets B_d(e)
        periodic = [
            B("(a)"), B("(b)"), B("(A)"), B("(B)"),
            B("(ab)"), B("(aB)"), B("(ba)"), B("(Ab)"), B("(AB)"),
        ]
        for d in range(4):
            for y in ball(2, 6):
                for a in periodic:
                    if a.prefix(d) == y.prefix(d):
                        continue
                    # vertices of [y, a): y, ..., meet(y, a-ray), then the ray
                    m = 0
                    while a.prefix(m + 1) == y.prefix(m + 1):
                        m += 1
                    nearest = min(m, len(y))
                    assert nearest <= d


def test_sphere_sizes():
    assert len(sphere(2, 1)) == 4
    assert len(sphere(2, 2)) == 12
    assert len(sphere(3, 2)) == 30
