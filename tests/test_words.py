import itertools
from typing import NamedTuple

import pytest
from hypothesis import assume, given, settings, strategies as st

from boundarylab.config import DomainError
from boundarylab.words import (
    IDENTITY,
    BoundaryPoint,
    ReducedWord,
    act,
    ball,
    bigeodesic,
    generators,
    is_initial,
    meet,
    multiply,
    next_letters,
    reduce,
    word_extensions,
    sphere,
)

W = ReducedWord.parse
B = BoundaryPoint.parse


def dist(x: ReducedWord, y: ReducedWord) -> int:
    """Word metric d(x, y) = |x^-1 y|."""
    return len(multiply(x.inverse(), y))


class RefLetter(NamedTuple):
    """Reference letter model: generator `index` when `sign` is +1, its
    inverse when `sign` is -1."""

    index: int
    sign: int

    def inverse(self) -> "RefLetter":
        return RefLetter(self.index, -self.sign)

    def sort_key(self) -> tuple[int, int]:
        # a < A < b < B < ...
        return (self.index, 0 if self.sign > 0 else 1)

    def __str__(self) -> str:
        ch = "abcdefghijklmnopqrstuvwxyz"[self.index]
        return ch if self.sign > 0 else ch.upper()


def encode(l: RefLetter) -> int:
    """The documented int of a letter: a = 0, A = 1, b = 2, B = 3, ..."""
    return 2 * l.index + (l.sign < 0)


def decode(l: int) -> RefLetter:
    return RefLetter(l // 2, -1 if l % 2 else 1)


def ref_reduce(seq: list[RefLetter]) -> list[RefLetter]:
    stack: list[RefLetter] = []
    for l in seq:
        if stack and stack[-1] == l.inverse():
            stack.pop()
        else:
            stack.append(l)
    return stack


def ref_str(spelling: list[RefLetter]) -> str:
    return "".join(str(l) for l in spelling) or "1"


def ref_sort_key(spelling: list[RefLetter]):
    return (len(spelling), tuple(l.sort_key() for l in spelling))


def ref_word(spelling: list[RefLetter]) -> ReducedWord:
    """The word of a reduced reference spelling."""
    return ReducedWord(encode(l) for l in spelling)


ref_seqs = st.integers(2, 4).flatmap(
    lambda n: st.lists(st.builds(RefLetter, st.integers(0, n - 1), st.sampled_from([1, -1])), max_size=10)
)


class TestAgainstReferenceLetters:
    """Int letters agree with the (index, sign) reference model."""

    @settings(max_examples=200, deadline=None)
    @given(ref_seqs, ref_seqs)
    def test_word_operations_agree(self, s, t):
        x, y = ref_reduce(s), ref_reduce(t)
        wx, wy = reduce(encode(l) for l in s), reduce(encode(l) for l in t)
        assert wx == ref_word(x) and wy == ref_word(y)
        assert multiply(wx, wy) == ref_word(ref_reduce(x + y))
        assert wx.inverse() == ref_word([l.inverse() for l in reversed(x)])
        assert str(wx) == ref_str(x)
        assert ReducedWord.parse(ref_str(x)) == wx
        assert (wx < wy) == (ref_sort_key(x) < ref_sort_key(y))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_next_letters_and_shortlex_balls(self, n):
        letters = [RefLetter(i, s) for i in range(n) for s in (1, -1)]
        assert [decode(l) for l in next_letters(n, None)] == sorted(letters, key=RefLetter.sort_key)
        for last in letters:
            expected = [l for l in sorted(letters, key=RefLetter.sort_key) if l != last.inverse()]
            assert [decode(l) for l in next_letters(n, encode(last))] == expected
        words = ball(n, 3)
        spellings = [[decode(l) for l in w.letters] for w in words]
        assert spellings == sorted(spellings, key=ref_sort_key)

    @settings(max_examples=200, deadline=None)
    @given(ref_seqs, ref_seqs)
    def test_all_four_comparisons_are_shortlex(self, s, t):
        x, y = ref_reduce(s), ref_reduce(t)
        wx, wy = ref_word(x), ref_word(y)
        kx, ky = ref_sort_key(x), ref_sort_key(y)
        assert (wx < wy, wx <= wy, wx > wy, wx >= wy) == (kx < ky, kx <= ky, kx > ky, kx >= ky)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(ref_seqs, min_size=1, max_size=6))
    def test_min_and_max_are_shortlex(self, seqs):
        spellings = [ref_reduce(s) for s in seqs]
        words = [ref_word(x) for x in spellings]
        assert min(words) == ref_word(min(spellings, key=ref_sort_key))
        assert max(words) == ref_word(max(spellings, key=ref_sort_key))
        assert sorted(words) == [ref_word(x) for x in sorted(spellings, key=ref_sort_key)]

    @settings(max_examples=200, deadline=None)
    @given(ref_seqs, ref_seqs, st.integers(0, 10))
    def test_unchecked_words_equal_checked_ones(self, s, t, d):
        # products, inverses, prefixes, parents and balls skip the
        # reducedness check; each must be the word the checked
        # constructor makes from the same letters, with the same hash
        wx, wy = reduce(encode(l) for l in s), reduce(encode(l) for l in t)
        built = [multiply(wx, wy), wx * wy, wx.inverse(), wx.prefix(d)]
        if len(wx):
            built.append(wx.parent())
        for w in built:
            checked = ReducedWord(tuple(w))
            assert type(w) is ReducedWord and w == checked and hash(w) == hash(checked)
        assert wx * wy == multiply(wx, wy)  # `*` stays group multiplication

    @settings(max_examples=200, deadline=None)
    @given(ref_seqs, ref_seqs)
    def test_boundary_prefixes_equal_checked_ones(self, s, t):
        # a prefix of a reduced stream is reduced, so boundary prefixes
        # skip the check too, at every length through two periods
        try:
            a = BoundaryPoint(reduce(encode(l) for l in s), reduce(encode(l) for l in t))
        except DomainError:
            assume(False)
        stream = a.head + tuple(a.period) * 3
        for d in range(len(a.head) + 2 * len(a.period) + 2):
            w, checked = a.prefix(d), ReducedWord(stream[:d])
            assert type(w) is ReducedWord and w == checked and hash(w) == hash(checked)

    @pytest.mark.parametrize("n", [2, 3])
    def test_ball_words_equal_checked_ones(self, n):
        for w in ball(n, 3):
            checked = ReducedWord(tuple(w))
            assert type(w) is ReducedWord and w == checked and hash(w) == hash(checked)

    @pytest.mark.parametrize("n", [2, 3])
    def test_extensions_equal_checked_ones(self, n):
        # extensions skip the check too, from a word or a plain tuple of
        # its letters; they are the words of the next spheres below w
        for w in ball(n, 2):
            for k in range(3):
                extensions = word_extensions(w, k, n)
                assert extensions == word_extensions(tuple(w), k, n)
                assert extensions == [x for x in sphere(n, len(w) + k) if x[: len(w)] == w]
                for x in extensions:
                    checked = ReducedWord(tuple(x))
                    assert type(x) is ReducedWord and x == checked and hash(x) == hash(checked)

    @pytest.mark.parametrize("n", [2, 3])
    def test_public_construction_still_checks(self, n):
        for l in (RefLetter(i, s) for i in range(n) for s in (1, -1)):
            with pytest.raises(DomainError):
                ReducedWord((encode(l), encode(l.inverse())))
            with pytest.raises(DomainError):
                ReducedWord(encode(x) for x in (l, l, l.inverse()))

    def test_ball_hashes_distinct(self):
        # a letter encoding whose inverse pairs hash alike (signed ints:
        # hash(-1) == hash(-2)) would collide words that differ in A and B
        words = ball(3, 4)
        assert len({hash(w) for w in words}) == len(words)


letters2 = st.sampled_from(next_letters(2, None))
letter_seqs = st.lists(letters2, max_size=10)


class TestReduce:
    def test_total_cancellation(self):
        assert reduce(ReducedWord.parse("a").letters + ReducedWord.parse("A").letters) == IDENTITY

    def test_inner_cancellation(self):
        seq = W("ab").letters + W("Ba").letters
        assert reduce(seq) == W("aa")

    def test_idempotent_exhaustive(self):
        # exhaustive sweep of all letter sequences of length <= 6 is too large
        # to be fast; length <= 4 over n=2 already covers every cancellation
        # pattern, and the hypothesis sweep below extends to length 10
        for k in range(5):
            for seq in itertools.product(next_letters(2, None), repeat=k):
                r = reduce(seq)
                assert reduce(r.letters) == r

    @given(letter_seqs)
    def test_idempotent_random(self, seq):
        r = reduce(seq)
        assert reduce(r.letters) == r

    def test_parse_roundtrip(self):
        for text in ("1", "a", "e", "Ab", "abAB"):
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
        # a vertex lies on the ray [e, a) when a prefix of a begins with it
        ray = B("(ab)").prefix(4)
        assert is_initial(W("a"), ray) and is_initial(W("abab"), ray)
        assert not is_initial(W("b"), ray) and not is_initial(W("abA"), ray)

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

    def test_act_by_words_longer_than_the_period(self):
        # act repeats the period's letters; a word times an int is not repetition
        assert act(W("AAA"), B("(a)")) == B("(a)")
        assert act(W("BABA"), B("(ab)")) == B("(ab)")
        assert act(W("bbb"), B("(ab)")).prefix(5) == W("bbbab")

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


def sorted_ball(n: int, R: int) -> list[ReducedWord]:
    """Reference: every sphere built from the last one and then sorted."""
    out = [IDENTITY]
    frontier = [IDENTITY]
    for _ in range(R):
        nxt = [w * g for w in frontier for g in generators(n) if len(w * g) > len(w)]
        nxt.sort(key=ReducedWord.sort_key)
        out.extend(nxt)
        frontier = nxt
    return out


def is_reduced(w: ReducedWord) -> bool:
    spelling = [decode(l) for l in w.letters]
    return ref_reduce(spelling) == spelling


class TestGrownBall:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 5))
    def test_matches_sorted_construction(self, n, R):
        expected = sorted_ball(n, R)
        got = ball(n, R)
        assert len(got) == len(expected) == 1 + n * ((2 * n - 1) ** R - 1) // (n - 1)
        assert got == expected

    @pytest.mark.parametrize("n, R", [(2, 0), (2, 1), (2, 5), (3, 3), (4, 2)])
    def test_sphere_is_last_shell_of_ball(self, n, R):
        assert sphere(n, R) == [w for w in ball(n, R) if len(w) == R]

    def test_sphere_checks_rank_and_radius(self):
        from boundarylab.config import ResourceLimitError

        with pytest.raises(DomainError):
            sphere(1, 2)
        with pytest.raises(ResourceLimitError):
            sphere(2, 40)

    def test_unreduced_letters_rejected(self):
        (a,), (A,), (b,) = W("a").letters, W("A").letters, W("b").letters
        with pytest.raises(DomainError):
            ReducedWord((a, A))
        with pytest.raises(DomainError):
            ReducedWord((b, a, A))
        assert ReducedWord((a, b, a)).letters == (a, b, a)

    @given(letter_seqs, letter_seqs, st.integers(0, 10))
    def test_word_operations_return_reduced_words(self, s, t, d):
        x, y = reduce(s), reduce(t)
        results = [x, y, multiply(x, y), x.inverse(), x.prefix(d)]
        if len(x):
            results.append(x.parent())
        assert all(is_reduced(w) for w in results)


def test_sphere_sizes():
    assert len(sphere(2, 1)) == 4
    assert len(sphere(2, 2)) == 12
    assert len(sphere(3, 2)) == 30
