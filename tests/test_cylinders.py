import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from boundarylab import cylinders
from boundarylab.config import DomainError, ResourceLimitError
from boundarylab.crossed import PairElement, _first_discrepancy_pair
from boundarylab.cylinders import (
    BiCylinderFunction,
    CylinderFunction,
    chi,
    extend_second,
    f_prime_value,
    parse_cylinder,
    tensor,
    translate,
    translate_diag,
    translate_legs,
)
from boundarylab.scalars import MINUS_ONE, ONE, ZERO, Scalar
from boundarylab.words import (
    IDENTITY,
    BoundaryPoint,
    ReducedWord,
    act,
    ball,
    generators,
    is_initial,
    multiply,
    sphere,
    word_extensions,
)

W = ReducedWord.parse
B = BoundaryPoint.parse


def chi_tilde(gamma: ReducedWord, x: ReducedWord) -> Scalar:
    """Indicator, on the group, of the words beginning with gamma: the
    reference for CylinderFunction.extend."""
    return ONE if is_initial(gamma, x) else ZERO


def const1(n=2):
    return CylinderFunction.constant(n, ONE)


def indicators_depth_le(n, d):
    out = [const1(n)]
    for k in range(1, d + 1):
        out.extend(chi(n, u) for u in sphere(n, k))
    return out


class TestRefineCanonical:
    def test_refine_constant(self):
        assert const1().refine(2) == {w: ONE for w in sphere(2, 2)}

    def test_refine_chi_a(self):
        tbl = chi(2, W("a")).refine(2)
        assert set(tbl) == {W("aa"), W("ab"), W("aB")}
        # prefix-test oracle over all depth-2 words
        for w in sphere(2, 2):
            expected = ONE if w.letters[0] == W("a").letters[0] else ZERO
            assert tbl.get(w, ZERO) == expected

    def test_refine_roundtrip_canonical(self):
        for f in indicators_depth_le(2, 2):
            refined = CylinderFunction(2, f.refine(3))
            assert refined == f

    def test_canonical_uniqueness_random(self):
        # random tables, round-tripped through refinement, compare as functions
        import random

        rng = random.Random(7)
        points = [B("(ab)"), B("(Ba)"), B("b(A)"), B("(aab)"), B("A(b)")]
        for _ in range(30):
            tbl = {w: Scalar.of(rng.randint(-1, 1)) for w in sphere(2, 2)}
            f = CylinderFunction(2, tbl)
            g = CylinderFunction(2, f.refine(3))
            assert f == g
            for a in points:
                assert f.at_boundary(a) == g.at_boundary(a)


class TestEqualityAcrossConstructors:
    """Equal functions compare equal and hash equal, whatever made them."""

    def assert_all_equal(self, fns):
        for f, g in itertools.product(fns, repeat=2):
            assert f == g
            assert hash(f) == hash(g)
        assert len(set(fns)) == 1

    def test_indicator(self):
        f = chi(2, W("a"))
        self.assert_all_equal([
            f,
            CylinderFunction(2, {W("a"): ONE}),
            parse_cylinder("chi(a)", 2),
            parse_cylinder("chi(aa) + chi(ab) + chi(aB)", 2),
            CylinderFunction(2, {W(w): ONE for w in ("aa", "ab", "aBA", "aBa", "aBB")}),
            CylinderFunction(2, f.refine(2)),
            CylinderFunction(2, f.refine(3)),
            CylinderFunction(2, f.refine(4)),
        ])

    def test_constant(self):
        one = const1()
        self.assert_all_equal([
            one,
            parse_cylinder("1", 2),
            parse_cylinder("chi(a) + chi(A) + chi(b) + chi(B)", 2),
            CylinderFunction(2, {u: ONE for u in sphere(2, 1)}),
            CylinderFunction(2, one.refine(2)),
        ])

    def test_mixed_cells(self):
        f = const1() - chi(2, W("ab"))
        self.assert_all_equal([
            f,
            parse_cylinder("1 - chi(ab)", 2),
            CylinderFunction(2, f.refine(2)),
            CylinderFunction(2, f.refine(3)),
        ])
        assert set(f.refine(2)) == set(sphere(2, 2)) - {W("ab")}
        assert CylinderFunction(2, f.refine(2)).refine(2) == f.refine(2)

    def test_refined_arithmetic(self):
        f, g = chi(2, W("a")), const1() - chi(2, W("ab"))
        assert CylinderFunction(2, f.refine(3)) * g == f * g
        assert CylinderFunction(2, f.refine(2)) + CylinderFunction(2, g.refine(3)) == f + g
        assert translate(W("b"), CylinderFunction(2, f.refine(2))) == translate(W("b"), f)


class TestDepthCap:
    def test_cap_reads_image_cells(self):
        # the image of the cylinder at a has cells of length 8 under
        # bbbbbbbA, and is the cylinder at bbbbbbbba under bbbbbbbb
        F = tensor(chi(2, W("a")), const1() - chi(2, W("a")))
        image = translate_legs(F, W("bbbbbbbA"), IDENTITY)
        assert image.depth1 == 8
        for a, b in [(B("bbbbbbba(b)"), B("(b)")), (B("bbbbbbbb(a)"), B("(b)"))]:
            assert image.at_boundary(a, b) == F.at_boundary(act(W("aBBBBBBB"), a), b)
        with pytest.raises(ResourceLimitError):
            translate(W("bbbbbbbb"), chi(2, W("a")))
        with pytest.raises(ResourceLimitError):
            translate_legs(F, W("bbbbbbbb"), IDENTITY)


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
        from boundarylab.words import multiply

        fns = [chi(2, W("a")), chi(2, W("ab")), chi(2, W("BA"))]
        for f in fns:
            d = f.depth
            for g in ball(2, 2):
                for x in ball(2, 6):
                    if len(x) < d + len(g):
                        continue
                    y = multiply(x, g.inverse())
                    assert len(multiply(x.inverse(), y)) <= len(g)
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
        for g in ball(2, 3):
            fp = f_prime_value(F, g, inner)
            ga = g * W("a")
            claims_one = g.letters[-1:] != W("A").letters and len(ga) == len(g) + 1
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


# -- cross-check against the uniform-depth representation ---------------
#
# Before cylinder functions were stored as cell partitions, a function was
# a table over every reduced word of one depth, canonicalized by merging
# whole levels.  That representation lives on here, on (depth, table)
# pairs, as the reference for the cell arithmetic and rendering.


def ref_canonical(n, depth, table):
    tbl = {w: v for w, v in table.items() if v}
    while depth > 0:
        by_parent = {}
        for w, v in tbl.items():
            by_parent.setdefault(w.parent(), []).append(v)
        if any(
            len(vals) != (2 * n if p == IDENTITY else 2 * n - 1)
            or any(v != vals[0] for v in vals)
            for p, vals in by_parent.items()
        ):
            break
        tbl = {p: vals[0] for p, vals in by_parent.items()}
        depth -= 1
    return depth, tbl


def ref_refine(n, f, depth):
    d, tbl = f
    return {ext: v for w, v in tbl.items() for ext in word_extensions(w, depth - d, n)}


def ref_add(n, f, g):
    d = max(f[0], g[0])
    tbl = ref_refine(n, f, d)
    for w, v in ref_refine(n, g, d).items():
        tbl[w] = tbl.get(w, ZERO) + v
    return ref_canonical(n, d, tbl)


def ref_mul(n, f, g):
    (dl, lo), (dh, hi) = sorted([f, g], key=lambda t: t[0])
    tbl = {w: v * lo[w.prefix(dl)] for w, v in hi.items() if w.prefix(dl) in lo}
    return ref_canonical(n, dh, tbl)


def ref_extend(f, x):
    d, tbl = f
    return ZERO if len(x) < d else tbl.get(x.prefix(d), ZERO)


def ref_translate(n, gamma, f):
    # |w| = d + |gamma| leaves at least d letters of gamma^-1 w uncancelled
    d = f[0] + len(gamma)
    g_inv = gamma.inverse()
    return ref_canonical(n, d, {w: ref_extend(f, multiply(g_inv, w)) for w in sphere(n, d)})


def ref_repr(n, f):
    d, tbl = f
    body = ", ".join(f"{w}:{v}" for w, v in sorted(tbl.items(), key=lambda t: t[0].sort_key()))
    return f"Cyl(n={n}, d={d}, {{{body}}})"


def ref_json(f):
    d, tbl = f
    return {
        "depth": d,
        "values": {
            str(w): [str(v.re), str(v.im)]
            for w, v in sorted(tbl.items(), key=lambda t: t[0].sort_key())
        },
    }


VALUES = [ZERO, ONE, ONE, MINUS_ONE, Scalar.of(2), Scalar.of(0, 1)]


def random_cells(rng, n, depth, values=VALUES):
    """A random disjoint table with cells of length at most `depth`; some
    splits give every child the same value, so that they merge back."""
    cells = {}

    def visit(w, forced):
        if len(w) < depth and rng.random() < 0.4:
            same = rng.choice(values) if rng.random() < 0.25 else forced
            for child in word_extensions(w, 1, n):
                visit(child, same)
        else:
            cells[w] = forced if forced is not None else rng.choice(values)

    visit(IDENTITY, None)
    return cells


def tabulate(n, cells, depth):
    """The value on each cylinder of length `depth`, read off the cell above it."""
    return {
        w: next((v for c, v in cells.items() if w.letters[: len(c)] == c.letters), ZERO)
        for w in sphere(n, depth)
    }


def to_json_dict(f):
    """The nonzero values of f on the cylinders of its depth, in shortlex order."""
    table = f.refine(f.depth)
    return {
        "depth": f.depth,
        "values": {
            str(w): [str(v.re), str(v.im)]
            for w, v in sorted(table.items(), key=lambda t: t[0].sort_key())
        },
    }


def agrees_with_reference(n, f, ref):
    return (
        repr(f) == ref_repr(n, ref)
        and to_json_dict(f) == ref_json(ref)
        and f.depth == ref[0]
        and f == CylinderFunction(n, ref[1])
    )


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 2**32),
    st.sampled_from(["1", "a", "B", "ab", "Ba"]),
)
def test_cells_match_uniform_reference(n, d1, d2, seed, gamma):
    rng = random.Random(seed)
    gamma = ReducedWord.parse(gamma)
    cells_f, cells_g = random_cells(rng, n, d1), random_cells(rng, n, d2)
    f, g = CylinderFunction(n, cells_f), CylinderFunction(n, cells_g)
    rf = ref_canonical(n, d1, tabulate(n, cells_f, d1))
    rg = ref_canonical(n, d2, tabulate(n, cells_g, d2))
    assert agrees_with_reference(n, f, rf)
    assert agrees_with_reference(n, g, rg)
    assert agrees_with_reference(n, f + g, ref_add(n, rf, rg))
    assert agrees_with_reference(n, f * g, ref_mul(n, rf, rg))
    assert agrees_with_reference(n, translate(gamma, f), ref_translate(n, gamma, rf))
    for x in ball(n, 5):
        assert f.extend(x) == ref_extend(rf, x)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 4), st.integers(0, 4), st.integers(0, 2**32))
def test_product_by_one_is_the_other_operand(n, d1, d2, seed):
    # a 1 merged from its children is a fresh value, not the ONE object
    one = CylinderFunction(n, {w: Scalar.of(1) for w in sphere(n, 1)})
    rng = random.Random(seed)
    cells_f, cells_g = random_cells(rng, n, d1), random_cells(rng, n, d2)
    f, g = CylinderFunction(n, cells_f), CylinderFunction(n, cells_g)
    stored = cylinders._cached_product.cache_info().currsize
    assert f * one is f
    assert one * f is (one if f == one else f)
    assert cylinders._cached_product.cache_info().currsize == stored
    if one not in (f, g):
        rf = ref_canonical(n, d1, tabulate(n, cells_f, d1))
        rg = ref_canonical(n, d2, tabulate(n, cells_g, d2))
        assert agrees_with_reference(n, f * g, ref_mul(n, rf, rg))
    with pytest.raises(DomainError):
        CylinderFunction.constant(n + 1, ONE) * f


# -- cross-check of two-variable functions against uniform block tables --
#
# Before two-variable functions were stored as first-slot cell partitions,
# a function was a table over the blocks (u, v) of one pair of depths,
# canonicalized by merging whole levels of either slot.  That
# representation lives on here as the reference.


def ref_merge_slot(n, tbl, slot):
    """One canonicalization step in the given slot, or None if not constant."""
    groups = {}
    for (u, v), c in tbl.items():
        w = (u, v)[slot]
        if len(w) == 0:
            return None
        groups.setdefault((w.parent(), (u, v)[1 - slot]), []).append(c)
    for (p, _), vals in groups.items():
        if len(vals) != (2 * n if p == IDENTITY else 2 * n - 1) or any(v != vals[0] for v in vals):
            return None
    if slot == 0:
        return {(p, o): vals[0] for (p, o), vals in groups.items()}
    return {(o, p): vals[0] for (p, o), vals in groups.items()}


class RefBi:
    """A two-variable function as its uniform block table at the least depths."""

    def __init__(self, n, d1, d2, table):
        tbl = {k: v for k, v in table.items() if v}
        changed = True
        while changed:
            changed = False
            if d1 > 0:
                merged = ref_merge_slot(n, tbl, 0)
                if merged is not None:
                    tbl, d1, changed = merged, d1 - 1, True
            if d2 > 0:
                merged = ref_merge_slot(n, tbl, 1)
                if merged is not None:
                    tbl, d2, changed = merged, d2 - 1, True
        self.n, self.d1, self.d2, self.table = n, d1, d2, tbl

    def refined(self, d1, d2):
        return {
            (ue, ve): c
            for (u, v), c in self.table.items()
            for ue in word_extensions(u, d1 - self.d1, self.n)
            for ve in word_extensions(v, d2 - self.d2, self.n)
        }

    def _pointwise(self, other, op):
        d1, d2 = max(self.d1, other.d1), max(self.d2, other.d2)
        f, g = self.refined(d1, d2), other.refined(d1, d2)
        return RefBi(self.n, d1, d2, {k: op(f.get(k, ZERO), g.get(k, ZERO)) for k in f.keys() | g.keys()})

    def __add__(self, other):
        return self._pointwise(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._pointwise(other, lambda x, y: x - y)

    def __mul__(self, other):
        return self._pointwise(other, lambda x, y: x * y)

    def map(self, op):
        return RefBi(self.n, self.d1, self.d2, {k: op(c) for k, c in self.table.items()})

    def flip(self):
        return RefBi(self.n, self.d2, self.d1, {(v, u): c for (u, v), c in self.table.items()})

    def at_boundary(self, a, b):
        return self.table.get((a.prefix(self.d1), b.prefix(self.d2)), ZERO)

    def second_slice(self, v0):
        return CylinderFunction(self.n, {u: c for (u, v), c in self.table.items() if v == v0})

    def vanishes_on_diagonal(self):
        return not any(is_initial(u, v) or is_initial(v, u) for u, v in self.table)

    def translate_legs(self, gamma, delta):
        # |u| = d1 + |gamma| leaves at least d1 letters of gamma^-1 u uncancelled
        d1, d2 = self.d1 + len(gamma), self.d2 + len(delta)
        g_inv, d_inv = gamma.inverse(), delta.inverse()
        return RefBi(self.n, d1, d2, {
            (u, v): self.table.get(
                (multiply(g_inv, u).prefix(self.d1), multiply(d_inv, v).prefix(self.d2)), ZERO
            )
            for u in sphere(self.n, d1)
            for v in sphere(self.n, d2)
        })

    def first_block(self):
        key = min(self.table, key=lambda k: (k[0].sort_key(), k[1].sort_key()))
        return f"block ({key[0]}, {key[1]}): {self.table[key]}"

    def __repr__(self):
        body = ", ".join(
            f"({u},{v}):{c}"
            for (u, v), c in sorted(self.table.items(), key=lambda t: (t[0][0].sort_key(), t[0][1].sort_key()))
        )
        return f"BiCyl(n={self.n}, d=({self.d1},{self.d2}), {{{body}}})"


def from_blocks(n, blocks):
    """The cell form of a uniform block table, one first-slot cell per row."""
    rows = {}
    for (u, v), c in blocks.items():
        rows.setdefault(u, {})[v] = c
    return BiCylinderFunction(n, {u: CylinderFunction(n, row) for u, row in rows.items()})


def random_blocks(rng, n, d1, d2):
    """A random uniform block table at (d1, d2) whose rows come from a
    small pool of second-slot functions, so that equal rows merge."""
    pool = [tabulate(n, random_cells(rng, n, d2), d2) for _ in range(3)] + [{}]
    rows = tabulate(n, random_cells(rng, n, d1, values=range(len(pool))), d1)
    return {(u, v): c for u, k in rows.items() for v, c in pool[k].items() if c}


def bi_agrees(n, F, ref):
    return (
        (F.depth1, F.depth2) == (ref.d1, ref.d2)
        and F.uniform_blocks() == ref.table
        and repr(F) == repr(ref)
        and F == from_blocks(n, ref.table)
    )


def off_diagonal(n):
    """The indicator of the pairs whose first letters differ."""
    return tensor(const1(n), const1(n)) - sum(
        (tensor(chi(n, g), chi(n, g)) for g in generators(n)), BiCylinderFunction.zero(n)
    )


POINTS = {
    2: ["(a)", "(ab)", "(ba)", "b(a)", "A(b)", "(aB)", "(Ab)", "ab(b)", "BA(b)", "(B)"],
    3: ["(a)", "(c)", "c(a)", "ac(B)", "(Cb)", "Ca(c)", "(ab)", "B(C)", "AcB(a)", "(bC)"],
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 2**32),
)
def test_bi_cells_match_uniform_reference(n, d1, d2, e1, e2, seed):
    rng = random.Random(seed)
    fb, gb = random_blocks(rng, n, d1, d2), random_blocks(rng, n, e1, e2)
    F, G = from_blocks(n, fb), from_blocks(n, gb)
    rF, rG = RefBi(n, d1, d2, fb), RefBi(n, e1, e2, gb)
    c = rng.choice(VALUES[1:])
    assert bi_agrees(n, F, rF)
    assert bi_agrees(n, G, rG)
    assert bi_agrees(n, F + G, rF + rG)
    assert bi_agrees(n, F - G, rF - rG)
    assert bi_agrees(n, F * G, rF * rG)
    assert bi_agrees(n, -F, rF.map(lambda x: -x))
    assert bi_agrees(n, F.scale(c), rF.map(lambda x: c * x))
    assert bi_agrees(n, F.star(), rF.map(Scalar.conj))
    assert bi_agrees(n, F.flip(), rF.flip())
    assert F.vanishes_on_diagonal() == rF.vanishes_on_diagonal()
    for v0 in sphere(n, F.depth2):
        assert F.second_slice(v0) == rF.second_slice(v0)
    for a in map(B, POINTS[n]):
        for b in map(B, POINTS[n]):
            assert F.at_boundary(a, b) == rF.at_boundary(a, b)
    # discrepancy text of two off-diagonal coefficients at u(a)
    mask = off_diagonal(n)
    rmask = RefBi(n, mask.depth1, mask.depth2, mask.uniform_blocks())
    x, y = PairElement(n, {W("a"): F * mask}), PairElement(n, {W("a"): G * mask})
    rdiff = rF * rmask - rG * rmask
    expected = f"first discrepancy at u(a), {rdiff.first_block()}" if rdiff.table else ""
    assert _first_discrepancy_pair(x, y) == expected


def sphere_size(n, d):
    return 1 if d == 0 else 2 * n * (2 * n - 1) ** (d - 1)


SHORT_WORDS = ["1", "a", "B", "ab", "Ba", "bb"]

# The reference tabulates a translate over every block of the translated
# depths, so scopes stay within 25,000 blocks.
TRANSLATE_SCOPES = [
    (n, d1, d2, gamma, delta)
    for n in (2, 3)
    for d1 in range(4)
    for d2 in range(4)
    for gamma in SHORT_WORDS
    for delta in SHORT_WORDS
    if sphere_size(n, d1 + len(W(gamma))) * sphere_size(n, d2 + len(W(delta))) <= 25_000
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TRANSLATE_SCOPES), st.integers(0, 2**32))
def test_bi_translate_legs_matches_uniform_reference(scope, seed):
    n, d1, d2, gamma, delta = scope
    gamma, delta = W(gamma), W(delta)
    blocks = random_blocks(random.Random(seed), n, d1, d2)
    F, ref = from_blocks(n, blocks), RefBi(n, d1, d2, blocks)
    assert bi_agrees(n, translate_legs(F, gamma, delta), ref.translate_legs(gamma, delta))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2**32))
def test_bi_constructors_agree(n, d1, d2, seed):
    rng = random.Random(seed)
    f = CylinderFunction(n, random_cells(rng, n, d1))
    g = CylinderFunction(n, random_cells(rng, n, d2))
    T = tensor(f, g)
    blocks = {(u, v): a * b for u, a in f.refine(d1).items() for v, b in g.refine(d2).items()}
    block_sum = sum(
        (
            tensor(CylinderFunction(n, {u: ONE}), CylinderFunction(n, {v: c}))
            for (u, v), c in blocks.items()
        ),
        BiCylinderFunction.zero(n),
    )
    # every cell split into its children, which merge back
    split = BiCylinderFunction(
        n, {w: h for u, h in T.table.items() for w in word_extensions(u, 1, n)}
    )
    for other in (block_sum, from_blocks(n, blocks), T.flip().flip(), split):
        assert other == T and hash(other) == hash(T)
