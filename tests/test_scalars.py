"""Gaussian-rational scalars against a reference built on Fraction pairs."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from boundarylab.crossed import verify_v_identities
from boundarylab.modules import final_identity_check
from boundarylab.scalars import MINUS_ONE, ONE, ZERO, Scalar


@dataclasses.dataclass(frozen=True)
class Ref:
    """Both parts always Fractions; every operation is Fraction arithmetic."""

    re: Fraction
    im: Fraction

    def __add__(self, o):
        return Ref(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Ref(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return Ref(-self.re, -self.im)

    def __mul__(self, o):
        return Ref(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def conj(self):
        return Ref(self.re, -self.im)

    def __truediv__(self, o):
        denom = o.re * o.re + o.im * o.im
        return Ref(
            (self.re * o.re + self.im * o.im) / denom,
            (self.im * o.re - self.re * o.im) / denom,
        )

    def __str__(self):
        if not self.im:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


ints = st.integers(-40, 40)
parts = st.one_of(ints, st.fractions(-8, 8, max_denominator=6))
pairs = st.tuples(parts, parts)
int_pairs = st.tuples(ints, ints)
UNITS = [ONE, MINUS_ONE, Scalar(0, 1), Scalar(0, -1)]


def both(p):
    re, im = p
    return Scalar.of(re, im), Ref(Fraction(re), Fraction(im))


def same(s: Scalar, r: Ref) -> bool:
    """Equal values, with every integral part held as an int."""
    for part, ref in ((s.re, r.re), (s.im, r.im)):
        if part != ref or (ref.denominator == 1) != (type(part) is int):
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(pairs, pairs, pairs)
def test_ring_operations_match_reference(p, q, t):
    (x, rx), (y, ry), (z, rz) = both(p), both(q), both(t)
    assert same(x + y, rx + ry)
    assert same(x - y, rx - ry)
    assert same(-x, -rx)
    assert same(x * y, rx * ry)
    assert same(x.conj(), rx.conj())
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x and x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x and x * ONE == x and x - x == ZERO
    assert (x * y).conj() == x.conj() * y.conj()
    assert x.conj().conj() == x


@settings(max_examples=200, deadline=None)
@given(pairs, st.sampled_from(UNITS))
def test_unit_products_and_real_conjugates_are_shared(p, u):
    # multiplying by ONE and conjugating a real scalar return the operand
    # itself; every other product and conjugate still matches the reference
    (x, rx), (_, ru) = both(p), both((u.re, u.im))
    assert ONE * x is x and x * ONE is x
    assert same(x * u, rx * ru) and same(u * x, ru * rx)
    assert same(x.conj(), rx.conj()) and x.conj().conj() == x
    assert (x.conj() is x) == (not x.im)
    assert ONE.conj() is ONE and ZERO.conj() is ZERO and ONE * ONE is ONE


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_division_matches_reference(p, q):
    (x, rx), (y, ry) = both(p), both(q)
    if not y:
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    assert same(x / y, rx / ry)
    assert (x / y) * y == x


@given(pairs)
def test_division_by_one_plus_i(p):
    x, rx = both(p)
    one_i = Scalar(1, 1)
    assert same(x / one_i, rx / Ref(Fraction(1), Fraction(1)))
    assert (x / one_i) * one_i == x


def test_non_exact_division_makes_fractions():
    assert ONE / Scalar(1, 1) == Scalar(Fraction(1, 2), Fraction(-1, 2))
    assert type((Scalar(3) / Scalar(2)).re) is Fraction
    assert type((Scalar(2) / Scalar(1, 1)).re) is int
    assert Scalar(3) / Scalar(2) * Scalar(2) == Scalar(3)


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_bool_str_and_hash_match_reference(p):
    x, rx = both(p)
    assert bool(x) == bool(rx.re or rx.im)
    assert str(x) == str(rx)
    assert hash(x) == hash((rx.re, rx.im))


@settings(max_examples=200, deadline=None)
@given(int_pairs, int_pairs)
def test_parts_stay_int(p, q):
    x, y = Scalar(*p), Scalar(*q)
    results = [x + y, x - y, -x, x * y, x.conj()] + [x / u for u in UNITS]
    for s in results:
        assert type(s.re) is int and type(s.im) is int


def test_equal_across_constructors():
    forms = [
        Scalar.of(1),
        Scalar(1),
        Scalar(Fraction(1), Fraction(0)),
        Scalar.of(Fraction(2, 2)),
        Scalar(True, 0),
        ONE,
        Scalar(2) / Scalar(2),
    ]
    assert len({hash(s) for s in forms}) == 1
    assert all(s == ONE for s in forms)
    assert all(type(s.re) is int and type(s.im) is int for s in forms)
    assert len(set(forms)) == 1
    assert Scalar.of(Fraction(4, 2)).re == 2 and type(Scalar.of(Fraction(4, 2)).re) is int
    assert Scalar() == ZERO and Scalar(-1) == MINUS_ONE
    assert ONE != 1 and ONE != (1, 0)


def test_attributes_cannot_be_set():
    s = Scalar(1, 2)
    with pytest.raises(AttributeError):
        s.re = 3
    with pytest.raises(AttributeError):
        s.extra = 0
    with pytest.raises(AttributeError):
        del s.im
    assert s == Scalar(1, 2)


def test_memo_table_inventory(memo_tables):
    # every table is named here, so adding or losing one changes this list
    assert sorted(memo_tables) == [
        "crossed.dual_coefficient",
        "cylinders._cached_product",
        "cylinders._cached_sum",
        "cylinders._translate_indicator",
        "cylinders.translate",
        "cylinders.translate_legs",
        "jv._last_shift",
        "modules._weight",
        "operators.lambda_monomial",
        "operators.op_inversion",
        "operators.op_left",
        "operators.op_mult",
        "operators.op_mult_inverted",
        "operators.op_right",
        "operators.rho_monomial",
        "words._ball",
        "words.multiply",
    ]


def test_certified_identities_never_divide(monkeypatch, memo_tables):
    calls = []
    divide = Scalar.__truediv__

    def counted(self, other):
        calls.append((self, other))
        return divide(self, other)

    for table in memo_tables.values():
        table.cache_clear()
    monkeypatch.setattr(Scalar, "__truediv__", counted)
    assert final_identity_check(2, 2, 1).equal
    assert all(r.passed for r in verify_v_identities(2))
    assert calls == []
    assert ONE / ONE == ONE and len(calls) == 1
