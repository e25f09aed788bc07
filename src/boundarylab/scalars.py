"""Exact complex-rational scalars.

All symbolic coefficients in this package are Gaussian rationals; no
floating point is ever involved in a certified check.

A `Scalar` holds its real and imaginary parts as plain `int`s.  A part
becomes a `Fraction` only when a division is not exact, and a `Fraction`
whose denominator is 1 is stored back as its `int` numerator, so every
value has one representation and integer arithmetic never touches
`fractions`.  The hash is `hash((re, im))`; since `hash(Fraction(k))` is
`hash(k)`, it is the hash the parts had when both were `Fraction`s, so
dictionaries and sets keyed by scalars iterate in the same order.
"""

from __future__ import annotations

from fractions import Fraction


def _part(x: int | Fraction) -> int | Fraction:
    """A real part in normal form: an int unless it is not integral."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _quotient(x: int | Fraction, d: int | Fraction) -> int | Fraction:
    """x / d, an int when d divides x exactly."""
    if x.__class__ is int and d.__class__ is int:
        q, r = divmod(x, d)
        return Fraction(x, d) if r else q
    return x / d


class Scalar:
    """An immutable Gaussian rational re + im i."""

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        _set_re(self, re if re.__class__ is int else _part(re))
        _set_im(self, im if im.__class__ is int else _part(im))

    @staticmethod
    def of(re: int | Fraction, im: int | Fraction = 0) -> "Scalar":
        return Scalar(re, im)

    def __setattr__(self, name, value):
        raise AttributeError(f"Scalar is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Scalar is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (Scalar, (self.re, self.im))

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"Scalar(re={self.re!r}, im={self.im!r})"

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if other is ONE or self is ONE:
            return self if other is ONE else other
        if not self.im and not other.im:
            return Scalar(self.re * other.re, self.im)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "Scalar":
        return Scalar(self.re, -self.im) if self.im else self

    def __truediv__(self, other: "Scalar") -> "Scalar":
        denom = other.re * other.re + other.im * other.im
        if not denom:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(
            _quotient(self.re * other.re + self.im * other.im, denom),
            _quotient(self.im * other.re - self.re * other.im, denom),
        )

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


# Slot setters; they bypass the __setattr__ that makes instances immutable.
_set_re = Scalar.__dict__["re"].__set__
_set_im = Scalar.__dict__["im"].__set__

ZERO = Scalar()
ONE = Scalar.of(1)
MINUS_ONE = Scalar.of(-1)
