"""A second route to the flagship identity: the lift of w + 1 checked
fiber by fiber, with integer scalars only.

The paper's statement is pointwise: over each boundary point a, the
fiber of Fbar = tau(v - chi) + 1 is the directed shift toward a.  The
checker evaluates Fbar's column at a label g in the fiber over a from
the definitions.  A term F_delta . u_delta of v - chi puts
F_delta(h^-1 a, h^-1) at h = g delta^-1, with the second slot extended
to the vertex h^-1 by its depth-one block, and at the origin h = e by
the small-ball value of the lift: the indicator of gamma's cylinder for
a generator's dual coefficient, the constant -1 for chi's.  The unit
adds 1 at g.  The result is compared with `jv.w_column`, the closed-form
column of the shift.  Each weight is translated by a label of length at
most |g| + 1, so every cell of either column at g lies at depth at most
|g| + 2, and one point per cylinder of sphere(n, |g| + 2) stands for
every fiber.

The checker calls no function of `cylinders` or `modules`: it shares
only word arithmetic and `w_column` with the package.  The engine's
images of the units at each label are then read cell by cell against it.
"""

import re

import pytest

from boundarylab.crossed import CrossedElement
from boundarylab.cylinders import CylinderFunction
from boundarylab.jv import w_column
from boundarylab.modules import ModuleVector, build_Fbar, build_Wbar, final_identity_check
from boundarylab.scalars import ONE, Scalar
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

# A function of the boundary point a is written as integer terms (c, w),
# each c times the indicator of the points that begin with the word w;
# w = IDENTITY is the constant c.


def begins_with(h, gamma):
    """The points a for which h^-1 a begins with the letter gamma.  The
    spelling h^-1 a cancels the common prefix of h and a, so it begins
    with the letter of a after h when a begins with all of h, and with
    the first letter of h^-1 otherwise."""
    h_gamma = multiply(h, gamma)
    terms = [(1, h_gamma)] if len(h_gamma) > len(h) else []
    if is_initial(gamma, h.inverse()):
        terms += [(1, IDENTITY), (-1, h)]
    return terms


def dual(gamma, h):
    """The dual coefficient chi_gamma (x) (1 - chi_gamma) at (h^-1 a, h^-1)."""
    return [] if is_initial(gamma, h.inverse()) else begins_with(h, gamma)


def fbar_terms(n, g, drop=None, perturb=None):
    """Fbar's column at g as terms (h, c, w).  A generator gamma of v,
    left out when dropped and doubled when perturbed, is weighted at
    h = g gamma^-1, and the lift's small-ball value at h = e is chi_gamma
    whatever the fault; -chi is weighted at g, with the constant -1 at
    the origin; the unit adds 1 at g."""
    terms = []
    for gamma in generators(n):
        if gamma != drop:
            h = multiply(g, gamma.inverse())
            scale = 2 if gamma == perturb else 1
            terms += [(h, scale * c, w) for c, w in dual(gamma, h)] if h else [(h, 1, gamma)]
    if g:
        terms += [(g, -c, w) for gamma in generators(n) for c, w in dual(gamma, g)]
    else:
        terms.append((g, -1, IDENTITY))
    terms.append((g, 1, IDENTITY))
    return terms


def fiber(terms, u):
    """A column of terms over the points that begin with u, as integers."""
    column = {}
    for h, c, w in terms:
        if is_initial(w, u):
            column[h] = column.get(h, 0) + c
    return {h: c for h, c in column.items() if c}


def fbar_fibers(n, g, **fault):
    """Fbar's column at g in each fiber, {u: {h: c}}, one point per
    cylinder u of length |g| + 2."""
    terms = fbar_terms(n, g, **fault)
    return {u: fiber(terms, u) for u in sphere(n, len(g) + 2)}


def shift_fibers(n, g):
    """The directed shift's column at g in each fiber, from the closed form."""
    targets = {u: w_column(u.prefix(len(g)), g) for u in sphere(n, len(g) + 2)}
    return {u: {} if h is None else {h: 1} for u, h in targets.items()}


def first_failing_label(n, R, **fault):
    """The first label of ball(n, R) at which Fbar's column differs from
    the shift's in some fiber, or None."""
    return next((g for g in ball(n, R) if fbar_fibers(n, g, **fault) != shift_fibers(n, g)), None)


def by_label(columns):
    """Fiber columns {u: {h: c}} as {h: {u: c}}, with exact scalars."""
    out = {}
    for u, column in columns.items():
        for h, c in column.items():
            out.setdefault(h, {})[u] = Scalar.of(c)
    return out


def cells(image, gamma, depth):
    """A module vector's u_gamma coefficients as {h: {u: value}} on the
    cylinders of length `depth`, read off their cells."""
    assert all(set(x.terms) == {gamma} for x in image.entries.values())
    return {
        h: {
            u: v
            for w, v in x.terms[gamma].table.items()
            for u in word_extensions(w, depth - len(w), x.rank)
        }
        for h, x in image.entries.items()
    }


@pytest.mark.parametrize("n, R", [(2, 4), (3, 2)])
def test_fiberwise_checker_agrees_with_flagship(n, R):
    assert first_failing_label(n, R) is None
    assert final_identity_check(n, R, 0).equal
    # the engine's images of the unit at g times u_b, cell by cell, against
    # the fibers the checker has just found equal: the lift and the
    # fiberwise shift
    gamma = W("b")
    u_b = CrossedElement.monomial(CylinderFunction.constant(n, ONE), gamma)
    Fb, Wb = build_Fbar(n), build_Wbar(n, R + 1)
    for g in ball(n, R):
        xi, expected = ModuleVector(n, {g: u_b}), by_label(shift_fibers(n, g))
        assert cells(Fb(xi), gamma, len(g) + 2) == expected, g
        assert cells(Wb(xi), gamma, len(g) + 2) == expected, g


MUTANTS = [{kind: g} for kind in ("drop", "perturb") for g in generators(2)]


@pytest.mark.parametrize("fault", MUTANTS, ids=[f"{k}-{g}" for f in MUTANTS for k, g in f.items()])
def test_fiberwise_checker_fails_at_the_named_label(fault):
    cert = final_identity_check(2, 3, 0, **fault)
    named = W(re.fullmatch(r"column (\w+): .*", cert.first_discrepancy).group(1))
    assert first_failing_label(2, 3, **fault) == named
