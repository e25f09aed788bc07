"""The acceptance gate: every certified claim of the suite, run at its
stated scope with zero tolerance.  Each test prints one pass/fail line.
"""

import itertools
import json
import time
from pathlib import Path

import pytest

from boundarylab.cli import _random_boundary_points
from boundarylab.crossed import (
    PairElement,
    dual_coefficient,
    geodesic_v_check,
    verify_conjugate_flip,
    verify_v_identities,
)
from boundarylab.cylinders import CylinderFunction, chi
from boundarylab.jv import equivariance_defect, index_W, index_b, op_W, w_local_constancy
from boundarylab.modules import (
    final_identity_check,
    inner_product,
    iota_check,
    decay_check,
    spanning_vectors,
    untwist_U,
)
from boundarylab.operators import (
    commutator,
    conjugation_symmetry_check,
    lambda_rho_commute_check,
    op_mult,
    op_right,
    support_certificate,
)
from boundarylab.scalars import ONE, Scalar
from boundarylab.words import (
    IDENTITY,
    BoundaryPoint,
    ReducedWord,
    ball,
    sphere,
)

W = ReducedWord.parse


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.mark.parametrize("rank", [2, 3])
def test_criterion_01_dual_element_identities(rank):
    start = time.monotonic()
    results = verify_v_identities(rank)
    elapsed = time.monotonic() - start
    ok = all(r.passed for r in results)
    report(
        f"criterion 1: dual-element identities, rank {rank}",
        ok and elapsed < 1.0,
        f"{len(results)} identities, {elapsed:.2f}s",
    )


@pytest.mark.parametrize("rank", [2, 3])
def test_criterion_02_conjugation_flip(rank):
    res = verify_conjugate_flip(rank)
    report(f"criterion 2: conjugation flip identity, rank {rank}", res.passed, res.detail)


def test_criterion_03_geodesic_characterization():
    n = 2
    rays = [BoundaryPoint(IDENTITY, g) for g in sphere(n, 1)]
    checked = failures = 0
    for a, b in itertools.product(rays, repeat=2):
        if a == b:
            continue
        for g in sphere(n, 1):
            checked += 1
            if not geodesic_v_check(n, a, b, g).passed:
                failures += 1
    randoms = _random_boundary_points(n, 100)
    for a, b in zip(randoms[:50], randoms[50:]):
        if a == b:
            continue
        for g in sphere(n, 1):
            checked += 1
            if not geodesic_v_check(n, a, b, g).passed:
                failures += 1
    report(
        "criterion 3: geodesic support of the dual element",
        failures == 0,
        f"{checked} evaluations, {failures} disagreements",
    )


def test_criterion_04_commutator_support():
    n, R = 2, 6
    fs = [chi(n, u) for k in (1, 2) for u in sphere(n, k)]
    gammas = [g for k in (1, 2) for g in sphere(n, k)]
    worst_excess = 0
    count = 0
    for f, g in itertools.product(fs, gammas):
        M = op_mult(f, R)
        Rg = op_right(n, g, R)
        cert = support_certificate(commutator(M, Rg), R - len(g))
        count += 1
        bound = f.depth + len(g) - 1
        worst_excess = max(worst_excess, cert.support_radius - bound)
    a = W("a")
    wit = commutator(op_mult(chi(n, a), R), op_right(n, a, R))
    wit_cert = support_certificate(wit, R - 1)
    witness_ok = (
        wit_cert.rank == 1
        and wit.entry(IDENTITY, a) == Scalar.of(-1)
        and len(wit.entries) == 1
    )
    report(
        "criterion 4: multiplication commutators vanish outside the stated ball",
        worst_excess <= 0 and witness_ok,
        f"{count} commutators at R={R}; witness rank {wit_cert.rank}",
    )


def test_criterion_05_left_right_commutation():
    n, R = 2, 6
    fs = [CylinderFunction.constant(n, ONE)] + [chi(n, u) for u in sphere(n, 1)]
    words = [IDENTITY] + list(sphere(n, 1))
    count = 0
    ok = True
    for f, gamma, g, delta in itertools.product(fs, words, fs, words):
        cert = lambda_rho_commute_check(f, gamma, g, delta, R)
        bound = f.depth + g.depth + len(gamma) + len(delta)
        ok = ok and cert.exact and cert.support_radius <= bound
        ok = ok and conjugation_symmetry_check(f, gamma, g, delta, R)
        count += 1
    report(
        "criterion 5: left/right commutation and inversion symmetry",
        ok,
        f"{count} monomial pairs at R={R}",
    )


def test_criterion_06_tree_operator_index():
    ok = all(index_b(2, R) == 1 for R in (3, 4, 5))
    defect_ok = all(equivariance_defect(2, g, 3).rank == 1 for g in sphere(2, 1))
    sweep_ok = True
    for k in (1, 2, 3, 4):
        for g in sphere(2, k):
            if equivariance_defect(2, g, 3 * k).rank > k:
                sweep_ok = False
    report(
        "criterion 6: parent-edge operator index and translation defects",
        ok and defect_ok and sweep_ok,
        "index 1 at R=3,4,5; defect ranks within length",
    )


def test_criterion_07_directed_shift_field():
    n, R = 2, 4
    rays = [BoundaryPoint(IDENTITY, g) for g in sphere(n, 1)] + _random_boundary_points(n, 10)
    construction_ok = True
    index_ok = True
    for a in rays:
        try:
            op_W(a, n, R)
        except AssertionError:
            construction_ok = False
            continue
        index_ok = index_ok and index_W(a, n, R) == 1
    constancy_ok = all(w_local_constancy(n, x, 3).passed for x in ball(n, 3))
    report(
        "criterion 7: directed shift field",
        construction_ok and index_ok and constancy_ok,
        f"{len(rays)} rays; both constructions agree; index 1; columns locally constant",
    )


def test_criterion_08_decay_thresholds():
    n, R = 2, 6
    fs = [chi(n, u) for k in (1, 2) for u in sphere(n, k)]
    worst = 0
    count = 0
    ok = True
    for gamma in sphere(n, 1):
        F = dual_coefficient(n, gamma)
        inner = {IDENTITY: chi(n, gamma)}
        for f in fs:
            cert = decay_check(F, f, R, inner)
            ok = ok and cert.passed
            worst = max(worst, cert.threshold)
            count += 1
    report(
        "criterion 8: decay of the near-constancy gap",
        ok and worst <= 4,
        f"{count} pairs at R={R}, max threshold {worst}",
    )


def test_criterion_09_untwisting():
    n, R = 2, 6
    fs = [chi(n, u) for u in sphere(n, 1)]
    iota_ok = True
    for gamma in sphere(n, 1):
        for delta in [IDENTITY] + list(sphere(n, 1)):
            b = PairElement(n, {delta: dual_coefficient(n, gamma)})
            inner = {IDENTITY: chi(n, gamma)}
            for f in fs:
                cert = iota_check(b, f, R, inner)
                iota_ok = iota_ok and cert.equal
    U = untwist_U(n)
    vecs = [xi for _, xi in spanning_vectors(n, 2, 1)]
    unitary_ok = all(
        inner_product(U(xi), U(eta)) == inner_product(xi, eta)
        for xi, eta in itertools.product(vecs, repeat=2)
    )
    report(
        "criterion 9: untwisting agreement and unitarity",
        iota_ok and unitary_ok,
        f"generator sweep at R={R}; inner products preserved",
    )


def test_criterion_10_final_identity_rank2():
    start = time.monotonic()
    cert = final_identity_check(2, 4, 2)
    elapsed = time.monotonic() - start
    report(
        "criterion 10: lift equals shift, rank 2",
        cert.equal and elapsed < 30.0,
        f"{cert.checked} spanning vectors, {elapsed:.1f}s",
    )


def test_criterion_10_final_identity_rank3():
    cert = final_identity_check(3, 4, 2)
    report(
        "criterion 10: lift equals shift, rank 3",
        cert.equal,
        f"{cert.checked} spanning vectors",
    )


@pytest.mark.parametrize("rank, R, columns", [(3, 5, 4687), (4, 4, 3201)])
def test_criterion_10_kernel_wider_scope(rank, R, columns):
    # every module map is right linear, so depth 0 -- the constant
    # function at each label, i.e. the kernel column -- decides equality
    cert = final_identity_check(rank, R, 0)
    report(
        f"criterion 10: lift equals shift on its columns, rank {rank}, R={R}",
        cert.equal and cert.checked == columns,
        f"{cert.checked} columns",
    )


def test_criterion_11_mutation_sensitivity():
    ok = True
    details = []
    for g in sphere(2, 1):
        dropped = final_identity_check(2, 3, 1, drop=g)
        perturbed = final_identity_check(2, 3, 1, perturb=g)
        for cert, kind in ((dropped, "drop"), (perturbed, "perturb")):
            if cert.equal or cert.first_discrepancy is None:
                ok = False
                details.append(f"{kind} {g} undetected")
    report(
        "criterion 11: mutation sensitivity",
        ok,
        "; ".join(details) or "all 8 mutations detected and localized",
    )


def test_criterion_11_mutants_localized_on_columns():
    # each mutant fails on its columns with the first discrepancy of its
    # depth-2 golden report
    golden = Path(__file__).resolve().parent / "golden"
    details = []
    for kind in ("drop", "perturb"):
        for g in sphere(2, 1):
            name = str(g).lower() + ("-inv" if str(g).isupper() else "")
            record = next(
                r
                for r in json.loads((golden / f"verify-all-{kind}-{name}.json").read_text())["checks"]
                if r["check_id"] == "final.lift-equals-shift"
            )
            cert = final_identity_check(2, 4, 0, **{kind: g})
            if cert.equal or cert.first_discrepancy != record["certificate"]["discrepancy"]:
                details.append(f"{kind} {g}: {cert.first_discrepancy}")
    report(
        "criterion 11: mutants localized on their columns",
        not details,
        "; ".join(details) or "all 8 mutations fail at their golden discrepancy",
    )
