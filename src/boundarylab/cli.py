"""Command line harness running the certified check suites.

Every check is an entry of one registry, `CHECKS`.  A suite first checks
the radius limits of all its entries -- `operators` needs radius at
least 4, `jv` 2 and `untwist` 1 -- and then runs them; the
single-certificate commands apply the pass rule of their entry.  Reports
are deterministic for a fixed configuration: records are sorted by id
and contain no timing or environment data.  Wall-clock timing is shown
in the human-readable summary only.
"""

from __future__ import annotations

import argparse
import json
import random
import string
import sys
import time
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass
from itertools import product
from operator import attrgetter

from .config import DomainError, ResourceLimitError, check_depth, check_radius
from .crossed import (
    PairElement,
    dual_coefficient,
    geodesic_v_check,
    verify_conjugate_flip,
    verify_v_identities,
)
from .cylinders import CylinderFunction, chi, parse_cylinder
from .jv import equivariance_defect, index_W, index_b, op_W, w_local_constancy
from .modules import (
    final_identity_check,
    inner_product,
    iota_check,
    decay_check,
    dual_inner,
    spanning_vectors,
    untwist_U,
)
from .operators import (
    commutator,
    conjugation_symmetry_check,
    lambda_rho_commute_check,
    op_mult,
    op_right,
    support_certificate,
)
from .scalars import ONE
from .words import (
    IDENTITY,
    BoundaryPoint,
    ReducedWord,
    ball,
    next_letters,
    parse_word,
    sphere,
)

SUITES = ("algebra", "operators", "jv", "untwist", "all")
MAX_RANK = len(string.ascii_lowercase)


@dataclass(frozen=True)
class SuiteConfig:
    rank: int = 2
    radius: int = 4
    depth: int = 2

    def validate(self) -> None:
        if self.rank < 2:
            raise DomainError("rank must be at least 2")
        if self.rank > MAX_RANK:
            raise DomainError(
                f"rank must be at most {MAX_RANK}: generators print as the letters a..z"
            )
        check_radius(self.radius)
        check_depth(self.depth)


@dataclass
class Record:
    check_id: str
    anchor: str
    params: dict
    passed: bool
    certificate: dict

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


@dataclass
class Report:
    config: SuiteConfig
    records: list[Record]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "pass": self.passed,
            "checks": [r.to_json_dict() for r in self.records],
        }

    def summary(self) -> str:
        lines = [
            f"suite report  rank={self.config.rank}  radius={self.config.radius}"
            f"  depth={self.config.depth}  ({self.elapsed:.1f}s)"
        ]
        for r in self.records:
            mark = "ok  " if r.passed else "FAIL"
            lines.append(f"  [{mark}] {r.check_id}")
            if not r.passed:
                lines.append(f"         {json.dumps(r.certificate, sort_keys=True)}")
        lines.append("result: " + ("all checks passed" if self.passed else "FAILURES"))
        return "\n".join(lines)


def _random_boundary_points(n: int, count: int) -> list[BoundaryPoint]:
    """Eventually periodic points from one fixed seed, the same in every report."""
    rng = random.Random(20_26)
    letters = next_letters(n, None)

    def random_word(length: int) -> list[int]:
        word: list[int] = []
        while len(word) < length:
            step = rng.choice(letters)
            if word and step not in next_letters(n, word[-1]):
                continue
            word.append(step)
        return word

    out = []
    while len(out) < count:
        head = random_word(rng.randrange(0, 3))
        period = random_word(rng.randrange(1, 4))
        try:
            candidate = BoundaryPoint(ReducedWord(tuple(head)), ReducedWord(tuple(period)))
        except (DomainError, ValueError):
            continue
        out.append(candidate)
    return out


# -- the registry of checks -----------------------------------------

Row = tuple[str, dict, bool, dict]  # check id, params, pass, certificate


@dataclass(frozen=True)
class Check:
    """One registry entry: its suite, its anchor, the radius limits it
    reads, and a runner that takes the rank n, radius R, depth d and
    the flagship faults and yields the rows of its records.

    The radius must be at least `floor`; radius R + `reach` must lie
    under the cap; an entry with a `depth` translates at labels of
    length R + depth, which must lie under the cylinder depth cap.
    `rule`, where set, is the pass rule of one certificate, which the
    runner and the matching single-certificate command both apply.
    `mutable` marks a runner that reads the faults.
    """

    suite: str
    anchor: str
    run: Callable[[int, int, int, dict], Iterator[Row]]
    floor: int = 0
    reach: int = 0
    depth: int | None = None
    rule: Callable[..., bool] | None = None
    mutable: bool = False


CHECKS: list[Check] = []


def _check(suite: str, anchor: str, **limits) -> Callable[..., Check]:
    """Register the decorated runner, in run order, as an entry."""

    def register(run) -> Check:
        CHECKS.append(Check(suite, anchor, run, **limits))
        return CHECKS[-1]

    return register


@_check("algebra", "dual element partial-isometry relations")
def _v_identities(n: int, R: int, d: int, faults: dict) -> Iterator[Row]:
    for res in verify_v_identities(n):
        yield f"algebra.{res.check_id}.rank{n}", {"rank": n}, res.passed, res.to_json_dict()


@_check("algebra", "coefficient conjugation matches the adjoint up to the projection")
def _conjugate_flip(n: int, R: int, d: int, faults: dict) -> Iterator[Row]:
    res = verify_conjugate_flip(n)
    yield f"algebra.conjugate-flip.rank{n}", {"rank": n}, res.passed, res.to_json_dict()


@_check("algebra", "dual coefficients detect two-sided geodesics through the origin")
def _geodesic_support(n: int, R: int, d: int, faults: dict) -> Iterator[Row]:
    points = [BoundaryPoint(IDENTITY, g) for g in sphere(n, 1)] + _random_boundary_points(n, 50)
    verdicts = [
        geodesic_v_check(n, a, b, g).passed
        for a, b, g in product(points, points[: 2 * n], sphere(n, 1))
        if a != b
    ]
    checked, failures = len(verdicts), verdicts.count(False)
    yield (
        f"algebra.geodesic-support.rank{n}", {"rank": n, "pairs": checked},
        failures == 0, {"checked": checked, "failures": failures},
    )


def _monomials(n: int) -> tuple[list[CylinderFunction], list[ReducedWord]]:
    """The functions 1, chi(a), chi(A), ... and the first n + 1 words 1, a, A, ..."""
    fs = [CylinderFunction.constant(n, ONE)] + [chi(n, u) for u in sphere(n, 1)]
    return fs, ([IDENTITY] + sphere(n, 1))[: n + 1]


@_check("operators", "left and right covariant monomials commute up to finite support",
        floor=4, rule=attrgetter("within_bound"))
def _commutation(n: int, R: int, d: int, faults: dict) -> Iterator[Row]:
    fs, words = _monomials(n)
    certs = [lambda_rho_commute_check(*m, R) for m in product(fs, words, fs, words)]
    failed = [c for c in certs if not _commutation.rule(c)]
    witness = failed[0] if failed else max(certs, key=lambda c: c.support_radius)
    params = {"rank": n, "radius": R, "pairs": len(certs)}
    yield "operators.left-right-commutation", params, not failed, witness.to_json_dict()


@_check("operators", "conjugating by the inversion involution swaps the two representations")
def _inversion_symmetry(n: int, R: int, d: int, faults: dict) -> Iterator[Row]:
    fs, words = _monomials(n)
    sym_ok = all(
        conjugation_symmetry_check(*m, R) for m in product(fs[:2], words, fs[:2], words)
    )
    yield "operators.inversion-symmetry", {"rank": n, "radius": R}, sym_ok, {}


@_check("operators", "smallest multiplication commutator is rank one with entry -1")
def _commutator_witness(n: int, R: int, d: int, faults: dict) -> Iterator[Row]:
    a = ReducedWord.parse("a")
    wit = commutator(op_mult(chi(n, a), R), op_right(n, a, R))
    cert = support_certificate(wit, R - 1, "commutator witness")
    passed = cert.rank == 1 and str(wit.entry(IDENTITY, a)) == "-1"
    yield "operators.commutator-witness", {"rank": n, "radius": R}, passed, cert.to_json_dict()


@_check("jv", "the parent-edge operator has index one at every radius", reach=1)
def _parent_edge_index(n: int, R: int, d: int, faults: dict) -> Iterator[Row]:
    idx = {r: index_b(n, r) for r in range(3, R + 2)}
    yield (
        "jv.parent-edge-index", {"rank": n, "radii": sorted(idx)},
        all(v == 1 for v in idx.values()), {"indices": {str(k): v for k, v in idx.items()}},
    )


@_check("jv", "conjugating the parent-edge operator by a generator has rank-one defect",
        rule=lambda cert, gamma: cert.rank == len(gamma))
def _translation_defect(n: int, R: int, d: int, faults: dict) -> Iterator[Row]:
    R = max(R, 3)
    certs = {g: equivariance_defect(n, g, R) for g in sphere(n, 1)}
    yield (
        "jv.translation-defect", {"rank": n, "radius": R},
        all(_translation_defect.rule(c, g) for g, c in certs.items()),
        {"ranks": {str(g): c.rank for g, c in certs.items()}},
    )


@_check("jv", "folded and closed-form directed shifts agree and keep index one")
def _directed_shift(n: int, R: int, d: int, faults: dict) -> Iterator[Row]:
    rays = _random_boundary_points(n, 6)
    agree = windex = True
    for a in rays:
        try:
            op_W(a, n, R)
        except AssertionError:
            agree = False
            continue
        windex = windex and index_W(a, n, R) == 1
    yield (
        "jv.directed-shift", {"rank": n, "radius": R, "rays": len(rays)},
        agree and windex, {"construction_agreement": agree, "index_one": windex},
    )


@_check("jv", "shift columns depend only on a bounded prefix of the direction", floor=2)
def _shift_local_constancy(n: int, R: int, d: int, faults: dict) -> Iterator[Row]:
    R = min(R, 3)
    const_ok = all(w_local_constancy(n, x, R).passed for x in ball(n, 2))
    yield "jv.shift-local-constancy", {"rank": n, "radius": R}, const_ok, {}


@_check("untwist", "the gap between block value and pointwise multiplication dies out")
def _near_constancy_decay(n: int, R: int, d: int, faults: dict) -> Iterator[Row]:
    fs = [chi(n, u) for u in sphere(n, 1)]
    certs = []
    for gamma in sphere(n, 1):
        F, inner = dual_coefficient(n, gamma), dual_inner(n, gamma)
        certs += [decay_check(F, f, R, inner) for f in fs]
    yield (
        "untwist.near-constancy-decay", {"rank": n, "radius": R}, all(c.passed for c in certs),
        {"max_threshold": max((c.threshold for c in certs), default=0)},
    )


@_check("untwist", "second-leg scalar extension matches honest multiplication up to finite defect",
        floor=1)
def _two_picture_agreement(n: int, R: int, d: int, faults: dict) -> Iterator[Row]:
    a = ReducedWord.parse("a")
    fs = [chi(n, u) for u in sphere(n, 1)][: n + 1]
    inner = dual_inner(n, a)
    certs = []
    for gamma in [IDENTITY] + sphere(n, 1):
        b = PairElement(n, {gamma: dual_coefficient(n, a)})
        certs += [iota_check(b, f, R, inner) for f in fs]
    first = next((c.first_discrepancy for c in certs if not c.equal), None)
    yield (
        "untwist.two-picture-agreement", {"rank": n, "radius": R, "depth": min(d, 1)},
        all(c.equal for c in certs), {"first_discrepancy": first},
    )


@_check("untwist", "the label-twisting unitary preserves all inner products")
def _unitarity(n: int, R: int, d: int, faults: dict) -> Iterator[Row]:
    R = min(R, 2)
    U = untwist_U(n)
    vecs = [xi for _, xi in spanning_vectors(n, R, 1)]
    images = [U(xi) for xi in vecs]
    unit_ok = all(
        inner_product(Uxi, Ueta) == inner_product(xi, eta)
        for xi, Uxi in zip(vecs, images)
        for eta, Ueta in zip(vecs[: 2 * n + 1], images)
    )
    yield "untwist.unitarity", {"rank": n, "radius": R, "depth": 1}, unit_ok, {}


@_check("all", "the assembled lift coincides with the fiberwise tree shift",
        depth=1, rule=attrgetter("equal"), mutable=True)
def _flagship(n: int, R: int, d: int, faults: dict) -> Iterator[Row]:
    cert = final_identity_check(n, R, d, **faults)
    params = {"rank": n, "radius": R, "depth": d}
    params.update((kind, str(g)) for kind, g in faults.items() if g is not None)
    yield "final.lift-equals-shift", params, _flagship.rule(cert), cert.to_json_dict()


def run_suite(
    cfg: SuiteConfig,
    suite: str,
    drop: ReducedWord | None = None,
    perturb: ReducedWord | None = None,
) -> Report:
    """Check the limits of every entry the suite selects, and that one of
    them reads the faults if any are given, then run them."""
    cfg.validate()
    if suite not in SUITES:
        raise DomainError(f"unknown suite: {suite}")
    entries = [c for c in CHECKS if suite in (c.suite, "all")]
    floor = max(c.floor for c in entries)
    if cfg.radius < floor:
        raise DomainError(f"the {suite} suite needs radius at least {floor}, got {cfg.radius}")
    for c in entries:
        check_radius(cfg.radius + c.reach)
        if c.depth is not None:
            check_depth(cfg.radius + c.depth)
    faults = {"drop": drop, "perturb": perturb}
    if any(g is not None for g in faults.values()) and not any(c.mutable for c in entries):
        raise DomainError(f"no check of the {suite} suite reads --mutate; use --suite all")
    start = time.monotonic()
    records = [
        Record(check_id, c.anchor, params, passed, cert)
        for c in entries
        for check_id, params, passed, cert in c.run(cfg.rank, cfg.radius, cfg.depth, faults)
    ]
    records.sort(key=lambda r: r.check_id)
    return Report(cfg, records, time.monotonic() - start)


# -- argument plumbing -----------------------------------------------

def _write_json(payload: dict, json_path: str | None) -> None:
    """Print the payload for "-", write it to any other path."""
    if not json_path:
        return
    text = json.dumps(payload, indent=2, sort_keys=True)
    if json_path == "-":
        print(text)
    else:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")


def _emit(report: Report, json_path: str | None) -> int:
    print(report.summary())
    _write_json(report.to_json_dict(), json_path)
    return 0 if report.passed else 1


def _emit_certificate(cert, passed: bool, json_path: str | None) -> int:
    """Print a single certificate as JSON, also writing it to a path."""
    payload = cert.to_json_dict()
    _write_json(payload, "-")
    if json_path != "-":
        _write_json(payload, json_path)
    return 0 if passed else 1


def _parse_mutation(
    text: str | None, rank: int
) -> tuple[ReducedWord | None, ReducedWord | None]:
    """The word of drop:WORD or perturb:WORD, which must be a generator of F_rank."""
    if not text:
        return None, None
    kind, _, word = text.partition(":")
    if kind not in ("drop", "perturb"):
        raise DomainError("mutation must look like drop:a or perturb:b")
    g = parse_word(word, rank)
    if len(g) != 1:
        raise DomainError(f"mutation word must be a generator, got {word!r}")
    return (g, None) if kind == "drop" else (None, g)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    parser = argparse.ArgumentParser(
        prog="boundarylab",
        description="exact certified checks for boundary crossed-product identities",
    )
    for name, default in asdict(SuiteConfig()).items():
        common.add_argument(f"--{name}", type=int, default=argparse.SUPPRESS)
        parser.add_argument(f"--{name}", type=int, default=default)
    common.add_argument("--json", metavar="PATH", default=argparse.SUPPRESS)
    parser.add_argument("--json", metavar="PATH", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="algebra identities, or a named suite"
    )
    p_verify.add_argument("--suite", choices=SUITES, default="algebra")
    p_verify.add_argument("--mutate", default=None, help="drop:G or perturb:G, G a generator")

    p_oplab = sub.add_parser("oplab", help="truncated operator certificates")
    op_sub = p_oplab.add_subparsers(dest="action", required=True)
    p_comm = op_sub.add_parser("commutator", parents=[common])
    p_comm.add_argument("--f", default="chi(a)")
    p_comm.add_argument("--gamma", default="a")

    p_jv = sub.add_parser("jv", help="tree cycle checks")
    jv_sub = p_jv.add_subparsers(dest="action", required=True)
    jv_sub.add_parser("index", parents=[common]).set_defaults(suite="jv", mutate=None)
    p_def = jv_sub.add_parser("defect", parents=[common])
    p_def.add_argument("--gamma", default="a")

    p_un = sub.add_parser("untwist", help="module untwisting checks")
    un_sub = p_un.add_subparsers(dest="action", required=True)
    un_sub.add_parser("check", parents=[common]).set_defaults(suite="untwist", mutate=None)

    p_fin = sub.add_parser("final-identity", parents=[common], help="the flagship comparison")
    p_fin.add_argument("--mutate", default=None, help="drop:G or perturb:G, G a generator")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = SuiteConfig(rank=args.rank, radius=args.radius, depth=args.depth)
    try:
        cfg.validate()
        if "suite" in args:  # verify, jv index and untwist check
            drop, perturb = _parse_mutation(args.mutate, cfg.rank)
            return _emit(run_suite(cfg, args.suite, drop=drop, perturb=perturb), args.json)
        if args.command == "oplab":
            f = parse_cylinder(args.f, cfg.rank)
            gamma = parse_word(args.gamma, cfg.rank)
            cert = lambda_rho_commute_check(
                f, gamma, CylinderFunction.constant(cfg.rank, ONE), IDENTITY, cfg.radius
            )
            return _emit_certificate(cert, _commutation.rule(cert), args.json)
        if args.command == "jv":
            gamma = parse_word(args.gamma, cfg.rank)
            cert = equivariance_defect(cfg.rank, gamma, cfg.radius)
            return _emit_certificate(cert, _translation_defect.rule(cert, gamma), args.json)
        if args.command == "final-identity":
            drop, perturb = _parse_mutation(args.mutate, cfg.rank)
            cert = final_identity_check(
                cfg.rank, cfg.radius, cfg.depth, drop=drop, perturb=perturb
            )
            return _emit_certificate(cert, _flagship.rule(cert), args.json)
    except (DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
