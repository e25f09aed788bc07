"""Command line harness running the certified check suites.

Every check produces a JSON-serializable record with a stable id, its
parameters, and a pass flag plus certificate payload.  Reports are
deterministic for a fixed configuration: records are emitted in a fixed
order and contain no timing or environment data.  Wall-clock timing is
shown in the human-readable summary only.
"""

from __future__ import annotations

import argparse
import json
import random
import string
import sys
import time
from dataclasses import dataclass

from .config import DomainError, ResourceLimitError, check_radius
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
    Letter,
    ReducedWord,
    ball,
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


@dataclass
class Record:
    check_id: str
    anchor: str
    params: dict
    passed: bool
    certificate: dict

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "anchor": self.anchor,
            "params": self.params,
            "pass": self.passed,
            "certificate": self.certificate,
        }


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
            "config": {
                "rank": self.config.rank,
                "radius": self.config.radius,
                "depth": self.config.depth,
            },
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


def _random_boundary_points(n: int, count: int, seed: int = 20_26) -> list[BoundaryPoint]:
    rng = random.Random(seed)
    letters = [Letter(i, s) for i in range(n) for s in (1, -1)]

    def random_word(length: int) -> list[Letter]:
        word: list[Letter] = []
        while len(word) < length:
            step = rng.choice(letters)
            if word and step == word[-1].inverse():
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


# -- suite pieces ----------------------------------------------------

def _algebra_records(cfg: SuiteConfig) -> list[Record]:
    n = cfg.rank
    records = []
    for res in verify_v_identities(n):
        records.append(
            Record(
                f"algebra.{res.check_id}.rank{n}",
                "dual element partial-isometry relations",
                {"rank": n},
                res.passed,
                res.to_json_dict(),
            )
        )
    res = verify_conjugate_flip(n)
    records.append(
        Record(
            f"algebra.conjugate-flip.rank{n}",
            "coefficient conjugation matches the adjoint up to the projection",
            {"rank": n},
            res.passed,
            res.to_json_dict(),
        )
    )

    failures = 0
    checked = 0
    points = [
        BoundaryPoint(IDENTITY, ReducedWord((letter,)))
        for letter in (Letter(i, s) for i in range(n) for s in (1, -1))
    ] + _random_boundary_points(n, 50)
    for a in points:
        for b in points[: 2 * n]:
            if a == b:
                continue
            for g in sphere(n, 1):
                checked += 1
                if not geodesic_v_check(n, a, b, g).passed:
                    failures += 1
    records.append(
        Record(
            f"algebra.geodesic-support.rank{n}",
            "dual coefficients detect two-sided geodesics through the origin",
            {"rank": n, "pairs": checked},
            failures == 0,
            {"checked": checked, "failures": failures},
        )
    )
    return records


def _operator_records(cfg: SuiteConfig) -> list[Record]:
    n, R = cfg.rank, cfg.radius
    records = []
    one = CylinderFunction.constant(n, ONE)
    fs = [one] + [chi(n, u) for u in sphere(n, 1)]
    words = [IDENTITY] + list(sphere(n, 1))

    certs = [
        lambda_rho_commute_check(f, gamma, g, delta, R)
        for f in fs
        for gamma in words[: n + 1]
        for g in fs
        for delta in words[: n + 1]
    ]
    failed = [c for c in certs if not c.within_bound]
    witness = failed[0] if failed else max(certs, key=lambda c: c.support_radius)
    records.append(
        Record(
            "operators.left-right-commutation",
            "left and right covariant monomials commute up to finite support",
            {"rank": n, "radius": R, "pairs": len(certs)},
            not failed,
            witness.to_json_dict(),
        )
    )

    sym_ok = all(
        conjugation_symmetry_check(f, gamma, g, delta, R)
        for f in fs[:2]
        for gamma in words[: n + 1]
        for g in fs[:2]
        for delta in words[: n + 1]
    )
    records.append(
        Record(
            "operators.inversion-symmetry",
            "conjugating by the inversion involution swaps the two representations",
            {"rank": n, "radius": R},
            sym_ok,
            {},
        )
    )

    a = ReducedWord.parse("a")
    wit = commutator(op_mult(chi(n, a), R), op_right(n, a, R))
    cert = support_certificate(wit, R - 1, "commutator witness")
    entry = wit.entry(IDENTITY, a)
    records.append(
        Record(
            "operators.commutator-witness",
            "smallest multiplication commutator is rank one with entry -1",
            {"rank": n, "radius": R},
            cert.rank == 1 and str(entry) == "-1",
            cert.to_json_dict(),
        )
    )
    return records


def _jv_records(cfg: SuiteConfig) -> list[Record]:
    n, R = cfg.rank, cfg.radius
    check_radius(R + 1)  # the index sweep reads radius R + 1
    records = []
    idx = {r: index_b(n, r) for r in range(3, R + 2)}
    records.append(
        Record(
            "jv.parent-edge-index",
            "the parent-edge operator has index one at every radius",
            {"rank": n, "radii": sorted(idx)},
            all(v == 1 for v in idx.values()),
            {"indices": {str(k): v for k, v in sorted(idx.items())}},
        )
    )

    defects_ok = True
    payload = {}
    for g in sphere(n, 1):
        cert = equivariance_defect(n, g, max(R, 3))
        payload[str(g)] = cert.rank
        defects_ok = defects_ok and cert.rank == 1
    records.append(
        Record(
            "jv.translation-defect",
            "conjugating the parent-edge operator by a generator has rank-one defect",
            {"rank": n, "radius": max(R, 3)},
            defects_ok,
            {"ranks": payload},
        )
    )

    rays = _random_boundary_points(n, 6)
    agree = True
    windex = True
    for a in rays:
        try:
            W = op_W(a, n, R)
        except AssertionError:
            agree = False
            continue
        windex = windex and index_W(a, n, R) == 1
    records.append(
        Record(
            "jv.directed-shift",
            "folded and closed-form directed shifts agree and keep index one",
            {"rank": n, "radius": R, "rays": len(rays)},
            agree and windex,
            {"construction_agreement": agree, "index_one": windex},
        )
    )

    const_ok = all(w_local_constancy(n, x, min(R, 3)).passed for x in ball(n, 2))
    records.append(
        Record(
            "jv.shift-local-constancy",
            "shift columns depend only on a bounded prefix of the direction",
            {"rank": n, "radius": min(R, 3)},
            const_ok,
            {},
        )
    )
    return records


def _untwist_records(cfg: SuiteConfig) -> list[Record]:
    n, R, d = cfg.rank, cfg.radius, cfg.depth
    records = []

    thresholds = {}
    decay_ok = True
    fs = [chi(n, u) for u in sphere(n, 1)]
    for gamma in sphere(n, 1):
        F = dual_coefficient(n, gamma)
        inner = {IDENTITY: chi(n, gamma)}
        for f in fs:
            cert = decay_check(F, f, R, inner)
            thresholds[f"{gamma}|{f!r}"] = cert.threshold
            decay_ok = decay_ok and cert.passed
    records.append(
        Record(
            "untwist.near-constancy-decay",
            "the gap between block value and pointwise multiplication dies out",
            {"rank": n, "radius": R},
            decay_ok,
            {"max_threshold": max(thresholds.values(), default=0)},
        )
    )

    iota_ok = True
    first = None
    for gamma in [IDENTITY] + list(sphere(n, 1)):
        b = PairElement(n, {gamma: dual_coefficient(n, ReducedWord.parse("a"))})
        inner_map = lambda _delta: {IDENTITY: chi(n, ReducedWord.parse("a"))}
        for f in fs[: n + 1]:
            cert = iota_check(b, f, R, min(d, 1), inner_map)
            iota_ok = iota_ok and cert.equal
            if first is None and not cert.equal:
                first = cert.first_discrepancy
    records.append(
        Record(
            "untwist.two-picture-agreement",
            "second-leg scalar extension matches honest multiplication up to finite defect",
            {"rank": n, "radius": R, "depth": min(d, 1)},
            iota_ok,
            {"first_discrepancy": first},
        )
    )

    U = untwist_U()
    unit_ok = True
    vecs = [xi for _, xi in spanning_vectors(n, min(R, 2), 1)]
    for xi in vecs:
        for eta in vecs[: 2 * n + 1]:
            if inner_product(U(xi), U(eta)) != inner_product(xi, eta):
                unit_ok = False
    records.append(
        Record(
            "untwist.unitarity",
            "the label-twisting unitary preserves all inner products",
            {"rank": n, "radius": min(R, 2), "depth": 1},
            unit_ok,
            {},
        )
    )
    return records


def _final_records(
    cfg: SuiteConfig,
    drop: ReducedWord | None = None,
    perturb: ReducedWord | None = None,
) -> list[Record]:
    cert = final_identity_check(
        cfg.rank, cfg.radius, cfg.depth, drop=drop, perturb=perturb
    )
    params = {"rank": cfg.rank, "radius": cfg.radius, "depth": cfg.depth}
    if drop is not None:
        params["drop"] = str(drop)
    if perturb is not None:
        params["perturb"] = str(perturb)
    return [
        Record(
            "final.lift-equals-shift",
            "the assembled lift coincides with the fiberwise tree shift",
            params,
            cert.equal,
            cert.to_json_dict(),
        )
    ]


def run_suite(
    cfg: SuiteConfig,
    suite: str,
    drop: ReducedWord | None = None,
    perturb: ReducedWord | None = None,
) -> Report:
    cfg.validate()
    if suite not in SUITES:
        raise DomainError(f"unknown suite: {suite}")
    start = time.monotonic()
    records: list[Record] = []
    if suite in ("algebra", "all"):
        records.extend(_algebra_records(cfg))
    if suite in ("operators", "all"):
        records.extend(_operator_records(cfg))
    if suite in ("jv", "all"):
        records.extend(_jv_records(cfg))
    if suite in ("untwist", "all"):
        records.extend(_untwist_records(cfg))
    if suite == "all":
        records.extend(_final_records(cfg, drop=drop, perturb=perturb))
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


def _parse_mutation(text: str | None) -> tuple[ReducedWord | None, ReducedWord | None]:
    if not text:
        return None, None
    kind, _, word = text.partition(":")
    if kind == "drop":
        return ReducedWord.parse(word), None
    if kind == "perturb":
        return None, ReducedWord.parse(word)
    raise DomainError("mutation must look like drop:a or perturb:b")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank", type=int, default=argparse.SUPPRESS)
    common.add_argument("--radius", type=int, default=argparse.SUPPRESS)
    common.add_argument("--depth", type=int, default=argparse.SUPPRESS)
    common.add_argument("--json", metavar="PATH", default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="boundarylab",
        description="exact certified checks for boundary crossed-product identities",
    )
    parser.add_argument("--rank", type=int, default=2)
    parser.add_argument("--radius", type=int, default=4)
    parser.add_argument("--depth", type=int, default=2)
    parser.add_argument("--json", metavar="PATH", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="algebra identities, or a named suite"
    )
    p_verify.add_argument("--suite", choices=SUITES, default="algebra")
    p_verify.add_argument("--mutate", default=None, help="drop:WORD or perturb:WORD")

    p_oplab = sub.add_parser("oplab", help="truncated operator certificates")
    op_sub = p_oplab.add_subparsers(dest="action", required=True)
    p_comm = op_sub.add_parser("commutator", parents=[common])
    p_comm.add_argument("--f", default="chi(a)")
    p_comm.add_argument("--gamma", default="a")

    p_jv = sub.add_parser("jv", help="tree cycle checks")
    jv_sub = p_jv.add_subparsers(dest="action", required=True)
    jv_sub.add_parser("index", parents=[common])
    p_def = jv_sub.add_parser("defect", parents=[common])
    p_def.add_argument("--gamma", default="a")

    p_un = sub.add_parser("untwist", help="module untwisting checks")
    un_sub = p_un.add_subparsers(dest="action", required=True)
    un_sub.add_parser("check", parents=[common])

    p_fin = sub.add_parser("final-identity", parents=[common], help="the flagship comparison")
    p_fin.add_argument("--mutate", default=None, help="drop:WORD or perturb:WORD")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = SuiteConfig(rank=args.rank, radius=args.radius, depth=args.depth)
    try:
        if args.command == "verify":
            drop, perturb = _parse_mutation(args.mutate)
            return _emit(run_suite(cfg, args.suite, drop=drop, perturb=perturb), args.json)
        if args.command == "oplab":
            f = parse_cylinder(args.f, cfg.rank)
            gamma = ReducedWord.parse(args.gamma)
            cert = lambda_rho_commute_check(
                f, gamma, CylinderFunction.constant(cfg.rank, ONE), IDENTITY, cfg.radius
            )
            return _emit_certificate(cert, cert.within_bound, args.json)
        if args.command == "jv":
            if args.action == "index":
                return _emit(run_suite(cfg, "jv"), args.json)
            gamma = ReducedWord.parse(args.gamma)
            cert = equivariance_defect(cfg.rank, gamma, cfg.radius)
            return _emit_certificate(cert, cert.rank <= len(gamma), args.json)
        if args.command == "untwist":
            return _emit(run_suite(cfg, "untwist"), args.json)
        if args.command == "final-identity":
            drop, perturb = _parse_mutation(args.mutate)
            cert = final_identity_check(
                cfg.rank, cfg.radius, cfg.depth, drop=drop, perturb=perturb
            )
            return _emit_certificate(cert, cert.equal, args.json)
    except (DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
