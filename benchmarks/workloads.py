"""The benchmark workloads: inputs, the calls of one sample, verdict gates.

Each workload has a ``setup`` that builds the sample's inputs from the
seed (after the package is imported) and a ``run`` that makes the calls
and hands every verdict to ``record``.  A verdict is True only when the
certificate says what the seed commit says it should.  This module
imports nothing from ``boundarylab`` at import time, so the parent
process can read ``verdicts`` without loading the package.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN = Path(__file__).resolve().parent / "golden"
RANK = 2


@dataclass(frozen=True)
class Workload:
    name: str
    verdicts: int
    setup: Callable[[int, Path], object]
    run: Callable[[object, Callable[[bool], None]], None]


# -- flagship: the north-star check ------------------------------------

FLAGSHIP_SCOPE = (RANK, 5, 2)
FLAGSHIP_VECTORS = 8245


def _flagship_setup(seed: int, tmp: Path):
    return FLAGSHIP_SCOPE


def _flagship_run(scope, record) -> None:
    from boundarylab.modules import final_identity_check

    cert = final_identity_check(*scope)
    record(cert.equal and cert.checked == FLAGSHIP_VECTORS)


# -- mutants: the failing path of the same comparison ------------------

MUTANT_SCOPE = (RANK, 4, 2)


def _mutants_setup(seed: int, tmp: Path):
    from boundarylab.words import sphere

    gens = sphere(RANK, 1)
    return [("drop", g) for g in gens] + [("perturb", g) for g in gens]


def _mutants_run(mutations, record) -> None:
    from boundarylab.modules import final_identity_check

    for kind, g in mutations:
        cert = final_identity_check(*MUTANT_SCOPE, **{kind: g})
        record(not cert.equal and cert.first_discrepancy is not None)


# -- tree-cycle: index and defects of b, directed shifts ---------------

INDEX_RADII = range(3, 10)
SHORT_WORDS = 16  # every word with 1 <= |g| <= 2 at rank 2
LONG_WORDS = 3
LONG_RADIUS = 9
RAYS = 3
RAY_RADIUS = 8


def random_ray(rng: random.Random, n: int):
    """An eventually periodic boundary point with a short head and period."""
    from boundarylab.config import DomainError
    from boundarylab.words import BoundaryPoint, generators, reduce

    letters = [g.letters[0] for g in generators(n)]
    while True:
        head = reduce(rng.choice(letters) for _ in range(rng.randrange(0, 3)))
        period = reduce(rng.choice(letters) for _ in range(rng.randrange(1, 4)))
        try:
            return BoundaryPoint(head, period)
        except DomainError:
            continue


def _tree_setup(seed: int, tmp: Path):
    from boundarylab.words import ball, sphere

    rng = random.Random(seed)
    short = [g for g in ball(RANK, 2) if len(g)]
    long = rng.sample(sphere(RANK, 3), LONG_WORDS)
    rays = [random_ray(rng, RANK) for _ in range(RAYS)]
    return short, long, rays


def _tree_run(inputs, record) -> None:
    from boundarylab.jv import equivariance_defect, index_W, index_b, op_W

    short, long, rays = inputs
    for r in INDEX_RADII:
        record(index_b(RANK, r) == 1)
    for g in short:
        record(equivariance_defect(RANK, g, 3 * len(g)).rank <= len(g))
    for g in long:
        record(equivariance_defect(RANK, g, LONG_RADIUS).rank <= len(g))
    for a in rays:
        try:
            op_W(a, RANK, RAY_RADIUS)
        except AssertionError:
            record(False)
        else:
            record(True)
        record(index_W(a, RANK, RAY_RADIUS) == 1)


# -- cli-suite: the command users run ---------------------------------

CLI_CALLS = (
    ("verify-all-rank2.json", ["verify", "--suite", "all"]),
    ("verify-algebra-rank4.json", ["verify", "--suite", "algebra", "--rank", "4"]),
)


def _cli_setup(seed: int, tmp: Path):
    return [
        (GOLDEN / name, tmp / name, argv + ["--json", str(tmp / name)])
        for name, argv in CLI_CALLS
    ]


def _cli_run(calls, record) -> None:
    from boundarylab.cli import main

    for golden, out, argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        record(code == 0 and out.read_bytes() == golden.read_bytes())


WORKLOADS = {
    w.name: w
    for w in (
        Workload("flagship", 1, _flagship_setup, _flagship_run),
        Workload("mutants", 8, _mutants_setup, _mutants_run),
        Workload(
            "tree-cycle",
            len(INDEX_RADII) + SHORT_WORDS + LONG_WORDS + 2 * RAYS,
            _tree_setup,
            _tree_run,
        ),
        Workload("cli-suite", len(CLI_CALLS), _cli_setup, _cli_run),
    )
}
