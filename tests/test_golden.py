"""Byte-for-byte comparison of `verify` reports with golden copies: the
`all` suite at the default scope, under each flagship mutation and at
rank 3, the `jv` suite at rank 3 and at radius 6, and the `algebra` suite
at rank 5 and 6.

The rank-2 `all` golden files were written by `boundarylab verify --suite
all --json` before module maps became kernel data, the `jv` ones by
`boundarylab verify --suite jv --rank 3 --json` and `--radius 6 --json`
before the tree-cycle certificates were restricted to the columns they
read, and the rank-3 `all` one by `boundarylab verify --suite all --rank 3
--json` before cylinder functions became cell partitions, and the rank-5
and rank-6 `algebra` ones by `boundarylab verify --suite algebra --rank N
--json` before two-variable functions became cell partitions; a
deliberate change to a report regenerates them with the same commands.
The eight rank-2 mutant `all` reports (`--mutate drop:a`, ...) and the
`final-identity ... --mutate drop:b` one below were regenerated when a
failing module-map comparison began to name its differing column
entries, "column g: (h, gamma)", instead of spanning indicators; only
their `discrepancy` and `discrepancy_labels` fields changed.

The outputs of the single-certificate commands and of the remaining
suites were written, each with `--json PATH`, before the checks became
one registry:

    boundarylab oplab commutator
    boundarylab jv defect --gamma aB --radius 6
    boundarylab final-identity --radius 3 --depth 1
    boundarylab final-identity --radius 3 --depth 1 --mutate drop:b
    boundarylab untwist check
    boundarylab verify --suite operators
"""

from pathlib import Path

import pytest

from boundarylab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

MUTATIONS = [None] + [
    f"{kind}:{letter}" for kind in ("drop", "perturb") for letter in "aAbB"
]


def golden_name(mutation: str | None) -> str:
    """verify-all.json, or e.g. verify-all-drop-a-inv.json for drop:A (the
    suffix keeps names distinct on case-insensitive file systems)."""
    if mutation is None:
        return "verify-all.json"
    kind, letter = mutation.split(":")
    suffix = f"{letter.lower()}-inv" if letter.isupper() else letter
    return f"verify-all-{kind}-{suffix}.json"


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_report_matches_golden(mutation, tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "all", "--json", str(out)]
    if mutation is not None:
        argv += ["--mutate", mutation]
    assert main(argv) == (0 if mutation is None else 1)
    assert out.read_bytes() == (GOLDEN / golden_name(mutation)).read_bytes()


@pytest.mark.parametrize(
    "name, scope",
    [
        ("verify-jv-rank3.json", ["--rank", "3"]),
        ("verify-jv-radius6.json", ["--radius", "6"]),
    ],
)
def test_jv_report_matches_golden(name, scope, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "jv", *scope, "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_rank3_report_matches_golden(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", "--rank", "3", "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "verify-all-rank3.json").read_bytes()


@pytest.mark.parametrize("rank", [5, 6])
def test_algebra_report_matches_golden(rank, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "algebra", "--rank", str(rank), "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"verify-algebra-rank{rank}.json").read_bytes()


@pytest.mark.parametrize(
    "name, argv, code",
    [
        ("oplab-commutator.json", ["oplab", "commutator"], 0),
        ("jv-defect-aB-radius6.json", ["jv", "defect", "--gamma", "aB", "--radius", "6"], 0),
        ("final-identity-radius3-depth1.json", ["final-identity", "--radius", "3", "--depth", "1"], 0),
        (
            "final-identity-radius3-depth1-drop-b.json",
            ["final-identity", "--radius", "3", "--depth", "1", "--mutate", "drop:b"],
            1,
        ),
        ("untwist-check.json", ["untwist", "check"], 0),
        ("verify-operators.json", ["verify", "--suite", "operators"], 0),
    ],
)
def test_command_output_matches_golden(name, argv, code, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main([*argv, "--json", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
