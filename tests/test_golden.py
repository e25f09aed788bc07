"""Byte-for-byte comparison of `verify` reports with golden copies: the
`all` suite at the default scope and under each flagship mutation, and
the `jv` suite at rank 3 and at radius 6.

The `all` golden files were written by `boundarylab verify --suite all
--json` before module maps became kernel data, and the `jv` ones by
`boundarylab verify --suite jv --rank 3 --json` and `--radius 6 --json`
before the tree-cycle certificates were restricted to the columns they
read; a deliberate change to a report regenerates them with the same
commands.
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
