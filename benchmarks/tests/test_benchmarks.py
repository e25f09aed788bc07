"""Tests of the benchmark itself: self-time arithmetic, wrapper restoring,
and a small-scope run of every workload, plain and traced.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import sample  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = sample.import_package()


def clear_tables() -> None:
    for table in tracing.memo_tables(MODULES).values():
        table.cache_clear()


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, "cylinders.translate", "cylinders", 0.0, 10.0, None),
        (1, "operators.op_mult", "operators", 2.0, 5.0, 0),
        (2, "cylinders.translate", "cylinders", 3.0, 4.0, 1),
        (3, "jv.op_b", "jv", 6.0, 8.0, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs["cylinders"] == pytest.approx((10 - 3 - 2) + 1)
    assert selfs["operators"] == pytest.approx(3 - 1)
    assert selfs["jv"] == pytest.approx(2)
    assert selfs["words"] == 0.0


def test_same_layer_recursion_is_one_span():
    clear_tables()
    tracer = tracing.Tracer(MODULES, "t")
    cyl, words = MODULES["cylinders"], MODULES["words"]
    f = cyl.chi(2, words.ReducedWord.parse("ab"))
    with tracer.installed():
        cyl.translate(words.ReducedWord.parse("b"), f)
    assert tracer.calls["cylinders._translate_indicator"] >= 1
    assert [s[1] for s in tracer.spans if s[2] == "cylinders"] == ["cylinders.translate"]
    (top,) = [s for s in tracer.spans if s[5] is None]
    children = sum(s[4] - s[3] for s in tracer.spans if s[5] == top[0])
    assert tracer.family_s["cylinders.translate_s"] == pytest.approx(top[4] - top[3])
    assert tracing.self_times(tracer.spans)["cylinders"] == pytest.approx(top[4] - top[3] - children)


def bindings() -> dict:
    out = {}
    for name, mod in MODULES.items():
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for k, v in vars(value).items():
                    out[(name, attr, k)] = v
    return out


def test_wrappers_rebind_importers_and_restore():
    before = bindings()
    callbacks = list(gc.callbacks)
    tracer = tracing.Tracer(MODULES, "t")
    with tracer.installed():
        translate = before[("cylinders", "translate")]
        importers = [k for k, v in before.items() if v is translate]
        assert len(importers) > 1  # crossed and others import it by name
        for key in importers:
            assert getattr(MODULES[key[0]], key[1]) is not translate
        assert MODULES["words"].ReducedWord.__init__ is not before[("words", "ReducedWord", "__init__")]
        assert len(gc.callbacks) == len(callbacks) + 1
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert gc.callbacks == callbacks


def test_wrappers_restore_after_an_exception():
    before = bindings()
    with pytest.raises(KeyError):
        with tracing.Tracer(MODULES, "t").installed():
            raise KeyError("boom")
    after = bindings()
    assert all(after[k] is before[k] for k in before)


def test_cold_guard_rejects_warm_tables(tmp_path):
    clear_tables()
    MODULES["words"].ball(2, 2)
    with pytest.raises(sample.WarmStart):
        sample.run_sample(workloads.WORKLOADS["flagship"], 1, MODULES, False, tmp_path)


SMALL = {
    "flagship": {"FLAGSHIP_SCOPE": (2, 2, 1)},
    "mutants": {"MUTANT_SCOPE": (2, 2, 1)},
    "tree-cycle": {"INDEX_RADII": range(3, 5), "LONG_WORDS": 0, "RAY_RADIUS": 4},
    "cli-suite": {},
}


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_scope_sample(name, trace, tmp_path, monkeypatch):
    for attr, value in SMALL[name].items():
        monkeypatch.setattr(workloads, attr, value)
    if name == "flagship":
        vectors = sum(1 for _ in MODULES["modules"].spanning_vectors(2, 2, 1))
        monkeypatch.setattr(workloads, "FLAGSHIP_VECTORS", vectors)
    clear_tables()
    out = sample.run_sample(workloads.WORKLOADS[name], 7, MODULES, trace, tmp_path)
    assert out["error"] is None
    assert out["recorded"] > 0 and out["passed"] == out["recorded"]
    assert out["t_ready"] <= out["t_first"] <= out["t_last"]
    if not trace:
        return
    layer = out["tracer"].metrics()
    assert set(layer) == set(tracing.PER_LAYER)
    if name in ("flagship", "mutants"):
        assert layer["operators.matmul_calls"] == 0
        assert layer["modules.vectors_checked"] > 0
    if name == "tree-cycle":
        assert layer["modules.vectors_checked"] == 0
        assert layer["cylinders.functions_built"] == 0
        assert layer["jv.defect_s"] > 0 and 0 < layer["jv.defect_useful_ratio"] < 1
    if name == "cli-suite":
        assert layer["cli.emit_s"] > 0 and layer["crossed.pair_products"] > 0


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "flagship", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_what_the_run_reports():
    import run

    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in config["per_layer"]] == list(tracing.PER_LAYER) + ["trace.overhead_s"]
    assert all(m["unit"] == run._layer_unit(m["name"]) for m in config["per_layer"])
    assert {w["name"] for w in config["workloads"]} == set(workloads.WORKLOADS)
