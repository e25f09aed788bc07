"""One cold sample of one workload, run in a fresh interpreter by run.py.

    python3 benchmarks/sample.py --workload NAME --seed N [--trace]

Imports ``boundarylab`` from ``src/`` of the checkout this file sits in,
checks that every memo table of the package is empty, builds the
workload's inputs, makes its calls and prints one JSON line: the clock
readings, the verdicts, resource use and memo table sizes.  With
``--trace`` the calls run under ``tracing.Tracer`` and the line also
carries the per-layer metrics; the spans go to ``.bench_trace/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYER_MODULES = ("words", "scalars", "cylinders", "crossed", "operators", "jv", "modules", "cli", "config")


class WarmStart(RuntimeError):
    """A memo table held entries before the sample made its first call."""


def import_package() -> dict:
    """Import every package module from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "boundarylab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no boundarylab package under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"boundarylab.{name}") for name in LAYER_MODULES}
    for mod in modules.values():
        if not Path(mod.__file__).resolve().is_relative_to(src):
            raise ImportError(f"{mod.__name__} imported from {mod.__file__}, not {src}")
    return modules


def run_sample(workload, seed: int, modules: dict, trace: bool, tmp: Path) -> dict:
    """Set up and run one sample in this process; the caller reads the clock first."""
    from tracing import Tracer, clock, memo_tables, table_sizes

    tables = memo_tables(modules)
    warm = {n: s for n, s in table_sizes(tables).items() if s}
    if warm:
        raise WarmStart(f"memo tables not empty before the first call: {warm}")
    inputs = workload.setup(seed, tmp)
    out = {"t_ready": clock(), "tables_after_setup": table_sizes(tables)}

    verdicts: list[bool] = []
    stamps = [clock()]

    def record(ok: bool) -> None:
        verdicts.append(bool(ok))
        stamps.append(clock())

    tracer = Tracer(modules, f"{workload.name}-{seed}") if trace else None
    error = None
    out["t_first"] = stamps[0]
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            workload.run(inputs, record)
    except Exception:
        error = traceback.format_exc()
    out.update(
        t_last=stamps[-1],
        passed=sum(verdicts),
        recorded=len(verdicts),
        error=error,
        tables_at_end=table_sizes(tables),
    )
    if tracer:
        out["tracer"] = tracer
    return out


def write_spans(tracer, path: Path) -> None:
    """Spans as rows of (id, name index, start, end, parent) in microseconds
    from the first span; the layer is the first part of the name."""
    names = sorted({s[1] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = min((s[3] for s in tracer.spans), default=0.0)
    rows = [
        [sid, index[name], round((start - t0) * 1e6), round((end - t0) * 1e6), parent]
        for sid, name, _, start, end, parent in tracer.spans
    ]
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"sample": tracer.sample_id, "names": names, "spans": rows}, fh, separators=(",", ":"))


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    modules = import_package()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
        out = run_sample(WORKLOADS[args.workload], args.seed, modules, args.trace, Path(tmp))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["peak_rss_mb"] = usage.ru_maxrss / 1024
    tracer = out.pop("tracer", None)
    if tracer:
        out["per_layer"] = tracer.metrics()
        write_spans(tracer, ROOT / ".bench_trace" / f"{tracer.sample_id}.json")
    if out["error"]:
        print(out["error"], file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
