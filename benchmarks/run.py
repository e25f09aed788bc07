"""Cold-process benchmark of boundarylab.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --sweep RUNS --out FILE [--seconds S]
    python3 benchmarks/run.py --compare PARENT.json CHANGE.json

A run is a closed loop with one client: it starts a fresh interpreter
for each sample (benchmarks/sample.py), waits for it to end, and starts
the next while another sample still fits in S seconds.  Every memo table
of the package is an lru_cache, so a warm second sample in one process
would measure a different program; users pay the cold cost on every
command.  The run checks every verdict, prints each metric with its
unit, and ends with one JSON line.  With ``--trace 1`` it runs one
untraced and one traced sample and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import clock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "verdict_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
RUN_BUDGET_S = 170  # a run must end within 180 s


def host_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "loadavg": os.getloadavg(),
    }


def spawn_sample(workload: str, seed: int, trace: bool, timeout: float) -> dict | None:
    """Run one sample in a fresh interpreter; None if it failed to report."""
    cmd = [sys.executable, "-I", str(HERE / "sample.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    t_spawn = clock()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"sample of {workload} exceeded {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"sample of {workload} exited {proc.returncode}", file=sys.stderr)
        return None
    out = json.loads(lines[-1])
    out["setup_s"] = out["t_ready"] - t_spawn
    out["verdict_s"] = out["t_last"] - out["t_first"]
    out["wall_s"] = clock() - t_spawn
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "boundarylab" / "__init__.py").is_file():
        print(f"error: no boundarylab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = WORKLOADS[workload].verdicts
    host = host_info()
    start = clock()
    samples, attempted, failed = [], 0, 0

    def one(traced: bool) -> dict | None:
        nonlocal attempted, failed
        timeout = max(1.0, RUN_BUDGET_S - (clock() - start))
        s = spawn_sample(workload, seed, traced, timeout)
        attempted += expected
        failed += expected - (s["passed"] if s else 0)
        return s

    if trace:
        plain, traced = one(False), one(True)
        if plain is None or traced is None:
            return 1
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_s"] = traced["verdict_s"] - plain["verdict_s"]
        units = {name: _layer_unit(name) for name in metrics}
        samples = [plain, traced]
    else:
        while True:
            s = one(False)
            if s is not None:
                samples.append(s)
            elapsed = clock() - start
            typical = statistics.median(x["wall_s"] for x in samples) if samples else elapsed
            if elapsed + typical > min(seconds, RUN_BUDGET_S):
                break
        if not samples:
            print("error: no sample reported", file=sys.stderr)
            return 1
        metrics = {name: statistics.median(s[name] for s in samples) for name in END_TO_END}
        units = END_TO_END

    print(f"workload {workload}  seed {seed}  samples {len(samples)}  "
          f"verdicts {attempted}  fail_share {failed / attempted:.4f}")
    print(f"host {json.dumps(host)}  loadavg after {list(os.getloadavg())}")
    for name, value in metrics.items():
        if trace:
            print(f"  {name:32s} {value:14.6g} {units[name]}")
        else:
            q1, _, q3 = quartiles([s[name] for s in samples])
            print(f"  {name:32s} {value:12.6g} {units[name]:3s} (q1 {q1:.6g}, q3 {q3:.6g}, n {len(samples)})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or ".s_per_" in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--sweep", type=int, metavar="RUNS", help="interleaved runs of every workload")
    mode.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="two sweep files")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="sweep result file")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else _bench_config()["run_seconds"]

    if args.workload:
        return run(args.workload, args.seed, seconds, bool(args.trace))
    import sweep

    if args.compare:
        return sweep.compare(*args.compare, _bench_config())
    if not args.out:
        parser.error("--sweep needs --out")
    return sweep.sweep(args.sweep, args.seed, seconds, args.out, _bench_config())


def _bench_config() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
