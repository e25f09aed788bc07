"""Interleaved runs of every workload, their spread, and parent/change comparison.

Reached through run.py (``--sweep`` and ``--compare``).  A sweep makes
RUNS rounds; each round runs every workload once with the round's seed,
rotating the order so that slow drift of the host lands on every
workload alike.  Each run is recorded with the host it saw.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, host_info


def _end_to_end(config: dict) -> dict[str, dict]:
    return {m["name"]: m for m in config["end_to_end"]}


def sweep(runs: int, first_seed: int, seconds: float, out: str, config: dict) -> int:
    names = [w["name"] for w in config["workloads"]]
    records = []
    for i in range(runs):
        k = i % len(names)
        for name in names[k:] + names[:k]:
            seed = first_seed + i
            host = host_info()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            host["loadavg_after"] = os.getloadavg()
            records.append({"workload": name, "seed": seed, "host": host, "result": result})
            shown = {m: round(v["value"], 4) for m, v in result["metrics"].items()} if result else proc.stderr[-300:]
            print(f"[{i + 1}/{runs}] {name} seed {seed}: {shown}", flush=True)
    Path(out).write_text(json.dumps({"runs": records}, indent=1) + "\n")
    return 0 if summarize(records, config) else 1


def values(records: list[dict], workload: str, metric: str) -> list[float]:
    return [
        r["result"]["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload and r["result"]
    ]


def spread(vals: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and the quartile distance over the median."""
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med


def summarize(records: list[dict], config: dict) -> bool:
    """Print every end-to-end metric per workload; True if all runs were correct
    and every spread but that of setup_s is within its bound."""
    ok = True
    for w in config["workloads"]:
        runs = [r for r in records if r["workload"] == w["name"]]
        bad = [r for r in runs if not r["result"] or not r["result"]["correct"]]
        attempted = sum(r["result"]["attempted"] for r in runs if r["result"])
        failed = sum(r["result"]["failed"] for r in runs if r["result"])
        ok = ok and not bad
        print(f"{w['name']}: {len(runs)} runs, {len(bad)} not correct, "
              f"fail_share {failed / max(attempted, 1):.4f} of {attempted} verdicts")
        for name, m in _end_to_end(config).items():
            vals = values(records, w["name"], name)
            if len(vals) < 2:
                continue
            med, q1, q3, s = spread(vals)
            steady = name == "setup_s" or s <= m["bound"]
            ok = ok and steady
            print(f"  {name:12s} median {med:10.5g} {m['unit']:3s} q1 {q1:.5g} q3 {q3:.5g} "
                  f"spread {s:6.3f} bound {m['bound']}{'' if steady else '  TOO WIDE'}")
    return ok


def compare(parent_file: str, change_file: str, config: dict) -> int:
    """Parent and change medians and quartiles per workload and metric, with the bound."""
    parent = json.loads(Path(parent_file).read_text())["runs"]
    change = json.loads(Path(change_file).read_text())["runs"]
    worse = False
    for w in config["workloads"]:
        print(w["name"])
        for name, m in _end_to_end(config).items():
            pv, cv = values(parent, w["name"], name), values(change, w["name"], name)
            if len(pv) < 2 or len(cv) < 2:
                print(f"  {name:12s} too few runs")
                continue
            pm, pq1, pq3, ps = spread(pv)
            cm, cq1, cq3, _ = spread(cv)
            sign = 1 if m["better"] == "lower" else -1
            change_share = sign * (cm - pm) / pm
            if change_share > m["bound"]:
                verdict = "WORSE than bound"
                worse = True
            elif ps > m["bound"] and not all(sign * c < sign * p for c in cv for p in pv):
                verdict = "unresolved (parent spread above bound)"
            else:
                verdict = "within bound"
            print(f"  {name:12s} parent {pm:.5g} [{pq1:.5g}, {pq3:.5g}]  change {cm:.5g} [{cq1:.5g}, {cq3:.5g}]"
                  f"  worse by {change_share:+.3f} (bound {m['bound']})  {verdict}")
    return 1 if worse else 0
