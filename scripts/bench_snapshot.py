#!/usr/bin/env python3
"""Snapshot the benchmark's end-to-end metrics into BENCH_<n>.json.

Runs `perfbench/run.py --trace 0` of a checkout as a subprocess, once per
seed and workload, reads back the JSON object each run prints last, and
writes the median, quartiles and IQR of every metric, each run's
`correct`/`attempted`/`failed`, the checkout's git revision and the
environment: Python, numpy and scipy versions, the C compiler, the CPU
count, the BLAS thread count the benchmark fixes, and whether the packed
C kernel loads.

Usage:
    python3 scripts/bench_snapshot.py 12                 # this checkout
    python3 scripts/bench_snapshot.py 11 --checkout <a clone of the parent>

The workloads and the seconds per run are those of the checkout's
BENCHMARK.json; the seeds are 1..5.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = [1, 2, 3, 4, 5]


def _output(cmd, cwd) -> str | None:
    """Stripped stdout of `cmd`, or None where it cannot run or fails."""
    try:
        done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _environment(checkout: Path) -> dict:
    probe = ("import json, platform, sys, numpy, scipy; sys.path.insert(0, 'src'); "
             "from bingcn import bitlinalg; "
             "print(json.dumps({'python': platform.python_version(), "
             "'numpy': numpy.__version__, 'scipy': scipy.__version__, "
             "'c_route': bitlinalg._native() is not None}))")
    found = _output([sys.executable, "-c", probe], checkout)
    cc = _output(["cc", "--version"], checkout)
    return {**(json.loads(found) if found else {}),
            "cc": cc.splitlines()[0] if cc else None,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}


def _revision(checkout: Path) -> dict:
    status = _output(["git", "status", "--porcelain", "--untracked-files=no"], checkout)
    return {"revision": _output(["git", "rev-parse", "HEAD"], checkout),
            "dirty": None if status is None else bool(status)}


def _summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values}


def run_workload(checkout: Path, workload: str, seconds: float) -> dict:
    runs, values, units, blas_threads = [], {}, {}, None
    for seed in SEEDS:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        print(" ".join(cmd), file=sys.stderr, flush=True)
        done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": None, "failed": None, "metrics": {}}
        runs.append({"seed": seed, "returncode": done.returncode,
                     **{k: result.get(k) for k in ("correct", "attempted", "failed")}})
        for name, metric in result.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        record = checkout / "perfbench" / "results" / f"{workload}-{seed}-trace0.json"
        if record.is_file():
            blas_threads = json.loads(record.read_text()).get("env", {}).get("blas_threads")
    return {"runs": runs, "blas_threads": blas_threads,
            "metrics": {name: _summary(v, units[name]) for name, v in values.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("number", type=int, help="n of BENCH_<n>.json")
    p.add_argument("--checkout", type=Path, default=ROOT,
                   help="the tree whose benchmark runs (default: this one)")
    args = p.parse_args(argv)

    checkout = args.checkout.resolve()
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    snapshot = {"bench": args.number, **_revision(checkout),
                "command": [*bench["command"], "--workload", "<workload>", "--seed", "<seed>",
                            "--seconds", str(seconds), "--trace", "0"],
                "seeds": SEEDS, "env": _environment(checkout),
                "workloads": {w["name"]: run_workload(checkout, w["name"], seconds)
                              for w in bench["workloads"]}}
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    failed = [(w, r["seed"]) for w, wl in snapshot["workloads"].items()
              for r in wl["runs"] if not r["correct"]]
    print(f"wrote {out}" + (f"; runs not correct: {failed}" if failed else ""), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
