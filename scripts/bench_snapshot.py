#!/usr/bin/env python3
"""Snapshot the benchmark of this tree and of its parent, run in turn, into BENCH_<n>.json.

For each workload and seed, runs `perfbench/run.py --trace 0` of this tree
and of the parent clone in turn as subprocesses, swapping which side goes
first from one pair to the next, so that both sides see the same drift of
the machine. Reads back the JSON object each run prints last and writes,
per side, the median, quartiles and IQR of every metric and each run's
`correct`/`attempted`/`failed`; per pair, the ratio change / parent of
every metric; and for each end-to-end metric of BENCHMARK.json, how much
worse the change's median reads than the parent's, against its bound,
the same read from the median of the per-pair ratios (flagged where the
two disagree), and in how many pairs the change reads better.
Also records both trees' git revisions and the environment: Python,
numpy and scipy versions, the C compiler, the CPU count, the BLAS thread
count the benchmark fixes, whether the packed C kernel loads, and the
threads its large calls are split over.

Usage:
    git clone <this repo> /tmp/parent && git -C /tmp/parent checkout <parent>
    python3 scripts/bench_snapshot.py 14 --parent /tmp/parent

The workloads and the seconds per run are those of this tree's
BENCHMARK.json; the seeds are 1..10, ten pairs per workload.
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
SEEDS = list(range(1, 11))
SIDES = ("change", "parent")


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
             "'c_route': bitlinalg._native() is not None, "
             "'kernel_threads': bitlinalg._threads()}))")
    found = _output([sys.executable, "-c", probe], checkout)
    cc = _output(["cc", "--version"], checkout)
    return {**(json.loads(found) if found else {}),
            "cc": cc.splitlines()[0] if cc else None,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}


def _revision(checkout: Path) -> dict:
    status = _output(["git", "status", "--porcelain", "--untracked-files=no"], checkout)
    return {"revision": _output(["git", "rev-parse", "HEAD"], checkout),
            "dirty": None if status is None else bool(status)}


def _summary(values: list[float], unit: str | None = None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {**({"unit": unit} if unit else {}), "median": median, "q1": q1, "q3": q3,
            "iqr": q3 - q1, "values": values}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `--trace 0` run: its status, metric values and units, and BLAS threads."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    print(f"[{checkout}] " + " ".join(cmd), file=sys.stderr, flush=True)
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": None, "failed": None, "metrics": {}}
    record = checkout / "perfbench" / "results" / f"{workload}-{seed}-trace0.json"
    blas_threads = (json.loads(record.read_text()).get("env", {}).get("blas_threads")
                    if record.is_file() else None)
    return {"run": {"seed": seed, "returncode": done.returncode,
                    **{k: result.get(k) for k in ("correct", "attempted", "failed")}},
            "metrics": result.get("metrics", {}), "blas_threads": blas_threads}


def _side(results: list[dict]) -> dict:
    values, units = {}, {}
    for res in results:
        for name, metric in res["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    return {"runs": [res["run"] for res in results],
            "blas_threads": results[-1]["blas_threads"],
            "metrics": {name: _summary(v, units[name]) for name, v in values.items()}}


def _ratios(pairs: list[dict]) -> dict:
    """change / parent of every metric both runs of a pair report."""
    ratios = {}
    for pair in pairs:
        change, parent = pair["change"]["metrics"], pair["parent"]["metrics"]
        for name in change.keys() & parent.keys():
            if parent[name]["value"]:
                ratios.setdefault(name, []).append(change[name]["value"]
                                                   / parent[name]["value"])
    return {name: _summary(v) for name, v in sorted(ratios.items())}


def _worse_by(sides: dict, pairs: list[dict], end_to_end: list[dict]) -> dict:
    """How much worse the change's median reads than the parent's, per metric,
    and in how many pairs the change reads better (ties count for neither).

    Next to it, `pair_worse_by` reads the same from the median of the
    per-pair ratios, which a drift shared by both runs of a pair does not
    move. `disagrees` flags a metric where the two differ in sign or by more
    than half the bound: evidence for a reader, not a gate.
    """
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        if not all(name in sides[side]["metrics"] for side in SIDES):
            continue
        sign = 1 if metric["better"] == "lower" else -1
        change, parent = (sides[side]["metrics"][name]["median"] for side in SIDES)
        worse = sign * (change - parent)
        rel = worse / parent if parent else 0.0
        values = [[p[side]["metrics"][name]["value"] for side in SIDES] for p in pairs
                  if all(name in p[side]["metrics"] for side in SIDES)]
        better = sum(sign * (c - p) < 0 for c, p in values)
        ratios = [c / p for c, p in values if p]
        pair_rel = sign * (statistics.median(ratios) - 1) if ratios else None
        out[name] = {"worse_by": rel, "pair_worse_by": pair_rel, "bound": metric["bound"],
                     "within_bound": rel <= metric["bound"],
                     "disagrees": pair_rel is not None and (
                         rel * pair_rel < 0 or abs(rel - pair_rel) > metric["bound"] / 2),
                     "better_pairs": f"{better}/{len(pairs)}"}
    return out


def run_workload(trees: dict, workload: str, seconds: float, first: int,
                 end_to_end: list[dict]) -> dict:
    """Alternating pairs over SEEDS; `first` picks the side that starts the first pair."""
    pairs, order = [], []
    for k, seed in enumerate(SEEDS):
        sides = SIDES if (first + k) % 2 == 0 else SIDES[::-1]
        order.append(sides[0])
        pairs.append({side: run_once(trees[side], workload, seed, seconds) for side in sides})
    result = {"first": order, **{side: _side([p[side] for p in pairs]) for side in SIDES}}
    return {**result, "ratios": _ratios(pairs),
            "end_to_end": _worse_by(result, pairs, end_to_end)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("number", type=int, help="n of BENCH_<n>.json")
    p.add_argument("--parent", type=Path, required=True,
                   help="a clone of the parent commit, run alternately with this tree")
    args = p.parse_args(argv)

    trees = {"change": ROOT, "parent": args.parent.resolve()}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    snapshot = {"bench": args.number,
                "command": [*bench["command"], "--workload", "<workload>", "--seed", "<seed>",
                            "--seconds", str(seconds), "--trace", "0"],
                "seeds": SEEDS,
                "trees": {side: {**_revision(tree), "env": _environment(tree)}
                          for side, tree in trees.items()},
                "workloads": {}}
    for i, w in enumerate(bench["workloads"]):
        snapshot["workloads"][w["name"]] = run_workload(
            trees, w["name"], seconds, i * len(SEEDS), bench["end_to_end"])
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    failed = [(side, w, r["seed"]) for w, wl in snapshot["workloads"].items()
              for side in SIDES for r in wl[side]["runs"] if not r["correct"]]
    beyond = [(w, name) for w, wl in snapshot["workloads"].items()
              for name, m in wl["end_to_end"].items() if not m["within_bound"]]
    for w, wl in snapshot["workloads"].items():
        for name, m in wl["end_to_end"].items():
            pair = "n/a" if m["pair_worse_by"] is None else f"{m['pair_worse_by']:+.3f}"
            print(f"{w} {name}: worse_by {m['worse_by']:+.3f} (medians), {pair} (pairs)"
                  + ("  DISAGREE" if m["disagrees"] else ""), file=sys.stderr)
    print(f"wrote {out}" + (f"; runs not correct: {failed}" if failed else "")
          + (f"; medians worse than the parent beyond the bound: {beyond}" if beyond else ""),
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
