#!/usr/bin/env python3
"""Time, memory and accuracy benchmark of bingcn's three model families.

    python3 perfbench/run.py --workload cora-sbm --seed 1 --seconds 35 --trace 0

Run from the repository root. It generates the workload's graph from the
seed, writes it as a dataset directory, and drives the package through
`load_dataset`, `normalize_adjacency`, `neighbor_mean_matrix`, `train` and
`evaluate`. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-module ones. See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# BLAS threads, fixed before numpy loads. With two OpenBLAS threads on a
# two-core machine a small product spends most of its time in thread
# hand-off, and the figures vary with whatever else runs.
BLAS_THREADS = 1


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "bingcn" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'bingcn'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import bingcn  # noqa: E402 - after the BLAS thread count is fixed

    if Path(bingcn.__file__).resolve().parent != (src / "bingcn").resolve():
        print(f"error: imported bingcn from {bingcn.__file__}, not {src}", file=sys.stderr)
        return 2
    import core  # noqa: E402

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(core.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-module metrics from wrapped package functions")
    args = p.parse_args(argv)
    return core.main(args.workload, args.seed, args.seconds, bool(args.trace),
                     blas_threads=BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
