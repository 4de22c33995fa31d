#!/usr/bin/env python3
"""Convert published Planetoid raw files into a bingcn dataset directory.

Expects the eight standard files for a dataset (cora, citeseer, pubmed):

    ind.<name>.x, ind.<name>.y, ind.<name>.tx, ind.<name>.ty,
    ind.<name>.allx, ind.<name>.ally, ind.<name>.graph,
    ind.<name>.test.index

and writes edges.txt / features.bin / labels.txt / masks.txt /
manifest.json (see the package README for the formats). The split is
the standard fixed one: the first len(y) nodes train, the following 500
validate, the reindexed test.index nodes test.

Usage:
    python scripts/convert_planetoid.py <raw-dir> <name> --out data/<name>
"""

import argparse
import pickle
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bingcn.datasets import save_dataset  # noqa: E402
from bingcn.graph import AttributedGraph  # noqa: E402


def load_pickle(path: Path):
    with open(path, "rb") as fh:
        return pickle.load(fh, encoding="latin1")


def convert(raw_dir: Path, name: str):
    parts = {}
    for key in ("x", "y", "tx", "ty", "allx", "ally", "graph"):
        parts[key] = load_pickle(raw_dir / f"ind.{name}.{key}")
    test_idx = np.loadtxt(raw_dir / f"ind.{name}.test.index", dtype=np.int64)

    allx, tx, ty = parts["allx"], parts["tx"], parts["ty"]
    min_test = int(test_idx.min())
    if min_test != allx.shape[0]:
        raise ValueError(
            f"test indices start at {min_test}, expected {allx.shape[0]}; "
            "not a standard Planetoid layout")

    # tx rows follow test.index file order; place each at its global slot.
    # citeseer's test.index has gaps: missing rows stay zero-featured with
    # label 0 and belong to no split.
    span = int(test_idx.max()) - min_test + 1
    tx_full = sp.lil_matrix((span, tx.shape[1]), dtype=np.float32)
    ty_full = np.zeros((span, ty.shape[1]), dtype=ty.dtype)
    tx_full[test_idx - min_test, :] = tx
    ty_full[test_idx - min_test, :] = ty

    features = sp.vstack([allx.tocsr(), tx_full.tocsr()]).toarray().astype(np.float64)
    onehot = np.vstack([parts["ally"], ty_full])
    labels = onehot.argmax(axis=1).astype(np.int64)
    n = features.shape[0]

    pairs = []
    for u, neighbors in parts["graph"].items():
        for v in neighbors:
            if 0 <= u < n and 0 <= v < n:
                pairs.append((u, v))
    edges = np.array(pairs, dtype=np.int64)  # the graph drops duplicates and self-loops

    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    n_train = parts["y"].shape[0]
    train[:n_train] = True
    # fixed 500-node validation set, kept inside the allx rows so it can
    # never collide with the test span
    val[n_train:min(n_train + 500, allx.shape[0])] = True
    test[test_idx] = True

    return AttributedGraph(
        x=features,
        edges=edges,
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        n_classes=onehot.shape[1],
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("raw_dir", type=Path, help="directory with ind.<name>.* files")
    parser.add_argument("name", choices=("cora", "citeseer", "pubmed"))
    parser.add_argument("--out", type=Path, required=True, help="output dataset directory")
    args = parser.parse_args()

    graph = convert(args.raw_dir, args.name)
    manifest = save_dataset(args.out, graph, name=args.name)
    print(f"{args.name}: N={graph.n_nodes} E={graph.n_edges} "
          f"d={graph.n_features} C={graph.n_classes}")
    print(f"wrote {manifest}")


if __name__ == "__main__":
    main()
