"""The benchmark's three graphs: planted-partition (SBM) graphs drawn from a seed.

The sampler lives here, not in the package, so that the program under test
sees only the dataset files it writes. It draws each block's edge count from
the binomial distribution and then that many distinct node pairs, so time and
memory grow with the edge count rather than with N^2. Node ids are shuffled,
so classes are not contiguous id ranges as they would be in a sorted file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HIDDEN = 64
TRAIN_PER_CLASS = 20
VAL_PER_CLASS = 30
# Adam step size: high enough that a few epochs reach a clearly-above-chance
# accuracy, so short timed train() calls still check learning.
LR = 0.03


@dataclass(frozen=True)
class Workload:
    name: str
    nodes_per_class: int
    n_classes: int
    n_features: int
    p_in: float
    p_out: float
    signal: float
    epochs: int = 4  # epochs per timed train() call
    infer_per_round: int = 4  # timed evaluate() calls after each train()

    @property
    def widths(self) -> list[int]:
        return [self.n_features, HIDDEN, self.n_classes]


WORKLOADS = {
    w.name: w
    for w in (
        # The desk-scale SBM of the acceptance suite: 700 nodes, degree ~16.
        Workload("dense-sbm", nodes_per_class=100, n_classes=7, n_features=70,
                 p_in=0.1, p_out=0.01, signal=2.0, epochs=10, infer_per_round=6),
        # The Cora-shaped SBM of ROADMAP: 2709 nodes, ~4.1k edges.
        Workload("cora-sbm", nodes_per_class=387, n_classes=7, n_features=1433,
                 p_in=0.006, p_out=0.0003, signal=0.5),
        # PubMed-shaped: 19716 nodes in 3 classes, ~44k edges, 80 % of them
        # inside a class.
        Workload("pubmed-sbm", nodes_per_class=6572, n_classes=3, n_features=500,
                 p_in=5.5e-4, p_out=6.8e-5, signal=0.3, epochs=2, infer_per_round=2),
    )
}


def _distinct_pairs(rng, count, rows, cols, same_block):
    """`count` distinct (u, v) pairs with u from `rows`, v from `cols`.

    Inside one block only pairs with u < v are drawn, so no self-loops and
    each undirected edge at most once.
    """
    n_r, n_c = rows.size, cols.size
    codes = np.empty(0, dtype=np.int64)
    while codes.size < count:
        want = count - codes.size
        i = rng.integers(0, n_r, size=2 * want + 16)
        j = rng.integers(0, n_c, size=2 * want + 16)
        if same_block:
            keep = i != j
            i, j = np.minimum(i[keep], j[keep]), np.maximum(i[keep], j[keep])
        cand = np.concatenate([codes, i * n_c + j])
        _, first = np.unique(cand, return_index=True)
        codes = cand[np.sort(first)]  # keep draw order: deterministic per seed
    codes = codes[:count]
    return np.stack([rows[codes // n_c], cols[codes % n_c]], axis=1)


def make_graph(w: Workload, seed: int):
    """Features, undirected edges (u < v), labels and split masks for a seed."""
    rng = np.random.default_rng([seed, w.nodes_per_class, w.n_features])
    c, npc = w.n_classes, w.nodes_per_class
    n = c * npc
    ids = rng.permutation(n)  # ids[k] is the node id of the k-th planted slot
    blocks = [ids[ci * npc:(ci + 1) * npc] for ci in range(c)]

    edges = []
    for ci in range(c):
        for cj in range(ci, c):
            same = ci == cj
            slots = npc * (npc - 1) // 2 if same else npc * npc
            count = rng.binomial(slots, w.p_in if same else w.p_out)
            if count:
                edges.append(_distinct_pairs(rng, count, blocks[ci], blocks[cj], same))
    edges = np.concatenate(edges)
    edges = np.unique(np.sort(edges, axis=1), axis=0)

    labels = np.empty(n, dtype=np.int64)
    for ci, block in enumerate(blocks):
        labels[block] = ci
    width = w.n_features // c
    means = np.zeros((c, w.n_features))
    for ci in range(c):
        means[ci, ci * width:(ci + 1) * width] = w.signal
    x = means[labels] + rng.standard_normal((n, w.n_features))

    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for block in blocks:
        order = rng.permutation(block)
        train[order[:TRAIN_PER_CLASS]] = True
        val[order[TRAIN_PER_CLASS:TRAIN_PER_CLASS + VAL_PER_CLASS]] = True
        test[order[TRAIN_PER_CLASS + VAL_PER_CLASS:]] = True
    return x, edges, labels, train, val, test
