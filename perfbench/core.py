"""Measurement loop of the benchmark; `run.py` is the entry point."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

from bingcn import bitlinalg as bl
from bingcn.datasets import load_dataset, save_dataset
from bingcn.efficiency import ArchSpec, GraphStats, cycle_ops
from bingcn.graph import AttributedGraph, neighbor_mean_matrix, normalize_adjacency
from bingcn.train import ModelConfig, evaluate, load_model, save_model, train

import checks
from tracing import Tracer
from workloads import LR, WORKLOADS, Workload, make_graph

HERE = Path(__file__).resolve().parent
FAMILIES = ("gcn", "bigcn", "bisage")
MIN_ROUNDS = 3
SETUPS_PER_ROUND = 2
F64_REPS = 9
MIB = 2.0 ** 20


def no_span(name: str, **attrs):
    """Stands in for `Tracer.span` when tracing is off."""
    return contextlib.nullcontext()


class Tally:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


class Context:
    """A workload's files, the loaded graph and its propagation operators."""

    def __init__(self, w: Workload, seed: int, data_dir: Path):
        self.w, self.seed, self.data_dir = w, seed, data_dir
        x, edges, labels, train_m, val_m, test_m = make_graph(w, seed)
        self.source = (x, edges, labels, (train_m, val_m, test_m))
        graph = AttributedGraph(x, edges, labels, train_m, val_m, test_m, w.n_classes)
        self.manifest = save_dataset(data_dir, graph, name=w.name)
        self.graph = self.adj = self.neighbor_mean = None

    def setup(self, tracer: Tracer | None = None) -> float:
        """Load the files and build both operators; returns seconds taken."""
        span = tracer.span if tracer is not None else no_span
        gc.collect()
        start = time.perf_counter()
        with span("datasets.load"):
            graph = load_dataset(self.manifest)
        with span("graph.normalize"):
            adj = normalize_adjacency(graph)
        with span("graph.neighbor_mean"):
            nm = neighbor_mean_matrix(graph)
        elapsed = time.perf_counter() - start
        self.graph, self.adj, self.neighbor_mean = graph, adj, nm
        return elapsed

    def config(self, family: str) -> ModelConfig:
        e = self.w.epochs
        return ModelConfig(widths=self.w.widths, model=family, lr=LR,
                           max_epochs=e, patience=e, seed=self.seed)

    def prop(self, family: str):
        return self.neighbor_mean if family == "bisage" else self.adj

    def train(self, family: str):
        return train(self.config(family), self.graph, self.adj)

    def evaluate(self, family: str, model):
        return evaluate(model, self.prop(family), self.graph, self.graph.test_mask)


def trace_values(result) -> list[tuple]:
    return [(m.epoch, m.train_loss, m.train_acc, m.val_loss, m.val_acc) for m in result.trace]


def traced_peak_mib(fn):
    """(fn(), peak MiB that tracemalloc sees during the call above what was held)."""
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, (peak - held) / MIB


def layer_cycles(ctx: Context, family: str) -> tuple[list[int], int]:
    """Cycle-model counts per layer and for the whole stack of one family."""
    g = ctx.graph
    stats = GraphStats(nodes=g.n_nodes, edges=g.n_edges, features=g.n_features)
    binarized = family != "gcn"
    products = 2 if family == "bisage" else 1  # self and neighbor products
    widths = ctx.w.widths
    per_layer = [products * cycle_ops(ArchSpec(widths[i:i + 2], (binarized,)), stats)
                 for i in range(len(widths) - 1)]
    whole = products * cycle_ops(ArchSpec(widths, (binarized,) * (len(widths) - 1)), stats)
    return per_layer, whole


def kernel_operands(ctx: Context):
    """(h, w) pairs at both layer shapes: the loaded features, then a hidden layer."""
    rng = np.random.default_rng([ctx.seed, 7])
    widths = ctx.w.widths
    h0 = ctx.graph.x
    h1 = rng.standard_normal((ctx.graph.n_nodes, widths[1]))
    return [(h0, rng.standard_normal((widths[0], widths[1]))),
            (h1, rng.standard_normal((widths[1], widths[2])))]


def static_checks(ctx: Context, tally: Tally) -> None:
    """Checks on set-up products, the kernel and the cost model."""
    x, edges, labels, masks = ctx.source
    tally.check(checks.check_loaded_graph(ctx.graph, x, edges, labels, masks),
                "loaded graph equals the generated one")
    tally.check(checks.check_normalized_adjacency(ctx.adj.matrix, edges),
                "normalized adjacency symmetric, A.sqrt(deg) = sqrt(deg)")
    tally.check(checks.check_neighbor_mean(ctx.neighbor_mean, edges),
                "neighbor-mean rows sum to 1 (0 when isolated)")
    for i, (h, w) in enumerate(kernel_operands(ctx)):
        out = bl.bin_gemm(bl.binarize_rows(h), bl.binarize_columns(w))
        tally.check(checks.check_bin_gemm(h, w, out), f"bin_gemm at layer {i}")
    for family in FAMILIES:
        per_layer, whole = layer_cycles(ctx, family)
        tally.check(checks.check_cycles(per_layer, whole), f"{family} cycle counts add up")


def reference_runs(ctx: Context, tally: Tally, peaks: dict | None) -> dict:
    """One train() and evaluate() per family, checked; their peaks when asked."""
    refs = {}
    for family in FAMILIES:
        if peaks is None:
            result = ctx.train(family)
            ev = ctx.evaluate(family, result.model)
        else:
            result, peaks[f"{family}.train_peak_mib"] = traced_peak_mib(
                lambda: ctx.train(family))
            ev, peaks[f"{family}.infer_peak_mib"] = traced_peak_mib(
                lambda: ctx.evaluate(family, result.model))
        losses = [m.train_loss for m in result.trace]
        tally.check(checks.check_train_losses(losses, ctx.w.epochs),
                    f"{family} ran {ctx.w.epochs} epochs and lowered the train loss")
        tally.check(checks.check_above_chance(result.test_acc, ctx.w.n_classes),
                    f"{family} test_acc {result.test_acc:.4f} above chance")
        path = ctx.data_dir / f"{family}.model.bin"
        save_model(path, result.model)
        loaded = load_model(path)
        prop = ctx.prop(family)
        logits, _ = result.model.forward(prop, ctx.graph.x, training=False)
        logits_back, _ = loaded.forward(prop, ctx.graph.x, training=False)
        tally.check(checks.check_identical(logits, logits_back),
                    f"{family} logits identical after save_model/load_model")
        refs[family] = {"trace": trace_values(result), "eval": ev,
                        "test_acc": result.test_acc, "model_bytes": path.stat().st_size}
    return refs


def repeat_rounds(one_round, seconds: float) -> int:
    """Whole rounds while the next one is expected to end within `seconds`."""
    start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or (time.perf_counter() - start) * (r + 1) / r <= seconds:
        one_round()
        r += 1
    return r


def timed_round(ctx: Context, tally: Tally, refs: dict,
                samples: dict, tracer: Tracer | None = None) -> None:
    """Set up afresh, then train() and evaluate() each family in a fixed order.

    Loading the graph again each round re-allocates the large static arrays,
    so a run samples several memory placements of them, not just one.
    """
    for _ in range(SETUPS_PER_ROUND):
        samples["setup"].append(ctx.setup(tracer))
        tally.attempted += 1
    span = tracer.span if tracer is not None else no_span
    for family in FAMILIES:
        gc.collect()
        start = time.perf_counter()
        with span("train", family=family):
            result = ctx.train(family)
        elapsed = time.perf_counter() - start
        tally.attempted += 1
        samples[family]["epoch"].append(1e3 * elapsed / len(result.trace))
        tally.check(checks.check_identical(trace_values(result), refs[family]["trace"]),
                    f"{family} train() trace identical for the same seed")
        for _ in range(ctx.w.infer_per_round):
            gc.collect()
            start = time.perf_counter()
            with span("evaluate", family=family):
                ev = ctx.evaluate(family, result.model)
            elapsed = time.perf_counter() - start
            tally.attempted += 1
            samples[family]["infer"].append(1e3 * elapsed)
            tally.check(checks.check_identical(ev, refs[family]["eval"]),
                        f"{family} evaluate() identical to the reference")


def new_samples() -> dict:
    return {"setup": [], **{f: {"epoch": [], "infer": []} for f in FAMILIES}}


def end_to_end(ctx: Context, seconds: float, tally: Tally, record: dict) -> dict:
    ctx.setup()
    static_checks(ctx, tally)
    peaks: dict = {}
    refs = reference_runs(ctx, tally, peaks)
    samples = new_samples()
    r = repeat_rounds(lambda: timed_round(ctx, tally, refs, samples), seconds)
    setup = samples["setup"]
    record.update(samples=samples, rounds=r,
                  model_bytes={f: refs[f]["model_bytes"] for f in FAMILIES})

    metrics = {"setup_s": (statistics.median(setup), "s")}
    for f in FAMILIES:
        metrics[f"{f}.epoch_ms"] = (statistics.median(samples[f]["epoch"]), "ms")
        metrics[f"{f}.infer_ms"] = (statistics.median(samples[f]["infer"]), "ms")
        metrics[f"{f}.train_peak_mib"] = (peaks[f"{f}.train_peak_mib"], "MiB")
        metrics[f"{f}.infer_peak_mib"] = (peaks[f"{f}.infer_peak_mib"], "MiB")
        metrics[f"{f}.test_acc"] = (refs[f]["test_acc"], "fraction")
    return metrics


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def per_module(ctx: Context, seconds: float, tally: Tally, record: dict) -> dict:
    n_layers = len(ctx.w.widths) - 1
    ctx.setup()
    static_checks(ctx, tally)
    refs = reference_runs(ctx, tally, None)

    # Rounds alternate untraced and traced, so both sample the whole run.
    plain, traced = new_samples(), new_samples()
    tracer = Tracer(n_layers)
    rounds: list[list] = []

    def pair():
        timed_round(ctx, tally, refs, plain)
        first = len(tracer.spans)
        missing = tracer.install()
        if missing and "missing" not in record:
            print(f"not traced (absent): {', '.join(missing)}", file=sys.stderr)
        record["missing"] = missing
        try:
            timed_round(ctx, tally, refs, traced, tracer)
        finally:
            tracer.uninstall()
        rounds.append(tracer.spans[first:])

    r = 2 * repeat_rounds(pair, seconds)

    m: dict = {}

    def spans_named(spans, name):
        return [s for s in spans if s.name == name]

    spans = tracer.spans
    for key, name in (("datasets.load_ms", "datasets.load"),
                      ("datasets.read_edges_ms", "datasets.read_edges"),
                      ("datasets.read_features_ms", "datasets.read_features"),
                      ("graph.normalize_ms", "graph.normalize"),
                      ("graph.neighbor_mean_ms", "graph.neighbor_mean")):
        m[key] = (_median_or_zero([1e3 * s.duration for s in spans_named(spans, name)
                                   if s.find("family") is None]), "ms")

    agg_ms = [1e3 * sum(s.self_time for s in spans_named(rs, "graph.aggregate")) for rs in rounds]
    m["graph.aggregate_ms"] = (_median_or_zero(agg_ms), "ms")
    m["graph.aggregate_calls"] = (len(spans_named(rounds[0], "graph.aggregate")), "count")

    for name in ("binarize_rows", "binarize_columns"):
        m[f"bitlinalg.{name}_ms"] = (_median_or_zero(
            [1e3 * s.self_time for s in spans_named(spans, f"bitlinalg.{name}")
             if s.find("layer") == 0]), "ms")
    for i in range(n_layers):
        m[f"bitlinalg.bin_gemm.l{i}_ms"] = (_median_or_zero(
            [1e3 * s.self_time for s in spans_named(spans, "bitlinalg.bin_gemm")
             if s.find("layer") == i]), "ms")
    n, d, h = ctx.graph.n_nodes, ctx.w.widths[0], ctx.w.widths[1]
    words = -(-d // bl.WORD_BITS)
    m["bitlinalg.bin_gemm.l0_word_ops"] = (n * h * words, "count")
    m["bitlinalg.bin_gemm.l0_bytes"] = (8 * (n * words + h * words + n * h), "bytes")
    (h0, w0), _ = kernel_operands(ctx)
    f64 = []
    for _ in range(F64_REPS):
        begin = time.perf_counter()
        h0 @ w0
        f64.append(1e3 * (time.perf_counter() - begin))
    m["bitlinalg.f64_gemm.l0_ms"] = (statistics.median(f64), "ms")

    epochs = ctx.w.epochs
    for f in FAMILIES:
        fam = [s for s in spans if s.find("family") == f]
        for i in range(n_layers):
            for key, name, training in (("fwd_train", "layer.fwd", True),
                                        ("fwd_eval", "layer.fwd", False),
                                        ("bwd", "layer.bwd", None)):
                m[f"{f}.l{i}.{key}_ms"] = (_median_or_zero(
                    [1e3 * s.self_time for s in spans_named(fam, name)
                     if s.attrs["layer"] == i
                     and (training is None or s.attrs["training"] == training)]), "ms")
        per_epoch = {"bn": {}, "xent": {}, "adam": {}}
        for s in fam:
            if s.name in per_epoch:
                root = _root(s)
                if root.name == "train":
                    totals = per_epoch[s.name]
                    totals[id(root)] = totals.get(id(root), 0.0) + 1e3 * s.self_time / epochs
        per_epoch = {k: list(v.values()) for k, v in per_epoch.items()}
        per_epoch["train"] = [1e3 * s.self_time / epochs for s in spans_named(fam, "train")]
        if f != "gcn":
            m[f"{f}.bn_ms"] = (_median_or_zero(per_epoch["bn"]), "ms")
        m[f"{f}.xent_ms"] = (_median_or_zero(per_epoch["xent"]), "ms")
        m[f"{f}.adam_ms"] = (_median_or_zero(per_epoch["adam"]), "ms")
        m[f"{f}.train_self_ms"] = (_median_or_zero(per_epoch["train"]), "ms")
        per_layer, _ = layer_cycles(ctx, f)
        for i, cycles in enumerate(per_layer):
            m[f"{f}.l{i}.cycles_pred"] = (cycles, "count")
        m[f"{f}.trace_overhead_ms"] = (
            statistics.median(traced[f]["epoch"]) - statistics.median(plain[f]["epoch"]), "ms")
    record.update(rounds=r, plain=plain, traced=traced,
                  spans=[(s.name, s.duration, s.self_time, s.find("family"), s.find("layer"))
                         for s in spans])
    return m


def _root(span):
    while span.parent is not None:
        span = span.parent
    return span


def environment(blas_threads: int) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads, "cpus": len(os.sched_getaffinity(0))}


def main(workload: str, seed: int, seconds: float, trace: bool, blas_threads: int) -> int:
    w = WORKLOADS[workload]
    data_dir = HERE / "data" / f"{workload}-{seed}-{'trace' if trace else 'plain'}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    tally = Tally()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment(blas_threads)}
    try:
        ctx = Context(w, seed, data_dir)
        measure = per_module if trace else end_to_end
        metrics = measure(ctx, seconds, tally, record)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    out = {"correct": tally.failed == 0, "attempted": tally.attempted,
           "failed": tally.failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["result"] = out
    (results / f"{workload}-{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    print(json.dumps(out))
    return 0
