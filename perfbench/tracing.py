"""Spans recorded around the package's public functions, from outside.

`Tracer.install` swaps each listed function for a timing wrapper at the name
its callers look it up by (a module attribute read at call time), and
`Tracer.uninstall` puts the originals back. Nothing under `src/` knows about
it. A span's self time is its duration minus the durations of its child
spans; spans are kept in memory.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, span name). A name missing from the package (after a
# refactor, say) is skipped and its metrics read 0.
TRACED = [
    ("bingcn.datasets", "read_edges", "datasets.read_edges"),
    ("bingcn.datasets", "read_features", "datasets.read_features"),
    ("bingcn.train", "neighbor_mean_matrix", "graph.neighbor_mean"),
    ("bingcn.layers", "aggregate", "graph.aggregate"),
    ("bingcn.bitlinalg", "binarize_rows", "bitlinalg.binarize_rows"),
    ("bingcn.bitlinalg", "binarize_columns", "bitlinalg.binarize_columns"),
    ("bingcn.bitlinalg", "bin_gemm", "bitlinalg.bin_gemm"),
    ("bingcn.layers", "bigcn_forward", "layer.fwd"),
    ("bingcn.layers", "gcn_forward_cached", "layer.fwd"),
    ("bingcn.layers", "bisage_forward", "layer.fwd"),
    ("bingcn.layers", "bigcn_backward", "layer.bwd"),
    ("bingcn.layers", "gcn_backward", "layer.bwd"),
    ("bingcn.layers", "bisage_backward", "layer.bwd"),
    ("bingcn.layers", "batch_norm_apply", "bn"),
    ("bingcn.layers", "batch_norm_forward", "bn"),
    ("bingcn.layers", "batch_norm_backward", "bn"),
    ("bingcn.layers", "masked_softmax_xent", "xent"),
    ("bingcn.layers", "masked_accuracy", "xent"),
    ("bingcn.train", "adam_step", "adam"),
]


@dataclass
class Span:
    name: str
    parent: "Span | None"
    attrs: dict = field(default_factory=dict)
    duration: float = 0.0
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def find(self, key: str):
        """`key` of the nearest span, this one or an ancestor, that has it."""
        span = self
        while span is not None:
            if key in span.attrs:
                return span.attrs[key]
            span = span.parent
        return None


class Tracer:
    """Records nested spans; one instance per traced section of a run."""

    def __init__(self, n_layers: int):
        self.n_layers = n_layers
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._layer_calls: dict[tuple[str, bool], int] = {}

    @contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself around one of its calls."""
        span = self._open(name, attrs)
        start = time.perf_counter()
        try:
            yield span
        finally:
            self._close(span, time.perf_counter() - start)

    def _open(self, name: str, attrs: dict) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, attrs)
        self._stack.append(span)
        self.spans.append(span)
        if name in ("train", "evaluate"):
            self._layer_calls.clear()
        return span

    def _close(self, span: Span, duration: float) -> None:
        span.duration = duration
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_time += duration

    def _layer_index(self, name: str, training: bool) -> int:
        """Forward passes visit layers 0..L-1 and backward passes L-1..0."""
        key = (name, training)
        count = self._layer_calls.get(key, 0)
        self._layer_calls[key] = count + 1
        i = count % self.n_layers
        return i if name == "layer.fwd" else self.n_layers - 1 - i

    def install(self) -> list[str]:
        """Wrap every traced function that exists; return the missing ones."""
        missing = []
        for mod_name, attr, span_name in TRACED:
            module = sys.modules[mod_name]
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, span_name))
            self._patched.append((module, attr, original))
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = {}
            if name == "layer.fwd":
                # The model classes pass `training` by keyword.
                training = bool(kwargs.get("training", False))
                attrs = {"training": training, "layer": tracer._layer_index(name, training)}
            elif name == "layer.bwd":
                attrs = {"layer": tracer._layer_index(name, True)}
            span = tracer._open(name, attrs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span, time.perf_counter() - start)

        return wrapper
