"""Fuzzed input files: every reader rejects bad bytes with a data error.

Each reader gets a valid file cut short, with one byte changed, and, for
the binary formats, with a wrong magic number or a huge uint32 header
count; the text formats get a hostile token inserted instead. Only
`DatasetError` may escape a reader. The CLI command that reads the file
must exit 2 when the reader rejects it, and may otherwise only succeed
or report a data error found later (a label count that no longer matches the manifest, say). A
non-finite value written over any float of a model file must be rejected.
Examples are derandomized, so every run draws the same inputs.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bingcn.capacity import read_activation_dump, write_activation_dump
from bingcn.cli import run
from bingcn.datasets import (
    DatasetError,
    SBMParams,
    generate_sbm,
    load_manifest,
    read_edges,
    read_features,
    read_labels,
    read_masks,
    save_dataset,
)
from bingcn.train import ModelConfig, load_model, save_model, train

SBM = dict(nodes_per_class=20, n_classes=2, n_features=4, seed=3,
           train_per_class=5, val_per_class=5)
N_NODES = 40
HUGE = st.sampled_from([0, 2**16 + 1, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1)
TOKENS = [b"12345678901234567890", b"-1", b"abc", b"1.5", b"1e999", b"\xff", b"\x00",
          b"\n", b" ", b"{", b'"', b"[]", b"null"]
FUZZ = settings(derandomize=True, database=None, max_examples=25, deadline=None)


def mutations(blob: bytes, binary: bool):
    at = st.integers(0, len(blob) - 1)
    truncated = at.map(lambda i: blob[:i])
    flipped = st.tuples(at, st.integers(1, 255)).map(
        lambda t: blob[:t[0]] + bytes([blob[t[0]] ^ t[1]]) + blob[t[0] + 1:])
    if not binary:
        inserted = st.tuples(st.integers(0, len(blob)), st.sampled_from(TOKENS)).map(
            lambda t: blob[:t[0]] + t[1] + blob[t[0]:])
        return truncated | flipped | inserted
    magic = st.binary(min_size=4, max_size=4).filter(lambda m: m != blob[:4]).map(
        lambda m: m + blob[4:])
    count = st.tuples(st.integers(1, min(len(blob), 64) // 4 - 1), HUGE).map(
        lambda t: blob[:4 * t[0]] + struct.pack("<I", t[1]) + blob[4 * t[0] + 4:])
    return truncated | flipped | magic | count


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A valid file of every kind: a dataset, an activation dump, model files."""
    root = tmp_path_factory.mktemp("fuzz")
    graph = generate_sbm(SBMParams(**SBM))
    save_dataset(root / "ds", graph, name="sbm")
    write_activation_dump(root / "acts.bin",
                          np.random.default_rng(0).standard_normal((8, 3)))
    for family in ("gcn", "bigcn", "bisage"):
        config = ModelConfig(widths=[4, 3, 2], model=family, max_epochs=2)
        save_model(root / f"{family}.bin", train(config, graph).model)
    return root


def _dataset(root, path):
    return ["analyze", "--dataset", str(root / "ds" / "manifest.json")]


def _model(root, path):
    return ["eval", str(path), "--sbm", json.dumps(SBM)]


# name: (file under the fixture root, reader, binary format, CLI argv)
READERS = {
    "features": ("ds/features.bin", read_features, True, _dataset),
    "edges": ("ds/edges.txt", read_edges, False, _dataset),
    "labels": ("ds/labels.txt", read_labels, False, _dataset),
    "masks": ("ds/masks.txt", lambda p: read_masks(p, N_NODES), False, _dataset),
    "manifest": ("ds/manifest.json", load_manifest, False, _dataset),
    "activation-dump": ("acts.bin", read_activation_dump, True,
                        lambda root, path: ["capacity", str(path)]),
    **{f"model-{family}": (f"{family}.bin", load_model, True, _model)
       for family in ("gcn", "bigcn", "bisage")},
}


def _float_offsets(blob: bytes) -> list[int]:
    """Offsets of the float64 values of a model file: statistics, then weights."""
    (n_widths,) = struct.unpack_from("<I", blob, 12)
    off = 16 + 4 * n_widths
    (n_states,) = struct.unpack_from("<I", blob, off)
    off += 4
    offsets = []
    for _ in range(n_states):
        (dim,) = struct.unpack_from("<I", blob, off)
        offsets += range(off + 4, off + 4 + 16 * dim, 8)
        off += 4 + 16 * dim
    return offsets + list(range(off, len(blob), 8))


@pytest.mark.parametrize("family", ["gcn", "bigcn", "bisage"])
@FUZZ
@given(data=st.data())
def test_non_finite_model_values_are_rejected(family, root, data):
    path = root / f"{family}.bin"
    valid = path.read_bytes()
    at = data.draw(st.sampled_from(_float_offsets(valid)), label="offset")
    value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
    path.write_bytes(valid[:at] + struct.pack("<d", value) + valid[at + 8:])
    try:
        with pytest.raises(DatasetError, match="finite"):
            load_model(path)
        assert run(_model(root, path)) == 2
    finally:
        path.write_bytes(valid)


@pytest.mark.parametrize("name", list(READERS))
@FUZZ
@given(data=st.data())
def test_only_data_errors_escape(name, root, data):
    rel, reader, binary, argv_of = READERS[name]
    path = root / rel
    valid = path.read_bytes()
    path.write_bytes(data.draw(mutations(valid, binary), label="file"))
    try:
        try:
            reader(path)
            rejected = False
        except DatasetError:
            rejected = True
        code = run(argv_of(root, path))
        assert code == 2 if rejected else code in (0, 2)
    finally:
        path.write_bytes(valid)
