"""Dataset files, manifests, and synthetic benchmark graphs.

On-disk layout of a dataset directory:

* ``edges.txt``   — one ``u v`` pair per line, 0-indexed, undirected;
  blank lines are skipped; duplicates and self-loops are tolerated on
  input and dropped.
* ``features.bin`` — magic ``BGNF``, uint32 N, uint32 d (little-endian),
  then N*d row-major float32 values.
* ``labels.txt``  — whitespace-separated integer classes, one per node
  (written one per line).
* ``masks.txt``   — one character per node: ``t`` train, ``v`` val,
  ``s`` test, ``-`` unassigned. Line breaks are ignored.
* ``manifest.json`` — a JSON object that names the four files and
  declares N, d, C.

A malformed file (undecodable bytes, a non-integer or beyond-int64 value,
a wrong column count) raises `FormatError` naming it, also a `ValueError`;
all are `DatasetError`. `read_matrix`/`write_matrix` own the float32 layout
of ``features.bin``, which activation dumps share under their own magic.
"""

from __future__ import annotations

import json
import numbers
import struct
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .graph import AttributedGraph

FEATURES_MAGIC = b"BGNF"
_MASK_CHARS = "tvs-"
# Rows of a block pair whose edge draws are held at once by generate_sbm.
_SBM_ROW_CHUNK = 256


class DatasetError(Exception):
    """Base for all dataset loading failures."""


class MissingFileError(DatasetError):
    pass


class FormatError(DatasetError, ValueError):
    """A file is malformed. Also a ValueError: the file holds a bad value."""


class DimensionMismatchError(DatasetError):
    pass


class LabelRangeError(DatasetError):
    pass


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    edges_file: Path
    features_file: Path
    labels_file: Path
    masks_file: Path
    num_nodes: int
    num_features: int
    num_classes: int

    def __post_init__(self):
        check_field_types(self)


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"manifest not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    try:
        base = path.parent
        return DatasetManifest(
            name=raw["name"],
            edges_file=base / raw["edges_file"],
            features_file=base / raw["features_file"],
            labels_file=base / raw["labels_file"],
            masks_file=base / raw["masks_file"],
            num_nodes=raw["num_nodes"],
            num_features=raw["num_features"],
            num_classes=raw["num_classes"],
        )
    except KeyError as exc:
        raise FormatError(f"{path}: missing manifest key {exc}") from exc
    except (TypeError, ValueError) as exc:  # not an object, or a value of the wrong type
        raise FormatError(f"{path}: malformed manifest ({exc})") from exc


def _require(path: Path) -> Path:
    if not path.is_file():
        raise MissingFileError(f"input file not found: {path}")
    return path


def read_matrix(path, magic: bytes) -> np.ndarray:
    """The (rows, columns) float32 payload of a `write_matrix` file under `magic`."""
    path = _require(Path(path))
    blob = path.read_bytes()
    if len(blob) < 12 or blob[:4] != magic:
        raise FormatError(f"{path}: bad header, expected magic {magic!r}")
    n, d = struct.unpack("<II", blob[4:12])
    expected = 12 + 4 * n * d
    if len(blob) != expected:
        raise FormatError(f"{path}: payload is {len(blob) - 12} bytes, "
                          f"header implies {expected - 12}")
    return np.frombuffer(blob, dtype="<f4", offset=12).reshape(n, d)


def write_matrix(path, magic: bytes, x) -> None:
    """Write a 2-D matrix as magic, uint32 rows, uint32 columns, row-major float32.

    A non-finite value, or one that float32 rounds to infinity, raises
    ValueError before the file is opened: `read_matrix`'s callers would
    reject the file.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"a matrix file holds a 2-D array, got {x.ndim}-D")
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(x, dtype="<f4")
    if not np.isfinite(payload).all():
        raise ValueError("a matrix file holds finite float32 values: a value is "
                         f"non-finite or beyond +-{np.finfo(np.float32).max}")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", *x.shape))
        fh.write(payload.tobytes())


def read_features(path) -> np.ndarray:
    return read_matrix(path, FEATURES_MAGIC)


def write_features(path, x) -> None:
    write_matrix(path, FEATURES_MAGIC, x)


def read_edges(path) -> np.ndarray:
    path = _require(Path(path))
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            edges = np.loadtxt(path, dtype=np.int64, comments=None, ndmin=2)
    except ValueError as exc:  # also undecodable bytes and values beyond int64
        raise FormatError(f"{path}: {exc}") from exc
    if edges.size and edges.shape[1] != 2:
        raise FormatError(f"{path}: expected 'u v' per line, got {edges.shape[1]} columns")
    return edges.reshape(-1, 2)


def read_labels(path) -> np.ndarray:
    path = _require(Path(path))
    try:
        return np.array(path.read_text().split(), dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: labels must be int64 integers ({exc})") from exc


def read_masks(path, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    path = _require(Path(path))
    try:
        chars = "".join(path.read_text().split())
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if len(chars) != n:
        raise DimensionMismatchError(f"{path}: {len(chars)} mask characters for {n} nodes")
    bad = set(chars) - set(_MASK_CHARS)
    if bad:
        raise FormatError(f"{path}: unknown mask characters {sorted(bad)}")
    arr = np.frombuffer(chars.encode("ascii"), dtype="S1")
    return arr == b"t", arr == b"v", arr == b"s"


def load_dataset(manifest) -> AttributedGraph:
    """Load and validate an attributed graph named by a manifest.

    Accepts a DatasetManifest or a path to a manifest.json. Raises a
    specific DatasetError subclass per failure mode.
    """
    if not isinstance(manifest, DatasetManifest):
        manifest = load_manifest(manifest)
    x = read_features(manifest.features_file)
    if x.shape != (manifest.num_nodes, manifest.num_features):
        raise DimensionMismatchError(
            f"{manifest.features_file}: features are {x.shape}, manifest declares "
            f"({manifest.num_nodes}, {manifest.num_features})"
        )
    labels = read_labels(manifest.labels_file)
    if labels.shape[0] != manifest.num_nodes:
        raise DimensionMismatchError(
            f"{manifest.labels_file}: {labels.shape[0]} labels for {manifest.num_nodes} nodes"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= manifest.num_classes):
        raise LabelRangeError(
            f"{manifest.labels_file}: label outside [0, {manifest.num_classes})"
        )
    train, val, test = read_masks(manifest.masks_file, manifest.num_nodes)
    edges = read_edges(manifest.edges_file)
    if edges.size and (edges.min() < 0 or edges.max() >= manifest.num_nodes):
        raise DimensionMismatchError(
            f"{manifest.edges_file}: edge endpoint outside [0, {manifest.num_nodes})"
        )
    try:
        return AttributedGraph(
            x=x,
            edges=edges,
            labels=labels,
            train_mask=train,
            val_mask=val,
            test_mask=test,
            n_classes=manifest.num_classes,
        )
    except ValueError as exc:
        # The checks above leave the feature values (the features file is
        # at fault) and the manifest's counts (the dataset directory is).
        at_fault = (manifest.features_file if not np.isfinite(x).all()
                    else manifest.features_file.parent)
        raise FormatError(f"{at_fault}: {exc}") from exc


def save_dataset(dirpath, graph: AttributedGraph, name: str = "dataset") -> Path:
    """Write a graph as a dataset directory; returns the manifest path."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    write_features(dirpath / "features.bin", graph.x)
    np.savetxt(dirpath / "edges.txt", graph.edges, fmt="%d")
    # one row of N "\n"-delimited columns: one format call, one label per line
    np.savetxt(dirpath / "labels.txt", graph.labels[None], fmt="%d", delimiter="\n")
    chars = np.full(graph.n_nodes, "-", dtype="U1")
    chars[graph.train_mask] = "t"
    chars[graph.val_mask] = "v"
    chars[graph.test_mask] = "s"
    (dirpath / "masks.txt").write_text("".join(chars) + "\n")
    manifest = {
        "name": name,
        "edges_file": "edges.txt",
        "features_file": "features.bin",
        "labels_file": "labels.txt",
        "masks_file": "masks.txt",
        "num_nodes": graph.n_nodes,
        "num_features": graph.n_features,
        "num_classes": graph.n_classes,
    }
    manifest_path = dirpath / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


_FIELD_KINDS = {"int": ("an integer", numbers.Integral), "float": ("a real number", numbers.Real),
                "str": ("a string", str), "list[int]": ("a list of integers", numbers.Integral),
                "Path": ("a path", Path)}


def check_field_types(settings) -> None:
    """Raise ValueError unless every field of the dataclass `settings` holds
    its annotation's type (`_FIELD_KINDS`; a list or tuple of integers for
    ``list[int]``). numpy scalars count as their kind, a bool as none."""
    for field in fields(settings):
        value = getattr(settings, field.name)
        kind, cls = _FIELD_KINDS[field.type]
        items = [value]
        if field.type == "list[int]":
            items = value if isinstance(value, (list, tuple)) else [None]
        if not all(isinstance(v, cls) and not isinstance(v, bool) for v in items):
            raise ValueError(f"{field.name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class SBMParams:
    """Planted-partition benchmark: C equal classes, block-structured edges.

    Features are the class signature (signal on the class's own block of
    coordinates) plus unit Gaussian noise. Splits follow the fixed-size
    citation-network convention: a small train/val set per class, the
    rest test.
    """

    nodes_per_class: int = 100
    n_classes: int = 7
    p_in: float = 0.1
    p_out: float = 0.01
    n_features: int = 70
    signal: float = 2.0
    seed: int = 0
    train_per_class: int = 20
    val_per_class: int = 30

    def __post_init__(self):
        check_field_types(self)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise ValueError("need 0 <= p_out <= p_in <= 1")
        if not (np.isfinite(self.signal) and self.signal >= 0):
            raise ValueError("signal strength must be finite and >= 0")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.n_features < self.n_classes:
            raise ValueError("need at least one feature coordinate per class")
        if self.train_per_class < 1 or self.val_per_class < 1:
            raise ValueError("train/val sizes must be >= 1")
        if self.nodes_per_class <= self.train_per_class + self.val_per_class:
            raise ValueError("classes too small for the requested train/val split")


def generate_sbm(params: SBMParams) -> AttributedGraph:
    """Sample a planted-partition graph, deterministic per seed."""
    rng = np.random.default_rng(params.seed)
    c = params.n_classes
    npc = params.nodes_per_class
    n = c * npc
    labels = np.repeat(np.arange(c), npc)

    edges = []
    for ci in range(c):
        for cj in range(ci, c):
            p = params.p_in if ci == cj else params.p_out
            rows = np.arange(ci * npc, (ci + 1) * npc)
            cols = np.arange(cj * npc, (cj + 1) * npc)
            # Chunks of rows draw the same uniform stream as one npc x npc draw.
            for r0 in range(0, npc, _SBM_ROW_CHUNK):
                draws = rng.random((min(_SBM_ROW_CHUNK, npc - r0), npc)) < p
                if ci == cj:
                    # upper triangle of the whole block: no loops, no doubles
                    draws = np.triu(draws, k=1 + r0)
                ii, jj = np.nonzero(draws)
                if ii.size:
                    edges.append(np.stack([rows[r0 + ii], cols[jj]], axis=1))

    block = params.n_features // c
    means = np.zeros((c, params.n_features))
    for ci in range(c):
        means[ci, ci * block: (ci + 1) * block] = params.signal
    x = means[labels] + rng.standard_normal((n, params.n_features))

    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for ci in range(c):
        order = ci * npc + rng.permutation(npc)
        train[order[: params.train_per_class]] = True
        val[order[params.train_per_class: params.train_per_class + params.val_per_class]] = True
        test[order[params.train_per_class + params.val_per_class:]] = True

    return AttributedGraph(
        x=x,
        edges=np.concatenate(edges) if edges else [],
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        n_classes=c,
    )
