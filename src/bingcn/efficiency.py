"""Analytical size and cycle-count model for binarized graph convolutions.

The cost unit is one cycle operation: one floating multiply plus one
add. A cycle is assumed to execute CYCLE_BINARY_OPS (default 64) binary
operations instead, which is where the binarized feature-extraction
savings come from. Aggregation stays full precision in both variants.

Per layer with N nodes, E undirected edges and a d_in x d_out weight:

* float feature extraction: N * d_in * d_out cycles
* binarized feature extraction: ceil(N * d_in * d_out / 64) cycles for
  the XNOR/popcount part plus 2 * N * d_out float multiplies for the
  two rescaling scalars
* aggregation (both variants): E * d_out cycles

Model bits: a float layer holds 32 * d_in * d_out; a binarized layer
holds d_in * d_out sign bits plus 32 * d_out scalar bits. Data bits:
32 * N * d float versus N * d + 32 * N binarized.
"""

from __future__ import annotations

from dataclasses import dataclass

CYCLE_BINARY_OPS = 64


@dataclass(frozen=True)
class ArchSpec:
    """Layer widths plus a per-layer binarized flag."""

    widths: tuple[int, ...]
    binarized: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        object.__setattr__(self, "binarized", tuple(bool(b) for b in self.binarized))
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ValueError("widths must list at least [d_in, d_out] positive sizes")
        if len(self.binarized) != len(self.widths) - 1:
            raise ValueError("need one binarized flag per layer")

    @classmethod
    def full_float(cls, widths) -> "ArchSpec":
        widths = tuple(widths)
        return cls(widths, (False,) * (len(widths) - 1))

    @classmethod
    def full_binary(cls, widths) -> "ArchSpec":
        widths = tuple(widths)
        return cls(widths, (True,) * (len(widths) - 1))

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1


@dataclass(frozen=True)
class GraphStats:
    """The graph quantities the cost model depends on."""

    nodes: int
    edges: int
    features: int

    def __post_init__(self):
        if self.nodes < 1 or self.edges < 0 or self.features < 1:
            raise ValueError("need nodes >= 1, edges >= 0, features >= 1")

    @property
    def avg_degree(self) -> float:
        return 2.0 * self.edges / self.nodes


def param_compression_ratio(d_in: int) -> float:
    """Model-size shrink factor of one binarized layer: 32*d_in/(d_in+32).

    With the feature dimension as `d_in`, also the loaded-data shrink factor.
    """
    if d_in < 1:
        raise ValueError("d_in must be >= 1")
    return 32.0 * d_in / (d_in + 32.0)


def acceleration_ratios(
    d_in: int, avg_degree: float, ops_per_cycle: int = CYCLE_BINARY_OPS
) -> tuple[float, float]:
    """(feature-extraction speedup, whole-layer speedup) of one layer.

    S_fe counts only the binarized product; S_full adds the
    full-precision aggregation on both sides, which drags the ratio
    toward 1 as the average degree grows and equals S_fe at degree 0.
    """
    if d_in < 1:
        raise ValueError("d_in must be >= 1")
    if avg_degree < 0:
        raise ValueError("average degree must be >= 0")
    if ops_per_cycle < 1:
        raise ValueError("ops_per_cycle must be >= 1")
    k = float(ops_per_cycle)
    s_fe = k * d_in / (d_in + 2.0 * k)
    half_deg = avg_degree / 2.0
    s_full = (k * d_in + k * half_deg) / (d_in + 2.0 * k + k * half_deg)
    return s_fe, s_full


def _layer_cycles(
    n: int, e: int, d_in: int, d_out: int, binarized: bool, ops_per_cycle: int
) -> int:
    fe = n * d_in * d_out
    if binarized:
        fe = -(-fe // ops_per_cycle) + 2 * n * d_out  # ceil division
    return fe + e * d_out


def cycle_ops(arch: ArchSpec, stats: GraphStats,
              ops_per_cycle: int = CYCLE_BINARY_OPS) -> int:
    """Total cycle operations of one full forward pass."""
    if ops_per_cycle < 1:
        raise ValueError("ops_per_cycle must be >= 1")
    total = 0
    for i in range(arch.n_layers):
        total += _layer_cycles(stats.nodes, stats.edges, arch.widths[i],
                               arch.widths[i + 1], arch.binarized[i], ops_per_cycle)
    return total


def model_size_bits(arch: ArchSpec) -> tuple[int, int]:
    """(bits as full-precision model, bits with binarized flags honored)."""
    float_bits = 0
    mixed_bits = 0
    for i in range(arch.n_layers):
        d_in, d_out = arch.widths[i], arch.widths[i + 1]
        float_bits += 32 * d_in * d_out
        if arch.binarized[i]:
            mixed_bits += d_in * d_out + 32 * d_out
        else:
            mixed_bits += 32 * d_in * d_out
    return float_bits, mixed_bits


def data_size_bits(stats: GraphStats) -> tuple[int, int]:
    """(float feature bits, binarized feature bits) for the loaded graph."""
    float_bits = 32 * stats.nodes * stats.features
    binary_bits = stats.nodes * stats.features + 32 * stats.nodes
    return float_bits, binary_bits


def format_size(bits: int, unit: str | None = None) -> str:
    """Readable size with 1024-based units, e.g. 360K or 14.8M.

    Pass `unit` to force the scale so paired float/binary figures print
    in the same unit.
    """
    nbytes = bits / 8.0
    if unit is None:
        unit = "M" if nbytes >= 1024**2 else ("K" if nbytes >= 1024 else "B")
    value = {"B": nbytes, "K": nbytes / 1024.0, "M": nbytes / 1024.0**2}[unit]
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return f"{text}{unit}" if unit != "B" else f"{text}B"


def build_report(widths, stats: GraphStats,
                 ops_per_cycle: int = CYCLE_BINARY_OPS) -> dict:
    """Compare the full-float and fully binarized variants of one stack.

    Returns the JSON-ready report that `bingcn analyze` prints.
    """
    widths = tuple(int(w) for w in widths)
    if widths and widths[0] != stats.features:
        raise ValueError(
            f"first width {widths[0]} must equal the feature dimension {stats.features}"
        )
    float_arch = ArchSpec.full_float(widths)
    bin_arch = ArchSpec.full_binary(widths)

    model_float, model_binary = model_size_bits(bin_arch)
    data_float, data_binary = data_size_bits(stats)
    cyc_float = cycle_ops(float_arch, stats, ops_per_cycle)
    cyc_binary = cycle_ops(bin_arch, stats, ops_per_cycle)
    model_unit = "M" if model_float / 8 >= 1024**2 else "K"
    data_unit = "M" if data_float / 8 >= 1024**2 else "K"

    per_layer = [acceleration_ratios(d_in, stats.avg_degree, ops_per_cycle)
                 for d_in in widths[:-1]]
    return {
        "arch": {"widths": list(widths)},
        "graph": {
            "nodes": stats.nodes,
            "edges": stats.edges,
            "features": stats.features,
            "avg_degree": stats.avg_degree,
        },
        "model_size_bits": {
            "float": model_float,
            "binary": model_binary,
        },
        "model_size_display": {
            "float": format_size(model_float, model_unit),
            "binary": format_size(model_binary, model_unit),
        },
        "data_size_bits": {
            "float": data_float,
            "binary": data_binary,
        },
        "data_size_display": {
            "float": format_size(data_float, data_unit),
            "binary": format_size(data_binary, data_unit),
        },
        "cycle_ops": {
            "float": cyc_float,
            "binary": cyc_binary,
        },
        "ratios": {
            "param_compression_per_layer": [
                param_compression_ratio(d) for d in widths[:-1]
            ],
            "param_compression_total": model_float / model_binary,
            "data_compression": data_float / data_binary,
            "s_fe_per_layer": [s[0] for s in per_layer],
            "s_full_per_layer": [s[1] for s in per_layer],
            "cycle_acceleration": cyc_float / cyc_binary,
        },
    }
