"""Binarized graph convolutional networks.

Sign/scalar binarization of weights and node features, packed sign
storage with an exact XNOR/popcount product for inference, one binarized
layer shared by Bi-GCN and Bi-GraphSAGE, gradient-approximation training,
an analytical efficiency model, and binned-entropy capacity bounds for
binary hidden widths.
"""

from .bitlinalg import (
    PackedBinMatrix,
    bin_gemm,
    binarize_columns,
    binarize_rows,
)
from .capacity import (
    CapacityBound,
    EntropyEstimate,
    bin_neuron_entropy,
    capacity_lower_bound,
    layer_entropy_independent,
)
from .datasets import DatasetManifest, SBMParams, generate_sbm, load_dataset, save_dataset
from .efficiency import (
    ArchSpec,
    GraphStats,
    acceleration_ratios,
    build_report,
    cycle_ops,
    data_size_bits,
    model_size_bits,
    param_compression_ratio,
)
from .graph import (
    AttributedGraph,
    NormalizedAdjacency,
    aggregate,
    neighbor_mean_matrix,
    normalize_adjacency,
)
from .layers import (
    BatchNormState,
    LayerCache,
    batch_norm_apply,
    bigcn_backward,
    bigcn_forward,
    bisage_backward,
    bisage_forward,
    gcn_forward,
    masked_accuracy,
    masked_softmax_xent,
)
from .optim import AdamState, adam_step
from .train import Model, ModelConfig, TrainResult, evaluate, load_model, save_model, train

__all__ = [
    "ArchSpec",
    "AdamState",
    "AttributedGraph",
    "BatchNormState",
    "CapacityBound",
    "DatasetManifest",
    "EntropyEstimate",
    "GraphStats",
    "LayerCache",
    "Model",
    "ModelConfig",
    "NormalizedAdjacency",
    "PackedBinMatrix",
    "SBMParams",
    "TrainResult",
    "acceleration_ratios",
    "adam_step",
    "aggregate",
    "batch_norm_apply",
    "bigcn_backward",
    "bigcn_forward",
    "bin_gemm",
    "bin_neuron_entropy",
    "binarize_columns",
    "binarize_rows",
    "bisage_backward",
    "bisage_forward",
    "build_report",
    "capacity_lower_bound",
    "cycle_ops",
    "data_size_bits",
    "evaluate",
    "gcn_forward",
    "generate_sbm",
    "layer_entropy_independent",
    "load_dataset",
    "load_model",
    "masked_accuracy",
    "masked_softmax_xent",
    "model_size_bits",
    "neighbor_mean_matrix",
    "normalize_adjacency",
    "param_compression_ratio",
    "save_dataset",
    "save_model",
    "train",
]
