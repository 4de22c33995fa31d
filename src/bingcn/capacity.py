"""Binned entropy estimation and the binary-width lower bound.

Per-neuron entropies come from an equal-width histogram over each
neuron's observed [min, max] (samples at the max fall in the last bin),
measured in bits. Summing them ignores dependence between neurons and
stands in for the joint entropy of a hidden layer; a binary layer of
width d stores at most d bits, so the ceiling of the largest per-layer
sum lower-bounds the binary hidden width needed to hold the same
information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import FormatError, read_matrix, write_matrix

ACTIVATION_MAGIC = b"BGNA"


def bin_neuron_entropy(samples, n_bins: int) -> float:
    """Plug-in entropy (bits) of one neuron's samples under M-bin binning."""
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise ValueError("need at least one sample")
    if n_bins < 1:
        raise ValueError("bin count must be >= 1")
    if not np.isfinite(samples).all():
        raise ValueError("samples contain non-finite entries")
    lo, hi = samples.min(), samples.max()
    if lo == hi:
        return 0.0
    counts, _ = np.histogram(samples, bins=n_bins, range=(lo, hi))
    p = counts[counts > 0] / samples.size
    return float(-(p * np.log2(p)).sum())


@dataclass(frozen=True)
class EntropyEstimate:
    """Per-neuron entropies and their dependence-blind sum, in bits."""

    per_neuron: np.ndarray
    h_ind: float
    n_samples: int
    n_bins: int

    @property
    def n_neurons(self) -> int:
        return self.per_neuron.size


def layer_entropy_independent(activations, n_bins: int) -> EntropyEstimate:
    """Estimate a layer's entropy as the sum of its per-neuron entropies."""
    acts = np.asarray(activations, dtype=np.float64)
    if acts.ndim != 2 or acts.shape[1] < 1:
        raise ValueError("activations must be a (samples, neurons) matrix")
    per_neuron = np.array(
        [bin_neuron_entropy(acts[:, j], n_bins) for j in range(acts.shape[1])]
    )
    return EntropyEstimate(per_neuron=per_neuron, h_ind=float(per_neuron.sum()),
                           n_samples=acts.shape[0], n_bins=n_bins)


@dataclass(frozen=True)
class CapacityBound:
    """Lower bound on the binary hidden width covering the estimated entropy."""

    d_bin_lower: int
    per_layer_h_ind: tuple[float, ...]


def capacity_lower_bound(per_layer_estimates) -> CapacityBound:
    """ceil(max per-layer independent-sum entropy), one estimate per layer.

    Accepts EntropyEstimate instances or bare bit values; a single value
    is treated as a one-layer model.
    """
    if isinstance(per_layer_estimates, (int, float, EntropyEstimate)):
        per_layer_estimates = [per_layer_estimates]
    estimates = list(per_layer_estimates)
    if not estimates:
        raise ValueError("need at least one hidden-layer estimate")
    h_values = tuple(est.h_ind if isinstance(est, EntropyEstimate) else float(est)
                     for est in estimates)
    return CapacityBound(d_bin_lower=math.ceil(max(h_values)), per_layer_h_ind=h_values)


def write_activation_dump(path, activations) -> None:
    """Write a (samples, neurons) activation matrix: the ``features.bin`` layout."""
    write_matrix(path, ACTIVATION_MAGIC, activations)


def read_activation_dump(path) -> np.ndarray:
    """Read a `write_activation_dump` file; `FormatError` for a malformed one.

    Besides the header and size, the values are checked: a dump with no
    samples or no neurons, or with a non-finite entry, is rejected here
    rather than by the estimator it is passed to.
    """
    acts = read_matrix(path, ACTIVATION_MAGIC)
    if 0 in acts.shape:
        raise FormatError(f"{path}: dump holds {acts.shape[0]} samples of {acts.shape[1]} "
                          f"neurons; need at least one of each")
    if not np.isfinite(acts).all():
        raise FormatError(f"{path}: dump contains non-finite values")
    return acts
