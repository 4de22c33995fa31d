"""Binned entropy estimation and the binary-width lower bound."""

import numpy as np
import pytest

from bingcn.capacity import (
    CapacityBound,
    bin_neuron_entropy,
    capacity_lower_bound,
    layer_entropy_independent,
    read_activation_dump,
    write_activation_dump,
)
from bingcn.datasets import DatasetError, FormatError, read_features, write_features


def uniform_over_bins(n_bins, per_bin=5):
    """Samples hitting every one of n_bins equal-width bins equally often."""
    centers = (np.arange(n_bins) + 0.5) / n_bins
    return np.repeat(centers, per_bin)


class TestBinNeuronEntropy:
    def test_uniform_occupancy_reaches_log2_m(self):
        samples = uniform_over_bins(200)
        assert bin_neuron_entropy(samples, 200) == pytest.approx(np.log2(200), abs=1e-9)

    def test_constant_samples_zero_bits(self):
        assert bin_neuron_entropy(np.full(50, 3.7), 200) == 0.0

    def test_two_balanced_bins_one_bit(self):
        samples = np.array([0.0] * 10 + [1.0] * 10)
        assert bin_neuron_entropy(samples, 2) == pytest.approx(1.0, abs=1e-12)

    def test_single_bin(self):
        rng = np.random.default_rng(0)
        assert bin_neuron_entropy(rng.standard_normal(100), 1) == 0.0

    def test_max_sample_falls_in_last_bin(self):
        # two bins over [0, 2]: {0, 2} balanced -> 1 bit; the max must not
        # fall off the right edge
        assert bin_neuron_entropy(np.array([0.0, 2.0]), 2) == pytest.approx(1.0)

    def test_bounds_hold_for_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(1, 64))
            samples = rng.standard_normal(int(rng.integers(1, 300)))
            h = bin_neuron_entropy(samples, m)
            assert 0.0 <= h <= np.log2(m) + 1e-12 if m > 1 else h == 0.0

    def test_affine_rescale_invariance(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal(500)
        base = bin_neuron_entropy(samples, 64)
        for a, b in [(2.0, 0.0), (0.5, 3.0), (10.0, -7.0)]:
            assert bin_neuron_entropy(a * samples + b, 64) == pytest.approx(base, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(300)
        base = bin_neuron_entropy(samples, 50)
        shuffled = rng.permutation(samples)
        assert bin_neuron_entropy(shuffled, 50) == base

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bin_neuron_entropy(np.array([]), 10)
        with pytest.raises(ValueError):
            bin_neuron_entropy(np.ones(5), 0)
        with pytest.raises(ValueError):
            bin_neuron_entropy(np.array([1.0, np.nan]), 4)


class TestLayerEntropy:
    def test_additivity_over_uniform_neurons(self):
        k, m = 5, 32
        acts = np.stack([uniform_over_bins(m) for _ in range(k)], axis=1)
        est = layer_entropy_independent(acts, m)
        assert est.h_ind == pytest.approx(k * np.log2(m), abs=1e-9)
        assert est.n_samples == acts.shape[0]
        assert est.n_bins == m

    def test_duplicate_column_counted_twice(self):
        rng = np.random.default_rng(4)
        col = rng.standard_normal(200)
        single = layer_entropy_independent(col[:, None], 40)
        doubled = layer_entropy_independent(np.stack([col, col], axis=1), 40)
        assert doubled.h_ind == pytest.approx(2 * single.h_ind)

    def test_sum_equals_per_neuron_sum(self):
        rng = np.random.default_rng(5)
        acts = rng.standard_normal((150, 7))
        est = layer_entropy_independent(acts, 25)
        assert est.h_ind == pytest.approx(float(est.per_neuron.sum()))
        assert (est.per_neuron >= 0).all()
        assert (est.per_neuron <= np.log2(25) + 1e-12).all()


class TestCapacityBound:
    def test_reported_reference_value(self):
        assert capacity_lower_bound(97.37).d_bin_lower == 98

    def test_integer_boundary(self):
        assert capacity_lower_bound(64.0).d_bin_lower == 64

    def test_max_then_ceil(self):
        bound = capacity_lower_bound([10.2, 33.7])
        assert bound.d_bin_lower == 34
        assert bound.per_layer_h_ind == (10.2, 33.7)

    def test_accepts_estimates(self):
        acts = np.stack([uniform_over_bins(16) for _ in range(3)], axis=1)
        est = layer_entropy_independent(acts, 16)
        bound = capacity_lower_bound([est])
        assert isinstance(bound, CapacityBound)
        assert bound.d_bin_lower == 12  # ceil(3 * log2 16)
        assert bound.per_layer_h_ind == (est.h_ind,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            capacity_lower_bound([])


# The two files of the float32 matrix layout: (magic, writer, reader).
MATRIX_FILES = [
    (b"BGNA", write_activation_dump, read_activation_dump),
    (b"BGNF", write_features, read_features),
]


class TestActivationDump:
    """Activation dumps and features files: one layout under two magics."""

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        acts = rng.standard_normal((37, 5)).astype(np.float32)
        path = tmp_path / "matrix.bin"
        for _, write, read in MATRIX_FILES:
            write(path, acts)
            back = read(path)
            assert back.dtype == np.float32
            assert np.array_equal(back, acts)
            write(path, acts.astype(np.float64))  # narrowed to the same float32 bytes
            assert np.array_equal(read(path), acts)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "matrix.bin"
        for magic, write, _ in MATRIX_FILES:
            write(path, np.arange(6, dtype=np.float32).reshape(3, 2))
            blob = path.read_bytes()
            assert blob[:4] == magic
            assert int.from_bytes(blob[4:8], "little") == 3
            assert int.from_bytes(blob[8:12], "little") == 2
            assert blob[12:] == np.arange(6, dtype="<f4").tobytes()

    def test_rejects_bad_magic_and_truncation(self, tmp_path):
        for magic, _, read in MATRIX_FILES:
            other = b"BGNF" if magic == b"BGNA" else b"BGNA"
            header = (5).to_bytes(4, "little") + (4).to_bytes(4, "little")
            for name, blob in [("bad", b"XXXX" + b"\x00" * 8),
                               ("other-magic", other + header + b"\x00" * 80),
                               ("short", magic + header),
                               ("no-header", magic[:3])]:
                path = tmp_path / f"{name}.bin"
                path.write_bytes(blob)
                with pytest.raises(FormatError) as info:
                    read(path)
                assert isinstance(info.value, ValueError)
                assert isinstance(info.value, DatasetError)
