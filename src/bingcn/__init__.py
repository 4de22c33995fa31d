"""Binarized graph convolutional networks.

Sign/scalar binarization of weights and node features, packed sign
storage with an exact XNOR/popcount product for inference, one binarized
layer shared by Bi-GCN and Bi-GraphSAGE, gradient-approximation training,
an analytical efficiency model, and binned-entropy capacity bounds for
binary hidden widths.

The package root exports nothing: import from its modules (``from bingcn import train``).
"""
