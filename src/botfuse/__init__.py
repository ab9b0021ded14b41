"""Botnet detection by fusing per-node flow features with communication-graph
topology through a pretrained graph convolutional network, classified by an
extremely randomized trees ensemble."""

__version__ = "0.1.0"
