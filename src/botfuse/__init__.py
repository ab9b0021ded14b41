"""Botnet detection by fusing per-node flow features with communication-graph
topology through a pretrained graph convolutional network, classified by an
extremely randomized trees ensemble."""

__version__ = "0.1.0"

from botfuse.flow_ingest import (
    FlowRecord,
    Label,
    ParseResult,
    Proto,
    WindowSlice,
    derive_node_labels,
    filter_tcp_udp,
    parse_flow_file,
    slice_windows,
)
from botfuse.flow_features import NodeFeatures, classify_flow_success, extract_node_features
from botfuse.comm_graph import CommGraph, build_graph, load_graph, propagation_matrix, save_graph
from botfuse.gcn_core import GcnModel, backward, deserialize_model, forward, gcn_layer_forward, init_gcn, serialize_model
from botfuse.pretrain import SyntheticGraphSpec, TrainConfig, generate_synthetic_graph, load_graph_dataset, pretrain_gcn
from botfuse.extra_trees import TreeEnsemble, deserialize_ensemble, fit, predict, predict_proba, serialize_ensemble
from botfuse.fusion_pipeline import (
    DetectionReport,
    PipelineConfig,
    detect,
    embed_window,
    normalize_embedding,
    normalize_fused,
    train_detector,
)
from botfuse.metrics import MetricSet, compute_metrics, depth_sweep, kfold_cv
