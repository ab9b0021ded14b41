"""End-to-end orchestration: window to features to graph to frozen-network
embedding to normalization to tree classifier, for both training and
detection."""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import extra_trees
from .comm_graph import build_graph, propagation_matrix
from .extra_trees import DEFAULT_NORM_MODE, DEFAULT_THRESHOLD, NORM_MODES, TreeEnsemble
from .flow_features import FEATURE_DIM, extract_node_features
from .flow_ingest import Label, WindowSlice
from .forking import in_two_halves
from .gcn_core import GcnModel, forward
from .pretrain import ARCH_C2, ARCHITECTURES

VARIANT_FUSED = "fused"
VARIANT_TOPOLOGY = "topology_only"
VARIANT_FLOW = "flow_only"
VARIANTS = (VARIANT_FUSED, VARIANT_TOPOLOGY, VARIANT_FLOW)


@dataclass
class PipelineConfig:
    architecture: str = ARCH_C2
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be one of {ARCHITECTURES}")
        extra_trees.check_threshold(self.threshold)


@dataclass
class NodeEmbedding:
    """Final-hidden-layer activations for one window's nodes, with the
    seconds spent in the features, graph and embed stages."""

    nodes: list[str]
    vectors: np.ndarray
    timings: dict[str, float]


@dataclass
class WindowReport:
    """One window's verdicts: node ``nodes[i]`` has bot probability
    ``probabilities[i]`` and is flagged when ``flags[i]``."""

    window_start: float
    nodes: list[str]
    probabilities: np.ndarray
    flags: np.ndarray
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_flagged(self) -> int:
        return int(np.count_nonzero(self.flags))


# The report's encoding: a line is json.dumps(obj, sort_keys=True,
# separators=(",", ":")) of its window's object.
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_JSON_BOOL = ("false", "true")


@dataclass
class DetectionReport:
    architecture: str
    threshold: float
    windows: list[WindowReport]
    total_seconds: float = 0.0

    def json_lines(self, include_timings: bool = True) -> Iterator[str]:
        """One JSON line (without its newline) per window, made as it is asked for.

        The object of a window has the keys architecture, n_flagged, n_nodes,
        nodes, threshold, [timings,] window_start; a node is an object with
        bot_probability, node_id and verdict. The node entries are written
        straight from the arrays, between the encoded keys that sort before
        "nodes" and those that sort after it.
        """
        for w in self.windows:
            head = _JSON.encode(
                {"architecture": self.architecture, "n_flagged": w.n_flagged,
                 "n_nodes": w.n_nodes}
            )
            tail = {"threshold": self.threshold, "window_start": w.window_start}
            if include_timings:
                tail["timings"] = w.timings
            # The encoder's own text of every probability ("NaN" included);
            # no float's text holds a comma.
            probs = _JSON.encode(w.probabilities.tolist())[1:-1].split(",")
            nodes = ",".join(
                f'{{"bot_probability":{p},"node_id":{_JSON.encode(node)},'
                f'"verdict":{_JSON_BOOL[flag]}}}'
                for p, node, flag in zip(probs, w.nodes, w.flags.tolist())
            )
            yield f'{head[:-1]},"nodes":[{nodes}],{_JSON.encode(tail)[1:]}'


def normalize_embedding(M: np.ndarray, mode: str = DEFAULT_NORM_MODE) -> np.ndarray:
    """Min-max rescale of a node-embedding matrix onto [0, 100].

    per_vector rescales each node's vector (row) by its own min and max;
    per_dimension rescales each column over the window's node set. A
    constant row or column maps to all zeros (the rescale is undefined there
    and zero is the stable, order-consistent choice).
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D embedding matrix, got shape {M.shape}")
    if mode not in NORM_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}")
    if not np.isfinite(M).all():
        raise ValueError("non-finite values in feature vector")
    axis = 1 if mode == "per_vector" else 0
    lo = M.min(axis=axis, keepdims=True)
    span = M.max(axis=axis, keepdims=True) - lo
    # A constant slice has M - lo == 0, so any nonzero divisor keeps it zero.
    return (M - lo) / np.where(span == 0, 1.0, span) * 100.0


def embed_window(
    window: WindowSlice, model: GcnModel, variant: str = VARIANT_FUSED
) -> NodeEmbedding:
    """Window flows through graph construction and the frozen network.

    Variants select what the vectors are: `fused` runs flow features
    through the frozen network, `topology_only` runs all-ones features
    through it instead, and `flow_only` skips the network and returns the
    raw window features.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown feature variant {variant!r}")
    if variant != VARIANT_FLOW and not model.frozen:
        raise ValueError("embedding requires a frozen model")
    t0 = time.perf_counter()
    feats = extract_node_features(window)
    t1 = time.perf_counter()
    graph = build_graph(window, feats)
    if variant == VARIANT_FLOW:
        t2 = time.perf_counter()
        vectors = graph.features
    else:
        P = propagation_matrix(graph)
        t2 = time.perf_counter()
        X0 = graph.features if variant == VARIANT_FUSED else np.ones_like(graph.features)
        vectors = forward(model, P, X0, with_head=False)
    t3 = time.perf_counter()
    timings = {"features": t1 - t0, "graph": t2 - t1, "embed": t3 - t2}
    return NodeEmbedding(nodes=graph.nodes, vectors=vectors, timings=timings)


def pool_labeled_rows(
    windows: list[WindowSlice],
    model: GcnModel,
    node_labels: dict[str, Label],
    norm_mode: str = DEFAULT_NORM_MODE,
    variant: str = VARIANT_FUSED,
):
    """Normalized per-node rows pooled across windows, labeled 1 = bot.

    ``node_labels`` is the trace's labels, as `derive_node_labels` gives
    them; nodes it marks unknown or does not name are left out of the pool.
    """
    classes = {node: int(label is Label.BOT)
               for node, label in node_labels.items() if label is not Label.UNKNOWN}
    X_parts = []
    y_parts = []
    for window in windows:
        emb = embed_window(window, model, variant)
        norm = normalize_embedding(emb.vectors, norm_mode)
        y = np.array([classes.get(node, -1) for node in emb.nodes], dtype=np.int64)
        keep = y >= 0
        if keep.any():
            X_parts.append(norm[keep])
            y_parts.append(y[keep])
    if not X_parts:
        raise ValueError("no labeled nodes in the training windows")
    return np.vstack(X_parts), np.concatenate(y_parts)


def train_detector(
    windows: list[WindowSlice],
    model: GcnModel,
    node_labels: dict[str, Label],
    norm_mode: str = DEFAULT_NORM_MODE,
    n_trees: int = extra_trees.DEFAULT_N_TREES,
    seed: int = 0,
) -> TreeEnsemble:
    """Fit the tree ensemble on pooled normalized embeddings of labeled nodes.

    The ensemble records `norm_mode`, so `detect` normalizes the same way.
    """
    if not windows:
        raise ValueError("no training windows")
    X, y = pool_labeled_rows(windows, model, node_labels, norm_mode)
    if np.unique(y).size < 2:
        raise ValueError("training data contains a single class")
    ensemble = extra_trees.fit(X, y, n_trees=n_trees, seed=seed)
    ensemble.norm_mode = norm_mode
    return ensemble


def detect(
    windows: list[WindowSlice],
    model: GcnModel,
    ensemble: TreeEnsemble,
    config: PipelineConfig | None = None,
) -> DetectionReport:
    """Per-window verdicts with stage timings; no cross-window aggregation.

    Embeddings are normalized with the mode the ensemble was trained on.
    Windows are scored independently, so where two CPUs are available the
    second half is scored in one forked worker (`forking.in_two_halves`);
    the verdicts have the same bytes either way.
    """
    config = config or PipelineConfig()
    if not windows:
        raise ValueError("no windows to detect on")
    if model.input_dim != FEATURE_DIM:
        raise ValueError(
            f"model expects {model.input_dim}-dim input, pipeline produces {FEATURE_DIM}"
        )
    if ensemble.n_features != model.hidden_dim:
        raise ValueError(
            f"ensemble expects {ensemble.n_features} features, "
            f"model emits {model.hidden_dim}"
        )

    def score(i: int) -> WindowReport:
        window = windows[i]
        emb = embed_window(window, model)
        t0 = time.perf_counter()
        norm = normalize_embedding(emb.vectors, ensemble.norm_mode)
        t1 = time.perf_counter()
        probs = extra_trees.predict_proba(ensemble, norm)
        flags = probs >= config.threshold
        t2 = time.perf_counter()
        return WindowReport(
            window_start=window.window_start,
            nodes=emb.nodes,
            probabilities=probs,
            flags=flags,
            timings={**emb.timings, "normalize": t1 - t0, "classify": t2 - t1},
        )

    t_run = time.perf_counter()
    reports = in_two_halves(score, len(windows), "window")
    return DetectionReport(
        architecture=config.architecture,
        threshold=config.threshold,
        windows=reports,
        total_seconds=time.perf_counter() - t_run,
    )
