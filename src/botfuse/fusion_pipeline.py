"""End-to-end orchestration: parsed flows to TCP/UDP windows to features to
graph to frozen-network embedding to normalization to tree classifier, for
both training and detection."""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import extra_trees
from .comm_graph import build_graph, propagation_matrix
from .extra_trees import DEFAULT_NORM_MODE, DEFAULT_THRESHOLD, NORM_MODES, TreeEnsemble
from .flow_features import FEATURE_DIM, extract_node_features
from .flow_ingest import (DEFAULT_STRIDE, DEFAULT_WINDOW_LEN, FlowTable, Label, WindowSlice,
                          filter_tcp_udp, node_labels, slice_windows)
from .forking import in_two_halves
from .gcn_core import GcnModel, forward

VARIANT_FUSED = "fused"
VARIANT_TOPOLOGY = "topology_only"
VARIANT_FLOW = "flow_only"
VARIANTS = (VARIANT_FUSED, VARIANT_TOPOLOGY, VARIANT_FLOW)


@dataclass
class WindowReport:
    """One window's scores: node ``nodes[i]`` has bot probability
    ``probabilities[i]``; `DetectionReport.verdicts` flags it or not."""

    window_start: float
    nodes: list[str]
    probabilities: np.ndarray
    timings: dict[str, float]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


# The report's encoding: a line is json.dumps(obj, sort_keys=True,
# separators=(",", ":")) of its window's object.
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_JSON_BOOL = ("false", "true")


@dataclass
class DetectionReport:
    threshold: float
    windows: list[WindowReport]

    def verdicts(self, window: WindowReport) -> np.ndarray:
        """Whether each node of the window is flagged: its bot probability
        is at least the threshold."""
        return window.probabilities >= self.threshold

    def json_lines(self, architecture: str, include_timings: bool = True) -> Iterator[str]:
        """One JSON line (without its newline) per window, made as it is asked for.

        The object of a window has the keys architecture (the label passed in),
        n_flagged, n_nodes, nodes, threshold, [timings,] window_start; a node
        is an object with bot_probability, node_id and verdict (`verdicts`),
        and n_flagged counts the true verdicts. The node entries are written
        straight from the arrays, between the encoded keys that sort before
        "nodes" and those that sort after it.
        """
        for w in self.windows:
            verdicts = self.verdicts(w).tolist()
            head = _JSON.encode({"architecture": architecture, "n_flagged": sum(verdicts),
                                 "n_nodes": w.n_nodes})
            tail = {"threshold": self.threshold, "window_start": w.window_start}
            if include_timings:
                tail["timings"] = w.timings
            # The encoder's own text of every probability ("NaN" included);
            # no float's text holds a comma.
            probs = _JSON.encode(w.probabilities.tolist())[1:-1].split(",")
            nodes = ",".join(
                f'{{"bot_probability":{p},"node_id":{_JSON.encode(node)},'
                f'"verdict":{_JSON_BOOL[verdict]}}}'
                for p, node, verdict in zip(probs, w.nodes, verdicts)
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


def check_model(model: GcnModel, ensemble: TreeEnsemble | None = None) -> None:
    """Refuse a network that is not frozen or does not take FEATURE_DIM inputs,
    and an ensemble that does not take the network's embedding width."""
    if not model.frozen:
        raise ValueError("embedding requires a frozen model")
    if model.input_dim != FEATURE_DIM:
        raise ValueError(
            f"model expects {model.input_dim}-dim input, pipeline produces {FEATURE_DIM}"
        )
    if ensemble is not None and ensemble.n_features != model.hidden_dim:
        raise ValueError(
            f"ensemble expects {ensemble.n_features} features, "
            f"model emits {model.hidden_dim}"
        )


def trace_windows(table: FlowTable, window_len: float = DEFAULT_WINDOW_LEN,
                  stride: float = DEFAULT_STRIDE) -> tuple[FlowTable, list[WindowSlice]]:
    """The TCP/UDP flows of a parsed trace and the windows sliced from them."""
    flows = filter_tcp_udp(table)
    windows = slice_windows(flows, window_len, stride)
    if not windows:
        raise ValueError("no windows produced from the input flows")
    return flows, windows


def embed_window(
    window: WindowSlice, model: GcnModel, variant: str = VARIANT_FUSED
) -> tuple[list[str], np.ndarray, dict[str, float]]:
    """Window flows through graph construction and the frozen network.

    Returns the window's nodes, one final-hidden-layer vector per node, and
    the seconds spent in the features, graph and embed stages. Variants
    select what the vectors are: `fused` runs flow features through the
    frozen network, `topology_only` runs all-ones features through it
    instead, and `flow_only` skips the network and returns the raw window
    features. The network must pass `check_model`.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown feature variant {variant!r}")
    t0 = time.perf_counter()
    feats = extract_node_features(window)
    t1 = time.perf_counter()
    if variant == VARIANT_FLOW:
        t2 = t1
        vectors = feats.matrix
    else:
        P = propagation_matrix(build_graph(window))
        t2 = time.perf_counter()
        X0 = feats.matrix if variant == VARIANT_FUSED else np.ones_like(feats.matrix)
        vectors = forward(model, P, X0, with_head=False)
    t3 = time.perf_counter()
    return feats.nodes, vectors, {"features": t1 - t0, "graph": t2 - t1, "embed": t3 - t2}


def pool_labeled_rows(
    table: FlowTable,
    model: GcnModel,
    window_len: float = DEFAULT_WINDOW_LEN,
    stride: float = DEFAULT_STRIDE,
    norm_mode: str = DEFAULT_NORM_MODE,
    variant: str = VARIANT_FUSED,
):
    """Normalized per-node rows pooled across a trace's windows, labeled 1 = bot,
    and the node (host) of each row.

    The parsed flows are windowed by `trace_windows` and their nodes labeled
    by `node_labels`; nodes it marks unknown are left out of the pool. A
    model that fails `check_model` is refused before the flows are read,
    except by `flow_only`, which reads no model.
    """
    if variant != VARIANT_FLOW:
        check_model(model)
    flows, windows = trace_windows(table, window_len, stride)
    classes = {node: int(label is Label.BOT)
               for node, label in node_labels(flows).items() if label is not Label.UNKNOWN}
    X_parts = []
    y_parts = []
    host_parts = []
    for window in windows:
        nodes, vectors, _ = embed_window(window, model, variant)
        norm = normalize_embedding(vectors, norm_mode)
        y = np.array([classes.get(node, -1) for node in nodes], dtype=np.int64)
        keep = y >= 0
        if keep.any():
            X_parts.append(norm[keep])
            y_parts.append(y[keep])
            host_parts.append(np.array(nodes, dtype=object)[keep])
    if not X_parts:
        raise ValueError("no labeled nodes in the training windows")
    return np.vstack(X_parts), np.concatenate(y_parts), np.concatenate(host_parts)


def train_detector(
    table: FlowTable,
    model: GcnModel,
    window_len: float = DEFAULT_WINDOW_LEN,
    stride: float = DEFAULT_STRIDE,
    norm_mode: str = DEFAULT_NORM_MODE,
    n_trees: int = extra_trees.DEFAULT_N_TREES,
    seed: int = 0,
) -> TreeEnsemble:
    """Fit the tree ensemble on the pooled rows of a parsed trace's labeled nodes.

    The ensemble records `norm_mode`, `window_len` and `stride`, so `detect`
    windows and normalizes as training did.
    """
    X, y, _ = pool_labeled_rows(table, model, window_len, stride, norm_mode)
    if np.unique(y).size < 2:
        raise ValueError("training data contains a single class")
    ensemble = extra_trees.fit(X, y, n_trees=n_trees, seed=seed)
    ensemble.norm_mode, ensemble.window_len, ensemble.stride = norm_mode, window_len, stride
    return ensemble


def detect(
    table: FlowTable,
    model: GcnModel,
    ensemble: TreeEnsemble,
    threshold: float = DEFAULT_THRESHOLD,
) -> DetectionReport:
    """Per-window verdicts with stage timings; no cross-window aggregation.

    The parsed flows are windowed by `trace_windows` with the ensemble's
    ``window_len`` and ``stride``, and embeddings are normalized with the
    mode it was trained on; a pair that fails `check_model` is refused
    before the flows are read. Windows are scored independently, so where
    two CPUs are available the second half is scored in one forked worker
    (`forking.in_two_halves`); the verdicts have the same bytes either way.
    """
    extra_trees.check_threshold(threshold)
    check_model(model, ensemble)
    _, windows = trace_windows(table, ensemble.window_len, ensemble.stride)

    def score(i: int) -> WindowReport:
        window = windows[i]
        nodes, vectors, timings = embed_window(window, model)
        t0 = time.perf_counter()
        norm = normalize_embedding(vectors, ensemble.norm_mode)
        t1 = time.perf_counter()
        probs = extra_trees.predict_proba(ensemble, norm)
        t2 = time.perf_counter()
        return WindowReport(
            window_start=window.window_start,
            nodes=nodes,
            probabilities=probs,
            timings={**timings, "normalize": t1 - t0, "classify": t2 - t1},
        )

    return DetectionReport(threshold, in_two_halves(score, len(windows), "window"))
