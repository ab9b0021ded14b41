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

# Each variant's input to the frozen network, made from a window's flow
# features; flow_only runs no network, and its rows are the features.
VARIANTS = {"fused": lambda features: features, "topology_only": np.ones_like, "flow_only": None}


@dataclass(eq=False)
class WindowReport:
    """One window's scores: node ``nodes[i]`` has bot probability
    ``probabilities[i]``; `extra_trees.verdicts` flags it or not."""

    window_start: float
    nodes: list[str]
    probabilities: np.ndarray
    timings: dict[str, float]


# The report's encoding: a line is json.dumps(obj, sort_keys=True,
# separators=(",", ":")) of its window's object.
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_JSON_BOOL = ("false", "true")


def json_lines(windows: list[WindowReport], architecture: str,
               threshold: float = DEFAULT_THRESHOLD,
               include_timings: bool = True) -> Iterator[str]:
    """One JSON line (without its newline) per window, made as it is asked for;
    a threshold outside [0, 1] is refused before the first line.

    The object of a window has the keys architecture (the label passed in),
    n_flagged, n_nodes, nodes, threshold, [timings,] window_start; a node
    is an object with bot_probability, node_id and verdict (`verdicts`),
    and n_flagged counts the true verdicts. The node entries are written
    straight from the arrays, between the encoded keys that sort before
    "nodes" and those that sort after it.
    """
    extra_trees.check_threshold(threshold)
    for w in windows:
        flags = extra_trees.verdicts(w.probabilities, threshold).tolist()
        head = _JSON.encode({"architecture": architecture, "n_flagged": sum(flags),
                             "n_nodes": len(w.nodes)})
        tail = {"threshold": threshold, "window_start": w.window_start}
        if include_timings:
            tail["timings"] = w.timings
        # The encoder's own text of every probability ("NaN" included);
        # no float's text holds a comma.
        probs = _JSON.encode(w.probabilities.tolist())[1:-1].split(",")
        nodes = ",".join(
            f'{{"bot_probability":{p},"node_id":{_JSON.encode(node)},'
            f'"verdict":{_JSON_BOOL[verdict]}}}'
            for p, node, verdict in zip(probs, w.nodes, flags)
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


def _network_input(variant: str):
    """The variant's entry in `VARIANTS`; an unknown variant is refused."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown feature variant {variant!r}")
    return VARIANTS[variant]


def window_rows(window: WindowSlice, model: GcnModel, norm_mode: str = DEFAULT_NORM_MODE,
                variant: str = "fused") -> tuple[np.ndarray, dict[str, float]]:
    """The classifier rows of a window, which training pools and detection scores.

    Returns one normalized row per node, in the order of
    ``window.node_index[0]``, and the seconds spent in the features, graph,
    embed and normalize stages. A row is the frozen network's final hidden
    layer on the variant's input (`VARIANTS`); the network must pass
    `check_model`.
    """
    network_input = _network_input(variant)
    t0 = time.perf_counter()
    vectors = features = extract_node_features(window)
    t1 = t2 = time.perf_counter()
    if network_input is not None:
        P = propagation_matrix(build_graph(window))
        t2 = time.perf_counter()
        vectors = forward(model, P, network_input(features))
    t3 = time.perf_counter()
    rows = normalize_embedding(vectors, norm_mode)
    t4 = time.perf_counter()
    return rows, {"features": t1 - t0, "graph": t2 - t1, "embed": t3 - t2, "normalize": t4 - t3}


def pool_labeled_rows(
    table: FlowTable,
    model: GcnModel,
    window_len: float = DEFAULT_WINDOW_LEN,
    stride: float = DEFAULT_STRIDE,
    norm_mode: str = DEFAULT_NORM_MODE,
    variant: str = "fused",
):
    """The rows of `window_rows` pooled across a trace's windows, labeled 1 = bot,
    and the node (host) of each row.

    The parsed flows are windowed by `trace_windows` and their nodes labeled
    by `node_labels`; nodes it marks unknown are left out of the pool. A
    model that fails `check_model` is refused before the flows are read,
    except by `flow_only`, which reads no model.
    """
    if _network_input(variant) is not None:
        check_model(model)
    flows, windows = trace_windows(table, window_len, stride)
    classes = {node: int(label is Label.BOT)
               for node, label in node_labels(flows).items() if label is not Label.UNKNOWN}
    X_parts, y_parts, host_parts = [], [], []
    for window in windows:
        nodes = window.node_index[0]
        rows, _ = window_rows(window, model, norm_mode, variant)
        y = np.array([classes.get(node, -1) for node in nodes], dtype=np.int64)
        keep = y >= 0
        if keep.any():
            X_parts.append(rows[keep])
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
) -> list[WindowReport]:
    """Per-window bot probabilities with stage timings; no cross-window
    aggregation.

    The parsed flows are windowed by `trace_windows` with the ensemble's
    ``window_len`` and ``stride``, and `window_rows` normalizes with the
    mode it was trained on; a pair that fails `check_model` is refused
    before the flows are read. Windows are scored independently, so where
    two CPUs are available the second half is scored in one forked worker
    (`forking.in_two_halves`); the scores have the same bytes either way.
    """
    check_model(model, ensemble)
    _, windows = trace_windows(table, ensemble.window_len, ensemble.stride)

    def score(i: int) -> WindowReport:
        window = windows[i]
        rows, timings = window_rows(window, model, ensemble.norm_mode)
        t0 = time.perf_counter()
        probs = extra_trees.predict_proba(ensemble, rows)
        timings["classify"] = time.perf_counter() - t0
        return WindowReport(window.window_start, window.node_index[0], probs, timings)

    return in_two_halves(score, len(windows), "window")
