"""Directed communication graph per window and its normalized propagation matrix."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from botfuse.flow_features import FEATURE_DIM, NodeFlowFeatures
from botfuse.flow_ingest import Label, WindowSlice

# Per-node label codes used in CommGraph.labels arrays.
LABEL_LEGIT = 0
LABEL_BOT = 1
LABEL_UNKNOWN = -1

_LABEL_TO_CODE = {Label.LEGIT: LABEL_LEGIT, Label.BOT: LABEL_BOT, Label.UNKNOWN: LABEL_UNKNOWN}
_CODE_TO_NAME = {LABEL_LEGIT: "legit", LABEL_BOT: "bot", LABEL_UNKNOWN: "unknown"}
_NAME_TO_CODE = {name: code for code, name in _CODE_TO_NAME.items()}

GRAPH_FORMAT = "botfuse-graph"
GRAPH_FORMAT_VERSION = 1


@dataclass
class CommGraph:
    """Nodes in lexicographic id order, deduplicated directed edges as index
    pairs, and a row-aligned per-node feature matrix."""

    nodes: list[str]
    edges: set[tuple[int, int]]
    features: np.ndarray
    labels: np.ndarray | None = None
    dropped_self_loops: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def index(self, node_id: str) -> int:
        try:
            return self.nodes.index(node_id)
        except ValueError:
            raise KeyError(f"node {node_id!r} not in graph") from None


def build_graph(
    window: WindowSlice,
    features: Mapping[str, NodeFlowFeatures],
    node_labels: Mapping[str, Label] | None = None,
) -> CommGraph:
    """Build the directed unweighted communication graph of one window.

    A flow adds src -> dst when the source sent bytes and dst -> src when the
    destination sent bytes. Duplicate edges collapse; self-addressed flows
    are dropped and counted.
    """
    endpoints: set[str] = set()
    for r in window.records:
        endpoints.add(r.src_ip)
        endpoints.add(r.dst_ip)

    nodes = sorted(endpoints)
    index = {node: i for i, node in enumerate(nodes)}

    matrix = np.empty((len(nodes), FEATURE_DIM), dtype=np.float64)
    for node, i in index.items():
        try:
            matrix[i] = features[node].as_vector()
        except KeyError:
            raise ValueError(f"missing features for endpoint {node!r}") from None

    edges: set[tuple[int, int]] = set()
    dropped = 0
    for r in window.records:
        if r.src_ip == r.dst_ip:
            dropped += 1
            continue
        si, di = index[r.src_ip], index[r.dst_ip]
        if r.src_bytes != 0:
            edges.add((si, di))
        if r.dst_bytes != 0:
            edges.add((di, si))

    labels = None
    if node_labels is not None:
        labels = np.full(len(nodes), LABEL_UNKNOWN, dtype=np.int8)
        for node, i in index.items():
            labels[i] = _LABEL_TO_CODE[node_labels.get(node, Label.UNKNOWN)]

    return CommGraph(
        nodes=nodes,
        edges=edges,
        features=matrix,
        labels=labels,
        dropped_self_loops=dropped,
    )


def propagation_matrix(graph: CommGraph) -> sp.csr_matrix:
    """Symmetric degree-normalized propagation matrix of the graph.

    The directed edge set is symmetrized (a pair is connected when either
    direction is present), each node's degree is its neighbor count in the
    symmetrized graph, and the entry for a connected pair (i, j) is
    1/sqrt(d_i * d_j). Isolated nodes get all-zero rows and columns.
    """
    n = graph.n
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for i, j in graph.edges:
        neighbors[i].add(j)
        neighbors[j].add(i)

    degree = np.array([len(nb) for nb in neighbors], dtype=np.float64)
    inv_sqrt = np.zeros(n, dtype=np.float64)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i in range(n):
        for j in sorted(neighbors[i]):
            rows.append(i)
            cols.append(j)
            vals.append(inv_sqrt[i] * inv_sqrt[j])

    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.float64)
    return matrix.tocsr()


def graph_to_json(graph: CommGraph) -> dict:
    """Interchange representation used for pretraining datasets and debugging."""
    payload: dict = {
        "format": GRAPH_FORMAT,
        "version": GRAPH_FORMAT_VERSION,
        "n": graph.n,
        "nodes": list(graph.nodes),
        "edges": sorted(graph.edges),
        "labels": None,
        "features": None,
        "meta": dict(graph.meta),
    }
    if graph.labels is not None:
        payload["labels"] = [_CODE_TO_NAME[int(c)] for c in graph.labels]
    if graph.features is not None and graph.features.size:
        payload["features"] = graph.features.tolist()
    return payload


def graph_from_json(payload: dict) -> CommGraph:
    """Parse the interchange representation, validating its schema."""
    if not isinstance(payload, dict):
        raise ValueError("graph schema violation: top-level object expected")
    if payload.get("format") != GRAPH_FORMAT:
        raise ValueError(f"graph schema violation: format {payload.get('format')!r}")
    if payload.get("version") != GRAPH_FORMAT_VERSION:
        raise ValueError(f"unsupported graph format version {payload.get('version')!r}")

    for key in ("n", "nodes", "edges"):
        if key not in payload:
            raise ValueError(f"graph schema violation: missing field {key!r}")

    n = payload["n"]
    nodes = payload["nodes"]
    if not isinstance(nodes, list) or len(nodes) != n:
        raise ValueError("graph schema violation: node list does not match n")

    edges: set[tuple[int, int]] = set()
    for pair in payload["edges"]:
        if len(pair) != 2:
            raise ValueError(f"graph schema violation: bad edge {pair!r}")
        i, j = int(pair[0]), int(pair[1])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"graph schema violation: edge {pair!r} out of range")
        edges.add((i, j))

    labels = None
    raw_labels = payload.get("labels")
    if raw_labels is not None:
        if len(raw_labels) != n:
            raise ValueError("graph schema violation: label list does not match n")
        try:
            labels = np.array([_NAME_TO_CODE[name] for name in raw_labels], dtype=np.int8)
        except KeyError as exc:
            raise ValueError(f"graph schema violation: unknown label {exc.args[0]!r}") from None

    raw_features = payload.get("features")
    if raw_features is not None:
        features = np.asarray(raw_features, dtype=np.float64)
        if features.shape != (n, FEATURE_DIM):
            raise ValueError(
                f"graph schema violation: feature matrix shape {features.shape}, "
                f"expected {(n, FEATURE_DIM)}"
            )
    else:
        features = np.zeros((n, FEATURE_DIM), dtype=np.float64)

    return CommGraph(
        nodes=list(nodes),
        edges=edges,
        features=features,
        labels=labels,
        meta=dict(payload.get("meta") or {}),
    )


def save_graph(graph: CommGraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(graph_to_json(graph), sort_keys=True))


def load_graph(path: str | Path) -> CommGraph:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"graph file not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"graph schema violation: {path} is not valid JSON ({exc})") from None
    return graph_from_json(payload)


def estimate_spectral_radius(matrix: sp.spmatrix, n_iter: int = 200, seed: int = 0) -> float:
    """Power-iteration estimate of the largest absolute eigenvalue."""
    n = matrix.shape[0]
    if n == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(n)
    norm = np.linalg.norm(vec)
    if norm == 0:
        return 0.0
    vec /= norm
    estimate = 0.0
    for _ in range(n_iter):
        nxt = matrix @ vec
        norm = np.linalg.norm(nxt)
        if norm == 0:
            return 0.0
        estimate = norm
        vec = nxt / norm
    return float(estimate)
