"""Directed communication graph per window and its normalized propagation matrix."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from botfuse.flow_features import FEATURE_DIM, NodeFeatures
from botfuse.flow_ingest import WindowSlice

# Per-node label codes used in CommGraph.labels arrays.
LABEL_LEGIT = 0
LABEL_BOT = 1
LABEL_UNKNOWN = -1

_CODE_TO_NAME = {LABEL_LEGIT: "legit", LABEL_BOT: "bot", LABEL_UNKNOWN: "unknown"}
_NAME_TO_CODE = {name: code for code, name in _CODE_TO_NAME.items()}

GRAPH_FORMAT = "botfuse-graph"
GRAPH_FORMAT_VERSION = 1


@dataclass
class CommGraph:
    """Nodes in lexicographic id order, directed edges as a lexicographically
    sorted, duplicate-free (m, 2) int64 array of index pairs (any collection
    of (i, j) pairs is accepted and canonicalized here), and a row-aligned
    per-node feature matrix."""

    nodes: list[str]
    edges: np.ndarray
    features: np.ndarray
    labels: np.ndarray | None = None
    dropped_self_loops: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.edges = _canonical_edges(self.edges, self.n)

    @property
    def n(self) -> int:
        return len(self.nodes)


def _canonical_edges(edges, n: int) -> np.ndarray:
    """Sorted, duplicate-free (m, 2) int64 copy of the (i, j) pairs. The
    ValueError for bad input names the first pair at fault."""
    raw = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        pairs = np.array(raw, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    if pairs is None or not (pairs.shape == (0,) or pairs.ndim == 2 and pairs.shape[1] == 2):
        bad = next((p for p in raw if not _is_int64_pair(p)), raw)
        raise ValueError(f"bad edge {bad!r}")
    pairs = pairs.reshape(-1, 2)
    outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
    if outside.any():
        raise ValueError(f"edge {raw[int(np.argmax(outside))]!r} out of range")
    # Codes i*n + j sort like the pairs, so sorting them sorts the pairs.
    codes = _sorted_unique(pairs[:, 0] * n + pairs[:, 1])
    return np.column_stack((codes // n, codes % n))


def _is_int64_pair(p) -> bool:
    try:
        np.array(p, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return False
    return np.ndim(p) == 1 and len(p) == 2


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """``np.unique(codes)`` by a sort and a neighbor comparison: with numpy
    2.4, np.unique took 7-16x longer on window-sized int64 arrays."""
    codes = np.sort(codes)
    keep = np.empty(codes.size, dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def build_graph(window: WindowSlice, features: NodeFeatures) -> CommGraph:
    """Build the directed unweighted communication graph of one window.

    A flow adds src -> dst when the source sent bytes and dst -> src when the
    destination sent bytes. Duplicate edges collapse; self-addressed flows
    are dropped and counted. ``features`` must be the window's own, so its
    rows are the graph's nodes.
    """
    table = window.table
    nodes, local = table.node_index()
    if nodes != features.nodes:
        missing = sorted(set(nodes).difference(features.nodes))
        if missing:
            raise ValueError(f"missing features for endpoint {missing[0]!r}")
        raise ValueError("feature rows do not match the window's endpoints")

    keep = local[:, 0] != local[:, 1]
    edges = np.concatenate((
        local[(table.src_bytes != 0) & keep],
        local[(table.dst_bytes != 0) & keep, ::-1],
    ))

    return CommGraph(
        nodes=nodes,
        edges=edges,
        features=features.matrix,
        dropped_self_loops=len(table) - int(keep.sum()),
    )


def propagation_matrix(graph: CommGraph) -> sp.csr_matrix:
    """Symmetric degree-normalized propagation matrix of the graph.

    The directed edge set is symmetrized (a pair is connected when either
    direction is present), each node's degree is its neighbor count in the
    symmetrized graph, and the entry for a connected pair (i, j) is
    1/sqrt(d_i * d_j). Isolated nodes get all-zero rows and columns. The
    result is in canonical CSR form (sorted indices, no duplicates).
    """
    n = graph.n
    i, j = graph.edges.T
    # Codes r*n + c sort like (row, col) pairs: the sorted union of both
    # directions is the symmetrized entry list in CSR order.
    codes = _sorted_unique(np.concatenate((i * n + j, j * n + i)))
    rows, cols = np.divmod(codes, n)
    degree = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])

    inv_sqrt = np.zeros(n, dtype=np.float64)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    values = inv_sqrt[rows] * inv_sqrt[cols]
    return sp.csr_matrix((values, cols, indptr), shape=(n, n))


def graph_to_json(graph: CommGraph) -> dict:
    """Interchange representation used for pretraining datasets and debugging."""
    payload: dict = {
        "format": GRAPH_FORMAT,
        "version": GRAPH_FORMAT_VERSION,
        "n": graph.n,
        "nodes": list(graph.nodes),
        "edges": graph.edges.tolist(),
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
    if not _is_int(n) or n < 0:
        raise ValueError(f"graph schema violation: n must be an integer >= 0, got {n!r}")
    nodes = payload["nodes"]
    if not isinstance(nodes, list) or len(nodes) != n:
        raise ValueError("graph schema violation: node list does not match n")

    edges = payload["edges"]
    if not isinstance(edges, list):
        raise ValueError(f"graph schema violation: bad edge list {edges!r}")
    for edge in edges:
        if not (isinstance(edge, list) and len(edge) == 2 and all(map(_is_int, edge))):
            raise ValueError(f"graph schema violation: bad edge {edge!r}")

    labels = None
    raw_labels = payload.get("labels")
    if raw_labels is not None:
        if not isinstance(raw_labels, list):
            raise ValueError("graph schema violation: labels must be a list or null")
        if len(raw_labels) != n:
            raise ValueError("graph schema violation: label list does not match n")
        try:
            labels = np.array([_NAME_TO_CODE[name] for name in raw_labels], dtype=np.int8)
        except (KeyError, TypeError):
            bad = next(name for name in raw_labels if name not in _CODE_TO_NAME.values())
            raise ValueError(f"graph schema violation: unknown label {bad!r}") from None

    raw_features = payload.get("features")
    if raw_features is not None:
        if not isinstance(raw_features, list) or not all(
            isinstance(row, list) and all(map(_is_number, row)) for row in raw_features
        ):
            raise ValueError("graph schema violation: features must be numbers")
        try:
            features = np.asarray(raw_features, dtype=np.float64)
        except (ValueError, OverflowError):
            raise ValueError("graph schema violation: features must be numbers") from None
        if features.shape != (n, FEATURE_DIM):
            raise ValueError(
                f"graph schema violation: feature matrix shape {features.shape}, "
                f"expected {(n, FEATURE_DIM)}"
            )
    else:
        features = np.zeros((n, FEATURE_DIM), dtype=np.float64)

    meta = payload.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ValueError("graph schema violation: meta must be an object or null")

    try:
        return CommGraph(
            nodes=list(nodes),
            edges=edges,
            features=features,
            labels=labels,
            meta=dict(meta or {}),
        )
    except ValueError as exc:
        raise ValueError(f"graph schema violation: {exc}") from None


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number: an int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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

