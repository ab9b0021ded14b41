"""Directed communication graph per window and its normalized propagation matrix."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from botfuse.flow_ingest import Label, WindowSlice

GRAPH_FORMAT = "botfuse-graph"
GRAPH_FORMAT_VERSION = 1


@dataclass(eq=False)
class CommGraph:
    """Nodes in lexicographic id order and directed edges as a
    lexicographically sorted, duplicate-free (m, 2) int64 array of index
    pairs; any collection of in-range (i, j) pairs is accepted and
    canonicalized here. A graph holds topology and, when read from a file
    or made by the synthetic generator, ``labels``: an object array of one
    `Label` member per node. Node features are computed per window, never
    stored here."""

    nodes: list[str]
    edges: np.ndarray
    labels: np.ndarray | None = None
    dropped_self_loops: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        raw = self.edges if isinstance(self.edges, np.ndarray) else list(self.edges)
        pairs = np.array(raw, dtype=np.int64).reshape(-1, 2)
        n = self.n
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            bad = pairs[((pairs < 0) | (pairs >= n)).any(axis=1)][0]
            raise ValueError(f"edge {bad.tolist()!r} out of range for {n} nodes")
        # Codes i*n + j sort like the pairs, so sorting them sorts the pairs.
        codes = _sorted_unique(pairs[:, 0] * n + pairs[:, 1])
        self.edges = np.column_stack((codes // n, codes % n))

    @property
    def n(self) -> int:
        return len(self.nodes)


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """``np.unique(codes)`` by a sort and a neighbor comparison: with numpy
    2.4, np.unique took 7-16x longer on window-sized int64 arrays."""
    codes = np.sort(codes)
    keep = np.empty(codes.size, dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def build_graph(window: WindowSlice) -> CommGraph:
    """Build the directed unweighted communication graph of one window.

    A flow adds src -> dst when the source sent bytes and dst -> src when the
    destination sent bytes. Duplicate edges collapse; self-addressed flows
    are dropped and counted. The graph's node list is the window's
    ``node_index`` list, the one `extract_node_features` orders its rows by.
    """
    table = window.table
    nodes, local = window.node_index
    keep = local[:, 0] != local[:, 1]
    edges = np.concatenate((
        local[(table.src_bytes != 0) & keep],
        local[(table.dst_bytes != 0) & keep, ::-1],
    ))

    return CommGraph(
        nodes=nodes,
        edges=edges,
        dropped_self_loops=len(table) - int(keep.sum()),
    )


def _load_csr_kernel():
    """scipy's compiled sparse routines, ``scipy.sparse._sparsetools``.

    Loaded from the installed scipy's ``sparse/`` directory without running
    ``scipy/sparse/__init__.py``, which also imports scipy's array-API layer
    and more than doubles the modules a fresh ``import botfuse.cli`` loads.
    When ``scipy.sparse`` is already loaded, its copy is taken.
    """
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:
        scipy_dir = importlib.machinery.PathFinder.find_spec("scipy").submodule_search_locations[0]
        finder = importlib.machinery.FileFinder(
            str(Path(scipy_dir, "sparse")),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        )
        spec = finder.find_spec(name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


_sparsetools = _load_csr_kernel()


@dataclass(frozen=True, eq=False)
class Propagation:
    """An n x n propagation matrix as canonical CSR arrays (int64 indices
    sorted within each row, no duplicates): row i holds ``data[indptr[i]:
    indptr[i + 1]]`` in the columns ``indices[indptr[i]:indptr[i + 1]]``.

    ``P @ Y`` for a 2-D Y runs ``csr_matvecs`` from scipy's compiled
    ``_sparsetools``, the loop that ``scipy.sparse.csr_matrix @ Y`` ends in,
    and returns its float64 bits. ``nnz`` and ``getnnz`` are read only by
    the benchmark's tracer."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __matmul__(self, Y) -> np.ndarray:
        Y = np.asarray(Y)
        n_rows, n_cols = self.shape
        # The kernel reads Y through a raw pointer and checks no size.
        if Y.ndim != 2 or Y.shape[0] != n_cols:
            raise ValueError(f"dimension mismatch: {self.shape} @ {Y.shape}")
        # The kernel adds each row's products into the result, so it starts
        # at zero; it copies a non-contiguous Y to C order itself.
        out = np.zeros((n_rows, Y.shape[1]))
        _sparsetools.csr_matvecs(
            n_rows, n_cols, Y.shape[1], self.indptr, self.indices, self.data, Y, out
        )
        return out

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def getnnz(self, axis: int) -> np.ndarray:
        """Stored entries per row; ``axis`` must be 1."""
        if axis != 1:
            raise ValueError("only per-row counts (axis=1) are kept")
        return np.diff(self.indptr)


def propagation_matrix(graph: CommGraph) -> Propagation:
    """Symmetric degree-normalized propagation matrix of the graph.

    The directed edge set is symmetrized (a pair is connected when either
    direction is present), each node's degree is its neighbor count in the
    symmetrized graph, and the entry for a connected pair (i, j) is
    1/sqrt(d_i * d_j). Isolated nodes get all-zero rows and columns. The
    result is a `Propagation` in canonical CSR form (sorted indices, no
    duplicates); building it imports no ``scipy.sparse``.
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
    return Propagation(indptr, cols, values, (n, n))


def graph_to_json(graph: CommGraph) -> dict:
    """Interchange representation used for pretraining datasets and debugging."""
    payload: dict = {
        "format": GRAPH_FORMAT,
        "version": GRAPH_FORMAT_VERSION,
        "n": graph.n,
        "nodes": list(graph.nodes),
        "edges": graph.edges.tolist(),
        "labels": None,
        "meta": dict(graph.meta),
    }
    if graph.labels is not None:
        payload["labels"] = [label.value for label in graph.labels]
    return payload


def graph_from_json(payload: dict) -> CommGraph:
    """Parse the interchange representation, validating its schema; keys it
    does not define, such as an older file's ``features``, are ignored."""
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
        if not (0 <= edge[0] < n and 0 <= edge[1] < n):
            raise ValueError(f"graph schema violation: edge {edge!r} out of range")

    labels = None
    raw_labels = payload.get("labels")
    if raw_labels is not None:
        if not isinstance(raw_labels, list):
            raise ValueError("graph schema violation: labels must be a list or null")
        if len(raw_labels) != n:
            raise ValueError("graph schema violation: label list does not match n")
        labels = np.empty(n, dtype=object)
        for i, name in enumerate(raw_labels):
            try:
                labels[i] = Label(name)
            except ValueError:
                raise ValueError(f"graph schema violation: unknown label {name!r}") from None

    meta = payload.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ValueError("graph schema violation: meta must be an object or null")

    return CommGraph(
        nodes=list(nodes),
        edges=edges,
        labels=labels,
        meta=dict(meta or {}),
    )


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def save_graph(graph: CommGraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(graph_to_json(graph), sort_keys=True), encoding="utf-8")


def load_graph(path: str | Path) -> CommGraph:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"graph file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"graph schema violation: {path} is not valid JSON ({exc})") from None
    return graph_from_json(payload)

