"""The benchmark hooks into botfuse by module and function name.

A renamed or removed traced function or imported name would otherwise only
show up when the benchmark's own suite runs (``python3 -m pytest perfbench``).
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_botfuse_import_resolves():
    # The benchmark imports botfuse inside its functions, so the names are
    # found by walking each file's syntax tree, not by importing it.
    imports = [
        (path.name, node.module, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "botfuse"
        for alias in node.names
    ]
    assert any(module == "botfuse.pretrain" for _, module, _ in imports)
    missing = [f"{where}: from {module} import {name}" for where, module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TRACED
    for modname, attr, *_ in tracing.TRACED:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"


def test_graph_hooks_count_edges_and_nnz(monkeypatch):
    import numpy as np

    from botfuse.comm_graph import build_graph, propagation_matrix
    from botfuse.flow_features import extract_node_features
    from botfuse.flow_ingest import FlowRecord, Proto, WindowSlice

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    flows = [("a", "b", 10, 5), ("a", "c", 10, 0), ("c", "d", 0, 0), ("e", "e", 3, 3)]
    window = WindowSlice(0.0, 60.0, [
        FlowRecord(0.0, 1.0, Proto.TCP, src, 1, dst, 2, up, down)
        for src, dst, up, down in flows
    ])
    graph = build_graph(window, extract_node_features(window))
    P = propagation_matrix(graph)
    counts = tracing._graph(None, (window,), {}, graph)
    assert counts == {"comm_graph.edges": 3, "comm_graph.dropped_self_loops": 1}
    assert counts["comm_graph.edges"] == graph.edges.shape[0]
    counts = tracing._propagation(None, (graph,), {}, P)
    # a-b and a-c are connected both ways; d and e are isolated.
    assert counts == {"comm_graph.nnz": 4, "comm_graph.isolated_nodes": 2}
    assert counts["comm_graph.nnz"] == np.count_nonzero(P.toarray())


def test_gcn_model_keeps_residual_mode():
    from botfuse.gcn_core import GcnModel, gcn_layer_forward

    assert "residual_mode" in GcnModel.__dataclass_fields__
    assert callable(gcn_layer_forward)


def test_window_and_feature_hooks_count_on_a_real_trace(monkeypatch):
    from botfuse.flow_features import extract_node_features
    from botfuse.flow_ingest import FlowRecord, Proto, slice_windows

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    # Flows at 5 s and 25 s in 30 s windows every 10 s: the windows at 0
    # (both flows), 10 and 20 (the second) hold 4 record copies.
    records = [
        FlowRecord(5.0, 1.0, Proto.TCP, "a", 1, "b", 2, 10, 5),
        FlowRecord(25.0, 1.0, Proto.UDP, "b", 1, "c", 2, 0, 7),
    ]
    windows = slice_windows(records, window_len=30.0, stride=10.0)
    counts = tracing._slice(None, (records,), {}, windows)
    assert counts == {"flow_ingest.windows": 3, "_sliced_flows": 2, "_window_records": 4}
    feats = extract_node_features(windows[0])
    assert len(feats) == len(feats.nodes) == 3
    assert tracing._features(None, (windows[0],), {}, feats) == {
        "flow_features.node_windows": 3
    }
